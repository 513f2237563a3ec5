//! Cluster end-to-end: real loopback members under a real coordinator.
//!
//! The load-bearing claims, each pinned here against a live TCP
//! topology:
//!
//! * a 2-node scattered campaign's merged ranking is **bit-identical**
//!   to the in-process single-stream reference (same indices, names,
//!   and f32 score bits);
//! * killing a member mid-campaign re-dispatches its unfinished window
//!   and the final ranking is *still* bit-identical;
//! * a second submission of an already-screened receptor routes by
//!   affinity once the probe round has refreshed the shard tables;
//! * an inline PDBQT library scatters like a synthetic one, a malformed
//!   model keeping its index across the window boundary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mudock_cluster::{ClusterConfig, Coordinator};
use mudock_core::{screen_campaign, Campaign, CampaignSpec, ChunkPolicy, StopPolicy};
use mudock_grids::{GridBuilder, GridDims};
use mudock_mol::{Molecule, Vec3};
use mudock_molio::mediate_like_set;
use mudock_serve::net::client;
use mudock_serve::{
    JobState, LigandSource, NetConfig, NetServer, Priority, ReceptorSource, ScreenService,
    ServeConfig,
};

const SEED: u64 = 42;
const RECEPTOR_SEED: u64 = 7;
const RECEPTOR_ATOMS: usize = 120;
const RECEPTOR_RADIUS: f32 = 8.0;

fn dims() -> GridDims {
    GridDims::centered(Vec3::ZERO, 10.0, 0.7)
}

fn campaign(name: &str, top_k: usize) -> CampaignSpec {
    Campaign::builder()
        .name(name)
        .population(10)
        .generations(5)
        .seed(SEED)
        .search_radius(3.5)
        .top_k(top_k)
        .chunk(ChunkPolicy::Fixed(6))
        .grid_dims(dims())
        .build()
        .expect("the test campaign is valid")
}

fn receptor_source() -> ReceptorSource {
    ReceptorSource::Synth {
        seed: RECEPTOR_SEED,
        atoms: RECEPTOR_ATOMS,
        radius: RECEPTOR_RADIUS,
    }
}

/// `(index, name, score)` of the single-stream reference ranking — the
/// same in-process `core::screen_campaign` oracle the node e2e uses.
fn reference_top_for(spec: &CampaignSpec, n_ligands: usize) -> Vec<(usize, String, f32)> {
    reference_top(spec, &mediate_like_set(SEED, n_ligands))
}

/// [`reference_top_for`] over any ligand list.
fn reference_top(spec: &CampaignSpec, ligands: &[Molecule]) -> Vec<(usize, String, f32)> {
    let rec = mudock_molio::synthetic_receptor(RECEPTOR_SEED, RECEPTOR_ATOMS, RECEPTOR_RADIUS);
    let grids = GridBuilder::new(&rec, dims()).build_simd(spec.grid_level());
    let full = CampaignSpec {
        stop: StopPolicy::Complete,
        ..spec.clone()
    };
    let summary = screen_campaign(&grids, ligands, &full, 1);
    summary
        .top_k(spec.top_k)
        .into_iter()
        .map(|i| {
            (
                i,
                summary.results[i].name.clone(),
                summary.results[i].best_score.unwrap(),
            )
        })
        .collect()
}

fn assert_bit_identical(
    got: &[mudock_serve::RankedLigand],
    reference: &[(usize, String, f32)],
    context: &str,
) {
    assert_eq!(got.len(), reference.len(), "{context}: ranking length");
    for (g, (index, name, score)) in got.iter().zip(reference) {
        assert_eq!(g.index, *index, "{context}: tie order drifted");
        assert_eq!(&g.name, name, "{context}");
        assert_eq!(
            g.score.to_bits(),
            score.to_bits(),
            "{context}: score bits for {name} drifted through scatter/gather"
        );
    }
}

/// One loopback member node: service + network frontend.
struct MemberNode {
    service: Arc<ScreenService>,
    server: NetServer,
    results_dir: std::path::PathBuf,
}

impl MemberNode {
    fn start(name: &str) -> MemberNode {
        let results_dir =
            std::env::temp_dir().join(format!("mudock-cluster-e2e-{}-{name}", std::process::id()));
        let service = Arc::new(ScreenService::start(ServeConfig {
            total_threads: 1,
            job_slots: 2,
            ..ServeConfig::default()
        }));
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig {
                results_dir: results_dir.clone(),
                ..NetConfig::default()
            },
        )
        .expect("loopback bind");
        MemberNode {
            service,
            server,
            results_dir,
        }
    }

    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    fn jobs_submitted(&self) -> u64 {
        self.service.stats().jobs_submitted
    }
}

impl Drop for MemberNode {
    fn drop(&mut self) {
        self.server.shutdown();
        self.service.shutdown();
        std::fs::remove_dir_all(&self.results_dir).ok();
    }
}

fn coordinator_over(nodes: Vec<String>) -> Coordinator {
    Coordinator::bind(
        "127.0.0.1:0",
        ClusterConfig {
            nodes,
            health_interval: Duration::from_millis(50),
            dead_after: 2,
            scatter_min_ligands: 4,
            poll_interval: Duration::from_millis(10),
            ..ClusterConfig::default()
        },
    )
    .expect("coordinator bind")
}

#[test]
fn two_node_scatter_is_bit_identical_to_a_single_stream() {
    const N_LIGANDS: usize = 24;
    const TOP_K: usize = 5;
    let m1 = MemberNode::start("scatter-1");
    let m2 = MemberNode::start("scatter-2");
    let coordinator = coordinator_over(vec![m1.addr(), m2.addr()]);
    let addr = coordinator.local_addr().to_string();

    let spec = campaign("cluster-parity", TOP_K);
    let mut conn = client::Client::new(&addr);
    let id = conn
        .submit(
            &spec,
            &receptor_source(),
            &LigandSource::synth(SEED, N_LIGANDS),
            Priority::Normal,
        )
        .expect("submit to the coordinator");
    let status = conn.wait(id).expect("poll the coordinator to terminal");
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(status.ligands_done, N_LIGANDS);
    let outcome = status.outcome.expect("terminal outcome");
    assert_bit_identical(
        &outcome.top,
        &reference_top_for(&spec, N_LIGANDS),
        "2-node scatter",
    );

    // The fan-out was real: each member screened one window.
    assert_eq!(m1.jobs_submitted(), 1, "member 1 got a window");
    assert_eq!(m2.jobs_submitted(), 1, "member 2 got a window");

    // Gathered JSONL covers every ligand, windows in stream order.
    let body = conn.results(id).expect("gathered results");
    assert_eq!(body.lines().count(), N_LIGANDS);

    coordinator.shutdown();
}

#[test]
fn member_death_mid_campaign_redispatches_and_stays_bit_identical() {
    const N_LIGANDS: usize = 48;
    const TOP_K: usize = 6;
    let m1 = MemberNode::start("failover-1");
    let m2 = MemberNode::start("failover-2");
    let coordinator = coordinator_over(vec![m1.addr(), m2.addr()]);
    let addr = coordinator.local_addr().to_string();

    // Heavy enough that the kill below always lands mid-window.
    let spec = Campaign::builder()
        .name("cluster-failover")
        .population(30)
        .generations(120)
        .seed(SEED)
        .search_radius(3.5)
        .top_k(TOP_K)
        .chunk(ChunkPolicy::Fixed(4))
        .grid_dims(dims())
        .build()
        .unwrap();
    let mut conn = client::Client::new(&addr);
    let id = conn
        .submit(
            &spec,
            &receptor_source(),
            &LigandSource::synth(SEED, N_LIGANDS),
            Priority::Normal,
        )
        .expect("submit to the coordinator");

    // Wait until both members hold a window, then kill member 2 while
    // its window is still screening.
    let deadline = Instant::now() + Duration::from_secs(30);
    while m1.jobs_submitted() < 1 || m2.jobs_submitted() < 1 {
        assert!(Instant::now() < deadline, "windows never dispatched");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(m2);

    let status = conn
        .wait(id)
        .expect("the campaign survives the member death");
    assert_eq!(
        status.state,
        JobState::Completed,
        "outcome: {:?}",
        status.outcome
    );
    assert_eq!(status.ligands_done, N_LIGANDS);
    let outcome = status.outcome.expect("terminal outcome");
    assert_bit_identical(
        &outcome.top,
        &reference_top_for(&spec, N_LIGANDS),
        "post-failover",
    );

    // The dead member's window was re-dispatched: the survivor screened
    // its own window plus the orphaned one.
    assert_eq!(
        m1.jobs_submitted(),
        2,
        "the orphaned window must land on the survivor"
    );
    // And the coordinator noticed the death.
    let dead = coordinator
        .membership()
        .snapshot()
        .iter()
        .filter(|m| m.state == mudock_cluster::MemberState::Dead)
        .count();
    assert_eq!(dead, 1, "the killed member is marked dead");

    coordinator.shutdown();
}

#[test]
fn repeat_receptor_routes_by_affinity_and_cluster_endpoints_answer() {
    // Below the scatter floor on purpose: affinity steers *whole-job*
    // placement, so this test's submissions must stay single-window.
    const N_LIGANDS: usize = 3;
    let m1 = MemberNode::start("affinity-1");
    let m2 = MemberNode::start("affinity-2");
    let coordinator = coordinator_over(vec![m1.addr(), m2.addr()]);
    let addr = coordinator.local_addr().to_string();
    let mut conn = client::Client::new(&addr);

    // Coordinator identity endpoints speak the node dialect, plus role.
    let health = conn.request("GET", "/healthz", None).unwrap().ok().unwrap();
    assert!(
        health.body.contains("\"role\":\"coordinator\""),
        "{}",
        health.body
    );
    assert!(health.body.contains("\"version\":"), "{}", health.body);

    let spec = campaign("affinity-pass-1", 3);
    let id = conn
        .submit(
            &spec,
            &receptor_source(),
            &LigandSource::synth(SEED, N_LIGANDS),
            Priority::Normal,
        )
        .unwrap();
    let status = conn.wait(id).unwrap();
    assert_eq!(status.state, JobState::Completed);

    // Let the probe round pick up the members' shard tables.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !coordinator
        .membership()
        .snapshot()
        .iter()
        .any(|m| m.shard_count > 0)
    {
        assert!(
            Instant::now() < deadline,
            "probe rounds never refreshed a shard table"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Same receptor again: the router must now hit the affinity path.
    let spec2 = CampaignSpec {
        name: "affinity-pass-2".into(),
        ..spec.clone()
    };
    let id2 = conn
        .submit(
            &spec2,
            &receptor_source(),
            &LigandSource::synth(SEED, N_LIGANDS),
            Priority::Normal,
        )
        .unwrap();
    assert_ne!(id, id2);
    let status2 = conn.wait(id2).unwrap();
    assert_eq!(status2.state, JobState::Completed);

    let metrics = conn.request("GET", "/metrics", None).unwrap().ok().unwrap();
    let affinity_line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("mudock_cluster_routed_total{reason=\"affinity\"}"))
        .expect("affinity counter is exported");
    let count: u64 = affinity_line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("counter value");
    assert!(
        count >= 1,
        "second submission routed by affinity: {metrics:?}"
    );

    // Cluster /stats describes members, not shards.
    let stats = conn.request("GET", "/stats", None).unwrap().ok().unwrap();
    let v = mudock_serve::wire::parse(&stats.body).expect("stats JSON parses");
    assert!(
        matches!(v.get("members"), Some(mudock_serve::wire::Json::Arr(ms)) if ms.len() == 2),
        "{}",
        stats.body
    );

    coordinator.shutdown();
}

#[test]
fn an_inline_pdbqt_library_scatters_and_stays_bit_identical() {
    const N_MODELS: usize = 16;
    const MALFORMED: usize = 9;
    const TOP_K: usize = 5;
    let m1 = MemberNode::start("pdbqt-1");
    let m2 = MemberNode::start("pdbqt-2");
    let coordinator = coordinator_over(vec![m1.addr(), m2.addr()]);
    let addr = coordinator.local_addr().to_string();

    // Model 10 (index 9, in the second window) does not parse: it docks
    // as an unscorable ligand and every model keeps its index.
    let text: String = (mediate_like_set(SEED, N_MODELS).iter().enumerate())
        .map(|(i, m)| match i {
            MALFORMED => format!("MODEL {}\nATOM garbage\nENDMDL\n", i + 1),
            _ => format!("MODEL {}\n{}ENDMDL\n", i + 1, mudock_molio::write(m)),
        })
        .collect();
    let ligands: Vec<Molecule> = (mudock_molio::parse_models(&text).enumerate())
        .map(|(i, m)| m.unwrap_or_else(|_| Molecule::new(format!("MODEL {}", i + 1))))
        .collect();

    let spec = campaign("cluster-pdbqt", TOP_K);
    let mut conn = client::Client::new(&addr);
    let id = conn
        .submit(
            &spec,
            &receptor_source(),
            &LigandSource::from_pdbqt(text),
            Priority::Normal,
        )
        .expect("submit to the coordinator");
    let status = conn.wait(id).expect("poll the coordinator to terminal");
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(status.ligands_done, N_MODELS, "the malformed model counts");
    let outcome = status.outcome.expect("terminal outcome");
    assert_bit_identical(
        &outcome.top,
        &reference_top(&spec, &ligands),
        "inline-PDBQT scatter",
    );
    assert_eq!(m1.jobs_submitted(), 1, "member 1 got a window");
    assert_eq!(m2.jobs_submitted(), 1, "member 2 got a window");

    let body = conn.results(id).expect("gathered results");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), N_MODELS, "one JSONL line per model");
    let unscored = format!(
        "\"index\":{MALFORMED},\"ligand\":\"MODEL {}\",\"score\":null",
        MALFORMED + 1
    );
    assert!(lines[MALFORMED].contains(&unscored), "{}", lines[MALFORMED]);

    coordinator.shutdown();
}
