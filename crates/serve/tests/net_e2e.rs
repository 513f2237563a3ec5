//! End-to-end network tests: a real loopback TCP socket in front of a
//! running [`ScreenService`], driven through the blocking client —
//! submit → poll → results → cancel — with the served ranking checked
//! for exact equality against the in-process `screen_campaign` path
//! for the same spec and seed.

use std::sync::Arc;
use std::time::Duration;

use mudock_core::{screen_campaign, Campaign, CampaignSpec, ChunkPolicy, StopPolicy};
use mudock_grids::{GridBuilder, GridDims};
use mudock_mol::Vec3;
use mudock_molio::mediate_like_set;
use mudock_serve::net::client;
use mudock_serve::{
    JobState, LigandSource, NetConfig, NetServer, Priority, ReceptorSource, ScreenService,
    ServeConfig,
};

const SEED: u64 = 42;
const N_LIGANDS: usize = 24;
const TOP_K: usize = 5;
const RECEPTOR_SEED: u64 = 7;
const RECEPTOR_ATOMS: usize = 120;
const RECEPTOR_RADIUS: f32 = 8.0;

fn dims() -> GridDims {
    GridDims::centered(Vec3::ZERO, 10.0, 0.7)
}

fn campaign(name: &str) -> CampaignSpec {
    Campaign::builder()
        .name(name)
        .population(10)
        .generations(5)
        .seed(SEED)
        .search_radius(3.5)
        .top_k(TOP_K)
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

/// `(index, name, score)` of the reference ranking: a one-shot
/// sequential `core::screen_campaign` over the materialized batch,
/// consuming the *same* `CampaignSpec` the network job ran from.
fn reference_top_for(spec: &CampaignSpec) -> Vec<(usize, String, f32)> {
    let rec = mudock_molio::synthetic_receptor(RECEPTOR_SEED, RECEPTOR_ATOMS, RECEPTOR_RADIUS);
    let grids = GridBuilder::new(&rec, dims()).build_simd(spec.grid_level());
    let ligands = mediate_like_set(SEED, N_LIGANDS);
    let full = CampaignSpec {
        stop: StopPolicy::Complete,
        ..spec.clone()
    };
    let summary = screen_campaign(&grids, &ligands, &full, 1);
    summary
        .top_k(TOP_K)
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

struct Harness {
    service: Arc<ScreenService>,
    server: NetServer,
    results_dir: std::path::PathBuf,
}

impl Harness {
    fn start(name: &str, cfg: ServeConfig) -> Harness {
        // 0 = the frontend's own default loop count.
        Harness::start_with_loops(name, cfg, 0)
    }

    fn start_with_loops(name: &str, cfg: ServeConfig, event_loops: usize) -> Harness {
        let results_dir =
            std::env::temp_dir().join(format!("mudock-net-e2e-{}-{name}", std::process::id()));
        let service = Arc::new(ScreenService::start(cfg));
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig {
                results_dir: results_dir.clone(),
                event_loops,
                ..NetConfig::default()
            },
        )
        .expect("loopback bind");
        Harness {
            service,
            server,
            results_dir,
        }
    }

    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.server.shutdown();
        self.service.shutdown();
        std::fs::remove_dir_all(&self.results_dir).ok();
    }
}

#[test]
fn submit_poll_results_match_the_in_process_ranking_exactly() {
    let h = Harness::start(
        "parity",
        ServeConfig {
            total_threads: 2,
            job_slots: 2,
            ..ServeConfig::default()
        },
    );
    let addr = h.addr();
    let spec = campaign("net-parity");

    let id = client::submit(
        &addr,
        &spec,
        &receptor_source(),
        &LigandSource::synth(SEED, N_LIGANDS),
        Priority::Normal,
    )
    .expect("submit over the socket");

    let status = client::wait(&addr, id, Duration::from_millis(20)).expect("poll to terminal");
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(status.ligands_done, N_LIGANDS);
    let outcome = status.outcome.expect("terminal outcome over the wire");
    assert!(!outcome.stopped_early);

    // The ranking that crossed the wire must equal the in-process
    // screen_campaign ranking bit-for-bit: same indices, names, and
    // f32 score bits (the wire codec preserves shortest-form floats).
    let reference = reference_top_for(&spec);
    assert_eq!(outcome.top.len(), reference.len());
    for (got, (index, name, score)) in outcome.top.iter().zip(&reference) {
        assert_eq!(got.index, *index);
        assert_eq!(&got.name, name);
        assert_eq!(
            got.score.to_bits(),
            score.to_bits(),
            "score for {name} drifted across the wire"
        );
    }

    // The streamed JSONL holds one line per docked ligand, and every
    // line is parseable by the wire codec's own parser.
    let body = client::results(&addr, id).expect("results fetch");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), N_LIGANDS);
    for line in &lines {
        let v = mudock_serve::wire::parse(line).expect("results line parses as JSON");
        assert!(
            v.get("ligand").is_some() && v.get("score").is_some(),
            "{line}"
        );
    }

    // Server-side stats reflect the completed job.
    let stats = h.service.stats();
    assert_eq!(stats.jobs_submitted, 1);
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.ligands_docked, N_LIGANDS as u64);
}

/// The multi-loop tentpole's end-to-end guarantee: a ranking served
/// through a 4-loop frontend is bit-identical to the in-process
/// `screen_campaign` ranking. The free-function client opens a fresh
/// connection per call, so the submit, every poll, and the results
/// fetch each pin to whichever loop accepts them — correctness must
/// not depend on which loop a request lands on.
#[test]
fn four_loop_frontend_serves_a_bit_identical_ranking() {
    let h = Harness::start_with_loops(
        "four-loop",
        ServeConfig {
            total_threads: 2,
            job_slots: 2,
            ..ServeConfig::default()
        },
        4,
    );
    let addr = h.addr();
    let spec = campaign("net-four-loop");

    let id = client::submit(
        &addr,
        &spec,
        &receptor_source(),
        &LigandSource::synth(SEED, N_LIGANDS),
        Priority::Normal,
    )
    .expect("submit through the 4-loop frontend");
    let status = client::wait(&addr, id, Duration::from_millis(20)).expect("poll to terminal");
    assert_eq!(status.state, JobState::Completed);
    assert_eq!(status.ligands_done, N_LIGANDS);

    let reference = reference_top_for(&spec);
    let outcome = status.outcome.expect("terminal outcome over the wire");
    assert_eq!(outcome.top.len(), reference.len());
    for (got, (index, name, score)) in outcome.top.iter().zip(&reference) {
        assert_eq!(got.index, *index);
        assert_eq!(&got.name, name);
        assert_eq!(
            got.score.to_bits(),
            score.to_bits(),
            "score for {name} drifted through the multi-loop frontend"
        );
    }
    assert_eq!(
        client::results(&addr, id)
            .expect("results through the 4-loop frontend")
            .lines()
            .count(),
        N_LIGANDS
    );
}

#[test]
fn delete_cancels_a_running_job_over_the_socket() {
    let h = Harness::start(
        "cancel",
        ServeConfig {
            total_threads: 1,
            job_slots: 1,
            ..ServeConfig::default()
        },
    );
    let addr = h.addr();
    // Heavy enough that cancellation always beats completion: ~400
    // ligands of 50-generation GA on one thread, stopped at a 4-ligand
    // chunk boundary.
    let spec = Campaign::builder()
        .name("net-cancel")
        .population(20)
        .generations(50)
        .seed(SEED)
        .search_radius(3.5)
        .top_k(TOP_K)
        .chunk(ChunkPolicy::Fixed(4))
        .grid_dims(dims())
        .build()
        .unwrap();
    let id = client::submit(
        &addr,
        &spec,
        &receptor_source(),
        &LigandSource::synth(SEED, 400),
        Priority::Normal,
    )
    .unwrap();

    let cancelled = client::cancel(&addr, id).expect("DELETE /jobs/{id}");
    assert!(
        !cancelled.is_terminal() || cancelled.state == JobState::Cancelled,
        "cancel snapshot: {:?}",
        cancelled.state
    );
    let status = client::wait(&addr, id, Duration::from_millis(20)).unwrap();
    assert_eq!(status.state, JobState::Cancelled);
    assert!(
        status.ligands_done < 400,
        "cancellation must land before the input runs out (did {})",
        status.ligands_done
    );
    assert_eq!(h.service.stats().jobs_cancelled, 1);
}

/// A lattice with a one-point axis has no cell to interpolate in: at the
/// parent the job was accepted and the inter-energy kernel gathered past
/// the end of the grid buffer. It must be refused as a campaign error
/// before a grid is built, and the node must go on serving.
#[test]
fn a_lattice_without_a_cell_is_a_422_and_the_node_keeps_serving() {
    let h = Harness::start(
        "thin-lattice",
        ServeConfig {
            total_threads: 1,
            job_slots: 1,
            ..ServeConfig::default()
        },
    );
    let addr = h.addr();
    for npts in ["[1,1,1]", "[2,1,2]", "[1,5,5]"] {
        let body = format!(
            r#"{{"campaign": {{"name": "thin", "grid_dims":
                   {{"npts": {npts}, "spacing": 0.7, "origin": [0, 0, 0]}}}},
                "receptor": {{"synth": {{"seed": 7, "atoms": 30, "radius": 5.0}}}},
                "ligands": {{"synth": {{"seed": 1, "count": 2}}}}}}"#
        );
        let reply = client::request(&addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(reply.status, 422, "npts {npts}: {}", reply.body);
        assert!(reply.body.contains("at least 2 points"), "{}", reply.body);
    }
    assert_eq!(h.service.stats().jobs_submitted, 0, "nothing was queued");

    let id = client::submit(
        &addr,
        &campaign("after-thin"),
        &receptor_source(),
        &LigandSource::synth(SEED, 4),
        Priority::Normal,
    )
    .expect("the node still takes jobs");
    let status = client::wait(&addr, id, Duration::from_millis(20)).unwrap();
    assert_eq!(status.state, JobState::Completed);
}

#[test]
fn queued_priorities_and_results_paths_hold_under_concurrent_submissions() {
    let h = Harness::start(
        "multi",
        ServeConfig {
            total_threads: 2,
            job_slots: 2,
            ..ServeConfig::default()
        },
    );
    let addr = h.addr();
    let mut ids = Vec::new();
    for j in 0..3 {
        let spec = CampaignSpec {
            name: format!("multi-{j}"),
            ..campaign("multi")
        };
        let id = client::submit(
            &addr,
            &spec,
            &receptor_source(),
            &LigandSource::synth(SEED.wrapping_add(j), 8),
            Priority::Normal,
        )
        .unwrap();
        ids.push(id);
    }
    // Ids are distinct, every job completes, and each `/results` URL
    // serves its own stream.
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3);
    for id in &ids {
        let status = client::wait(&addr, *id, Duration::from_millis(20)).unwrap();
        assert_eq!(status.state, JobState::Completed, "job {id}");
        assert_eq!(client::results(&addr, *id).unwrap().lines().count(), 8);
    }
    // All three screened the same receptor at the same dims/level: one
    // build, two cache hits.
    let cache = h.service.stats().cache;
    assert_eq!(cache.misses, 1);
    assert_eq!(cache.hits, 2);
}
