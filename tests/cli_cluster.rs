//! The federation end to end with real processes on loopback: two
//! member nodes, one reference node and a coordinator fronting the
//! members. Phase 1 submits two whole jobs against two different
//! receptors and checks the coordinator placed them on distinct
//! members. Phase 2 scatters a 16-ligand campaign into per-member
//! windows, kills member B while its window is still docking, and
//! checks the re-dispatched campaign's per-ligand scores against the
//! same campaign on the untouched reference node, bit for bit. Every
//! line and `/stats` body is read with the wire parser.

mod support;

use std::time::{Duration, Instant};

use mudock::serve::wire::{self, Json};
use support::{sample, Server, DEADLINE};

/// The campaign phase 2 scatters: 16 ligands → two 8-ligand windows,
/// each docking long enough for the kill to land inside it.
const PHASE_2: &[&str] = &[
    "--demo",
    "16",
    "--receptor-seed",
    "303",
    "--population",
    "10",
    "--generations",
    "12",
    "--top",
    "5",
];

fn stats(server: &Server) -> Json {
    wire::parse(&server.cli(&["stats"])).expect("/stats is JSON")
}

fn jobs_submitted(server: &Server) -> u64 {
    stats(server)
        .get("jobs_submitted")
        .and_then(Json::as_u64)
        .expect("/stats counts submitted jobs")
}

/// `(index, ligand, score bits)` of every result line, sorted: chunk
/// numbers are window-local, so they are left out.
fn scores(jsonl: &str) -> Vec<(u64, String, u32)> {
    let mut rows: Vec<_> = jsonl
        .lines()
        .map(|line| {
            let v = wire::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let score = match v.get("score") {
                Some(Json::Num(n)) => n.as_f32().expect("a score").to_bits(),
                other => panic!("no score in {line}: {other:?}"),
            };
            let index = v.get("index").and_then(Json::as_u64).expect("an index");
            let ligand = v.get("ligand").and_then(Json::as_str).expect("a ligand");
            (index, ligand.to_string(), score)
        })
        .collect();
    rows.sort();
    rows
}

/// Submit `campaign` to `server`, wait for it, and return its results.
fn run(server: &Server, campaign: &[&str]) -> String {
    let id = submit(server, campaign);
    server.cli(&["poll", &id, "--wait"]);
    server.cli(&["poll", &id, "--results"])
}

fn submit(server: &Server, campaign: &[&str]) -> String {
    let mut args = vec!["submit"];
    args.extend_from_slice(campaign);
    server.cli(&args).trim().to_string()
}

#[test]
fn a_killed_member_still_gathers_the_single_node_ranking() {
    let node = ["--threads", "1", "--jobs", "4"];
    let a = Server::node("cli-cluster-a", &node);
    let mut b = Server::node("cli-cluster-b", &node);
    let reference = Server::node("cli-cluster-ref", &node);
    let members = format!("{},{}", a.addr, b.addr);
    let coordinator = Server::start(&[
        "coordinator",
        "--listen",
        "127.0.0.1:0",
        "--nodes",
        &members,
        "--health-ms",
        "100",
        "--dead-after",
        "2",
        "--scatter-min",
        "4",
        "--poll-ms",
        "10",
    ]);

    // Phase 1: two whole jobs (3 ligands, below the scatter floor) on
    // two receptors land on distinct members.
    for seed in ["101", "202"] {
        let small = [
            "--demo",
            "3",
            "--receptor-seed",
            seed,
            "--population",
            "10",
            "--generations",
            "2",
            "--top",
            "3",
        ];
        assert_eq!(run(&coordinator, &small).lines().count(), 3);
    }
    let (jobs_a, jobs_b) = (jobs_submitted(&a), jobs_submitted(&b));
    assert!(
        jobs_a >= 1 && jobs_b >= 1,
        "members ran {jobs_a} / {jobs_b} jobs"
    );

    // Phase 2: kill B as soon as it holds a window.
    let id = submit(&coordinator, PHASE_2);
    let give_up = Instant::now() + DEADLINE;
    while jobs_submitted(&b) == jobs_b {
        assert!(Instant::now() < give_up, "member B never got a window");
        std::thread::sleep(Duration::from_millis(20));
    }
    b.kill();
    // The reference docks on the core B left idle.
    let reference_id = submit(&reference, PHASE_2);
    coordinator.cli(&["poll", &id, "--wait"]);
    let gathered = coordinator.cli(&["poll", &id, "--results"]);
    assert_eq!(gathered.lines().count(), 16, "{gathered}");
    reference.cli(&["poll", &reference_id, "--wait"]);
    let single = reference.cli(&["poll", &reference_id, "--results"]);
    assert_eq!(scores(&gathered), scores(&single));

    // The coordinator saw the death, and re-dispatched B's window.
    let cstats = stats(&coordinator);
    let Some(Json::Arr(members)) = cstats.get("members") else {
        panic!("no members in the coordinator's /stats: {cstats:?}");
    };
    assert!(
        members
            .iter()
            .any(|m| m.get("state").and_then(Json::as_str) == Some("dead")),
        "{cstats:?}"
    );
    let metrics = coordinator.cli(&["stats", "--metrics"]);
    assert!(
        sample(&metrics, "mudock_cluster_redispatches_total") >= 1,
        "the kill landed after B's window finished:\n{metrics}"
    );
}
