//! The network CLI end to end: a real `mudock serve --listen` process
//! on an ephemeral loopback port, driven by the real `submit`, `poll`
//! and `stats` subcommands. Every wait has a deadline and the server
//! dies with the test.

mod support;

use support::{sample, Server};

#[test]
fn submit_poll_results_and_stats_over_the_cli() {
    let server = Server::node("cli-net", &["--threads", "2"]);

    let id = server.cli(&[
        "submit",
        "--demo",
        "8",
        "--population",
        "10",
        "--generations",
        "8",
        "--top",
        "3",
    ]);
    let id = id.trim();
    assert!(
        id.parse::<u64>().is_ok(),
        "submit prints the job id: {id:?}"
    );

    let status = server.cli(&["poll", id, "--wait"]);
    assert!(status.contains("completed"), "{status}");
    let results = server.cli(&["poll", id, "--results"]);
    assert_eq!(results.lines().count(), 8, "one JSONL line per ligand");

    assert!(server.cli(&["stats"]).contains("\"connections\""));

    // The Prometheus surface after a completed cycle: the request and
    // per-stage job histograms, and one unlabelled series per
    // connection family — the frontend runs one event loop.
    let metrics = server.cli(&["stats", "--metrics"]);
    for family in [
        "mudock_requests_total ",
        "mudock_request_seconds",
        "mudock_job_stage_seconds",
    ] {
        assert!(
            metrics.lines().any(|l| l.starts_with(family)),
            "no {family} in:\n{metrics}"
        );
    }
    assert_eq!(
        sample(&metrics, "mudock_jobs_total{event=\"completed\"}"),
        1
    );
    assert!(!metrics.contains("{loop="), "{metrics}");
    let total = sample(&metrics, "mudock_connections_accepted_total ");
    assert!(
        total >= 5,
        "five client commands connected, {total} accepted"
    );
}

/// `SIGTERM` ends a node through its shutdown path: exit 0, and the
/// results directory it made for itself is gone with every result in it.
#[test]
fn sigterm_shuts_a_node_down_and_removes_its_own_results() {
    let mut server = Server::start(&["serve", "--listen", "127.0.0.1:0", "--threads", "1"]);
    let dir = std::env::temp_dir().join(format!("mudock-net-{}-1", server.pid()));
    let id = server.cli(&[
        "submit",
        "--demo",
        "2",
        "--population",
        "10",
        "--generations",
        "4",
    ]);
    let status = server.cli(&["poll", id.trim(), "--wait"]);
    assert!(status.contains("completed"), "{status}");
    assert!(dir.is_dir(), "{} holds the results", dir.display());
    let exit = server
        .terminate()
        .expect("the node exits within 5 s of SIGTERM");
    assert!(exit.success(), "SIGTERM ended the node with {exit}");
    assert!(!dir.exists(), "{} outlived the node", dir.display());
}
