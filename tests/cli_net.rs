//! The network CLI end to end: a real `mudock serve --listen` process
//! on an ephemeral loopback port, driven by the real `submit`, `poll`
//! and `stats` subcommands. Every wait has a deadline and the server
//! dies with the test.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(120);

/// A `mudock serve --listen 127.0.0.1:0` child, killed on drop.
struct Server {
    child: Child,
    addr: String,
    results_dir: PathBuf,
}

impl Server {
    fn start() -> Server {
        let results_dir =
            std::env::temp_dir().join(format!("mudock-cli-net-{}", std::process::id()));
        let mut child = Command::new(env!("CARGO_BIN_EXE_mudock"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(["--threads", "2", "--results"])
            .arg(&results_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("the mudock binary runs");
        // The address comes from the `listening on` line itself, read
        // on a helper thread so a server that never prints it fails the
        // deadline instead of hanging the test.
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some((_, addr)) = line.split_once("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                    return;
                }
            }
        });
        let Ok(addr) = rx.recv_timeout(DEADLINE) else {
            let _ = child.kill();
            panic!("the server never printed its `listening on` line");
        };
        Server {
            child,
            addr,
            results_dir,
        }
    }

    /// Run one client subcommand against this server; its stdout.
    fn cli(&self, args: &[&str]) -> String {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mudock"))
            .args(args)
            .args(["--addr", &self.addr])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the mudock binary runs");
        // Both pipes drain on threads, so a chatty child can never block
        // on a full pipe while this thread waits for it to exit.
        let stdout = drain(child.stdout.take().expect("piped stdout"));
        let stderr = drain(child.stderr.take().expect("piped stderr"));
        let give_up = Instant::now() + DEADLINE;
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait for the client") {
                break status;
            }
            if Instant::now() >= give_up {
                let _ = child.kill();
                panic!("`mudock {}` did not finish in {DEADLINE:?}", args.join(" "));
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let (stdout, stderr) = (stdout.join().unwrap(), stderr.join().unwrap());
        assert!(
            status.success(),
            "`mudock {}` exited {status}: {stderr}",
            args.join(" ")
        );
        stdout
    }
}

fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        text
    })
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::fs::remove_dir_all(&self.results_dir).ok();
    }
}

/// The value of the first sample line starting with `prefix`.
fn sample(metrics: &str, prefix: &str) -> u64 {
    let line = metrics
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` sample in:\n{metrics}"));
    let value = line.rsplit(' ').next().unwrap();
    value
        .parse::<f64>()
        .unwrap_or_else(|_| panic!("bad sample {line:?}")) as u64
}

#[test]
fn submit_poll_results_and_stats_over_the_cli() {
    let server = Server::start();

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
