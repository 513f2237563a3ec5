//! Connection-churn smoke for the reactor frontend: a herd of idle
//! keep-alive connections plus a slow-loris writer must not disturb a
//! real job cycle — and the misbehaving peer, not the polite ones, must
//! be the one evicted.
//!
//! ```text
//! cargo run --release -p mudock-bench --bin net_churn \
//!     [--conns N] [--header-s S]
//! ```
//!
//! The smoke self-hosts a loopback server (header deadline shortened to
//! `--header-s`, default 2 s), then concurrently:
//!
//! 1. opens `--conns` (default 200) keep-alive connections, each
//!    verified with one served request, and leaves them idle;
//! 2. starts a slow-loris client: a partial request head, then silence;
//! 3. runs a full job lifecycle on a fresh connection — submit, poll to
//!    completion, fetch results, plus a second submit that is cancelled
//!    mid-flight.
//!
//! It exits non-zero unless: the slow client is deadlined (EOF within
//! the header deadline plus slack) while the cycle runs, every idle
//! connection still answers afterwards, the server's gauges show zero
//! shed connections (no spurious 503s) for the whole run, and `/metrics`
//! carries one unlabelled series per connection family whose accepted
//! count is the in-process one.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mudock_core::{Campaign, ChunkPolicy};
use mudock_grids::GridDims;
use mudock_mol::Vec3;
use mudock_serve::net::client;
use mudock_serve::{
    JobState, LigandSource, NetConfig, NetServer, Priority, ReceptorSource, ScreenService,
    ServeConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut conns = 200usize;
    let mut header_s = 2u64;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--conns" => {
                conns = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--conns needs a count");
            }
            "--header-s" => {
                header_s = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--header-s needs seconds");
            }
            flag => {
                eprintln!(
                    "net_churn: unknown argument '{flag}'\n\
                     usage: net_churn [--conns N] [--header-s S]"
                );
                std::process::exit(2);
            }
        }
    }

    let threads = mudock_pool::default_threads();
    let service = Arc::new(ScreenService::start(ServeConfig {
        total_threads: threads,
        job_slots: 2,
        ..ServeConfig::default()
    }));
    let results_dir = std::env::temp_dir().join(format!("mudock-net-churn-{}", std::process::id()));
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            results_dir: results_dir.clone(),
            max_connections: conns + 64,
            header_timeout: Duration::from_secs(header_s),
            // The herd must sit idle for the whole smoke — at 10k
            // connections the serial setup alone can outlive the
            // default 60 s idle deadline.
            idle_timeout: Duration::from_secs(600),
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    let addr = server.local_addr().to_string();
    eprintln!("net_churn: server on {addr}, {conns} idle conns, {header_s} s header deadline");

    // 1. The idle herd: each connection proves itself with one request,
    // then sits silent for the rest of the smoke.
    let mut idle: Vec<client::Client> = Vec::with_capacity(conns);
    for i in 0..conns {
        let mut c = client::Client::new(&addr);
        assert!(c.healthy(), "idle connection {i} failed its first request");
        idle.push(c);
    }
    eprintln!("net_churn: idle herd connected ({conns})");

    // 2. The slow loris: a partial head, then silence. Reading from a
    // thread so the deadline is measured while the job cycle runs.
    let mut loris = TcpStream::connect(&addr).expect("loris connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(header_s + 30)))
        .unwrap();
    loris
        .write_all(b"GET /healthz HTTP/1.1\r\nX-Drip: sl")
        .expect("loris partial head");
    let loris_deadline = Duration::from_secs(header_s + 10);
    let loris_thread = std::thread::spawn(move || {
        let t0 = Instant::now();
        let mut buf = [0u8; 64];
        let n = loris.read(&mut buf).unwrap_or(0);
        (n, t0.elapsed())
    });

    // 3. The job lifecycle, on its own keep-alive connection, while the
    // herd idles and the loris stalls.
    let campaign = Campaign::builder()
        .name("churn")
        .population(25)
        .generations(30)
        .seed(0xc4c4)
        .search_radius(5.0)
        .top_k(5)
        .chunk(ChunkPolicy::Fixed(4))
        .grid_dims(GridDims::centered(Vec3::ZERO, 11.0, 0.6))
        .build()
        .expect("valid churn campaign");
    let receptor = ReceptorSource::Synth {
        seed: 0xc4c4,
        atoms: 300,
        radius: 9.0,
    };
    let mut active = client::Client::new(&addr);
    let id = active
        .submit(
            &campaign,
            &receptor,
            &LigandSource::synth(1, 32),
            Priority::Normal,
        )
        .expect("submit through the churn");
    let status = active
        .wait(id, Duration::from_millis(20))
        .expect("poll through the churn");
    assert_eq!(status.state, JobState::Completed, "churn job failed");
    assert_eq!(status.ligands_done, 32);
    let results = active.results(id).expect("results through the churn");
    assert_eq!(
        results.lines().count(),
        32,
        "results JSONL must carry every ligand"
    );
    // Submit-then-cancel: the DELETE must land and drive the job
    // terminal.
    let id2 = active
        .submit(
            &campaign,
            &receptor,
            &LigandSource::synth(2, 512),
            Priority::Normal,
        )
        .expect("second submit");
    active.cancel(id2).expect("cancel through the churn");
    let status2 = active
        .wait(id2, Duration::from_millis(20))
        .expect("wait cancelled");
    assert!(
        status2.is_terminal(),
        "cancelled job never reached a terminal state"
    );
    eprintln!(
        "net_churn: job cycle done (job {id} completed, job {id2} {})",
        mudock_serve::wire::state_name(status2.state)
    );

    // The loris must have been deadlined by now — EOF, within bounds.
    let (loris_read, loris_elapsed) = loris_thread.join().expect("loris thread");
    assert_eq!(
        loris_read, 0,
        "slow-loris got a response from half a request head"
    );
    assert!(
        loris_elapsed <= loris_deadline,
        "slow-loris survived {loris_elapsed:?} (deadline {:?})",
        Duration::from_secs(header_s)
    );
    eprintln!("net_churn: slow-loris deadlined after {loris_elapsed:.1?}");

    // 4. Every idle connection must still be serviceable, and nothing
    // may have been shed along the way.
    for (i, c) in idle.iter_mut().enumerate() {
        assert!(c.healthy(), "idle connection {i} died during the churn");
    }
    let stats = server.connection_stats();
    assert_eq!(stats.shed, 0, "spurious 503 load-shedding: {stats:?}");
    assert!(
        stats.open as usize >= conns,
        "open gauge lost the herd: {} < {conns}",
        stats.open
    );

    // 5. The /metrics surface must reflect the churn it just survived
    // (the smoke shuts the server down, so CI asserts it here rather
    // than with a post-run curl).
    let metrics = client::request(&addr, "GET", "/metrics", None)
        .expect("/metrics through the churn")
        .ok()
        .expect("/metrics 200")
        .body;
    for needle in [
        "mudock_requests_total ",
        "mudock_job_stage_seconds_count{stage=\"total\"} 2",
        "mudock_jobs_total{event=\"completed\"} 1",
        "mudock_connections_shed_total 0",
        "mudock_request_seconds_count ",
    ] {
        assert!(
            metrics.contains(needle),
            "/metrics missing series {needle:?}"
        );
    }
    // One event loop, one unlabelled series per family, and its
    // accepted count is the in-process one: the scrape's own connection
    // was accepted before the render, and nothing connects after it.
    assert!(
        !metrics.contains("{loop="),
        "/metrics carries per-loop series"
    );
    let accepted = metrics
        .lines()
        .find_map(|l| l.strip_prefix("mudock_connections_accepted_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("mudock_connections_accepted_total sample") as u64;
    assert_eq!(
        accepted,
        server.connection_stats().accepted,
        "/metrics and connection_stats() disagree on accepted connections"
    );
    eprintln!(
        "net_churn: PASS — herd of {conns} survived, {} requests served, 0 shed, \
         /metrics consistent ({accepted} accepted)",
        stats.requests
    );

    drop(idle);
    drop(active);
    server.shutdown();
    service.shutdown();
    std::fs::remove_dir_all(&results_dir).ok();
}
