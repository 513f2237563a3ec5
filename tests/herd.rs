//! The one event loop under a herd: thousands of idle keep-alive
//! connections plus a slow-loris writer held against a live loopback
//! server while a full submit → poll → results → cancel cycle runs —
//! and the misbehaving peer, not the polite ones, must be the one
//! evicted.
//!
//! The herd is as large as the soft `RLIMIT_NOFILE` allows, both ends
//! sharing this process: min(10 000, (soft − 512) / 2), never below
//! 200. Raise the limit (`ulimit -n 65536`) for the full 10 000.
//!
//! Asserts that every idle connection survives and still answers
//! afterwards, that the slow client is deadlined (EOF within the header
//! deadline plus slack) while the job cycle completes, that nothing is
//! shed, and that `/metrics` carries one unlabelled series per
//! connection family whose accepted count is the in-process one.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mudock::core::{Campaign, ChunkPolicy};
use mudock::grids::GridDims;
use mudock::mol::Vec3;
use mudock::serve::net::client::Client;
use mudock::serve::{
    JobState, LigandSource, NetConfig, NetServer, Priority, ReceptorSource, ScreenService,
    ServeConfig,
};

/// The herd when the soft fd limit cannot be read, and its floor.
const MIN_HERD: usize = 200;
const MAX_HERD: usize = 10_000;
/// Descriptors left for everything but the herd's two ends.
const FD_RESERVE: usize = 512;
const HEADER_DEADLINE: Duration = Duration::from_secs(2);
/// Slack on top of the header deadline before the loris counts as
/// surviving it.
const LORIS_SLACK: Duration = Duration::from_secs(10);

/// The soft `RLIMIT_NOFILE`, from `/proc/self/limits` (`None` where
/// there is no such file, or the limit is unlimited).
fn soft_fd_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line["Max open files".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn herd_size() -> usize {
    soft_fd_limit()
        .map_or(MIN_HERD, |soft| {
            MAX_HERD.min(soft.saturating_sub(FD_RESERVE) / 2)
        })
        .max(MIN_HERD)
}

#[test]
fn an_idle_herd_and_a_slow_loris_do_not_disturb_a_job_cycle() {
    let t_start = Instant::now();
    let conns = herd_size();
    let service = Arc::new(ScreenService::start(ServeConfig {
        total_threads: 2,
        job_slots: 2,
        ..ServeConfig::default()
    }));
    let results_dir = std::env::temp_dir().join(format!("mudock-herd-{}", std::process::id()));
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            results_dir: results_dir.clone(),
            max_connections: conns + 64,
            header_timeout: HEADER_DEADLINE,
            // The herd must sit idle for the whole test: its serial
            // setup alone can outlive the default 60 s idle deadline.
            idle_timeout: Duration::from_secs(600),
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    let addr = server.local_addr().to_string();

    // 1. The idle herd: each connection proves itself with one request,
    // then sits silent for the rest of the test.
    let mut idle: Vec<Client> = Vec::with_capacity(conns);
    for i in 0..conns {
        let mut c = Client::new(&addr);
        assert!(c.healthy(), "idle connection {i} failed its first request");
        idle.push(c);
    }
    let t_herd = t_start.elapsed();

    // 2. The slow loris: a partial head, then silence, read on a thread
    // so the deadline is measured while the job cycle runs.
    let mut loris = TcpStream::connect(&addr).expect("loris connect");
    loris
        .set_read_timeout(Some(HEADER_DEADLINE + LORIS_SLACK + LORIS_SLACK))
        .unwrap();
    loris
        .write_all(b"GET /healthz HTTP/1.1\r\nX-Drip: sl")
        .expect("loris partial head");
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
    let mut active = Client::new(&addr);
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

    // The loris must have been deadlined by now — EOF, within bounds.
    let (loris_read, loris_elapsed) = loris_thread.join().expect("loris thread");
    assert_eq!(
        loris_read, 0,
        "slow-loris got a response from half a request head"
    );
    assert!(
        loris_elapsed <= HEADER_DEADLINE + LORIS_SLACK,
        "slow-loris survived {loris_elapsed:?} (deadline {HEADER_DEADLINE:?})"
    );

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

    // 5. The /metrics surface reflects the churn it just survived.
    let metrics = Client::new(&addr)
        .request("GET", "/metrics", None)
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
        "herd: held {conns} idle connections (herd connected in {t_herd:.1?}), \
         {} requests served, 0 shed, slow-loris deadlined after {loris_elapsed:.1?}, \
         {:.1?} in all",
        stats.requests,
        t_start.elapsed()
    );

    drop(idle);
    drop(active);
    server.shutdown();
    service.shutdown();
    std::fs::remove_dir_all(&results_dir).ok();
}
