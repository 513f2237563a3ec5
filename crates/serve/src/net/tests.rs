//! End-to-end tests of the node's HTTP surface: a real [`NetServer`]
//! on a loopback port, driven by [`client`] or a raw socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mudock_core::Campaign;
use mudock_grids::GridDims;
use mudock_mol::Vec3;

use super::{client, NetConfig, NetServer};
use crate::ingest::LigandSource;
use crate::job::{JobState, Priority};
use crate::server::{ScreenService, ServeConfig};
use crate::wire::{self, Json, ReceptorSource};

fn tiny_service() -> Arc<ScreenService> {
    Arc::new(ScreenService::start(ServeConfig {
        total_threads: 1,
        job_slots: 1,
        queue_capacity: 2,
        cache_capacity: 1,
        ..ServeConfig::default()
    }))
}

fn bind(service: &Arc<ScreenService>) -> NetServer {
    NetServer::bind("127.0.0.1:0", Arc::clone(service), NetConfig::default())
        .expect("loopback bind")
}

/// Read one HTTP response (status + Content-Length framed body)
/// off a raw reader, leaving the stream positioned at the next
/// pipelined response.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut len = 0usize;
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header).unwrap();
        let header = header.trim_end();
        if n == 0 || header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8_lossy(&body).into_owned())
}

#[test]
fn healthz_and_stats_respond() {
    let service = tiny_service();
    let mut server = bind(&service);
    let addr = server.local_addr().to_string();
    assert!(client::healthy(&addr));
    // A node says which kernels its CPU selects.
    let resp = client::request(&addr, "GET", "/healthz", None)
        .unwrap()
        .ok()
        .unwrap();
    let simd = wire::parse(&resp.body).unwrap();
    let simd = simd.get("simd").expect("simd object");
    let field = |k| match simd.get(k) {
        Some(wire::Json::Str(s)) => s.clone(),
        other => panic!("simd.{k}: {other:?}"),
    };
    assert_eq!(field("explicit"), mudock_grids::SimdLevel::detect().name());
    assert!(["baseline", "avx2", "avx512"].contains(&field("portable").as_str()));
    assert_eq!(
        field("portable_arithmetic") == "fused",
        field("portable") != "baseline"
    );
    let resp = client::request(&addr, "GET", "/stats", None)
        .unwrap()
        .ok()
        .unwrap();
    let v = wire::parse(&resp.body).unwrap();
    assert!(v.get("cache").is_some());
    assert!(v.get("queue_capacity").is_some());
    // Sharding and spill telemetry is part of the stats contract.
    assert_eq!(v.get("shard_count"), Some(&wire::Json::usize(0)));
    assert!(matches!(v.get("shards"), Some(wire::Json::Arr(a)) if a.is_empty()));
    let cache = v.get("cache").unwrap();
    assert!(cache.get("spills").is_some());
    assert!(cache.get("reloads").is_some());
    assert!(cache.get("spilled").is_some());
    // Connection gauges are part of the stats contract too.
    let conns = v.get("connections").expect("connections gauges");
    for gauge in ["open", "accepted", "shed", "parse_errors", "requests"] {
        assert!(conns.get(gauge).is_some(), "missing gauge {gauge}");
    }
    server.shutdown();
    service.shutdown();
}

#[test]
fn unknown_routes_and_methods_are_typed_errors() {
    let service = tiny_service();
    let mut server = bind(&service);
    let addr = server.local_addr().to_string();
    assert_eq!(
        client::request(&addr, "GET", "/nope", None).unwrap().status,
        404
    );
    assert_eq!(
        client::request(&addr, "DELETE", "/healthz", None)
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        client::request(&addr, "GET", "/jobs/999", None)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::request(&addr, "GET", "/jobs/not-a-number", None)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::request(&addr, "POST", "/jobs", Some("{not json"))
            .unwrap()
            .status,
        400
    );
    // Structurally fine, semantically invalid campaign → 422.
    let body = r#"{"campaign": {"name": "x", "top_k": 0},
                   "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                   "ligands": {"synth": {"seed": 1, "count": 2}}}"#;
    assert_eq!(
        client::request(&addr, "POST", "/jobs", Some(body))
            .unwrap()
            .status,
        422
    );
    server.shutdown();
    service.shutdown();
}

#[test]
fn path_sources_are_refused_unless_enabled() {
    let body = r#"{"campaign": {"name": "p"},
                   "receptor": {"path": "/nonexistent/receptor.pdbqt"},
                   "ligands": {"synth": {"seed": 1, "count": 2}}}"#;
    let service = tiny_service();
    let mut server = bind(&service);
    let addr = server.local_addr().to_string();
    // Default policy: 403 before any filesystem access.
    assert_eq!(
        client::request(&addr, "POST", "/jobs", Some(body))
            .unwrap()
            .status,
        403
    );
    server.shutdown();

    // Opted in: the path is now attempted — and since it does not
    // exist, the failure is the loader's 400, not the policy 403.
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            allow_path_sources: true,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    assert_eq!(
        client::request(&addr, "POST", "/jobs", Some(body))
            .unwrap()
            .status,
        400
    );
    server.shutdown();
    service.shutdown();
}

#[test]
fn overlong_header_lines_are_refused_not_buffered() {
    let service = tiny_service();
    let mut server = bind(&service);
    let addr = server.local_addr().to_string();
    // A request line far beyond the head budget: the server must
    // answer 400 (it read a bounded prefix), not buffer it all.
    let mut conn = TcpStream::connect(&addr).unwrap();
    let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 << 10));
    conn.write_all(huge.as_bytes()).unwrap();
    conn.flush().unwrap();
    let mut resp = String::new();
    let mut reader = BufReader::new(conn);
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("400"), "got: {resp}");
    server.shutdown();
    service.shutdown();
}

#[test]
fn oversized_bodies_are_refused() {
    let service = tiny_service();
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            max_body_bytes: 64,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let body = "x".repeat(256);
    assert_eq!(
        client::request(&addr, "POST", "/jobs", Some(&body))
            .unwrap()
            .status,
        413
    );
    server.shutdown();
    service.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let service = tiny_service();
    let mut server = bind(&service);
    let addr = server.local_addr().to_string();
    let mut c = client::Client::new(&addr);
    for _ in 0..5 {
        assert!(c.healthy());
    }
    let resp = c.request("GET", "/stats", None).unwrap().ok().unwrap();
    assert!(resp.body.contains("connections"));
    // All six requests rode one accepted connection.
    let stats = server.connection_stats();
    assert_eq!(stats.accepted, 1, "handshake per request: {stats:?}");
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.open, 1);
    drop(c);
    server.shutdown();
    service.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let service = tiny_service();
    let mut server = bind(&service);
    let addr = server.local_addr().to_string();
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Two requests in one write: both must be answered, in order,
    // on the same connection.
    conn.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /stats HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    .unwrap();
    let mut reader = BufReader::new(conn);
    let (status1, body1) = read_response(&mut reader);
    let (status2, body2) = read_response(&mut reader);
    assert_eq!(status1, 200);
    assert!(body1.contains("ok"), "healthz first: {body1}");
    assert_eq!(status2, 200);
    assert!(body2.contains("cache"), "stats second: {body2}");
    assert_eq!(server.connection_stats().accepted, 1);
    server.shutdown();
    service.shutdown();
}

#[test]
fn slow_header_writers_are_deadlined() {
    let service = tiny_service();
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            header_timeout: Duration::from_millis(150),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A slow-loris writer: partial headers, then silence. The
    // header deadline must close the connection.
    conn.write_all(b"GET /healthz HTTP/1.1\r\nX-Drip: ")
        .unwrap();
    let t0 = Instant::now();
    let mut buf = [0u8; 64];
    let n = conn.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "expected EOF, got {n} bytes");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "deadline did not fire promptly"
    );
    server.shutdown();
    service.shutdown();
}

#[test]
fn connection_cap_sheds_with_a_503() {
    let service = tiny_service();
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    // Occupy the only slot (a completed request guarantees the
    // connection is registered, not just in the backlog).
    let mut holder = client::Client::new(&addr);
    assert!(holder.healthy());
    // The next connection is accepted, told 503, and closed.
    let resp = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 503);
    let stats = server.connection_stats();
    assert_eq!(stats.shed, 1);
    // The held connection is unaffected.
    assert!(holder.healthy());
    drop(holder);
    server.shutdown();
    service.shutdown();
}

#[test]
fn body_parse_errors_keep_the_connection_alive() {
    let service = tiny_service();
    let mut server = bind(&service);
    let addr = server.local_addr().to_string();
    let mut c = client::Client::new(&addr);
    // Bad JSON poisons the request, not the connection: the body
    // framing was intact, so the next request still works.
    let resp = c.request("POST", "/jobs", Some("{broken")).unwrap();
    assert_eq!(resp.status, 400);
    assert!(c.healthy());
    let stats = server.connection_stats();
    assert_eq!(stats.accepted, 1);
    assert!(stats.parse_errors >= 1);
    drop(c);
    server.shutdown();
    service.shutdown();
}

/// Full cycle (submit → wait → results → stats → metrics): the
/// status reports a per-stage breakdown, `/metrics` is well-formed
/// Prometheus text, and its counters agree with `/stats`.
#[test]
fn metrics_expose_prometheus_text_that_agrees_with_stats() {
    let service = tiny_service();
    let mut server = bind(&service);
    let addr = server.local_addr().to_string();
    let mut c = client::Client::new(&addr);
    let body = r#"{"campaign": {"name": "obs", "population": 6, "generations": 1,
                                "search_radius": 3.0, "top_k": 2},
                   "receptor": {"synth": {"seed": 3, "atoms": 30, "radius": 5.0}},
                   "ligands": {"synth": {"seed": 7, "count": 2}}}"#;
    let resp = c
        .request("POST", "/jobs", Some(body))
        .unwrap()
        .ok()
        .unwrap();
    let id = match wire::parse(&resp.body).unwrap().get("id") {
        Some(Json::Num(n)) => n.as_u64().unwrap(),
        other => panic!("no id in submit response: {other:?}"),
    };
    let status = c.wait(id, Duration::from_millis(20)).unwrap();
    assert_eq!(status.state, JobState::Completed);
    let stages = status.stages.expect("status carries stage timings");
    assert!(stages.queue_wait_ns.is_some(), "queue wait unstamped");
    assert!(stages.grid_ns.is_some() && stages.grid_source.is_some());
    assert!(stages.dock_ns.is_some() && stages.dock_chunks >= 1);
    assert!(stages.total_ns.is_some(), "terminal stamp missing");
    assert!(!c.results(id).unwrap().is_empty());

    let stats_body = c.request("GET", "/stats", None).unwrap().ok().unwrap().body;
    let stats = wire::parse(&stats_body).unwrap();
    let stats_requests = match stats.get("connections").and_then(|c| c.get("requests")) {
        Some(Json::Num(n)) => n.as_u64().unwrap(),
        other => panic!("no request count in /stats: {other:?}"),
    };

    let metrics = c
        .request("GET", "/metrics", None)
        .unwrap()
        .ok()
        .unwrap()
        .body;
    // Every line must be a HELP/TYPE comment or `series value`
    // with a numeric value — the Prometheus text contract.
    for line in metrics.lines().filter(|l| !l.is_empty()) {
        if let Some(comment) = line.strip_prefix('#') {
            assert!(
                comment.starts_with(" HELP ") || comment.starts_with(" TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample without value: {line}"));
        assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || ch == '_'),
            "bad series name: {line}"
        );
    }
    for needle in [
        "mudock_requests_total ",
        "mudock_jobs_total{event=\"submitted\"} 1\n",
        "mudock_jobs_total{event=\"completed\"} 1\n",
        "mudock_job_stage_seconds_count{stage=\"total\"} 1\n",
        "mudock_job_stage_seconds_bucket{stage=\"dock\"",
        "mudock_request_seconds_count ",
        "mudock_reactor_wait_seconds_count ",
        "mudock_connections_accepted_total 1\n",
    ] {
        assert!(metrics.contains(needle), "missing series {needle:?}");
    }
    // Requests counted on the wire and in the registry are the same
    // atomics. The counter ticks *after* a route runs, so the
    // /metrics render sees exactly one more request (the /stats
    // call) than the /stats body reported.
    let requests_line = metrics
        .lines()
        .find(|l| l.starts_with("mudock_requests_total "))
        .expect("requests series");
    let metrics_requests: u64 = requests_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(metrics_requests, stats_requests + 1);
    drop(c);
    server.shutdown();
    service.shutdown();
}

/// A poll that lands while the job is finishing must never report a
/// terminal state without its outcome (the client would read a
/// finished job with no ranking). Empty jobs finish within a poll or
/// two of being submitted, so polling each back to back, with no
/// sleep, puts a poll at the completion edge of nearly every one.
#[test]
fn a_terminal_status_always_carries_its_outcome() {
    let service = tiny_service();
    let mut server = bind(&service);
    let mut c = client::Client::new(server.local_addr().to_string());
    let campaign = Campaign::builder()
        .name("edge")
        .grid_dims(GridDims::centered(Vec3::ZERO, 4.0, 1.0))
        .build()
        .unwrap();
    let receptor = ReceptorSource::Synth {
        seed: 3,
        atoms: 30,
        radius: 5.0,
    };
    for _ in 0..2000 {
        let id = c
            .submit(
                &campaign,
                &receptor,
                &LigandSource::synth(1, 0),
                Priority::Normal,
            )
            .unwrap();
        loop {
            let status = c.poll(id).unwrap();
            assert_eq!(
                status.is_terminal(),
                status.outcome.is_some(),
                "job {id}: state {:?} with outcome present = {}",
                status.state,
                status.outcome.is_some()
            );
            if status.is_terminal() {
                break;
            }
        }
    }
    drop(c);
    server.shutdown();
    service.shutdown();
}

/// Sum every `name{loop="i"}` sample and read the unlabelled
/// `name` total from a Prometheus render.
fn loop_sum_and_total(metrics: &str, name: &str) -> (i64, i64, usize) {
    let mut sum = 0i64;
    let mut loops_hit = 0usize;
    let mut total = 0i64;
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(value) = rest.strip_prefix(' ') {
                total = value.trim().parse::<f64>().unwrap() as i64;
            } else if rest.starts_with("{loop=") {
                let value = rest.rsplit(' ').next().unwrap();
                let v = value.trim().parse::<f64>().unwrap() as i64;
                sum += v;
                loops_hit += usize::from(v > 0);
            }
        }
    }
    (sum, total, loops_hit)
}

/// The multi-loop invariants: with four loops, connections spread
/// across them (REUSEPORT hashing — Linux, the only platform that runs
/// more than one loop), every connection still gets correct answers,
/// and the per-loop labelled series sum to the unlabelled totals.
#[cfg(target_os = "linux")]
#[test]
fn four_loops_spread_connections_and_aggregate_metrics() {
    let service = tiny_service();
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            event_loops: 4,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    // Enough connections that all of them landing on one loop is
    // (astronomically) improbable under REUSEPORT hashing.
    let mut herd: Vec<client::Client> = (0..24).map(|_| client::Client::new(&addr)).collect();
    for c in &mut herd {
        assert!(c.healthy(), "connection unanswered under 4 loops");
    }
    let stats = server.connection_stats();
    assert_eq!(stats.accepted, 24);
    assert_eq!(stats.open, 24);
    assert_eq!(stats.shed, 0);

    let metrics = herd[0]
        .request("GET", "/metrics", None)
        .unwrap()
        .ok()
        .unwrap()
        .body;
    for name in [
        "mudock_connections_accepted_total",
        "mudock_connections_open",
        "mudock_requests_total",
    ] {
        let (sum, total, loops_hit) = loop_sum_and_total(&metrics, name);
        assert_eq!(sum, total, "per-loop {name} series do not sum to the total");
        assert!(
            loops_hit >= 2,
            "{name}: all traffic landed on one loop ({loops_hit} loops hit)"
        );
    }
    drop(herd);
    server.shutdown();
    service.shutdown();
}

/// A response that can never flush (the route is fine; the *peer*
/// never reads and keeps the connection busy) is bounded by the
/// request-level deadline even though every per-phase deadline
/// keeps being met.
#[test]
fn request_deadline_reaps_a_wedged_request() {
    let service = tiny_service();
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            request_timeout: Duration::from_millis(300),
            // Per-phase clocks far beyond the request bound: only
            // the end-to-end deadline can fire in this test.
            idle_timeout: Duration::from_secs(3600),
            header_timeout: Duration::from_secs(3600),
            body_timeout: Duration::from_secs(3600),
            write_timeout: Duration::from_secs(3600),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut raw = TcpStream::connect(addr).unwrap();
    // A started-but-never-finished request: the header phase alone
    // would allow it for an hour, the request deadline does not.
    raw.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 64];
    let t0 = Instant::now();
    // EOF (Ok(0)) once the server reaps the connection.
    loop {
        match raw.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) => panic!("expected server-side close, got {e}"),
        }
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(250),
        "closed before the request deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "request deadline never fired: {elapsed:?}"
    );
    server.shutdown();
    service.shutdown();
}
