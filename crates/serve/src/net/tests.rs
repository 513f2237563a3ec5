//! End-to-end tests of the node's HTTP surface: a real [`NetServer`]
//! on a loopback port, driven by [`client`] or a raw socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mudock_core::Campaign;
use mudock_grids::GridDims;
use mudock_mol::Vec3;

use super::client::Client;
use super::{NetConfig, NetServer};
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
    let mut c = Client::new(server.local_addr().to_string());
    assert!(c.healthy());
    // A node says which kernels its CPU selects.
    let resp = c.request("GET", "/healthz", None).unwrap().ok().unwrap();
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
    let resp = c.request("GET", "/stats", None).unwrap().ok().unwrap();
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
    let mut c = Client::new(server.local_addr().to_string());
    assert_eq!(c.request("GET", "/nope", None).unwrap().status, 404);
    assert_eq!(c.request("DELETE", "/healthz", None).unwrap().status, 405);
    assert_eq!(c.request("GET", "/jobs/999", None).unwrap().status, 404);
    assert_eq!(
        c.request("GET", "/jobs/not-a-number", None).unwrap().status,
        404
    );
    assert_eq!(
        c.request("POST", "/jobs", Some("{not json"))
            .unwrap()
            .status,
        400
    );
    // Structurally fine, semantically invalid campaign → 422: among them
    // a σ that once wrapped a torsion forever in an executor.
    for campaign in [
        r#"{"name": "x", "top_k": 0}"#,
        r#"{"name": "x", "ga": {"sigma_torsion": 1e9}}"#,
    ] {
        let body = format!(
            r#"{{"campaign": {campaign},
                 "receptor": {{"synth": {{"seed": 1, "atoms": 30, "radius": 5.0}}}},
                 "ligands": {{"synth": {{"seed": 1, "count": 2}}}}}}"#
        );
        assert_eq!(
            c.request("POST", "/jobs", Some(&body)).unwrap().status,
            422,
            "{campaign}"
        );
    }
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
    let mut c = Client::new(server.local_addr().to_string());
    // Default policy: 403 before any filesystem access.
    assert_eq!(c.request("POST", "/jobs", Some(body)).unwrap().status, 403);
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
    let mut c = Client::new(server.local_addr().to_string());
    assert_eq!(c.request("POST", "/jobs", Some(body)).unwrap().status, 400);
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
    let mut c = Client::new(server.local_addr().to_string());
    let body = "x".repeat(256);
    assert_eq!(c.request("POST", "/jobs", Some(&body)).unwrap().status, 413);
    server.shutdown();
    service.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let service = tiny_service();
    let mut server = bind(&service);
    let mut c = Client::new(server.local_addr().to_string());
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
    let mut holder = Client::new(&addr);
    assert!(holder.healthy());
    // The next connection is accepted, told 503, and closed.
    let resp = Client::new(&addr).request("GET", "/healthz", None).unwrap();
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
    let mut c = Client::new(server.local_addr().to_string());
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

/// Send `POST /jobs` with `body` and a pipelined `GET /healthz` behind
/// it — in one write, or one byte per write — and read both responses.
fn post_then_healthz(addr: &str, body: &str, byte_at_a_time: bool) -> [(u16, String); 2] {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}\
         GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        body.len()
    );
    if byte_at_a_time {
        for b in request.as_bytes() {
            conn.write_all(std::slice::from_ref(b)).unwrap();
        }
    } else {
        conn.write_all(request.as_bytes()).unwrap();
    }
    let mut reader = BufReader::new(conn);
    [read_response(&mut reader), read_response(&mut reader)]
}

/// Bodies are parsed once complete, so how they were split on the way
/// in cannot show: same status, same body, same error offset.
#[test]
fn a_body_split_into_single_bytes_gets_the_same_answer() {
    let service = tiny_service();
    let mut server = bind(&service);
    let addr = server.local_addr().to_string();
    let campaign = Campaign::builder()
        .name("split")
        .grid_dims(GridDims::centered(Vec3::ZERO, 4.0, 1.0))
        .build()
        .unwrap();
    let receptor = ReceptorSource::Synth {
        seed: 3,
        atoms: 30,
        radius: 5.0,
    };
    let valid = wire::submission_to_json(
        &campaign,
        &receptor,
        &LigandSource::synth(1, 0),
        Priority::Normal,
    )
    .unwrap()
    .encode();
    let malformed = valid.replacen("\"receptor\":{", "\"receptor\":{\"synth\": tru,", 1);
    // Job ids differ between the two sends; nothing else may.
    let without_id = |(status, body): (u16, String)| {
        let id = match wire::parse(&body).ok().and_then(|v| v.get("id").cloned()) {
            Some(Json::Num(n)) => n.as_u64().unwrap(),
            _ => return (status, body),
        };
        (status, body.replace(&id.to_string(), "ID"))
    };
    for body in [&valid, &malformed] {
        let [whole, whole_health] = post_then_healthz(&addr, body, false);
        let [split, split_health] = post_then_healthz(&addr, body, true);
        assert_eq!(without_id(split), without_id(whole.clone()));
        assert_eq!(split_health, whole_health);
        assert_eq!(split_health.0, 200, "pipelined healthz: {split_health:?}");
        if body == &valid {
            assert_eq!(whole.0, 201, "{whole:?}");
        } else {
            assert_eq!(whole.0, 400);
            assert!(
                whole.1.contains("malformed JSON at byte") && whole.1.contains("expected 'true'"),
                "{whole:?}"
            );
        }
    }
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
    let mut c = Client::new(server.local_addr().to_string());
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
    let status = c.wait(id).unwrap();
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
    let mut c = Client::new(server.local_addr().to_string());
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
            let status = c.status(id).unwrap();
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

/// The frontend runs one event loop. `event_loops` 0 and 1 both mean
/// it; any other count is refused before anything is bound, never
/// remapped, and `/metrics` carries no per-loop series.
#[test]
fn one_event_loop_serves_and_other_loop_counts_are_refused() {
    let service = tiny_service();
    let bind_with = |event_loops| {
        let cfg = NetConfig {
            event_loops,
            ..NetConfig::default()
        };
        NetServer::bind("127.0.0.1:0", Arc::clone(&service), cfg)
    };
    let err = bind_with(2).err().expect("two event loops are refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("one event loop"), "{err}");
    for event_loops in [0, 1] {
        let mut server = bind_with(event_loops).unwrap();
        let addr = server.local_addr().to_string();
        for _ in 0..3 {
            assert!(Client::new(&addr).healthy(), "event_loops {event_loops}");
        }
        let reply = Client::new(&addr).request("GET", "/metrics", None).unwrap();
        let metrics = reply.ok().unwrap().body;
        assert!(metrics.contains("mudock_requests_total "), "{metrics}");
        assert!(!metrics.contains("{loop="), "{metrics}");
        server.shutdown();
    }
    service.shutdown();
}

/// A connection owes one response at a time: a request pipelined
/// behind an answer that cannot flush yet is not even parsed until the
/// peer has read that answer. Then both arrive, in order.
#[test]
fn a_pipelined_request_waits_for_the_answer_ahead_of_it_to_flush() {
    let service = tiny_service();
    let mut server = bind(&service);
    let addr = server.local_addr().to_string();
    let mut c = Client::new(&addr);
    let body = r#"{"campaign": {"name": "big", "population": 6, "generations": 1,
                                "search_radius": 3.0, "top_k": 1},
                   "receptor": {"synth": {"seed": 3, "atoms": 30, "radius": 5.0}},
                   "ligands": {"synth": {"seed": 7, "count": 0}}}"#;
    let resp = c.request("POST", "/jobs", Some(body)).unwrap();
    let id = match wire::parse(&resp.ok().unwrap().body).unwrap().get("id") {
        Some(Json::Num(n)) => n.as_u64().unwrap(),
        other => panic!("no id in submit response: {other:?}"),
    };
    assert_eq!(c.wait(id).unwrap().state, JobState::Completed);
    // Far more than loopback buffers hold: the answer cannot flush
    // until the client reads.
    let files: Vec<_> = std::fs::read_dir(server.results_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    let big = 16usize << 20;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&files[0])
        .unwrap()
        .set_len(big as u64)
        .unwrap();
    let before = server.connection_stats().requests;
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let requests = format!(
        "GET /jobs/{id}/results HTTP/1.1\r\nHost: t\r\n\r\nGET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
    );
    conn.write_all(requests.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        server.connection_stats().requests,
        before + 1,
        "the healthz behind the unflushed results was parsed"
    );
    let mut reader = BufReader::new(conn);
    let (status, results) = read_response(&mut reader);
    assert_eq!((status, results.len()), (200, big));
    let (status, health) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(health.contains("ok"), "healthz second: {health}");
    assert_eq!(server.connection_stats().requests, before + 2);
    drop(c);
    server.shutdown();
    service.shutdown();
}

/// Answering a pipelined burst is a loop, not a recursion: ten
/// thousand requests in one write are all answered, in order, on one
/// connection, with the event loop's stack no deeper for it.
#[test]
fn a_burst_of_pipelined_requests_is_answered_one_by_one() {
    let service = tiny_service();
    let mut server = bind(&service);
    let conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let n = 10_000;
    let burst = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".repeat(n);
    // The server stops reading while it owes an answer, so the burst
    // goes out on its own thread while this one reads.
    let mut writer = conn.try_clone().unwrap();
    let sender = std::thread::spawn(move || writer.write_all(burst.as_bytes()).unwrap());
    let mut reader = BufReader::new(conn);
    for i in 0..n {
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "response {i}: {body}");
    }
    sender.join().unwrap();
    assert_eq!(server.connection_stats().requests, n as u64);
    server.shutdown();
    service.shutdown();
}
