//! The long-poll `GET /jobs/{id}?wait_ms=N` against a live loopback
//! node: a parked poll is answered as its job ends (finished or
//! cancelled) or at its deadline with the status as it stands, an
//! unknown id and a bad `wait_ms` are refused at once, and a thousand
//! parked polls on the one event loop hold no thread and are all
//! answered.
//!
//! The tests take one lock, so the thread count of the last one is the
//! process's own and no other test's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mudock::core::{Campaign, CampaignSpec, ChunkPolicy};
use mudock::grids::GridDims;
use mudock::mol::Vec3;
use mudock::serve::net::client::Client;
use mudock::serve::net::MAX_WAIT_MS;
use mudock::serve::wire::{self, Json};
use mudock::serve::{
    JobId, JobState, LigandSource, NetConfig, NetServer, Priority, ReceptorSource, ScreenService,
    ServeConfig,
};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// A one-thread node: one job runs at a time, on the executor itself.
struct Node {
    service: Arc<ScreenService>,
    server: NetServer,
    results_dir: PathBuf,
}

impl Node {
    fn start(name: &str) -> Node {
        let results_dir =
            std::env::temp_dir().join(format!("mudock-long-poll-{}-{name}", std::process::id()));
        let service = Arc::new(ScreenService::start(ServeConfig {
            total_threads: 1,
            job_slots: 1,
            ..ServeConfig::default()
        }));
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig {
                results_dir: results_dir.clone(),
                max_connections: 2048,
                ..NetConfig::default()
            },
        )
        .expect("loopback bind");
        Node {
            service,
            server,
            results_dir,
        }
    }

    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    fn submit(&self, ligands: usize, chunk: usize) -> JobId {
        Client::new(self.addr())
            .submit(
                &campaign(chunk),
                &ReceptorSource::Synth {
                    seed: 7,
                    atoms: 120,
                    radius: 8.0,
                },
                &LigandSource::synth(42, ligands),
                Priority::Normal,
            )
            .expect("submit")
    }

    /// Requests the frontend has routed so far (parked ones included).
    fn routed(&self) -> u64 {
        self.server.connection_stats().requests
    }

    /// Wait until the frontend has routed `n` requests.
    fn await_routed(&self, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.routed() < n {
            assert!(
                Instant::now() < deadline,
                "only {} of {n} requests routed",
                self.routed()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.server.shutdown();
        self.service.shutdown();
        std::fs::remove_dir_all(&self.results_dir).ok();
    }
}

/// Heavy enough per ligand that a 400-ligand job outlives every test
/// here by far; chunks of `chunk` ligands are where cancellation lands.
fn campaign(chunk: usize) -> CampaignSpec {
    Campaign::builder()
        .name("long-poll")
        .population(20)
        .generations(50)
        .seed(42)
        .search_radius(3.5)
        .top_k(3)
        .chunk(ChunkPolicy::Fixed(chunk))
        .grid_dims(GridDims::centered(Vec3::ZERO, 10.0, 0.7))
        .build()
        .expect("the test campaign is valid")
}

/// Send one request on `stream` without reading the answer.
fn send(stream: &mut TcpStream, path: &str) {
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
}

/// Read one `Content-Length`-framed response: status and body.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut len = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8_lossy(&body).into_owned())
}

fn state_of(body: &str) -> String {
    let v = wire::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    v.get("state")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no state in {body}"))
        .to_string()
}

#[test]
fn a_parked_poll_answers_as_its_job_finishes() {
    let _one = one_at_a_time();
    let node = Node::start("finish");
    let id = node.submit(6, 2);
    let addr = node.addr();
    let poller = std::thread::spawn(move || {
        let sent = Instant::now();
        let status = Client::new(addr)
            .poll_within(id, Duration::from_millis(MAX_WAIT_MS))
            .expect("long-poll");
        (sent, Instant::now(), status)
    });
    // The service counts a job completed just before it publishes the
    // outcome, so this stamp is at most the job's end.
    let deadline = Instant::now() + Duration::from_secs(120);
    while node.service.stats().jobs_completed == 0 {
        assert!(Instant::now() < deadline, "the job never finished");
        std::thread::sleep(Duration::from_micros(200));
    }
    let finished = Instant::now();
    let (sent, answered, status) = poller.join().unwrap();
    assert_eq!(status.state, JobState::Completed);
    assert!(
        status.outcome.is_some(),
        "a terminal status carries its outcome"
    );
    assert!(
        finished > sent,
        "the job ended before the poll was sent, so nothing was parked"
    );
    let late = answered.saturating_duration_since(finished);
    eprintln!(
        "parked {:?}, answered {late:?} after the job finished",
        finished - sent
    );
    assert!(
        late < Duration::from_millis(50),
        "answered {late:?} after the job finished"
    );
}

#[test]
fn a_poll_at_its_deadline_answers_the_status_as_it_stands() {
    let _one = one_at_a_time();
    let node = Node::start("deadline");
    let id = node.submit(400, 1);
    let mut client = Client::new(node.addr());
    for wait in [Duration::from_millis(300), Duration::from_millis(50)] {
        let t0 = Instant::now();
        let status = client.poll_within(id, wait).expect("long-poll");
        let took = t0.elapsed();
        assert!(
            matches!(status.state, JobState::Queued | JobState::Running),
            "{:?}",
            status.state
        );
        assert!(status.outcome.is_none());
        assert!(
            took >= wait,
            "answered after {took:?}, before its {wait:?} deadline"
        );
        assert!(
            took < wait + Duration::from_secs(2),
            "answered {took:?} after a {wait:?} deadline"
        );
    }
    // A plain GET is still a snapshot: it answers at once.
    let t0 = Instant::now();
    assert!(!client.status(id).expect("snapshot").is_terminal());
    assert!(t0.elapsed() < Duration::from_secs(1));
    client.cancel(id).expect("cancel");
    assert_eq!(client.wait(id).unwrap().state, JobState::Cancelled);
}

#[test]
fn delete_wakes_a_parked_poll_with_cancelled() {
    let _one = one_at_a_time();
    let node = Node::start("cancel");
    let id = node.submit(400, 1);
    let before = node.routed();
    let addr = node.addr();
    let poller = std::thread::spawn(move || {
        let t0 = Instant::now();
        let status = Client::new(addr)
            .poll_within(id, Duration::from_millis(MAX_WAIT_MS))
            .expect("long-poll");
        (t0.elapsed(), status)
    });
    node.await_routed(before + 1);
    let snapshot = Client::new(node.addr()).cancel(id).expect("DELETE");
    assert!(!snapshot.is_terminal() || snapshot.state == JobState::Cancelled);
    let (took, status) = poller.join().unwrap();
    assert_eq!(status.state, JobState::Cancelled);
    assert!(status.outcome.is_some());
    assert!(
        took < Duration::from_millis(MAX_WAIT_MS) - Duration::from_secs(1),
        "the cancelled job's poll waited out its deadline ({took:?})"
    );
}

#[test]
fn an_unknown_id_and_a_bad_wait_are_refused_at_once() {
    let _one = one_at_a_time();
    let node = Node::start("refused");
    let id = node.submit(400, 1);
    let mut client = Client::new(node.addr());
    let t0 = Instant::now();
    let reply = client
        .request(
            "GET",
            &format!("/jobs/{}?wait_ms={MAX_WAIT_MS}", id + 1000),
            None,
        )
        .expect("exchange");
    assert_eq!(reply.status, 404, "{}", reply.body);
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "a 404 waited {:?}",
        t0.elapsed()
    );

    let over = (MAX_WAIT_MS + 1).to_string();
    for bad in ["-1", "abc", "", "1.5", over.as_str()] {
        let t0 = Instant::now();
        let reply = client
            .request("GET", &format!("/jobs/{id}?wait_ms={bad}"), None)
            .expect("exchange");
        assert_eq!(reply.status, 400, "wait_ms={bad}: {}", reply.body);
        let error = wire::parse(&reply.body)
            .ok()
            .and_then(|v| v.get("error").and_then(Json::as_str).map(str::to_string));
        assert!(
            error.is_some_and(|e| e.contains("wait_ms")),
            "wait_ms={bad}: not the wire error shape: {}",
            reply.body
        );
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
    client.cancel(id).expect("cancel");
}

/// Threads of this process (`None` where `/proc` has no task list).
fn threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn a_thousand_parked_polls_hold_no_thread_and_are_all_answered() {
    const POLLS: usize = 1000;
    let _one = one_at_a_time();
    let node = Node::start("thousand");
    let id = node.submit(400, 1);
    let before = threads();
    let routed = node.routed();
    let path = format!("/jobs/{id}?wait_ms={MAX_WAIT_MS}");
    let mut polls: Vec<BufReader<TcpStream>> = (0..POLLS)
        .map(|_| {
            let mut stream = TcpStream::connect(node.addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            send(&mut stream, &path);
            BufReader::new(stream)
        })
        .collect();
    node.await_routed(routed + POLLS as u64);
    assert_eq!(threads(), before, "parking {POLLS} polls started threads");
    assert_eq!(node.server.connection_stats().open, POLLS as u64);

    Client::new(node.addr()).cancel(id).expect("DELETE");
    let t0 = Instant::now();
    for (i, poll) in polls.iter_mut().enumerate() {
        let (status, body) = read_response(poll);
        assert_eq!(status, 200, "poll {i}: {body}");
        assert_eq!(state_of(&body), "cancelled", "poll {i}");
    }
    assert!(
        t0.elapsed() < Duration::from_millis(MAX_WAIT_MS),
        "the polls waited out their deadline ({:?})",
        t0.elapsed()
    );
    // Each connection is back between requests and serves the next one.
    send(polls[0].get_mut(), &format!("/jobs/{id}"));
    assert_eq!(read_response(&mut polls[0]).0, 200);
}
