//! One dialect: the same raw requests sent to a node and to a
//! coordinator answer with the same status code, the same
//! `Content-Type` and bodies of the same shape — and the coordinator's
//! retention cap, like the node's, counts terminal jobs only.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mudock_cluster::{ClusterConfig, Coordinator};
use mudock_core::{Campaign, CampaignSpec, ChunkPolicy};
use mudock_grids::GridDims;
use mudock_mol::Vec3;
use mudock_serve::net::client;
use mudock_serve::wire::{self, Json};
use mudock_serve::{
    JobState, LigandSource, NetConfig, NetServer, Priority, ReceptorSource, ScreenService,
    ServeConfig,
};

fn campaign(name: &str) -> CampaignSpec {
    Campaign::builder()
        .name(name)
        .population(8)
        .generations(3)
        .seed(42)
        .search_radius(3.0)
        .top_k(3)
        .chunk(ChunkPolicy::Fixed(2))
        .grid_dims(GridDims::centered(Vec3::ZERO, 8.0, 0.8))
        .build()
        .expect("the test campaign is valid")
}

fn receptor() -> ReceptorSource {
    ReceptorSource::Synth {
        seed: 7,
        atoms: 60,
        radius: 6.0,
    }
}

fn submission(name: &str, ligands: usize) -> String {
    wire::submission_to_json(
        &campaign(name),
        &receptor(),
        &LigandSource::synth(42, ligands),
        Priority::Normal,
    )
    .expect("encodable")
    .encode()
}

/// One loopback node: service + network frontend.
struct Node {
    service: Arc<ScreenService>,
    server: NetServer,
    results_dir: std::path::PathBuf,
}

impl Node {
    fn start(name: &str) -> Node {
        let results_dir =
            std::env::temp_dir().join(format!("mudock-dialect-{}-{name}", std::process::id()));
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
}

impl Drop for Node {
    fn drop(&mut self) {
        self.server.shutdown();
        self.service.shutdown();
        std::fs::remove_dir_all(&self.results_dir).ok();
    }
}

fn coordinator_over(member: &Node, max_retained_jobs: usize) -> Coordinator {
    Coordinator::bind(
        "127.0.0.1:0",
        ClusterConfig {
            nodes: vec![member.addr()],
            health_interval: Duration::from_millis(50),
            poll_interval: Duration::from_millis(5),
            max_retained_jobs,
            ..ClusterConfig::default()
        },
    )
    .expect("coordinator bind")
}

/// What a client sees of one exchange.
#[derive(Debug)]
struct Reply {
    status: u16,
    content_type: String,
    body: String,
}

/// One request on a fresh connection, read to EOF (`client::request`
/// hides the `Content-Type`, which is half of what is compared here).
fn raw(addr: &str, method: &str, path: &str, body: Option<&str>) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read to EOF");
    let (head, body) = text.split_once("\r\n\r\n").expect("a complete head");
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let content_type = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-type"))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_default();
    Reply {
        status,
        content_type,
        body: body.to_string(),
    }
}

fn keys(v: &Json) -> BTreeSet<String> {
    match v {
        Json::Obj(members) => members.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

fn submitted_id(reply: &Reply) -> u64 {
    assert_eq!(reply.status, 201, "{reply:?}");
    match wire::parse(&reply.body).unwrap().get("id") {
        Some(Json::Num(n)) => n.as_u64().unwrap(),
        other => panic!("no id in {reply:?}: {other:?}"),
    }
}

fn wait_terminal(addr: &str, id: u64) -> wire::JobStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client::poll(addr, id).expect("poll");
        if status.is_terminal() {
            return status;
        }
        assert!(Instant::now() < deadline, "job {id} on {addr} never ended");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// How a row's bodies are compared once status and content type agree.
enum Shape {
    /// JSON objects with the same keys, bar these coordinator-only ones.
    Keys(&'static [&'static str]),
    /// `{"error": …}` with the same text.
    Error,
    /// JSONL with the same number of lines.
    Lines,
    /// The tier's own body (`/stats`, `/metrics`): not compared.
    Own,
}

#[test]
fn a_node_and_a_coordinator_answer_the_same_script_alike() {
    let plain = Node::start("plain");
    let member = Node::start("member");
    let coordinator = coordinator_over(&member, 64);
    let sides = [plain.addr(), coordinator.local_addr().to_string()];

    // The valid submission first: later rows name the job it created.
    let valid = submission("parity", 4);
    let ids: Vec<u64> = sides
        .iter()
        .map(|addr| {
            let reply = raw(addr, "POST", "/jobs", Some(&valid));
            assert_eq!(reply.content_type, "application/json");
            assert_eq!(
                keys(&wire::parse(&reply.body).unwrap()),
                ["id", "results", "state"].map(String::from).into()
            );
            submitted_id(&reply)
        })
        .collect();
    for (addr, &id) in sides.iter().zip(&ids) {
        assert_eq!(wait_terminal(addr, id).state, JobState::Completed);
    }

    let no_receptor = r#"{"campaign": {"name": "x"},
                          "ligands": {"synth": {"seed": 1, "count": 2}}}"#;
    let path_source = r#"{"campaign": {"name": "p"},
                          "receptor": {"path": "/nonexistent/receptor.pdbqt"},
                          "ligands": {"synth": {"seed": 1, "count": 2}}}"#;
    let bad_campaign = r#"{"campaign": {"name": "x", "top_k": 0},
                           "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                           "ligands": {"synth": {"seed": 1, "count": 2}}}"#;
    // (method, path with `{id}` for the side's own job, body, expected
    // status, how the bodies compare)
    let script: &[(&str, &str, Option<&str>, u16, Shape)] = &[
        ("GET", "/healthz", None, 200, Shape::Keys(&["role"])),
        ("GET", "/stats", None, 200, Shape::Own),
        ("GET", "/metrics", None, 200, Shape::Own),
        ("POST", "/jobs", Some("{not json"), 400, Shape::Error),
        ("POST", "/jobs", Some(no_receptor), 400, Shape::Error),
        ("POST", "/jobs", Some(path_source), 403, Shape::Error),
        ("POST", "/jobs", Some(bad_campaign), 422, Shape::Error),
        ("GET", "/jobs/{id}", None, 200, Shape::Keys(&[])),
        ("GET", "/jobs/999999", None, 404, Shape::Error),
        ("GET", "/jobs/not-a-number", None, 404, Shape::Error),
        ("GET", "/jobs/{id}/results", None, 200, Shape::Lines),
        ("DELETE", "/jobs/{id}", None, 202, Shape::Keys(&[])),
        ("PUT", "/jobs", None, 405, Shape::Error),
        ("GET", "/nope", None, 404, Shape::Error),
    ];
    // Every row is checked before any is reported, so one run lists
    // every drift.
    let mut drifts = Vec::new();
    for (method, path, body, status, shape) in script {
        let [node, coord] = [0, 1].map(|side| {
            let path = path.replace("{id}", &ids[side].to_string());
            raw(&sides[side], method, &path, *body)
        });
        let same_shape = match shape {
            Shape::Keys(coordinator_only) => {
                let mut want = keys(&wire::parse(&node.body).unwrap());
                want.extend(coordinator_only.iter().map(|k| k.to_string()));
                keys(&wire::parse(&coord.body).unwrap()) == want
            }
            Shape::Error => {
                let text = |r: &Reply| wire::parse(&r.body).unwrap().get("error").cloned();
                text(&node).is_some() && text(&node) == text(&coord)
            }
            Shape::Lines => {
                node.content_type == "application/x-ndjson"
                    && node.body.lines().count() == 4
                    && coord.body.lines().count() == 4
            }
            Shape::Own => true,
        };
        if (node.status, coord.status) != (*status, *status)
            || node.content_type != coord.content_type
            || !same_shape
        {
            drifts.push(format!(
                "{method} {path} (want {status}):\n  node {node:?}\n  coordinator {coord:?}"
            ));
        }
    }
    assert!(drifts.is_empty(), "{}", drifts.join("\n"));

    // The two documented differences: the coordinator names its role,
    // and its `/stats` describes members where a node's describes shards.
    let stats = |addr: &str| wire::parse(&raw(addr, "GET", "/stats", None).body).unwrap();
    assert!(stats(&sides[0]).get("shards").is_some());
    let coord = stats(&sides[1]);
    assert_eq!(coord.get("role"), Some(&Json::str("coordinator")));
    assert!(matches!(coord.get("members"), Some(Json::Arr(m)) if m.len() == 1));

    coordinator.shutdown();
}

#[test]
fn in_flight_jobs_do_not_crowd_a_finished_one_out_of_the_coordinator() {
    let member = Node::start("retention");
    let coordinator = coordinator_over(&member, 2);
    let addr = coordinator.local_addr().to_string();

    let finished = submitted_id(&raw(&addr, "POST", "/jobs", Some(&submission("done", 2))));
    assert_eq!(wait_terminal(&addr, finished).state, JobState::Completed);

    // Three more, in flight for as long as this test needs: the member
    // runs one job at a time, the first of these is far longer than the
    // assertions below take, and the other two queue behind it.
    let in_flight: Vec<u64> = [("long", 5000), ("queued-1", 2), ("queued-2", 2)]
        .iter()
        .map(|(name, n)| submitted_id(&raw(&addr, "POST", "/jobs", Some(&submission(name, *n)))))
        .collect();

    // Two of those submissions were enough to drop the finished job when
    // the cap of 2 counted in-flight jobs as well.
    for &id in &in_flight {
        let status = client::poll(&addr, id).expect("in-flight jobs are tracked");
        assert!(!status.is_terminal(), "job {id} ended early: {status:?}");
    }
    let status = client::poll(&addr, finished).expect("the finished job is still pollable");
    assert_eq!(status.state, JobState::Completed);
    let results = client::results(&addr, finished).expect("and so are its results");
    assert_eq!(results.lines().count(), 2);

    for &id in &in_flight {
        client::cancel(&addr, id).expect("cancel");
    }
    for &id in &in_flight {
        assert_eq!(wait_terminal(&addr, id).state, JobState::Cancelled);
    }
    coordinator.shutdown();
}
