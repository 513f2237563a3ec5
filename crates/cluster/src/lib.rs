//! # mudock-cluster — receptor-affinity federation
//!
//! Turns N `mudock serve` nodes into one screening cluster. A
//! [`Coordinator`] listens on the exact HTTP/1.1 + wire-JSON dialect a
//! node speaks and federates both directions of it: submissions route
//! to members by **receptor affinity** (the node whose shard table
//! already holds the receptor's grid fingerprint — the AutoGrid build
//! is the dominant fixed cost, and it is already paid there), large
//! ligand libraries **scatter** across members as contiguous
//! [`LigandSlice`](mudock_serve::LigandSlice) windows, and partial
//! rankings **gather** back through
//! [`mudock_core::merge_ranked_partials`] into a result that is
//! bit-identical to a single-node run — same score bits, same tie
//! order.
//!
//! The moving parts, one module each:
//!
//! * [`membership`] — `/healthz` probing with per-member backoff,
//!   dead-after-N-consecutive-failures, boot-id restart detection, and
//!   the ETag-cached view of each member's `/stats` shard table;
//! * [`router`] — affinity first, lowest-occupancy fallback,
//!   round-robin tiebreak;
//! * [`scatter`] — per-job gather loop: dispatch, poll, re-dispatch
//!   unfinished windows off dead members, merge;
//! * `http` (private) — the coordinator's tier of `serve::net`'s job
//!   API: the routes, job table and frontend (event-loop pool,
//!   connection pinning, `--event-loops` knob) are the node's own;
//! * [`metrics`] — the `mudock_cluster_*` instrument families served
//!   at `GET /metrics`.
//!
//! No new dependencies, no new wire formats: members need nothing but
//! an up-to-date `mudock serve`, and anything that can talk to a node
//! can talk to the cluster.
//!
//! ```no_run
//! use mudock_cluster::{ClusterConfig, Coordinator};
//!
//! let coordinator = Coordinator::bind(
//!     "127.0.0.1:0",
//!     ClusterConfig {
//!         nodes: vec!["10.0.0.1:7000".into(), "10.0.0.2:7000".into()],
//!         ..ClusterConfig::default()
//!     },
//! )
//! .expect("bind");
//! println!("coordinating at {}", coordinator.local_addr());
//! ```

pub mod membership;
pub mod metrics;
pub mod router;
pub mod scatter;

mod http;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mudock_obs::Registry;
use mudock_serve::net::{FrontendBuilder, HttpFrontend, NetConfig};

pub use membership::{Member, MemberSnapshot, MemberState, Membership};
pub use metrics::ClusterMetrics;
pub use router::{RouteReason, Router};
pub use scatter::ClusterJob;

/// Coordinator policy. The defaults suit a LAN of a few nodes; every
/// knob exists because a test or an operator needs to turn it.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Member node addresses (`host:port`, the `mudock serve` socket).
    pub nodes: Vec<String>,
    /// Base spacing between health-probe rounds.
    pub health_interval: Duration,
    /// Consecutive failures before a member is marked dead.
    pub dead_after: u32,
    /// Libraries below this many ligands are not worth fanning out —
    /// dispatch whole to one member.
    pub scatter_min_ligands: usize,
    /// Upper bound on scatter fan-out (actual lanes = min(alive, this)).
    pub max_parts: usize,
    /// How often the gather loop polls member sub-jobs.
    pub poll_interval: Duration,
    /// Dispatch attempts per window before the cluster job fails.
    pub max_attempts: u32,
    /// Forward submissions naming server-side file paths (same trust
    /// posture as `NetConfig::allow_path_sources`).
    pub allow_path_sources: bool,
    /// Terminal cluster jobs retained for late status/results reads.
    pub max_retained_jobs: usize,
    /// Event-loop threads for the frontend, exactly as
    /// [`mudock_serve::NetConfig::event_loops`]: `0` means
    /// auto (one per core, capped at 4).
    pub event_loops: usize,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            nodes: Vec::new(),
            health_interval: Duration::from_millis(500),
            dead_after: 3,
            scatter_min_ligands: 8,
            max_parts: 16,
            poll_interval: Duration::from_millis(20),
            max_attempts: 4,
            allow_path_sources: false,
            max_retained_jobs: 64,
            event_loops: 0,
        }
    }
}

/// A running coordinator: frontend listener + health thread + per-job
/// gather threads. Dropping it does *not* stop it; call
/// [`Coordinator::shutdown`].
pub struct Coordinator {
    addr: std::net::SocketAddr,
    node_id: u64,
    membership: Arc<Membership>,
    frontend: HttpFrontend,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Coordinator {
    /// Bind the frontend and start probing members. `listen` may use
    /// port 0; see [`Coordinator::local_addr`] for the resolved socket.
    pub fn bind(listen: &str, cfg: ClusterConfig) -> std::io::Result<Coordinator> {
        // The node's multi-loop readiness frontend and job API, with
        // coordinator-shaped limits: bodies are generous (inline ligand
        // libraries ride through on their way to members), idle
        // keep-alive connections are bounded tighter than a node's.
        // Same trust posture as a node: a path source would make
        // *members* read coordinator-named files.
        let builder = FrontendBuilder::bind(
            listen,
            NetConfig {
                max_body_bytes: 64 << 20,
                idle_timeout: Duration::from_secs(30),
                event_loops: cfg.event_loops,
                allow_path_sources: cfg.allow_path_sources,
                max_retained_jobs: cfg.max_retained_jobs,
                ..NetConfig::default()
            },
        )?;
        let addr = builder.local_addr();
        let node_id = builder.node_id();

        let registry = Registry::new();
        let metrics = Arc::new(ClusterMetrics::register(&registry));
        let membership = Arc::new(Membership::new(
            &cfg.nodes,
            cfg.dead_after,
            cfg.health_interval,
            Arc::clone(&metrics),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let interval = cfg.health_interval;
        let tier = http::CoordinatorTier {
            gather: Arc::new(scatter::Gather {
                membership: Arc::clone(&membership),
                router: Router::new(),
                metrics,
                poll_interval: cfg.poll_interval,
                max_attempts: cfg.max_attempts,
                stop: Arc::clone(&stop),
            }),
            cfg,
            next_id: AtomicU64::new(1),
            node_id,
        };
        let frontend = builder.start(tier, &registry)?;

        let mut threads = Vec::new();
        {
            let stop = Arc::clone(&stop);
            let membership = Arc::clone(&membership);
            threads.push(
                std::thread::Builder::new()
                    .name("cluster-health".into())
                    .spawn(move || {
                        // First round immediately: warm the shard-table
                        // cache before the first submission arrives.
                        while !stop.load(Ordering::SeqCst) {
                            membership.probe_all();
                            // Sleep in short slices so shutdown is
                            // prompt even with long probe intervals.
                            let mut remaining = interval;
                            while !stop.load(Ordering::SeqCst) && remaining > Duration::ZERO {
                                let step = remaining.min(Duration::from_millis(20));
                                std::thread::sleep(step);
                                remaining = remaining.saturating_sub(step);
                            }
                        }
                    })?,
            );
        }
        Ok(Coordinator {
            addr,
            node_id,
            membership,
            frontend,
            stop,
            threads,
        })
    }

    /// The bound frontend socket (resolved, if `listen` used port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// This coordinator's boot-random identity (as served by
    /// `/healthz`).
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// The membership view, for tests and embedding callers.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Stop the frontend, the health thread, and every gather loop.
    /// In-flight sub-jobs on members are left to finish or be evicted
    /// there; the coordinator stops tracking them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.frontend.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
