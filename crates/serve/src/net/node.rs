//! The screening node's tier of the job API: jobs run on a
//! [`ScreenService`], results live in files, and [`NetServer`].

use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mudock_mol::Molecule;

use super::api::JobTier;
use super::frontend::{ConnectionStats, FrontendBuilder, HttpFrontend, NetMetrics};
use super::http::Body;
use super::NetConfig;
use crate::job::{FinishHook, JobHandle, JobId, JobSpec};
use crate::server::ScreenService;
use crate::wire::{self, JobStatus, Json, Submission};

/// One submitted job as the node tracks it.
struct NetJob {
    handle: JobHandle,
    name: String,
    results: PathBuf,
}

/// The node's [`JobTier`], mounted by [`NetServer::bind`].
struct NodeTier {
    service: Arc<ScreenService>,
    results_dir: PathBuf,
    /// The same registry-backed atomics the frontend updates —
    /// [`Registry`](mudock_obs::Registry) hands out one instrument per
    /// (name, labels), so registering here again just shares the
    /// handles and `/stats` can read them without any plumbing from
    /// the event loop.
    metrics: NetMetrics,
    /// Every job the node starts runs this when it finishes: it pokes
    /// the frontend's waker, so polls parked on the job are answered.
    finished: FinishHook,
}

/// Monotonic counter naming result files (assigned pre-submit, before
/// the service id exists). Process-global, not per-server: two
/// frontends in one process can share the default (pid-derived)
/// `results_dir`, and per-server counters would both hand out
/// `job-1.jsonl` — one server's eviction would then delete the other's
/// live results.
static NEXT_FILE: AtomicU64 = AtomicU64::new(1);

/// A running HTTP listener bound to a [`ScreenService`].
pub struct NetServer {
    frontend: HttpFrontend,
    node_id: u64,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the event loop. The service is shared — in-process
    /// submissions keep working alongside network ones.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<ScreenService>,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        std::fs::create_dir_all(&cfg.results_dir)?;
        let registry = service.registry();
        let builder = FrontendBuilder::bind(addr, cfg.clone())?;
        let node_id = builder.node_id();
        let tier = NodeTier {
            service,
            results_dir: cfg.results_dir,
            metrics: NetMetrics::register(&registry),
            finished: {
                let waker = builder.waker();
                Arc::new(move || waker.wake())
            },
        };
        let frontend = builder.start(tier, &registry)?;
        Ok(NetServer { frontend, node_id })
    }

    /// The bound address (resolves the port for `…:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    /// This server's boot-random identity, as served in `/healthz`.
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// Connection gauges as of now.
    pub fn connection_stats(&self) -> ConnectionStats {
        self.frontend.connection_stats()
    }

    /// Stop the event loop and join it; every open connection is
    /// dropped. The underlying [`ScreenService`] is left running (it
    /// may have in-process users); shut it down separately.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.frontend.shutdown();
    }
}

impl JobTier for NodeTier {
    type Job = NetJob;

    fn stats(&self) -> Json {
        // One ordered snapshot feeds every connection field, so a
        // scrape can never see `open > accepted` torn views.
        let conns = self.metrics.snapshot();
        let mut v = wire::stats_to_json(&self.service.stats());
        if let Json::Obj(members) = &mut v {
            members.push(("rejected_connections".into(), Json::u64(conns.shed)));
            members.push((
                "queue_capacity".into(),
                Json::usize(self.service.queue_capacity()),
            ));
            members.push((
                "connections".into(),
                Json::Obj(vec![
                    ("open".into(), Json::u64(conns.open)),
                    ("accepted".into(), Json::u64(conns.accepted)),
                    ("shed".into(), Json::u64(conns.shed)),
                    ("parse_errors".into(), Json::u64(conns.parse_errors)),
                    ("requests".into(), Json::u64(conns.requests)),
                ]),
            ));
        }
        v
    }

    fn start(
        &self,
        sub: Submission,
        receptor: Arc<Molecule>,
    ) -> Result<(JobId, Arc<NetJob>), String> {
        let file_no = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
        let results = self.results_dir.join(format!("job-{file_no}.jsonl"));
        let name = sub.campaign.name.clone();
        let spec = JobSpec {
            receptor,
            ligands: sub.ligands,
            slice: sub.slice,
            priority: sub.priority,
            jsonl: Some(results.clone()),
            ..JobSpec::from(sub.campaign)
        };
        // try_submit, not submit: a full queue must become backpressure on
        // the wire (503 + retry), never the event loop blocked on a
        // condvar while every other connection starves.
        let handle = self.service.try_submit(spec).map_err(|e| e.to_string())?;
        handle.on_finish(Arc::clone(&self.finished));
        let job = NetJob {
            handle,
            name,
            results,
        };
        Ok((job.handle.id(), Arc::new(job)))
    }

    fn status(&self, job: &NetJob) -> JobStatus {
        let (state, outcome) = job.handle.state_and_outcome();
        JobStatus {
            id: job.handle.id(),
            name: job.name.clone(),
            state,
            ligands_done: job.handle.ligands_done(),
            chunks_done: job.handle.chunks_done(),
            stages: Some(job.handle.stage_timings()),
            outcome,
        }
    }

    fn is_terminal(&self, job: &NetJob) -> bool {
        job.handle.state().is_terminal()
    }

    fn results(&self, job: &NetJob) -> std::io::Result<Body> {
        // The sink appends + flushes at chunk boundaries, so serving the
        // file mid-run streams every completed chunk — same contract as
        // tailing the JSONL locally. Streamed from disk in chunks, never
        // buffered whole: results files grow with the campaign. The length
        // is snapshotted up front so a chunk landing mid-response cannot
        // overrun the declared Content-Length.
        match std::fs::File::open(&job.results) {
            Ok(file) => {
                let len = file.metadata()?.len();
                Ok(Body::File(file, len))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Body::Text(String::new())),
            Err(e) => Err(e),
        }
    }

    fn cancel(&self, job: &NetJob) {
        job.handle.cancel();
    }

    fn evicted(&self, job: &NetJob) {
        std::fs::remove_file(&job.results).ok();
    }
}
