//! The screening node's mount on the frontend: the job CRUD + health
//! + stats routes over a [`ScreenService`], and [`NetServer`].

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::frontend::{ConnectionStats, FrontendBuilder, HttpFrontend, HttpRoutes, NetMetrics};
use super::http::{Body, Response};
use super::NetConfig;
use crate::job::{JobHandle, JobId, JobSpec, JobState};
use crate::queue::SubmitError;
use crate::server::ScreenService;
use crate::wire::{self, Json, WireError};

/// One submitted job as the frontend tracks it.
#[derive(Clone)]
struct NetJob {
    handle: JobHandle,
    name: String,
    results: PathBuf,
}

/// The screening node's routes: the job CRUD + health + stats API over
/// a [`ScreenService`], mounted on the generic frontend by
/// [`NetServer::bind`].
struct NodeRoutes {
    service: Arc<ScreenService>,
    jobs: Mutex<HashMap<JobId, NetJob>>,
    cfg: NetConfig,
    /// The same registry-backed atomics the frontend updates —
    /// [`Registry`] hands out one instrument per (name, labels), so
    /// registering here again just shares the handles and `/stats` can
    /// read them without any plumbing from the event loops.
    metrics: NetMetrics,
    /// Random-at-boot identity served in `/healthz`. A coordinator that
    /// sees the id change behind a stable address knows the node
    /// restarted (grids cold, in-flight jobs gone) even though the
    /// socket still answers.
    node_id: u64,
}

/// Monotonic counter naming result files (assigned pre-submit, before
/// the service id exists). Process-global, not per-server: two
/// frontends in one process can share the default (pid-derived)
/// `results_dir`, and per-server counters would both hand out
/// `job-1.jsonl` — one server's eviction would then delete the other's
/// live results.
static NEXT_FILE: AtomicU64 = AtomicU64::new(1);

/// Boot-random node identity: an FNV mix of the wall clock, the pid,
/// and the bound address. Not cryptographic — it only needs to differ
/// between two boots of the same node with overwhelming probability,
/// so a coordinator polling `/healthz` can detect a restart behind a
/// stable address.
fn boot_node_id(addr: SocketAddr) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    mudock_grids::Fnv64::new()
        .write_u64(nanos)
        .write_u64(std::process::id() as u64)
        .write(addr.to_string().as_bytes())
        .finish()
}

/// A running HTTP listener bound to a [`ScreenService`].
pub struct NetServer {
    frontend: HttpFrontend,
    node_id: u64,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start the event-loop pool. The service is shared — in-process
    /// submissions keep working alongside network ones.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<ScreenService>,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        std::fs::create_dir_all(&cfg.results_dir)?;
        let registry = service.registry();
        let builder = FrontendBuilder::bind(addr, cfg.clone())?;
        let node_id = boot_node_id(builder.local_addr());
        let metrics = NetMetrics::register(&registry);
        let routes = Arc::new(NodeRoutes {
            service,
            jobs: Mutex::new(HashMap::new()),
            cfg,
            metrics,
            node_id,
        });
        let frontend = builder.start(routes, &registry)?;
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

    /// Stop the event loops and join them; every open connection is
    /// dropped. The underlying [`ScreenService`] is left running (it
    /// may have in-process users); shut it down separately.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.frontend.shutdown();
    }
}

impl HttpRoutes for NodeRoutes {
    fn wants_body(&self, method: &str, path: &str) -> bool {
        let path = path.split('?').next().unwrap_or("");
        method == "POST" && path.split('/').filter(|s| !s.is_empty()).eq(["jobs"])
    }

    fn route(
        &self,
        method: &str,
        raw_path: &str,
        body: Option<Result<Json, WireError>>,
    ) -> Response {
        let path = raw_path.split('?').next().unwrap_or("");
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        match (method, segments.as_slice()) {
            ("GET", ["healthz"]) => {
                // Still a plain 200 for old clients that only check the
                // status; the body now carries the boot-random node id (a
                // restart behind the same address changes it) and version.
                Response::json(
                    200,
                    &Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("node".into(), Json::str(format!("{:016x}", self.node_id))),
                        ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
                    ]),
                )
            }
            ("GET", ["stats"]) => {
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
                Response::json(200, &v)
            }
            ("GET", ["metrics"]) => {
                // Prometheus text exposition, rendered from the same
                // registry `/stats` reads — one source of truth.
                Response::text(
                    200,
                    "text/plain; version=0.0.4",
                    self.metrics.registry.render_prometheus(),
                )
            }
            ("POST", ["jobs"]) => self.submit_job(body),
            ("GET", ["jobs", id]) => self.with_job(id, job_status),
            ("GET", ["jobs", id, "results"]) => self.with_job(id, job_results),
            ("DELETE", ["jobs", id]) => self.with_job(id, cancel_job),
            (_, ["jobs", ..]) | (_, ["healthz"]) | (_, ["stats"]) | (_, ["metrics"]) => {
                Response::error(405, format!("method {method} not allowed on {path}"))
            }
            _ => Response::error(404, format!("no route for {path}")),
        }
    }
}

impl NodeRoutes {
    fn submit_job(&self, body: Option<Result<Json, WireError>>) -> Response {
        let parsed = match body {
            Some(Ok(v)) => v,
            Some(Err(e)) => return Response::wire_error(&e),
            None => return Response::error(400, "POST /jobs requires a JSON body"),
        };
        let sub = match wire::submission_from_json(&parsed) {
            Ok(s) => s,
            Err(e) => return Response::wire_error(&e),
        };
        // Path sources make *this* process read the named file; on an
        // unauthenticated socket that is a filesystem probe. Refuse before
        // any I/O happens unless the operator opted in.
        if !self.cfg.allow_path_sources && sub.uses_path_sources() {
            return Response::error(
                403,
                "server-side 'path' sources are disabled on this server; \
                 ship the PDBQT text inline instead",
            );
        }
        let receptor = match sub.load_receptor() {
            Ok(r) => r,
            Err(e) => return Response::wire_error(&e),
        };
        let file_no = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
        let results = self.cfg.results_dir.join(format!("job-{file_no}.jsonl"));
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
        match self.service.try_submit(spec) {
            Ok(handle) => {
                let id = handle.id();
                let evicted = {
                    let mut jobs = self.jobs.lock().unwrap();
                    jobs.insert(
                        id,
                        NetJob {
                            handle,
                            name,
                            results,
                        },
                    );
                    evict_terminal_jobs(&mut jobs, self.cfg.max_retained_jobs)
                };
                for path in evicted {
                    std::fs::remove_file(path).ok();
                }
                Response::json(
                    201,
                    &Json::Obj(vec![
                        ("id".into(), Json::u64(id)),
                        (
                            "state".into(),
                            Json::str(wire::state_name(JobState::Queued)),
                        ),
                        ("results".into(), Json::str(format!("/jobs/{id}/results"))),
                    ]),
                )
            }
            Err(e @ (SubmitError::Full | SubmitError::Shutdown)) => {
                Response::error(503, e.to_string())
            }
        }
    }

    /// Look a job up and run `f` on a clone of its tracking entry, or
    /// 404. The clone means the global map lock is held only for the
    /// lookup — never across `f` (which may open a large results file).
    fn with_job(&self, id: &str, f: fn(&NetJob, JobId) -> Response) -> Response {
        let Ok(id) = id.parse::<JobId>() else {
            return Response::error(404, format!("job id '{id}' is not a number"));
        };
        let job = self.jobs.lock().unwrap().get(&id).cloned();
        match job {
            Some(job) => f(&job, id),
            None => Response::error(404, format!("no job {id}")),
        }
    }
}

/// Drop the oldest *terminal* jobs beyond `max_retained` so a
/// long-running server does not grow per submission forever; returns
/// their result-file paths for deletion outside the lock. Running and
/// queued jobs are never touched, so the map can exceed the cap while
/// that many jobs are genuinely in flight.
fn evict_terminal_jobs(jobs: &mut HashMap<JobId, NetJob>, max_retained: usize) -> Vec<PathBuf> {
    let mut terminal: Vec<JobId> = jobs
        .iter()
        .filter(|(_, j)| j.handle.try_outcome().is_some())
        .map(|(&id, _)| id)
        .collect();
    // The cap applies to *terminal* jobs alone (as NetConfig documents):
    // in-flight jobs must neither be evicted nor crowd finished ones
    // out of their retention window.
    let excess = terminal.len().saturating_sub(max_retained.max(1));
    if excess == 0 {
        return Vec::new();
    }
    terminal.sort_unstable();
    terminal
        .into_iter()
        .take(excess)
        .filter_map(|id| jobs.remove(&id).map(|j| j.results))
        .collect()
}

/// The status body of `GET`/`DELETE /jobs/{id}`. State and outcome
/// come from one lock acquisition, so a poll racing the job's
/// completion never reports a terminal state without its outcome.
fn status_json(job: &NetJob, id: JobId) -> Json {
    let (state, outcome) = job.handle.state_and_outcome();
    wire::status_to_json(
        id,
        &job.name,
        state,
        job.handle.ligands_done(),
        job.handle.chunks_done(),
        &job.handle.stage_timings(),
        outcome.as_ref(),
    )
}

fn job_status(job: &NetJob, id: JobId) -> Response {
    Response::json(200, &status_json(job, id))
}

fn job_results(job: &NetJob, _id: JobId) -> Response {
    // The sink appends + flushes at chunk boundaries, so serving the
    // file mid-run streams every completed chunk — same contract as
    // tailing the JSONL locally. Streamed from disk in chunks, never
    // buffered whole: results files grow with the campaign. The length
    // is snapshotted up front so a chunk landing mid-response cannot
    // overrun the declared Content-Length.
    match std::fs::File::open(&job.results) {
        Ok(file) => match file.metadata() {
            Ok(meta) => Response {
                status: 200,
                content_type: "application/x-ndjson",
                body: Body::File(file, meta.len()),
            },
            Err(e) => Response::error(500, format!("results file: {e}")),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Response::text(200, "application/x-ndjson", String::new())
        }
        Err(e) => Response::error(500, format!("results file: {e}")),
    }
}

fn cancel_job(job: &NetJob, id: JobId) -> Response {
    job.handle.cancel();
    Response::json(202, &status_json(job, id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn eviction_drops_only_the_oldest_terminal_jobs() {
        use crate::job::{JobOutcome, JobShared};
        fn job(id: u64, terminal: bool) -> NetJob {
            let shared = JobShared::new(id);
            if terminal {
                shared.finish(JobOutcome {
                    id,
                    name: String::new(),
                    state: JobState::Completed,
                    ligands_done: 0,
                    chunks_done: 0,
                    replayed_chunks: 0,
                    grid_cache_hit: false,
                    stopped_early: false,
                    top: Vec::new(),
                    elapsed: Duration::ZERO,
                    error: None,
                });
            }
            NetJob {
                handle: JobHandle { shared },
                name: format!("j{id}"),
                results: PathBuf::from(format!("/nonexistent/none-{id}.jsonl")),
            }
        }
        let mut jobs = HashMap::new();
        for id in 1..=4u64 {
            jobs.insert(id, job(id, id != 3)); // job 3 is still running
        }
        // Three *terminal* jobs (1, 2, 4) against a cap of 2 → the
        // oldest terminal job (1) goes. The running job neither counts
        // toward the cap nor gets evicted, even though it is older
        // than 4.
        let evicted = evict_terminal_jobs(&mut jobs, 2);
        assert_eq!(evicted.len(), 1);
        assert!(jobs.contains_key(&3), "running jobs are never evicted");
        assert!(jobs.contains_key(&2) && jobs.contains_key(&4));
        assert!(!jobs.contains_key(&1));
        // Exactly at the cap now: nothing further to do.
        assert!(evict_terminal_jobs(&mut jobs, 2).is_empty());
        // A sea of running jobs cannot push terminal ones out early.
        for id in 10..=30u64 {
            jobs.insert(id, job(id, false));
        }
        assert!(evict_terminal_jobs(&mut jobs, 2).is_empty());
    }
}
