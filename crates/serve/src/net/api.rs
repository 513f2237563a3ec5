//! The job API, once: the route table, the submission checks, the job
//! table with its retention, and every status code and content type a
//! client sees. A tier — the screening node ([`NetServer`](super::NetServer))
//! or the cluster coordinator — mounts it with a [`JobTier`] through
//! [`FrontendBuilder::start`](super::FrontendBuilder::start) and supplies
//! only what differs between them: `"role"` in `/healthz`, the `/stats`
//! body, how an accepted [`Submission`] is started, and per tracked job
//! its status, terminal test, results body, cancel and eviction hook.
//!
//! A tier cannot override the rest, because it never sees the request:
//! the routes and their `404`/`405` arms, id parsing (unknown and
//! non-numeric ids are both `404`), a submission's `400`/`403`/`422`
//! refusals, the `201` body, `DELETE` → `202`, results as
//! `application/x-ndjson`, status bodies through
//! [`wire::status_to_json`], `/metrics` from the frontend's registry,
//! [`NetConfig::max_retained_jobs`](super::NetConfig::max_retained_jobs)
//! as a cap over *terminal* jobs only, and the long-poll
//! `GET /jobs/{id}?wait_ms=N`: a job that is not terminal parks the
//! request on the event loop until the tier wakes it
//! ([`JobWaker`](super::JobWaker)) or `N` ms pass, then answers the
//! body a plain `GET` would.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mudock_core::autovec;
use mudock_grids::SimdLevel;
use mudock_mol::Molecule;
use mudock_obs::Registry;

use super::frontend::{HttpRoutes, Parked, Routed};
use super::http::{Body, Response};
use super::MAX_WAIT_MS;
use crate::job::{JobId, JobState};
use crate::wire::{self, JobStatus, Json, Submission, WireError};

/// What a tier plugs into the job API. Every method runs on an
/// event-loop thread and must not block on slow work.
///
/// A tier calls [`JobWaker::wake`](super::JobWaker::wake) (from
/// [`FrontendBuilder::waker`](super::FrontendBuilder::waker)) each time
/// one of its jobs turns terminal, after [`JobTier::is_terminal`] says
/// so; a long-poll parked on the job is otherwise answered only at its
/// deadline.
pub trait JobTier: Send + Sync + 'static {
    /// One tracked job, shared between the job table and whatever runs it.
    type Job: Send + Sync + 'static;

    /// `"role"` in `/healthz`; a plain node has none.
    const ROLE: Option<&'static str> = None;

    /// The `/stats` body.
    fn stats(&self) -> Json;

    /// Start a submission that passed every check (`receptor` is its
    /// loaded receptor) and give it an id. `Err` is the text of a `503`:
    /// there is no room for the job right now and the client should retry.
    fn start(
        &self,
        sub: Submission,
        receptor: Arc<Molecule>,
    ) -> Result<(JobId, Arc<Self::Job>), String>;

    /// The job as `GET`/`DELETE /jobs/{id}` report it. State and outcome
    /// must come from one instant, so a poll racing completion never
    /// shows a terminal state without its outcome.
    fn status(&self, job: &Self::Job) -> JobStatus;

    /// Whether the job may be evicted. Asked of every tracked job on
    /// each submission, so it must be cheap.
    fn is_terminal(&self, job: &Self::Job) -> bool;

    /// The job's JSONL lines so far (`Err` is a `500`).
    fn results(&self, job: &Self::Job) -> std::io::Result<Body>;

    /// Request cancellation.
    fn cancel(&self, job: &Self::Job);

    /// The job left the table; release what it holds outside memory.
    fn evicted(&self, _job: &Self::Job) {}
}

/// The one [`HttpRoutes`] implementation: the job API over a tier.
pub(super) struct JobRoutes<T: JobTier> {
    /// Shared with the requests parked on its jobs.
    pub(super) tier: Arc<T>,
    pub(super) jobs: Mutex<HashMap<JobId, Arc<T::Job>>>,
    /// What `/metrics` renders: the registry the frontend's own
    /// instruments live in, so one scrape shows both.
    pub(super) registry: Registry,
    /// Boot-random identity served in `/healthz`.
    pub(super) node_id: u64,
    pub(super) allow_path_sources: bool,
    pub(super) max_retained_jobs: usize,
}

impl<T: JobTier> HttpRoutes for JobRoutes<T> {
    fn wants_body(&self, method: &str, path: &str) -> bool {
        let path = path.split('?').next().unwrap_or("");
        method == "POST" && path.split('/').filter(|s| !s.is_empty()).eq(["jobs"])
    }

    fn route(&self, method: &str, raw_path: &str, body: Option<Result<Json, WireError>>) -> Routed {
        let (path, query) = raw_path.split_once('?').unwrap_or((raw_path, ""));
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        if let ("GET", ["jobs", id]) = (method, segments.as_slice()) {
            return self.poll(id, query);
        }
        self.answer(method, path, &segments, body).into()
    }
}

impl<T: JobTier> JobRoutes<T> {
    /// Every route but the status poll, which may park.
    fn answer(
        &self,
        method: &str,
        path: &str,
        segments: &[&str],
        body: Option<Result<Json, WireError>>,
    ) -> Response {
        match (method, segments) {
            ("GET", ["healthz"]) => {
                // A plain 200 for clients that only check the status;
                // the body carries the boot-random node id (a restart
                // behind the same address changes it), the version, and
                // which kernels this host's CPU selects — members of one
                // fleet that differ here do not score bit-identically.
                let mut members = vec![("ok".into(), Json::Bool(true))];
                if let Some(role) = T::ROLE {
                    members.push(("role".into(), Json::str(role)));
                }
                members.push(("node".into(), Json::str(format!("{:016x}", self.node_id))));
                members.push(("version".into(), Json::str(env!("CARGO_PKG_VERSION"))));
                let frame = mudock_simd::frame();
                let simd = [
                    ("explicit", SimdLevel::detect().name()),
                    ("portable", autovec::frame_name(frame)),
                    ("portable_arithmetic", autovec::arithmetic_at(frame)),
                ];
                let simd = simd.map(|(k, v)| (k.to_string(), Json::str(v)));
                members.push(("simd".into(), Json::Obj(simd.into())));
                Response::json(200, &Json::Obj(members))
            }
            ("GET", ["stats"]) => Response::json(200, &self.tier.stats()),
            ("GET", ["metrics"]) => Response::text(
                200,
                "text/plain; version=0.0.4",
                self.registry.render_prometheus(),
            ),
            ("POST", ["jobs"]) => self.submit(body),
            ("GET", ["jobs", id, "results"]) => {
                self.with_job(id, |job| match self.tier.results(job) {
                    Ok(body) => Response {
                        status: 200,
                        content_type: "application/x-ndjson",
                        body,
                    },
                    Err(e) => Response::error(500, format!("results file: {e}")),
                })
            }
            ("DELETE", ["jobs", id]) => self.with_job(id, |job| {
                self.tier.cancel(job);
                status_response(&*self.tier, job, 202)
            }),
            (_, ["jobs", ..]) | (_, ["healthz"]) | (_, ["stats"]) | (_, ["metrics"]) => {
                Response::error(405, format!("method {method} not allowed on {path}"))
            }
            _ => Response::error(404, format!("no route for {path}")),
        }
    }

    /// `GET /jobs/{id}[?wait_ms=N]`: the status now, or — when `N` > 0
    /// and the job is not terminal — parked until it is or `N` ms pass.
    /// A bad `wait_ms` is refused before the id is looked up.
    fn poll(&self, id: &str, query: &str) -> Routed {
        let wait = match wait_ms(query) {
            Ok(wait) => wait,
            Err(e) => return Response::error(400, e).into(),
        };
        let job = match self.lookup(id) {
            Ok(job) => job,
            Err(not_found) => return not_found.into(),
        };
        if wait.is_zero() || self.tier.is_terminal(&job) {
            return status_response(&*self.tier, &job, 200).into();
        }
        let poll = ParkedStatus {
            tier: Arc::clone(&self.tier),
            job,
        };
        Routed::Park(Box::new(poll), wait)
    }

    fn submit(&self, body: Option<Result<Json, WireError>>) -> Response {
        let parsed = match body {
            Some(Ok(v)) => v,
            Some(Err(e)) => return Response::wire_error(&e),
            None => return Response::error(400, "POST /jobs requires a JSON body"),
        };
        let sub = match wire::submission_from_json(&parsed) {
            Ok(s) => s,
            Err(e) => return Response::wire_error(&e),
        };
        // Path sources make a server process read the named file; on an
        // unauthenticated socket that is a filesystem probe. Refuse before
        // any I/O happens unless the operator opted in.
        if !self.allow_path_sources && sub.uses_path_sources() {
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
        let (id, job) = match self.tier.start(sub, receptor) {
            Ok(started) => started,
            Err(busy) => return Response::error(503, busy),
        };
        let evicted = {
            let mut jobs = self.jobs.lock().unwrap();
            jobs.insert(id, job);
            evict_terminal_jobs(&mut jobs, self.max_retained_jobs, |j| {
                self.tier.is_terminal(j)
            })
        };
        // Outside the lock: the hook may touch the filesystem.
        for job in evicted {
            self.tier.evicted(&job);
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

    /// Look a job up and run `f` on it, or 404.
    fn with_job(&self, id: &str, f: impl FnOnce(&T::Job) -> Response) -> Response {
        match self.lookup(id) {
            Ok(job) => f(&job),
            Err(not_found) => not_found,
        }
    }

    /// The job, or the `404` for it. The table lock is held only for
    /// the lookup — never across what the caller does next (which may
    /// open a large results file).
    fn lookup(&self, id: &str) -> Result<Arc<T::Job>, Response> {
        let Ok(id) = id.parse::<JobId>() else {
            return Err(Response::error(
                404,
                format!("job id '{id}' is not a number"),
            ));
        };
        let job = self.jobs.lock().unwrap().get(&id).cloned();
        job.ok_or_else(|| Response::error(404, format!("no job {id}")))
    }
}

fn status_response<T: JobTier>(tier: &T, job: &T::Job, code: u16) -> Response {
    Response::json(code, &wire::status_to_json(&tier.status(job)))
}

/// The `wait_ms` of a status query (the first, if repeated; other
/// parameters are ignored): absent is zero, and anything but a whole
/// number of milliseconds up to [`MAX_WAIT_MS`] is the text of a `400`.
fn wait_ms(query: &str) -> Result<Duration, String> {
    let Some(value) = query
        .split('&')
        .find_map(|pair| pair.strip_prefix("wait_ms="))
    else {
        return Ok(Duration::ZERO);
    };
    let ms = Some(value)
        .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| format!("wait_ms must be a whole number of milliseconds, not '{value}'"))?;
    if ms > MAX_WAIT_MS {
        return Err(format!("wait_ms {ms} exceeds the {MAX_WAIT_MS} ms cap"));
    }
    Ok(Duration::from_millis(ms))
}

/// A status poll parked on a job that was not terminal yet. It holds
/// the job and the tier (two pointers), nothing else.
struct ParkedStatus<T: JobTier> {
    tier: Arc<T>,
    job: Arc<T::Job>,
}

impl<T: JobTier> Parked for ParkedStatus<T> {
    fn answer(&self, expired: bool) -> Option<Response> {
        (expired || self.tier.is_terminal(&self.job))
            .then(|| status_response(&*self.tier, &self.job, 200))
    }
}

/// Drop the oldest *terminal* jobs beyond `max_retained` so a
/// long-running server does not grow per submission forever; returns
/// them for the tier's eviction hook, to run outside the lock. Running
/// and queued jobs are never touched, so the map can exceed the cap
/// while that many jobs are genuinely in flight.
fn evict_terminal_jobs<J>(
    jobs: &mut HashMap<JobId, J>,
    max_retained: usize,
    is_terminal: impl Fn(&J) -> bool,
) -> Vec<J> {
    let mut terminal: Vec<JobId> = jobs
        .iter()
        .filter(|(_, j)| is_terminal(j))
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
        .filter_map(|id| jobs.remove(&id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_ms_is_a_bounded_whole_number_of_milliseconds() {
        assert_eq!(wait_ms(""), Ok(Duration::ZERO));
        assert_eq!(wait_ms("other=1"), Ok(Duration::ZERO));
        assert_eq!(wait_ms("wait_ms=0"), Ok(Duration::ZERO));
        assert_eq!(wait_ms("x=1&wait_ms=250"), Ok(Duration::from_millis(250)));
        let cap = format!("wait_ms={MAX_WAIT_MS}");
        assert_eq!(wait_ms(&cap), Ok(Duration::from_millis(MAX_WAIT_MS)));
        for bad in [
            "wait_ms=",
            "wait_ms=-1",
            "wait_ms=+5",
            "wait_ms=1.5",
            "wait_ms=abc",
        ] {
            assert!(wait_ms(bad).is_err(), "{bad}");
        }
        let over = format!("wait_ms={}", MAX_WAIT_MS + 1);
        assert!(wait_ms(&over).unwrap_err().contains("cap"));
        assert!(wait_ms("wait_ms=99999999999999999999999").is_err());
    }

    #[test]
    fn eviction_drops_only_the_oldest_terminal_jobs() {
        // A job here is just its terminal flag.
        let terminal = |j: &bool| *j;
        let mut jobs = HashMap::new();
        for id in 1..=4u64 {
            jobs.insert(id, id != 3); // job 3 is still running
        }
        // Three *terminal* jobs (1, 2, 4) against a cap of 2 → the
        // oldest terminal job (1) goes. The running job neither counts
        // toward the cap nor gets evicted, even though it is older
        // than 4.
        let evicted = evict_terminal_jobs(&mut jobs, 2, terminal);
        assert_eq!(evicted.len(), 1);
        assert!(jobs.contains_key(&3), "running jobs are never evicted");
        assert!(jobs.contains_key(&2) && jobs.contains_key(&4));
        assert!(!jobs.contains_key(&1));
        // Exactly at the cap now: nothing further to do.
        assert!(evict_terminal_jobs(&mut jobs, 2, terminal).is_empty());
        // A sea of running jobs cannot push terminal ones out early.
        for id in 10..=30u64 {
            jobs.insert(id, false);
        }
        assert!(evict_terminal_jobs(&mut jobs, 2, terminal).is_empty());
    }
}
