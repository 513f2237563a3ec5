//! Scatter/gather job tracking: one cluster job fanned out as sliced
//! sub-jobs, polled to completion, failed over on member death, and
//! merged back into a single bit-identical ranking.
//!
//! ## Why the result is bit-identical
//!
//! Scatter ships the **whole** ligand source to every member plus a
//! [`LigandSlice`] window; the node seeds each ligand by its *global*
//! stream index (`serve::server::run_job` starts its offset at
//! `slice.skip`), so a sub-job scores its window with exactly the bits
//! a single node would. Gather re-folds the per-window rankings in
//! window order through [`mudock_core::merge_ranked_partials`], whose
//! partition-invariance is proptest-pinned in `mudock-core`. Failover
//! preserves this for free: a re-dispatched part carries the same
//! slice, so whichever member reruns it computes the same bits.
//!
//! ## Failover
//!
//! Any transport error while dispatching or polling a part counts a
//! failure against that member (feeding the membership's dead-node
//! accounting) and immediately re-dispatches the part to another alive
//! member — bounded by `max_attempts` per part, after which the cluster
//! job reports `failed`. A part whose *remote* outcome is `failed` is
//! terminal without retry: node-side failures (invalid grid, unreadable
//! input) are deterministic and would fail anywhere.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mudock_core::merge_ranked_partials;
use mudock_serve::net::client;
use mudock_serve::wire::{JobStatus, Submission};
use mudock_serve::{JobId, JobOutcome, JobState, LigandSlice, RankedLigand};

use crate::membership::{Member, Membership};
use crate::metrics::ClusterMetrics;
use crate::router::{RouteReason, Router};

/// What every gather loop of one coordinator shares.
pub(crate) struct Gather {
    pub membership: Arc<Membership>,
    pub router: Router,
    pub metrics: Arc<ClusterMetrics>,
    pub poll_interval: Duration,
    /// Dispatch attempts per part before the job fails.
    pub max_attempts: u32,
    /// Set at shutdown; gather loops watch it.
    pub stop: Arc<AtomicBool>,
}

/// One sub-job: a slice of the stream plus where it currently runs.
struct Part {
    /// `None` = the whole stream (single-part job, or a pre-sliced
    /// submission passed through).
    slice: Option<LigandSlice>,
    /// Current assignee, while dispatched.
    member: Option<Arc<Member>>,
    /// Member to avoid on the next dispatch (it just failed us).
    exclude: Option<String>,
    remote_id: Option<JobId>,
    attempts: u32,
    /// Last polled status (progress reporting while running).
    last: Option<JobStatus>,
    /// Terminal remote outcome.
    outcome: Option<JobOutcome>,
    /// The part's JSONL results, fetched at completion.
    results: Option<String>,
    /// Permanent failure, after retries were exhausted.
    failed: Option<String>,
}

struct JobInner {
    parts: Vec<Part>,
    state: JobState,
    /// Merged terminal outcome.
    outcome: Option<JobOutcome>,
}

/// One cluster job as the coordinator tracks it.
pub struct ClusterJob {
    pub id: u64,
    pub name: String,
    top_k: usize,
    cancel: AtomicBool,
    inner: Mutex<JobInner>,
}

impl ClusterJob {
    pub(crate) fn new(
        id: u64,
        name: String,
        top_k: usize,
        slices: Vec<Option<LigandSlice>>,
    ) -> ClusterJob {
        let parts = slices
            .into_iter()
            .map(|slice| Part {
                slice,
                member: None,
                exclude: None,
                remote_id: None,
                attempts: 0,
                last: None,
                outcome: None,
                results: None,
                failed: None,
            })
            .collect();
        ClusterJob {
            id,
            name,
            top_k,
            cancel: AtomicBool::new(false),
            inner: Mutex::new(JobInner {
                parts,
                state: JobState::Queued,
                outcome: None,
            }),
        }
    }

    /// Request cancellation; the gather loop propagates it to members.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Whether the gather loop has published the merged outcome.
    pub fn is_terminal(&self) -> bool {
        self.inner.lock().unwrap().state.is_terminal()
    }

    /// Point-in-time aggregated view, in the shape a node reports a job.
    pub fn status(&self) -> JobStatus {
        let inner = self.inner.lock().unwrap();
        let mut ligands = 0;
        let mut chunks = 0;
        for p in &inner.parts {
            let s = p
                .outcome
                .as_ref()
                .map(|o| (o.ligands_done, o.chunks_done))
                .or_else(|| p.last.as_ref().map(|s| (s.ligands_done, s.chunks_done)));
            if let Some((l, c)) = s {
                ligands += l;
                chunks += c;
            }
        }
        JobStatus {
            id: self.id,
            name: self.name.clone(),
            state: inner.state,
            ligands_done: ligands,
            chunks_done: chunks,
            stages: None,
            outcome: inner.outcome.clone(),
        }
    }

    /// The job's JSONL results: completed parts' files concatenated in
    /// window order. While parts are still running, this is the longest
    /// *prefix* of fetched windows — never an out-of-order subset — so
    /// the stream a client tails only ever grows like a single node's
    /// file would.
    pub fn results(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for p in &inner.parts {
            match &p.results {
                Some(r) => out.push_str(r),
                None => break,
            }
        }
        out
    }
}

/// The gather loop: dispatch every part, poll to terminal, fail over on
/// member errors, merge. Runs on its own thread, one per cluster job.
pub(crate) fn run(job: Arc<ClusterJob>, submission: Submission, fingerprint: u64, gather: &Gather) {
    let Gather {
        membership,
        router,
        metrics,
        poll_interval,
        max_attempts,
        stop,
    } = gather;
    let t0 = Instant::now();
    let n_parts = job.inner.lock().unwrap().parts.len();
    // Affinity steers whole jobs only. A scattered job's windows all
    // share one fingerprint, so affinity would pile the fan-out onto
    // whichever member registers the shard first (the probe round races
    // the dispatch loop); windows spread by occupancy instead.
    let route_fp = if n_parts == 1 {
        Some(fingerprint)
    } else {
        None
    };
    // Per-part keep-alive connections, keyed to the current assignee.
    let mut conns: Vec<Option<client::Client>> = (0..n_parts).map(|_| None).collect();

    loop {
        if stop.load(Ordering::SeqCst) {
            return; // coordinator shutting down; abandon tracking
        }
        if job.cancel.load(Ordering::SeqCst) {
            cancel_parts(&job, &mut conns);
            finish(&job, metrics, JobState::Cancelled, None, t0);
            return;
        }

        // Dispatch every part that needs a (re-)home.
        for (i, conn_slot) in conns.iter_mut().enumerate() {
            let todo = {
                let inner = job.inner.lock().unwrap();
                let p = &inner.parts[i];
                if p.outcome.is_some() || p.failed.is_some() || p.remote_id.is_some() {
                    None
                } else {
                    Some((p.slice, p.exclude.clone(), p.attempts))
                }
            };
            let Some((slice, exclude, attempts)) = todo else {
                continue;
            };
            if attempts >= *max_attempts {
                let mut inner = job.inner.lock().unwrap();
                inner.parts[i].failed = Some(format!(
                    "part {i}: no member accepted it after {attempts} attempts"
                ));
                continue;
            }
            // Prefer not to land on the member that just failed this
            // part — unless it is the only one left alive.
            let alive = membership.alive();
            let mut candidates: Vec<Arc<Member>> = alive
                .iter()
                .filter(|m| Some(&m.addr) != exclude.as_ref())
                .cloned()
                .collect();
            if candidates.is_empty() {
                candidates = alive;
            }
            let Some((member, reason)) = router.route(&candidates, route_fp) else {
                // Nobody alive. Count the attempt so a permanently
                // empty cluster terminates instead of spinning.
                let mut inner = job.inner.lock().unwrap();
                inner.parts[i].attempts += 1;
                continue;
            };
            match reason {
                RouteReason::Affinity => metrics.routed_affinity.inc(),
                RouteReason::Occupancy => metrics.routed_occupancy.inc(),
            }
            let mut conn = client::Client::new(&member.addr);
            let submitted = conn.submit_sliced(
                &submission.campaign,
                &submission.receptor,
                &submission.ligands,
                slice,
                submission.priority,
            );
            let mut inner = job.inner.lock().unwrap();
            let p = &mut inner.parts[i];
            p.attempts += 1;
            match submitted {
                Ok(remote_id) => {
                    member.begin_subjob();
                    metrics.subjobs_dispatched.inc();
                    if p.attempts > 1 {
                        metrics.redispatches.inc();
                    }
                    p.member = Some(Arc::clone(&member));
                    p.remote_id = Some(remote_id);
                    p.exclude = None;
                    *conn_slot = Some(conn);
                    if inner.state == JobState::Queued {
                        inner.state = JobState::Running;
                    }
                }
                Err(e) => {
                    p.exclude = Some(member.addr.clone());
                    drop(inner);
                    membership.report_failure(&member, &e);
                }
            }
        }

        // Poll every dispatched, non-terminal part.
        for (i, conn_slot) in conns.iter_mut().enumerate() {
            let target = {
                let inner = job.inner.lock().unwrap();
                let p = &inner.parts[i];
                match (&p.member, p.remote_id, &p.outcome) {
                    (Some(m), Some(id), None) => Some((Arc::clone(m), id)),
                    _ => None,
                }
            };
            let Some((member, remote_id)) = target else {
                continue;
            };
            let conn = conn_slot.get_or_insert_with(|| client::Client::new(&member.addr));
            match conn.poll(remote_id) {
                Ok(status) if status.is_terminal() => {
                    member.end_subjob();
                    match status.state {
                        JobState::Completed => {
                            // Fetch the window's JSONL before marking
                            // done, so `results()` never serves a
                            // completed part without its lines.
                            let results = conn.results(remote_id).unwrap_or_default();
                            let mut inner = job.inner.lock().unwrap();
                            let p = &mut inner.parts[i];
                            p.results = Some(results);
                            p.outcome = status.outcome.clone();
                            p.last = Some(status);
                        }
                        _ => {
                            // Remote failed/cancelled: deterministic —
                            // re-running the same slice would do the
                            // same — so it is a permanent part failure.
                            let mut inner = job.inner.lock().unwrap();
                            let p = &mut inner.parts[i];
                            let msg = status
                                .outcome
                                .as_ref()
                                .and_then(|o| o.error.clone())
                                .unwrap_or_else(|| {
                                    format!("member {} reported {:?}", member.addr, status.state)
                                });
                            p.failed = Some(msg);
                            p.last = Some(status);
                        }
                    }
                }
                Ok(status) => {
                    let mut inner = job.inner.lock().unwrap();
                    inner.parts[i].last = Some(status);
                }
                Err(e) => {
                    // Transport failure: the member (or its network) is
                    // gone. Re-dispatch the slice elsewhere; the same
                    // window recomputes the same bits wherever it runs.
                    member.end_subjob();
                    *conn_slot = None;
                    {
                        let mut inner = job.inner.lock().unwrap();
                        let p = &mut inner.parts[i];
                        p.member = None;
                        p.remote_id = None;
                        p.last = None;
                        p.exclude = Some(member.addr.clone());
                    }
                    membership.report_failure(&member, &e);
                }
            }
        }

        // Aggregate.
        {
            let inner = job.inner.lock().unwrap();
            if inner.parts.iter().any(|p| p.failed.is_some()) {
                let error = inner
                    .parts
                    .iter()
                    .filter_map(|p| p.failed.clone())
                    .next()
                    .unwrap_or_else(|| "sub-job failed".into());
                drop(inner);
                cancel_parts(&job, &mut conns);
                finish(&job, metrics, JobState::Failed, Some(error), t0);
                return;
            }
            if inner.parts.iter().all(|p| p.outcome.is_some()) {
                drop(inner);
                finish(&job, metrics, JobState::Completed, None, t0);
                return;
            }
        }
        std::thread::sleep(*poll_interval);
    }
}

/// Best-effort remote cancellation of every in-flight part.
fn cancel_parts(job: &Arc<ClusterJob>, conns: &mut [Option<client::Client>]) {
    let targets: Vec<(usize, String, JobId)> = {
        let inner = job.inner.lock().unwrap();
        inner
            .parts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match (&p.member, p.remote_id, &p.outcome) {
                (Some(m), Some(id), None) => Some((i, m.addr.clone(), id)),
                _ => None,
            })
            .collect()
    };
    for (i, addr, id) in targets {
        let conn = conns[i].get_or_insert_with(|| client::Client::new(&addr));
        let _ = conn.cancel(id);
    }
}

/// Publish the merged terminal outcome.
fn finish(
    job: &Arc<ClusterJob>,
    metrics: &ClusterMetrics,
    state: JobState,
    error: Option<String>,
    t0: Instant,
) {
    let mut inner = job.inner.lock().unwrap();
    let mut ligands_done = 0;
    let mut chunks_done = 0;
    let mut replayed = 0;
    let mut cache_hit = false;
    let mut stopped_early = false;
    let partials: Vec<Vec<(f32, (usize, String))>> = inner
        .parts
        .iter()
        .map(|p| match &p.outcome {
            Some(o) => {
                ligands_done += o.ligands_done;
                chunks_done += o.chunks_done;
                replayed += o.replayed_chunks;
                cache_hit |= o.grid_cache_hit;
                stopped_early |= o.stopped_early;
                o.top
                    .iter()
                    .map(|r| (r.score, (r.index, r.name.clone())))
                    .collect()
            }
            None => Vec::new(),
        })
        .collect();
    // Parts were planned in window order, so folding them in `parts`
    // order satisfies merge_ranked_partials' stream-order contract.
    let top: Vec<RankedLigand> = merge_ranked_partials(job.top_k, partials)
        .into_iter()
        .map(|(score, (index, name))| RankedLigand { index, name, score })
        .collect();
    inner.state = state;
    inner.outcome = Some(JobOutcome {
        id: job.id,
        name: job.name.clone(),
        state,
        ligands_done,
        chunks_done,
        replayed_chunks: replayed,
        grid_cache_hit: cache_hit,
        stopped_early,
        top,
        elapsed: t0.elapsed(),
        error,
    });
    match state {
        JobState::Completed => {
            metrics.jobs_completed.inc();
            metrics.gather_seconds.record(t0.elapsed());
        }
        JobState::Failed => metrics.jobs_failed.inc(),
        _ => {}
    }
}

/// Split `total` ligands into contiguous windows, one per scatter lane.
///
/// Returns `[None]` (a single whole-stream part) when the library is
/// too small to be worth fanning out, when only one lane exists, or
/// when the stream length is unknown (PDBQT files are not
/// pre-counted). Windows are balanced to within one ligand, in stream
/// order, covering the stream exactly.
pub(crate) fn plan_slices(
    total: Option<usize>,
    lanes: usize,
    scatter_min_ligands: usize,
) -> Vec<Option<LigandSlice>> {
    let Some(n) = total else {
        return vec![None];
    };
    if lanes < 2 || n < scatter_min_ligands.max(2) || n < lanes {
        return vec![None];
    }
    let base = n / lanes;
    let rem = n % lanes;
    let mut out = Vec::with_capacity(lanes);
    let mut skip = 0;
    for i in 0..lanes {
        let take = base + usize::from(i < rem);
        out.push(Some(LigandSlice { skip, take }));
        skip += take;
    }
    debug_assert_eq!(skip, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_the_stream_in_order() {
        let slices = plan_slices(Some(10), 3, 2);
        let got: Vec<LigandSlice> = slices.into_iter().map(|s| s.unwrap()).collect();
        assert_eq!(
            got,
            vec![
                LigandSlice { skip: 0, take: 4 },
                LigandSlice { skip: 4, take: 3 },
                LigandSlice { skip: 7, take: 3 },
            ]
        );
    }

    #[test]
    fn small_unknown_or_single_lane_stays_whole() {
        assert_eq!(plan_slices(None, 4, 2), vec![None]);
        assert_eq!(plan_slices(Some(100), 1, 2), vec![None]);
        assert_eq!(
            plan_slices(Some(3), 2, 8),
            vec![None],
            "below the scatter floor"
        );
        assert_eq!(
            plan_slices(Some(1), 2, 0),
            vec![None],
            "fewer ligands than lanes"
        );
    }

    #[test]
    fn merged_status_sums_part_progress() {
        let job = ClusterJob::new(
            1,
            "j".into(),
            3,
            vec![
                Some(LigandSlice { skip: 0, take: 5 }),
                Some(LigandSlice { skip: 5, take: 5 }),
            ],
        );
        assert_eq!(job.status().state, JobState::Queued);
        assert_eq!(job.status().ligands_done, 0);
        assert_eq!(job.results(), "", "no window fetched yet");
    }
}
