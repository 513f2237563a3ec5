//! Scatter/gather job tracking: one cluster job fanned out as sliced
//! sub-jobs, each driven to its end by its own thread, failed over on
//! member death, and merged back into a single bit-identical ranking.
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
//! ## One driver per part
//!
//! The job's gather thread runs one driver per part and joins them. A
//! driver places and submits its part, then long-polls its sub-job for
//! at most `poll_interval` at a time: it hears the sub-job end at once,
//! and between polls cancels it and returns if the job was cancelled, a
//! sibling part failed or the coordinator is shutting down.
//!
//! A transport error counts a failure against that member (feeding the
//! membership's dead-node accounting) and re-dispatches the part to
//! another alive member, up to `max_attempts` placements per part. A
//! *remote* `failed` or `cancelled` is final: node-side failures
//! (invalid grid, unreadable input) are deterministic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mudock_core::merge_ranked_partials;
use mudock_serve::net::client::{Client, ClientError};
use mudock_serve::wire::{JobStatus, Submission};
use mudock_serve::{JobId, JobOutcome, JobState, JobWaker, LigandSlice, RankedLigand};

use crate::membership::{Member, Membership};
use crate::metrics::ClusterMetrics;
use crate::router::{RouteReason, Router};

/// What every gather thread of one coordinator shares.
pub(crate) struct Gather {
    pub membership: Arc<Membership>,
    pub router: Router,
    pub metrics: Arc<ClusterMetrics>,
    /// The longest a part waits on its sub-job before it re-checks
    /// cancellation, sibling failure and shutdown.
    pub poll_interval: Duration,
    /// Dispatch attempts per part before the job fails.
    pub max_attempts: u32,
    /// Set at shutdown; drivers watch it.
    pub stop: Arc<AtomicBool>,
    /// The coordinator frontend's: poked as each cluster job finishes,
    /// so polls parked on it are answered.
    pub waker: JobWaker,
    /// Held from routing a part until its member counts the sub-job, so
    /// a fan-out spreads across members instead of racing onto one.
    pub placement: Mutex<()>,
}

impl Gather {
    /// Route a part to the alive members minus `exclude` (the one that
    /// just failed it) unless that leaves none, and count the sub-job
    /// against the chosen member. `None` when no member is alive.
    fn place(&self, exclude: Option<&str>, fingerprint: Option<u64>) -> Option<Arc<Member>> {
        let _serial = self.placement.lock();
        let alive = self.membership.alive();
        let others: Vec<Arc<Member>> = (alive.iter())
            .filter(|m| Some(m.addr.as_str()) != exclude)
            .cloned()
            .collect();
        let candidates = if others.is_empty() { alive } else { others };
        let (member, reason) = self.router.route(&candidates, fingerprint)?;
        match reason {
            RouteReason::Affinity => self.metrics.routed_affinity.inc(),
            RouteReason::Occupancy => self.metrics.routed_occupancy.inc(),
        }
        member.begin_subjob();
        Some(member)
    }
}

/// One sub-job: a slice of the stream and what its driver published.
#[derive(Default)]
struct Part {
    /// `None` = the whole stream (single-part job, or a pre-sliced
    /// submission passed through).
    slice: Option<LigandSlice>,
    /// Last polled status (progress reporting while running).
    last: Option<JobStatus>,
    /// Terminal remote outcome.
    outcome: Option<JobOutcome>,
    /// The part's JSONL results, fetched at completion.
    results: Option<String>,
    /// Permanent failure: a remote failure, or retries exhausted.
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
        let parts = (slices.into_iter())
            .map(|slice| Part {
                slice,
                ..Part::default()
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

    /// The job's state. A driver that panicked holding the lock has
    /// already failed its part, so a poisoned lock is read as is.
    fn lock(&self) -> MutexGuard<'_, JobInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Request cancellation; every driver cancels its sub-job.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Whether the gather thread has published the merged outcome.
    pub fn is_terminal(&self) -> bool {
        self.lock().state.is_terminal()
    }

    /// Point-in-time aggregated view, in the shape a node reports a job.
    pub fn status(&self) -> JobStatus {
        let inner = self.lock();
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
        let inner = self.lock();
        let mut out = String::new();
        for p in &inner.parts {
            match &p.results {
                Some(r) => out.push_str(r),
                None => break,
            }
        }
        out
    }

    /// Fail part `i` for good; its siblings see it and stop.
    fn fail_part(&self, i: usize, error: String) {
        self.lock().parts[i].failed.get_or_insert(error);
    }

    /// Whether a driver should stop: the job was cancelled, a part
    /// failed, or the coordinator is shutting down.
    fn halted(&self, gather: &Gather) -> bool {
        self.cancel.load(Ordering::SeqCst)
            || gather.stop.load(Ordering::SeqCst)
            || self.lock().parts.iter().any(|p| p.failed.is_some())
    }
}

/// Run `job` on its own gather thread. A job whose thread cannot start
/// fails at once rather than staying `queued`.
pub(crate) fn spawn(job: Arc<ClusterJob>, sub: Submission, fingerprint: u64, gather: Arc<Gather>) {
    let (runner, shared) = (Arc::clone(&job), Arc::clone(&gather));
    let spawned = std::thread::Builder::new()
        .name(format!("cluster-job-{}", job.id))
        .spawn(move || run(&runner, &sub, fingerprint, &shared));
    if let Err(e) = spawned {
        let error = format!("no gather thread: {e}");
        finish(&job, &gather, JobState::Failed, Some(error), Instant::now());
    }
}

/// The gather thread: one driver per part, joined, then the merged
/// outcome. A driver that cannot start or that panics fails its part.
fn run(job: &ClusterJob, sub: &Submission, fingerprint: u64, gather: &Gather) {
    let t0 = Instant::now();
    let n_parts = job.lock().parts.len();
    // Affinity steers whole jobs only. A scattered job's windows all
    // share one fingerprint, so affinity would pile the fan-out onto
    // whichever member registers the shard first (the probe round races
    // the placements); windows spread by occupancy instead.
    let route_fp = (n_parts == 1).then_some(fingerprint);
    std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..n_parts)
            .filter_map(|i| {
                let driver = std::thread::Builder::new()
                    .name(format!("cluster-job-{}-part-{i}", job.id))
                    .spawn_scoped(scope, move || drive(job, i, sub, route_fp, gather));
                driver
                    .map_err(|e| job.fail_part(i, format!("part {i}: no driver thread: {e}")))
                    .ok()
                    .map(|d| (i, d))
            })
            .collect();
        for (i, driver) in drivers {
            if driver.join().is_err() {
                job.fail_part(i, format!("part {i}: its driver panicked"));
            }
        }
    });
    if gather.stop.load(Ordering::SeqCst) {
        return; // coordinator shutting down; abandon tracking
    }
    let (state, error) = {
        let inner = job.lock();
        match inner.parts.iter().find_map(|p| p.failed.clone()) {
            Some(error) => (JobState::Failed, Some(error)),
            None if inner.parts.iter().all(|p| p.outcome.is_some()) => (JobState::Completed, None),
            None => (JobState::Cancelled, None),
        }
    };
    finish(job, gather, state, error, t0);
}

/// Drive part `i` to its end: place and submit it, wait on its sub-job,
/// and on a transport error fail over to another member, up to
/// `max_attempts` placements in all.
fn drive(job: &ClusterJob, i: usize, sub: &Submission, route_fp: Option<u64>, gather: &Gather) {
    let slice = job.lock().parts[i].slice;
    let mut exclude: Option<String> = None;
    for attempt in 1..=gather.max_attempts {
        if job.halted(gather) {
            return;
        }
        let Some(member) = gather.place(exclude.as_deref(), route_fp) else {
            // Nobody alive: the attempt counts, so a permanently empty
            // cluster fails the job instead of spinning.
            std::thread::sleep(gather.poll_interval);
            continue;
        };
        let mut conn = Client::new(&member.addr);
        let ended = conn
            .submit_sliced(
                &sub.campaign,
                &sub.receptor,
                &sub.ligands,
                slice,
                sub.priority,
            )
            .and_then(|remote| {
                gather.metrics.subjobs_dispatched.inc();
                if attempt > 1 {
                    gather.metrics.redispatches.inc();
                }
                await_subjob(job, i, &mut conn, remote, &member, gather)
            });
        member.end_subjob();
        let Err(e) = ended else {
            return;
        };
        // The member (or its network) is gone: re-dispatch the slice
        // elsewhere; the same window recomputes the same bits.
        job.lock().parts[i].last = None;
        gather.membership.report_failure(&member, &e);
        exclude = Some(member.addr.clone());
    }
    let tries = gather.max_attempts;
    let error = format!("part {i}: no member accepted it after {tries} attempts");
    job.fail_part(i, error);
}

/// Wait on sub-job `remote` of part `i` until it ends, publishing its
/// progress, then its outcome; or until the job halts, then cancel it.
/// `Err` is a transport error, for the caller to fail over.
fn await_subjob(
    job: &ClusterJob,
    i: usize,
    conn: &mut Client,
    remote: JobId,
    member: &Member,
    gather: &Gather,
) -> Result<(), ClientError> {
    // Only `finish`, after every driver returned, makes it terminal.
    job.lock().state = JobState::Running;
    loop {
        if job.halted(gather) {
            let _ = conn.cancel(remote);
            return Ok(());
        }
        let status = conn.poll_within(remote, gather.poll_interval)?;
        if !status.is_terminal() {
            job.lock().parts[i].last = Some(status);
            continue;
        }
        // Fetch the window's JSONL before publishing the outcome, so
        // `results()` never serves a completed part without its lines.
        let results = match status.state {
            JobState::Completed => Some(conn.results(remote)?),
            _ => None,
        };
        let mut inner = job.lock();
        let part = &mut inner.parts[i];
        if results.is_some() {
            part.results = results;
            part.outcome = status.outcome.clone();
        } else {
            // Remote failed/cancelled: deterministic — re-running the
            // same slice would do the same — so the part fails for good.
            let error = (status.outcome.as_ref()).and_then(|o| o.error.clone());
            let reported = || format!("member {} reported {:?}", member.addr, status.state);
            part.failed = Some(error.unwrap_or_else(reported));
        }
        part.last = Some(status);
        return Ok(());
    }
}

/// Publish the merged terminal outcome, then wake the frontend for the
/// polls parked on it.
fn finish(job: &ClusterJob, gather: &Gather, state: JobState, error: Option<String>, t0: Instant) {
    let metrics = &gather.metrics;
    let mut inner = job.lock();
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
    drop(inner);
    gather.waker.wake();
}

/// Split `total` ligands into contiguous windows, one per scatter lane.
///
/// Returns `[None]` (a single whole-stream part) when the library is
/// too small to be worth fanning out, when only one lane exists, or
/// when the stream length is unknown (a PDBQT file is not read to
/// count it). Windows are balanced to within one ligand, in stream
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
