//! Job descriptions, handles, and outcomes — the service's unit of work.
//!
//! A [`JobSpec`] is a thin adapter binding a typed
//! [`CampaignSpec`] — the *what* and *how* of
//! the run: GA shape, backend/stop/chunk policies, top-k, lattice — to
//! the service-side *where*: the receptor, a lazy ligand stream, a
//! priority, and the sinks (JSONL path, checkpoint path, progress
//! callback). `JobSpec::from(campaign)` builds one with empty bindings.
//! Submission returns a [`JobHandle`], the client's side of the job:
//! poll progress, cancel, or block in [`JobHandle::wait`] for the final
//! [`JobOutcome`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mudock_core::CampaignSpec;
use mudock_mol::Molecule;
use mudock_obs::{JobTrace, StageTimings};

use crate::ingest::LigandSource;

/// Service-assigned job identifier (monotonic per service).
pub type JobId = u64;

/// Scheduling priority. Among jobs for one receptor, higher priorities
/// dequeue first and, within a priority, jobs run in submission order;
/// across receptors, the one with fewer jobs running goes first
/// ([`crate::queue`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    Low,
    #[default]
    Normal,
    High,
}

/// Lifecycle of a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// An executor is docking its chunks.
    Running,
    /// All chunks finished.
    Completed,
    /// Cancelled before or during execution; partial progress is in the
    /// outcome (and in the checkpoint, if one was configured).
    Cancelled,
    /// Setup failed (grid too large, unreadable input, …); see
    /// [`JobOutcome::error`].
    Failed,
}

impl JobState {
    /// Completed, cancelled or failed: the state will not change again.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// A contiguous window of the ligand stream, identified by its position
/// in the *full* input. A coordinator fanning one campaign out across
/// nodes ships the whole [`LigandSource`] plus one slice per sub-job:
/// the executor skips `skip` ligands, docks `take`, and — crucially —
/// seeds every ligand by its **global** index, so a sliced run scores
/// bit-identically to the same window of an unsliced run and partial
/// rankings merge back losslessly (see `core::topk`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LigandSlice {
    /// Ligands to skip before the first docked one.
    pub skip: usize,
    /// Number of ligands to dock from there.
    pub take: usize,
}

impl LigandSlice {
    pub fn new(skip: usize, take: usize) -> LigandSlice {
        LigandSlice { skip, take }
    }
}

/// One entry of a job's final ranking.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedLigand {
    /// Global index of the ligand in the job's input stream.
    pub index: usize,
    /// Ligand name from the input molecule.
    pub name: String,
    /// Best docking score (kcal/mol).
    pub score: f32,
}

/// Final report of one job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    pub id: JobId,
    pub name: String,
    pub state: JobState,
    /// Ligands accounted for: docked live plus replayed from checkpoint.
    pub ligands_done: usize,
    /// Chunks completed (live + replayed).
    pub chunks_done: usize,
    /// Of those, chunks restored from the checkpoint instead of docked.
    pub replayed_chunks: usize,
    /// Whether the receptor grid came out of the cache (shared builds in
    /// progress count as hits — the build ran once either way).
    pub grid_cache_hit: bool,
    /// The job's [`StopPolicy`](mudock_core::StopPolicy) ended it before
    /// the input was exhausted (state is still [`JobState::Completed`]:
    /// stopping early is the policy *succeeding*, not a cancellation).
    pub stopped_early: bool,
    /// The `top_k` best ligands, best first.
    pub top: Vec<RankedLigand>,
    /// Wall-clock time from execution start (queueing excluded).
    pub elapsed: Duration,
    /// Failure description when `state` is [`JobState::Failed`].
    pub error: Option<String>,
}

/// Snapshot handed to a [`JobSpec::progress`] callback after each chunk
/// completes (flushed to sinks, recorded in the checkpoint). `cancel()`
/// lets the callback stop the job — e.g. an early-termination rule once
/// the ranking stabilizes.
pub struct ChunkProgress<'a> {
    pub job: JobId,
    /// Index of the chunk that just finished.
    pub chunk: usize,
    /// Chunks completed so far (live + replayed).
    pub chunks_done: usize,
    /// Ligands completed so far (live + replayed).
    pub ligands_done: usize,
    /// Whether this chunk was replayed from the checkpoint.
    pub replayed: bool,
    pub(crate) shared: &'a JobShared,
}

impl ChunkProgress<'_> {
    /// Request cancellation; the executor stops before the next chunk.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::SeqCst);
    }
}

/// Per-chunk progress callback. Runs on the executor thread — keep it
/// short, it is on the job's critical path.
pub type ProgressFn = dyn Fn(&ChunkProgress<'_>) + Send + Sync;

/// One screening job: a typed campaign plus its service-side bindings.
#[derive(Clone)]
pub struct JobSpec {
    /// The run description every entry point shares: GA shape, seed,
    /// backend/stop/chunk policies, top-k, lattice, name. Built through
    /// [`mudock_core::Campaign::builder`], which validates it.
    pub campaign: CampaignSpec,
    /// The target. `Arc` so concurrent jobs share one allocation.
    pub receptor: Arc<Molecule>,
    /// Lazy ligand stream; never materialized whole.
    pub ligands: LigandSource,
    /// Dock only this window of the stream (cluster sub-jobs). `None`
    /// means the whole stream. Seeds and ranked indices stay global —
    /// relative to the unsliced stream — either way.
    pub slice: Option<LigandSlice>,
    pub priority: Priority,
    /// Stream per-ligand results to this JSONL file as chunks complete.
    pub jsonl: Option<PathBuf>,
    /// Record completed chunks here; a resubmitted job with the same
    /// inputs resumes from the last completed chunk.
    pub checkpoint: Option<PathBuf>,
    /// Called after every completed chunk.
    pub progress: Option<Arc<ProgressFn>>,
}

impl JobSpec {
    /// The campaign's human-readable name (reports, JSONL lines).
    pub fn name(&self) -> &str {
        &self.campaign.name
    }
}

/// A campaign with no bindings yet: attach `receptor`, `ligands`, and
/// sinks before submitting.
impl From<CampaignSpec> for JobSpec {
    fn from(campaign: CampaignSpec) -> JobSpec {
        JobSpec {
            campaign,
            receptor: Arc::new(Molecule::new("")),
            ligands: LigandSource::synth(0, 0),
            slice: None,
            priority: Priority::Normal,
            jsonl: None,
            checkpoint: None,
            progress: None,
        }
    }
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec::from(CampaignSpec::default())
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.campaign.name)
            .field("receptor_atoms", &self.receptor.atoms.len())
            .field("top_k", &self.campaign.top_k)
            .field("backend", &self.campaign.backend)
            .field("stop", &self.campaign.stop)
            .field("chunk", &self.campaign.chunk)
            .field("priority", &self.priority)
            .finish_non_exhaustive()
    }
}

/// State shared between a [`JobHandle`] and the executor.
pub(crate) struct JobShared {
    pub id: JobId,
    pub cancel: AtomicBool,
    pub ligands_done: AtomicUsize,
    pub chunks_done: AtomicUsize,
    /// Per-stage wall-clock stamps (enqueue → dequeue → grid → dock →
    /// sink → terminal), readable at any time through
    /// [`JobHandle::stage_timings`].
    pub trace: JobTrace,
    state: Mutex<(JobState, Option<JobOutcome>)>,
    done: Condvar,
}

impl JobShared {
    pub fn new(id: JobId) -> Arc<JobShared> {
        Arc::new(JobShared {
            id,
            cancel: AtomicBool::new(false),
            ligands_done: AtomicUsize::new(0),
            chunks_done: AtomicUsize::new(0),
            trace: JobTrace::new(),
            state: Mutex::new((JobState::Queued, None)),
            done: Condvar::new(),
        })
    }

    pub fn set_running(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 = JobState::Running;
    }

    pub fn state(&self) -> JobState {
        self.state.lock().unwrap().0
    }

    /// Publish the final outcome and wake every waiter.
    pub fn finish(&self, outcome: JobOutcome) {
        let mut s = self.state.lock().unwrap();
        s.0 = outcome.state;
        s.1 = Some(outcome);
        self.done.notify_all();
    }

    pub fn wait(&self) -> JobOutcome {
        let mut s = self.state.lock().unwrap();
        while s.1.is_none() {
            s = self.done.wait(s).unwrap();
        }
        s.1.clone().expect("guarded by the wait loop")
    }

    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.state.lock().unwrap().1.clone()
    }

    pub fn state_and_outcome(&self) -> (JobState, Option<JobOutcome>) {
        self.state.lock().unwrap().clone()
    }
}

/// Client-side handle to a submitted job.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id())
            .field("state", &self.state())
            .finish()
    }
}

impl JobHandle {
    pub fn id(&self) -> JobId {
        self.shared.id
    }

    pub fn state(&self) -> JobState {
        self.shared.state()
    }

    /// Ligands completed so far (live + replayed).
    pub fn ligands_done(&self) -> usize {
        self.shared.ligands_done.load(Ordering::SeqCst)
    }

    /// Chunks completed so far (live + replayed).
    pub fn chunks_done(&self) -> usize {
        self.shared.chunks_done.load(Ordering::SeqCst)
    }

    /// Point-in-time per-stage wall-clock breakdown. Stages that have
    /// not happened yet read as `None`; safe to poll while running.
    pub fn stage_timings(&self) -> StageTimings {
        self.shared.trace.snapshot()
    }

    /// Request cancellation. Queued jobs never start; running jobs stop
    /// before their next chunk (the current chunk finishes and is
    /// checkpointed, so no completed work is lost).
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::SeqCst);
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(&self) -> JobOutcome {
        self.shared.wait()
    }

    /// The outcome, if the job already reached a terminal state.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.shared.try_outcome()
    }

    /// The state and the outcome as of one instant. Reading them
    /// through [`JobHandle::state`] and [`JobHandle::try_outcome`]
    /// takes the lock twice, and a job finishing in between shows a
    /// terminal state with no outcome; here a terminal state always
    /// comes with its outcome.
    pub fn state_and_outcome(&self) -> (JobState, Option<JobOutcome>) {
        self.shared.state_and_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn handle_wait_sees_published_outcome() {
        let shared = JobShared::new(7);
        let handle = JobHandle {
            shared: Arc::clone(&shared),
        };
        assert_eq!(handle.state(), JobState::Queued);
        assert!(handle.try_outcome().is_none());

        let publisher = std::thread::spawn(move || {
            shared.set_running();
            shared.finish(JobOutcome {
                id: 7,
                name: "t".into(),
                state: JobState::Completed,
                ligands_done: 3,
                chunks_done: 1,
                replayed_chunks: 0,
                grid_cache_hit: false,
                stopped_early: false,
                top: Vec::new(),
                elapsed: Duration::from_millis(1),
                error: None,
            });
        });
        let outcome = handle.wait();
        publisher.join().unwrap();
        assert_eq!(outcome.state, JobState::Completed);
        assert_eq!(outcome.ligands_done, 3);
        assert_eq!(handle.state(), JobState::Completed);
        assert!(handle.try_outcome().is_some());
    }

    #[test]
    fn cancel_sets_the_shared_flag() {
        let shared = JobShared::new(1);
        let handle = JobHandle {
            shared: Arc::clone(&shared),
        };
        assert!(!shared.cancel.load(Ordering::SeqCst));
        handle.cancel();
        assert!(shared.cancel.load(Ordering::SeqCst));
    }
}
