//! Bounded job queue with backpressure — and the one place that decides
//! which queued job runs next.
//!
//! The admission edge of the service: a fixed-capacity queue so a burst
//! of submissions degrades to queueing delay (or an explicit
//! [`SubmitError::Full`]) instead of unbounded memory growth.
//!
//! A node serves many receptors at once, and without arbitration a
//! burst of jobs against one hot target would drain ahead of everyone
//! else and take every executor slot. So every job belongs to a
//! *shard*: its receptor's grid content fingerprint
//! ([`mudock_grids::grid_cache_key`] over receptor and lattice), which
//! two jobs against the same target share whatever their provenance.
//! Each pop picks, under the queue's one lock, the job whose shard has
//! the fewest jobs running, then the highest
//! [`Priority`](crate::job::Priority), then the earliest submission.
//! With one receptor in play that is exactly priority-then-FIFO. With
//! several, every live receptor gets an equal share: a shard at its
//! soft cap of `job_slots / live shards` running jobs always has more
//! running than some under-cap shard, so it waits while that shard has
//! work queued — yet the choice is work-conserving, and an executor
//! never idles while any job is queued.
//!
//! Cancellation is lazy — a cancelled job stays queued and is discarded
//! by the executor when popped, which keeps the hot path free of queue
//! surgery.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use mudock_grids::grid_cache_key;

use crate::job::{JobShared, JobSpec};

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity (only from `try_submit`; `submit` blocks).
    Full,
    /// The service is shutting down and accepts no new work.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "job queue is full"),
            SubmitError::Shutdown => write!(f, "service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A job waiting for an executor.
pub(crate) struct QueuedJob {
    pub spec: JobSpec,
    pub shared: Arc<JobShared>,
    /// Submission order — the FIFO tie-breaker.
    pub seq: u64,
    /// The job's shard: its receptor's grid fingerprint (computed at push).
    pub shard: u64,
}

/// The shard a [`JobSpec`] belongs to. Hashing the receptor is
/// O(atoms), so callers compute it before taking the queue's lock.
fn shard_key(spec: &JobSpec) -> u64 {
    grid_cache_key(&spec.receptor, &spec.campaign.dims_for(&spec.receptor))
}

/// Point-in-time view of one shard (one row of `GET /stats`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardStat {
    /// Grid content fingerprint identifying the receptor + lattice.
    pub key: u64,
    /// Jobs waiting in the queue for this shard right now.
    pub queued: usize,
    /// Jobs executing for this shard right now.
    pub active: usize,
    /// Jobs ever submitted against this shard (monotonic).
    pub submitted: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct ShardState {
    queued: usize,
    active: usize,
    submitted: u64,
    /// Logical time of the last touch — orders drained-shard retention
    /// when the map is over [`MAX_RETAINED_SHARDS`].
    last_seen: u64,
}

/// Cap on *drained* shards kept for `/stats`. Shard keys are
/// client-controlled (any receptor hashes to one), so without a bound
/// a client looping over distinct receptors would grow the map — and
/// every `/stats` body — forever. Live shards (work queued or running)
/// are bounded by queue capacity + executor slots and are never pruned;
/// this cap only limits the history.
const MAX_RETAINED_SHARDS: usize = 512;

struct Inner {
    jobs: Vec<QueuedJob>,
    shards: HashMap<u64, ShardState>,
    /// Logical clock: every push, pop and finish ticks it, so it orders
    /// submissions (`QueuedJob::seq`) and shard recency alike.
    tick: u64,
    closed: bool,
}

impl Inner {
    fn touch(&mut self, key: u64) -> &mut ShardState {
        self.tick += 1;
        let s = self.shards.entry(key).or_default();
        s.last_seen = self.tick;
        s
    }

    /// The job to run next: fewest running in its shard, then highest
    /// priority, then FIFO (linear scan — the queue is bounded and small
    /// by construction). `None` when nothing is queued.
    fn pick(&self) -> Option<usize> {
        let active = |j: &QueuedJob| self.shards.get(&j.shard).map_or(0, |s| s.active);
        (0..self.jobs.len()).min_by_key(|&i| {
            let j = &self.jobs[i];
            (active(j), Reverse(j.spec.priority), j.seq)
        })
    }

    /// Drop the coldest *drained* shards beyond the retention cap.
    /// Called after inserts; live shards always survive.
    fn prune_drained(&mut self) {
        while self.shards.len() > MAX_RETAINED_SHARDS {
            let coldest = self
                .shards
                .iter()
                .filter(|(_, s)| s.active == 0 && s.queued == 0)
                .min_by_key(|(_, s)| s.last_seen)
                .map(|(&k, _)| k);
            match coldest {
                Some(k) => {
                    self.shards.remove(&k);
                }
                // Everything is live — bounded by queue + slots, keep.
                None => break,
            }
        }
    }
}

/// Bounded, fair-share/priority-ordered, thread-safe job queue.
pub(crate) struct JobQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl JobQueue {
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(Inner {
                jobs: Vec::new(),
                shards: HashMap::new(),
                tick: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    /// Enqueue without blocking; refuses when full or closed.
    pub fn try_submit(&self, spec: JobSpec, shared: Arc<JobShared>) -> Result<(), SubmitError> {
        let shard = shard_key(&spec);
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(SubmitError::Shutdown);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        self.push(&mut inner, spec, shared, shard);
        Ok(())
    }

    /// Enqueue, blocking while the queue is full (the backpressure path).
    pub fn submit(&self, spec: JobSpec, shared: Arc<JobShared>) -> Result<(), SubmitError> {
        let shard = shard_key(&spec);
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return Err(SubmitError::Shutdown);
            }
            if inner.jobs.len() < self.capacity {
                self.push(&mut inner, spec, shared, shard);
                return Ok(());
            }
            inner = self.not_full.wait(inner).unwrap();
        }
    }

    fn push(&self, inner: &mut Inner, spec: JobSpec, shared: Arc<JobShared>, shard: u64) {
        shared.trace.stamp_enqueued();
        let s = inner.touch(shard);
        s.queued += 1;
        s.submitted += 1;
        let seq = inner.tick;
        inner.prune_drained();
        inner.jobs.push(QueuedJob {
            spec,
            shared,
            seq,
            shard,
        });
        self.not_empty.notify_one();
    }

    /// Dequeue the next job (module docs: fewest running in its shard,
    /// then priority, then FIFO), blocking while the queue is empty. The
    /// job counts as running in its shard until the executor hands it
    /// back with [`JobQueue::finished`]. Returns `None` once the queue
    /// is closed *and* drained — the executors' termination signal.
    pub fn pop(&self) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(best) = inner.pick() {
                let job = inner.jobs.swap_remove(best);
                let s = inner.touch(job.shard);
                s.queued = s.queued.saturating_sub(1);
                s.active += 1;
                self.not_full.notify_one();
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// An executor is done with a popped job of shard `key` (finished or
    /// discarded): the shard's slot is free again.
    pub fn finished(&self, key: u64) {
        let mut inner = self.inner.lock().unwrap();
        let s = inner.touch(key);
        s.active = s.active.saturating_sub(1);
    }

    /// Per-shard counters, sorted by fingerprint for stable reporting.
    /// Shards persist after draining — up to [`MAX_RETAINED_SHARDS`],
    /// beyond which the coldest drained shards are dropped — so
    /// `/stats` keeps showing what recently ran without growing with
    /// every receptor a long-lived node ever saw.
    pub fn shards(&self) -> Vec<ShardStat> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<ShardStat> = inner
            .shards
            .iter()
            .map(|(&key, s)| ShardStat {
                key,
                queued: s.queued,
                active: s.active,
                submitted: s.submitted,
            })
            .collect();
        out.sort_unstable_by_key(|s| s.key);
        out
    }

    /// Refuse new submissions and wake every blocked submitter/popper.
    /// Already-queued jobs still drain.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;

    fn spec(priority: Priority) -> JobSpec {
        JobSpec {
            priority,
            ..JobSpec::default()
        }
    }

    fn q(capacity: usize) -> JobQueue {
        JobQueue::new(capacity)
    }

    /// Enqueue job `id` straight into shard `key`, as `try_submit` would
    /// after hashing a receptor that fingerprints to `key`.
    fn push(queue: &JobQueue, id: u64, key: u64, priority: Priority) {
        let mut inner = queue.inner.lock().unwrap();
        queue.push(&mut inner, spec(priority), JobShared::new(id), key);
    }

    fn pop_id(queue: &JobQueue) -> u64 {
        queue.pop().unwrap().shared.id
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let queue = q(8);
        for (id, p) in [
            (0, Priority::Normal),
            (1, Priority::Low),
            (2, Priority::High),
            (3, Priority::Normal),
            (4, Priority::High),
        ] {
            queue.try_submit(spec(p), JobShared::new(id)).unwrap();
        }
        let order: Vec<u64> = (0..5).map(|_| pop_id(&queue)).collect();
        assert_eq!(order, vec![2, 4, 0, 3, 1]);
    }

    #[test]
    fn one_receptor_degenerates_to_priority_then_fifo() {
        let queue = q(8);
        for (id, p) in [
            (0, Priority::Normal),
            (1, Priority::Low),
            (2, Priority::High),
            (3, Priority::Normal),
        ] {
            push(&queue, id, 1, p);
        }
        // Nothing is handed back, so the shard's running count grows with
        // every pop — but it is common to every candidate, so the order
        // stays priority-then-FIFO.
        let order: Vec<u64> = (0..4).map(|_| pop_id(&queue)).collect();
        assert_eq!(order, vec![2, 0, 3, 1]);
    }

    #[test]
    fn an_idle_receptor_overtakes_a_hot_backlog() {
        let queue = q(8);
        push(&queue, 0, 1, Priority::Normal);
        assert_eq!(pop_id(&queue), 0, "shard 1 now runs a job");
        // Shard 1's queued job is earlier *and* higher priority, but
        // shard 2 runs nothing: fairness across receptors comes first.
        push(&queue, 1, 1, Priority::High);
        push(&queue, 2, 2, Priority::Normal);
        assert_eq!(pop_id(&queue), 2, "shard 2 is idle");
    }

    #[test]
    fn the_soft_cap_defers_but_never_idles_an_executor() {
        let queue = q(8);
        // A hot receptor alone on a four-slot node: every one of its
        // jobs starts — no executor idles behind a cap.
        for id in 0..3 {
            push(&queue, id, 1, Priority::Normal);
        }
        let started: Vec<u64> = (0..3).map(|_| pop_id(&queue)).collect();
        assert_eq!(started, vec![0, 1, 2]);
        queue.finished(1);

        // A second receptor goes live: shard 1 is at its cap of
        // 4 / 2 = 2 running, so a cold-shard job wins even though the
        // hot job outranks it on priority.
        push(&queue, 10, 1, Priority::High);
        push(&queue, 11, 2, Priority::Low);
        assert_eq!(pop_id(&queue), 11, "the over-cap shard defers");
        assert_eq!(pop_id(&queue), 10, "…but still runs once alone");

        // Two backlogs: the slots split evenly between the receptors.
        let queue = q(8);
        for id in 0..4 {
            push(&queue, id, 1, Priority::High);
            push(&queue, 10 + id, 2, Priority::Low);
        }
        let started: Vec<u64> = (0..4).map(|_| pop_id(&queue)).collect();
        assert_eq!(started, vec![0, 10, 1, 11]);
    }

    #[test]
    fn shards_report_depth_and_occupancy() {
        let queue = q(8);
        push(&queue, 0, 10, Priority::Normal);
        push(&queue, 1, 20, Priority::Normal);
        push(&queue, 2, 20, Priority::Normal);
        assert_eq!(pop_id(&queue), 0);
        let row = |s: &ShardStat| (s.key, s.queued, s.active, s.submitted);
        let snap: Vec<_> = queue.shards().iter().map(row).collect();
        assert_eq!(snap, vec![(10, 0, 1, 1), (20, 2, 0, 2)]);
        queue.finished(10);
        let snap: Vec<_> = queue.shards().iter().map(row).collect();
        assert_eq!(
            snap,
            vec![(10, 0, 0, 1), (20, 2, 0, 2)],
            "drained shards stay visible in stats"
        );
    }

    #[test]
    fn drained_shards_are_pruned_coldest_first_and_live_ones_survive() {
        let queue = q(8);
        // A client looping over distinct receptors: every key drains
        // (enqueue → start → finish) before the next arrives.
        let churn = |keys: std::ops::Range<u64>| {
            for key in keys {
                push(&queue, key, key, Priority::Normal);
                queue.pop().unwrap();
                queue.finished(key);
            }
        };
        churn(1..MAX_RETAINED_SHARDS as u64 + 41);
        let snap = queue.shards();
        assert_eq!(snap.len(), MAX_RETAINED_SHARDS, "history is capped");
        // The coldest entries went first: the earliest keys are gone,
        // the most recent survive.
        assert!(snap.iter().all(|s| s.key > 40));

        // A live (still-running) shard is never pruned, no matter how
        // much colder it is than the churn around it.
        push(&queue, 0, 0xdead_beef, Priority::Normal);
        queue.pop().unwrap();
        churn(0x1_0000..0x1_0000 + MAX_RETAINED_SHARDS as u64 + 10);
        assert!(
            queue
                .shards()
                .iter()
                .any(|s| s.key == 0xdead_beef && s.active == 1),
            "live shards must survive retention pruning"
        );
    }

    #[test]
    fn shard_key_is_the_receptors_grid_fingerprint() {
        let with_receptor = |seed| JobSpec {
            receptor: Arc::new(mudock_molio::synthetic_receptor(seed, 30, 5.0)),
            ..JobSpec::default()
        };
        let (a, b, a2) = (with_receptor(1), with_receptor(2), with_receptor(1));
        assert_eq!(shard_key(&a), shard_key(&a2));
        assert_ne!(shard_key(&a), shard_key(&b));
    }

    #[test]
    fn try_submit_refuses_when_full() {
        let queue = q(2);
        queue
            .try_submit(spec(Priority::Normal), JobShared::new(0))
            .unwrap();
        queue
            .try_submit(spec(Priority::Normal), JobShared::new(1))
            .unwrap();
        assert_eq!(
            queue
                .try_submit(spec(Priority::High), JobShared::new(2))
                .unwrap_err(),
            SubmitError::Full
        );
        queue.pop().unwrap();
        queue
            .try_submit(spec(Priority::High), JobShared::new(2))
            .unwrap();
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn blocking_submit_waits_for_space() {
        let queue = Arc::new(q(1));
        queue
            .try_submit(spec(Priority::Normal), JobShared::new(0))
            .unwrap();
        let q2 = Arc::clone(&queue);
        let submitter = std::thread::spawn(move || {
            q2.submit(spec(Priority::Normal), JobShared::new(1))
                .unwrap();
        });
        // Popping frees the slot the blocked submitter is waiting for.
        assert_eq!(pop_id(&queue), 0);
        submitter.join().unwrap();
        assert_eq!(pop_id(&queue), 1);
    }

    #[test]
    fn close_drains_then_terminates() {
        let queue = q(4);
        queue
            .try_submit(spec(Priority::Normal), JobShared::new(0))
            .unwrap();
        queue.close();
        assert_eq!(
            queue
                .try_submit(spec(Priority::Normal), JobShared::new(1))
                .unwrap_err(),
            SubmitError::Shutdown
        );
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let queue = Arc::new(q(1));
        let q2 = Arc::clone(&queue);
        let popper = std::thread::spawn(move || q2.pop().is_none());
        std::thread::sleep(std::time::Duration::from_millis(20));
        queue.close();
        assert!(popper.join().unwrap());
    }
}
