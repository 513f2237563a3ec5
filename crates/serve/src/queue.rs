//! Bounded priority job queue with backpressure.
//!
//! The admission edge of the service: a fixed-capacity queue so a burst
//! of submissions degrades to queueing delay (or an explicit
//! [`SubmitError::Full`]) instead of unbounded memory growth. Dequeue
//! order is decided by the `ShardRouter` ([`crate::shard`]): the
//! least-served receptor
//! shard first, then [`Priority`](crate::job::Priority), then
//! submission order (FIFO) — with a single receptor in play this is
//! exactly priority-then-FIFO. Cancellation is lazy — a cancelled job
//! stays queued and is discarded by the executor when popped, which
//! keeps the hot path free of queue surgery.

use std::sync::{Arc, Condvar, Mutex};

use crate::job::{JobShared, JobSpec};
use crate::shard::{shard_info, ShardInfo, ShardRouter};

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
    /// Submission sequence number — the FIFO tie-breaker.
    pub seq: u64,
    /// Which receptor shard the job belongs to (computed at push).
    pub shard: ShardInfo,
}

struct Inner {
    jobs: Vec<QueuedJob>,
    next_seq: u64,
    closed: bool,
}

/// Bounded, shard/priority-ordered, thread-safe job queue.
pub(crate) struct JobQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    router: Arc<ShardRouter>,
}

impl JobQueue {
    /// A queue with its own router (pure priority/FIFO until shards
    /// diverge) — the unit-test constructor.
    #[cfg(test)]
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue::with_router(capacity, Arc::new(ShardRouter::new(usize::MAX, 0)))
    }

    /// A queue whose dequeue order is arbitrated by `router`.
    pub fn with_router(capacity: usize, router: Arc<ShardRouter>) -> JobQueue {
        JobQueue {
            inner: Mutex::new(Inner {
                jobs: Vec::new(),
                next_seq: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            router,
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
        // Fingerprint before taking the lock: hashing the receptor is
        // O(atoms) and must not serialize submitters or block pop().
        let shard = shard_info(&spec);
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(SubmitError::Shutdown);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        self.push(&mut inner, spec, shared, shard);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueue, blocking while the queue is full (the backpressure path).
    pub fn submit(&self, spec: JobSpec, shared: Arc<JobShared>) -> Result<(), SubmitError> {
        let shard = shard_info(&spec);
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return Err(SubmitError::Shutdown);
            }
            if inner.jobs.len() < self.capacity {
                self.push(&mut inner, spec, shared, shard);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self.not_full.wait(inner).unwrap();
        }
    }

    fn push(&self, inner: &mut Inner, spec: JobSpec, shared: Arc<JobShared>, shard: ShardInfo) {
        let seq = inner.next_seq;
        inner.next_seq += 1;
        shared.trace.stamp_enqueued();
        self.router.enqueued(shard);
        inner.jobs.push(QueuedJob {
            spec,
            shared,
            seq,
            shard,
        });
    }

    /// Dequeue the best job, blocking while the queue is empty. "Best"
    /// is the [`ShardRouter`]'s call: least-served shard, then
    /// priority, then FIFO (linear scan — the queue is bounded and
    /// small by construction). The router accounts the job as started;
    /// the executor must hand it back via
    /// [`ShardRouter::finished`] when done. Returns `None` once the
    /// queue is closed *and* drained — the executors' termination
    /// signal.
    pub fn pop(&self) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(best) = self.router.select(&inner.jobs) {
                let job = inner.jobs.swap_remove(best);
                self.not_full.notify_one();
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
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
        let order: Vec<u64> = (0..5).map(|_| queue.pop().unwrap().shared.id).collect();
        assert_eq!(order, vec![2, 4, 0, 3, 1]);
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
        assert_eq!(queue.pop().unwrap().shared.id, 0);
        submitter.join().unwrap();
        assert_eq!(queue.pop().unwrap().shared.id, 1);
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
