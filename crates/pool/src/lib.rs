//! # mudock-pool — self-scheduling parallelism for ligand batches
//!
//! The paper parallelizes muDock across *inputs* ("we can compute more
//! inputs in parallel rather than parallelize the computation of a single
//! input", Section IV) with pthreads and a trivial work-stealing scheme.
//! This crate is that rung, in its simplest form: every task is one ligand
//! (or one range of a grid build's lattice, `grids::build`), and every
//! worker — the calling thread included — claims the next unclaimed index
//! from one shared atomic cursor until the batch is drained.
//! A worker that finishes a cheap ligand early simply claims again, which is
//! all the balancing tasks of 0.8–18 ms need; results are placed by index.
//!
//! Thread affinity (the paper pins threads to cores to avoid NUMA effects)
//! is intentionally not reproduced: it needs privileged syscalls that add
//! nothing on the 2-core hosts this reproduction targets.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Scheduling statistics from one parallel run (observability for tests,
/// `/metrics` and the bench harness).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed in total.
    pub executed: usize,
    /// Workers that ran the batch, the calling thread included: the
    /// requested count, capped at the number of tasks, and at least 1.
    pub threads: usize,
    /// Wall-clock of the parallel region (spawn to join).
    pub elapsed: Duration,
    /// Tasks each worker executed (`per_worker.len() == threads`; the
    /// calling thread is entry 0).
    pub per_worker: Vec<usize>,
}

/// Number of worker threads to use by default: the `MUDOCK_THREADS`
/// environment variable if set (for reproducible CI and benchmark runs),
/// capped at the host's available parallelism; otherwise all of it.
pub fn default_threads() -> usize {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match std::env::var("MUDOCK_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n.min(available),
        _ => available,
    }
}

/// Apply `f` to every item of `items` on up to `threads` workers (the
/// calling thread is one of them); returns the results in input order
/// plus scheduling stats.
///
/// `f` receives `(index, &item)`. Tasks are independent (the
/// embarrassingly-parallel docking workload), so no ordering between them
/// is guaranteed — only the result placement is. If a task panics, the
/// other workers drain the batch and join before that task's panic
/// payload is re-raised on the calling thread.
pub fn parallel_map_stats<T, R, F>(items: &[T], threads: usize, f: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n).max(1);
    let t0 = Instant::now();

    // Relaxed: the cursor publishes no data. `items` and `f` are shared
    // borrows that predate the spawn, and each worker's results reach the
    // caller through `join`, which synchronizes.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i, &items[i])));
        }
    };

    let per_thread: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        // A task's panic — raised by `work()` here or re-raised from a
        // `join` — leaves through `scope`, which first waits for every
        // worker still running.
        std::iter::once(work())
            .chain(spawned.into_iter().map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            }))
            .collect()
    });

    let per_worker = per_thread.iter().map(Vec::len).collect();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in per_thread.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "task {i} executed twice");
        slots[i] = Some(r);
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every index below the cursor's end was claimed once"))
        .collect();
    let stats = PoolStats {
        executed: n,
        threads,
        elapsed: t0.elapsed(),
        per_worker,
    };
    (results, stats)
}

/// [`parallel_map_stats`] without the statistics.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_stats(items, threads, f).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let (r, stats) = parallel_map_stats(&[] as &[u32], 4, |_, x| *x);
        assert!(r.is_empty());
        assert_eq!(stats.executed, 0);
    }

    #[test]
    fn preserves_order_single_thread() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 1, |_, x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn preserves_order_multi_thread() {
        let items: Vec<u64> = (0..1000).collect();
        let (out, stats) = parallel_map_stats(&items, 4, |i, x| {
            assert_eq!(i as u64, *x);
            x * x
        });
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
        assert_eq!(stats.executed, 1000);
        assert_eq!(stats.threads, 4);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Skewed task costs: every task must still execute exactly once and
        // land in its own slot.
        let items: Vec<u32> = (0..200).collect();
        let (out, stats) = parallel_map_stats(&items, 3, |_, &x| {
            let mut acc = 0u64;
            let reps = if x % 10 == 0 { 200_000 } else { 100 };
            for i in 0..reps {
                acc = acc.wrapping_add(i).rotate_left(1);
            }
            (acc, x)
        });
        assert_eq!(stats.executed, 200);
        assert!(out.iter().enumerate().all(|(i, (_, x))| *x == i as u32));
    }

    #[test]
    fn more_threads_than_tasks() {
        let items = vec![1u32, 2, 3];
        let out = parallel_map(&items, 16, |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    /// Serializes every test that touches `MUDOCK_THREADS`: the test
    /// harness runs tests on multiple threads, and concurrent
    /// setenv/getenv is a data race.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn default_threads_positive() {
        let _env = ENV_LOCK.lock().unwrap();
        assert!(default_threads() >= 1);
    }

    #[test]
    fn default_threads_honors_env_override() {
        // Owns the process-wide env while it runs; restore afterwards.
        let _env = ENV_LOCK.lock().unwrap();
        let saved = std::env::var("MUDOCK_THREADS").ok();
        std::env::set_var("MUDOCK_THREADS", "1");
        assert_eq!(default_threads(), 1);
        std::env::set_var("MUDOCK_THREADS", "1000000");
        let capped = default_threads();
        assert!(
            capped
                <= std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
        );
        std::env::set_var("MUDOCK_THREADS", "not-a-number");
        assert!(default_threads() >= 1);
        std::env::set_var("MUDOCK_THREADS", "0");
        assert!(default_threads() >= 1);
        match saved {
            Some(v) => std::env::set_var("MUDOCK_THREADS", v),
            None => std::env::remove_var("MUDOCK_THREADS"),
        }
    }

    #[test]
    fn ordering_preserved_under_skew() {
        // One pathologically slow task at index 0 pins a worker; the
        // others claim the remaining fast tasks. Results must still land
        // in input order, and the per-worker breakdown must account for
        // every task exactly once.
        let items: Vec<u32> = (0..500).collect();
        let (out, stats) = parallel_map_stats(&items, 4, |i, &x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            (i, x.wrapping_mul(3))
        });
        for (i, &(idx, v)) in out.iter().enumerate() {
            assert_eq!(idx, i, "slot {i} holds task {idx}");
            assert_eq!(v, (i as u32).wrapping_mul(3));
        }
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.per_worker.len(), 4);
        assert_eq!(stats.per_worker.iter().sum::<usize>(), 500);
        assert_eq!(stats.executed, 500);
        // The slow worker cannot have run the whole batch.
        let max = stats.per_worker.iter().max().unwrap();
        assert!(*max < 500, "one worker executed everything: no parallelism");
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let (out, stats) = parallel_map_stats(&runs, 8, |i, slot| {
            slot.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.threads, 8);
        assert_eq!(stats.per_worker.len(), 8);
        assert_eq!(stats.per_worker.iter().sum::<usize>(), 64);
    }

    #[test]
    fn threads_reports_the_workers_actually_used() {
        let (_, few) = parallel_map_stats(&[1u8, 2, 3], 16, |_, &x| x);
        assert_eq!(few.threads, 3);
        assert_eq!(few.per_worker.iter().sum::<usize>(), 3);
        assert_eq!(few.per_worker.len(), 3);

        // An empty batch is the calling thread finding nothing to claim.
        let (_, empty) = parallel_map_stats(&[] as &[u8], 3, |_, &x| x);
        assert_eq!((empty.threads, empty.executed), (1, 0));
        assert_eq!(empty.per_worker, vec![0]);
    }

    /// Payload of the one task that panics in [`a_task_panic_reaches_the_caller`].
    #[derive(Debug, PartialEq)]
    struct Cursed(usize);

    /// A task panics on the calling thread (`on_caller`) or on a spawned
    /// worker while all four workers are inside a task (the first four
    /// tasks rendezvous at a barrier, so each is on its own worker). The
    /// caller must get that task's payload, and only after the other
    /// three workers have drained the batch.
    fn panic_on(on_caller: bool) {
        const N: usize = 40;
        let finished = std::sync::Arc::new(AtomicUsize::new(0));
        let run = {
            let finished = finished.clone();
            std::thread::spawn(move || {
                let caller = std::thread::current().id();
                let rendezvous = std::sync::Barrier::new(4);
                let fired = std::sync::atomic::AtomicBool::new(false);
                let items: Vec<usize> = (0..N).collect();
                parallel_map(&items, 4, |i, _| {
                    if i < 4 {
                        rendezvous.wait();
                        let here = std::thread::current().id() == caller;
                        if here == on_caller && !fired.swap(true, Ordering::SeqCst) {
                            std::panic::panic_any(Cursed(i));
                        }
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            })
        };
        // A deadline instead of a bare join: a pool that hangs after a
        // panic must fail this test, not the CI job's timeout.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !run.is_finished() {
            assert!(Instant::now() < deadline, "pool hung after a task panicked");
            std::thread::sleep(Duration::from_millis(2));
        }
        let payload = run
            .join()
            .expect_err("the task's panic must reach the caller");
        let cursed = payload
            .downcast_ref::<Cursed>()
            .expect("the task's own payload");
        assert!(cursed.0 < 4);
        assert_eq!(finished.load(Ordering::SeqCst), N - 1);
    }

    #[test]
    fn a_task_panic_reaches_the_caller() {
        panic_on(true);
        panic_on(false);
    }

    #[test]
    fn results_not_copied_types() {
        // Works with non-Copy results (e.g. per-ligand docking reports).
        let items = vec!["a", "bb", "ccc"];
        let out = parallel_map(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:bb", "2:ccc"]);
    }
}
