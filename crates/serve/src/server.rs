//! The service itself: executor threads pulling jobs off the queue.
//!
//! [`ScreenService::start`] spawns `job_slots` executor threads. Each
//! pops the best queued job and drives it chunk by chunk: grids from the
//! [`GridCache`], chunks fanned out over `mudock-pool` workers, results
//! into the incremental top-k plus the JSONL/checkpoint sinks. The
//! node's `total_threads` are divided evenly among the jobs running at
//! that moment (re-evaluated for the grid build and at every chunk
//! boundary), so a long campaign cannot starve a short one, and a
//! finishing job's share flows back to the survivors.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mudock_core::{dock_ligand, DockingEngine, ScreenResult, StopCheck, StopPolicy, TopK};
use mudock_grids::{grid_cache_key, Fnv64, GridDims, SimdLevel};
use mudock_mol::Molecule;
use mudock_obs::{now_ns, Counter, GridSource, Registry};

use crate::cache::{CacheStats, GridCache, SpillConfig};
use crate::job::{
    ChunkProgress, JobHandle, JobOutcome, JobShared, JobSpec, JobState, RankedLigand,
};
use crate::queue::{JobQueue, ShardStat, SubmitError};
use crate::sink::{Checkpoint, JsonlSink};
use crate::telemetry::ServeObs;
use crate::wire;

/// Service sizing. `Default` fits a CI host; production tunes all of it.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Docking worker threads shared by all concurrently running jobs.
    pub total_threads: usize,
    /// Jobs executed concurrently (each gets `total_threads / active`).
    pub job_slots: usize,
    /// Bounded queue depth; beyond it, `submit` blocks and `try_submit`
    /// refuses.
    pub queue_capacity: usize,
    /// Grid sets kept resident; beyond this the cache evicts (see
    /// [`crate::cache::directory`] for how victims are chosen).
    pub cache_capacity: usize,
    /// Spill evicted grid sets to this bounded on-disk tier and reload
    /// them on the next miss instead of rebuilding. `None` (the
    /// default) rebuilds after eviction, as before. The directory is
    /// rescanned at start, so a restarted node comes up warm.
    pub spill: Option<SpillConfig>,
    /// Write one JSONL line per closed job stage to this trace file
    /// (created or truncated at start, bounded on disk by periodic
    /// compaction). `None` (the default) disables tracing; metrics
    /// still work.
    pub trace: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            total_threads: mudock_pool::default_threads(),
            job_slots: 2,
            queue_capacity: 64,
            cache_capacity: 4,
            spill: None,
            trace: None,
        }
    }
}

/// Point-in-time service counters.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    pub jobs_submitted: u64,
    pub jobs_completed: u64,
    pub jobs_cancelled: u64,
    pub jobs_failed: u64,
    /// Ligands docked live (checkpoint replays excluded).
    pub ligands_docked: u64,
    /// Jobs waiting in the queue right now.
    pub queued: usize,
    /// Jobs executing right now.
    pub active: usize,
    pub cache: CacheStats,
    /// Per-receptor shards (depth, occupancy, submissions) — every
    /// shard this service has seen recently, sorted by fingerprint.
    pub shards: Vec<ShardStat>,
}

/// Job lifecycle counters, registered so `/stats` and `/metrics` read
/// the same atomics (`mudock_jobs_total{event=...}` et al.).
struct Counters {
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    cancelled: Arc<Counter>,
    failed: Arc<Counter>,
    ligands: Arc<Counter>,
}

impl Counters {
    fn register(registry: &Registry) -> Counters {
        let jobs = |event: &str| {
            registry.counter(
                "mudock_jobs_total",
                &[("event", event)],
                "Job lifecycle events (submitted, completed, cancelled, failed)",
            )
        };
        Counters {
            submitted: jobs("submitted"),
            completed: jobs("completed"),
            cancelled: jobs("cancelled"),
            failed: jobs("failed"),
            ligands: registry.counter(
                "mudock_ligands_docked_total",
                &[],
                "Ligands docked live (checkpoint replays excluded)",
            ),
        }
    }
}

/// Shared executor context.
struct ExecCtx {
    cache: Arc<GridCache>,
    counters: Arc<Counters>,
    active: Arc<AtomicUsize>,
    obs: Arc<ServeObs>,
    total_threads: usize,
}

impl ExecCtx {
    /// A running job's fair share of the node's threads, right now: what
    /// its grid build and each of its docking chunks run on.
    fn fair_share(&self) -> usize {
        (self.total_threads / self.active.load(Ordering::SeqCst).max(1)).max(1)
    }
}

/// A long-running virtual-screening service.
pub struct ScreenService {
    queue: Arc<JobQueue>,
    cache: Arc<GridCache>,
    counters: Arc<Counters>,
    active: Arc<AtomicUsize>,
    obs: Arc<ServeObs>,
    next_id: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ScreenService {
    /// Spawn the executors and return the running service. Panics when
    /// a configured spill directory cannot be created; use
    /// [`ScreenService::try_start`] to handle that as an error.
    pub fn start(cfg: ServeConfig) -> ScreenService {
        Self::try_start(cfg).expect("spill directory must be creatable")
    }

    /// Fallible [`ScreenService::start`]: the only runtime failures are
    /// preparing the spill directory (creating it, rescanning it for
    /// warm-restart files) and creating the configured span trace file.
    pub fn try_start(cfg: ServeConfig) -> std::io::Result<ScreenService> {
        let queue = Arc::new(JobQueue::new(cfg.queue_capacity));
        let registry = Registry::new();
        let counters = Arc::new(Counters::register(&registry));
        let obs = Arc::new(ServeObs::new(registry, cfg.trace.as_deref())?);
        let mut builder = GridCache::builder(cfg.cache_capacity).registry(obs.registry());
        if let Some(spill) = cfg.spill {
            builder = builder.spill(spill);
        }
        let cache = Arc::new(builder.build()?);
        let active = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::new();
        for _ in 0..cfg.job_slots.max(1) {
            let queue = Arc::clone(&queue);
            let ctx = ExecCtx {
                cache: Arc::clone(&cache),
                counters: Arc::clone(&counters),
                active: Arc::clone(&active),
                obs: Arc::clone(&obs),
                total_threads: cfg.total_threads.max(1),
            };
            workers.push(std::thread::spawn(move || {
                while let Some(job) = queue.pop() {
                    ctx.active.fetch_add(1, Ordering::SeqCst);
                    ctx.obs.job_dequeued(job.shared.id, &job.shared.trace);
                    let shared = Arc::clone(&job.shared);
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| run_job(job.spec, &job.shared, &ctx)));
                    if outcome.is_err() {
                        // A panicking job must not wedge its waiters or
                        // kill the executor slot.
                        ctx.counters.failed.inc();
                        ctx.obs.job_finished(shared.id, &shared.trace, "failed");
                        shared.finish(JobOutcome {
                            id: shared.id,
                            name: String::new(),
                            state: JobState::Failed,
                            ligands_done: 0,
                            chunks_done: 0,
                            replayed_chunks: 0,
                            grid_cache_hit: false,
                            stopped_early: false,
                            top: Vec::new(),
                            elapsed: Default::default(),
                            error: Some("executor panicked while running the job".into()),
                        });
                    }
                    ctx.active.fetch_sub(1, Ordering::SeqCst);
                    // Hand the shard slot back *after* the job fully
                    // settles, so occupancy never undercounts a job
                    // whose outcome is still being published.
                    queue.finished(job.shard);
                }
            }));
        }
        Ok(ScreenService {
            queue,
            cache,
            counters,
            active,
            obs,
            next_id: AtomicU64::new(1),
            workers: Mutex::new(workers),
        })
    }

    fn register(&self) -> Arc<JobShared> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        JobShared::new(id)
    }

    /// Submit a job, blocking while the queue is full (backpressure).
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let shared = self.register();
        self.queue.submit(spec, Arc::clone(&shared))?;
        self.counters.submitted.inc();
        Ok(JobHandle { shared })
    }

    /// Submit without blocking; `Err(Full)` when the queue is at
    /// capacity.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let shared = self.register();
        self.queue.try_submit(spec, Arc::clone(&shared))?;
        self.counters.submitted.inc();
        Ok(JobHandle { shared })
    }

    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            jobs_submitted: self.counters.submitted.get(),
            jobs_completed: self.counters.completed.get(),
            jobs_cancelled: self.counters.cancelled.get(),
            jobs_failed: self.counters.failed.get(),
            ligands_docked: self.counters.ligands.get(),
            queued: self.queue.len(),
            active: self.active.load(Ordering::SeqCst),
            cache: self.cache.stats(),
            shards: self.queue.shards(),
        }
    }

    /// The service's observability state: stage histograms, job/grid
    /// counters, optional trace. Shared with the network frontend.
    pub fn obs(&self) -> Arc<ServeObs> {
        Arc::clone(&self.obs)
    }

    /// The metric registry behind [`ScreenService::obs`] — everything
    /// `/metrics` renders. The network frontend registers its
    /// connection/request families here, unlabelled; the registry's
    /// get-or-insert hands the node's `/stats` the same atomics.
    pub fn registry(&self) -> Registry {
        self.obs.registry().clone()
    }

    /// Maximum number of jobs the queue admits before backpressure.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Stop accepting work, drain the queue, and join the executors.
    /// Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        self.queue.close();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for ScreenService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Fingerprint of everything a checkpoint must agree on to be replayable:
/// the grid content, the search
/// ([`CampaignSpec::search_fingerprint`](mudock_core::CampaignSpec::search_fingerprint)
/// for the job engine's `frame`: GA, radius, local search, seed, ranking
/// size, resolved backend and its arithmetic class, scoring revision)
/// and the slice. Chunking and the stop policy are deliberately absent
/// (see there): a job may resume under a *different*
/// [`ChunkPolicy`](mudock_core::ChunkPolicy) and still finish with a
/// bit-identical ranking.
fn job_fingerprint(spec: &JobSpec, dims: GridDims, frame: SimdLevel) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(grid_cache_key(&spec.receptor, &dims))
        .write_u64(spec.campaign.search_fingerprint(frame));
    // A sliced sub-job checkpoints a different window of the stream than
    // the whole job (or a differently-sliced one) — never mix them.
    if let Some(s) = spec.slice {
        h.write_u64(s.skip as u64).write_u64(s.take as u64);
    }
    h.finish()
}

fn run_job(spec: JobSpec, shared: &JobShared, ctx: &ExecCtx) {
    let t0 = Instant::now();
    let finish = |state: JobState,
                  error: Option<String>,
                  top: Vec<RankedLigand>,
                  done: (usize, usize, usize),
                  cache_hit: bool,
                  stopped_early: bool| {
        match state {
            JobState::Completed => ctx.counters.completed.inc(),
            JobState::Cancelled => ctx.counters.cancelled.inc(),
            _ => ctx.counters.failed.inc(),
        };
        ctx.obs
            .job_finished(shared.id, &shared.trace, wire::state_name(state));
        shared.finish(JobOutcome {
            id: shared.id,
            name: spec.campaign.name.clone(),
            state,
            ligands_done: done.0,
            chunks_done: done.1,
            replayed_chunks: done.2,
            grid_cache_hit: cache_hit,
            stopped_early,
            top,
            elapsed: t0.elapsed(),
            error,
        });
    };

    if shared.cancel.load(Ordering::SeqCst) {
        finish(
            JobState::Cancelled,
            None,
            Vec::new(),
            (0, 0, 0),
            false,
            false,
        );
        return;
    }
    shared.set_running();

    // The campaign's backend policy decides the level grids are built at
    // — and thereby the `(content, dims, level)` cache entry this job
    // reads, so jobs pinned to different levels never share grids.
    let dims = spec.campaign.dims_for(&spec.receptor);
    let params = spec.campaign.dock_params();
    let grid_t0 = now_ns();
    let (grids, grid_source) = ctx.cache.get_or_build(
        &spec.receptor,
        dims,
        spec.campaign.grid_level(),
        ctx.fair_share(),
    );
    ctx.obs.job_grid(
        shared.id,
        &shared.trace,
        now_ns().saturating_sub(grid_t0),
        grid_source,
    );
    let cache_hit = grid_source == GridSource::Hit;
    // Every set-up failure ends the job the same way.
    let fail = |msg: String| {
        finish(
            JobState::Failed,
            Some(msg),
            Vec::new(),
            (0, 0, 0),
            cache_hit,
            false,
        )
    };
    let engine = match DockingEngine::new(&grids) {
        Ok(e) => e,
        Err(e) => return fail(e.to_string()),
    };

    let mut ckpt = match &spec.checkpoint {
        Some(path) => match Checkpoint::open(path, job_fingerprint(&spec, dims, engine.frame())) {
            Ok(c) => Some(c),
            Err(e) => return fail(format!("checkpoint {}: {e}", path.display())),
        },
        None => None,
    };
    let resuming = ckpt.as_ref().is_some_and(|c| !c.completed().is_empty());

    let mut sink = match &spec.jsonl {
        // A resumed job appends: replayed chunks' lines are already
        // there. Lines from a chunk whose checkpoint record was torn by
        // a crash are pruned first — that chunk re-docks and rewrites
        // them.
        Some(path) => match (|| {
            if resuming {
                let ck = ckpt.as_ref().expect("resuming implies a checkpoint");
                crate::sink::prune_jsonl(path, |c| ck.completed().contains_key(&c))?;
            }
            JsonlSink::open(path, resuming)
        })() {
            Ok(s) => Some(s),
            Err(e) => return fail(format!("jsonl {}: {e}", path.display())),
        },
        None => None,
    };

    let stream = match spec.ligands.stream() {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    // A cluster sub-job docks one window of the stream but keeps global
    // ligand indices: seeds and ranked indices are offset by the skip,
    // so the window scores bit-identically to the same ligands in an
    // unsliced run.
    let mut stream: Box<dyn Iterator<Item = Molecule> + Send> = match spec.slice {
        Some(s) => Box::new(stream.skip(s.skip).take(s.take)),
        None => stream,
    };

    let mut sizer = spec.campaign.chunk_sizer();
    let mut stop_check = StopCheck::new();
    let mut top: TopK<(usize, String)> = TopK::new(spec.campaign.top_k);
    let (mut ligands_done, mut chunks_done, mut replayed_chunks) = (0usize, 0usize, 0usize);
    // Global index of the next ligand — *cumulative*, never derived from
    // the chunk index: chunk sizes may vary (adaptive policy, or a
    // resume under a different policy than the checkpoint was written
    // with), but per-ligand seeds must not. A sliced sub-job starts at
    // its window's global position.
    let mut offset = spec.slice.map_or(0usize, |s| s.skip);
    let mut evaluations = 0u64;
    let mut state = JobState::Completed;
    let mut stopped_early = false;
    let mut error = None;

    for ci in 0usize.. {
        if shared.cancel.load(Ordering::SeqCst) {
            state = JobState::Cancelled;
            break;
        }
        let replay = ckpt.as_ref().and_then(|c| c.completed().get(&ci).cloned());
        let replayed = replay.is_some();
        if let Some(rec) = replay {
            // The record knows its own size: skip those ligands in the
            // stream (they were docked in a previous run) and replay the
            // chunk's top-k contribution. Entries are stored in
            // global-index order, so replay reproduces the live path's
            // insertion order exactly.
            let skipped = stream.by_ref().take(rec.ligands).count();
            if skipped == 0 {
                break;
            }
            for e in &rec.top {
                top.push(e.score, (e.index, e.name.clone()));
            }
            ligands_done += skipped;
            offset += skipped;
            replayed_chunks += 1;
        } else {
            let chunk: Vec<Molecule> = stream.by_ref().take(sizer.next_size()).collect();
            if chunk.is_empty() {
                break;
            }
            let (results, pool_stats): (Vec<ScreenResult>, _) =
                mudock_pool::parallel_map_stats(&chunk, ctx.fair_share(), |i, lig| {
                    dock_ligand(&engine, lig, &params, offset + i)
                });
            ctx.obs
                .job_dock_chunk(shared.id, &shared.trace, &pool_stats);
            sizer.observe(chunk.len(), pool_stats.elapsed);

            let mut chunk_top: TopK<(usize, String)> = TopK::new(spec.campaign.top_k);
            for (i, r) in results.iter().enumerate() {
                evaluations += r.evaluations;
                if let Some(score) = r.best_score {
                    top.push(score, (offset + i, r.name.clone()));
                    chunk_top.push(score, (offset + i, r.name.clone()));
                }
            }

            let has_sink = sink.is_some() || ckpt.is_some();
            let io = || -> std::io::Result<()> {
                if let Some(sink) = &mut sink {
                    for (i, r) in results.iter().enumerate() {
                        sink.write_result(&spec.campaign.name, ci, offset + i, r)?;
                    }
                    sink.flush()?;
                }
                if let Some(ck) = &mut ckpt {
                    let mut entries: Vec<RankedLigand> = chunk_top
                        .into_sorted()
                        .into_iter()
                        .map(|(score, (index, name))| RankedLigand { index, name, score })
                        .collect();
                    entries.sort_unstable_by_key(|e| e.index);
                    ck.record(ci, chunk.len(), &entries)?;
                }
                Ok(())
            };
            let sink_t0 = now_ns();
            let flushed = io();
            if has_sink {
                // Only record a sink span when there was a sink to
                // flush — sinkless jobs would pollute the stage
                // histogram with zeros.
                ctx.obs
                    .job_sink_flush(shared.id, &shared.trace, now_ns().saturating_sub(sink_t0));
            }
            if let Err(e) = flushed {
                state = JobState::Failed;
                error = Some(format!("result sink: {e}"));
                break;
            }
            ctx.counters.ligands.add(chunk.len() as u64);
            ligands_done += chunk.len();
            offset += chunk.len();
        }
        chunks_done += 1;
        shared.ligands_done.store(ligands_done, Ordering::SeqCst);
        shared.chunks_done.store(chunks_done, Ordering::SeqCst);
        if let Some(cb) = &spec.progress {
            cb(&ChunkProgress {
                job: shared.id,
                chunk: ci,
                chunks_done,
                ligands_done,
                replayed,
                shared,
            });
        }
        // The stop policy ends the job here, after a whole chunk: the
        // outcome is Completed, and stopped_early when ligands were left.
        // Snapshotting the ranking costs a top-k clone + sort, so only
        // RankingStable pays it.
        let ranking: Vec<(f32, usize)> =
            if matches!(spec.campaign.stop, StopPolicy::RankingStable { .. }) {
                top.clone()
                    .into_sorted()
                    .into_iter()
                    .map(|(score, (index, _))| (score, index))
                    .collect()
            } else {
                Vec::new()
            };
        if stop_check.should_stop(&spec.campaign.stop, evaluations, &ranking) {
            // A policy firing exactly as the input ran out is a plain
            // completion: "early" means ligands were skipped.
            stopped_early = stream.next().is_some();
            break;
        }
    }

    let ranking: Vec<RankedLigand> = top
        .into_sorted()
        .into_iter()
        .map(|(score, (index, name))| RankedLigand { index, name, score })
        .collect();
    finish(
        state,
        error,
        ranking,
        (ligands_done, chunks_done, replayed_chunks),
        cache_hit,
        stopped_early,
    );
}
