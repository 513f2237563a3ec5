//! Cache of built grid sets, keyed by receptor + lattice content +
//! build level — with a policy lab bolted to its side.
//!
//! AutoGrid-style precomputation is the dominant *fixed* cost of a
//! screening job; campaigns hammer the same few targets with millions of
//! ligands. The cache keys built [`GridSet`]s by
//! `(content fingerprint, SIMD level)`: the fingerprint is
//! [`mudock_grids::grid_cache_key`] (receptor atoms + lattice geometry,
//! so two `Molecule` values with identical atoms share an entry
//! regardless of provenance), and the [`SimdLevel`] is the level the
//! maps were built at. Jobs pinned to different levels — heterogeneous
//! clients sharing one node — therefore get *distinct* entries instead
//! of silently reading grids built with another job's instruction set.
//!
//! Each entry is an [`OnceLock`] slot: the first job to miss installs the
//! slot and builds into it; concurrent jobs for the same key find the
//! slot (a *hit* — the build runs once either way) and block inside
//! `get_or_init` until it is ready. Build wall time is recorded into
//! the cache's `mudock_grid_build_seconds` histogram, one observation
//! per AutoGrid run (hits, reloads and prefetches record nothing).
//!
//! # One directory, two drivers
//!
//! Which key is resident, which is evicted, what spills and what is
//! pruned is decided in one place: the I/O-free [`Directory`]. The
//! cache holds one under its mutex beside the slots, asks it what an
//! access does, and performs the disk work it plans *outside* the lock
//! (only same-key lookups ever wait on disk or a build, inside their
//! shared `OnceLock`). The offline replayer ([`policy`], driven by
//! `cache_replay` in `mudock-bench`) feeds the same type from a
//! recorded [`trace`]. Replacement steers *performance* only: reloads
//! and prefetched grids are byte-equal to fresh builds, and the
//! build-once-per-key invariant holds whatever is evicted.
//!
//! # The spill tier
//!
//! A cache built with a [`SpillConfig`] writes an evicted [`GridSet`]
//! through [`mudock_grids::io::save`] into the spill directory
//! (atomically — temp file + rename), and the next miss on that key
//! *reloads* it instead of rebuilding. Loads are bit-exact (the format
//! round-trips f32 bit patterns), so a reloaded grid scores ligands
//! identically to the original build. The directory holds at most
//! [`SpillConfig::capacity`] files; the oldest are deleted beyond it.
//! Spills and reloads are counted in [`CacheStats`] and surface in
//! `GET /stats`.
//!
//! Spill files persist across process restarts. At construction the
//! spill directory is rescanned: files with a canonical name whose
//! contents pass [`mudock_grids::io::probe`] are restored (oldest
//! first), so a restarted node serves its first job on a
//! previously-seen receptor from disk instead of rebuilding. Anything
//! else — truncated writes, foreign bytes, unparseable names — is
//! *quarantined*: renamed with a `.bad` suffix and counted in
//! [`CacheStats::quarantined`], never loaded and never silently
//! deleted, so an operator can inspect what went wrong.
//!
//! # Prefetch and the trace
//!
//! A cache built with [`GridCacheBuilder::prefetch`] acts on *hints*
//! from the shard router ([`GridCache::hint`]): when the next queued
//! job's grids sit in the spill tier, a background thread reloads them
//! before the job is dequeued, overlapping disk latency with the
//! previous job's docking. Every event (accesses, evictions, spills,
//! hints, prefetches) can be recorded to a `*.trace` file
//! ([`GridCacheBuilder::trace`]); the tracer has its own writer mutex
//! and never takes the cache's, so neither lock is held across the
//! other.
#![deny(missing_docs)]

pub mod directory;
pub mod policy;
pub mod trace;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use mudock_grids::{grid_cache_key, GridBuilder, GridDims, GridIoError, GridSet, SimdLevel};
use mudock_mol::Molecule;
use mudock_obs::{Counter, GridSource, Histogram, Registry};

use directory::{Admission, Directory, Lookup};
use trace::{CacheTracer, TraceEventKind, TraceHeader, TraceKey as Key};

/// Histogram of grid-build wall time, one observation per AutoGrid run.
pub const GRID_BUILD_METRIC: &str = "mudock_grid_build_seconds";

/// Bounded on-disk spill tier for evicted grid sets.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Directory spill files are written into (created on first use).
    pub dir: PathBuf,
    /// Maximum spill files kept on disk; the oldest are deleted beyond
    /// this, so the directory never grows without bound.
    pub capacity: usize,
}

impl SpillConfig {
    /// Spill into `dir`, keeping at most 16 grid sets on disk.
    pub fn new(dir: impl Into<PathBuf>) -> SpillConfig {
        SpillConfig {
            dir: dir.into(),
            capacity: 16,
        }
    }
}

/// Cache counters (monotonic over the cache's lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry (including builds still in flight).
    pub hits: u64,
    /// Lookups that had to start a build.
    pub misses: u64,
    /// Entries discarded to respect the capacity bound.
    pub evictions: u64,
    /// Evicted grid sets written to the spill tier.
    pub spills: u64,
    /// Misses satisfied by loading a spilled grid set from disk
    /// instead of rebuilding it (prefetched reloads included).
    pub reloads: u64,
    /// Router hints acted on: spilled grid sets reloaded ahead of
    /// demand by the prefetcher.
    pub prefetches: u64,
    /// Spill files found damaged by the startup rescan and renamed
    /// aside as `.bad` (never loaded, never silently deleted).
    pub quarantined: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Spill files currently on disk.
    pub spilled: usize,
    /// Name of the replacement policy ([`directory::POLICY_NAME`]).
    pub policy: &'static str,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the cache is unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type Slot = Arc<OnceLock<Arc<GridSet>>>;

struct Inner {
    dir: Directory<Key>,
    /// One slot per resident key of `dir`.
    slots: HashMap<Key, Slot>,
}

/// Whether a victim's grids can be written out: an entry evicted while
/// its build is in flight has nothing to spill yet.
fn spillable(slots: &HashMap<Key, Slot>) -> impl FnOnce(Key) -> bool + '_ {
    |victim| slots.get(&victim).is_some_and(|s| s.get().is_some())
}

/// Make the slot table follow an admission of `key`; returns the
/// evicted entry's slot.
fn install(
    slots: &mut HashMap<Key, Slot>,
    key: Key,
    slot: Slot,
    plan: &Admission<Key>,
) -> Option<Slot> {
    let evicted = plan.evicted.and_then(|k| slots.remove(&k));
    slots.insert(key, slot);
    evicted
}

/// Thread-safe cache of built grid sets with segmented-LRU replacement,
/// an optional on-disk spill tier (warm across restarts), an optional
/// router-hint prefetcher, and an optional event trace. Construct
/// through [`GridCache::new`], [`GridCache::with_spill`], or the full
/// [`GridCache::builder`].
pub struct GridCache {
    capacity: usize,
    prefetch: bool,
    spill_dir: Option<PathBuf>,
    inner: Mutex<Inner>,
    tracer: Option<CacheTracer>,
    prefetch_busy: AtomicBool,
    prefetch_metric: Arc<Counter>,
    build_seconds: Arc<Histogram>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    spills: AtomicU64,
    reloads: AtomicU64,
    prefetches: AtomicU64,
    quarantined: AtomicU64,
}

/// Configures a [`GridCache`] beyond its capacity: spill tier,
/// prefetch, trace recording, and metrics. Obtained from
/// [`GridCache::builder`].
pub struct GridCacheBuilder {
    capacity: usize,
    spill: Option<SpillConfig>,
    trace_path: Option<PathBuf>,
    prefetch: bool,
    prefetch_metric: Arc<Counter>,
    build_seconds: Arc<Histogram>,
}

impl GridCacheBuilder {
    /// Add a bounded on-disk spill tier; its directory is rescanned at
    /// build time so the tier comes up warm across restarts.
    pub fn spill(mut self, spill: SpillConfig) -> GridCacheBuilder {
        self.spill = Some(spill);
        self
    }

    /// Record every cache event to a `*.trace` JSONL file at `path`
    /// (created/truncated at build time) — see [`trace`].
    pub fn trace(mut self, path: impl Into<PathBuf>) -> GridCacheBuilder {
        self.trace_path = Some(path.into());
        self
    }

    /// Act on router hints: reload a hinted key's spilled grids on a
    /// background thread before its job is dequeued. Inert without a
    /// spill tier (prefetch never *builds* — it has no receptor).
    pub fn prefetch(mut self, on: bool) -> GridCacheBuilder {
        self.prefetch = on;
        self
    }

    /// Register the cache's instruments in `registry`, so `/metrics`
    /// sees them: grid-build wall time ([`GRID_BUILD_METRIC`]) and
    /// completed prefetches (`mudock_grid_prefetch_total`). Without
    /// this the cache still records both, into instruments of its own.
    pub fn registry(mut self, registry: &Registry) -> GridCacheBuilder {
        self.build_seconds = registry.histogram(
            GRID_BUILD_METRIC,
            &[],
            "Grid-set build wall-clock, one observation per AutoGrid run",
        );
        self.prefetch_metric = registry.counter(
            "mudock_grid_prefetch_total",
            &[],
            "Spilled grid sets reloaded ahead of demand on a router hint",
        );
        self
    }

    /// Build the cache. Fails if a spill tier is configured with
    /// capacity 0 (nothing could ever spill), if the spill directory
    /// cannot be created or rescanned, or if the trace file cannot be
    /// created — all at service start, not mid-traffic.
    pub fn build(self) -> std::io::Result<GridCache> {
        if self.spill.is_some() && self.capacity == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a spill tier needs cache capacity >= 1 (capacity 0 disables caching, \
                 so nothing would ever spill or reload)",
            ));
        }
        let spill_capacity = self.spill.as_ref().map_or(0, |s| s.capacity.max(1));
        let mut dir = Directory::new(
            self.capacity.max(1),
            directory::default_protected(self.capacity),
            spill_capacity,
        );
        let mut quarantined = 0u64;
        if let Some(cfg) = &self.spill {
            std::fs::create_dir_all(&cfg.dir)?;
            // The tier bound holds from the first instant: beyond it the
            // oldest restores are valid files, so this is the ordinary
            // prune (delete), not quarantine.
            for key in rescan_spill_dir(&cfg.dir, &mut quarantined)? {
                if let Some(old) = dir.restore(key) {
                    std::fs::remove_file(spill_path(&cfg.dir, old)).ok();
                }
            }
        }
        let header = TraceHeader {
            version: 1,
            capacity: self.capacity,
            spill_capacity,
            policy: directory::POLICY_NAME.to_string(),
            prefetch: self.prefetch,
        };
        let trace_path = self.trace_path.as_deref();
        let tracer = trace_path
            .map(|p| CacheTracer::create(p, &header))
            .transpose()?;
        if let (Some(t), Some(_)) = (&tracer, &self.spill) {
            let restored = dir.spilled();
            t.emit(TraceEventKind::Warm {
                restored: restored.len() as u64,
                quarantined,
            });
            for key in restored {
                t.emit(TraceEventKind::Restore { key });
            }
        }
        Ok(GridCache {
            capacity: self.capacity,
            prefetch: self.prefetch,
            spill_dir: self.spill.map(|s| s.dir),
            inner: Mutex::new(Inner {
                dir,
                slots: HashMap::new(),
            }),
            tracer,
            prefetch_busy: AtomicBool::new(false),
            prefetch_metric: self.prefetch_metric,
            build_seconds: self.build_seconds,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            prefetches: AtomicU64::new(0),
            quarantined: AtomicU64::new(quarantined),
        })
    }
}

/// The spill file of `key` under `dir`: `{fingerprint:016x}-{level}.grid`.
fn spill_path(dir: &Path, key: Key) -> PathBuf {
    dir.join(format!("{:016x}-{}.grid", key.0, key.1.name()))
}

/// Parse a spill file name back to its key; only the canonical spelling
/// [`spill_path`] writes is accepted, so a key always maps to one file.
fn parse_spill_name(name: &str) -> Option<Key> {
    let stem = name.strip_suffix(".grid")?;
    let hex = stem.get(..16)?;
    let level = stem.get(16..)?.strip_prefix('-')?;
    let key = (u64::from_str_radix(hex, 16).ok()?, SimdLevel::parse(level)?);
    (spill_path(Path::new(""), key) == Path::new(name)).then_some(key)
}

/// Rename a damaged spill-dir file aside (`<name>.bad`) instead of
/// loading or deleting it.
fn quarantine(path: &Path) {
    let mut bad = path.as_os_str().to_os_string();
    bad.push(".bad");
    std::fs::rename(path, &bad).ok();
}

/// Rescan a spill directory at startup: the keys of its valid spill
/// files, oldest first; everything else is quarantined. `.bad` files
/// from earlier quarantines are left untouched.
fn rescan_spill_dir(dir: &Path, quarantined: &mut u64) -> std::io::Result<Vec<Key>> {
    let mut found: Vec<(std::time::SystemTime, Key)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let path = entry.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".bad") {
            continue;
        }
        match parse_spill_name(name) {
            Some(key) if mudock_grids::io::probe(&path).is_ok() => {
                let mtime = entry.metadata()?.modified();
                found.push((mtime.unwrap_or(std::time::SystemTime::UNIX_EPOCH), key));
            }
            _ => {
                quarantine(&path);
                *quarantined += 1;
            }
        }
    }
    found.sort_by_key(|(mtime, _)| *mtime);
    Ok(found.into_iter().map(|(_, key)| key).collect())
}

impl GridCache {
    /// Cache holding up to `capacity` grid sets. Capacity 0 disables
    /// caching (every lookup builds and counts as a miss).
    pub fn new(capacity: usize) -> GridCache {
        Self::builder(capacity)
            .build()
            .expect("no I/O is configured, construction cannot fail")
    }

    /// Like [`GridCache::new`], but evicted grid sets spill to disk
    /// under `spill.dir` and are reloaded — bit-identically — on the
    /// next miss instead of being rebuilt, and files already present in
    /// the directory are restored (warm restart). Fails as
    /// [`GridCacheBuilder::build`] does.
    pub fn with_spill(capacity: usize, spill: SpillConfig) -> std::io::Result<GridCache> {
        Self::builder(capacity).spill(spill).build()
    }

    /// Start configuring a cache of `capacity` entries.
    pub fn builder(capacity: usize) -> GridCacheBuilder {
        GridCacheBuilder {
            capacity,
            spill: None,
            trace_path: None,
            prefetch: false,
            prefetch_metric: Arc::new(Counter::new()),
            build_seconds: Arc::new(Histogram::new()),
        }
    }

    /// Lock the bookkeeping. Poison is recovered, not propagated: no
    /// build, load or spill runs under this lock, so a job that panics
    /// cannot leave `Inner` half-updated — and must not wedge the cache
    /// for every job after it.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn trace_event(&self, kind: TraceEventKind) {
        if let Some(t) = &self.tracer {
            t.emit(kind);
        }
    }

    fn grid_bytes(grids: &GridSet) -> u64 {
        (grids.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// `key`'s spill file; the directory plans reloads, spills and
    /// prunes only over a spill tier.
    fn spill_file(&self, key: Key) -> PathBuf {
        let dir = self.spill_dir.as_deref().expect("plans need a spill tier");
        spill_path(dir, key)
    }

    /// The grid set for `receptor` on `dims` built at `level`, building
    /// it (all maps) on a miss — or, when a spill tier is configured
    /// and holds this key, reloading the evicted build from disk
    /// bit-identically instead. `level` is part of the cache key: two
    /// jobs pinned to different SIMD levels never share an entry.
    /// Returns the set plus how it was obtained:
    /// [`GridSource::Hit`] (memory, including joining another job's
    /// in-flight build *or* finding a prefetched reload),
    /// [`GridSource::Reloaded`] (spill tier), or [`GridSource::Built`]
    /// (full AutoGrid run).
    pub fn get_or_build(
        &self,
        receptor: &Molecule,
        dims: GridDims,
        level: SimdLevel,
    ) -> (Arc<GridSet>, GridSource) {
        let key = (grid_cache_key(receptor, &dims), level);
        let t0 = Instant::now();

        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let grids = self.build(receptor, dims, level);
            self.trace_event(TraceEventKind::Access {
                key,
                source: GridSource::Built,
                bytes: Self::grid_bytes(&grids),
                dur_ns: elapsed_ns(t0),
            });
            return (grids, GridSource::Built);
        }

        let (slot, admitted) = {
            let mut inner = self.lock();
            let Inner { dir, slots } = &mut *inner;
            match dir.lookup(key, spillable(slots)) {
                Lookup::Hit => (Arc::clone(&slots[&key]), None),
                Lookup::Miss(plan) => {
                    let slot = Slot::default();
                    let evicted = install(slots, key, Arc::clone(&slot), &plan);
                    (slot, Some((plan, evicted)))
                }
            }
        };
        // Disambiguated only by the thread that actually initializes the
        // slot: a concurrent same-key caller that joins an in-flight
        // build reports `Hit` (the work ran once either way).
        let source = std::cell::Cell::new(GridSource::Hit);
        let mut reload = false;
        if let Some((plan, evicted)) = admitted {
            self.misses.fetch_add(1, Ordering::Relaxed);
            source.set(GridSource::Built);
            reload = plan.reload;
            // Consumes the evicted grids, so they are freed before their
            // replacement is built.
            self.commit(plan, evicted);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        let grids = Arc::clone(slot.get_or_init(|| {
            if reload {
                match mudock_grids::io::load(&self.spill_file(key)) {
                    Ok(gs) => {
                        self.reloads.fetch_add(1, Ordering::Relaxed);
                        source.set(GridSource::Reloaded);
                        return Arc::new(gs);
                    }
                    // The spill tier is an optimization, never a
                    // correctness dependency: rebuild.
                    Err(e) => self.reload_failed(key, &e),
                }
            }
            self.build(receptor, dims, level)
        }));
        let source = source.get();
        self.trace_event(TraceEventKind::Access {
            key,
            source,
            bytes: Self::grid_bytes(&grids),
            dur_ns: elapsed_ns(t0),
        });
        (grids, source)
    }

    /// The router predicts `key` (a [`mudock_grids::grid_cache_key`]
    /// fingerprint) built at `level` is needed by the next queued job.
    /// Always recorded in the trace; when prefetch is enabled and the
    /// key sits in the spill tier (and is not already resident), a
    /// background thread reloads it into a resident entry so the
    /// demand lookup hits. At most one prefetch is in flight at a time
    /// — a second hint while busy is recorded but not acted on. The
    /// prefetched bytes come through the same loader as demand reloads,
    /// so they are bit-identical to a fresh build; a failed load falls
    /// back to the demand path's build, never to an error.
    pub fn hint(self: &Arc<Self>, key_fp: u64, level: SimdLevel) {
        let key = (key_fp, level);
        self.trace_event(TraceEventKind::Hint { key });
        if !self.prefetch || self.capacity == 0 {
            return;
        }
        let found = self.lock().dir.peek(key);
        if found.resident || !found.spilled || self.prefetch_busy.swap(true, Ordering::AcqRel) {
            return;
        }
        let cache = Arc::clone(self);
        std::thread::spawn(move || {
            cache.prefetch_load(key);
            cache.prefetch_busy.store(false, Ordering::Release);
        });
    }

    /// Background half of [`GridCache::hint`]: load the spilled grids,
    /// then admit them as a pre-filled entry (load-before-admit, so a
    /// failed load admits nothing and the demand path simply rebuilds).
    fn prefetch_load(&self, key: Key) {
        let t0 = Instant::now();
        let grids = match mudock_grids::io::load(&self.spill_file(key)) {
            Ok(gs) => Arc::new(gs),
            Err(e) => return self.reload_failed(key, &e),
        };
        let admitted = {
            let mut inner = self.lock();
            let Inner { dir, slots } = &mut *inner;
            // `None`: a demand lookup admitted the key while we loaded;
            // drop our copy, its slot is authoritative.
            dir.admit_prefetched(key, spillable(slots)).map(|plan| {
                let evicted = install(slots, key, Arc::new(OnceLock::from(grids)), &plan);
                (plan, evicted)
            })
        };
        if let Some((plan, evicted)) = admitted {
            self.reloads.fetch_add(1, Ordering::Relaxed);
            self.prefetches.fetch_add(1, Ordering::Relaxed);
            self.prefetch_metric.inc();
            self.trace_event(TraceEventKind::Prefetch {
                key,
                dur_ns: elapsed_ns(t0),
            });
            self.commit(plan, evicted);
        }
    }

    /// A planned reload did not load. A missing file means a concurrent
    /// spill's rename has not landed: deregister it (the spiller
    /// re-registers once its write completes) but delete nothing, or we
    /// could race ahead and remove the valid file it is about to
    /// produce. Anything else is damage: deregister and remove.
    fn reload_failed(&self, key: Key, err: &GridIoError) {
        self.lock().dir.forget_file(key);
        let racing =
            matches!(err, GridIoError::Io(io) if io.kind() == std::io::ErrorKind::NotFound);
        if !racing {
            std::fs::remove_file(self.spill_file(key)).ok();
        }
    }

    fn drop_file(&self, pruned: Option<Key>) {
        if let Some(key) = pruned {
            std::fs::remove_file(self.spill_file(key)).ok();
            self.trace_event(TraceEventKind::SpillDrop { key });
        }
    }

    /// Count an admission's eviction and perform the disk work the
    /// directory planned for it — outside the lock.
    fn commit(&self, plan: Admission<Key>, evicted: Option<Slot>) {
        let Some(key) = plan.evicted else { return };
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.trace_event(TraceEventKind::Evict { key });
        self.drop_file(plan.pruned);
        if !plan.spill {
            return;
        }
        let grids = evicted.as_ref().and_then(|s| s.get());
        let grids = grids.expect("the directory spills only what `spillable` vouched for");
        if Self::save_atomic(grids, &self.spill_file(key)).is_ok() {
            self.spills.fetch_add(1, Ordering::Relaxed);
            self.trace_event(TraceEventKind::Spill {
                key,
                bytes: Self::grid_bytes(grids),
            });
            // A concurrent reload-miss may have hit ENOENT in the window
            // before our rename landed and deregistered the file. It is
            // on disk now: restore it, or it would escape the capacity
            // bound (and pruning) for good.
            let stale = self.lock().dir.restore(key);
            self.drop_file(stale);
        } else {
            // Nothing usable landed on disk; deregister the file so a
            // later miss rebuilds instead of chasing a ghost.
            self.lock().dir.forget_file(key);
        }
    }

    /// Write-then-rename so a reader never sees a torn spill file; the
    /// temp name is unique per write so two racing spills of the same
    /// key cannot interleave into one temp file.
    fn save_atomic(grids: &GridSet, path: &Path) -> Result<(), GridIoError> {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!("tmp{}", WRITES.fetch_add(1, Ordering::Relaxed)));
        mudock_grids::io::save(grids, &tmp)?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            std::fs::remove_file(&tmp).ok();
            return Err(e.into());
        }
        Ok(())
    }

    fn build(&self, receptor: &Molecule, dims: GridDims, level: SimdLevel) -> Arc<GridSet> {
        let t0 = Instant::now();
        let grids = GridBuilder::new(receptor, dims).build_simd(level);
        self.build_seconds.record(t0.elapsed());
        Arc::new(grids)
    }

    /// A counter snapshot (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        let (entries, spilled) = self.lock().dir.sizes();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            prefetches: self.prefetches.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            entries,
            spilled,
            policy: directory::POLICY_NAME,
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_mol::Vec3;
    use mudock_molio::synthetic_receptor;

    fn dims() -> GridDims {
        GridDims::centered(Vec3::ZERO, 4.0, 1.0)
    }

    #[test]
    fn second_lookup_hits_and_shares_the_build() {
        let cache = GridCache::new(2);
        let rec = synthetic_receptor(3, 40, 5.0);
        let (a, src_a) = cache.get_or_build(&rec, dims(), SimdLevel::detect());
        let (b, src_b) = cache.get_or_build(&rec, dims(), SimdLevel::detect());
        assert_eq!(src_a, GridSource::Built);
        assert_eq!(src_b, GridSource::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn content_identity_beats_provenance() {
        let cache = GridCache::new(2);
        let rec = synthetic_receptor(3, 40, 5.0);
        let mut renamed = rec.clone();
        renamed.name = "other".into();
        let (_, first) = cache.get_or_build(&rec, dims(), SimdLevel::detect());
        let (_, second) = cache.get_or_build(&renamed, dims(), SimdLevel::detect());
        assert_eq!(first, GridSource::Built);
        assert_eq!(
            second,
            GridSource::Hit,
            "identical content must share the cache entry"
        );
    }

    #[test]
    fn pinned_levels_get_distinct_entries() {
        let cache = GridCache::new(4);
        let rec = synthetic_receptor(3, 40, 5.0);
        let levels = SimdLevel::available();
        for &l in &levels {
            let (_, src) = cache.get_or_build(&rec, dims(), l);
            assert_eq!(
                src,
                GridSource::Built,
                "{l}: each level builds its own grids"
            );
        }
        assert_eq!(cache.stats().entries, levels.len().min(4));
        // Revisiting a level is a hit on that level's entry.
        let (_, src) = cache.get_or_build(&rec, dims(), levels[0]);
        assert_eq!(src, GridSource::Hit);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = GridCache::new(0);
        let rec = synthetic_receptor(5, 30, 5.0);
        let (_, s1) = cache.get_or_build(&rec, dims(), SimdLevel::detect());
        let (_, s2) = cache.get_or_build(&rec, dims(), SimdLevel::detect());
        assert_eq!((s1, s2), (GridSource::Built, GridSource::Built));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn build_time_lands_in_the_registry_histogram() {
        let registry = Registry::new();
        let cache = GridCache::builder(1).registry(&registry).build().unwrap();
        let rec = synthetic_receptor(6, 30, 5.0);
        cache.get_or_build(&rec, dims(), SimdLevel::detect());
        cache.get_or_build(&rec, dims(), SimdLevel::detect());
        let builds = cache.build_seconds.snapshot();
        assert_eq!(builds.count, 1, "the hit must not rebuild");
        assert!(builds.sum_ns > 0);
        assert!(
            registry
                .render_prometheus()
                .contains("mudock_grid_build_seconds_count 1\n"),
            "the cache's histogram is the one /metrics renders"
        );
    }

    fn spill_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mudock-spill-{}-{name}", std::process::id()))
    }

    #[test]
    fn spill_refuses_a_capacity_that_can_never_spill() {
        let dir = spill_dir("zero-cap");
        let err = match GridCache::with_spill(0, SpillConfig::new(&dir)) {
            Err(e) => e,
            Ok(_) => panic!("capacity 0 with a spill tier must be refused"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn eviction_spills_and_the_next_miss_reloads_bit_identically() {
        let dir = spill_dir("reload");
        std::fs::remove_dir_all(&dir).ok();
        let cache = GridCache::with_spill(1, SpillConfig::new(&dir)).unwrap();
        let r1 = synthetic_receptor(1, 30, 5.0);
        let r2 = synthetic_receptor(2, 30, 5.0);
        let (built, _) = cache.get_or_build(&r1, dims(), SimdLevel::detect());
        cache.get_or_build(&r2, dims(), SimdLevel::detect()); // evicts + spills r1
        let s = cache.stats();
        assert_eq!((s.evictions, s.spills, s.spilled), (1, 1, 1));

        let (reloaded, src) = cache.get_or_build(&r1, dims(), SimdLevel::detect());
        assert_eq!(
            src,
            GridSource::Reloaded,
            "a reload is still a miss (the entry was evicted)"
        );
        assert_eq!(cache.stats().reloads, 1);
        assert!(
            !Arc::ptr_eq(&built, &reloaded),
            "the reload must come from disk, not a retained allocation"
        );
        assert_eq!(built.dims, reloaded.dims);
        assert_eq!(built.built, reloaded.built);
        for (a, b) in built.data.iter().zip(&reloaded.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_directory_is_bounded() {
        let dir = spill_dir("bounded");
        std::fs::remove_dir_all(&dir).ok();
        let cache = GridCache::with_spill(
            1,
            SpillConfig {
                dir: dir.clone(),
                capacity: 2,
            },
        )
        .unwrap();
        // Four receptors through a capacity-1 cache: three evictions,
        // three spills, but only the two newest files survive on disk.
        for seed in 1..=4 {
            let r = synthetic_receptor(seed, 25, 5.0);
            cache.get_or_build(&r, dims(), SimdLevel::detect());
        }
        let s = cache.stats();
        assert_eq!((s.evictions, s.spills, s.spilled), (3, 3, 2));
        let on_disk = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(on_disk, 2, "the oldest spill file must be deleted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_spill_files_fall_back_to_a_rebuild() {
        let dir = spill_dir("corrupt");
        std::fs::remove_dir_all(&dir).ok();
        let cache = GridCache::with_spill(1, SpillConfig::new(&dir)).unwrap();
        let r1 = synthetic_receptor(1, 30, 5.0);
        let r2 = synthetic_receptor(2, 30, 5.0);
        let (built, _) = cache.get_or_build(&r1, dims(), SimdLevel::detect());
        cache.get_or_build(&r2, dims(), SimdLevel::detect());
        // Stomp the spilled file: the reload must fail closed into a
        // rebuild, and the ghost entry must be forgotten.
        let file = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
        std::fs::write(file.path(), b"not a grid file").unwrap();
        let (rebuilt, src) = cache.get_or_build(&r1, dims(), SimdLevel::detect());
        assert_eq!(src, GridSource::Built);
        let s = cache.stats();
        assert_eq!(s.reloads, 0, "a corrupt file is not a reload");
        assert_eq!(s.spilled, 1, "r2's spill remains; r1's ghost is gone");
        for (a, b) in built.data.iter().zip(&rebuilt.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_restart_restores_the_spill_tier() {
        let dir = spill_dir("warm");
        std::fs::remove_dir_all(&dir).ok();
        let r1 = synthetic_receptor(1, 30, 5.0);
        let r2 = synthetic_receptor(2, 30, 5.0);
        let built = {
            let cache = GridCache::with_spill(1, SpillConfig::new(&dir)).unwrap();
            let (built, _) = cache.get_or_build(&r1, dims(), SimdLevel::detect());
            cache.get_or_build(&r2, dims(), SimdLevel::detect()); // spills r1
            cache.get_or_build(&r1, dims(), SimdLevel::detect()); // spills r2, reloads r1
            built
        }; // "crash": the process's in-memory state is gone, the dir is not

        let cache = GridCache::with_spill(1, SpillConfig::new(&dir)).unwrap();
        let s = cache.stats();
        assert_eq!(s.spilled, 2, "the rescan must re-register both spill files");
        assert_eq!(s.quarantined, 0);
        let (reloaded, src) = cache.get_or_build(&r1, dims(), SimdLevel::detect());
        assert_eq!(
            src,
            GridSource::Reloaded,
            "the first job after a warm restart must not rebuild"
        );
        assert_eq!(
            cache.build_seconds.count(),
            0,
            "zero grid builds across the restart"
        );
        for (a, b) in built.data.iter().zip(&reloaded.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rescan_quarantines_damaged_files_and_keeps_the_rest() {
        let dir = spill_dir("quarantine");
        std::fs::remove_dir_all(&dir).ok();
        let r1 = synthetic_receptor(1, 30, 5.0);
        let r2 = synthetic_receptor(2, 30, 5.0);
        {
            let cache = GridCache::with_spill(1, SpillConfig::new(&dir)).unwrap();
            cache.get_or_build(&r1, dims(), SimdLevel::detect());
            cache.get_or_build(&r2, dims(), SimdLevel::detect()); // spills r1
        }
        // A name that does not parse as a spill key…
        std::fs::write(dir.join("notaspill.grid"), b"junk").unwrap();
        // …and a well-named file holding a truncated write.
        let valid = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().len() > 20)
            .unwrap();
        let bytes = std::fs::read(valid.path()).unwrap();
        std::fs::write(
            dir.join("00000000deadbeef-scalar.grid"),
            &bytes[..bytes.len() - 7],
        )
        .unwrap();

        let cache = GridCache::with_spill(1, SpillConfig::new(&dir)).unwrap();
        let s = cache.stats();
        assert_eq!(s.quarantined, 2, "both damaged files must be quarantined");
        assert_eq!(s.spilled, 1, "the valid spill file must survive");
        let bad: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".bad"))
            .collect();
        assert_eq!(bad.len(), 2, "damaged files are renamed aside, not deleted");
        let (_, src) = cache.get_or_build(&r1, dims(), SimdLevel::detect());
        assert_eq!(
            src,
            GridSource::Reloaded,
            "the surviving file still reloads"
        );

        // A second restart must not re-quarantine (or load) .bad files.
        drop(cache);
        let cache = GridCache::with_spill(1, SpillConfig::new(&dir)).unwrap();
        assert_eq!(cache.stats().quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_records_what_the_counters_count() {
        let dir = spill_dir("trace");
        std::fs::remove_dir_all(&dir).ok();
        let trace_path =
            std::env::temp_dir().join(format!("mudock-cache-{}-events.trace", std::process::id()));
        let r1 = synthetic_receptor(1, 30, 5.0);
        let r2 = synthetic_receptor(2, 30, 5.0);
        let cache = GridCache::builder(1)
            .spill(SpillConfig::new(&dir))
            .trace(&trace_path)
            .build()
            .unwrap();
        cache.get_or_build(&r1, dims(), SimdLevel::detect()); // build
        cache.get_or_build(&r2, dims(), SimdLevel::detect()); // build, spills r1
        cache.get_or_build(&r1, dims(), SimdLevel::detect()); // reload, spills r2
        cache.get_or_build(&r1, dims(), SimdLevel::detect()); // hit
        let s = cache.stats();

        let t = trace::read_trace(&trace_path).unwrap();
        let header = t.header.expect("trace must begin with its header");
        assert_eq!((header.version, header.capacity), (1, 1));
        assert_eq!(header.policy, s.policy);
        assert!(!header.prefetch);
        let count = |pred: &dyn Fn(&TraceEventKind) -> bool| {
            t.events.iter().filter(|e| pred(&e.kind)).count() as u64
        };
        assert_eq!(
            count(&|k| matches!(
                k,
                TraceEventKind::Access {
                    source: GridSource::Hit,
                    ..
                }
            )),
            s.hits
        );
        assert_eq!(
            count(&|k| matches!(
                k,
                TraceEventKind::Access {
                    source: GridSource::Built,
                    ..
                }
            )),
            s.misses - s.reloads
        );
        assert_eq!(
            count(&|k| matches!(
                k,
                TraceEventKind::Access {
                    source: GridSource::Reloaded,
                    ..
                }
            )),
            s.reloads
        );
        assert_eq!(
            count(&|k| matches!(k, TraceEventKind::Evict { .. })),
            s.evictions
        );
        assert_eq!(
            count(&|k| matches!(k, TraceEventKind::Spill { .. })),
            s.spills
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn a_hint_prefetches_the_spilled_key() {
        let dir = spill_dir("prefetch");
        std::fs::remove_dir_all(&dir).ok();
        let cache = Arc::new(
            GridCache::builder(1)
                .spill(SpillConfig::new(&dir))
                .prefetch(true)
                .build()
                .unwrap(),
        );
        let r1 = synthetic_receptor(1, 30, 5.0);
        let r2 = synthetic_receptor(2, 30, 5.0);
        cache.get_or_build(&r1, dims(), SimdLevel::detect());
        cache.get_or_build(&r2, dims(), SimdLevel::detect()); // spills r1

        cache.hint(grid_cache_key(&r1, &dims()), SimdLevel::detect());
        for _ in 0..500 {
            if cache.stats().prefetches == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let s = cache.stats();
        assert_eq!(s.prefetches, 1, "the hint must trigger a background reload");
        assert_eq!(s.reloads, 1, "a prefetch is counted as a reload too");

        let builds_before = cache.build_seconds.count();
        let (_, src) = cache.get_or_build(&r1, dims(), SimdLevel::detect());
        assert_eq!(
            src,
            GridSource::Hit,
            "the demand lookup must find the prefetched entry resident"
        );
        assert_eq!(
            cache.build_seconds.count(),
            builds_before,
            "no build may run for a prefetched key"
        );

        // Hints for unknown keys are harmless no-ops.
        cache.hint(0xDEAD_BEEF, SimdLevel::detect());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(cache.stats().prefetches, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_poisoned_lock_does_not_wedge_the_cache() {
        let cache = Arc::new(GridCache::new(2));
        let rec = synthetic_receptor(3, 40, 5.0);
        cache.get_or_build(&rec, dims(), SimdLevel::detect());
        let holder = Arc::clone(&cache);
        let died = std::thread::spawn(move || {
            let _guard = holder.lock();
            panic!("a job dies holding the cache lock");
        })
        .join();
        assert!(died.is_err() && cache.inner.is_poisoned());
        let (_, source) = cache.get_or_build(&rec, dims(), SimdLevel::detect());
        assert_eq!(source, GridSource::Hit);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn concurrent_same_key_lookups_build_once() {
        let cache = Arc::new(GridCache::new(2));
        let rec = Arc::new(synthetic_receptor(9, 40, 5.0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                cache.get_or_build(&rec, dims(), SimdLevel::detect())
            }));
        }
        let results: Vec<(Arc<GridSet>, GridSource)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let misses = results
            .iter()
            .filter(|(_, src)| *src == GridSource::Built)
            .count();
        assert_eq!(misses, 1, "exactly one thread installs the entry");
        for (g, _) in &results {
            assert!(Arc::ptr_eq(g, &results[0].0));
        }
    }
}
