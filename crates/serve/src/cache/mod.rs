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
//! # The spill tier
//!
//! With many receptors in flight, the resident capacity thrashes: a
//! grid set evicted today is rebuilt tomorrow at full AutoGrid cost.
//! A cache built with a [`SpillConfig`] adds a bounded on-disk tier: on
//! eviction, the built [`GridSet`] is written through
//! [`mudock_grids::io::save`] into the spill directory (atomically —
//! temp file + rename), and the next miss on that key *reloads* it
//! instead of rebuilding. Loads are bit-exact (the format round-trips
//! f32 bit patterns), so a reloaded grid scores ligands identically to
//! the original build. The directory is bounded by
//! [`SpillConfig::capacity`]; the oldest spill files are deleted beyond
//! it. Spills and reloads are counted in [`CacheStats`] and surface in
//! `GET /stats`.
//!
//! # Warm restarts
//!
//! Spill files persist across process restarts. At construction, a
//! cache with a spill tier rescans its directory: files whose names
//! parse and whose contents pass [`mudock_grids::io::probe`] are
//! re-registered (oldest first), so a restarted node serves its first
//! job on a previously-seen receptor from disk instead of rebuilding.
//! Anything else — truncated writes, foreign bytes, unparseable names —
//! is *quarantined*: renamed with a `.bad` suffix and counted in
//! [`CacheStats::quarantined`], never loaded and never silently
//! deleted, so an operator can inspect what went wrong.
//!
//! # Policies, prefetch, and the trace lab
//!
//! Eviction victims are chosen by a [`policy::CachePolicy`] (default:
//! segmented LRU). A cache built with
//! [`GridCacheBuilder::prefetch`] additionally acts on *hints* from the
//! shard router ([`GridCache::hint`]): when the next queued job's grids
//! sit in the spill tier, a background thread reloads them before the
//! job is dequeued, overlapping disk latency with the previous job's
//! docking. Every event (accesses, evictions, spills, hints,
//! prefetches) can be recorded to a `*.trace` file
//! ([`GridCacheBuilder::trace`]) and replayed offline against
//! alternative policies — see [`trace`] for the format and
//! [`policy`] for the models; `cache_replay` in `mudock-bench` is the
//! driver. Policy choices steer *performance* only: reloads and
//! prefetched grids are byte-equal to fresh builds, and the
//! build-once-per-key invariant holds under every policy.
//!
//! # Lock ordering
//!
//! There are two locks: the cache's entry/file-table mutex and the
//! tracer's writer mutex. Spill I/O, grid builds, and trace writes all
//! happen *outside* the entry mutex (only same-key lookups ever wait on
//! disk or a build, inside their shared `OnceLock`), and the tracer
//! never takes the entry mutex — so the order is strictly
//! entries-then-nothing, and neither lock is ever held across the
//! other.
#![deny(missing_docs)]

pub mod policy;
pub mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mudock_grids::{grid_cache_key, GridBuilder, GridDims, GridSet, SimdLevel};
use mudock_mol::Molecule;
use mudock_obs::{Counter, GridSource, Histogram, Registry};
use parking_lot::Mutex;

use policy::CachePolicy;
use trace::{CacheTracer, TraceEventKind, TraceHeader};

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
    /// Canonical name of the replacement policy in force.
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

struct Entry {
    key: (u64, SimdLevel),
    slot: Arc<OnceLock<Arc<GridSet>>>,
    /// Logical timestamp of the last lookup — the LRU ordering.
    last_use: u64,
    /// SLRU segment: promoted on first hit, victims come from the
    /// probation (unprotected) segment first. Always `false` under
    /// plain LRU.
    protected: bool,
}

/// One spilled grid set on disk.
struct SpillFile {
    key: (u64, SimdLevel),
    path: PathBuf,
    /// Logical timestamp of the spill — the oldest file goes first
    /// when the directory is over capacity.
    tick: u64,
}

struct SpillState {
    cfg: SpillConfig,
    files: Vec<SpillFile>,
    /// Last age handed out to a file. Bumped on *every* table touch
    /// (register, refresh, reload) so ages are strictly increasing:
    /// two files touched by the same access — a reload refresh and an
    /// eviction's spill — still have a well-defined oldest, and the
    /// prune order matches the offline policy models exactly.
    seq: u64,
}

struct Inner {
    entries: Vec<Entry>,
    tick: u64,
    spill: Option<SpillState>,
}

/// An eviction's disk work, planned under the lock, performed outside
/// it: the grid set to write, its key, target path, and spill tick.
type PlannedSpill = (Arc<GridSet>, (u64, SimdLevel), PathBuf, u64);

/// Thread-safe cache of built grid sets with a selectable replacement
/// policy, an optional on-disk spill tier (warm across restarts), an
/// optional router-hint prefetcher, and an optional event trace.
/// Construct through [`GridCache::new`], [`GridCache::with_spill`], or
/// the full [`GridCache::builder`].
pub struct GridCache {
    capacity: usize,
    policy: CachePolicy,
    protected_cap: usize,
    prefetch: bool,
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

/// Configures a [`GridCache`] beyond its capacity: policy, spill tier,
/// prefetch, trace recording, and metrics. Obtained from
/// [`GridCache::builder`].
pub struct GridCacheBuilder {
    capacity: usize,
    policy: CachePolicy,
    spill: Option<SpillConfig>,
    trace_path: Option<PathBuf>,
    prefetch: bool,
    prefetch_metric: Arc<Counter>,
    build_seconds: Arc<Histogram>,
}

impl GridCacheBuilder {
    /// Select the replacement policy (default: [`CachePolicy::Slru`]).
    pub fn policy(mut self, policy: CachePolicy) -> GridCacheBuilder {
        self.policy = policy;
        self
    }

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
        let mut quarantined = 0u64;
        let spill = match self.spill {
            Some(cfg) => {
                if self.capacity == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "a spill tier needs cache capacity >= 1 (capacity 0 disables caching, \
                         so nothing would ever spill or reload)",
                    ));
                }
                std::fs::create_dir_all(&cfg.dir)?;
                let files = rescan_spill_dir(&cfg, &mut quarantined)?;
                let seq = files.len() as u64;
                Some(SpillState { cfg, files, seq })
            }
            None => None,
        };
        let tracer = match &self.trace_path {
            Some(path) => {
                let header = TraceHeader {
                    version: 1,
                    capacity: self.capacity,
                    spill_capacity: spill.as_ref().map_or(0, |s| s.cfg.capacity.max(1)),
                    policy: self.policy.name().to_string(),
                    prefetch: self.prefetch,
                };
                Some(CacheTracer::create(path, &header)?)
            }
            None => None,
        };
        if let (Some(t), Some(s)) = (&tracer, &spill) {
            t.emit(TraceEventKind::Warm {
                restored: s.files.len() as u64,
                quarantined,
            });
            for f in &s.files {
                t.emit(TraceEventKind::Restore { key: f.key });
            }
        }
        let tick0 = spill.as_ref().map_or(0, |s| s.files.len() as u64);
        Ok(GridCache {
            capacity: self.capacity,
            policy: self.policy,
            protected_cap: self.policy.protected_capacity(self.capacity),
            prefetch: self.prefetch,
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                tick: tick0,
                spill,
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

/// Parse a spill file name (`{key:016x}-{level}.grid`) back to its key.
fn parse_spill_name(name: &str) -> Option<(u64, SimdLevel)> {
    let stem = name.strip_suffix(".grid")?;
    let hex = stem.get(..16)?;
    let level = stem.get(16..)?.strip_prefix('-')?;
    Some((u64::from_str_radix(hex, 16).ok()?, SimdLevel::parse(level)?))
}

/// Rename a damaged spill-dir file aside (`<name>.bad`) instead of
/// loading or deleting it.
fn quarantine(path: &std::path::Path) {
    let mut bad = path.as_os_str().to_os_string();
    bad.push(".bad");
    std::fs::rename(path, &bad).ok();
}

/// Rescan a spill directory at startup: re-register valid spill files
/// (oldest first, bounded by the tier capacity), quarantine everything
/// else. `.bad` files from earlier quarantines are left untouched.
fn rescan_spill_dir(cfg: &SpillConfig, quarantined: &mut u64) -> std::io::Result<Vec<SpillFile>> {
    let mut found: Vec<(std::time::SystemTime, SpillFile)> = Vec::new();
    for entry in std::fs::read_dir(&cfg.dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let path = entry.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if name.ends_with(".bad") {
            continue;
        }
        let key = parse_spill_name(&name);
        if key.is_none() || mudock_grids::io::probe(&path).is_err() {
            quarantine(&path);
            *quarantined += 1;
            continue;
        }
        let mtime = entry
            .metadata()?
            .modified()
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        found.push((
            mtime,
            SpillFile {
                key: key.expect("checked above"),
                path,
                tick: 0,
            },
        ));
    }
    found.sort_by_key(|(mtime, _)| *mtime);
    let mut files: Vec<SpillFile> = found.into_iter().map(|(_, f)| f).collect();
    // The tier bound holds from the first instant: beyond-capacity
    // restores are valid files, so this is the ordinary prune (delete),
    // not quarantine.
    while files.len() > cfg.capacity.max(1) {
        let f = files.remove(0);
        std::fs::remove_file(&f.path).ok();
    }
    for (i, f) in files.iter_mut().enumerate() {
        f.tick = (i + 1) as u64;
    }
    Ok(files)
}

impl GridCache {
    /// Cache holding up to `capacity` grid sets under the default
    /// policy. Capacity 0 disables caching (every lookup builds and
    /// counts as a miss).
    pub fn new(capacity: usize) -> GridCache {
        Self::builder(capacity)
            .build()
            .expect("no I/O is configured, construction cannot fail")
    }

    /// Like [`GridCache::new`], but evicted grid sets spill to disk
    /// under `spill.dir` and are reloaded — bit-identically — on the
    /// next miss instead of being rebuilt, and files already present in
    /// the directory are re-registered (warm restart). The directory is
    /// created eagerly so a misconfigured path fails at service start,
    /// not at the first eviction. `capacity` must be at least 1:
    /// capacity 0 disables caching (lookups never install entries, so
    /// nothing would ever spill) — refusing it here beats silently
    /// ignoring the spill tier the caller configured.
    pub fn with_spill(capacity: usize, spill: SpillConfig) -> std::io::Result<GridCache> {
        Self::builder(capacity).spill(spill).build()
    }

    /// Start configuring a cache of `capacity` entries.
    pub fn builder(capacity: usize) -> GridCacheBuilder {
        GridCacheBuilder {
            capacity,
            policy: CachePolicy::default(),
            spill: None,
            trace_path: None,
            prefetch: false,
            prefetch_metric: Arc::new(Counter::new()),
            build_seconds: Arc::new(Histogram::new()),
        }
    }

    /// The replacement policy in force.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Whether router hints trigger background spill reloads.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch
    }

    fn trace_event(&self, kind: TraceEventKind) {
        if let Some(t) = &self.tracer {
            t.emit(kind);
        }
    }

    fn grid_bytes(grids: &GridSet) -> u64 {
        (grids.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// The victim slot under the configured policy: the least-recently
    /// used *probation* entry when a protected segment exists (SLRU),
    /// the global LRU entry otherwise. The probation segment is never
    /// empty while over capacity (the protected segment is bounded to
    /// at most half), so the fallback only guards degenerate states.
    fn victim_index(protected_cap: usize, entries: &[Entry]) -> usize {
        let probation = if protected_cap > 0 {
            entries
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.protected)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
        } else {
            None
        };
        probation.unwrap_or_else(|| {
            entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("capacity > 0 and entries is non-empty")
        })
    }

    /// Caller holds the lock. When the resident set is at capacity,
    /// evict the policy's victim: returns its key, the spill write to
    /// perform outside the lock, and any files the spill-tier bound
    /// prunes. Spills only finished builds: an in-flight eviction has
    /// nothing to write yet (its slot fills after the detached build
    /// completes).
    #[allow(clippy::type_complexity)]
    fn evict_if_full(
        &self,
        inner: &mut Inner,
        tick: u64,
    ) -> (
        Option<(u64, SimdLevel)>,
        Option<PlannedSpill>,
        Vec<SpillFile>,
    ) {
        if inner.entries.len() < self.capacity {
            return (None, None, Vec::new());
        }
        let victim = Self::victim_index(self.protected_cap, &inner.entries);
        let evicted = inner.entries.swap_remove(victim);
        let mut save = None;
        let mut delete = Vec::new();
        if let (Some(state), Some(grids)) = (inner.spill.as_mut(), evicted.slot.get()) {
            save = Self::plan_spill(state, evicted.key, Arc::clone(grids), tick, &mut delete);
        }
        (Some(evicted.key), save, delete)
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

        let (slot, hit, reload_from, evicted_key, spill_save, spill_delete) = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.entries.iter().position(|e| e.key == key) {
                Some(i) => {
                    inner.entries[i].last_use = tick;
                    if self.protected_cap > 0 && !inner.entries[i].protected {
                        inner.entries[i].protected = true;
                        // Keep the protected segment bounded: demote its
                        // own LRU entries back to probation. The entry
                        // just promoted carries the newest stamp, so it
                        // is never its own demotion victim.
                        while inner.entries.iter().filter(|e| e.protected).count()
                            > self.protected_cap
                        {
                            if let Some(d) = inner
                                .entries
                                .iter_mut()
                                .filter(|e| e.protected)
                                .min_by_key(|e| e.last_use)
                            {
                                d.protected = false;
                            }
                        }
                    }
                    let slot = Arc::clone(&inner.entries[i].slot);
                    (slot, true, None, None, None, Vec::new())
                }
                None => {
                    // A spilled copy of this key is about to get hot
                    // again: refresh its age so the over-capacity prune
                    // below prefers genuinely cold files.
                    let reload = inner.spill.as_mut().and_then(|s| {
                        let i = s.files.iter().position(|f| f.key == key)?;
                        s.seq += 1;
                        s.files[i].tick = s.seq;
                        Some(s.files[i].path.clone())
                    });
                    let (evicted, save, delete) = self.evict_if_full(&mut inner, tick);
                    let slot = Arc::new(OnceLock::new());
                    inner.entries.push(Entry {
                        key,
                        slot: Arc::clone(&slot),
                        last_use: tick,
                        protected: false,
                    });
                    (slot, false, reload, evicted, save, delete)
                }
            }
        };
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(k) = evicted_key {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.trace_event(TraceEventKind::Evict { key: k });
        }
        // All spill I/O runs outside the cache lock: only same-key
        // lookups ever wait on disk (or on a build, in `get_or_init`),
        // never the whole cache.
        self.commit_spill_io(spill_save, spill_delete);
        // Disambiguated only by the thread that actually initializes the
        // slot: a concurrent same-key caller that joins an in-flight
        // build reports `Hit` (the work ran once either way).
        let source = std::cell::Cell::new(if hit {
            GridSource::Hit
        } else {
            GridSource::Built
        });
        let grids = Arc::clone(slot.get_or_init(|| {
            if let Some(path) = &reload_from {
                match mudock_grids::io::load(path) {
                    Ok(gs) => {
                        self.reloads.fetch_add(1, Ordering::Relaxed);
                        source.set(GridSource::Reloaded);
                        return Arc::new(gs);
                    }
                    // Registered but not on disk yet: a concurrent
                    // spill's rename has not landed. Deregister and
                    // rebuild (the spiller re-registers once its write
                    // completes) — but delete nothing, or we could
                    // race ahead and remove the valid file it is about
                    // to produce.
                    Err(mudock_grids::GridIoError::Io(ref io))
                        if io.kind() == std::io::ErrorKind::NotFound =>
                    {
                        self.forget_spill_file(path);
                    }
                    // Truncated, corrupt, or foreign: drop the file
                    // and rebuild — the spill tier is an optimization,
                    // never a correctness dependency.
                    Err(_) => {
                        self.forget_spill_file(path);
                        std::fs::remove_file(path).ok();
                    }
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
        let path = {
            let inner = self.inner.lock();
            if inner.entries.iter().any(|e| e.key == key) {
                return;
            }
            match inner
                .spill
                .as_ref()
                .and_then(|s| s.files.iter().find(|f| f.key == key))
            {
                Some(f) => f.path.clone(),
                None => return,
            }
        };
        if self.prefetch_busy.swap(true, Ordering::AcqRel) {
            return;
        }
        let cache = Arc::clone(self);
        std::thread::spawn(move || {
            cache.prefetch_load(key, &path);
            cache.prefetch_busy.store(false, Ordering::Release);
        });
    }

    /// Background half of [`GridCache::hint`]: load the spilled grids,
    /// then admit them as a pre-filled entry (load-before-admit, so a
    /// failed load admits nothing and the demand path simply rebuilds).
    fn prefetch_load(&self, key: (u64, SimdLevel), path: &std::path::Path) {
        let t0 = Instant::now();
        match mudock_grids::io::load(path) {
            Ok(gs) => {
                let slot = Arc::new(OnceLock::new());
                let _ = slot.set(Arc::new(gs));
                let (installed, evicted_key, save, delete) = {
                    let mut inner = self.inner.lock();
                    inner.tick += 1;
                    let tick = inner.tick;
                    if inner.entries.iter().any(|e| e.key == key) {
                        // A demand lookup admitted it while we loaded;
                        // drop our copy, its slot is authoritative.
                        (false, None, None, Vec::new())
                    } else {
                        if let Some(s) = inner.spill.as_mut() {
                            if let Some(i) = s.files.iter().position(|f| f.key == key) {
                                s.seq += 1;
                                s.files[i].tick = s.seq;
                            }
                        }
                        let (evicted, save, delete) = self.evict_if_full(&mut inner, tick);
                        inner.entries.push(Entry {
                            key,
                            slot,
                            last_use: tick,
                            protected: false,
                        });
                        (true, evicted, save, delete)
                    }
                };
                if installed {
                    if let Some(k) = evicted_key {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        self.trace_event(TraceEventKind::Evict { key: k });
                    }
                    self.reloads.fetch_add(1, Ordering::Relaxed);
                    self.prefetches.fetch_add(1, Ordering::Relaxed);
                    self.prefetch_metric.inc();
                    self.trace_event(TraceEventKind::Prefetch {
                        key,
                        dur_ns: elapsed_ns(t0),
                    });
                    self.commit_spill_io(save, delete);
                }
            }
            Err(e) => {
                // Same semantics as the demand reload path: a missing
                // file means a racing spill has not landed (deregister,
                // delete nothing); anything else is damage (deregister
                // and remove).
                self.forget_spill_file(path);
                let racing = matches!(
                    &e,
                    mudock_grids::GridIoError::Io(io) if io.kind() == std::io::ErrorKind::NotFound
                );
                if !racing {
                    std::fs::remove_file(path).ok();
                }
            }
        }
    }

    /// Perform an eviction's planned disk work (outside the lock):
    /// prune over-capacity files, write the spill, and keep the file
    /// table honest against racing reload-misses.
    fn commit_spill_io(&self, save: Option<PlannedSpill>, delete: Vec<SpillFile>) {
        for f in delete {
            std::fs::remove_file(&f.path).ok();
            self.trace_event(TraceEventKind::SpillDrop { key: f.key });
        }
        if let Some((grids, spill_key, path, tick)) = save {
            if Self::save_atomic(&grids, &path, tick).is_ok() {
                self.spills.fetch_add(1, Ordering::Relaxed);
                self.trace_event(TraceEventKind::Spill {
                    key: spill_key,
                    bytes: Self::grid_bytes(&grids),
                });
                // A concurrent reload-miss may have hit ENOENT in the
                // window before our rename landed and deregistered the
                // file. The file is on disk now: re-register it, or it
                // would escape the capacity bound (and pruning) for
                // good.
                for stale in self.reregister_spill_file(spill_key, &path) {
                    std::fs::remove_file(&stale.path).ok();
                    self.trace_event(TraceEventKind::SpillDrop { key: stale.key });
                }
            } else {
                // Nothing usable landed on disk; deregister the file so
                // a later miss rebuilds instead of chasing a ghost.
                self.forget_spill_file(&path);
            }
        }
    }

    /// Register the eviction in the spill file table (bounding it to
    /// the configured capacity) and hand back what to write — `None`
    /// when the key is already spilled: grid content is immutable per
    /// key, so the bytes on disk are identical and rewriting them
    /// every time a reloaded entry is re-evicted (the steady state of
    /// targets ping-ponging through a small cache) would be pure
    /// wasted I/O. The write itself happens outside the cache lock.
    fn plan_spill(
        state: &mut SpillState,
        key: (u64, SimdLevel),
        grids: Arc<GridSet>,
        tick: u64,
        delete: &mut Vec<SpillFile>,
    ) -> Option<PlannedSpill> {
        let path = state
            .cfg
            .dir
            .join(format!("{:016x}-{}.grid", key.0, key.1.name()));
        Self::register_spill_file(state, key, &path, delete).then_some((grids, key, path, tick))
    }

    /// Insert `key` into the file table and collect over-capacity
    /// victims into `delete`. Returns whether the key is *new* (needs
    /// its file written); an existing entry just has its age
    /// refreshed. Either way the file takes the next age from
    /// `state.seq`.
    fn register_spill_file(
        state: &mut SpillState,
        key: (u64, SimdLevel),
        path: &std::path::Path,
        delete: &mut Vec<SpillFile>,
    ) -> bool {
        state.seq += 1;
        let age = state.seq;
        if let Some(f) = state.files.iter_mut().find(|f| f.key == key) {
            f.tick = age;
            return false;
        }
        state.files.push(SpillFile {
            key,
            path: path.to_path_buf(),
            tick: age,
        });
        while state.files.len() > state.cfg.capacity.max(1) {
            let oldest = state
                .files
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| f.tick)
                .map(|(i, _)| i)
                .expect("len > capacity >= 1");
            delete.push(state.files.swap_remove(oldest));
        }
        true
    }

    /// Put a just-written spill file back in the table if a racing
    /// reload-miss deregistered it mid-write; returns any files the
    /// capacity bound now prunes.
    fn reregister_spill_file(
        &self,
        key: (u64, SimdLevel),
        path: &std::path::Path,
    ) -> Vec<SpillFile> {
        let mut inner = self.inner.lock();
        let mut delete = Vec::new();
        if let Some(state) = inner.spill.as_mut() {
            Self::register_spill_file(state, key, path, &mut delete);
        }
        delete
    }

    /// Write-then-rename so a reader never sees a torn spill file; the
    /// temp name carries the spill tick so two racing spills of the
    /// same key cannot interleave into one temp file.
    fn save_atomic(
        grids: &GridSet,
        path: &std::path::Path,
        tick: u64,
    ) -> Result<(), mudock_grids::GridIoError> {
        let tmp = path.with_extension(format!("tmp{tick}"));
        mudock_grids::io::save(grids, &tmp)?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            std::fs::remove_file(&tmp).ok();
            return Err(e.into());
        }
        Ok(())
    }

    fn forget_spill_file(&self, path: &std::path::Path) {
        let mut inner = self.inner.lock();
        if let Some(s) = &mut inner.spill {
            s.files.retain(|f| f.path != path);
        }
    }

    fn build(&self, receptor: &Molecule, dims: GridDims, level: SimdLevel) -> Arc<GridSet> {
        let t0 = Instant::now();
        let grids = GridBuilder::new(receptor, dims).build_simd(level);
        self.build_seconds.record(t0.elapsed());
        Arc::new(grids)
    }

    /// A counter snapshot (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            prefetches: self.prefetches.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            entries: inner.entries.len(),
            spilled: inner.spill.as_ref().map_or(0, |s| s.files.len()),
            policy: self.policy.name(),
        }
    }

    /// Drop every resident entry (counters are preserved).
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
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
    fn lru_evicts_the_coldest_entry() {
        let cache = GridCache::new(2);
        let r1 = synthetic_receptor(1, 30, 5.0);
        let r2 = synthetic_receptor(2, 30, 5.0);
        let r3 = synthetic_receptor(3, 30, 5.0);
        cache.get_or_build(&r1, dims(), SimdLevel::detect());
        cache.get_or_build(&r2, dims(), SimdLevel::detect());
        cache.get_or_build(&r1, dims(), SimdLevel::detect()); // r1 hot, r2 cold
        cache.get_or_build(&r3, dims(), SimdLevel::detect()); // evicts r2
        assert_eq!(cache.stats().evictions, 1);
        let (_, r1_src) = cache.get_or_build(&r1, dims(), SimdLevel::detect());
        assert_eq!(
            r1_src,
            GridSource::Hit,
            "the hot entry must survive the eviction"
        );
        let (_, r2_src) = cache.get_or_build(&r2, dims(), SimdLevel::detect());
        assert_eq!(
            r2_src,
            GridSource::Built,
            "the cold entry must have been evicted"
        );
    }

    #[test]
    fn slru_protects_a_hot_entry_from_a_scan() {
        // A is accessed twice (promoted to the protected segment), then
        // a scan of one-shot keys pours through. Under SLRU the scan
        // churns the probation segment and A survives; under plain LRU
        // the same sequence evicts A.
        let r_a = synthetic_receptor(1, 30, 5.0);
        let scan: Vec<_> = (2..=4).map(|s| synthetic_receptor(s, 30, 5.0)).collect();
        let run = |policy: CachePolicy| {
            let cache = GridCache::builder(2).policy(policy).build().unwrap();
            cache.get_or_build(&r_a, dims(), SimdLevel::detect());
            cache.get_or_build(&r_a, dims(), SimdLevel::detect());
            for r in &scan {
                cache.get_or_build(r, dims(), SimdLevel::detect());
            }
            let (_, src) = cache.get_or_build(&r_a, dims(), SimdLevel::detect());
            src
        };
        assert_eq!(
            run(CachePolicy::Slru),
            GridSource::Hit,
            "slru must keep the twice-accessed key through the scan"
        );
        assert_eq!(
            run(CachePolicy::Lru),
            GridSource::Built,
            "plain lru loses the hot key to the scan (the contrast slru exists for)"
        );
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
