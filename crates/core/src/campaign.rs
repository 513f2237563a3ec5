//! The campaign API: one typed run description for every entry point.
//!
//! A docking *campaign* is everything that defines a run except where its
//! molecules come from and where its results land: the GA configuration,
//! the seed, and three orthogonal **policy objects** that replace the
//! loose knobs previously scattered across `DockParams`, `core::screen`
//! arguments, `serve::JobSpec` fields, and CLI flags:
//!
//! * [`BackendPolicy`] — which kernel implementation scores poses:
//!   auto-detect the widest SIMD level, fix an exact [`Backend`], or pin
//!   a [`SimdLevel`] per job so heterogeneous clients can share a node
//!   (grids are then built *and cached* at that level);
//! * [`StopPolicy`] — when the run may end before the input is
//!   exhausted: never, after an evaluation budget, at a wall-clock
//!   deadline, or once the top-k ranking has stopped moving
//!   ([`StopPolicy::RankingStable`]);
//! * [`ChunkPolicy`] — how work is batched for scheduling and
//!   checkpointing: a fixed ligand count, or adaptively sized from the
//!   measured per-ligand cost so checkpoint granularity stays roughly
//!   constant in *seconds* regardless of GA parameters.
//!
//! A [`CampaignSpec`] is built through [`Campaign::builder`], which
//! rejects invalid configurations (zero top-k, empty chunks, non-finite
//! radii, impossible GA shapes, unsupported SIMD pins) at build time with
//! a typed [`CampaignError`] — not deep inside an executor thread.
//!
//! # Worked example — all three policies
//!
//! Pin the job to SSE2 (every x86-64 host has it), stop once the top-3
//! ranking holds still for two consecutive chunks, and let the chunk
//! sizer aim for ~50 ms of work per chunk:
//!
//! ```
//! use std::time::Duration;
//! use mudock_core::{screen_campaign, Campaign, BackendPolicy, ChunkPolicy, StopPolicy};
//! use mudock_grids::GridBuilder;
//! use mudock_simd::SimdLevel;
//!
//! let spec = Campaign::builder()
//!     .name("worked-example")
//!     .population(10)
//!     .generations(4)
//!     .seed(7)
//!     .search_radius(3.5)
//!     .pin_level(SimdLevel::Scalar) // per-job SIMD pin
//!     .stop(StopPolicy::RankingStable { window: 2, epsilon: 0.0 }) // early stop
//!     .chunk(ChunkPolicy::Adaptive { target: Duration::from_millis(50) })
//!     .top_k(3)
//!     .build()
//!     .expect("a valid campaign");
//!
//! let receptor = mudock_molio::synthetic_receptor(1, 80, 8.0);
//! let ligands = mudock_molio::mediate_like_set(7, 8);
//! let dims = spec.dims_for(&receptor);
//! let grids = GridBuilder::new(&receptor, dims).build_simd(spec.grid_level());
//! let summary = screen_campaign(&grids, &ligands, &spec, 1);
//! assert!(summary.results.len() <= 8); // RankingStable may stop early
//! assert!(summary.top_k(3).len() <= 3);
//! ```
//!
//! The same `spec` drives every other entry point: one-shot docking
//! ([`DockingEngine::dock_campaign`](crate::engine::DockingEngine::dock_campaign)),
//! service jobs (`mudock_serve::JobSpec::from(spec)`), and the `mudock`
//! CLI — one workload description, many execution strategies.

use std::time::{Duration, Instant};

use mudock_grids::GridDims;
use mudock_mol::Molecule;
use mudock_simd::SimdLevel;

use crate::engine::{Backend, DockParams};
use crate::ga::GaParams;
use crate::local_search::SolisWetsParams;

/// Which kernel implementation a campaign scores with.
///
/// The paper's portability result is that the *same* kernel source
/// adapts per host; this policy makes the choice a per-campaign property
/// instead of a global. `Fixed(Backend::Explicit(level))` is the
/// serve-layer "SIMD-level pinning per job": grids are built and cached
/// at the pinned level, so two clients pinning different levels on one
/// node get distinct `(fingerprint, dims, level)` cache entries rather
/// than poisoning each other's grids.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendPolicy {
    /// Use the widest SIMD level the host supports (the default).
    #[default]
    Detect,
    /// Use exactly this backend: explicit SIMD pinned at one level for
    /// the whole campaign, or one of the non-SIMD arms
    /// ([`Backend::Reference`], [`Backend::AutoVec`]).
    Fixed(Backend),
}

impl BackendPolicy {
    /// The concrete [`Backend`] this policy scores poses with.
    /// [`BackendPolicy::Detect`] honors the `MUDOCK_BACKEND`
    /// environment pin (see [`Backend::auto`]); explicit policies
    /// always win over the environment.
    pub fn resolve(self) -> Backend {
        match self {
            BackendPolicy::Detect => Backend::auto(),
            BackendPolicy::Fixed(b) => b,
        }
    }

    /// The SIMD level receptor grids are built (and cache-keyed) at.
    ///
    /// Pinned campaigns build grids at their pinned level so the whole
    /// run — precomputation included — executes the requested strategy.
    /// The scalar arms build at [`SimdLevel::Scalar`] for full
    /// reproducibility; [`BackendPolicy::Detect`] takes the host's best.
    pub fn grid_level(self) -> SimdLevel {
        match self {
            BackendPolicy::Detect => match Backend::auto() {
                Backend::Explicit(l) => l,
                // An env pin to a scalar arm builds grids at Scalar for
                // full reproducibility, same as Fixed(Reference/AutoVec).
                _ => SimdLevel::Scalar,
            },
            BackendPolicy::Fixed(Backend::Explicit(l)) => l,
            BackendPolicy::Fixed(_) => SimdLevel::Scalar,
        }
    }

    /// Is this policy runnable on the current host?
    pub fn is_supported(self) -> bool {
        match self {
            BackendPolicy::Detect => true,
            BackendPolicy::Fixed(Backend::Explicit(l)) => l.is_supported(),
            BackendPolicy::Fixed(_) => true,
        }
    }
}

/// How a campaign's jobs share a node's executor slots with jobs for
/// *other* receptors.
///
/// A screening node serves many targets at once; without sharding, a
/// burst of jobs against one hot receptor drains the whole queue ahead
/// of everyone else and monopolizes every executor slot. The serve
/// layer groups queued jobs into per-receptor *shards* (keyed by the
/// grid content fingerprint, [`mudock_grids::hash`]) and picks the next
/// job from the least-served shard. This policy is the job's stance in
/// that arbitration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ShardPolicy {
    /// Participate with weight 1: every receptor gets an equal share of
    /// the executor slots (the default).
    #[default]
    FairShare,
    /// Participate with this relative weight (finite, positive). A job
    /// with weight 2 tolerates twice the shard occupancy of a weight-1
    /// job before yielding to other receptors.
    Weighted(f32),
    /// Opt out of per-receptor grouping: all single-queue jobs share
    /// one *unsharded* group, ordered purely by priority and
    /// submission order among themselves (the pre-sharding rules),
    /// regardless of receptor. The group as a whole still competes
    /// for executor slots — and is capped — like any single shard, so
    /// opting out never outranks the fairness machinery.
    SingleQueue,
}

/// Largest accepted [`ShardPolicy::Weighted`] weight. A weight beyond
/// this is indistinguishable from opting out of fairness — which is
/// what [`ShardPolicy::SingleQueue`] says explicitly.
pub const MAX_SHARD_WEIGHT: f32 = 1024.0;

impl ShardPolicy {
    /// The relative scheduling weight this policy claims.
    pub fn weight(self) -> f32 {
        match self {
            ShardPolicy::FairShare | ShardPolicy::SingleQueue => 1.0,
            ShardPolicy::Weighted(w) => w,
        }
    }

    /// Whether jobs under this policy join per-receptor shard
    /// accounting ([`ShardPolicy::SingleQueue`] bypasses it).
    pub fn is_sharded(self) -> bool {
        !matches!(self, ShardPolicy::SingleQueue)
    }
}

/// When a campaign may end before its input is exhausted.
///
/// Screening runs check the policy at chunk boundaries; one-shot docking
/// checks it at generation boundaries. Stopping early never discards
/// completed work — results already produced keep their exact values, so
/// an early-stopped ranking is always a prefix-consistent subset of the
/// full run's.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum StopPolicy {
    /// Run until the input is exhausted (the default).
    #[default]
    Complete,
    /// Stop once this many pose evaluations have been spent (live work;
    /// chunks replayed from a checkpoint are free and do not count).
    MaxEvaluations(u64),
    /// Stop at a wall-clock budget measured from execution start.
    Deadline(Duration),
    /// Stop once the top-k ranking has been stable for `window`
    /// consecutive checks: no rank's score moved by more than `epsilon`
    /// (kcal/mol) and the ranking kept its length. The serve layer wires
    /// this through the per-chunk `ChunkProgress::cancel` hook it already
    /// exposes to user callbacks.
    RankingStable {
        /// Consecutive stable checks required before stopping.
        window: usize,
        /// Maximum per-rank score movement still counted as stable.
        epsilon: f32,
    },
}

/// How a screening campaign batches ligands for scheduling, result
/// flushing, and checkpointing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChunkPolicy {
    /// Every chunk holds exactly this many ligands (the default: 16).
    /// Must be between 1 and [`MAX_CHUNK`]; the builder rejects values
    /// outside that range.
    Fixed(usize),
    /// Size each chunk from the measured per-ligand docking cost so one
    /// chunk takes roughly `target` of wall-clock time — checkpoint
    /// granularity stays ~seconds whether the GA runs 5 generations or
    /// 5000. The first chunk is a small probe.
    Adaptive {
        /// Wall-clock time one chunk should take.
        target: Duration,
    },
}

impl Default for ChunkPolicy {
    fn default() -> Self {
        ChunkPolicy::Fixed(16)
    }
}

/// Ligands per adaptive probe chunk (before any cost measurement).
const ADAPTIVE_PROBE: usize = 4;
/// Hard ceiling on any chunk size (bounds checkpoint loss on a crash).
/// [`ChunkPolicy::Fixed`] values above it are rejected at build time;
/// [`ChunkPolicy::Adaptive`] sizing saturates here.
pub const MAX_CHUNK: usize = 4096;

/// Picks the next chunk size under a [`ChunkPolicy`], learning the
/// per-ligand cost from completed chunks.
///
/// Purely advisory state: chunk *boundaries* may differ between runs
/// (adaptive sizing measures wall-clock time), but per-ligand results
/// never do — seeds are keyed on the global batch index, and checkpoint
/// replay uses each recorded chunk's own size.
#[derive(Clone, Debug)]
pub struct ChunkSizer {
    policy: ChunkPolicy,
    /// EWMA of seconds per ligand, `None` until the first observation.
    cost: Option<f64>,
}

impl ChunkSizer {
    pub fn new(policy: ChunkPolicy) -> ChunkSizer {
        ChunkSizer { policy, cost: None }
    }

    /// Size of the next chunk to dock.
    pub fn next_size(&self) -> usize {
        match self.policy {
            ChunkPolicy::Fixed(n) => n.clamp(1, MAX_CHUNK),
            ChunkPolicy::Adaptive { target } => match self.cost {
                None => ADAPTIVE_PROBE,
                Some(per_ligand) => {
                    let ideal = target.as_secs_f64() / per_ligand.max(1e-9);
                    (ideal.round() as usize).clamp(1, MAX_CHUNK)
                }
            },
        }
    }

    /// Record a completed chunk's measured cost.
    pub fn observe(&mut self, ligands: usize, elapsed: Duration) {
        if ligands == 0 {
            return;
        }
        let per_ligand = elapsed.as_secs_f64() / ligands as f64;
        self.cost = Some(match self.cost {
            None => per_ligand,
            // EWMA: adapt to drifting ligand sizes without thrashing.
            Some(prev) => 0.5 * prev + 0.5 * per_ligand,
        });
    }
}

/// Evaluates a [`StopPolicy`] against a running campaign.
///
/// Feed it the cumulative live evaluation count and the current top-k
/// ranking (`(score, global_index)` pairs, best first) at every chunk or
/// generation boundary; it answers whether the policy says stop.
#[derive(Clone, Debug)]
pub struct StopCheck {
    started: Instant,
    stable_checks: usize,
    prev_ranking: Option<Vec<f32>>,
}

impl Default for StopCheck {
    fn default() -> Self {
        Self::new()
    }
}

impl StopCheck {
    pub fn new() -> StopCheck {
        StopCheck {
            started: Instant::now(),
            stable_checks: 0,
            prev_ranking: None,
        }
    }

    /// Should the campaign stop now? Call once per boundary; the
    /// ranking-stability window counts *calls*, so the caller controls
    /// the check cadence.
    pub fn should_stop(
        &mut self,
        policy: &StopPolicy,
        evaluations: u64,
        ranking: &[(f32, usize)],
    ) -> bool {
        match policy {
            StopPolicy::Complete => false,
            StopPolicy::MaxEvaluations(max) => evaluations >= *max,
            StopPolicy::Deadline(budget) => self.started.elapsed() >= *budget,
            StopPolicy::RankingStable { window, epsilon } => {
                let scores: Vec<f32> = ranking.iter().map(|&(s, _)| s).collect();
                let stable = match &self.prev_ranking {
                    Some(prev) if prev.len() == scores.len() && !scores.is_empty() => prev
                        .iter()
                        .zip(&scores)
                        .all(|(a, b)| (a - b).abs() <= *epsilon),
                    _ => false,
                };
                self.stable_checks = if stable { self.stable_checks + 1 } else { 0 };
                self.prev_ranking = Some(scores);
                self.stable_checks >= *window
            }
        }
    }
}

/// A typed rejection from [`CampaignBuilder::build`].
///
/// Every variant is a configuration that previously either panicked deep
/// in an executor (`GaParams` assertions), was silently clamped
/// (`chunk_size.max(1)`), or produced a degenerate run (top-k of zero).
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignError {
    /// `top_k` must retain at least one ligand.
    InvalidTopK(usize),
    /// Fixed chunk size of zero, or an adaptive target of zero.
    InvalidChunk(String),
    /// Search radius must be finite and positive (Å).
    InvalidRadius(f32),
    /// GA shape the engine cannot run (population < 2, zero tournament,
    /// elitism ≥ population, zero generations).
    InvalidGa(String),
    /// Stop policy with an empty budget or window.
    InvalidStop(String),
    /// Shard weight that is non-finite, non-positive, or absurd.
    InvalidShard(String),
    /// The pinned backend is not runnable on this host.
    UnsupportedBackend(String),
    /// Pinned grid lattice with an axis of fewer than 2 points (no cell to
    /// interpolate in).
    InvalidGrid([u32; 3]),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::InvalidTopK(k) => {
                write!(f, "top-k of {k} retains nothing; use k >= 1")
            }
            CampaignError::InvalidChunk(why) => write!(f, "invalid chunk policy: {why}"),
            CampaignError::InvalidRadius(r) => {
                write!(f, "search radius {r} Å must be finite and positive")
            }
            CampaignError::InvalidGa(why) => write!(f, "invalid GA configuration: {why}"),
            CampaignError::InvalidStop(why) => write!(f, "invalid stop policy: {why}"),
            CampaignError::InvalidShard(why) => write!(f, "invalid shard policy: {why}"),
            CampaignError::UnsupportedBackend(which) => {
                write!(f, "backend {which} is not supported on this host")
            }
            CampaignError::InvalidGrid(npts) => {
                write!(
                    f,
                    "grid lattice {npts:?} needs at least 2 points on every axis"
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// A validated, fully-typed description of one docking campaign.
///
/// Construct through [`Campaign::builder`]; every entry point — one-shot
/// [`dock_campaign`](crate::engine::DockingEngine::dock_campaign), batch
/// [`screen_campaign`](crate::screen::screen_campaign), `mudock-serve`
/// jobs, and the CLI — consumes this one shape.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Human-readable campaign name (job reports, JSONL lines).
    pub name: String,
    /// GA hyper-parameters for every ligand's pose search.
    pub ga: GaParams,
    /// Base RNG seed (per-ligand seeds derive via
    /// [`ligand_seed`](crate::screen::ligand_seed)).
    pub seed: u64,
    /// Half-side of the translation search box (Å); grid-derived when
    /// `None`.
    pub search_radius: Option<f32>,
    /// Optional Solis–Wets Lamarckian refinement.
    pub local_search: Option<SolisWetsParams>,
    /// Which kernel implementation scores poses.
    pub backend: BackendPolicy,
    /// When the campaign may end early.
    pub stop: StopPolicy,
    /// How ligands are batched into chunks.
    pub chunk: ChunkPolicy,
    /// How this campaign's jobs share a node with other receptors'.
    pub shard: ShardPolicy,
    /// Ranking size retained by top-k accumulators.
    pub top_k: usize,
    /// Grid lattice; derived from the receptor geometry when `None`.
    pub grid_dims: Option<GridDims>,
}

impl Default for CampaignSpec {
    /// The default campaign is what `Campaign::builder().build()` yields.
    fn default() -> Self {
        Campaign::builder()
            .build()
            .expect("the default campaign is valid by construction")
    }
}

impl CampaignSpec {
    /// Start building a campaign (same as [`Campaign::builder`]).
    pub fn builder() -> CampaignBuilder {
        Campaign::builder()
    }

    /// Lower the spec to the kernel-level [`DockParams`] it describes.
    pub fn dock_params(&self) -> DockParams {
        DockParams {
            ga: self.ga,
            seed: self.seed,
            backend: self.backend.resolve(),
            search_radius: self.search_radius,
            local_search: self.local_search,
        }
    }

    /// The SIMD level grids are built (and cache-keyed) at.
    pub fn grid_level(&self) -> SimdLevel {
        self.backend.grid_level()
    }

    /// The lattice this campaign docks on: the pinned `grid_dims`, or
    /// the standard receptor-derived screening lattice.
    pub fn dims_for(&self, receptor: &Molecule) -> GridDims {
        self.grid_dims.unwrap_or_else(|| {
            let extent = (receptor.radius() + 3.0).clamp(8.0, 14.0);
            GridDims::centered(receptor.centroid(), extent, 0.55)
        })
    }

    /// A fresh chunk sizer for this campaign's [`ChunkPolicy`].
    pub fn chunk_sizer(&self) -> ChunkSizer {
        ChunkSizer::new(self.chunk)
    }
}

/// Entry point to the builder (`Campaign::builder()` reads naturally at
/// call sites; the built value is a [`CampaignSpec`]).
pub struct Campaign;

impl Campaign {
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder::default()
    }
}

/// Builder for [`CampaignSpec`] — the only validated construction path.
#[derive(Clone, Debug, Default)]
pub struct CampaignBuilder {
    name: String,
    ga: Option<GaParams>,
    seed: Option<u64>,
    search_radius: Option<f32>,
    local_search: Option<SolisWetsParams>,
    backend: BackendPolicy,
    stop: StopPolicy,
    chunk: ChunkPolicy,
    shard: ShardPolicy,
    top_k: Option<usize>,
    grid_dims: Option<GridDims>,
}

impl CampaignBuilder {
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replace the whole GA configuration.
    pub fn ga(mut self, ga: GaParams) -> Self {
        self.ga = Some(ga);
        self
    }

    /// Individuals per generation (keeps the other GA defaults).
    pub fn population(mut self, population: usize) -> Self {
        let mut ga = self.ga.unwrap_or_default();
        ga.population = population;
        self.ga = Some(ga);
        self
    }

    /// Generations to run (keeps the other GA defaults).
    pub fn generations(mut self, generations: usize) -> Self {
        let mut ga = self.ga.unwrap_or_default();
        ga.generations = generations;
        self.ga = Some(ga);
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Half-side of the translation search box (Å).
    pub fn search_radius(mut self, radius: f32) -> Self {
        self.search_radius = Some(radius);
        self
    }

    /// Enable Solis–Wets Lamarckian refinement.
    pub fn local_search(mut self, params: SolisWetsParams) -> Self {
        self.local_search = Some(params);
        self
    }

    pub fn backend(mut self, policy: BackendPolicy) -> Self {
        self.backend = policy;
        self
    }

    /// Shorthand for `BackendPolicy::Fixed(Backend::Explicit(level))`.
    pub fn pin_level(self, level: SimdLevel) -> Self {
        self.backend(BackendPolicy::Fixed(Backend::Explicit(level)))
    }

    pub fn stop(mut self, policy: StopPolicy) -> Self {
        self.stop = policy;
        self
    }

    pub fn chunk(mut self, policy: ChunkPolicy) -> Self {
        self.chunk = policy;
        self
    }

    pub fn shard(mut self, policy: ShardPolicy) -> Self {
        self.shard = policy;
        self
    }

    /// Shorthand for [`ShardPolicy::Weighted`].
    pub fn shard_weight(self, weight: f32) -> Self {
        self.shard(ShardPolicy::Weighted(weight))
    }

    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Pin the grid lattice instead of deriving it from the receptor.
    pub fn grid_dims(mut self, dims: GridDims) -> Self {
        self.grid_dims = Some(dims);
        self
    }

    /// Validate and produce the [`CampaignSpec`].
    pub fn build(self) -> Result<CampaignSpec, CampaignError> {
        let ga = self.ga.unwrap_or_default();
        if ga.population < 2 {
            return Err(CampaignError::InvalidGa(format!(
                "population {} must hold at least 2 individuals",
                ga.population
            )));
        }
        if ga.generations == 0 {
            return Err(CampaignError::InvalidGa(
                "zero generations evaluates nothing".into(),
            ));
        }
        if ga.tournament == 0 {
            return Err(CampaignError::InvalidGa(
                "tournament selection needs at least 1 contestant".into(),
            ));
        }
        if ga.elitism >= ga.population {
            return Err(CampaignError::InvalidGa(format!(
                "elitism {} must be smaller than the population {}",
                ga.elitism, ga.population
            )));
        }
        if let Some(r) = self.search_radius {
            if !r.is_finite() || r <= 0.0 {
                return Err(CampaignError::InvalidRadius(r));
            }
        }
        let top_k = self.top_k.unwrap_or(10);
        if top_k == 0 {
            return Err(CampaignError::InvalidTopK(0));
        }
        match self.chunk {
            ChunkPolicy::Fixed(0) => {
                return Err(CampaignError::InvalidChunk(
                    "fixed chunk size of 0 makes no progress".into(),
                ))
            }
            ChunkPolicy::Fixed(n) if n > MAX_CHUNK => {
                return Err(CampaignError::InvalidChunk(format!(
                    "fixed chunk size {n} exceeds the ceiling of {MAX_CHUNK} \
                     (bounds checkpoint loss on a crash)"
                )))
            }
            ChunkPolicy::Adaptive { target } if target.is_zero() => {
                return Err(CampaignError::InvalidChunk(
                    "adaptive target duration must be positive".into(),
                ))
            }
            _ => {}
        }
        match self.stop {
            StopPolicy::MaxEvaluations(0) => {
                return Err(CampaignError::InvalidStop(
                    "an evaluation budget of 0 stops before any work".into(),
                ))
            }
            StopPolicy::Deadline(d) if d.is_zero() => {
                return Err(CampaignError::InvalidStop(
                    "a zero deadline stops before any work".into(),
                ))
            }
            StopPolicy::RankingStable { window, epsilon } => {
                if window == 0 {
                    return Err(CampaignError::InvalidStop(
                        "ranking-stability window must be at least 1 check".into(),
                    ));
                }
                if !epsilon.is_finite() || epsilon < 0.0 {
                    return Err(CampaignError::InvalidStop(format!(
                        "ranking-stability epsilon {epsilon} must be finite and non-negative"
                    )));
                }
            }
            _ => {}
        }
        if let ShardPolicy::Weighted(w) = self.shard {
            if !w.is_finite() || w <= 0.0 {
                return Err(CampaignError::InvalidShard(format!(
                    "shard weight {w} must be finite and positive"
                )));
            }
            if w > MAX_SHARD_WEIGHT {
                return Err(CampaignError::InvalidShard(format!(
                    "shard weight {w} exceeds the ceiling of {MAX_SHARD_WEIGHT} \
                     (use ShardPolicy::SingleQueue to opt out of fairness)"
                )));
            }
        }
        if !self.backend.is_supported() {
            return Err(CampaignError::UnsupportedBackend(format!(
                "{:?}",
                self.backend
            )));
        }
        if let Some(dims) = &self.grid_dims {
            if dims.npts.iter().any(|&n| n < 2) {
                return Err(CampaignError::InvalidGrid(dims.npts));
            }
        }
        Ok(CampaignSpec {
            name: self.name,
            ga,
            seed: self.seed.unwrap_or(0x6d75_446f_636b),
            search_radius: self.search_radius,
            local_search: self.local_search,
            backend: self.backend,
            stop: self.stop,
            chunk: self.chunk,
            shard: self.shard,
            top_k,
            grid_dims: self.grid_dims,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_mol::Vec3;

    #[test]
    fn default_build_matches_legacy_defaults() {
        let spec = Campaign::builder().build().unwrap();
        let params = spec.dock_params();
        let legacy = DockParams::default();
        assert_eq!(params.seed, legacy.seed);
        assert_eq!(params.ga, legacy.ga);
        assert_eq!(params.backend, legacy.backend);
        assert_eq!(spec.top_k, 10);
        assert_eq!(spec.chunk, ChunkPolicy::Fixed(16));
        assert_eq!(spec.stop, StopPolicy::Complete);
        assert_eq!(spec.shard, ShardPolicy::FairShare);
    }

    #[test]
    fn shard_policy_weights_and_participation() {
        assert_eq!(ShardPolicy::FairShare.weight(), 1.0);
        assert_eq!(ShardPolicy::Weighted(2.5).weight(), 2.5);
        assert_eq!(ShardPolicy::SingleQueue.weight(), 1.0);
        assert!(ShardPolicy::FairShare.is_sharded());
        assert!(ShardPolicy::Weighted(3.0).is_sharded());
        assert!(!ShardPolicy::SingleQueue.is_sharded());

        let spec = Campaign::builder().shard_weight(4.0).build().unwrap();
        assert_eq!(spec.shard, ShardPolicy::Weighted(4.0));
        for bad in [0.0, -1.0, f32::NAN, f32::INFINITY, MAX_SHARD_WEIGHT * 2.0] {
            assert!(
                matches!(
                    Campaign::builder().shard_weight(bad).build(),
                    Err(CampaignError::InvalidShard(_))
                ),
                "weight {bad} must be rejected"
            );
        }
        assert!(
            Campaign::builder()
                .shard_weight(MAX_SHARD_WEIGHT)
                .build()
                .is_ok(),
            "the ceiling itself is valid"
        );
        assert!(Campaign::builder()
            .shard(ShardPolicy::SingleQueue)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_bad_values_with_typed_errors() {
        assert_eq!(
            Campaign::builder().top_k(0).build().unwrap_err(),
            CampaignError::InvalidTopK(0)
        );
        assert!(matches!(
            Campaign::builder().chunk(ChunkPolicy::Fixed(0)).build(),
            Err(CampaignError::InvalidChunk(_))
        ));
        assert!(matches!(
            Campaign::builder()
                .chunk(ChunkPolicy::Fixed(MAX_CHUNK + 1))
                .build(),
            Err(CampaignError::InvalidChunk(_))
        ));
        assert!(
            Campaign::builder()
                .chunk(ChunkPolicy::Fixed(MAX_CHUNK))
                .build()
                .is_ok(),
            "the ceiling itself is valid"
        );
        assert!(matches!(
            Campaign::builder()
                .chunk(ChunkPolicy::Adaptive {
                    target: Duration::ZERO
                })
                .build(),
            Err(CampaignError::InvalidChunk(_))
        ));
        assert_eq!(
            Campaign::builder().search_radius(-1.0).build().unwrap_err(),
            CampaignError::InvalidRadius(-1.0)
        );
        assert!(matches!(
            Campaign::builder().search_radius(f32::NAN).build(),
            Err(CampaignError::InvalidRadius(_))
        ));
        assert!(matches!(
            Campaign::builder().population(1).build(),
            Err(CampaignError::InvalidGa(_))
        ));
        assert!(matches!(
            Campaign::builder().generations(0).build(),
            Err(CampaignError::InvalidGa(_))
        ));
        assert!(matches!(
            Campaign::builder()
                .stop(StopPolicy::MaxEvaluations(0))
                .build(),
            Err(CampaignError::InvalidStop(_))
        ));
        assert!(matches!(
            Campaign::builder()
                .stop(StopPolicy::RankingStable {
                    window: 0,
                    epsilon: 0.1
                })
                .build(),
            Err(CampaignError::InvalidStop(_))
        ));
        assert!(matches!(
            Campaign::builder()
                .stop(StopPolicy::RankingStable {
                    window: 2,
                    epsilon: f32::NAN
                })
                .build(),
            Err(CampaignError::InvalidStop(_))
        ));
    }

    #[test]
    fn pinned_lattices_need_a_cell_on_every_axis() {
        let lattice = |npts| GridDims {
            npts,
            spacing: 0.5,
            origin: Vec3::ZERO,
        };
        for npts in [[1, 1, 1], [2, 1, 2], [1, 5, 5], [0, 3, 3]] {
            assert_eq!(
                Campaign::builder()
                    .grid_dims(lattice(npts))
                    .build()
                    .unwrap_err(),
                CampaignError::InvalidGrid(npts)
            );
        }
        assert!(Campaign::builder()
            .grid_dims(lattice([2, 2, 2]))
            .build()
            .is_ok());
    }

    #[test]
    fn elitism_must_fit_population() {
        let ga = GaParams {
            population: 4,
            elitism: 4,
            ..Default::default()
        };
        assert!(matches!(
            Campaign::builder().ga(ga).build(),
            Err(CampaignError::InvalidGa(_))
        ));
    }

    #[test]
    fn backend_policy_resolution_and_grid_levels() {
        assert_eq!(
            BackendPolicy::Fixed(Backend::Explicit(SimdLevel::Scalar)).resolve(),
            Backend::Explicit(SimdLevel::Scalar)
        );
        assert_eq!(
            BackendPolicy::Fixed(Backend::Reference).grid_level(),
            SimdLevel::Scalar
        );
        assert_eq!(
            BackendPolicy::Fixed(Backend::Explicit(SimdLevel::Scalar)).grid_level(),
            SimdLevel::Scalar
        );
        // Detect follows the single auto-resolution point (which itself
        // honors a MUDOCK_BACKEND env pin, so this holds in CI's
        // backend matrix too).
        assert_eq!(BackendPolicy::Detect.resolve(), Backend::auto());
        match Backend::auto() {
            Backend::Explicit(l) => assert_eq!(BackendPolicy::Detect.grid_level(), l),
            _ => assert_eq!(BackendPolicy::Detect.grid_level(), SimdLevel::Scalar),
        }
        // Every available level is buildable.
        for l in SimdLevel::available() {
            assert!(Campaign::builder().pin_level(l).build().is_ok());
        }
    }

    #[test]
    fn pinned_levels_key_their_own_grids() {
        let spec = Campaign::builder()
            .pin_level(SimdLevel::Scalar)
            .build()
            .unwrap();
        assert_eq!(spec.grid_level(), SimdLevel::Scalar);
        assert_eq!(
            spec.dock_params().backend,
            Backend::Explicit(SimdLevel::Scalar)
        );
    }

    #[test]
    fn dims_for_prefers_pinned_lattice() {
        let rec = mudock_molio::synthetic_receptor(3, 40, 5.0);
        let pinned = GridDims::centered(Vec3::ZERO, 9.0, 0.75);
        let spec = Campaign::builder().grid_dims(pinned).build().unwrap();
        assert_eq!(spec.dims_for(&rec).npts, pinned.npts);
        let derived = Campaign::builder().build().unwrap().dims_for(&rec);
        assert!(derived.npts[0] > 0);
    }

    #[test]
    fn chunk_sizer_fixed_is_constant() {
        let mut s = ChunkSizer::new(ChunkPolicy::Fixed(7));
        assert_eq!(s.next_size(), 7);
        s.observe(7, Duration::from_secs(100));
        assert_eq!(s.next_size(), 7, "fixed sizing ignores measurements");
    }

    #[test]
    fn chunk_sizer_adapts_to_measured_cost() {
        let mut s = ChunkSizer::new(ChunkPolicy::Adaptive {
            target: Duration::from_secs(1),
        });
        assert_eq!(s.next_size(), ADAPTIVE_PROBE, "first chunk probes");
        // 10 ms per ligand → ~100 ligands per 1 s chunk.
        s.observe(
            ADAPTIVE_PROBE,
            Duration::from_millis(10 * ADAPTIVE_PROBE as u64),
        );
        assert_eq!(s.next_size(), 100);
        // Cost doubles → chunk shrinks (EWMA: between old and new rate).
        s.observe(100, Duration::from_secs(2));
        let next = s.next_size();
        assert!(next < 100 && next > 10, "EWMA-adapted size, got {next}");
    }

    #[test]
    fn chunk_sizer_clamps_to_sane_bounds() {
        let mut s = ChunkSizer::new(ChunkPolicy::Adaptive {
            target: Duration::from_nanos(1),
        });
        s.observe(10, Duration::from_secs(10));
        assert_eq!(s.next_size(), 1, "never below one ligand");
        let mut s = ChunkSizer::new(ChunkPolicy::Adaptive {
            target: Duration::from_secs(3600),
        });
        s.observe(1000, Duration::from_nanos(1));
        assert_eq!(s.next_size(), MAX_CHUNK, "never above MAX_CHUNK");
    }

    #[test]
    fn stop_check_honors_budgets() {
        let policy = StopPolicy::MaxEvaluations(100);
        let mut check = StopCheck::new();
        assert!(!check.should_stop(&policy, 99, &[]));
        assert!(check.should_stop(&policy, 100, &[]));

        let mut check = StopCheck::new();
        assert!(!check.should_stop(&StopPolicy::Deadline(Duration::from_secs(3600)), 0, &[]));
        assert!(check.should_stop(&StopPolicy::Deadline(Duration::ZERO), 0, &[]));

        let mut check = StopCheck::new();
        assert!(!check.should_stop(&StopPolicy::Complete, u64::MAX, &[]));
    }

    #[test]
    fn ranking_stability_needs_window_consecutive_stable_checks() {
        let policy = StopPolicy::RankingStable {
            window: 2,
            epsilon: 0.05,
        };
        let mut check = StopCheck::new();
        let a = [(-5.0, 0), (-3.0, 4)];
        let moved = [(-6.0, 2), (-5.0, 0)];
        assert!(
            !check.should_stop(&policy, 0, &a),
            "first check has no prior"
        );
        assert!(!check.should_stop(&policy, 0, &moved), "ranking moved");
        assert!(!check.should_stop(&policy, 0, &moved), "stable once");
        assert!(check.should_stop(&policy, 0, &moved), "stable twice → stop");
    }

    #[test]
    fn ranking_stability_tolerates_epsilon_and_resets_on_growth() {
        let policy = StopPolicy::RankingStable {
            window: 1,
            epsilon: 0.1,
        };
        let mut check = StopCheck::new();
        assert!(!check.should_stop(&policy, 0, &[(-5.0, 0)]));
        // Within epsilon → stable.
        assert!(check.should_stop(&policy, 0, &[(-5.08, 0)]));

        let mut check = StopCheck::new();
        assert!(!check.should_stop(&policy, 0, &[(-5.0, 0)]));
        // The ranking grew a new entry → not stable.
        assert!(!check.should_stop(&policy, 0, &[(-5.0, 0), (-1.0, 3)]));
    }

    #[test]
    fn empty_rankings_never_count_as_stable() {
        let policy = StopPolicy::RankingStable {
            window: 1,
            epsilon: 1.0,
        };
        let mut check = StopCheck::new();
        assert!(!check.should_stop(&policy, 0, &[]));
        assert!(
            !check.should_stop(&policy, 0, &[]),
            "an empty ranking must not stop a campaign that found nothing yet"
        );
    }

    #[test]
    fn campaign_error_messages_are_actionable() {
        for (err, needle) in [
            (CampaignError::InvalidTopK(0), "top-k"),
            (CampaignError::InvalidRadius(-2.0), "radius"),
            (
                CampaignError::UnsupportedBackend("avx512".into()),
                "not supported",
            ),
            (CampaignError::InvalidGrid([1, 5, 5]), "at least 2 points"),
        ] {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        }
    }
}
