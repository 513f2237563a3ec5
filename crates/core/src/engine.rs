//! The docking engine: ligand preparation, pose scoring, and the
//! generation loop of Algorithm 1 + Algorithm 2.

use mudock_ff::params::{weights, PairTable};
use mudock_grids::GridSet;
use mudock_mol::{AtomStatics, ConformSoA, Molecule, MoleculeError, Topology, Vec3};
use mudock_simd::SimdLevel;
use rand::SeedableRng as _;

use crate::autovec::{inter_energy_autovec_at, intra_energy_autovec_at};
use crate::ga::{best_first, Ga, GaParams};
use crate::genotype::Genotype;
use crate::scoring::inter::{inter_energy_reference, inter_energy_simd};
use crate::scoring::intra::{intra_energy_reference, intra_energy_simd};
use crate::scoring::pairs::PairsSoA;
use crate::stats::KernelStats;
use crate::transform::{apply_pose_reference, apply_pose_simd, torsion_plans, TorsionPlan};

/// Which implementation scores poses — the experiment axis of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Scalar code with `libm` math calls in the loop bodies. Library
    /// calls block loop vectorization: this is the paper's
    /// "GCC on ARM without a vectorized GLIBC" arm.
    Reference,
    /// The portable arm: the explicit arm's per-lane math (inlinable
    /// polynomial `exp`, no `libm` call) inside 16-lane loops written for
    /// the compiler's loop vectorizer ([`crate::autovec`]) — safe Rust, no
    /// intrinsics, compiled once for the build's baseline ISA and once
    /// inside each AVX2+FMA / AVX-512 frame; it scores in its engine's
    /// ([`DockingEngine::frame`]). The paper's `#pragma omp simd` arm with
    /// a vector math library, built per target ISA.
    ///
    /// One name, two roundings: scores are bit-identical across frames of
    /// one [arithmetic class](crate::autovec::arithmetic_at) (with or
    /// without fused multiply-add), not across the two.
    AutoVec,
    /// Explicit vectorization through `mudock-simd` (the Highway arm).
    Explicit(SimdLevel),
}

/// Revision of the scoring arithmetic, over all backends. Bump it when
/// any backend's scores can change in any bit (a reordered sum, a new
/// polynomial, a different reciprocal): stored scores — `mudock-serve`'s
/// checkpoints hash it into their key — are then refused by the new
/// binary instead of being merged with scores it would not reproduce.
///
/// 2: `AutoVec` sums sixteen per-lane partials in a fixed tree order.
/// 3: `AutoVec` fuses its multiply-adds on hosts with AVX2+FMA
/// ([`crate::autovec::arithmetic_at`]).
/// 4: grids built at SSE2/AVX2/AVX-512 sum each lattice point over the
/// receptor's atoms in index order (`mudock_grids::build`), so the maps
/// `Explicit` docks against at those levels move in the last bits; grids
/// built at `Scalar` keep theirs.
pub const SCORING_REV: u32 = 4;

impl Backend {
    /// Short name for reports (`reference`, `autovec`, `avx2`, …).
    pub fn name(self) -> String {
        match self {
            Backend::Reference => "reference".into(),
            Backend::AutoVec => "autovec".into(),
            Backend::Explicit(l) => l.name().into(),
        }
    }

    /// Parse a backend name from an experiment command line. Every
    /// canonical [`Backend::name`] round-trips; `"scalar"` names the
    /// one-lane *explicit* backend ([`SimdLevel::Scalar`]), matching what
    /// `Explicit(Scalar).name()` prints — use `"autovec"` for the
    /// auto-vectorization arm.
    pub fn parse(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "reference" | "scalar-libm" => Some(Backend::Reference),
            "autovec" => Some(Backend::AutoVec),
            other => SimdLevel::parse(other).map(Backend::Explicit),
        }
    }

    /// Every backend runnable on this host.
    pub fn available() -> Vec<Backend> {
        let mut v = vec![Backend::Reference, Backend::AutoVec];
        v.extend(SimdLevel::available().into_iter().map(Backend::Explicit));
        v
    }

    /// The `MUDOCK_BACKEND` environment pin (same names as
    /// [`Backend::parse`]). CI uses it to run the whole suite once per
    /// backend in a matrix, so level-specific scoring divergence fails
    /// there instead of on user hardware. Unparsable values — a retired
    /// level's name such as `sse2` among them — and levels the host
    /// cannot run are ignored (the pin must never make a working binary
    /// refuse to start).
    pub fn from_env() -> Option<Backend> {
        let v = std::env::var("MUDOCK_BACKEND").ok()?;
        let b = Backend::parse(&v)?;
        match b {
            Backend::Explicit(l) if !l.is_supported() => None,
            b => Some(b),
        }
    }

    /// What an *unpinned* run scores with: the [`Backend::from_env`]
    /// pin when set, otherwise the explicit arm at the host's AVX2 or
    /// AVX-512 level, and the portable arm ([`Backend::AutoVec`]) on a
    /// host with neither — every non-x86 CPU included. This is the single
    /// resolution point behind [`DockParams::default`] and
    /// [`BackendPolicy::Detect`](crate::campaign::BackendPolicy). A level
    /// gets an explicit default exactly where it is the engine's frame.
    pub fn auto() -> Backend {
        Backend::from_env().unwrap_or_else(|| match SimdLevel::detect() {
            level if mudock_simd::is_wide(level) => Backend::Explicit(level),
            _ => Backend::AutoVec,
        })
    }
}

/// Every name [`Backend::parse`] accepts, in one place: the refusal of an
/// unknown name lists it (the CLI's `--backend` and the wire's `fixed` /
/// `pinned` errors).
fn known_names() -> String {
    let mut names = vec![Backend::Reference.name(), Backend::AutoVec.name()];
    names.extend(SimdLevel::ALL.map(|l| Backend::Explicit(l).name()));
    names.join(", ")
}

/// [`Backend::parse`] with the refusal spelled out: an unknown name — a
/// retired level's included — is an error that lists the names this build
/// accepts.
impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        Backend::parse(s).ok_or_else(|| format!("unknown backend '{s}' (known: {})", known_names()))
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Errors preparing or docking a ligand.
#[derive(Debug)]
pub enum DockError {
    /// Structural problem in the input molecule.
    Molecule(MoleculeError),
    /// The grid set lacks a map for one of the ligand's atom types.
    MissingMap { type_idx: usize },
    /// The grid buffer is too large for exact f32 index arithmetic.
    GridTooLarge { cells: usize },
    /// An axis of the lattice has fewer than 2 points: no cell to
    /// interpolate in.
    GridTooThin { npts: [u32; 3] },
}

impl std::fmt::Display for DockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DockError::Molecule(e) => write!(f, "invalid molecule: {e}"),
            DockError::MissingMap { type_idx } => {
                write!(
                    f,
                    "grid set has no map built for atom type index {type_idx}"
                )
            }
            DockError::GridTooLarge { cells } => {
                write!(
                    f,
                    "grid buffer of {cells} cells exceeds exact-f32 indexing (2^24)"
                )
            }
            DockError::GridTooThin { npts } => {
                write!(
                    f,
                    "grid lattice {npts:?} needs at least 2 points on every axis"
                )
            }
        }
    }
}

impl std::error::Error for DockError {}

impl From<MoleculeError> for DockError {
    fn from(e: MoleculeError) -> Self {
        DockError::Molecule(e)
    }
}

/// Everything derived once per ligand before docking.
#[derive(Clone, Debug)]
pub struct LigandPrep {
    pub mol: Molecule,
    pub topo: Topology,
    /// Origin-centered base conformation.
    pub base: ConformSoA,
    pub statics: AtomStatics,
    pub pairs: PairsSoA,
    pub plans: Vec<TorsionPlan>,
}

impl LigandPrep {
    /// Validate and preprocess a ligand (centers it at its origin; pose
    /// translations are absolute positions of the ligand center).
    pub fn new(mut mol: Molecule) -> Result<LigandPrep, DockError> {
        mol.validate()?;
        mol.center_at_origin();
        let topo = Topology::build(&mol);
        let base = ConformSoA::from_molecule(&mol);
        let statics = AtomStatics::from_molecule(&mol);
        let pairs = PairsSoA::build(&mol, &topo, &PairTable::new());
        let plans = torsion_plans(&topo, base.len_padded());
        Ok(LigandPrep {
            mol,
            topo,
            base,
            statics,
            pairs,
            plans,
        })
    }

    /// Number of torsion genes this ligand needs.
    pub fn n_torsions(&self) -> usize {
        self.plans.len()
    }
}

/// Docking run configuration.
#[derive(Clone, Debug)]
pub struct DockParams {
    pub ga: GaParams,
    pub seed: u64,
    pub backend: Backend,
    /// Half-side of the translation search box around the grid center (Å).
    /// Defaults to 60 % of the grid half-extent.
    pub search_radius: Option<f32>,
    /// Optional Solis–Wets Lamarckian local search (AutoDock's LGA
    /// refinement). `None` — the paper's configuration — runs the pure GA.
    pub local_search: Option<crate::local_search::SolisWetsParams>,
}

impl Default for DockParams {
    fn default() -> Self {
        DockParams {
            ga: GaParams::default(),
            seed: 0x6d75_446f_636b,
            backend: Backend::auto(),
            search_radius: None,
            local_search: None,
        }
    }
}

/// Result of docking one ligand.
#[derive(Clone, Debug)]
pub struct DockReport {
    /// Best (lowest) score found, in kcal/mol.
    pub best_score: f32,
    /// Genotype achieving the best score.
    pub best_genotype: Genotype,
    /// Best score per generation (monotonically non-increasing thanks to
    /// elitism).
    pub history: Vec<f32>,
    /// Total pose evaluations.
    pub evaluations: u64,
    /// Kernel work counters.
    pub stats: KernelStats,
}

/// Scores poses of prepared ligands against one receptor grid set.
pub struct DockingEngine<'a> {
    grids: &'a GridSet,
    center: Vec3,
    half_extent: f32,
    frame: SimdLevel,
}

impl<'a> DockingEngine<'a> {
    pub fn new(grids: &'a GridSet) -> Result<DockingEngine<'a>, DockError> {
        if grids.data.len() >= (1 << 24) {
            return Err(DockError::GridTooLarge {
                cells: grids.data.len(),
            });
        }
        // The scoring kernels interpolate inside cells `0 ..= n−2` of
        // every axis; a one-point axis has none.
        if grids.dims.npts.iter().any(|&n| n < 2) {
            return Err(DockError::GridTooThin {
                npts: grids.dims.npts,
            });
        }
        let lo = grids.dims.origin;
        let hi = grids.dims.max_corner();
        Ok(DockingEngine {
            grids,
            center: (lo + hi) * 0.5,
            half_extent: (hi - lo).norm() * 0.5 / 3f32.sqrt(),
            frame: mudock_simd::frame(),
        })
    }

    /// The frame [`Backend::AutoVec`] scores in ([`crate::autovec`]):
    /// `mudock_simd::frame()`, read once by [`DockingEngine::new`].
    pub fn frame(&self) -> SimdLevel {
        self.frame
    }

    /// This engine scoring [`Backend::AutoVec`] in `frame`, so that a host
    /// with FMA can dock in the unfused class too. A test and bench seam
    /// that no flag, env var, config field or wire value reaches.
    ///
    /// # Panics
    /// If `frame` is wider than the engine's or the host lacks it.
    #[doc(hidden)]
    pub fn with_frame(self, frame: SimdLevel) -> Self {
        assert!(
            frame <= self.frame && frame.is_supported(),
            "cannot narrow to {frame}"
        );
        DockingEngine { frame, ..self }
    }

    /// The receptor grid set being docked against.
    pub fn grids(&self) -> &GridSet {
        self.grids
    }

    /// Check every ligand atom type has a built map.
    pub fn validate_prep(&self, prep: &LigandPrep) -> Result<(), DockError> {
        for i in 0..prep.base.n {
            let t = prep.statics.ty[i] as usize;
            if !self.grids.built[t] {
                return Err(DockError::MissingMap { type_idx: t });
            }
        }
        Ok(())
    }

    /// Score one genotype with the chosen backend. `scratch` holds the
    /// transformed conformation (reused across calls to avoid allocation).
    pub fn score(
        &self,
        prep: &LigandPrep,
        g: &Genotype,
        scratch: &mut ConformSoA,
        backend: Backend,
    ) -> f32 {
        let tors_penalty = weights::TORS * prep.n_torsions() as f32;
        match backend {
            Backend::Reference => {
                apply_pose_reference(&prep.base, &prep.plans, g, scratch);
                inter_energy_reference(self.grids, scratch, &prep.statics)
                    + intra_energy_reference(scratch, &prep.pairs)
                    + tors_penalty
            }
            Backend::AutoVec => {
                apply_pose_simd(self.frame, &prep.base, &prep.plans, g, scratch);
                inter_energy_autovec_at(self.frame, self.grids, scratch, &prep.statics)
                    + intra_energy_autovec_at(self.frame, scratch, &prep.pairs)
                    + tors_penalty
            }
            Backend::Explicit(level) => {
                apply_pose_simd(level, &prep.base, &prep.plans, g, scratch);
                inter_energy_simd(level, self.grids, scratch, &prep.statics)
                    + intra_energy_simd(level, scratch, &prep.pairs)
                    + tors_penalty
            }
        }
    }

    /// Run the full GA docking loop for one ligand.
    ///
    /// The first generation is scored in full. After that, a child the
    /// GA reports as bit-equal to a parent ([`Ga::copied_from`]: every
    /// elite, and a clone or crossover that mutation left equal to one
    /// of its two tournament parents) takes that parent's fitness, and
    /// only the other children are scored. The copy is exact: [`score`]
    /// is a pure function of (prep, genotype, backend), and a parent's
    /// fitness is the score of its genes as they stand, Solis–Wets
    /// writing back genes and score together. So `best_score`,
    /// `history`, `best_genotype`, `evaluations` (which counts copied
    /// fitnesses too) and a [`StopPolicy`](crate::campaign::StopPolicy)
    /// budget are what a loop scoring every individual reports;
    /// [`KernelStats::poses_reused`] counts the scorings saved.
    ///
    /// [`score`]: DockingEngine::score
    pub fn dock(&self, prep: &LigandPrep, params: &DockParams) -> Result<DockReport, DockError> {
        self.dock_with_stop(prep, params, &crate::campaign::StopPolicy::Complete)
    }

    /// Dock one ligand from a [`CampaignSpec`](crate::campaign::CampaignSpec)
    /// — the campaign-API form of [`DockingEngine::dock`]. The spec's
    /// [`StopPolicy`](crate::campaign::StopPolicy) is honored at
    /// generation boundaries: an evaluation budget or deadline caps the
    /// search, and `RankingStable` stops once the best score has held
    /// still for the configured window of generations.
    pub fn dock_campaign(
        &self,
        prep: &LigandPrep,
        spec: &crate::campaign::CampaignSpec,
    ) -> Result<DockReport, DockError> {
        self.dock_with_stop(prep, &spec.dock_params(), &spec.stop)
    }

    fn dock_with_stop(
        &self,
        prep: &LigandPrep,
        params: &DockParams,
        stop: &crate::campaign::StopPolicy,
    ) -> Result<DockReport, DockError> {
        self.validate_prep(prep)?;
        let radius = params
            .search_radius
            .unwrap_or(self.half_extent * 0.6)
            .max(1.0);
        let mut ga = Ga::new(
            params.ga,
            params.seed,
            self.center,
            radius,
            prep.n_torsions(),
        );
        let mut ls_rng = rand::rngs::StdRng::seed_from_u64(params.seed ^ 0x6c73);
        let mut pop = ga.init_population();
        // The generation being bred; swapped with `pop` every generation.
        let mut next = Vec::new();
        // Refinement order of the Solis–Wets block.
        let mut order: Vec<usize> = Vec::new();
        let mut fitness = vec![0.0f32; pop.len()];
        // The fitness of the generation `pop` was bred from.
        let mut parent_fitness = vec![0.0f32; pop.len()];
        let mut scratch = ConformSoA::with_capacity(prep.base.n);

        let mut best_score = f32::INFINITY;
        let mut best_genotype = pop[0].clone();
        let mut history = Vec::with_capacity(params.ga.generations);
        let mut stats = KernelStats::default();
        let mut evaluations = 0u64;
        let mut stop_check = crate::campaign::StopCheck::new();

        for _gen in 0..params.ga.generations {
            // A child bit-equal to a parent takes the parent's fitness:
            // `score` is a pure function of (prep, genotype, backend).
            // Empty in the first generation, which scores everyone.
            let copied_from = ga.copied_from();
            for (i, (ind, fit)) in pop.iter().zip(fitness.iter_mut()).enumerate() {
                *fit = match copied_from.get(i).copied().flatten() {
                    Some(parent) => {
                        stats.poses_reused += 1;
                        parent_fitness[parent]
                    }
                    None => self.score(prep, ind, &mut scratch, params.backend),
                };
                evaluations += 1;
                if *fit < best_score {
                    best_score = *fit;
                    best_genotype.clone_from(ind);
                }
            }
            // Optional Lamarckian refinement: Solis–Wets on the best
            // fraction, refined genotypes written back into the population.
            if let Some(ls) = &params.local_search {
                let refine = ((pop.len() as f32 * ls.fraction).ceil() as usize).max(1);
                best_first(&fitness, refine, &mut order);
                for &idx in &order {
                    let r = crate::local_search::solis_wets(
                        self,
                        prep,
                        &pop[idx],
                        fitness[idx],
                        params.backend,
                        ls,
                        self.center,
                        radius,
                        &mut ls_rng,
                        &mut scratch,
                    );
                    evaluations += r.evaluations;
                    if r.score < fitness[idx] {
                        fitness[idx] = r.score;
                        pop[idx] = r.genotype;
                    }
                    if fitness[idx] < best_score {
                        best_score = fitness[idx];
                        best_genotype.clone_from(&pop[idx]);
                    }
                }
            }
            stats.poses_scored += pop.len() as u64;
            stats.pairs_evaluated += (prep.pairs.n as u64) * pop.len() as u64;
            stats.grid_lookups += 3 * (prep.base.n as u64) * pop.len() as u64;
            stats.atoms_transformed += (prep.base.n as u64) * pop.len() as u64;
            stats.torsion_rotations +=
                (prep.plans.len() as u64) * (prep.base.n as u64) * pop.len() as u64;
            stats.generations += 1;
            history.push(best_score);
            if stop_check.should_stop(stop, evaluations, &[(best_score, 0)]) {
                break;
            }
            ga.evolve_into(&pop, &fitness, &mut next);
            std::mem::swap(&mut pop, &mut next);
            std::mem::swap(&mut fitness, &mut parent_fitness);
        }

        Ok(DockReport {
            best_score,
            best_genotype,
            history,
            evaluations,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_ff::types::AtomType;
    use mudock_grids::{GridBuilder, GridDims};
    use mudock_molio::{complex_1a30_like, synthetic_ligand, LigandSpec};

    fn grids_for(lig: &Molecule, rec: &Molecule) -> GridSet {
        let mut types: Vec<AtomType> = lig.atoms.iter().map(|a| a.ty).collect();
        types.sort_unstable();
        types.dedup();
        let dims = GridDims::centered(Vec3::ZERO, 11.0, 0.55);
        GridBuilder::new(rec, dims)
            .with_types(&types)
            .build_simd(SimdLevel::detect())
    }

    fn small_params(backend: Backend) -> DockParams {
        DockParams {
            ga: GaParams {
                population: 30,
                generations: 25,
                ..Default::default()
            },
            seed: 1234,
            backend,
            search_radius: Some(4.0),
            local_search: None,
        }
    }

    #[test]
    fn docking_improves_over_random() {
        let (rec, lig) = complex_1a30_like();
        let gs = grids_for(&lig, &rec);
        let engine = DockingEngine::new(&gs).unwrap();
        let prep = LigandPrep::new(lig).unwrap();
        let report = engine
            .dock(&prep, &small_params(Backend::Explicit(SimdLevel::detect())))
            .unwrap();
        let first = report.history[0];
        let last = *report.history.last().unwrap();
        assert!(
            last < first,
            "GA failed to improve: first {first}, last {last}"
        );
        assert_eq!(report.evaluations, 30 * 25);
        assert_eq!(report.stats.generations, 25);
    }

    #[test]
    fn history_is_monotone_non_increasing() {
        let (rec, lig) = complex_1a30_like();
        let gs = grids_for(&lig, &rec);
        let engine = DockingEngine::new(&gs).unwrap();
        let prep = LigandPrep::new(lig).unwrap();
        let report = engine.dock(&prep, &small_params(Backend::AutoVec)).unwrap();
        for w in report.history.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-4,
                "best score regressed: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn deterministic_per_seed_and_backend() {
        let (rec, lig) = complex_1a30_like();
        let gs = grids_for(&lig, &rec);
        let engine = DockingEngine::new(&gs).unwrap();
        let prep = LigandPrep::new(lig).unwrap();
        let p = small_params(Backend::Explicit(SimdLevel::detect()));
        let a = engine.dock(&prep, &p).unwrap();
        let b = engine.dock(&prep, &p).unwrap();
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.best_genotype, b.best_genotype);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn backends_agree_on_single_pose_scores() {
        let (rec, lig) = complex_1a30_like();
        let gs = grids_for(&lig, &rec);
        let engine = DockingEngine::new(&gs).unwrap();
        let prep = LigandPrep::new(lig).unwrap();
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let g = Genotype::random(&mut rng, prep.n_torsions(), Vec3::ZERO, 4.0);
            let reference = engine.score(&prep, &g, &mut scratch, Backend::Reference);
            for backend in Backend::available() {
                let got = engine.score(&prep, &g, &mut scratch, backend);
                let tol = 5e-3 * reference.abs().max(1.0);
                assert!(
                    (got - reference).abs() <= tol,
                    "{backend}: {got} vs reference {reference}"
                );
            }
        }
    }

    #[test]
    fn missing_map_is_rejected() {
        let (rec, _) = complex_1a30_like();
        // Grid built only for carbon...
        let dims = GridDims::centered(Vec3::ZERO, 8.0, 0.8);
        let gs = GridBuilder::new(&rec, dims)
            .with_types(&[AtomType::C])
            .build_scalar();
        let engine = DockingEngine::new(&gs).unwrap();
        // ...but the ligand certainly contains non-carbon types.
        let lig = synthetic_ligand(
            3,
            LigandSpec {
                heavy_atoms: 20,
                torsions: 4,
            },
        );
        let prep = LigandPrep::new(lig).unwrap();
        let err = engine.dock(&prep, &small_params(Backend::AutoVec));
        assert!(matches!(err, Err(DockError::MissingMap { .. })));
    }

    #[test]
    fn backend_name_parse_round_trips_for_every_available_backend() {
        for backend in Backend::available() {
            let name = backend.name();
            assert_eq!(
                Backend::parse(&name),
                Some(backend),
                "'{name}' must parse back to {backend:?}"
            );
            // Names are CLI-facing: lowercase, non-empty, no whitespace.
            assert!(!name.is_empty());
            assert_eq!(name, name.to_ascii_lowercase());
            assert!(!name.contains(char::is_whitespace));
        }
        // Aliases normalize onto the canonical backends.
        assert_eq!(Backend::parse("scalar-libm"), Some(Backend::Reference));
        assert_eq!(
            Backend::parse("scalar"),
            Some(Backend::Explicit(SimdLevel::Scalar)),
            "'scalar' names the explicit one-lane backend, as name() prints it"
        );
        assert_eq!(Backend::parse("REFERENCE"), Some(Backend::Reference));
        // Unknown names — the retired `sse2` level's among them — are
        // rejected, not defaulted or remapped, and the refusal names
        // what is accepted.
        for bogus in [
            "", "neon", "avx1024", "auto vec", "fastest", "sse 2", "sse2", "sse", "128",
        ] {
            assert_eq!(Backend::parse(bogus), None, "'{bogus}' must be rejected");
            let err = bogus.parse::<Backend>().unwrap_err();
            assert!(err.contains("autovec"), "{err}");
        }
    }

    #[test]
    fn a_level_is_the_default_backend_exactly_where_it_is_the_engine_frame() {
        // A `MUDOCK_BACKEND` pin (CI's backend matrix) overrides the rule.
        if Backend::from_env().is_some() {
            return;
        }
        let gs = GridSet::empty(GridDims::centered(Vec3::ZERO, 2.0, 1.0));
        let frame = DockingEngine::new(&gs).unwrap().frame();
        let want = if mudock_simd::is_wide(frame) {
            Backend::Explicit(frame)
        } else {
            Backend::AutoVec
        };
        assert_eq!(Backend::auto(), want);
    }

    #[test]
    fn dock_campaign_matches_dock_for_run_to_completion() {
        let (rec, lig) = complex_1a30_like();
        let gs = grids_for(&lig, &rec);
        let engine = DockingEngine::new(&gs).unwrap();
        let prep = LigandPrep::new(lig).unwrap();
        let spec = crate::campaign::Campaign::builder()
            .population(30)
            .generations(25)
            .seed(1234)
            .search_radius(4.0)
            .backend(crate::campaign::BackendPolicy::Fixed(Backend::AutoVec))
            .build()
            .unwrap();
        let via_campaign = engine.dock_campaign(&prep, &spec).unwrap();
        let via_params = engine.dock(&prep, &spec.dock_params()).unwrap();
        assert_eq!(via_campaign.best_score, via_params.best_score);
        assert_eq!(via_campaign.history, via_params.history);
        assert_eq!(via_campaign.evaluations, via_params.evaluations);
    }

    #[test]
    fn dock_campaign_honors_evaluation_budget() {
        let (rec, lig) = complex_1a30_like();
        let gs = grids_for(&lig, &rec);
        let engine = DockingEngine::new(&gs).unwrap();
        let prep = LigandPrep::new(lig).unwrap();
        let spec = crate::campaign::Campaign::builder()
            .population(30)
            .generations(25)
            .seed(1234)
            .search_radius(4.0)
            .stop(crate::campaign::StopPolicy::MaxEvaluations(90))
            .build()
            .unwrap();
        let report = engine.dock_campaign(&prep, &spec).unwrap();
        // 30 evaluations/generation: the budget trips after generation 3.
        assert_eq!(report.evaluations, 90);
        assert_eq!(report.history.len(), 3);
    }

    #[test]
    fn dock_campaign_stops_when_best_score_stabilizes() {
        let (rec, lig) = complex_1a30_like();
        let gs = grids_for(&lig, &rec);
        let engine = DockingEngine::new(&gs).unwrap();
        let prep = LigandPrep::new(lig).unwrap();
        let full = crate::campaign::Campaign::builder()
            .population(30)
            .generations(200)
            .seed(1234)
            .search_radius(4.0)
            .build()
            .unwrap();
        let stable = crate::campaign::CampaignSpec {
            stop: crate::campaign::StopPolicy::RankingStable {
                window: 5,
                epsilon: 0.0,
            },
            ..full.clone()
        };
        let early = engine.dock_campaign(&prep, &stable).unwrap();
        let complete = engine.dock_campaign(&prep, &full).unwrap();
        assert!(
            early.history.len() < complete.history.len(),
            "a 200-generation run should stabilize early ({} generations)",
            early.history.len()
        );
        // The early history is a prefix of the full run's.
        assert_eq!(
            complete.history[..early.history.len()],
            early.history[..],
            "early stop must not change any produced value"
        );
    }

    #[test]
    fn reports_torsional_penalty_in_score() {
        // A rigid ligand and a flexible ligand docked to the same grids:
        // the flexible one carries +W_tors per torsion in its score floor.
        let (rec, lig) = complex_1a30_like();
        let gs = grids_for(&lig, &rec);
        let engine = DockingEngine::new(&gs).unwrap();
        let prep = LigandPrep::new(lig).unwrap();
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        let g = Genotype::identity(prep.n_torsions());
        let with_tors = engine.score(&prep, &g, &mut scratch, Backend::Reference);
        // Score the identical pose with the torsion count hidden: the
        // penalty must differ by exactly W_tors * n_torsions.
        let raw = with_tors - mudock_ff::params::weights::TORS * prep.n_torsions() as f32;
        assert!(raw < with_tors);
    }
}
