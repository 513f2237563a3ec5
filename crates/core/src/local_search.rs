//! Solis–Wets local search — the optional Lamarckian refinement step.
//!
//! The paper's muDock deliberately runs its genetic algorithm *without*
//! AutoDock's local search (Section V); this module implements it anyway
//! as the natural extension (AutoDock's LGA = GA + Solis–Wets applied to
//! a fraction of each generation, with the refined genotype written back
//! — Lamarckian inheritance). Disabled by default so the reproduction
//! matches the paper; enable via [`crate::DockParams::local_search`].
//!
//! Solis & Wets (1981): adaptive random-walk hill climbing. Each step
//! samples a Gaussian deviate per gene (plus an accumulated bias); on
//! success the step size expands, on repeated failure it contracts, until
//! it collapses below `rho_min` or the iteration budget runs out.

use mudock_mol::{ConformSoA, Vec3};
use rand::rngs::StdRng;

use crate::engine::{Backend, DockingEngine, LigandPrep};
use crate::ga::gauss;
use crate::genotype::{Genotype, FIRST_TORSION};

/// Solis–Wets hyper-parameters (AutoDock-like defaults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolisWetsParams {
    /// Maximum scoring evaluations per invocation.
    pub max_evals: usize,
    /// Initial step scale ρ (gene units: Å / quaternion components /
    /// radians).
    pub rho_start: f32,
    /// Terminate when ρ falls below this.
    pub rho_min: f32,
    /// Consecutive successes before expanding ρ.
    pub expand_after: usize,
    /// Consecutive failures before contracting ρ.
    pub contract_after: usize,
    /// Fraction of the population refined each generation (AutoDock
    /// default 0.06).
    pub fraction: f32,
}

impl Default for SolisWetsParams {
    fn default() -> Self {
        SolisWetsParams {
            max_evals: 300,
            rho_start: 0.5,
            rho_min: 0.01,
            expand_after: 4,
            contract_after: 4,
            fraction: 0.06,
        }
    }
}

/// Per-gene step scale: translations move in Å, rotations and torsions in
/// smaller angular units.
fn gene_scale(k: usize) -> f32 {
    if k < 3 {
        1.0
    } else if k < FIRST_TORSION {
        0.25
    } else {
        0.5
    }
}

/// Clamp a candidate's translation genes into the search box.
#[allow(clippy::needless_range_loop)] // three named axes, indexed in lockstep
fn clamp_translation(g: &mut Genotype, center: Vec3, bound: f32) {
    let c = [center.x, center.y, center.z];
    for k in 0..3 {
        g.genes[k] = g.genes[k].clamp(c[k] - bound, c[k] + bound);
    }
}

/// Result of one local-search invocation.
#[derive(Clone, Debug)]
pub struct LocalSearchResult {
    pub genotype: Genotype,
    pub score: f32,
    pub evaluations: u64,
}

/// Refine one genotype with Solis–Wets against the engine's scoring
/// function. Deterministic given the RNG state.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::needless_range_loop)] // gene vectors indexed in lockstep with `dev`/`bias`
pub fn solis_wets(
    engine: &DockingEngine<'_>,
    prep: &LigandPrep,
    start: &Genotype,
    start_score: f32,
    backend: Backend,
    params: &SolisWetsParams,
    center: Vec3,
    bound: f32,
    rng: &mut StdRng,
    scratch: &mut ConformSoA,
) -> LocalSearchResult {
    let n = start.genes.len();
    let mut best = start.clone();
    let mut best_score = start_score;
    let mut bias = vec![0.0f32; n];
    let mut dev = vec![0.0f32; n];
    let mut rho = params.rho_start;
    let mut successes = 0usize;
    let mut failures = 0usize;
    let mut evaluations = 0u64;

    let mut candidate = best.clone();
    while evaluations < params.max_evals as u64 && rho > params.rho_min {
        // Forward step: x + (N(0, ρ)·scale + bias).
        for k in 0..n {
            dev[k] = gauss(rng) * rho * gene_scale(k) + bias[k];
            candidate.genes[k] = best.genes[k] + dev[k];
        }
        clamp_translation(&mut candidate, center, bound);
        let fwd = engine.score(prep, &candidate, scratch, backend);
        evaluations += 1;

        if fwd < best_score {
            best_score = fwd;
            std::mem::swap(&mut best, &mut candidate);
            candidate.genes.copy_from_slice(&best.genes);
            for k in 0..n {
                bias[k] = 0.2 * bias[k] + 0.4 * dev[k];
            }
            successes += 1;
            failures = 0;
        } else {
            // Reverse step: x - deviation.
            for k in 0..n {
                candidate.genes[k] = best.genes[k] - dev[k];
            }
            clamp_translation(&mut candidate, center, bound);
            let rev = engine.score(prep, &candidate, scratch, backend);
            evaluations += 1;
            if rev < best_score {
                best_score = rev;
                std::mem::swap(&mut best, &mut candidate);
                candidate.genes.copy_from_slice(&best.genes);
                for k in 0..n {
                    bias[k] -= 0.4 * dev[k];
                }
                successes += 1;
                failures = 0;
            } else {
                for b in bias.iter_mut() {
                    *b *= 0.5;
                }
                failures += 1;
                successes = 0;
            }
        }

        if successes >= params.expand_after {
            rho *= 2.0;
            successes = 0;
        }
        if failures >= params.contract_after {
            rho *= 0.5;
            failures = 0;
        }
    }

    LocalSearchResult {
        genotype: best,
        score: best_score,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DockParams, DockingEngine};
    use crate::ga::GaParams;
    use mudock_ff::types::AtomType;
    use mudock_grids::{GridBuilder, GridDims};
    use mudock_simd::SimdLevel;
    use rand::SeedableRng;

    fn setup() -> (mudock_grids::GridSet, LigandPrep) {
        let (rec, lig) = mudock_molio::complex_1a30_like();
        let mut types: Vec<AtomType> = lig.atoms.iter().map(|a| a.ty).collect();
        types.sort_unstable();
        types.dedup();
        let dims = GridDims::centered(Vec3::ZERO, 10.0, 0.7);
        let gs = GridBuilder::new(&rec, dims)
            .with_types(&types)
            .build_simd(SimdLevel::detect());
        (gs, LigandPrep::new(lig).unwrap())
    }

    #[test]
    fn local_search_never_worsens_and_usually_improves() {
        let (gs, prep) = setup();
        let engine = DockingEngine::new(&gs).unwrap();
        let backend = Backend::Explicit(SimdLevel::detect());
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        let mut rng = StdRng::seed_from_u64(404);
        let mut improved = 0;
        for seed in 0..6u64 {
            let mut pose_rng = StdRng::seed_from_u64(seed);
            let start = Genotype::random(&mut pose_rng, prep.n_torsions(), Vec3::ZERO, 4.0);
            let s0 = engine.score(&prep, &start, &mut scratch, backend);
            let r = solis_wets(
                &engine,
                &prep,
                &start,
                s0,
                backend,
                &SolisWetsParams::default(),
                Vec3::ZERO,
                5.0,
                &mut rng,
                &mut scratch,
            );
            assert!(r.score <= s0, "seed {seed}: worsened {s0} -> {}", r.score);
            assert!(r.evaluations > 0 && r.evaluations <= 300);
            // The returned genotype really scores what it claims.
            let check = engine.score(&prep, &r.genotype, &mut scratch, backend);
            assert!((check - r.score).abs() < 1e-3 * r.score.abs().max(1.0));
            if r.score < s0 - 1e-3 {
                improved += 1;
            }
        }
        assert!(
            improved >= 4,
            "local search should usually improve random poses"
        );
    }

    #[test]
    fn lamarckian_ga_beats_plain_ga_on_average() {
        let (gs, prep) = setup();
        let engine = DockingEngine::new(&gs).unwrap();
        let base = DockParams {
            ga: GaParams {
                population: 20,
                generations: 10,
                ..Default::default()
            },
            seed: 2024,
            backend: Backend::Explicit(SimdLevel::detect()),
            search_radius: Some(4.0),
            local_search: None,
        };
        let plain = engine.dock(&prep, &base).unwrap();

        let mut with_ls = base.clone();
        with_ls.local_search = Some(SolisWetsParams {
            max_evals: 60,
            ..Default::default()
        });
        let lama = engine.dock(&prep, &with_ls).unwrap();
        assert!(lama.evaluations > plain.evaluations, "LS adds evaluations");
        // Same GA seed with extra downhill refinement: never worse.
        assert!(
            lama.best_score <= plain.best_score + 1e-3,
            "lamarckian {} vs plain {}",
            lama.best_score,
            plain.best_score
        );
    }

    #[test]
    fn local_search_is_deterministic() {
        let (gs, prep) = setup();
        let engine = DockingEngine::new(&gs).unwrap();
        let backend = Backend::AutoVec;
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        let start = Genotype::identity(prep.n_torsions());
        let s0 = engine.score(&prep, &start, &mut scratch, backend);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scratch = ConformSoA::with_capacity(prep.base.n);
            solis_wets(
                &engine,
                &prep,
                &start,
                s0,
                backend,
                &SolisWetsParams::default(),
                Vec3::ZERO,
                5.0,
                &mut rng,
                &mut scratch,
            )
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.genotype, b.genotype);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_ne!(run(10).genotype, a.genotype);
    }
}
