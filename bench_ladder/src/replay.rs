//! Harness-side replay of the dock loop. `DockingEngine::dock` is one
//! call from outside, so its GA-level spans come from driving the same
//! loop through the public `Ga::{init_population, evolve}`,
//! `DockingEngine::score` and `solis_wets`. The replay's ranking goes
//! through the same oracle as every other rep, which keeps it
//! bit-equal to `DockingEngine::dock`.

use mudock_core::{
    ligand_seed, solis_wets, DockParams, DockingEngine, Ga, Genotype, LigandPrep, ScreenResult,
    ScreenSummary,
};
use mudock_grids::GridSet;
use mudock_mol::{ConformSoA, Molecule, Vec3};
use rand::SeedableRng as _;

use crate::oracle::{ranking_of_summary, Ranking};
use crate::spec::POSES_PER_GENERATION;
use crate::trace::Recorder;

/// Genotypes the GA actually scored, kept for the kernel replays.
pub struct PoseSample {
    /// Index of the ligand in its library.
    pub ligand: usize,
    pub genotype: Genotype,
}

/// Centre of the translation search box: the grid's centre, as
/// `DockingEngine::new` derives it.
pub fn search_centre(grids: &GridSet) -> Vec3 {
    (grids.dims.origin + grids.dims.max_corner()) * 0.5
}

/// Half-side of the search box of `params`, as the dock loop clamps it.
pub fn search_radius(params: &DockParams) -> f32 {
    params
        .search_radius
        .expect("the benchmark's campaigns pin the search radius")
        .max(1.0)
}

/// Dock `ligands` one after the other on the calling thread, recording
/// a span around every call into the engine, and return the ranking
/// plus, when `sample` is set, some of the genotypes scored.
pub fn dock_traced(
    grids: &GridSet,
    ligands: &[Molecule],
    params: &DockParams,
    rec: &Recorder,
    sample: bool,
) -> Result<(Ranking, Vec<PoseSample>), String> {
    let engine = DockingEngine::new(grids).map_err(|e| e.to_string())?;
    let centre = search_centre(grids);
    let radius = search_radius(params);
    let mut poses = Vec::new();
    let mut results = Vec::with_capacity(ligands.len());

    for (index, lig) in ligands.iter().enumerate() {
        let seed = ligand_seed(params.seed, index);
        let prep = rec
            .span("engine.prep", || LigandPrep::new(lig.clone()))
            .map_err(|e| e.to_string())?;
        engine.validate_prep(&prep).map_err(|e| e.to_string())?;

        let mut ga = Ga::new(params.ga, seed, centre, radius, prep.n_torsions());
        let mut ls_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6c73);
        let mut pop = rec.span("ga.init", || ga.init_population());
        let mut fitness = vec![0.0f32; pop.len()];
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        let mut best = f32::INFINITY;
        let mut evaluations = 0u64;
        for gen in 0..params.ga.generations {
            rec.span("engine.score_sweep", || {
                for (ind, fit) in pop.iter().zip(fitness.iter_mut()) {
                    *fit = engine.score(&prep, ind, &mut scratch, params.backend);
                }
            });
            evaluations += pop.len() as u64;
            best = fitness.iter().copied().fold(best, f32::min);

            if let Some(ls) = &params.local_search {
                let refine = ((pop.len() as f32 * ls.fraction).ceil() as usize).max(1);
                let mut order: Vec<usize> = (0..pop.len()).collect();
                order.sort_by(|&a, &b| fitness[a].total_cmp(&fitness[b]));
                for &idx in order.iter().take(refine) {
                    let r = rec.span("local_search", || {
                        solis_wets(
                            &engine,
                            &prep,
                            &pop[idx],
                            fitness[idx],
                            params.backend,
                            ls,
                            centre,
                            radius,
                            &mut ls_rng,
                            &mut scratch,
                        )
                    });
                    evaluations += r.evaluations;
                    if r.score < fitness[idx] {
                        fitness[idx] = r.score;
                        pop[idx] = r.genotype;
                    }
                    best = best.min(fitness[idx]);
                }
            }

            if sample {
                // Walk through the population as the generations go by.
                for k in 0..POSES_PER_GENERATION {
                    let pick = (gen * 7 + k * pop.len() / POSES_PER_GENERATION) % pop.len();
                    poses.push(PoseSample {
                        ligand: index,
                        genotype: pop[pick].clone(),
                    });
                }
            }
            pop = rec.span("ga.evolve", || ga.evolve(&pop, &fitness));
        }

        results.push(ScreenResult {
            name: lig.name.clone(),
            best_score: Some(best),
            evaluations,
            stats: Default::default(),
        });
    }

    let summary = ScreenSummary {
        results,
        elapsed: Default::default(),
        threads: 1,
        throughput: 0.0,
    };
    Ok((ranking_of_summary(&summary), poses))
}
