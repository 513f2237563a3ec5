//! What `DockingEngine::dock` reports, held to two references: FNV-64
//! pins of whole docks, and a property that a dock equals a loop, written
//! here, which breeds with `Ga::evolve` and scores every individual of
//! every generation.
//!
//! The dock scores a child only when its genes differ from both parents
//! it was bred from; a child bit-equal to one of them gets that parent's
//! fitness. Scoring is a pure function of (ligand, genotype, backend), so
//! the copy is the score, and both references must hold bit for bit.

use mudock::core::{
    solis_wets, Backend, BackendPolicy, Campaign, DockParams, DockReport, DockingEngine, Ga,
    GaParams, LigandPrep, SolisWetsParams, StopPolicy,
};
use mudock::grids::{Fnv64, GridBuilder, GridDims, GridSet};
use mudock::mol::{ConformSoA, Vec3};
use mudock::molio::{synthetic_ligand, synthetic_receptor, LigandSpec};
use mudock::simd::SimdLevel;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::OnceLock;

/// Ligands of 0–12 torsions, one per count.
fn ligand(torsions: usize) -> LigandPrep {
    let heavy_atoms = (10 + 3 * torsions).max(10);
    LigandPrep::new(synthetic_ligand(
        3,
        LigandSpec {
            heavy_atoms,
            torsions,
        },
    ))
    .unwrap()
}

/// One-lane maps (bits pinned by `tests/grid_build.rs` on every host)
/// for every atom type of the 13 ligands.
fn grids() -> &'static GridSet {
    static GRIDS: OnceLock<GridSet> = OnceLock::new();
    GRIDS.get_or_init(|| {
        let mut types: Vec<_> = (0..=12)
            .flat_map(|t| ligand(t).mol.atoms.iter().map(|a| a.ty).collect::<Vec<_>>())
            .collect();
        types.sort_unstable();
        types.dedup();
        GridBuilder::new(
            &synthetic_receptor(5, 150, 9.0),
            GridDims::centered(Vec3::ZERO, 9.0, 0.75),
        )
        .with_types(&types)
        .build_simd(SimdLevel::Scalar)
    })
}

/// FNV-64 over a report's `best_score`, every `history` entry, the best
/// genotype's genes (all by bit pattern) and `evaluations`.
fn fingerprint(r: &DockReport) -> u64 {
    let mut h = Fnv64::new();
    h.write_f32(r.best_score);
    for &s in &r.history {
        h.write_f32(s);
    }
    for &g in &r.best_genotype.genes {
        h.write_f32(g);
    }
    h.write_u64(r.evaluations);
    h.finish()
}

/// The pinned runs: a pure GA on the benchmark's small ligand class, and
/// a Lamarckian one on its large class.
fn pinned_runs() -> [(&'static str, LigandPrep, DockParams); 2] {
    let pure = DockParams {
        ga: GaParams {
            population: 50,
            generations: 16,
            ..Default::default()
        },
        seed: 41,
        backend: Backend::AutoVec,
        search_radius: Some(4.0),
        local_search: None,
    };
    let lamarckian = DockParams {
        ga: GaParams {
            population: 16,
            generations: 5,
            ..Default::default()
        },
        seed: 42,
        local_search: Some(SolisWetsParams {
            max_evals: 24,
            fraction: 0.2,
            ..Default::default()
        }),
        ..pure
    };
    let small = LigandPrep::new(synthetic_ligand(
        7,
        LigandSpec {
            heavy_atoms: 10,
            torsions: 1,
        },
    ))
    .unwrap();
    let large = LigandPrep::new(synthetic_ligand(
        7,
        LigandSpec {
            heavy_atoms: 48,
            torsions: 12,
        },
    ))
    .unwrap();
    [("pure-ga", small, pure), ("lamarckian", large, lamarckian)]
}

#[test]
fn docks_report_the_bits_they_reported_when_every_pose_was_scored() {
    // Captured at commit 9b4922b, which scored every individual of every
    // generation, in debug and release builds. Explicit levels by name;
    // the portable arm by arithmetic class (`autovec::arithmetic_at`),
    // docked in every frame the host has: each frame must hit its class's
    // pin, the unfused one at `SimdLevel::Scalar`, as a host without
    // AVX2+FMA runs it.
    const PINS: &[(&str, u64)] = &[
        ("pure-ga scalar", 0xacff_7013_a6f5_686f),
        ("pure-ga avx2", 0x13f1_c659_e218_5ec2),
        ("pure-ga avx512", 0x0da2_a9ea_e7d9_dfd2),
        ("pure-ga autovec-fused", 0x0828_ca4e_29e3_ef02),
        ("pure-ga autovec-unfused", 0x5cd8_a1fa_a443_1a2b),
        ("lamarckian scalar", 0x8b3a_6302_d05b_09aa),
        ("lamarckian avx2", 0x799c_bf02_0c1e_537b),
        ("lamarckian avx512", 0xc88f_1f65_106c_a0a2),
        ("lamarckian autovec-fused", 0xe38e_c135_775a_3b30),
        ("lamarckian autovec-unfused", 0x0585_86f2_104c_6ab9),
    ];
    let levels = SimdLevel::available();
    // (pin name, frame the engine is narrowed to, backend)
    let mut arms: Vec<(String, SimdLevel, Backend)> = Vec::new();
    for &level in &levels {
        arms.push((level.name().into(), level, Backend::Explicit(level)));
        let class = mudock::core::autovec::arithmetic_at(level);
        arms.push((format!("autovec-{class}"), level, Backend::AutoVec));
    }
    let mut wrong = Vec::new();
    let mut compared = Vec::new();
    for (run, prep, params) in pinned_runs() {
        for (name, frame, backend) in &arms {
            // An explicit level does not read the frame; narrowing to it
            // only keeps the loop flat.
            let engine = DockingEngine::new(grids()).unwrap().with_frame(*frame);
            let report = engine
                .dock(
                    &prep,
                    &DockParams {
                        backend: *backend,
                        ..params
                    },
                )
                .unwrap();
            let key = format!("{run} {name}");
            let got = fingerprint(&report);
            let want = PINS.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
            if want != Some(got) {
                wrong.push(format!(
                    "(\"{key}\", {got:#018x}), // pinned {want:x?} @{frame}"
                ));
            }
            compared.push(key);
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
    if levels.len() == SimdLevel::ALL.len() {
        for (key, _) in PINS {
            assert!(compared.iter().any(|k| k == key), "{key} never compared");
        }
    }
}

/// What a dock reports, from a loop that scores every individual: the
/// engine's generation loop with no fitness carried over.
fn dock_scoring_everything(
    engine: &DockingEngine<'_>,
    prep: &LigandPrep,
    params: &DockParams,
    stop: &StopPolicy,
) -> DockReport {
    let grids = engine.grids();
    let centre = (grids.dims.origin + grids.dims.max_corner()) * 0.5;
    let radius = params.search_radius.unwrap().max(1.0);
    let mut ga = Ga::new(params.ga, params.seed, centre, radius, prep.n_torsions());
    let mut ls_rng = StdRng::seed_from_u64(params.seed ^ 0x6c73);
    let mut pop = ga.init_population();
    let mut fitness = vec![0.0f32; pop.len()];
    let mut scratch = ConformSoA::with_capacity(prep.base.n);
    let mut best_score = f32::INFINITY;
    let mut best_genotype = pop[0].clone();
    let mut history = Vec::new();
    let mut evaluations = 0u64;
    for _ in 0..params.ga.generations {
        for (ind, fit) in pop.iter().zip(fitness.iter_mut()) {
            *fit = engine.score(prep, ind, &mut scratch, params.backend);
            evaluations += 1;
            if *fit < best_score {
                best_score = *fit;
                best_genotype.clone_from(ind);
            }
        }
        if let Some(ls) = &params.local_search {
            let refine = ((pop.len() as f32 * ls.fraction).ceil() as usize).max(1);
            let mut order: Vec<usize> = (0..pop.len()).collect();
            order.sort_by(|&a, &b| fitness[a].total_cmp(&fitness[b]));
            for &idx in order.iter().take(refine) {
                let r = solis_wets(
                    engine,
                    prep,
                    &pop[idx],
                    fitness[idx],
                    params.backend,
                    ls,
                    centre,
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
        history.push(best_score);
        if let StopPolicy::MaxEvaluations(max) = stop {
            if evaluations >= *max {
                break;
            }
        }
        pop = ga.evolve(&pop, &fitness);
    }
    DockReport {
        best_score,
        best_genotype,
        history,
        evaluations,
        stats: Default::default(),
    }
}

fn bits(r: &DockReport) -> (u32, Vec<u32>, Vec<u32>, u64) {
    (
        r.best_score.to_bits(),
        r.history.iter().map(|s| s.to_bits()).collect(),
        r.best_genotype.genes.iter().map(|g| g.to_bits()).collect(),
        r.evaluations,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn a_dock_equals_a_loop_that_scores_every_individual(
        seed in 0u64..u64::MAX,
        population in 2usize..=64,
        elitism in 0usize..64,
        torsions in 0usize..=12,
        generations in 1usize..=5,
        shape in (0usize..3, 0usize..2, 0usize..2),
        budget in 1u64..400,
    ) {
        let (arm, refine, capped) = shape;
        let backend = [
            Backend::AutoVec,
            Backend::Explicit(SimdLevel::detect()),
            Backend::Explicit(SimdLevel::Scalar),
        ][arm];
        let ga = GaParams {
            population,
            generations,
            elitism: elitism % population,
            // Mutate often enough that some children change and some do not.
            mutation_rate: 0.15,
            ..Default::default()
        };
        let stop = if capped == 1 {
            StopPolicy::MaxEvaluations(budget)
        } else {
            StopPolicy::Complete
        };
        let mut campaign = Campaign::builder()
            .ga(ga)
            .seed(seed)
            .search_radius(4.0)
            .backend(BackendPolicy::Fixed(backend))
            .stop(stop);
        if refine == 1 {
            campaign = campaign.local_search(SolisWetsParams {
                max_evals: 12,
                fraction: 0.1,
                ..Default::default()
            });
        }
        let spec = campaign.build().unwrap();
        let engine = DockingEngine::new(grids()).unwrap();
        let prep = ligand(torsions);
        let got = engine.dock_campaign(&prep, &spec).unwrap();
        let want = dock_scoring_everything(&engine, &prep, &spec.dock_params(), &stop);
        prop_assert_eq!(bits(&got), bits(&want));
        let evaluated = (got.history.len() * population) as u64;
        prop_assert_eq!(got.stats.poses_scored, evaluated);
        prop_assert_eq!(got.stats.generations, got.history.len() as u64);
        prop_assert!(got.stats.poses_reused + population as u64 <= evaluated);
    }
}
