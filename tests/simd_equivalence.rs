//! Property-based equivalence of the SIMD kernels against their scalar
//! references, over randomized molecules and poses — the correctness
//! backbone of the whole explicit-vectorization arm.

use mudock::core::scoring::{
    inter_energy_reference, inter_energy_simd, intra_energy_reference, intra_energy_simd,
    PairLayout, PairsSoA,
};
use mudock::core::transform::{apply_pose_reference, apply_pose_simd};
use mudock::core::{Genotype, LigandPrep};
use mudock::ff::params::PairTable;
use mudock::grids::{GridBuilder, GridDims};
use mudock::mol::{ConformSoA, Vec3};
use mudock::simd::SimdLevel;
use proptest::prelude::*;

/// Strategy: a ligand spec plus a pose seed.
fn spec_strategy() -> impl Strategy<Value = (u64, usize, usize, u64)> {
    (
        0u64..1000, // ligand seed
        4usize..65, // heavy atoms: both sides of the pair-layout selection
        0usize..15, // torsions
        0u64..1000, // pose seed
    )
}

fn random_pose(seed: u64, n_torsions: usize) -> Genotype {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Genotype::random(&mut rng, n_torsions, Vec3::ZERO, 6.0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn transform_kernel_matches_reference((lig_seed, heavy, tors, pose_seed) in spec_strategy()) {
        let lig = mudock::molio::synthetic_ligand(
            lig_seed,
            mudock::molio::LigandSpec { heavy_atoms: heavy, torsions: tors },
        );
        let prep = LigandPrep::new(lig).unwrap();
        let g = random_pose(pose_seed, prep.n_torsions());
        let mut want = ConformSoA::with_capacity(prep.base.n);
        apply_pose_reference(&prep.base, &prep.plans, &g, &mut want);
        for level in SimdLevel::available() {
            let mut got = ConformSoA::with_capacity(prep.base.n);
            apply_pose_simd(level, &prep.base, &prep.plans, &g, &mut got);
            for i in 0..prep.base.n {
                let d = (got.pos(i) - want.pos(i)).norm();
                prop_assert!(d < 2e-3, "{level}: atom {i} off by {d}");
            }
        }
    }

    #[test]
    fn intra_kernel_matches_reference((lig_seed, heavy, tors, pose_seed) in spec_strategy()) {
        let lig = mudock::molio::synthetic_ligand(
            lig_seed,
            mudock::molio::LigandSpec { heavy_atoms: heavy, torsions: tors },
        );
        let prep = LigandPrep::new(lig).unwrap();
        // Score a *transformed* conformation, not just the base one.
        let g = random_pose(pose_seed, prep.n_torsions());
        let mut conf = ConformSoA::with_capacity(prep.base.n);
        apply_pose_reference(&prep.base, &prep.plans, &g, &mut conf);
        let want = intra_energy_reference(&conf, &prep.pairs);
        // Whichever layout `LigandPrep` chose, both walks must agree.
        for layout in [PairLayout::Packed, PairLayout::Rows] {
            let pairs = PairsSoA::build_as(&prep.mol, &prep.topo, &PairTable::new(), layout);
            for level in SimdLevel::available() {
                let got = intra_energy_simd(level, &conf, &pairs);
                let tol = 3e-3 * want.abs().max(1.0);
                prop_assert!(
                    (got - want).abs() <= tol,
                    "{level} {layout:?}: {got} vs {want} (tol {tol})"
                );
            }
        }
    }
}

/// A 48-heavy-atom ligand: dense enough in scored pairs that
/// `LigandPrep` lays them out as half-shell rows.
fn large_prep() -> LigandPrep {
    let lig = mudock::molio::synthetic_ligand(
        11,
        mudock::molio::LigandSpec {
            heavy_atoms: 48,
            torsions: 10,
        },
    );
    let prep = LigandPrep::new(lig).unwrap();
    assert_eq!(prep.pairs.layout(), PairLayout::Rows);
    prep
}

#[test]
fn large_ligand_stretched_beyond_the_cutoff_scores_zero() {
    let prep = large_prep();
    let mut conf = prep.base.clone();
    for i in 0..conf.n {
        conf.x[i] += 100.0 * i as f32; // > 8 Å between every pair
    }
    assert_eq!(intra_energy_reference(&conf, &prep.pairs), 0.0);
    for level in SimdLevel::available() {
        assert_eq!(intra_energy_simd(level, &conf, &prep.pairs), 0.0, "{level}");
    }
}

#[test]
fn large_ligand_without_scored_pairs_scores_zero() {
    let prep = large_prep();
    let no_topology = mudock::mol::Topology::default();
    for layout in [PairLayout::Packed, PairLayout::Rows] {
        let empty = PairsSoA::build_as(&prep.mol, &no_topology, &PairTable::new(), layout);
        assert_eq!(empty.n, 0);
        assert_eq!(intra_energy_reference(&prep.base, &empty), 0.0);
        for level in SimdLevel::available() {
            assert_eq!(intra_energy_simd(level, &prep.base, &empty), 0.0, "{level}");
        }
    }
}

#[test]
fn inter_kernel_matches_reference_over_many_poses() {
    // One grid build (expensive) reused across many random poses.
    let (receptor, ligand) = mudock::molio::complex_1a30_like();
    let mut types: Vec<mudock::ff::AtomType> = ligand.atoms.iter().map(|a| a.ty).collect();
    types.sort_unstable();
    types.dedup();
    let dims = GridDims::centered(Vec3::ZERO, 10.0, 0.7);
    let maps = GridBuilder::new(&receptor, dims)
        .with_types(&types)
        .build_simd(SimdLevel::detect());
    let prep = LigandPrep::new(ligand).unwrap();

    for pose_seed in 0..40u64 {
        let g = random_pose(pose_seed, prep.n_torsions());
        let mut conf = ConformSoA::with_capacity(prep.base.n);
        apply_pose_reference(&prep.base, &prep.plans, &g, &mut conf);
        let want = inter_energy_reference(&maps, &conf, &prep.statics);
        for level in SimdLevel::available() {
            let got = inter_energy_simd(level, &maps, &conf, &prep.statics);
            let tol = 5e-3 * want.abs().max(1.0);
            assert!(
                (got - want).abs() <= tol,
                "{level} pose {pose_seed}: {got} vs {want}"
            );
        }
    }
}
