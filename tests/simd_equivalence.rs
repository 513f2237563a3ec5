//! Property-based equivalence of the SIMD kernels against their scalar
//! references, over randomized molecules and poses — the correctness
//! backbone of the whole explicit-vectorization arm.

use mudock::core::scoring::inter::inter_energy_simd_single_gathers;
use mudock::core::scoring::{
    inter_energy_reference, inter_energy_simd, intra_energy_reference, intra_energy_simd,
    intra_energy_simd_walk, IntraWalk, PairLayout, PairsSoA,
};
use mudock::core::transform::{apply_pose_reference, apply_pose_simd};
use mudock::core::{
    Backend, Campaign, CampaignError, DockError, DockingEngine, Genotype, LigandPrep,
};
use mudock::ff::params::PairTable;
use mudock::grids::{GridBuilder, GridDims, GridSet, NUM_MAPS};
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

/// One posed ligand per atom count the generator yields up to 32 atoms:
/// rigid ones, flexible ones, and (asserted) exactly 16 and exactly 32
/// atoms — a full lower register and a full table.
fn posed_ligands_up_to_32_atoms() -> Vec<(LigandPrep, ConformSoA)> {
    let mut by_atoms: std::collections::BTreeMap<usize, (LigandPrep, ConformSoA)> =
        Default::default();
    for heavy in 2..=28 {
        for seed in 0..12u64 {
            let torsions = [0, 1, heavy / 5][seed as usize % 3];
            let lig = mudock::molio::synthetic_ligand(
                seed,
                mudock::molio::LigandSpec {
                    heavy_atoms: heavy,
                    torsions,
                },
            );
            if lig.atoms.len() > 32 || by_atoms.contains_key(&lig.atoms.len()) {
                continue;
            }
            let prep = LigandPrep::new(lig).unwrap();
            let g = random_pose(seed, prep.n_torsions());
            let mut conf = ConformSoA::with_capacity(prep.base.n);
            apply_pose_reference(&prep.base, &prep.plans, &g, &mut conf);
            by_atoms.insert(prep.base.n, (prep, conf));
        }
    }
    for n in [2, 16, 32] {
        assert!(by_atoms.contains_key(&n), "no ligand of exactly {n} atoms");
    }
    assert!(by_atoms.values().any(|(p, _)| p.n_torsions() == 0));
    assert!(by_atoms.values().any(|(p, _)| p.n_torsions() == 1));
    by_atoms.into_values().collect()
}

#[test]
fn table_walk_is_bit_identical_to_the_gathered_walk() {
    for (prep, conf) in posed_ligands_up_to_32_atoms() {
        let n = prep.base.n;
        let packed =
            PairsSoA::build_as(&prep.mol, &prep.topo, &PairTable::new(), PairLayout::Packed);
        let no_pairs = PairsSoA::build_as(
            &prep.mol,
            &mudock::mol::Topology::default(),
            &PairTable::new(),
            PairLayout::Packed,
        );
        for level in SimdLevel::available() {
            // What `LigandPrep` built, walked as the kernel selects (the
            // table on AVX-512), against the same list gathered.
            let gathered = intra_energy_simd_walk(level, &conf, &packed, IntraWalk::Gathered);
            let selected = intra_energy_simd(level, &conf, &packed);
            assert_eq!(
                selected.to_bits(),
                gathered.to_bits(),
                "{n} atoms, {level}: {selected} vs {gathered}"
            );
            // The table forced wherever two registers hold the ligand, so
            // the default lookup runs inside the kernel as well.
            if n <= 2 * level.lanes() {
                let table = intra_energy_simd_walk(level, &conf, &packed, IntraWalk::Table);
                assert_eq!(table.to_bits(), gathered.to_bits(), "{n} atoms, {level}");
                let empty = intra_energy_simd_walk(level, &conf, &no_pairs, IntraWalk::Table);
                assert_eq!(empty, 0.0, "{n} atoms, no pairs, {level}");
            }
            assert_eq!(intra_energy_simd(level, &conf, &no_pairs), 0.0);
        }
    }
}

#[test]
fn paired_corner_gathers_are_bit_identical_to_single_gathers() {
    let (receptor, ligand) = mudock::molio::complex_1a30_like();
    let mut types: Vec<mudock::ff::AtomType> = ligand.atoms.iter().map(|a| a.ty).collect();
    types.sort_unstable();
    types.dedup();
    // Unequal axes: a stride mix-up cannot cancel out.
    let dims = GridDims {
        npts: [23, 19, 27],
        spacing: 0.8,
        origin: Vec3::new(-8.8, -7.2, -10.4),
    };
    let maps = GridBuilder::new(&receptor, dims)
        .with_types(&types)
        .build_simd(SimdLevel::detect());
    let prep = LigandPrep::new(ligand).unwrap();
    let (lo, hi) = (dims.origin, dims.max_corner());

    let mut poses = Vec::new();
    for pose_seed in 0..12u64 {
        let g = random_pose(pose_seed, prep.n_torsions());
        let mut conf = ConformSoA::with_capacity(prep.base.n);
        apply_pose_reference(&prep.base, &prep.plans, &g, &mut conf);
        poses.push(conf);
    }
    // Atoms pushed through each face, onto both extreme corners, and
    // exactly onto the last lattice point.
    let mut clamped = poses[0].clone();
    let outside = [
        Vec3::new(lo.x - 3.0, 0.0, 0.0),
        Vec3::new(hi.x + 3.0, 0.0, 0.0),
        Vec3::new(0.0, lo.y - 3.0, 0.0),
        Vec3::new(0.0, hi.y + 3.0, 0.0),
        Vec3::new(0.0, 0.0, lo.z - 3.0),
        Vec3::new(0.0, 0.0, hi.z + 3.0),
        hi + Vec3::new(4.0, 5.0, 6.0),
        lo - Vec3::new(4.0, 5.0, 6.0),
        hi,
    ];
    assert!(clamped.n >= outside.len());
    for (i, p) in outside.into_iter().enumerate() {
        clamped.set_pos(i, p);
    }
    poses.push(clamped);

    for (k, conf) in poses.iter().enumerate() {
        let want = inter_energy_reference(&maps, conf, &prep.statics);
        for level in SimdLevel::available() {
            let paired = inter_energy_simd(level, &maps, conf, &prep.statics);
            let single = inter_energy_simd_single_gathers(level, &maps, conf, &prep.statics);
            assert_eq!(
                paired.to_bits(),
                single.to_bits(),
                "{level} pose {k}: {paired} vs {single}"
            );
            assert!(
                (paired - want).abs() <= 5e-3 * want.abs().max(1.0),
                "{level} pose {k}: {paired} vs reference {want}"
            );
        }
    }
}

/// A grid set over `npts` with every map marked built and a smooth
/// non-constant fill, without running the grid builder.
fn filled_grid(npts: [u32; 3]) -> GridSet {
    let mut gs = GridSet::empty(GridDims {
        npts,
        spacing: 0.5,
        origin: Vec3::ZERO,
    });
    for (k, v) in gs.data.iter_mut().enumerate() {
        *v = (k % 251) as f32 * 0.01 - 1.0;
    }
    gs.built = [true; NUM_MAPS];
    gs
}

// The two lattice tests below guard reads past `GridSet::data`: in a
// debug build the parent tripped the gather's index assert, in a release
// build it returned a number from beyond the buffer. CI runs this file in
// both profiles.

#[test]
fn lattices_without_a_cell_are_refused_with_a_typed_error() {
    for npts in [[1, 1, 1], [2, 1, 2], [1, 5, 5]] {
        let gs = filled_grid(npts);
        match DockingEngine::new(&gs) {
            Err(DockError::GridTooThin { npts: got }) => assert_eq!(got, npts),
            Err(other) => panic!("{npts:?}: {other}"),
            Ok(_) => panic!("{npts:?} accepted"),
        }
        assert_eq!(
            Campaign::builder().grid_dims(gs.dims).build().unwrap_err(),
            CampaignError::InvalidGrid(npts)
        );
    }
    assert!(DockingEngine::new(&filled_grid([2, 2, 2])).is_ok());
}

#[test]
fn an_axis_of_2050_points_clamps_inside_its_last_cell() {
    // (2050 − 1) − 1e-4 rounds back to 2049 in f32: the parent's upper
    // clamp let `trunc` land on the last *point*, one cell too far.
    let gs = filled_grid([2050, 3, 3]);
    let engine = DockingEngine::new(&gs).unwrap();
    let (_, ligand) = mudock::molio::complex_1a30_like();
    let prep = LigandPrep::new(ligand).unwrap();
    let mut scratch = ConformSoA::with_capacity(prep.base.n);
    let mut g = Genotype::identity(prep.n_torsions());
    // The whole ligand beyond the upper corner, and straddling it.
    for beyond in [40.0, 0.0] {
        let at = gs.dims.max_corner() + Vec3::new(beyond, beyond, beyond);
        g.genes[..3].copy_from_slice(&[at.x, at.y, at.z]);
        let reference = engine.score(&prep, &g, &mut scratch, Backend::Reference);
        assert!(reference.is_finite());
        for backend in Backend::available() {
            let got = engine.score(&prep, &g, &mut scratch, backend);
            assert!(
                (got - reference).abs() <= 5e-3 * reference.abs().max(1.0),
                "{backend}: {got} vs reference {reference}"
            );
        }
    }
}
