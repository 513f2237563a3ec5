//! The portable arm (`Backend::AutoVec`, `core::autovec`) against the
//! `libm` reference and the one-lane explicit kernel it shares its
//! per-lane math with: agreement over the ladder's three ligand classes,
//! determinism, edge shapes, and the property the explicit arm cannot
//! have — no index a caller can corrupt makes it read out of bounds.

use mudock::core::autovec::{inter_energy_autovec, intra_energy_autovec};
use mudock::core::scoring::{
    inter_energy_reference, inter_energy_simd, intra_energy_simd, PairLayout, PairsSoA,
};
use mudock::core::transform::apply_pose_reference;
use mudock::core::{screen, Backend, DockParams, DockingEngine, GaParams, Genotype, LigandPrep};
use mudock::ff::params::PairTable;
use mudock::grids::{GridBuilder, GridDims, GridSet, NUM_MAPS};
use mudock::mol::{AtomStatics, ConformSoA, Topology, Vec3};
use mudock::simd::SimdLevel;
use rand::{rngs::StdRng, SeedableRng};

const ONE_LANE: Backend = Backend::Explicit(SimdLevel::Scalar);

/// The ladder's ligand classes: 10 and 24 heavy atoms (packed pair
/// lists), 48 (half-shell rows).
fn classes() -> [LigandPrep; 3] {
    let preps = [(10, 2), (24, 4), (48, 9)].map(|(heavy_atoms, torsions)| {
        let lig = mudock::molio::synthetic_ligand(
            7,
            mudock::molio::LigandSpec {
                heavy_atoms,
                torsions,
            },
        );
        LigandPrep::new(lig).unwrap()
    });
    assert_eq!(
        preps.each_ref().map(|p| p.pairs.layout()),
        [PairLayout::Packed, PairLayout::Packed, PairLayout::Rows]
    );
    preps
}

/// Maps for every atom type of `preps`, 20 Å across.
fn grids_for(preps: &[LigandPrep]) -> GridSet {
    let mut types: Vec<mudock::ff::AtomType> = preps
        .iter()
        .flat_map(|p| p.mol.atoms.iter().map(|a| a.ty))
        .collect();
    types.sort_unstable();
    types.dedup();
    let receptor = mudock::molio::synthetic_receptor(5, 150, 9.0);
    GridBuilder::new(&receptor, GridDims::centered(Vec3::ZERO, 10.0, 0.8))
        .with_types(&types)
        .build_simd(SimdLevel::detect())
}

/// The tolerance of `backends_agree_on_single_pose_scores`.
fn agree(got: f32, want: f32) -> bool {
    (got - want).abs() <= 5e-3 * want.abs().max(1.0)
}

#[test]
fn autovec_agrees_with_reference_and_one_lane_over_the_ligand_classes() {
    let preps = classes();
    let maps = grids_for(&preps);
    let engine = DockingEngine::new(&maps).unwrap();
    // (pose centre, translation bound, poses): inside the box, straddling
    // a face and a corner of it, and far outside.
    let regions = [
        (Vec3::ZERO, 4.0, 110),
        (Vec3::new(10.0, 0.0, 0.0), 4.0, 30),
        (Vec3::new(-10.0, 10.0, -10.0), 5.0, 30),
        (Vec3::new(300.0, -500.0, 800.0), 50.0, 30),
    ];
    for prep in &preps {
        let mut rng = StdRng::seed_from_u64(prep.base.n as u64);
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        for (centre, bound, poses) in regions {
            for k in 0..poses {
                let g = Genotype::random(&mut rng, prep.n_torsions(), centre, bound);
                let got = engine.score(prep, &g, &mut scratch, Backend::AutoVec);
                for other in [Backend::Reference, ONE_LANE] {
                    let want = engine.score(prep, &g, &mut scratch, other);
                    assert!(
                        agree(got, want),
                        "{} atoms, pose {k} around {centre}: autovec {got} vs {other} {want}",
                        prep.base.n
                    );
                }
            }
        }
    }
}

#[test]
fn autovec_scores_and_rankings_are_deterministic() {
    let preps = classes();
    let maps = grids_for(&preps);
    let engine = DockingEngine::new(&maps).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for prep in &preps {
        let g = Genotype::random(&mut rng, prep.n_torsions(), Vec3::ZERO, 4.0);
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        let a = engine.score(prep, &g, &mut scratch, Backend::AutoVec);
        // A scratch that held another pose in between.
        let other = Genotype::random(&mut rng, prep.n_torsions(), Vec3::ZERO, 4.0);
        engine.score(prep, &other, &mut scratch, Backend::AutoVec);
        let b = engine.score(prep, &g, &mut scratch, Backend::AutoVec);
        assert_eq!(a.to_bits(), b.to_bits(), "{} atoms", prep.base.n);
    }

    let ligands = mudock::molio::mediate_like_set(3, 6);
    let receptor = mudock::molio::synthetic_receptor(11, 180, 9.0);
    let maps = GridBuilder::new(&receptor, GridDims::centered(Vec3::ZERO, 10.0, 0.8))
        .build_simd(SimdLevel::detect());
    let params = DockParams {
        ga: GaParams {
            population: 16,
            generations: 8,
            ..Default::default()
        },
        seed: 55,
        backend: Backend::AutoVec,
        search_radius: Some(4.0),
        local_search: None,
    };
    let one = screen(&maps, &ligands, &params, 1);
    let four = screen(&maps, &ligands, &params, 4);
    assert_eq!(one.results.len(), ligands.len());
    for (a, b) in one.results.iter().zip(&four.results) {
        assert_eq!(a.name, b.name);
        assert!(a.best_score.is_some());
        assert_eq!(
            a.best_score.map(f32::to_bits),
            b.best_score.map(f32::to_bits),
            "ligand {} differs across thread counts",
            a.name
        );
    }
}

/// Both layouts of a prepared ligand's pairs over `topo`.
fn both_layouts(prep: &LigandPrep, topo: &Topology) -> [PairsSoA; 2] {
    [PairLayout::Packed, PairLayout::Rows]
        .map(|layout| PairsSoA::build_as(&prep.mol, topo, &PairTable::new(), layout))
}

#[test]
fn ligands_without_scored_pairs_or_beyond_the_cutoff_score_zero() {
    for prep in &classes() {
        for empty in both_layouts(prep, &Topology::default()) {
            assert_eq!(empty.n, 0);
            assert_eq!(intra_energy_autovec(&prep.base, &empty), 0.0);
        }
        let mut stretched = prep.base.clone();
        for i in 0..stretched.n {
            stretched.x[i] += 100.0 * i as f32; // > 8 Å between every pair
        }
        for pairs in both_layouts(prep, &prep.topo) {
            let got = intra_energy_autovec(&stretched, &pairs);
            assert_eq!(got, 0.0, "{} atoms {:?}", prep.base.n, pairs.layout());
        }
    }
}

#[test]
fn nan_coordinates_score_like_the_one_lane_kernel() {
    let preps = classes();
    let maps = grids_for(&preps);
    let engine = DockingEngine::new(&maps).unwrap();
    for prep in &preps {
        // One atom's coordinate, kernel by kernel.
        let mut conf = prep.base.clone();
        conf.y[prep.base.n / 2] = f32::NAN;
        for pairs in both_layouts(prep, &prep.topo) {
            let got = intra_energy_autovec(&conf, &pairs);
            let want = intra_energy_simd(SimdLevel::Scalar, &conf, &pairs);
            assert_eq!(got.is_nan(), want.is_nan(), "intra {got} vs {want}");
            assert!(want.is_nan() || agree(got, want), "intra {got} vs {want}");
        }
        let got = inter_energy_autovec(&maps, &conf, &prep.statics);
        let want = inter_energy_simd(SimdLevel::Scalar, &maps, &conf, &prep.statics);
        assert_eq!(got.is_nan(), want.is_nan(), "inter {got} vs {want}");
        assert!(want.is_nan() || agree(got, want), "inter {got} vs {want}");

        // A NaN gene: every coordinate of the pose.
        let mut g = Genotype::identity(prep.n_torsions());
        g.genes[1] = f32::NAN;
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        let got = engine.score(prep, &g, &mut scratch, Backend::AutoVec);
        let want = engine.score(prep, &g, &mut scratch, ONE_LANE);
        assert_eq!(got.is_nan(), want.is_nan(), "pose {got} vs {want}");
        assert!(want.is_nan() || agree(got, want), "pose {got} vs {want}");
    }
}

#[test]
fn corrupt_pair_indices_are_clamped_not_followed() {
    // `PairsSoA::i`/`j` are public. The explicit gathered walk trusts
    // them (its SAFETY comment says so); the portable walk clamps.
    let [_, prep, _] = classes();
    let conf = prep.base.clone();
    for bad in [i32::MAX, i32::MIN, -1, conf.n as i32, 1 << 20] {
        let mut pairs = prep.pairs.clone();
        assert_eq!(pairs.layout(), PairLayout::Packed);
        let len = pairs.len_padded();
        for k in (0..len).step_by(3) {
            pairs.i[k] = bad;
            pairs.j[(k + 1) % len] = bad;
        }
        // Any number will do; what matters is that it returns.
        let _ = intra_energy_autovec(&conf, &pairs);
    }
}

#[test]
fn every_lattice_corner_and_any_type_index_stay_inside_the_maps() {
    // Unequal axes, every map a different smooth fill.
    let dims = GridDims {
        npts: [5, 4, 3],
        spacing: 0.5,
        origin: Vec3::new(-1.0, 0.5, 2.0),
    };
    let mut maps = GridSet::empty(dims);
    for (k, v) in maps.data.iter_mut().enumerate() {
        *v = (k % 251) as f32 * 0.01 - 1.0;
    }
    maps.built = [true; NUM_MAPS];

    // An atom on every lattice point and one cell beyond each face.
    let mut points = Vec::new();
    for iz in -1..=dims.npts[2] as i32 {
        for iy in -1..=dims.npts[1] as i32 {
            for ix in -1..=dims.npts[0] as i32 {
                points.push(dims.origin + Vec3::new(ix as f32, iy as f32, iz as f32) * 0.5);
            }
        }
    }
    let lig = mudock::molio::synthetic_ligand(
        2,
        mudock::molio::LigandSpec {
            heavy_atoms: 12,
            torsions: 0,
        },
    );
    let st = AtomStatics::from_molecule(&lig);
    let mut conf = ConformSoA::from_molecule(&lig);
    for chunk in points.chunks(conf.n) {
        for (i, &p) in chunk.iter().enumerate() {
            conf.set_pos(i, p);
        }
        let got = inter_energy_autovec(&maps, &conf, &st);
        let want = inter_energy_reference(&maps, &conf, &st);
        assert!(agree(got, want), "{got} vs {want}");
    }

    // `AtomStatics::ty` is public too.
    for bad in [i32::MAX, i32::MIN, -1, NUM_MAPS as i32, 1 << 20] {
        let mut st = st.clone();
        st.ty.fill(bad);
        let _ = inter_energy_autovec(&maps, &conf, &st);
    }
}

#[test]
fn a_conformation_of_another_molecule_is_refused() {
    let [small, prep, _] = classes();
    let hit = std::panic::catch_unwind(|| intra_energy_autovec(&small.base, &prep.pairs));
    let msg = *hit.unwrap_err().downcast::<String>().unwrap();
    assert!(
        msg.contains("atoms scored against pairs of"),
        "the kernel's own message, not an index panic: {msg}"
    );
    // Posing into a foreign scratch is refused as well, not truncated.
    let g = Genotype::identity(prep.n_torsions());
    let mut want = ConformSoA::with_capacity(prep.base.n);
    apply_pose_reference(&prep.base, &prep.plans, &g, &mut want);
    let mut short = ConformSoA::with_capacity(small.base.n);
    let hit = std::panic::catch_unwind(move || {
        mudock::core::autovec::apply_pose_autovec(&prep.base, &prep.plans, &g, &mut short)
    });
    assert!(hit.is_err());
}
