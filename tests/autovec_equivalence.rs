//! The portable arm (`Backend::AutoVec`, `core::autovec`) against the
//! `libm` reference and the one-lane explicit kernel it shares its
//! per-lane math with, in every frame this host can run: agreement over
//! the ladder's three ligand classes, bit-identity inside an arithmetic
//! class, the baseline frame's bits pinned to PR 23's, determinism, edge
//! shapes, and the property the explicit arm cannot have — no index a
//! caller can corrupt makes it read out of bounds, hardware gathers
//! included.

use mudock::core::autovec::{self, inter_energy_autovec_at, intra_energy_autovec_at};
use mudock::core::scoring::{
    inter_energy_reference, inter_energy_simd, intra_energy_simd, PairLayout, PairsSoA,
};
use mudock::core::transform::{apply_pose_reference, apply_pose_simd};
use mudock::core::{screen, Backend, DockParams, DockingEngine, GaParams, Genotype, LigandPrep};
use mudock::ff::params::{weights, PairTable};
use mudock::grids::{Fnv64, GridBuilder, GridDims, GridSet, NUM_MAPS};
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

/// Every map built, smooth and non-constant, without the builder: the
/// same values on every host, whatever level it would build grids at.
fn smooth_maps(dims: GridDims) -> GridSet {
    let mut maps = GridSet::empty(dims);
    for (k, v) in maps.data.iter_mut().enumerate() {
        *v = (k % 251) as f32 * 0.01 - 1.0;
    }
    maps.built = [true; NUM_MAPS];
    maps
}

/// The tolerance of `backends_agree_on_single_pose_scores`.
fn agree(got: f32, want: f32) -> bool {
    (got - want).abs() <= 5e-3 * want.abs().max(1.0)
}

/// What `DockingEngine::score` computes for `Backend::AutoVec`, in a
/// given frame.
fn score_at(
    frame: SimdLevel,
    maps: &GridSet,
    prep: &LigandPrep,
    g: &Genotype,
    scratch: &mut ConformSoA,
) -> f32 {
    apply_pose_simd(frame, &prep.base, &prep.plans, g, scratch);
    inter_energy_autovec_at(frame, maps, scratch, &prep.statics)
        + intra_energy_autovec_at(frame, scratch, &prep.pairs)
        + weights::TORS * prep.n_torsions() as f32
}

/// `f(what, pose)` over 200 poses seeded by the ligand's size.
fn for_each_pose(prep: &LigandPrep, mut f: impl FnMut(&str, &Genotype)) {
    // (pose centre, translation bound, poses): inside the 20 Å box,
    // straddling a face and a corner of it, and far outside.
    let regions = [
        (Vec3::ZERO, 4.0, 110),
        (Vec3::new(10.0, 0.0, 0.0), 4.0, 30),
        (Vec3::new(-10.0, 10.0, -10.0), 5.0, 30),
        (Vec3::new(300.0, -500.0, 800.0), 50.0, 30),
    ];
    let mut rng = StdRng::seed_from_u64(prep.base.n as u64);
    for (centre, bound, poses) in regions {
        for k in 0..poses {
            let g = Genotype::random(&mut rng, prep.n_torsions(), centre, bound);
            f(
                &format!("{} atoms, pose {k} around {centre}", prep.base.n),
                &g,
            );
        }
    }
}

#[test]
fn autovec_agrees_with_reference_and_one_lane_over_the_ligand_classes() {
    let preps = classes();
    let maps = grids_for(&preps);
    let engine = DockingEngine::new(&maps).unwrap();
    for prep in &preps {
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        for_each_pose(prep, |what, g| {
            let wants = [Backend::Reference, ONE_LANE]
                .map(|other| (other, engine.score(prep, g, &mut scratch, other)));
            for frame in SimdLevel::available() {
                let got = score_at(frame, &maps, prep, g, &mut scratch);
                for (other, want) in wants {
                    assert!(
                        agree(got, want),
                        "{what}: autovec@{frame} {got} vs {other} {want}"
                    );
                }
            }
            // The engine scores in its own frame, nothing else.
            let routed = engine.score(prep, g, &mut scratch, Backend::AutoVec);
            let direct = score_at(engine.frame(), &maps, prep, g, &mut scratch);
            assert_eq!(routed.to_bits(), direct.to_bits(), "{what}");
        });
    }
}

#[test]
fn frames_of_one_arithmetic_class_are_bit_identical_pose_by_pose() {
    // Sixteen lanes and the reduction tree are fixed in the source, so
    // register width cannot reorder a sum: only fusion separates frames.
    let preps = classes();
    let maps = grids_for(&preps);
    let frames = SimdLevel::available();
    assert_eq!(autovec::arithmetic_at(SimdLevel::Scalar), "unfused");
    for prep in &preps {
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        for_each_pose(prep, |what, g| {
            let mut by_class: [Option<(SimdLevel, f32)>; 2] = [None; 2];
            for &frame in &frames {
                let got = score_at(frame, &maps, prep, g, &mut scratch);
                let class = usize::from(autovec::arithmetic_at(frame) == "fused");
                let (first, want) = *by_class[class].get_or_insert((frame, got));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{what}: autovec@{frame} {got} vs autovec@{first} {want}"
                );
            }
        });
    }
}

#[test]
fn a_narrowed_engine_scores_in_the_frame_it_was_narrowed_to() {
    let preps = classes();
    let maps = grids_for(&preps);
    assert_eq!(
        DockingEngine::new(&maps).unwrap().frame(),
        SimdLevel::detect(),
        "an engine starts in the widest frame the host runs"
    );
    for frame in SimdLevel::available() {
        let engine = DockingEngine::new(&maps).unwrap().with_frame(frame);
        assert_eq!(engine.frame(), frame);
        for prep in &preps {
            let mut scratch = ConformSoA::with_capacity(prep.base.n);
            for_each_pose(prep, |what, g| {
                let routed = engine.score(prep, g, &mut scratch, Backend::AutoVec);
                let direct = score_at(frame, &maps, prep, g, &mut scratch);
                assert_eq!(routed.to_bits(), direct.to_bits(), "{what} @{frame}");
            });
        }
    }
}

#[test]
fn an_engine_narrows_only_to_frames_the_host_runs() {
    let maps = smooth_maps(GridDims::centered(Vec3::ZERO, 2.0, 0.5));
    let narrow = |from: SimdLevel, to: SimdLevel| {
        std::panic::catch_unwind(|| {
            DockingEngine::new(&maps)
                .unwrap()
                .with_frame(from)
                .with_frame(to)
                .frame()
        })
    };
    let widest = SimdLevel::detect();
    for to in SimdLevel::ALL {
        let got = narrow(widest, to);
        if to.is_supported() {
            assert_eq!(got.ok(), Some(to), "{widest} narrows to {to}");
        } else {
            assert!(got.is_err(), "{to} is not supported here");
        }
        // Once narrowed, an engine does not widen again.
        if to > SimdLevel::Scalar {
            assert!(
                narrow(SimdLevel::Scalar, to).is_err(),
                "scalar widened to {to}"
            );
        }
    }
}

#[test]
fn the_baseline_frame_scores_the_bits_it_scored_before_there_were_frames() {
    // `to_bits` of `engine.score(…, Backend::AutoVec)` at commit c3de2ef
    // (PR 23, no frames, `Scalar` token only), debug and release builds
    // alike: what a host without AVX2+FMA keeps computing.
    let pinned: [[u32; 3]; 3] = [
        [0x40c3_7852, 0x4112_aefe, 0x41af_b32d], // 6.1084375 9.167723 21.962488
        [0x4124_24f1, 0x45d3_7907, 0x45fd_dbae], // 10.259019 6767.1284 8123.46
        [0x48e3_a90c, 0x487b_0cab, 0x4865_f88f], // 466248.38 257074.67 235490.23
    ];
    let maps = smooth_maps(GridDims::centered(Vec3::ZERO, 8.0, 0.5));
    for (prep, pinned) in classes().iter().zip(pinned) {
        let mut rng = StdRng::seed_from_u64(prep.base.n as u64);
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        let regions = [
            (Vec3::ZERO, 4.0),
            (Vec3::ZERO, 1.0),
            (Vec3::new(8.0, 0.0, 0.0), 4.0),
        ];
        for ((centre, bound), want) in regions.into_iter().zip(pinned) {
            let g = Genotype::random(&mut rng, prep.n_torsions(), centre, bound);
            let got = score_at(SimdLevel::Scalar, &maps, prep, &g, &mut scratch);
            assert_eq!(
                got.to_bits(),
                want,
                "{} atoms around {centre}: {got}",
                prep.base.n
            );
        }
    }
}

#[test]
fn the_pose_transform_writes_the_bits_it_wrote_before_it_had_one_body() {
    // FNV-64 over every coordinate `apply_pose_simd` writes, padding
    // included, for the 200 poses of each ligand class: the bits of the
    // explicit `Simd`-generic transform, captured at commit 2717ea8 before
    // it was deleted. One constant per arithmetic class.
    const UNFUSED: u64 = 0x6419_5e11_b931_5e7f;
    const FUSED: u64 = 0xab11_e600_1b93_ec36;
    let preps = classes();
    for level in SimdLevel::available() {
        let mut h = Fnv64::new();
        for prep in &preps {
            let mut out = ConformSoA::with_capacity(prep.base.n);
            for_each_pose(prep, |_, g| {
                apply_pose_simd(level, &prep.base, &prep.plans, g, &mut out);
                let len = out.len_padded();
                for axis in [&out.x, &out.y, &out.z] {
                    for &c in &axis[..len] {
                        h.write_f32(c);
                    }
                }
            });
        }
        let want = if level == SimdLevel::Scalar {
            UNFUSED
        } else {
            FUSED
        };
        assert_eq!(h.finish(), want, "{level}: {:#018x}", h.finish());
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
        let mut stretched = prep.base.clone();
        for i in 0..stretched.n {
            stretched.x[i] += 100.0 * i as f32; // > 8 Å between every pair
        }
        for frame in SimdLevel::available() {
            for empty in both_layouts(prep, &Topology::default()) {
                assert_eq!(empty.n, 0);
                assert_eq!(intra_energy_autovec_at(frame, &prep.base, &empty), 0.0);
            }
            for pairs in both_layouts(prep, &prep.topo) {
                let got = intra_energy_autovec_at(frame, &stretched, &pairs);
                assert_eq!(
                    got,
                    0.0,
                    "{} atoms {:?} @{frame}",
                    prep.base.n,
                    pairs.layout()
                );
            }
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
        // A NaN gene: every coordinate of the pose.
        let mut g = Genotype::identity(prep.n_torsions());
        g.genes[1] = f32::NAN;
        let mut scratch = ConformSoA::with_capacity(prep.base.n);
        let want_pose = engine.score(prep, &g, &mut scratch, ONE_LANE);

        let same = |what: &str, got: f32, want: f32| {
            assert_eq!(got.is_nan(), want.is_nan(), "{what} {got} vs {want}");
            assert!(want.is_nan() || agree(got, want), "{what} {got} vs {want}");
        };
        for frame in SimdLevel::available() {
            for pairs in both_layouts(prep, &prep.topo) {
                let got = intra_energy_autovec_at(frame, &conf, &pairs);
                let want = intra_energy_simd(SimdLevel::Scalar, &conf, &pairs);
                same(&format!("intra@{frame}"), got, want);
            }
            let got = inter_energy_autovec_at(frame, &maps, &conf, &prep.statics);
            let want = inter_energy_simd(SimdLevel::Scalar, &maps, &conf, &prep.statics);
            same(&format!("inter@{frame}"), got, want);

            let got = score_at(frame, &maps, prep, &g, &mut scratch);
            same(&format!("pose@{frame}"), got, want_pose);
        }
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
        // Any number will do; what matters is that it returns — through
        // a hardware gather, too.
        for frame in SimdLevel::available() {
            let _ = intra_energy_autovec_at(frame, &conf, &pairs);
        }
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
    let maps = smooth_maps(dims);

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
        let want = inter_energy_reference(&maps, &conf, &st);
        for frame in SimdLevel::available() {
            let got = inter_energy_autovec_at(frame, &maps, &conf, &st);
            assert!(agree(got, want), "@{frame}: {got} vs {want}");
        }
    }

    // `AtomStatics::ty` is public too.
    for bad in [i32::MAX, i32::MIN, -1, NUM_MAPS as i32, 1 << 20] {
        let mut st = st.clone();
        st.ty.fill(bad);
        for frame in SimdLevel::available() {
            let _ = inter_energy_autovec_at(frame, &maps, &conf, &st);
        }
    }
}

#[test]
fn a_conformation_of_another_molecule_is_refused() {
    let [small, prep, _] = classes();
    for frame in SimdLevel::available() {
        let hit =
            std::panic::catch_unwind(|| intra_energy_autovec_at(frame, &small.base, &prep.pairs));
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
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            apply_pose_simd(frame, &prep.base, &prep.plans, &g, &mut short)
        }));
        assert!(hit.is_err());
    }
}
