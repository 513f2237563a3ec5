//! Property-based tests on the core data structures and invariants
//! (deliverable (c) of the reproduction): quaternion algebra, grid
//! interpolation bounds, topology exclusions, vector math accuracy, and
//! the thread pool.

use mudock::mol::{Quat, Topology, Vec3};
use proptest::prelude::*;

fn unit_quat() -> impl Strategy<Value = Quat> {
    (
        -1.0f32..1.0,
        -1.0f32..1.0,
        -1.0f32..1.0,
        0.01f32..std::f32::consts::PI,
    )
        .prop_map(|(x, y, z, angle)| Quat::from_axis_angle(Vec3::new(x, y, z + 1.5), angle))
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (-50.0f32..50.0, -50.0f32..50.0, -50.0f32..50.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #[test]
    fn quaternion_rotation_is_an_isometry(q in unit_quat(), a in vec3(), b in vec3()) {
        let da = q.rotate(a).distance(q.rotate(b));
        let db = a.distance(b);
        prop_assert!((da - db).abs() < 1e-3 * db.max(1.0));
    }

    #[test]
    fn quaternion_conjugate_is_inverse(q in unit_quat(), v in vec3()) {
        let back = q.conj().rotate(q.rotate(v));
        prop_assert!((back - v).norm() < 1e-3 * v.norm().max(1.0));
    }

    #[test]
    fn quaternion_composition_associates_with_application(
        q1 in unit_quat(), q2 in unit_quat(), v in vec3()
    ) {
        let seq = q2.rotate(q1.rotate(v));
        let comp = q2.mul(q1).rotate(v);
        prop_assert!((seq - comp).norm() < 2e-3 * v.norm().max(1.0));
    }

    #[test]
    fn shoemake_quaternions_are_unit(u1 in 0.0f32..1.0, u2 in 0.0f32..1.0, u3 in 0.0f32..1.0) {
        let q = Quat::from_uniforms(u1, u2, u3);
        prop_assert!((q.norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn vector_exp_accuracy(x in -80.0f32..80.0) {
        use mudock::simd::{math, Scalar};
        let got = math::exp(Scalar::new(), x);
        let want = (x as f64).exp();
        let rel = ((got as f64 - want) / want).abs();
        prop_assert!(rel < 2e-6, "exp({x}) rel err {rel}");
    }

    #[test]
    fn vector_log_accuracy(x in 1e-3f32..1e6) {
        use mudock::simd::{math, Scalar};
        let got = math::log(Scalar::new(), x);
        let want = (x as f64).ln();
        prop_assert!((got as f64 - want).abs() < 2e-6 * want.abs().max(1.0));
    }

    #[test]
    fn pool_matches_sequential_map(items in prop::collection::vec(0u64..1_000_000, 0..200),
                                   threads in 1usize..5) {
        let parallel = mudock::pool::parallel_map(&items, threads, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64));
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x.wrapping_mul(31).wrapping_add(i as u64)).collect();
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn synthetic_ligands_always_valid(seed in 0u64..500, heavy in 5usize..45, tors in 0usize..10) {
        let m = mudock::molio::synthetic_ligand(
            seed,
            mudock::molio::LigandSpec { heavy_atoms: heavy, torsions: tors },
        );
        prop_assert!(m.validate().is_ok());
        prop_assert!(m.num_rotatable_bonds() <= tors);
        // Every marked torsion decomposes into a valid moving fragment.
        let topo = Topology::build(&m);
        prop_assert_eq!(topo.torsions.len(), m.num_rotatable_bonds());
        for t in &topo.torsions {
            prop_assert!(!t.moving.is_empty());
            prop_assert!(!t.moving.contains(&t.a));
            prop_assert!(!t.moving.contains(&t.b));
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // Floyd-Warshall over an n*n matrix
    fn topology_pairs_respect_exclusions(seed in 0u64..300, heavy in 6usize..30) {
        let m = mudock::molio::synthetic_ligand(
            seed,
            mudock::molio::LigandSpec { heavy_atoms: heavy, torsions: 3 },
        );
        let topo = Topology::build(&m);
        // Reconstruct graph distances with Floyd-Warshall (independent of
        // the BFS in Topology) and verify the exclusion rule.
        let n = m.atoms.len();
        let inf = u32::MAX / 2;
        let mut d = vec![vec![inf; n]; n];
        for i in 0..n { d[i][i] = 0; }
        for b in &m.bonds {
            d[b.i as usize][b.j as usize] = 1;
            d[b.j as usize][b.i as usize] = 1;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = d[i][k].saturating_add(d[k][j]);
                    if via < d[i][j] { d[i][j] = via; }
                }
            }
        }
        use std::collections::HashSet;
        let pairs: HashSet<(u32, u32)> = topo.pairs.iter().copied().collect();
        for i in 0..n {
            for j in (i + 1)..n {
                let in_list = pairs.contains(&(i as u32, j as u32));
                let excluded = d[i][j] <= 3;
                prop_assert_eq!(in_list, !excluded, "pair ({}, {}) distance {}", i, j, d[i][j]);
            }
        }
    }

    /// `ScreenSummary::top_k` (the streaming O(k) accumulator) must match
    /// the obvious reference: stable-sort every scored ligand and
    /// truncate. Scores are quantized to force plenty of exact ties, and
    /// ties must rank by batch index (the stable sort's order).
    #[test]
    fn screen_summary_top_k_matches_sort_and_truncate(
        cells in prop::collection::vec((0u32..6, 0u32..5), 0..30),
        k in 0usize..12,
    ) {
        use mudock::core::{KernelStats, ScreenResult, ScreenSummary};

        let summary = ScreenSummary {
            results: cells
                .iter()
                .enumerate()
                .map(|(i, &(q, tag))| ScreenResult {
                    name: format!("lig{i}"),
                    // tag 0 → a failed ligand (no score); quantized
                    // scores (multiples of 0.5) collide constantly.
                    best_score: (tag != 0).then_some(q as f32 * 0.5 - 1.5),
                    evaluations: 0,
                    stats: KernelStats::default(),
                })
                .collect(),
            elapsed: std::time::Duration::from_millis(1),
            threads: 1,
            throughput: 0.0,
        };

        // Reference: full stable sort by score, failures dropped,
        // truncated to k. A stable sort on (score only) preserves batch
        // order among equal scores — exactly the documented tie rule.
        let mut reference: Vec<(f32, usize)> = summary
            .results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.best_score.map(|s| (s, i)))
            .collect();
        reference.sort_by(|a, b| a.0.total_cmp(&b.0));
        reference.truncate(k);
        let want: Vec<usize> = reference.into_iter().map(|(_, i)| i).collect();

        prop_assert_eq!(summary.top_k(k), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The portable arm agrees with the `libm` reference and with the
    /// one-lane explicit kernel on any ligand (both pair layouts) and any
    /// pose, in the box or out of it — the randomized form of
    /// `tests/autovec_equivalence.rs`.
    #[test]
    fn autovec_scores_match_reference_and_one_lane(
        lig_seed in 0u64..1000,
        heavy in 4usize..65,
        tors in 0usize..15,
        pose_seed in 0u64..1000,
        // 0.7: every atom inside the 16 Å box; 30: most of them outside.
        reach in 0.7f32..30.0,
    ) {
        use mudock::core::{Backend, DockingEngine, Genotype, LigandPrep};
        use mudock::grids::{GridDims, GridSet, NUM_MAPS};
        use mudock::simd::SimdLevel;
        use rand::{rngs::StdRng, SeedableRng};

        // Every map built, smooth and non-constant, without the builder.
        let mut maps = GridSet::empty(GridDims::centered(Vec3::ZERO, 8.0, 0.5));
        for (k, v) in maps.data.iter_mut().enumerate() {
            *v = (k % 251) as f32 * 0.01 - 1.0;
        }
        maps.built = [true; NUM_MAPS];
        let engine = DockingEngine::new(&maps).unwrap();

        let lig = mudock::molio::synthetic_ligand(
            lig_seed,
            mudock::molio::LigandSpec { heavy_atoms: heavy, torsions: tors },
        );
        let prep = LigandPrep::new(lig).unwrap();
        let mut rng = StdRng::seed_from_u64(pose_seed);
        let g = Genotype::random(&mut rng, prep.n_torsions(), Vec3::ZERO, reach);
        let mut scratch = mudock::mol::ConformSoA::with_capacity(prep.base.n);
        let got = engine.score(&prep, &g, &mut scratch, Backend::AutoVec);
        for other in [Backend::Reference, Backend::Explicit(SimdLevel::Scalar)] {
            let want = engine.score(&prep, &g, &mut scratch, other);
            prop_assert!(
                (got - want).abs() <= 5e-3 * want.abs().max(1.0),
                "{:?}: autovec {got} vs {other} {want}", prep.pairs.layout()
            );
        }
    }

    /// Any ligand and pose, every frame the host runs: the three drivers
    /// agree with the one-lane explicit kernels, and two frames of one
    /// arithmetic class give the same bits.
    #[test]
    fn autovec_frames_of_one_class_agree_bit_for_bit(
        lig_seed in 0u64..1000,
        heavy in 4usize..65,
        tors in 0usize..15,
        pose_seed in 0u64..1000,
        reach in 0.7f32..30.0,
    ) {
        use mudock::core::autovec::{
            apply_pose_autovec_at, arithmetic_at, inter_energy_autovec_at,
            intra_energy_autovec_at,
        };
        use mudock::core::scoring::{inter_energy_simd, intra_energy_simd};
        use mudock::core::transform::apply_pose_simd;
        use mudock::core::{Genotype, LigandPrep};
        use mudock::grids::{GridDims, GridSet, NUM_MAPS};
        use mudock::simd::SimdLevel;
        use rand::{rngs::StdRng, SeedableRng};

        let mut maps = GridSet::empty(GridDims::centered(Vec3::ZERO, 8.0, 0.5));
        for (k, v) in maps.data.iter_mut().enumerate() {
            *v = (k % 251) as f32 * 0.01 - 1.0;
        }
        maps.built = [true; NUM_MAPS];
        let lig = mudock::molio::synthetic_ligand(
            lig_seed,
            mudock::molio::LigandSpec { heavy_atoms: heavy, torsions: tors },
        );
        let prep = LigandPrep::new(lig).unwrap();
        let mut rng = StdRng::seed_from_u64(pose_seed);
        let g = Genotype::random(&mut rng, prep.n_torsions(), Vec3::ZERO, reach);

        let mut posed = mudock::mol::ConformSoA::with_capacity(prep.base.n);
        apply_pose_simd(SimdLevel::Scalar, &prep.base, &prep.plans, &g, &mut posed);
        let want = [
            inter_energy_simd(SimdLevel::Scalar, &maps, &posed, &prep.statics),
            intra_energy_simd(SimdLevel::Scalar, &posed, &prep.pairs),
        ];
        let mut first_of_class: [Option<[f32; 2]>; 2] = [None; 2];
        for frame in SimdLevel::available() {
            let mut out = mudock::mol::ConformSoA::with_capacity(prep.base.n);
            apply_pose_autovec_at(frame, &prep.base, &prep.plans, &g, &mut out);
            let got = [
                inter_energy_autovec_at(frame, &maps, &out, &prep.statics),
                intra_energy_autovec_at(frame, &out, &prep.pairs),
            ];
            for (got, want) in got.iter().zip(want) {
                prop_assert!(
                    (got - want).abs() <= 5e-3 * want.abs().max(1.0),
                    "{:?} @{frame}: {got} vs one lane {want}", prep.pairs.layout()
                );
            }
            let class = usize::from(arithmetic_at(frame) == "fused");
            let first = *first_of_class[class].get_or_insert(got);
            prop_assert_eq!(got.map(f32::to_bits), first.map(f32::to_bits), "@{}", frame);
        }
    }
}

#[test]
fn grid_interpolation_is_bounded_by_map_extremes() {
    use mudock::grids::{trilinear, GridDims};
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let _ = |r: &mut StdRng| -> f32 { RngExt::random(r) }; // keep both traits used
    let dims = GridDims {
        npts: [9, 9, 9],
        spacing: 0.5,
        origin: Vec3::ZERO,
    };
    let mut rng = StdRng::seed_from_u64(99);
    let map: Vec<f32> = (0..dims.total())
        .map(|_| rng.random::<f32>() * 100.0 - 50.0)
        .collect();
    let lo = map.iter().cloned().fold(f32::INFINITY, f32::min);
    let hi = map.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for _ in 0..2000 {
        let p = Vec3::new(
            rng.random::<f32>() * 8.0 - 2.0,
            rng.random::<f32>() * 8.0 - 2.0,
            rng.random::<f32>() * 8.0 - 2.0,
        );
        let v = trilinear(&map, &dims, p);
        assert!(
            v >= lo - 1e-3 && v <= hi + 1e-3,
            "interpolant escaped [{lo}, {hi}]: {v}"
        );
    }
}

#[test]
fn cache_sim_lru_and_inclusion_invariants() {
    use mudock::archsim::Cache;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(31);
    let mut c = Cache::new(8 * 1024, 4, 64);
    let mut accesses = 0u64;
    for _ in 0..20_000 {
        let addr: u64 = (rng.random_range(0..1024u64)) * 64;
        c.access(addr);
        accesses += 1;
        // Immediate re-access is always a hit (the line was just filled).
        assert!(c.access(addr), "immediate re-access must hit");
        accesses += 1;
    }
    assert_eq!(c.accesses, accesses);
    assert!(
        c.misses <= accesses / 2,
        "at most the first of each pair can miss"
    );
}
