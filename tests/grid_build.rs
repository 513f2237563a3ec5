//! The one-lane grid build's bits, pinned. `build_simd(SimdLevel::Scalar)`
//! is what the portable arm, `Reference` and `Explicit(Scalar)` dock
//! against (`grid_level()`), so a change to the builder that moves one
//! bit of it moves their scores. Two receptor/lattice shapes: x rows
//! that no vector width divides, and a lattice reaching well past the
//! short-range cutoff of every atom, one atom outside it. Each is built
//! on one worker and split over three, as the service builds it. And the
//! lattices of the benchmark's two service workloads, built on two
//! workers as a portable node builds them there. The build runs as lane
//! loops in the host's frame, so these pins hold every frame to the
//! bits the one-point-per-vector builder wrote.

use mudock::ff::params::NB_CUTOFF;
use mudock::ff::AtomType;
use mudock::grids::{Fnv64, GridBuilder, GridDims, GridSet};
use mudock::mol::{Atom, Molecule, Vec3};
use mudock::simd::SimdLevel;

/// FNV-64 over the `built` flags and the bits of every map value.
fn fingerprint(gs: &GridSet) -> u64 {
    let mut h = Fnv64::new();
    for b in gs.built {
        h.write(&[b as u8]);
    }
    for &v in &gs.data {
        h.write_f32(v);
    }
    h.finish()
}

/// 90 atoms around a 7 Å pocket on a 23 × 18 × 13 lattice: every
/// x row ends inside a vector at every width.
fn ragged_rows() -> (Molecule, GridDims) {
    let receptor = mudock::molio::synthetic_receptor(3, 90, 7.0);
    let dims = GridDims {
        npts: [23, 18, 13],
        spacing: 0.55,
        origin: Vec3::new(-6.05, -4.7, -3.3),
    };
    (receptor, dims)
}

/// 60 atoms around a 5 Å pocket, plus one beyond the lattice's far
/// corner, on a lattice stretching 20 Å along +x: its far end is more
/// than the cutoff from every atom.
fn far_lattice() -> (Molecule, GridDims) {
    let mut receptor = mudock::molio::synthetic_receptor(17, 60, 5.0);
    receptor
        .atoms
        .push(Atom::new(Vec3::new(-9.0, 6.0, 7.5), AtomType::OA, -0.35));
    let dims = GridDims {
        npts: [41, 9, 10],
        spacing: 0.5,
        origin: Vec3::new(2.0, -3.0, -2.5),
    };
    (receptor, dims)
}

/// The `serve_hot` workload's lattice: 150 atoms around a 9 Å pocket,
/// 41³ points 0.55 Å apart, every type map.
fn serve_hot() -> (Molecule, GridDims) {
    let receptor = mudock::molio::synthetic_receptor(5, 150, 9.0);
    (receptor, GridDims::centered(Vec3::ZERO, 11.0, 0.55))
}

/// The `serve_churn` workload's lattice: 60 atoms around an 8 Å pocket,
/// 23³ points 0.75 Å apart.
fn serve_churn() -> (Molecule, GridDims) {
    let receptor = mudock::molio::synthetic_receptor(11, 60, 8.0);
    (receptor, GridDims::centered(Vec3::ZERO, 8.0, 0.75))
}

#[test]
fn the_pinned_shapes_have_the_shapes_they_claim() {
    assert_eq!(serve_hot().1.npts, [41; 3]);
    assert_eq!(serve_churn().1.npts, [23; 3]);

    let (_, dims) = ragged_rows();
    assert_ne!(dims.npts[0] % 16, 0);

    let (receptor, dims) = far_lattice();
    let far_corner = dims.max_corner();
    assert!(receptor
        .atoms
        .iter()
        .all(|a| a.pos.distance(far_corner) > NB_CUTOFF));
    assert!(receptor.atoms.iter().any(|a| !dims.contains(a.pos)));
}

#[test]
fn the_one_lane_build_keeps_its_bits() {
    for workers in [1, 3] {
        let (receptor, dims) = ragged_rows();
        let all = GridBuilder::new(&receptor, dims).build_simd_on(SimdLevel::Scalar, workers);
        let (receptor, dims) = far_lattice();
        let some = GridBuilder::new(&receptor, dims)
            .with_types(&[AtomType::C, AtomType::OA, AtomType::HD, AtomType::NA])
            .build_simd_on(SimdLevel::Scalar, workers);
        // Captured from the atoms-major builder this one replaced (one
        // vector of receptor atoms per lattice point), debug and release
        // builds alike.
        assert_eq!(
            [fingerprint(&all), fingerprint(&some)],
            [0x3c7f_5022_94c2_9156, 0x10a5_1595_d62a_90b9],
            "ragged rows (all maps), far lattice (4 type maps), {workers} worker(s)"
        );
    }
}

#[test]
fn the_one_lane_build_keeps_its_bits_at_the_serve_lattices() {
    // Two workers: a job's fair share on a two-thread node.
    let (receptor, dims) = serve_hot();
    let hot = GridBuilder::new(&receptor, dims).build_simd_on(SimdLevel::Scalar, 2);
    let (receptor, dims) = serve_churn();
    let churn = GridBuilder::new(&receptor, dims)
        .with_types(&[
            AtomType::C,
            AtomType::A,
            AtomType::OA,
            AtomType::N,
            AtomType::HD,
        ])
        .build_simd_on(SimdLevel::Scalar, 2);
    // Captured from the one-lane points-major builder (`build_points` at
    // the `Scalar` token, one point per vector), debug and release builds
    // alike.
    assert_eq!(
        [fingerprint(&hot), fingerprint(&churn)],
        [0x9dc1_a370_f629_4d5c, 0x7b0d_be68_132b_cd59],
        "serve_hot (all maps), serve_churn (5 type maps)"
    );
}
