//! Synthetic dataset generators — the reproduction's stand-in for the
//! MEDIATE screening set and the PDBbind `1a30` complex.
//!
//! The docking kernels' cost and memory behaviour depend on: number of
//! atoms, number of rotatable bonds, atom-type mix (which maps are
//! touched), charges, and geometry. The generators match those
//! distributions for drug-like organic molecules, so every code path the
//! paper exercises is exercised here, without redistributing the original
//! datasets.
//!
//! Everything is deterministic in the seed: two calls with the same seed
//! produce bit-identical molecules.

use mudock_ff::types::AtomType;
use mudock_mol::{Atom, Bond, Molecule, Vec3};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Requested shape of one synthetic ligand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LigandSpec {
    /// Heavy (non-hydrogen) atom count.
    pub heavy_atoms: usize,
    /// Rotatable bonds to mark (actual count may be lower on very small
    /// molecules; see [`synthetic_ligand`]).
    pub torsions: usize,
}

impl Default for LigandSpec {
    fn default() -> Self {
        LigandSpec {
            heavy_atoms: 24,
            torsions: 6,
        }
    }
}

/// Standard Gaussian via Box–Muller (rand's core crate ships no normal
/// distribution; this avoids a rand_distr dependency).
fn gauss(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.random::<f32>().max(1e-7);
    let u2: f32 = rng.random();
    (-2.0f32 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

fn random_unit(rng: &mut StdRng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.random::<f32>() * 2.0 - 1.0,
            rng.random::<f32>() * 2.0 - 1.0,
            rng.random::<f32>() * 2.0 - 1.0,
        );
        let n2 = v.norm_sq();
        if n2 > 1e-4 && n2 <= 1.0 {
            return v / n2.sqrt();
        }
    }
}

/// Typical partial charge for a type (Gasteiger-like magnitudes).
fn base_charge(t: AtomType) -> f32 {
    match t {
        AtomType::C => 0.03,
        AtomType::A => 0.01,
        AtomType::N => -0.30,
        AtomType::NA => -0.35,
        AtomType::OA => -0.39,
        AtomType::S => -0.10,
        AtomType::SA => -0.15,
        AtomType::H => 0.06,
        AtomType::HD => 0.22,
        AtomType::F => -0.25,
        AtomType::Cl => -0.20,
        AtomType::Br => -0.18,
        AtomType::I => -0.15,
        AtomType::P => 0.30,
    }
}

fn sample_weighted(rng: &mut StdRng, choices: &[(AtomType, f32)]) -> AtomType {
    let total: f32 = choices.iter().map(|(_, w)| w).sum();
    let mut x = rng.random::<f32>() * total;
    for (t, w) in choices {
        x -= w;
        if x <= 0.0 {
            return *t;
        }
    }
    choices[choices.len() - 1].0
}

/// Internal (degree ≥ 2) heavy-atom type mix for drug-like molecules.
const INTERNAL_TYPES: &[(AtomType, f32)] = &[
    (AtomType::C, 0.55),
    (AtomType::A, 0.20),
    (AtomType::N, 0.08),
    (AtomType::NA, 0.05),
    (AtomType::OA, 0.07),
    (AtomType::S, 0.02),
    (AtomType::P, 0.03),
];

/// Terminal (leaf) heavy-atom type mix.
const LEAF_TYPES: &[(AtomType, f32)] = &[
    (AtomType::C, 0.40),
    (AtomType::OA, 0.25),
    (AtomType::NA, 0.10),
    (AtomType::F, 0.08),
    (AtomType::Cl, 0.08),
    (AtomType::Br, 0.04),
    (AtomType::I, 0.02),
    (AtomType::SA, 0.03),
];

/// Generate one drug-like synthetic ligand. The skeleton is a random
/// spatial tree with ~1.54 Å bonds and a clash-rejection placement, so the
/// geometry is plausible enough for the force field (no overlapping
/// atoms). Rotatable bonds are chosen among internal tree edges, so every
/// marked bond yields a valid torsion.
pub fn synthetic_ligand(seed: u64, spec: LigandSpec) -> Molecule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c69_6761_6e64);
    let n = spec.heavy_atoms.max(2);
    let mut mol = Molecule::new(format!("synth-lig-{seed:016x}"));

    // --- heavy-atom tree skeleton -------------------------------------
    let mut degree = vec![0usize; n];
    mol.atoms.push(Atom::new(Vec3::ZERO, AtomType::C, 0.0));
    for k in 1..n {
        // Prefer extending recent atoms: gives elongated, chain-with-
        // branches shapes instead of star graphs.
        let parent = loop {
            let lookback = 6.min(k);
            let cand = k - 1 - rng.random_range(0..lookback);
            if degree[cand] < 4 {
                break cand;
            }
        };
        let ppos = mol.atoms[parent].pos;
        let mut placed = None;
        for _ in 0..64 {
            let dir = random_unit(&mut rng);
            let pos = ppos + dir * (1.54 + 0.05 * gauss(&mut rng));
            let ok = mol
                .atoms
                .iter()
                .enumerate()
                .all(|(i, a)| i == parent || a.pos.distance(pos) >= 1.9);
            if ok {
                placed = Some(pos);
                break;
            }
        }
        // Fall back to a slightly longer bond if the neighborhood is dense.
        let pos = placed.unwrap_or_else(|| ppos + random_unit(&mut rng) * 2.2);
        mol.atoms.push(Atom::new(pos, AtomType::C, 0.0));
        mol.bonds.push(Bond::new(parent as u32, k as u32, false));
        degree[parent] += 1;
        degree[k] += 1;
    }

    // --- assign heavy types (leaves may carry halogens) -----------------
    #[allow(clippy::needless_range_loop)] // `i` indexes both `degree` and `mol.atoms`
    for i in 0..n {
        let t = if degree[i] <= 1 {
            sample_weighted(&mut rng, LEAF_TYPES)
        } else {
            sample_weighted(&mut rng, INTERNAL_TYPES)
        };
        mol.atoms[i].ty = t;
    }

    // --- hydrogens: donors on N/O acceptors, nonpolar H on some carbons --
    let heavy_count = mol.atoms.len();
    for i in 0..heavy_count {
        let t = mol.atoms[i].ty;
        let add_hd = (t == AtomType::OA || t == AtomType::NA) && rng.random_bool(0.5)
            || (t == AtomType::N && rng.random_bool(0.3));
        let add_h = (t == AtomType::C || t == AtomType::A) && rng.random_bool(0.25);
        if add_hd || add_h {
            let ppos = mol.atoms[i].pos;
            let mut pos = ppos + random_unit(&mut rng) * 1.0;
            for _ in 0..16 {
                let ok = mol
                    .atoms
                    .iter()
                    .enumerate()
                    .all(|(j, a)| j == i || a.pos.distance(pos) >= 1.2);
                if ok {
                    break;
                }
                pos = ppos + random_unit(&mut rng) * 1.0;
            }
            let ht = if add_hd { AtomType::HD } else { AtomType::H };
            let idx = mol.atoms.len() as u32;
            mol.atoms.push(Atom::new(pos, ht, 0.0));
            mol.bonds.push(Bond::new(i as u32, idx, false));
        }
    }

    // --- charges ---------------------------------------------------------
    for a in &mut mol.atoms {
        a.charge = base_charge(a.ty) + 0.05 * gauss(&mut rng);
    }

    // --- rotatable bonds: internal heavy-heavy tree edges ----------------
    let mut candidates: Vec<usize> = (0..mol.bonds.len())
        .filter(|&bi| {
            let b = mol.bonds[bi];
            let (i, j) = (b.i as usize, b.j as usize);
            i < n && j < n && degree[i] >= 2 && degree[j] >= 2
        })
        .collect();
    // Fisher-Yates prefix shuffle for a deterministic random subset.
    let want = spec.torsions.min(candidates.len());
    for k in 0..want {
        let pick = k + rng.random_range(0..(candidates.len() - k));
        candidates.swap(k, pick);
        mol.bonds[candidates[k]].rotatable = true;
    }

    mol.center_at_origin();
    debug_assert!(mol.validate().is_ok());
    mol
}

/// Generate a rigid pocket-shaped receptor: a jittered spherical shell of
/// protein-like atoms around the origin (the binding site), `n_atoms`
/// strong, with shell radius `pocket_radius` Å.
pub fn synthetic_receptor(seed: u64, n_atoms: usize, pocket_radius: f32) -> Molecule {
    const RECEPTOR_TYPES: &[(AtomType, f32)] = &[
        (AtomType::C, 0.45),
        (AtomType::A, 0.12),
        (AtomType::N, 0.10),
        (AtomType::NA, 0.05),
        (AtomType::OA, 0.18),
        (AtomType::S, 0.02),
        (AtomType::SA, 0.01),
        (AtomType::HD, 0.07),
    ];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_6365_7074);
    let mut mol = Molecule::new(format!("synth-rec-{seed:016x}"));
    let mut placed: Vec<Vec3> = Vec::with_capacity(n_atoms);
    for _ in 0..n_atoms {
        let mut pos = Vec3::ZERO;
        for _ in 0..128 {
            let dir = random_unit(&mut rng);
            let r = pocket_radius + 1.5 * gauss(&mut rng).clamp(-1.5, 3.0);
            pos = dir * r.max(pocket_radius * 0.8);
            if placed.iter().all(|p| p.distance(pos) >= 2.2) {
                break;
            }
        }
        placed.push(pos);
        let t = sample_weighted(&mut rng, RECEPTOR_TYPES);
        let q = base_charge(t) * 0.6 + 0.04 * gauss(&mut rng);
        mol.atoms.push(Atom::new(pos, t, q));
    }
    debug_assert!(mol.validate().is_ok());
    mol
}

/// Fixed-seed receptor+ligand pair standing in for the PDBbind `1a30`
/// complex the paper replicates for single-core measurements: 1a30's
/// ligand is a glutamate tripeptide (~24 heavy atoms, highly flexible),
/// docked into the HIV-1 protease pocket.
pub fn complex_1a30_like() -> (Molecule, Molecule) {
    let receptor = synthetic_receptor(0x1a30, 320, 9.0);
    let ligand = synthetic_ligand(
        0x1a30,
        LigandSpec {
            heavy_atoms: 24,
            torsions: 6,
        },
    );
    (receptor, ligand)
}

/// A MEDIATE-like screening set: `count` ligands whose heavy-atom counts
/// (10–50, log-normal-ish around ~22) and torsion counts (0–12, scaling
/// with size) follow the drug-like distribution of the paper's 2,500-
/// molecule subset.
pub fn mediate_like_set(seed: u64, count: usize) -> Vec<Molecule> {
    crate::stream::MediateStream::new(seed, count).collect()
}

/// Draw the `i`-th ligand of the MEDIATE-like set from `rng` (which must
/// have produced ligands `0..i` already — spec draws are sequential).
/// Shared by [`mediate_like_set`] and the lazy
/// [`MediateStream`](crate::stream::MediateStream).
pub(crate) fn mediate_like_next(rng: &mut StdRng, seed: u64, i: usize) -> Molecule {
    let heavy = (16.0 * (0.45 * gauss(rng)).exp() + 6.0) as usize;
    let heavy = heavy.clamp(10, 50);
    let max_tors = (heavy / 3).min(12);
    let torsions = rng.random_range(0..=max_tors);
    let child_seed = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64);
    synthetic_ligand(
        child_seed,
        LigandSpec {
            heavy_atoms: heavy,
            torsions,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_mol::Topology;

    #[test]
    fn ligand_is_deterministic() {
        let a = synthetic_ligand(42, LigandSpec::default());
        let b = synthetic_ligand(42, LigandSpec::default());
        assert_eq!(a.atoms.len(), b.atoms.len());
        for (x, y) in a.atoms.iter().zip(&b.atoms) {
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.ty, y.ty);
            assert_eq!(x.charge, y.charge);
        }
        let c = synthetic_ligand(43, LigandSpec::default());
        assert!(a.atoms.iter().zip(&c.atoms).any(|(x, y)| x.pos != y.pos));
    }

    #[test]
    fn ligand_is_valid_and_centered() {
        for seed in 0..20 {
            let m = synthetic_ligand(
                seed,
                LigandSpec {
                    heavy_atoms: 20,
                    torsions: 5,
                },
            );
            m.validate().unwrap();
            assert!(m.centroid().norm() < 1e-3, "centered at origin");
        }
    }

    #[test]
    fn requested_torsions_are_valid() {
        for seed in 0..20 {
            let m = synthetic_ligand(
                seed,
                LigandSpec {
                    heavy_atoms: 30,
                    torsions: 8,
                },
            );
            let topo = Topology::build(&m);
            // Tree edges always split the graph: every marked bond is a
            // usable torsion.
            assert_eq!(topo.torsions.len(), m.num_rotatable_bonds());
            assert!(m.num_rotatable_bonds() <= 8);
            assert!(
                m.num_rotatable_bonds() >= 1,
                "30 heavy atoms have internal bonds"
            );
        }
    }

    #[test]
    fn no_atom_clashes() {
        let m = synthetic_ligand(
            7,
            LigandSpec {
                heavy_atoms: 40,
                torsions: 10,
            },
        );
        for i in 0..m.atoms.len() {
            for j in (i + 1)..m.atoms.len() {
                let bonded = m.bonds.iter().any(|b| {
                    (b.i, b.j) == (i as u32, j as u32) || (b.i, b.j) == (j as u32, i as u32)
                });
                let d = m.atoms[i].pos.distance(m.atoms[j].pos);
                if !bonded {
                    assert!(d > 0.9, "atoms {i},{j} clash at {d} Å");
                }
            }
        }
    }

    #[test]
    fn receptor_forms_a_shell() {
        let r = synthetic_receptor(1, 200, 9.0);
        assert_eq!(r.atoms.len(), 200);
        r.validate().unwrap();
        let dists: Vec<f32> = r.atoms.iter().map(|a| a.pos.norm()).collect();
        let mean = dists.iter().sum::<f32>() / dists.len() as f32;
        assert!((mean - 9.0).abs() < 2.5, "mean shell radius {mean}");
        // The pocket center is empty: nothing within 60% of the radius.
        assert!(dists.iter().all(|&d| d > 0.6 * 9.0 * 0.8));
    }

    #[test]
    fn mediate_set_distribution() {
        let set = mediate_like_set(99, 64);
        assert_eq!(set.len(), 64);
        let heavies: Vec<usize> = set
            .iter()
            .map(|m| m.atoms.iter().filter(|a| !a.ty.is_hydrogen()).count())
            .collect();
        assert!(heavies.iter().all(|&h| (10..=50).contains(&h)));
        let mean = heavies.iter().sum::<usize>() as f32 / heavies.len() as f32;
        assert!((15.0..35.0).contains(&mean), "mean heavy atoms {mean}");
        // Sizes vary (not all identical).
        assert!(heavies.iter().any(|&h| h != heavies[0]));
        for m in &set {
            m.validate().unwrap();
        }
    }

    #[test]
    fn complex_1a30_like_shape() {
        let (rec, lig) = complex_1a30_like();
        assert!(rec.atoms.len() >= 300);
        let heavy = lig.atoms.iter().filter(|a| !a.ty.is_hydrogen()).count();
        assert_eq!(heavy, 24);
        assert!(lig.num_rotatable_bonds() >= 4);
        // Ligand fits inside the pocket shell.
        assert!(lig.radius() < 9.0);
    }
}
