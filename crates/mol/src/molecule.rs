//! Molecule representation and derived topology: bonds, rotatable-bond
//! fragments (the paper's Algorithm 1 `rotate_fragments`), scoring
//! exclusions and the intramolecular pair list (Algorithm 2's intra loop).

use mudock_ff::types::AtomType;

use crate::vec3::Vec3;

/// One atom of a ligand or receptor.
#[derive(Clone, Debug, PartialEq)]
pub struct Atom {
    /// Position (Å).
    pub pos: Vec3,
    /// AutoDock atom type.
    pub ty: AtomType,
    /// Partial charge (elementary charge units, Gasteiger-style).
    pub charge: f32,
}

impl Atom {
    pub fn new(pos: Vec3, ty: AtomType, charge: f32) -> Atom {
        Atom { pos, ty, charge }
    }
}

/// A covalent bond between two atoms (indices into [`Molecule::atoms`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bond {
    pub i: u32,
    pub j: u32,
    /// Marked torsionally active (PDBQT `BRANCH` equivalent).
    pub rotatable: bool,
}

impl Bond {
    pub fn new(i: u32, j: u32, rotatable: bool) -> Bond {
        Bond { i, j, rotatable }
    }
}

/// A small molecule (ligand) or rigid macromolecule (receptor).
#[derive(Clone, Debug, Default)]
pub struct Molecule {
    pub name: String,
    pub atoms: Vec<Atom>,
    pub bonds: Vec<Bond>,
}

/// Errors from [`Molecule::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MoleculeError {
    /// A bond references an atom index out of range.
    BondIndexOutOfRange { bond: usize },
    /// A bond connects an atom to itself.
    SelfBond { bond: usize },
    /// A charge or coordinate is NaN/infinite.
    NonFiniteValue { atom: usize },
    /// Molecule has no atoms.
    Empty,
}

impl std::fmt::Display for MoleculeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoleculeError::BondIndexOutOfRange { bond } => {
                write!(f, "bond {bond} references an out-of-range atom")
            }
            MoleculeError::SelfBond { bond } => write!(f, "bond {bond} is a self-bond"),
            MoleculeError::NonFiniteValue { atom } => {
                write!(f, "atom {atom} has a non-finite coordinate or charge")
            }
            MoleculeError::Empty => write!(f, "molecule has no atoms"),
        }
    }
}

impl std::error::Error for MoleculeError {}

impl Molecule {
    pub fn new(name: impl Into<String>) -> Molecule {
        Molecule {
            name: name.into(),
            atoms: Vec::new(),
            bonds: Vec::new(),
        }
    }

    pub fn num_rotatable_bonds(&self) -> usize {
        self.bonds.iter().filter(|b| b.rotatable).count()
    }

    /// Geometric center of all atoms.
    pub fn centroid(&self) -> Vec3 {
        if self.atoms.is_empty() {
            return Vec3::ZERO;
        }
        let mut c = Vec3::ZERO;
        for a in &self.atoms {
            c += a.pos;
        }
        c / self.atoms.len() as f32
    }

    /// Radius of the bounding sphere around the centroid.
    pub fn radius(&self) -> f32 {
        let c = self.centroid();
        self.atoms
            .iter()
            .map(|a| a.pos.distance(c))
            .fold(0.0f32, f32::max)
    }

    /// Translate every atom so the centroid lands at the origin (docking
    /// poses are expressed relative to the ligand origin, Algorithm 1).
    pub fn center_at_origin(&mut self) {
        let c = self.centroid();
        for a in &mut self.atoms {
            a.pos -= c;
        }
    }

    /// Net formal charge.
    pub fn total_charge(&self) -> f32 {
        self.atoms.iter().map(|a| a.charge).sum()
    }

    /// Structural sanity checks; cheap enough to run on every input.
    pub fn validate(&self) -> Result<(), MoleculeError> {
        if self.atoms.is_empty() {
            return Err(MoleculeError::Empty);
        }
        let n = self.atoms.len() as u32;
        for (bi, b) in self.bonds.iter().enumerate() {
            if b.i >= n || b.j >= n {
                return Err(MoleculeError::BondIndexOutOfRange { bond: bi });
            }
            if b.i == b.j {
                return Err(MoleculeError::SelfBond { bond: bi });
            }
        }
        for (ai, a) in self.atoms.iter().enumerate() {
            let ok = a.pos.x.is_finite()
                && a.pos.y.is_finite()
                && a.pos.z.is_finite()
                && a.charge.is_finite();
            if !ok {
                return Err(MoleculeError::NonFiniteValue { atom: ai });
            }
        }
        Ok(())
    }
}

/// A torsion: rotation of `moving` atoms about the `a`→`b` bond axis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Torsion {
    /// Fixed axis endpoint (stays put).
    pub a: u32,
    /// Moving-side axis endpoint (stays put; defines the axis with `a`).
    pub b: u32,
    /// Atom indices displaced when this torsion turns (excludes `a`, `b`).
    pub moving: Vec<u32>,
}

/// Topology derived once per molecule: adjacency, torsion fragments,
/// and the intramolecular non-bonded pair list.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Neighbor lists per atom.
    pub adjacency: Vec<Vec<u32>>,
    /// Torsions for every *effective* rotatable bond (bonds flagged
    /// rotatable whose removal actually splits the graph and moves ≥ 1
    /// atom).
    pub torsions: Vec<Torsion>,
    /// All unordered atom pairs further than 3 bonds apart (AutoDock
    /// excludes 1-2, 1-3 and 1-4 interactions from intra-energy).
    pub pairs: Vec<(u32, u32)>,
}

/// Maximum bond-path separation that is *excluded* from intra-energy.
pub const EXCLUSION_DEPTH: u32 = 3;

impl Topology {
    /// Build the derived topology for a validated molecule.
    pub fn build(m: &Molecule) -> Topology {
        let n = m.atoms.len();
        let mut adjacency = vec![Vec::new(); n];
        for b in &m.bonds {
            adjacency[b.i as usize].push(b.j);
            adjacency[b.j as usize].push(b.i);
        }

        let torsions = m
            .bonds
            .iter()
            .filter(|b| b.rotatable)
            .filter_map(|b| Self::torsion_for_bond(&adjacency, n, b.i, b.j))
            .collect();

        let pairs = Self::nonbonded_pairs(&adjacency, n);

        Topology {
            adjacency,
            torsions,
            pairs,
        }
    }

    /// Moving fragment for a rotatable bond `(i, j)`: the atoms reachable
    /// from `j` without crossing the bond. Returns `None` when the bond is
    /// part of a ring (removal does not disconnect) or nothing would move.
    fn torsion_for_bond(adjacency: &[Vec<u32>], n: usize, i: u32, j: u32) -> Option<Torsion> {
        let mut seen = vec![false; n];
        seen[j as usize] = true;
        let mut stack = vec![j];
        let mut moving = Vec::new();
        while let Some(u) = stack.pop() {
            for &v in &adjacency[u as usize] {
                if u == j && v == i {
                    continue; // do not cross the rotatable bond itself
                }
                if v == i {
                    // Reached the fixed endpoint without crossing the bond:
                    // the bond closes a ring, rotation is invalid.
                    return None;
                }
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    moving.push(v);
                    stack.push(v);
                }
            }
        }
        if moving.is_empty() {
            None
        } else {
            moving.sort_unstable();
            Some(Torsion { a: i, b: j, moving })
        }
    }

    /// All unordered pairs with graph distance > [`EXCLUSION_DEPTH`].
    #[allow(clippy::needless_range_loop)] // pairwise index loops over `dist`
    fn nonbonded_pairs(adjacency: &[Vec<u32>], n: usize) -> Vec<(u32, u32)> {
        // BFS from each atom to depth 3 marks the excluded neighborhood.
        let mut pairs = Vec::new();
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for i in 0..n {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[i] = 0;
            queue.clear();
            queue.push_back(i as u32);
            while let Some(u) = queue.pop_front() {
                let du = dist[u as usize];
                if du == EXCLUSION_DEPTH {
                    continue;
                }
                for &v in &adjacency[u as usize] {
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
            for j in (i + 1)..n {
                if dist[j] == u32::MAX {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// n-butane-like chain: C0-C1-C2-C3 with the C1-C2 bond rotatable.
    fn butane() -> Molecule {
        let mut m = Molecule::new("butane");
        for i in 0..4 {
            m.atoms.push(Atom::new(
                Vec3::new(i as f32 * 1.5, 0.0, 0.0),
                AtomType::C,
                0.0,
            ));
        }
        m.bonds.push(Bond::new(0, 1, false));
        m.bonds.push(Bond::new(1, 2, true));
        m.bonds.push(Bond::new(2, 3, false));
        m
    }

    /// Cyclobutane-like ring: 4 atoms in a cycle, one bond flagged
    /// rotatable (which must be rejected).
    fn ring() -> Molecule {
        let mut m = Molecule::new("ring");
        for i in 0..4 {
            m.atoms.push(Atom::new(
                Vec3::new((i % 2) as f32, (i / 2) as f32, 0.0),
                AtomType::C,
                0.0,
            ));
        }
        m.bonds.push(Bond::new(0, 1, false));
        m.bonds.push(Bond::new(1, 3, true)); // in-ring, not really rotatable
        m.bonds.push(Bond::new(3, 2, false));
        m.bonds.push(Bond::new(2, 0, false));
        m
    }

    #[test]
    fn validate_accepts_good_molecule() {
        assert!(butane().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_bond() {
        let mut m = butane();
        m.bonds.push(Bond::new(0, 99, false));
        assert_eq!(
            m.validate(),
            Err(MoleculeError::BondIndexOutOfRange { bond: 3 })
        );
        let mut m2 = butane();
        m2.bonds.push(Bond::new(2, 2, false));
        assert_eq!(m2.validate(), Err(MoleculeError::SelfBond { bond: 3 }));
    }

    #[test]
    fn validate_rejects_nan() {
        let mut m = butane();
        m.atoms[1].charge = f32::NAN;
        assert_eq!(m.validate(), Err(MoleculeError::NonFiniteValue { atom: 1 }));
    }

    #[test]
    fn butane_torsion_moves_tail() {
        let t = Topology::build(&butane());
        assert_eq!(t.torsions.len(), 1);
        let tor = &t.torsions[0];
        assert_eq!((tor.a, tor.b), (1, 2));
        assert_eq!(tor.moving, vec![3]);
    }

    #[test]
    fn ring_bond_is_not_a_torsion() {
        let t = Topology::build(&ring());
        assert!(t.torsions.is_empty(), "ring bonds cannot rotate");
    }

    #[test]
    fn butane_pair_list_excludes_1_4() {
        // Chain of 4: all pairs are within 3 bonds, so no scored pairs.
        let t = Topology::build(&butane());
        assert!(t.pairs.is_empty(), "{:?}", t.pairs);
    }

    #[test]
    fn longer_chain_has_1_5_pairs() {
        let mut m = Molecule::new("pentane");
        for i in 0..6 {
            m.atoms.push(Atom::new(
                Vec3::new(i as f32 * 1.5, 0.0, 0.0),
                AtomType::C,
                0.0,
            ));
        }
        for i in 0..5 {
            m.bonds.push(Bond::new(i, i + 1, false));
        }
        let t = Topology::build(&m);
        // 1-5 and 1-6 pairs survive: (0,4), (0,5), (1,5).
        assert_eq!(t.pairs, vec![(0, 4), (0, 5), (1, 5)]);
    }

    #[test]
    fn centroid_and_centering() {
        let mut m = butane();
        let c = m.centroid();
        assert!((c.x - 2.25).abs() < 1e-6);
        m.center_at_origin();
        assert!(m.centroid().norm() < 1e-5);
    }

    #[test]
    fn radius_covers_all_atoms() {
        let m = butane();
        let c = m.centroid();
        let r = m.radius();
        for a in &m.atoms {
            assert!(a.pos.distance(c) <= r + 1e-5);
        }
    }

    #[test]
    fn disconnected_pair_in_two_fragments() {
        // Two disjoint atoms: one pair, no exclusions.
        let mut m = Molecule::new("dimer");
        m.atoms.push(Atom::new(Vec3::ZERO, AtomType::C, 0.0));
        m.atoms
            .push(Atom::new(Vec3::new(5.0, 0.0, 0.0), AtomType::OA, -0.3));
        let t = Topology::build(&m);
        assert_eq!(t.pairs, vec![(0, 1)]);
    }
}
