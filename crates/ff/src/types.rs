//! AutoDock-style atom types.
//!
//! AutoDock 4 assigns each atom one of a small set of types that determine
//! its van der Waals parameters, hydrogen-bonding role, and desolvation
//! parameters; AutoGrid precomputes one interaction map per *ligand* atom
//! type. We implement the 14 types that cover drug-like organic chemistry
//! (the MEDIATE-style screening sets the paper uses are organic small
//! molecules).

/// AutoDock-style atom type of a heavy atom or hydrogen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum AtomType {
    /// Aliphatic carbon.
    C = 0,
    /// Aromatic carbon.
    A = 1,
    /// Nitrogen, no H-bond role.
    N = 2,
    /// Nitrogen hydrogen-bond acceptor.
    NA = 3,
    /// Oxygen hydrogen-bond acceptor.
    OA = 4,
    /// Sulphur, no H-bond role.
    S = 5,
    /// Sulphur hydrogen-bond acceptor.
    SA = 6,
    /// Non-polar hydrogen.
    H = 7,
    /// Polar (donor) hydrogen.
    HD = 8,
    /// Fluorine.
    F = 9,
    /// Chlorine.
    Cl = 10,
    /// Bromine.
    Br = 11,
    /// Iodine.
    I = 12,
    /// Phosphorus.
    P = 13,
}

/// Number of supported atom types (array-table dimension).
pub const NUM_TYPES: usize = 14;

impl AtomType {
    /// All types, in `repr` order.
    pub const ALL: [AtomType; NUM_TYPES] = [
        AtomType::C,
        AtomType::A,
        AtomType::N,
        AtomType::NA,
        AtomType::OA,
        AtomType::S,
        AtomType::SA,
        AtomType::H,
        AtomType::HD,
        AtomType::F,
        AtomType::Cl,
        AtomType::Br,
        AtomType::I,
        AtomType::P,
    ];

    /// Table index of this type.
    #[inline(always)]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Build from a table index. Panics if out of range.
    #[inline]
    pub fn from_idx(i: usize) -> AtomType {
        Self::ALL[i]
    }

    /// Parse an AutoDock/PDBQT type label (e.g. `"OA"`).
    pub fn parse(label: &str) -> Option<AtomType> {
        match label.trim() {
            "C" => Some(AtomType::C),
            "A" => Some(AtomType::A),
            "N" => Some(AtomType::N),
            "NA" => Some(AtomType::NA),
            "OA" => Some(AtomType::OA),
            "S" => Some(AtomType::S),
            "SA" => Some(AtomType::SA),
            "H" => Some(AtomType::H),
            "HD" => Some(AtomType::HD),
            "F" => Some(AtomType::F),
            "Cl" | "CL" => Some(AtomType::Cl),
            "Br" | "BR" => Some(AtomType::Br),
            "I" => Some(AtomType::I),
            "P" => Some(AtomType::P),
            _ => None,
        }
    }

    /// PDBQT label for this type.
    pub fn label(self) -> &'static str {
        match self {
            AtomType::C => "C",
            AtomType::A => "A",
            AtomType::N => "N",
            AtomType::NA => "NA",
            AtomType::OA => "OA",
            AtomType::S => "S",
            AtomType::SA => "SA",
            AtomType::H => "H",
            AtomType::HD => "HD",
            AtomType::F => "F",
            AtomType::Cl => "Cl",
            AtomType::Br => "Br",
            AtomType::I => "I",
            AtomType::P => "P",
        }
    }

    /// Chemical element symbol (types collapse to elements).
    pub fn element(self) -> &'static str {
        match self {
            AtomType::C | AtomType::A => "C",
            AtomType::N | AtomType::NA => "N",
            AtomType::OA => "O",
            AtomType::S | AtomType::SA => "S",
            AtomType::H | AtomType::HD => "H",
            AtomType::F => "F",
            AtomType::Cl => "Cl",
            AtomType::Br => "Br",
            AtomType::I => "I",
            AtomType::P => "P",
        }
    }

    /// Is this a hydrogen type?
    #[inline]
    pub fn is_hydrogen(self) -> bool {
        matches!(self, AtomType::H | AtomType::HD)
    }

    /// Hydrogen-bond donor hydrogen?
    #[inline]
    pub fn is_donor_h(self) -> bool {
        self == AtomType::HD
    }

    /// Hydrogen-bond acceptor heavy atom?
    #[inline]
    pub fn is_acceptor(self) -> bool {
        matches!(self, AtomType::NA | AtomType::OA | AtomType::SA)
    }

    /// Approximate covalent radius in Å (used for bond perception).
    pub fn covalent_radius(self) -> f32 {
        match self {
            AtomType::C | AtomType::A => 0.77,
            AtomType::N | AtomType::NA => 0.75,
            AtomType::OA => 0.73,
            AtomType::S | AtomType::SA => 1.02,
            AtomType::H | AtomType::HD => 0.37,
            AtomType::F => 0.71,
            AtomType::Cl => 0.99,
            AtomType::Br => 1.14,
            AtomType::I => 1.33,
            AtomType::P => 1.06,
        }
    }
}

impl std::fmt::Display for AtomType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, t) in AtomType::ALL.iter().enumerate() {
            assert_eq!(t.idx(), i);
            assert_eq!(AtomType::from_idx(i), *t);
        }
    }

    #[test]
    fn labels_roundtrip() {
        for t in AtomType::ALL {
            assert_eq!(AtomType::parse(t.label()), Some(t));
        }
        assert_eq!(AtomType::parse("CL"), Some(AtomType::Cl));
        assert_eq!(AtomType::parse("X"), None);
        assert_eq!(AtomType::parse(" OA "), Some(AtomType::OA));
    }

    #[test]
    fn hbond_roles() {
        assert!(AtomType::HD.is_donor_h());
        assert!(!AtomType::H.is_donor_h());
        assert!(AtomType::OA.is_acceptor());
        assert!(AtomType::NA.is_acceptor());
        assert!(AtomType::SA.is_acceptor());
        assert!(!AtomType::N.is_acceptor());
        assert!(!AtomType::C.is_acceptor());
    }

    #[test]
    fn elements() {
        assert_eq!(AtomType::A.element(), "C");
        assert_eq!(AtomType::NA.element(), "N");
        assert_eq!(AtomType::HD.element(), "H");
    }
}
