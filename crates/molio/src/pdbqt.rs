//! Reader/writer for a PDBQT subset.
//!
//! AutoDock's PDBQT format extends PDB with partial charges and AutoDock
//! atom types. We support the records the docking pipeline needs:
//!
//! * `ATOM`/`HETATM` — coordinates (cols 31–54), partial charge (67–76)
//!   and AutoDock type (78–79), parsed whitespace-tolerantly;
//! * `CONECT` — explicit bonds (written by our writer; optional on read:
//!   without them, bonds are perceived from covalent radii);
//! * `REMARK ROTBOND i j` — our explicit serialization of which bonds are
//!   torsionally active (replacing the positional `BRANCH` tree of full
//!   PDBQT, which encodes the same information less directly).
//!
//! The deviations from full PDBQT (no nested `BRANCH` tree, no `TORSDOF`)
//! are deliberate: they serialize the same `Molecule` topology this
//! pipeline uses, while staying line-compatible with PDB viewers.

use mudock_ff::types::AtomType;
use mudock_mol::{Atom, Bond, Molecule, Vec3};

/// Parse errors with line context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PDBQT parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Tolerance added to the sum of covalent radii when perceiving bonds.
pub const BOND_TOLERANCE: f32 = 0.45;

/// Parse a molecule from PDBQT text.
///
/// If the text contains `CONECT` records they define the bond graph;
/// otherwise bonds are perceived by interatomic distance against covalent
/// radii. `REMARK ROTBOND` records mark rotatable bonds in either case.
pub fn parse(text: &str) -> Result<Molecule, ParseError> {
    let mut mol = Molecule::new("");
    // Maps PDB serial -> our index (serials need not be dense).
    let mut serial_to_idx = std::collections::HashMap::new();
    let mut conect: Vec<(u32, u32)> = Vec::new();
    let mut rotbonds: Vec<(u32, u32)> = Vec::new();
    let mut saw_conect = false;

    for (ln, raw) in text.lines().enumerate() {
        let lineno = ln + 1;
        let line = raw.trim_end();
        if line.starts_with("ATOM") || line.starts_with("HETATM") {
            let fields: Vec<&str> = line.split_whitespace().collect();
            // Fixed-column first; fall back to whitespace fields for
            // machine-generated files. Columns are bytes: one that cuts
            // a multi-byte character is an error, not a slice panic.
            let (serial, x, y, z, q, ty) = if line.len() >= 78 {
                let column = |at: std::ops::Range<usize>, what: &str| {
                    line.get(at)
                        .ok_or_else(|| err(lineno, format!("non-ASCII text in the {what} columns")))
                };
                let number = |at, what| {
                    column(at, what)?
                        .trim()
                        .parse::<f32>()
                        .map_err(|_| err(lineno, format!("bad {what}")))
                };
                let serial: u32 = column(6..11, "serial")?
                    .trim()
                    .parse()
                    .map_err(|_| err(lineno, "bad serial"))?;
                let (x, y, z) = (
                    number(30..38, "x")?,
                    number(38..46, "y")?,
                    number(46..54, "z")?,
                );
                let q = number(66..76, "charge")?;
                let ty = column(77..line.len(), "type")?.trim();
                (serial, x, y, z, q, ty)
            } else {
                if fields.len() < 8 {
                    return Err(err(lineno, "too few fields in ATOM record"));
                }
                let n = fields.len();
                let serial: u32 = fields[1].parse().map_err(|_| err(lineno, "bad serial"))?;
                let x: f32 = fields[n - 5].parse().map_err(|_| err(lineno, "bad x"))?;
                let y: f32 = fields[n - 4].parse().map_err(|_| err(lineno, "bad y"))?;
                let z: f32 = fields[n - 3].parse().map_err(|_| err(lineno, "bad z"))?;
                let q: f32 = fields[n - 2]
                    .parse()
                    .map_err(|_| err(lineno, "bad charge"))?;
                (serial, x, y, z, q, fields[n - 1])
            };
            let ty = AtomType::parse(ty)
                .ok_or_else(|| err(lineno, format!("unknown atom type '{ty}'")))?;
            serial_to_idx.insert(serial, mol.atoms.len() as u32);
            mol.atoms.push(Atom::new(Vec3::new(x, y, z), ty, q));
        } else if line.starts_with("CONECT") {
            saw_conect = true;
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() >= 3 {
                let a: u32 = fields[1].parse().map_err(|_| err(lineno, "bad CONECT"))?;
                for fb in &fields[2..] {
                    let b: u32 = fb.parse().map_err(|_| err(lineno, "bad CONECT"))?;
                    conect.push((a, b));
                }
            }
        } else if let Some(rest) = line.strip_prefix("REMARK ROTBOND") {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 2 {
                return Err(err(lineno, "ROTBOND needs two serials"));
            }
            let a: u32 = fields[0].parse().map_err(|_| err(lineno, "bad ROTBOND"))?;
            let b: u32 = fields[1].parse().map_err(|_| err(lineno, "bad ROTBOND"))?;
            rotbonds.push((a, b));
        } else if let Some(name) = line.strip_prefix("COMPND") {
            mol.name = name.trim().to_string();
        }
        // ROOT/BRANCH/TORSDOF and other records are ignored.
    }

    if mol.atoms.is_empty() {
        return Err(err(0, "no ATOM records"));
    }

    if saw_conect {
        let mut seen = std::collections::HashSet::new();
        for (sa, sb) in conect {
            let (&ia, &ib) = match (serial_to_idx.get(&sa), serial_to_idx.get(&sb)) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(err(
                        0,
                        format!("CONECT references unknown serial {sa}/{sb}"),
                    ))
                }
            };
            let key = (ia.min(ib), ia.max(ib));
            if ia != ib && seen.insert(key) {
                mol.bonds.push(Bond::new(key.0, key.1, false));
            }
        }
    } else {
        perceive_bonds(&mut mol);
    }

    for (sa, sb) in rotbonds {
        let (&ia, &ib) = match (serial_to_idx.get(&sa), serial_to_idx.get(&sb)) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(err(
                    0,
                    format!("ROTBOND references unknown serial {sa}/{sb}"),
                ))
            }
        };
        let key = (ia.min(ib), ia.max(ib));
        let mut found = false;
        for bond in &mut mol.bonds {
            if (bond.i, bond.j) == key {
                bond.rotatable = true;
                found = true;
            }
        }
        if !found {
            return Err(err(0, format!("ROTBOND {sa}-{sb} is not a bond")));
        }
    }

    Ok(mol)
}

/// Distance-based bond perception using covalent radii: atoms `i < j`
/// bond when they are at most the sum of their radii plus
/// [`BOND_TOLERANCE`] apart. Bonds come out in `(i, j)` order.
///
/// Atoms are binned on a cell grid at least as coarse as the longest
/// possible bond, so each atom is measured against the atoms of its own
/// and the 26 neighbouring cells only — linear in the atom count for a
/// molecule of roughly uniform density instead of one test per pair.
/// An atom with a non-finite coordinate is at no finite distance from
/// anything and bonds with nothing.
pub fn perceive_bonds(mol: &mut Molecule) {
    mol.bonds.clear();
    let atoms = &mol.atoms;
    let Some(r_max) = atoms
        .iter()
        .map(|a| a.ty.covalent_radius())
        .reduce(f32::max)
    else {
        return;
    };
    let finite = |i: &usize| {
        let p = atoms[*i].pos;
        p.x.is_finite() && p.y.is_finite() && p.z.is_finite()
    };
    let placed: Vec<usize> = (0..atoms.len()).filter(finite).collect();
    let Some(grid) = CellGrid::new(atoms, &placed, 2.0 * r_max + BOND_TOLERANCE) else {
        return;
    };
    let mut near = Vec::new();
    for &i in &placed {
        let a = &atoms[i];
        near.clear();
        near.extend(grid.neighbours(a.pos).filter(|&j| j > i));
        near.sort_unstable();
        for &j in &near {
            let b = &atoms[j];
            let max_d = a.ty.covalent_radius() + b.ty.covalent_radius() + BOND_TOLERANCE;
            if a.pos.distance(b.pos) <= max_d {
                mol.bonds.push(Bond::new(i as u32, j as u32, false));
            }
        }
    }
}

/// Atom indices bucketed by cubic cell (counting sort: `start[c]..
/// start[c + 1]` of `members` holds cell `c`'s atoms).
struct CellGrid {
    lo: [f64; 3],
    side: f64,
    dims: [usize; 3],
    start: Vec<u32>,
    members: Vec<u32>,
}

impl CellGrid {
    /// Bin `placed` (atoms with finite coordinates) on cells of side at
    /// least `reach`. The side grows past `reach` when a sparse, wide
    /// molecule would otherwise need far more cells than atoms.
    fn new(atoms: &[Atom], placed: &[usize], reach: f32) -> Option<CellGrid> {
        let coords = |i: usize| {
            let p = atoms[i].pos;
            [p.x as f64, p.y as f64, p.z as f64]
        };
        let mut lo = coords(*placed.first()?);
        let mut hi = lo;
        for &i in placed {
            let p = coords(i);
            for k in 0..3 {
                lo[k] = lo[k].min(p[k]);
                hi[k] = hi[k].max(p[k]);
            }
        }
        // The margin keeps two atoms a bond apart in the same or
        // adjacent cells despite rounding in the cell arithmetic.
        let mut side = f64::from(reach) * 1.01 + 1e-3;
        let extent = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
        let dims_at = |side: f64| extent.map(|e| (e / side).floor() + 1.0);
        let budget = 8.0 * placed.len() as f64 + 64.0;
        while dims_at(side).iter().product::<f64>() > budget {
            side *= 2.0;
        }
        let dims = dims_at(side).map(|d| d as usize);
        let mut grid = CellGrid {
            lo,
            side,
            dims,
            start: vec![0; dims[0] * dims[1] * dims[2] + 1],
            members: vec![0; placed.len()],
        };
        let cells: Vec<usize> = placed.iter().map(|&i| grid.cell_of(coords(i))).collect();
        for &c in &cells {
            grid.start[c + 1] += 1;
        }
        for c in 1..grid.start.len() {
            grid.start[c] += grid.start[c - 1];
        }
        let mut fill = grid.start.clone();
        for (&i, &c) in placed.iter().zip(&cells) {
            grid.members[fill[c] as usize] = i as u32;
            fill[c] += 1;
        }
        Some(grid)
    }

    fn axis_cell(&self, k: usize, v: f64) -> usize {
        (((v - self.lo[k]) / self.side).floor().max(0.0) as usize).min(self.dims[k] - 1)
    }

    fn cell_of(&self, p: [f64; 3]) -> usize {
        let [x, y, z] = [0, 1, 2].map(|k| self.axis_cell(k, p[k]));
        (z * self.dims[1] + y) * self.dims[0] + x
    }

    /// Every atom in the cell of `p` and the cells around it.
    fn neighbours(&self, p: Vec3) -> impl Iterator<Item = usize> + '_ {
        let p = [p.x as f64, p.y as f64, p.z as f64];
        let around = |k: usize| {
            let c = self.axis_cell(k, p[k]);
            c.saturating_sub(1)..=(c + 1).min(self.dims[k] - 1)
        };
        let (xs, ys, zs) = (around(0), around(1), around(2));
        zs.flat_map(move |z| ys.clone().map(move |y| (z, y)))
            .flat_map(move |(z, y)| {
                let row = (z * self.dims[1] + y) * self.dims[0];
                let cells = row + *xs.start()..=row + *xs.end();
                let span =
                    self.start[*cells.start()] as usize..self.start[*cells.end() + 1] as usize;
                self.members[span].iter().map(|&j| j as usize)
            })
    }
}

/// Serialize a molecule to our PDBQT subset (always includes CONECT and
/// ROTBOND records so parsing is perception-free and exact).
pub fn write(mol: &Molecule) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if !mol.name.is_empty() {
        let _ = writeln!(out, "COMPND    {}", mol.name);
    }
    for (i, a) in mol.atoms.iter().enumerate() {
        let serial = i + 1;
        // The name column is 4 wide: element and serial while they fit
        // (`C999`, `Cl99`), the element alone beyond.
        let mut name = format!("{}{}", a.ty.element(), serial);
        if name.len() > 4 {
            name.truncate(a.ty.element().len());
        }
        let _ = writeln!(
            out,
            "ATOM  {serial:>5} {name:<4} LIG A   1    {x:8.3}{y:8.3}{z:8.3}  1.00  0.00    {q:>6.3} {t}",
            x = a.pos.x,
            y = a.pos.y,
            z = a.pos.z,
            q = a.charge,
            t = a.ty.label(),
        );
    }
    for b in &mol.bonds {
        let _ = writeln!(out, "CONECT{:>5}{:>5}", b.i + 1, b.j + 1);
    }
    for b in mol.bonds.iter().filter(|b| b.rotatable) {
        let _ = writeln!(out, "REMARK ROTBOND {} {}", b.i + 1, b.j + 1);
    }
    let _ = writeln!(out, "END");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Molecule {
        let mut m = Molecule::new("ethanol-ish");
        m.atoms
            .push(Atom::new(Vec3::new(0.0, 0.0, 0.0), AtomType::C, 0.05));
        m.atoms
            .push(Atom::new(Vec3::new(1.5, 0.0, 0.0), AtomType::C, 0.12));
        m.atoms
            .push(Atom::new(Vec3::new(2.2, 1.2, 0.0), AtomType::OA, -0.38));
        m.atoms
            .push(Atom::new(Vec3::new(3.1, 1.1, 0.3), AtomType::HD, 0.21));
        m.bonds.push(Bond::new(0, 1, true));
        m.bonds.push(Bond::new(1, 2, true));
        m.bonds.push(Bond::new(2, 3, false));
        m
    }

    #[test]
    fn roundtrip_exact() {
        let m = sample();
        let text = write(&m);
        let back = parse(&text).unwrap();
        assert_eq!(back.name, m.name);
        assert_eq!(back.atoms.len(), m.atoms.len());
        assert_eq!(back.bonds.len(), m.bonds.len());
        for (a, b) in m.atoms.iter().zip(&back.atoms) {
            assert_eq!(a.ty, b.ty);
            assert!((a.charge - b.charge).abs() < 1e-3);
            assert!((a.pos - b.pos).norm() < 1e-3);
        }
        for (x, y) in m.bonds.iter().zip(&back.bonds) {
            assert_eq!((x.i, x.j, x.rotatable), (y.i, y.j, y.rotatable));
        }
    }

    #[test]
    fn perception_finds_chain_bonds() {
        let mut m = sample();
        m.bonds.clear();
        perceive_bonds(&mut m);
        // C-C (1.5), C-OA (~1.39), OA-HD (~0.95) are bonds; C0-OA (2.5+) not.
        let pairs: Vec<(u32, u32)> = m.bonds.iter().map(|b| (b.i, b.j)).collect();
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(2, 3)));
        assert!(!pairs.contains(&(0, 2)));
    }

    #[test]
    fn parse_without_conect_perceives() {
        let m = sample();
        let mut text = String::new();
        for line in write(&m).lines() {
            if !line.starts_with("CONECT") && !line.starts_with("REMARK ROTBOND") {
                text.push_str(line);
                text.push('\n');
            }
        }
        let back = parse(&text).unwrap();
        assert_eq!(back.bonds.len(), 3);
        assert!(back.bonds.iter().all(|b| !b.rotatable));
    }

    #[test]
    fn bad_type_is_an_error() {
        let text =
            "ATOM      1 X1   LIG A   1       0.000   0.000   0.000  1.00  0.00     0.100 Xx\n";
        let e = parse(text).unwrap_err();
        assert!(e.message.contains("unknown atom type"));
    }

    #[test]
    fn rotbond_must_reference_a_bond() {
        let m = sample();
        let mut text = write(&m);
        text.push_str("REMARK ROTBOND 1 4\n");
        let e = parse(&text).unwrap_err();
        assert!(e.message.contains("not a bond"), "{}", e.message);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse("").is_err());
        assert!(parse("REMARK nothing\n").is_err());
    }
}
