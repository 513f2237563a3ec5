//! Intramolecular pair coefficients, laid out for the intra kernel.
//!
//! Built once per ligand: for every scored pair (graph distance > 3) the
//! force-field coefficients are premultiplied and flattened so the intra
//! kernel is pure arithmetic on coordinates. Slots that hold no scored
//! pair carry all-zero coefficients (and `rij = 1`), making their
//! contribution exactly zero — kernels never need tail handling.
//!
//! # Two layouts of the same pairs
//!
//! **Packed list** (always built): pair `k` is `(i[k], j[k])` with its
//! coefficients at index `k`, padded to a multiple of [`PAD`]. Every slot
//! but the padding is useful, but the kernel has to *gather* six
//! coordinates per pair-vector.
//!
//! **Half-shell rows** (built when selected, see below): row `i` has
//! `stride = padded_len(⌊N/2⌋)` slots and slot `c` pairs atom `i` with
//! atom `(i + 1 + c) mod N`. Each unordered pair `{a, b}` has exactly one
//! home: with `d = (b − a) mod N`, it sits in row `a` at `c = d − 1` when
//! `d ≤ ⌊(N−1)/2⌋`, in row `b` at `c = N − d − 1` when `d > N/2`, and for
//! even `N` the diagonal `d = N/2` is kept only in the row whose index is
//! `< N/2`. Excluded pairs (1-2, 1-3, 1-4), the other half of that
//! diagonal and the padding slots `c ≥ ⌊N/2⌋` hold the neutral
//! coefficients. The kernel then needs no index arrays at all: a row's
//! partners are *contiguous* in a copy of the coordinates that wraps
//! around past `N`, so it walks a row with three splats and three plain
//! loads per vector.
//!
//! # Selection rule
//!
//! Rows evaluate `N · stride` slots where the packed list evaluates
//! `len_padded()`. A row vector is cheaper than a packed one (no gathers),
//! but not free, so rows win only while the ligand is dense in scored
//! pairs. [`PairsSoA::build`] selects rows when
//!
//! ```text
//! N · stride/16  ≤  1.4 · len_padded()/16      and      N + stride ≤ WRAP_CAP
//! ```
//!
//! The `1.4` is measured, not tuned per deployment (AVX-512 host, 16
//! lanes): a 61-atom ligand with 1560 pairs is 122 row-vectors against 98
//! packed (1.24×) and scores in 2.2 µs instead of 2.8 µs; a 31-atom
//! ligand is 31 against 20 (1.55×) and *lost* 6 % of `serve_hot`
//! throughput when a looser constant sent it to rows; a 13-atom ligand is
//! 13 against 2. `ablation_soa` in `mudock-bench` prints both layouts per
//! ligand size and level to re-measure the crossover on another host. The
//! second condition bounds the kernel's on-stack wrapped copy. The
//! one-lane kernel (`Explicit(Scalar)`) always walks the packed list: a
//! row walk at one lane visits every neutral slot one by one (−13…16 %
//! end to end when tried). So does the AVX-512 kernel for ligands of at
//! most 32 atoms, whatever was built here: it holds their coordinates in
//! registers ([`super::intra`], the table walk), which beats rows at
//! those sizes. The portable arm ([`crate::autovec`], sixteen lanes
//! whatever the ISA) follows the rule as built: `ablation_soa` shows the
//! same crossover for it, rows ahead at 1.23× and 1.34× the packed
//! slots, level at 1.46×, behind from 1.53×.

use mudock_ff::params::PairTable;
use mudock_ff::terms::solvation_param;
use mudock_ff::vterms::{premult, PairCoefs};
use mudock_mol::{padded_len, Molecule, Topology, PAD};
use mudock_simd::Simd;

/// Longest wrapped coordinate copy (`N + stride` floats per axis) the rows
/// walk keeps on its stack; ligands beyond it (N > 161) stay packed.
pub(crate) const WRAP_CAP: usize = 256;

/// Six parallel coefficient streams: [`PairCoefs`] in SoA form.
#[derive(Clone, Debug, Default)]
pub struct PairCoefStreams {
    /// Pair equilibrium distance (for smoothing).
    pub rij: Vec<f32>,
    /// Weighted 12-power coefficient.
    pub c12: Vec<f32>,
    /// Weighted 6-power coefficient (0 for H-bond pairs).
    pub c6: Vec<f32>,
    /// Weighted 10-power coefficient (0 for non-H-bond pairs).
    pub c10: Vec<f32>,
    /// Premultiplied electrostatic coefficient `W_e·332·q_i·q_j`.
    pub qq: Vec<f32>,
    /// Premultiplied desolvation coefficient `W_d·(S_i V_j + S_j V_i)`.
    pub sv: Vec<f32>,
}

impl PairCoefStreams {
    /// `len` slots that all score exactly zero.
    fn neutral(len: usize) -> PairCoefStreams {
        PairCoefStreams {
            rij: vec![1.0; len],
            c12: vec![0.0; len],
            c6: vec![0.0; len],
            c10: vec![0.0; len],
            qq: vec![0.0; len],
            sv: vec![0.0; len],
        }
    }

    fn set(&mut self, k: usize, c: PairCoefs<f32>) {
        self.rij[k] = c.rij;
        self.c12[k] = c.c12;
        self.c6[k] = c.c6;
        self.c10[k] = c.c10;
        self.qq[k] = c.qq;
        self.sv[k] = c.sv;
    }

    /// Coefficients of slot `k`.
    #[inline]
    pub fn get(&self, k: usize) -> PairCoefs<f32> {
        PairCoefs {
            rij: self.rij[k],
            c12: self.c12[k],
            c6: self.c6[k],
            c10: self.c10[k],
            qq: self.qq[k],
            sv: self.sv[k],
        }
    }

    /// Coefficients of slots `k .. k + S::LANES`.
    #[inline(always)]
    pub(crate) fn load<S: Simd>(&self, s: S, k: usize) -> PairCoefs<S::V> {
        PairCoefs {
            rij: s.load(&self.rij[k..]),
            c12: s.load(&self.c12[k..]),
            c6: s.load(&self.c6[k..]),
            c10: s.load(&self.c10[k..]),
            qq: s.load(&self.qq[k..]),
            sv: s.load(&self.sv[k..]),
        }
    }

    /// Whether slot `k` is neutral (scores exactly zero).
    #[cfg(test)]
    fn is_neutral(&self, k: usize) -> bool {
        let c = self.get(k);
        c.rij == 1.0 && [c.c12, c.c6, c.c10, c.qq, c.sv] == [0.0; 5]
    }
}

/// The half-shell row layout (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct HalfShellRows {
    /// Slots per row: `padded_len(⌊N/2⌋)`.
    pub(crate) stride: usize,
    /// `N · stride` slots, row-major.
    pub(crate) coefs: PairCoefStreams,
}

/// Which way a multi-lane kernel walks a [`PairsSoA`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairLayout {
    /// The gathered pair list.
    Packed,
    /// Gather-free half-shell rows.
    Rows,
}

impl PairLayout {
    /// The measured selection rule (module docs) for a ligand of `atoms`
    /// atoms whose packed list has `len_padded` slots.
    fn select(atoms: usize, len_padded: usize) -> PairLayout {
        let stride = padded_len(atoms / 2);
        if stride > 0
            && atoms + stride <= WRAP_CAP
            && 10 * atoms * (stride / PAD) <= 14 * (len_padded / PAD)
        {
            PairLayout::Rows
        } else {
            PairLayout::Packed
        }
    }
}

/// Per-pair coefficient arrays (all padded to the widest vector).
#[derive(Clone, Debug, Default)]
pub struct PairsSoA {
    /// Real pair count (arrays are padded beyond it).
    pub n: usize,
    /// First atom index of each pair (0 in padding).
    pub i: Vec<i32>,
    /// Second atom index of each pair (0 in padding).
    pub j: Vec<i32>,
    /// Coefficients of pair `k` at index `k`; neutral in padding.
    pub coefs: PairCoefStreams,
    /// Atom count of the molecule this was built from: every `i`/`j` is
    /// below it, which the kernel's unchecked gathers rely on.
    atoms: usize,
    rows: Option<HalfShellRows>,
}

impl PairsSoA {
    /// Build from a molecule and its derived topology, in the layout
    /// the selection rule (module docs) picks for it.
    pub fn build(mol: &Molecule, topo: &Topology, table: &PairTable) -> PairsSoA {
        let layout = PairLayout::select(mol.atoms.len(), padded_len(topo.pairs.len().max(1)));
        PairsSoA::build_as(mol, topo, table, layout)
    }

    /// [`PairsSoA::build`] with the layout forced — for measuring the
    /// selection rule and for testing both walks on any ligand.
    ///
    /// # Panics
    /// If `Rows` is asked for a ligand too large for the kernel's wrapped
    /// coordinate copy (more than 161 atoms).
    pub fn build_as(
        mol: &Molecule,
        topo: &Topology,
        table: &PairTable,
        layout: PairLayout,
    ) -> PairsSoA {
        let atoms = mol.atoms.len();
        let n = topo.pairs.len();
        let len = padded_len(n.max(1));
        let mut p = PairsSoA {
            n,
            i: vec![0; len],
            j: vec![0; len],
            coefs: PairCoefStreams::neutral(len),
            atoms,
            rows: None,
        };
        let mut rows = (layout == PairLayout::Rows).then(|| {
            let stride = padded_len(atoms / 2);
            assert!(
                atoms + stride <= WRAP_CAP,
                "{atoms} atoms exceed the rows layout's wrapped-copy cap"
            );
            HalfShellRows {
                stride,
                coefs: PairCoefStreams::neutral(atoms * stride),
            }
        });
        for (k, &(ai, aj)) in topo.pairs.iter().enumerate() {
            let (ai, aj) = (ai as usize, aj as usize);
            assert!(
                ai < atoms && aj < atoms && ai != aj,
                "pair ({ai}, {aj}) of {atoms} atoms"
            );
            let a = &mol.atoms[ai];
            let b = &mol.atoms[aj];
            let t = PairTable::index(a.ty, b.ty);
            let c = PairCoefs {
                rij: table.rij[t],
                c12: table.c12[t],
                c6: table.c6[t],
                c10: table.c10[t],
                qq: premult::qq(a.charge, b.charge),
                sv: premult::sv(
                    solvation_param(a.ty, a.charge),
                    mudock_ff::params::type_params(a.ty).vol,
                    solvation_param(b.ty, b.charge),
                    mudock_ff::params::type_params(b.ty).vol,
                ),
            };
            p.i[k] = ai as i32;
            p.j[k] = aj as i32;
            p.coefs.set(k, c);
            if let Some(rows) = &mut rows {
                let (row, slot) = half_shell_home(atoms, ai, aj);
                rows.coefs.set(row * rows.stride + slot, c);
            }
        }
        p.rows = rows;
        p
    }

    /// Padded array length.
    #[inline]
    pub fn len_padded(&self) -> usize {
        self.i.len()
    }

    /// Atom count of the molecule this was built from.
    #[inline]
    pub(crate) fn atoms(&self) -> usize {
        self.atoms
    }

    /// The layout a multi-lane kernel walks.
    pub fn layout(&self) -> PairLayout {
        match self.rows {
            Some(_) => PairLayout::Rows,
            None => PairLayout::Packed,
        }
    }

    #[inline(always)]
    pub(crate) fn rows(&self) -> Option<&HalfShellRows> {
        self.rows.as_ref()
    }
}

/// `(row, slot)` of the unordered pair `{a, b}` among `n` atoms.
fn half_shell_home(n: usize, a: usize, b: usize) -> (usize, usize) {
    let d = (b + n - a) % n; // b = a + d (mod n), 1 ≤ d ≤ n − 1
    if 2 * d < n || (2 * d == n && a < b) {
        (a, d - 1)
    } else {
        (b, n - d - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_ff::types::AtomType;
    use mudock_mol::{Atom, Bond, Vec3};
    use mudock_molio::{synthetic_ligand, LigandSpec};

    fn chain(n: usize) -> (Molecule, Topology) {
        let mut m = Molecule::new("chain");
        for k in 0..n {
            let ty = if k % 3 == 0 {
                AtomType::OA
            } else {
                AtomType::C
            };
            m.atoms
                .push(Atom::new(Vec3::new(k as f32 * 1.5, 0.0, 0.0), ty, 0.1));
        }
        for k in 0..n - 1 {
            m.bonds.push(Bond::new(k as u32, k as u32 + 1, false));
        }
        let t = Topology::build(&m);
        (m, t)
    }

    #[test]
    fn pair_count_matches_topology() {
        let (m, t) = chain(8);
        let p = PairsSoA::build(&m, &t, &PairTable::new());
        assert_eq!(p.n, t.pairs.len());
        assert_eq!(p.atoms(), 8);
        assert!(p.len_padded() >= p.n);
        assert_eq!(p.len_padded() % mudock_mol::PAD, 0);
    }

    #[test]
    fn coefficients_match_force_field() {
        let (m, t) = chain(8);
        let p = PairsSoA::build(&m, &t, &PairTable::new());
        let table = PairTable::new();
        for k in 0..p.n {
            let (ai, aj) = t.pairs[k];
            let a = &m.atoms[ai as usize];
            let b = &m.atoms[aj as usize];
            let idx = PairTable::index(a.ty, b.ty);
            assert_eq!(p.coefs.c12[k], table.c12[idx]);
            assert_eq!(p.coefs.qq[k], premult::qq(a.charge, b.charge));
        }
    }

    #[test]
    fn selection_follows_the_measured_classes() {
        use PairLayout::{Packed, Rows};
        // (atoms, scored pairs) of the bench's 48-, 24- and 10-heavy-atom
        // classes: only the large one is dense enough for rows.
        assert_eq!(PairLayout::select(61, padded_len(1560)), Rows);
        assert_eq!(PairLayout::select(31, padded_len(310)), Packed);
        assert_eq!(PairLayout::select(13, padded_len(26)), Packed);
        // No pairs, no atoms, and either side of the wrapped-copy cap.
        assert_eq!(PairLayout::select(5, padded_len(1)), Packed);
        assert_eq!(PairLayout::select(0, padded_len(1)), Packed);
        assert_eq!(PairLayout::select(161, padded_len(12_000)), Rows);
        assert_eq!(PairLayout::select(162, padded_len(12_000)), Packed);
    }

    /// The layout contract, for one molecule: the packed part is what it
    /// always was, and every `topo.pairs` entry has exactly one scored row
    /// slot — reached by the kernel's `(i + 1 + c) mod N`, `c < ⌊N/2⌋` —
    /// while every other slot of either layout is neutral.
    fn check_layouts(m: &Molecule, t: &Topology) {
        let table = PairTable::new();
        let n = m.atoms.len();
        let packed = PairsSoA::build_as(m, t, &table, PairLayout::Packed);
        let both = PairsSoA::build_as(m, t, &table, PairLayout::Rows);
        assert_eq!(packed.layout(), PairLayout::Packed);
        assert_eq!(both.layout(), PairLayout::Rows);
        for p in [&packed, &both] {
            assert_eq!(p.n, t.pairs.len());
            assert_eq!(p.atoms(), n);
            assert_eq!(p.len_padded(), padded_len(t.pairs.len().max(1)));
            for (k, &(a, b)) in t.pairs.iter().enumerate() {
                assert_eq!((p.i[k], p.j[k]), (a as i32, b as i32));
            }
            for k in p.n..p.len_padded() {
                assert_eq!((p.i[k], p.j[k]), (0, 0));
                assert!(p.coefs.is_neutral(k), "packed padding {k}");
            }
        }

        let rows = both.rows().unwrap();
        assert_eq!(rows.stride, padded_len(n / 2));
        assert_eq!(rows.coefs.rij.len(), n * rows.stride);
        let mut scored = vec![false; n * rows.stride];
        for (k, &(a, b)) in t.pairs.iter().enumerate() {
            // From the kernel's side: the slot of row `i` whose partner is
            // `p` is `c = (p − i − 1) mod N`, if that is inside the shell.
            let homes: Vec<usize> = [(a as usize, b as usize), (b as usize, a as usize)]
                .into_iter()
                .map(|(i, p)| (i, (p + n - i - 1) % n))
                .filter(|&(_, c)| c < n / 2)
                .map(|(i, c)| i * rows.stride + c)
                .filter(|&slot| !rows.coefs.is_neutral(slot))
                .collect();
            assert_eq!(homes.len(), 1, "pair ({a}, {b}) of {n} atoms: {homes:?}");
            let got = rows.coefs.get(homes[0]);
            let want = both.coefs.get(k);
            assert_eq!(
                [got.rij, got.c12, got.c6, got.c10, got.qq, got.sv],
                [want.rij, want.c12, want.c6, want.c10, want.qq, want.sv]
            );
            assert!(!scored[homes[0]], "slot shared by two pairs");
            scored[homes[0]] = true;
        }
        for (slot, &s) in scored.iter().enumerate() {
            assert!(s || rows.coefs.is_neutral(slot), "stray slot {slot}");
        }
    }

    #[test]
    fn every_pair_has_one_row_slot_and_every_other_slot_is_neutral() {
        // Chains of 2–80 atoms: odd and even N, N < 16, and (n ≤ 4) no
        // scored pair at all.
        for n in 2..=80 {
            let (m, t) = chain(n);
            check_layouts(&m, &t);
        }
        // Branched synthetic ligands, rigid ones included.
        for (seed, heavy, torsions) in [(1, 4, 0), (2, 9, 0), (3, 12, 3), (4, 30, 6), (5, 64, 14)] {
            let m = synthetic_ligand(
                seed,
                LigandSpec {
                    heavy_atoms: heavy,
                    torsions,
                },
            );
            let t = Topology::build(&m);
            check_layouts(&m, &t);
        }
        // Atoms but no topology: zero pairs.
        let (m, _) = chain(6);
        check_layouts(&m, &Topology::default());
    }

    #[test]
    #[should_panic(expected = "wrapped-copy cap")]
    fn rows_refuse_a_ligand_beyond_the_cap() {
        let (m, t) = chain(162);
        PairsSoA::build_as(&m, &t, &PairTable::new(), PairLayout::Rows);
    }
}
