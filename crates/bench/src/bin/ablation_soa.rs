//! Ablation: AoS vs SoA ligand layout for the intra-energy kernel.
//!
//! The paper lists data-layout restructuring among the code
//! transformations needed for portable vectorization (Section IX). This
//! binary scores the same pair list with (a) an array-of-structs layout
//! with per-pair force-field lookups — the "natural" OOP layout — and
//! (b) the SoA layout with premultiplied coefficients the engine uses,
//! at every SIMD level. A second table times the SoA kernel's three walks
//! — the packed list through an in-register table or through memory
//! gathers, and half-shell rows — against each other per ligand size,
//! which is where the crossover constant of `PairsSoA::build`'s selection
//! rule and the table's precedence over rows come from. A third table
//! times the three pose kernels (transform / inter / intra) per ligand
//! size at every explicit level and through the portable arm's
//! compiler-vectorized drivers (`core::autovec`) in every frame this host
//! runs, side by side: the paper's auto-vs-explicit figure, per ISA.
//!
//! Each table's cells take turns ([`mudock_bench::take_turns`]), per
//! ligand size where it has sizes, so cells read side by side were timed
//! in the same stretch of the host.

use mudock_bench::ns_per_call;

use mudock_core::autovec::{frame_name, inter_energy_autovec_at, intra_energy_autovec_at};
use mudock_core::scoring::{
    inter_energy_simd, intra_energy_simd, intra_energy_simd_walk, IntraWalk, PairLayout, PairsSoA,
};
use mudock_core::transform::apply_pose_simd;
use mudock_core::{Genotype, LigandPrep};
use mudock_ff::params::{PairTable, NB_CUTOFF};
use mudock_ff::terms;
use mudock_grids::{GridBuilder, GridDims};
use mudock_mol::{ConformSoA, Vec3};
use mudock_simd::SimdLevel;
use rand::SeedableRng as _;

/// AoS atom record, as a straightforward implementation would hold it.
#[derive(Clone, Copy)]
struct AtomRec {
    pos: Vec3,
    ty: mudock_ff::AtomType,
    charge: f32,
}

/// AoS intra energy: per pair, look up force-field parameters by type and
/// evaluate with libm math — not vectorizable (pointer-chasing + calls).
fn intra_aos(atoms: &[AtomRec], pairs: &[(u32, u32)], table: &PairTable) -> f32 {
    let mut total = 0.0;
    for &(i, j) in pairs {
        let a = &atoms[i as usize];
        let b = &atoms[j as usize];
        let r = a.pos.distance(b.pos);
        if r * r > NB_CUTOFF * NB_CUTOFF {
            continue;
        }
        total += terms::pair_energy(table, a.ty, a.charge, b.ty, b.charge, r).total();
    }
    total
}

/// Calls of a kernel in one timed pass.
const CALLS: usize = 100;

fn prep(heavy_atoms: usize) -> LigandPrep {
    let ligand = mudock_molio::synthetic_ligand(
        7,
        mudock_molio::LigandSpec {
            heavy_atoms,
            torsions: heavy_atoms / 5,
        },
    );
    LigandPrep::new(ligand).expect("valid ligand")
}

fn aos_vs_soa() {
    let prep = prep(40);
    let conf = ConformSoA::from_molecule(&prep.mol);
    let table = PairTable::new();
    let atoms: Vec<AtomRec> = prep
        .mol
        .atoms
        .iter()
        .map(|a| AtomRec {
            pos: a.pos,
            ty: a.ty,
            charge: a.charge,
        })
        .collect();
    let levels = SimdLevel::available();
    let ns = ns_per_call(1 + levels.len(), CALLS, |i| match i {
        0 => intra_aos(&atoms, &prep.topo.pairs, &table),
        _ => intra_energy_simd(levels[i - 1], &conf, &prep.pairs),
    });

    println!("ABLATION: AoS + per-pair FF lookups vs SoA + premultiplied coefficients");
    println!(
        "ligand: {} atoms, {} scored pairs\n",
        prep.base.n, prep.pairs.n
    );
    println!(
        "{:22} {:10.2} µs/eval  (baseline)",
        "aos+lookup+libm",
        ns[0] / 1e3
    );
    for (level, t) in levels.iter().zip(&ns[1..]) {
        println!(
            "{:22} {:10.2} µs/eval  ({:.2}x)",
            format!("soa {level}"),
            t / 1e3,
            ns[0] / t
        );
    }
    println!("\nExpected shape: at one lane the branchless SoA kernel can even lose");
    println!("(it evaluates every term for every pair, no early cutoff exit) — the");
    println!("layout pays off only through the vector widths it unlocks, which is");
    println!("precisely the paper's point about restructuring for vectorization.");
}

/// The three walks per ligand size and level: the data behind the 1.4×
/// slot-ratio crossover in `PairsSoA::build` and behind the table's
/// precedence over rows. `ratio` is row slots over packed slots; `*`
/// marks the walk the kernel takes for what `build` lays out. The table
/// column is empty where two registers of that level cannot hold the
/// ligand; below AVX-512 it times the default `lookup2` (a stack copy),
/// which is why those levels never select it. One lane is listed for the
/// record only — that kernel always gathers.
fn walks() {
    let table = PairTable::new();
    println!("\nABLATION: packed list via in-register table / via gathers vs half-shell rows");
    println!(
        "{:>5} {:>5} {:>6} {:>6}  {:8} {:>11} {:>11} {:>11}",
        "heavy", "atoms", "pairs", "ratio", "level", "table ns", "gathered ns", "rows ns"
    );
    let walks = [IntraWalk::Table, IntraWalk::Gathered, IntraWalk::Rows];
    let levels = SimdLevel::available();
    for heavy in [10, 16, 24, 32, 40, 48, 56, 64] {
        let prep = prep(heavy);
        let conf = ConformSoA::from_molecule(&prep.mol);
        let rows = PairsSoA::build_as(&prep.mol, &prep.topo, &table, PairLayout::Rows);
        let packed = PairsSoA::build_as(&prep.mol, &prep.topo, &table, PairLayout::Packed);
        let slots = prep.base.n * mudock_mol::padded_len(prep.base.n / 2);
        let runnable =
            |level: SimdLevel, w| w != IntraWalk::Table || prep.base.n <= 2 * level.lanes();
        // Every runnable (level, walk), then the portable arm (in this
        // host's frame) over the packed list and over rows: it walks
        // rows wherever `build` laid them out and the packed list
        // otherwise, and has no table.
        let cells: Vec<(SimdLevel, IntraWalk)> = levels
            .iter()
            .flat_map(|&l| walks.map(|w| (l, w)))
            .filter(|&(l, w)| runnable(l, w))
            .collect();
        let mut ns = ns_per_call(cells.len() + 2, CALLS, |i| match cells.get(i) {
            Some(&(level, w)) => intra_energy_simd_walk(level, &conf, &rows, w),
            None => {
                let pairs = if i == cells.len() { &packed } else { &rows };
                intra_energy_autovec_at(mudock_simd::frame(), &conf, pairs)
            }
        })
        .into_iter();
        let head = format!(
            "{:>5} {:>5} {:>6} {:>6.2}",
            heavy,
            prep.base.n,
            prep.pairs.n,
            slots as f64 / rows.len_padded() as f64
        );
        // A timed cell, `*` where it is what the kernel takes.
        let mut cell = |taken: bool| {
            let mark = if taken { '*' } else { ' ' };
            format!(" {:>10.0}{mark}", ns.next().unwrap())
        };
        for &level in &levels {
            let selected = IntraWalk::selected(level, &prep.pairs);
            let cells: String = (walks.iter())
                .map(|&w| match runnable(level, w) {
                    true => cell(w == selected),
                    false => format!(" {:>11}", "-"),
                })
                .collect();
            println!("{head}  {:8}{cells}", level.to_string());
        }
        let layout = prep.pairs.layout();
        let on_packed = cell(layout == PairLayout::Packed);
        let on_rows = cell(layout == PairLayout::Rows);
        println!("{head}  {:8} {:>11}{on_packed}{on_rows}", "autovec", "-");
    }
}

/// One row of the per-kernel table: an explicit level, or the portable
/// drivers in a frame.
#[derive(Clone, Copy)]
enum Arm {
    Explicit(SimdLevel),
    AutoVec(SimdLevel),
}

/// Transform / inter / intra per pose, per ligand size: every explicit
/// level, then the portable arm (the same per-lane math in lane loops the
/// compiler vectorizes) in every frame — `autovec@baseline`, the build's
/// own ISA, then the `#[target_feature]` frames the host supports. The
/// `scalar` row is what `autovec` ran before it had drivers of its own
/// and what `autovec@baseline` replaces as the default of a host without
/// AVX2; each `autovec@avx*` row reads against the hand-written row of
/// its level above it. Both arms pose with one body (`apply_pose_simd`),
/// so the transform column times the same code in a level's two rows.
fn per_kernel() {
    println!("\nABLATION: the three pose kernels per backend, ns per pose");
    println!(
        "{:>5} {:>5} {:>6}  {:16} {:>10} {:>10} {:>10} {:>10}",
        "heavy", "atoms", "pairs", "backend", "transform", "inter", "intra", "sum"
    );
    let receptor = mudock_molio::synthetic_receptor(5, 200, 9.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    // `Scalar` names the baseline frame.
    let levels = SimdLevel::available();
    let arms: Vec<Arm> = (levels.iter().map(|&l| Arm::Explicit(l)))
        .chain(levels.iter().map(|&l| Arm::AutoVec(l)))
        .collect();
    for heavy in [10, 24, 48] {
        let prep = prep(heavy);
        let mut types: Vec<_> = prep.mol.atoms.iter().map(|a| a.ty).collect();
        types.sort_unstable();
        types.dedup();
        let grids = GridBuilder::new(&receptor, GridDims::centered(Vec3::ZERO, 12.0, 0.5))
            .with_types(&types)
            .build_simd(SimdLevel::detect());
        let g = Genotype::random(&mut rng, prep.n_torsions(), Vec3::ZERO, 3.0);
        let mut posed = ConformSoA::with_capacity(prep.base.n);
        apply_pose_simd(SimdLevel::Scalar, &prep.base, &prep.plans, &g, &mut posed);
        let mut out = ConformSoA::with_capacity(prep.base.n);

        // Every (arm, kernel) cell of this size takes turns with the others.
        let ns = ns_per_call(3 * arms.len(), CALLS, |i| match (arms[i / 3], i % 3) {
            (Arm::Explicit(l) | Arm::AutoVec(l), 0) => {
                apply_pose_simd(l, &prep.base, &prep.plans, &g, &mut out);
                out.x[0]
            }
            (Arm::Explicit(l), 1) => inter_energy_simd(l, &grids, &posed, &prep.statics),
            (Arm::AutoVec(f), 1) => inter_energy_autovec_at(f, &grids, &posed, &prep.statics),
            (Arm::Explicit(l), _) => intra_energy_simd(l, &posed, &prep.pairs),
            (Arm::AutoVec(f), _) => intra_energy_autovec_at(f, &posed, &prep.pairs),
        });
        for (&arm, ns) in arms.iter().zip(ns.chunks_exact(3)) {
            println!(
                "{:>5} {:>5} {:>6}  {:16} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                heavy,
                prep.base.n,
                prep.pairs.n,
                match arm {
                    Arm::Explicit(l) => l.to_string(),
                    Arm::AutoVec(f) => format!("autovec@{}", frame_name(f)),
                },
                ns[0],
                ns[1],
                ns[2],
                ns.iter().sum::<f64>(),
            );
        }
    }
}

fn main() {
    // `ablation_soa kernels` prints only the per-kernel table.
    if std::env::args().nth(1).as_deref() != Some("kernels") {
        aos_vs_soa();
        walks();
    }
    per_kernel();
}
