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
//! rule and the table's precedence over rows come from.

use std::time::Instant;

use mudock_core::scoring::{
    intra_energy_simd, intra_energy_simd_walk, IntraWalk, PairLayout, PairsSoA,
};
use mudock_core::LigandPrep;
use mudock_ff::params::{PairTable, NB_CUTOFF};
use mudock_ff::terms;
use mudock_mol::{ConformSoA, Vec3};
use mudock_simd::SimdLevel;

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

/// Seconds per call of `f`, after a warm-up tenth.
fn time(reps: usize, f: &mut dyn FnMut() -> f32) -> f64 {
    let mut sink = 0.0;
    for _ in 0..reps / 10 {
        sink += f(); // warm-up
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        sink += f();
    }
    std::hint::black_box(sink);
    t0.elapsed().as_secs_f64() / reps as f64
}

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
    let reps = 2000;

    println!("ABLATION: AoS + per-pair FF lookups vs SoA + premultiplied coefficients");
    println!(
        "ligand: {} atoms, {} scored pairs\n",
        prep.base.n, prep.pairs.n
    );
    let t_aos = time(reps, &mut || intra_aos(&atoms, &prep.topo.pairs, &table));
    println!(
        "{:22} {:10.2} µs/eval  (baseline)",
        "aos+lookup+libm",
        t_aos * 1e6
    );
    for level in SimdLevel::available() {
        let t = time(reps, &mut || intra_energy_simd(level, &conf, &prep.pairs));
        println!(
            "{:22} {:10.2} µs/eval  ({:.2}x)",
            format!("soa {level}"),
            t * 1e6,
            t_aos / t
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
    for heavy in [10, 16, 24, 32, 40, 48, 56, 64] {
        let prep = prep(heavy);
        let conf = ConformSoA::from_molecule(&prep.mol);
        let rows = PairsSoA::build_as(&prep.mol, &prep.topo, &table, PairLayout::Rows);
        let slots = prep.base.n * mudock_mol::padded_len(prep.base.n / 2);
        for level in SimdLevel::available() {
            let walks = [IntraWalk::Table, IntraWalk::Gathered, IntraWalk::Rows];
            let runnable = |w| w != IntraWalk::Table || prep.base.n <= 2 * level.lanes();
            // The walks alternate, best of five, so a slow stretch of the
            // host cannot favour one of them.
            let mut best = [f64::MAX; 3];
            for _ in 0..5 {
                for (t, w) in best.iter_mut().zip(walks) {
                    if runnable(w) {
                        *t = t.min(time(4000, &mut || {
                            intra_energy_simd_walk(level, &conf, &rows, w)
                        }));
                    }
                }
            }
            let selected = IntraWalk::selected(level, &prep.pairs);
            let cells: String = best
                .iter()
                .zip(walks)
                .map(|(t, w)| match (runnable(w), w == selected) {
                    (false, _) => format!(" {:>11}", "-"),
                    (true, true) => format!(" {:>10.0}*", t * 1e9),
                    (true, false) => format!(" {:>10.0} ", t * 1e9),
                })
                .collect();
            println!(
                "{:>5} {:>5} {:>6} {:>6.2}  {:8}{cells}",
                heavy,
                prep.base.n,
                prep.pairs.n,
                slots as f64 / rows.len_padded() as f64,
                level.to_string(),
            );
        }
    }
}

fn main() {
    aos_vs_soa();
    walks();
}
