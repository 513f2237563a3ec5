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

use std::time::Instant;

use mudock_core::autovec::{
    apply_pose_autovec_at, frame_name, inter_energy_autovec_at, intra_energy_autovec,
    intra_energy_autovec_at,
};
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
        // The portable arm (in this host's frame) walks rows wherever
        // `build` laid them out and the packed list otherwise; it has no
        // table.
        let packed = PairsSoA::build_as(&prep.mol, &prep.topo, &table, PairLayout::Packed);
        let mut best = [f64::MAX; 2];
        for _ in 0..5 {
            for (t, pairs) in best.iter_mut().zip([&packed, &rows]) {
                *t = t.min(time(4000, &mut || intra_energy_autovec(&conf, pairs)));
            }
        }
        let mark = |layout| {
            if prep.pairs.layout() == layout {
                '*'
            } else {
                ' '
            }
        };
        println!(
            "{:>5} {:>5} {:>6} {:>6.2}  {:8} {:>11} {:>10.0}{} {:>10.0}{}",
            heavy,
            prep.base.n,
            prep.pairs.n,
            slots as f64 / rows.len_padded() as f64,
            "autovec",
            "-",
            best[0] * 1e9,
            mark(PairLayout::Packed),
            best[1] * 1e9,
            mark(PairLayout::Rows),
        );
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
/// `scalar` row is what `autovec` ran before it had drivers of its own;
/// each `autovec@<level>` row reads against the hand-written `<level>`
/// row above it (`autovec@baseline` against `sse2` on a default x86-64
/// build).
fn per_kernel() {
    println!("\nABLATION: the three pose kernels per backend, ns per pose");
    println!(
        "{:>5} {:>5} {:>6}  {:16} {:>10} {:>10} {:>10} {:>10}",
        "heavy", "atoms", "pairs", "backend", "transform", "inter", "intra", "sum"
    );
    let receptor = mudock_molio::synthetic_receptor(5, 200, 9.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let levels = SimdLevel::available();
    // Every level below AVX2 names the baseline frame: `Scalar` lists it.
    let frames = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];
    let arms: Vec<Arm> = (levels.iter().map(|&l| Arm::Explicit(l)))
        .chain(
            frames
                .into_iter()
                .filter(|f| f.is_supported())
                .map(Arm::AutoVec),
        )
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

        for &arm in &arms {
            // Kernels alternate, best of five (as in `walks`).
            let mut best = [f64::MAX; 3];
            for _ in 0..5 {
                let t = [
                    time(4000, &mut || {
                        match arm {
                            Arm::Explicit(l) => {
                                apply_pose_simd(l, &prep.base, &prep.plans, &g, &mut out)
                            }
                            Arm::AutoVec(f) => {
                                apply_pose_autovec_at(f, &prep.base, &prep.plans, &g, &mut out)
                            }
                        }
                        out.x[0]
                    }),
                    time(4000, &mut || match arm {
                        Arm::Explicit(l) => inter_energy_simd(l, &grids, &posed, &prep.statics),
                        Arm::AutoVec(f) => {
                            inter_energy_autovec_at(f, &grids, &posed, &prep.statics)
                        }
                    }),
                    time(4000, &mut || match arm {
                        Arm::Explicit(l) => intra_energy_simd(l, &posed, &prep.pairs),
                        Arm::AutoVec(f) => intra_energy_autovec_at(f, &posed, &prep.pairs),
                    }),
                ];
                for (b, t) in best.iter_mut().zip(t) {
                    *b = b.min(t);
                }
            }
            println!(
                "{:>5} {:>5} {:>6}  {:16} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                heavy,
                prep.base.n,
                prep.pairs.n,
                match arm {
                    Arm::Explicit(l) => l.to_string(),
                    Arm::AutoVec(f) => format!("autovec@{}", frame_name(f)),
                },
                best[0] * 1e9,
                best[1] * 1e9,
                best[2] * 1e9,
                best.iter().sum::<f64>() * 1e9,
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
