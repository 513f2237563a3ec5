//! Ablation: the memory-lookup pattern in isolation (paper Section V).
//!
//! The inter-energy kernel is "frequent lookups into large constant data
//! structures". This binary sweeps the lookup-table size across the cache
//! hierarchy and measures gather throughput per SIMD level — the
//! transition from L1-resident to DRAM-resident tables is exactly the
//! memory-bound behaviour Tables IV/V quantify on the real machines.

//!
//! A second table times the inter kernel's corner fetch both ways — two
//! single gathers at `idx` and `idx + 1` against one paired gather
//! ([`Simd::gather_pair_unchecked`]) — per table size and level. It is
//! the evidence each backend's paired implementation rests on: one whose
//! `paired` column is not at least 10 % below `single` on the host at hand
//! (AMD's gathers are microcoded) should go back to the trait's default.

use std::time::Instant;

use mudock_simd::traits::gather_pair_default;
use mudock_simd::{dispatch, ops, Simd, SimdLevel};

/// `Σ table[i] + table[i + 1]` over `idx`, the pairs fetched by the
/// backend's paired gather or, with `single`, by two single gathers.
///
/// # Safety
/// Every index needs `0 <= i` and `i + 1 < table.len()`.
#[inline(always)]
unsafe fn pair_sum<S: Simd>(s: S, table: &[f32], idx: &[i32], single: bool) -> f32 {
    let mut acc = s.zero();
    for c in idx.chunks_exact(S::LANES) {
        let iv = s.load_i32(c);
        // SAFETY: the caller's contract, lane by lane.
        let (a, b) = unsafe {
            if single {
                gather_pair_default(s, table, iv)
            } else {
                s.gather_pair_unchecked(table, iv)
            }
        };
        acc = s.add(acc, s.add(a, b));
    }
    s.reduce_add(acc)
}

/// Nanoseconds per element of `f` over `n_idx` indices.
fn ns_per_gather(n_idx: usize, f: &mut dyn FnMut() -> f32) -> f64 {
    let reps = 400;
    let mut sink = 0.0f32;
    for _ in 0..20 {
        sink += f();
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        sink += f();
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    dt / (reps as f64 * n_idx as f64) * 1e9
}

/// 16 KiB (L1) → 64 MiB (DRAM-ish).
const TABLE_KIB: [usize; 5] = [16, 128, 1024, 8 * 1024, 64 * 1024];

/// A table of `size_kib` and a pseudo-random full-range index pattern
/// (defeats prefetch) whose every index has a right-hand neighbour.
fn table_and_indices(size_kib: usize, n_idx: usize) -> (Vec<f32>, Vec<i32>) {
    let table_len = size_kib * 1024 / 4;
    let table: Vec<f32> = (0..table_len).map(|i| (i % 97) as f32).collect();
    let idx: Vec<i32> = (0..n_idx)
        .map(|i| ((i as u64).wrapping_mul(0x9e37_79b9) % (table_len as u64 - 1)) as i32)
        .collect();
    (table, idx)
}

fn main() {
    let n_idx = 8 * 1024;
    println!("ABLATION: gather throughput vs table size ({n_idx} gathers/eval)\n");
    println!(
        "{:>12} {}",
        "table",
        SimdLevel::available()
            .iter()
            .map(|l| format!("{:>12}", l.name()))
            .collect::<String>()
    );

    for size_kib in TABLE_KIB {
        let (table, idx) = table_and_indices(size_kib, n_idx);
        let mut row = format!("{:>9} KiB", size_kib);
        for level in SimdLevel::available() {
            let ns = ns_per_gather(n_idx, &mut || ops::gather_sum(level, &table, &idx));
            row.push_str(&format!("{:>9.2} ns", ns));
        }
        println!("{row}");
    }

    println!("\nExpected shape: SIMD width helps while the table is cache-resident");
    println!("(compute-bound gathers), then all levels converge to memory latency —");
    println!("the same crossover the paper's inter-energy kernel hits when the grid");
    println!("maps outgrow the LLC (Tables IV/V, Genoa multi-core).");

    println!("\nABLATION: x-adjacent corner pairs, two single gathers vs one paired gather");
    println!("(ns per pair; `paired` at scalar is the default, i.e. `single`)\n");
    println!(
        "{:>12} {:8} {:>10} {:>10} {:>8}",
        "table", "level", "single", "paired", "paired/s"
    );
    for size_kib in TABLE_KIB {
        let (table, idx) = table_and_indices(size_kib, n_idx);
        assert!(idx
            .iter()
            .all(|&i| i >= 0 && (i as usize) + 1 < table.len()));
        for level in SimdLevel::available() {
            // The two alternate, best of three, so a slow stretch of the
            // host cannot favour one of them.
            let (mut single, mut paired) = (f64::MAX, f64::MAX);
            for _ in 0..3 {
                // SAFETY: every index was checked against `table` above.
                single = single.min(ns_per_gather(n_idx, &mut || unsafe {
                    dispatch!(level, |s| pair_sum(s, &table, &idx, true))
                }));
                paired = paired.min(ns_per_gather(n_idx, &mut || unsafe {
                    dispatch!(level, |s| pair_sum(s, &table, &idx, false))
                }));
            }
            println!(
                "{:>9} KiB {:8} {:>7.2} ns {:>7.2} ns {:>8.2}",
                size_kib,
                level.to_string(),
                single,
                paired,
                paired / single
            );
        }
    }
}
