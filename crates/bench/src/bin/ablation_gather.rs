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
//!
//! The cells of one table size take turns ([`mudock_bench::take_turns`]),
//! so a row was timed in one stretch of the host.

use mudock_bench::ns_per_call;
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

/// Gathers in one timed pass: a table's index list is swept as many
/// times as fit, at least once.
const GATHERS_PER_PASS: usize = 80 * 1024;

/// The fewest indices a table gets (a small table's lines are visited
/// several times over).
const MIN_INDICES: usize = 8 * 1024;

/// 16 KiB (L1) → 64 MiB (DRAM-ish).
const TABLE_KIB: [usize; 5] = [16, 128, 1024, 8 * 1024, 64 * 1024];

/// Floats per 64-byte cache line.
const LINE_FLOATS: usize = 16;

/// A table of `size_kib` and a pseudo-random index pattern (defeats
/// prefetch) that reaches every 64-byte line of it, each equally often,
/// so a table's row times a working set of the table's size. Every
/// index has a right-hand neighbour in the same line.
fn table_and_indices(size_kib: usize) -> (Vec<f32>, Vec<i32>) {
    let table_len = size_kib * 1024 / 4;
    let table: Vec<f32> = (0..table_len).map(|i| (i % 97) as f32).collect();
    let lines = table_len / LINE_FLOATS;
    assert!(
        lines.is_power_of_two(),
        "an odd stride must visit every line"
    );
    let idx: Vec<i32> = (0..lines.max(MIN_INDICES))
        .map(|i| {
            // An odd stride modulo a power of two is a permutation.
            let line = (i as u64).wrapping_mul(0x9e37_79b9) as usize % lines;
            (line * LINE_FLOATS + i % (LINE_FLOATS - 1)) as i32
        })
        .collect();
    (table, idx)
}

/// Sweeps of `idx` in one timed pass.
fn sweeps(idx: &[i32]) -> usize {
    (GATHERS_PER_PASS / idx.len()).max(1)
}

fn main() {
    let levels = SimdLevel::available();
    println!(
        "ABLATION: gather throughput vs table size (every 64-byte line gathered, \
         at least {MIN_INDICES} gathers per sweep)\n"
    );
    println!(
        "{:>12} {}",
        "table",
        levels
            .iter()
            .map(|l| format!("{:>12}", l.name()))
            .collect::<String>()
    );

    for size_kib in TABLE_KIB {
        let (table, idx) = table_and_indices(size_kib);
        let ns = ns_per_call(levels.len(), sweeps(&idx), |i| {
            ops::gather_sum(levels[i], &table, &idx)
        });
        let cells: String = (ns.iter())
            .map(|ns| format!("{:>9.2} ns", ns / idx.len() as f64))
            .collect();
        println!("{size_kib:>9} KiB{cells}");
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
        let (table, idx) = table_and_indices(size_kib);
        assert!(idx
            .iter()
            .all(|&i| i >= 0 && (i as usize) + 1 < table.len()));
        // Per level: two single gathers a pair (even cell), one paired (odd).
        // SAFETY: every index was checked against `table` above.
        let ns = ns_per_call(2 * levels.len(), sweeps(&idx), |i| unsafe {
            dispatch!(levels[i / 2], |s| pair_sum(s, &table, &idx, i % 2 == 0))
        });
        for (level, ns) in levels.iter().zip(ns.chunks_exact(2)) {
            let n_idx = idx.len() as f64;
            let (single, paired) = (ns[0] / n_idx, ns[1] / n_idx);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_line_of_every_table_is_gathered_with_its_neighbour() {
        for size_kib in [16, 128, 1024, 8 * 1024] {
            let (table, idx) = table_and_indices(size_kib);
            let mut hits = vec![0usize; table.len() / LINE_FLOATS];
            for &i in &idx {
                let i = i as usize;
                assert_eq!(
                    i / LINE_FLOATS,
                    (i + 1) / LINE_FLOATS,
                    "{size_kib} KiB: {i}"
                );
                hits[i / LINE_FLOATS] += 1;
            }
            let (lo, hi) = (hits.iter().min().unwrap(), hits.iter().max().unwrap());
            assert!(
                *lo >= 1 && lo == hi,
                "{size_kib} KiB: lines hit {lo}..={hi} times"
            );
        }
    }
}
