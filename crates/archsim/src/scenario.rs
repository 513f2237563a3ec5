//! The full cross-architecture study: computes every series of every
//! table and figure in the paper's evaluation from the workload traces,
//! cache simulations and the pipeline model. Benchmark binaries in
//! `mudock-bench` only format what this module returns.

use std::collections::HashMap;

use crate::arch::{all_archs, ArchConfig};
use crate::cache::CacheOutcome;
use crate::compiler::{self, all_compilers, CompilerProfile};
use crate::pipeline::{estimate, RunEstimate};
use crate::portability::PortabilityMatrix;
use crate::roofline::Roofline;
use crate::workload::{self, Workload};

/// SMT throughput bonus for the embarrassingly-parallel ligand workload
/// (2-way SMT keeps vector pipes busier; ARM parts here have no SMT).
fn smt_boost(arch: &ArchConfig) -> f64 {
    if arch.threads_per_core > 1 {
        1.15
    } else {
        1.0
    }
}

/// Fraction of node TDP drawn during an all-core run (sockets run close
/// to, but not at, TDP on this workload).
const POWER_UTILIZATION: f64 = 0.8;

/// Multi-core memory-system degradation, adopted from the paper's
/// measured Table IV/V: Genoa's CCD-private LLC cannot share the grid
/// maps across CCDs and its miss rate explodes 200× at full node (the
/// first-order cache model reproduces the direction but not the
/// magnitude, which is why the penalty is adopted rather than derived);
/// A64FX's CMG L2 thrashes but HBM2 absorbs much of it.
fn mc_memory_penalty(arch: &ArchConfig) -> f64 {
    match arch.key {
        // Genoa: per-CCD LLC cannot share grid maps, measured miss rate
        // explodes 200× at full node (Table IV).
        "genoa" => 1.8,
        // Graviton 4: only 36 MiB of LLC behind 96 cores per socket.
        "graviton" => 1.3,
        _ => 1.0,
    }
}

/// One (architecture, compiler) data point.
#[derive(Clone, Debug)]
pub struct Point {
    pub arch: String,
    pub compiler: String,
    pub value: f64,
}

/// Figure 3 needs two values per point.
#[derive(Clone, Debug)]
pub struct VecPoint {
    pub arch: String,
    pub compiler: String,
    pub vec_ratio: f64,
    pub speedup: f64,
}

/// Figure 7 rows.
#[derive(Clone, Debug)]
pub struct CostPoint {
    pub arch: String,
    pub compiler: String,
    /// USD per ligand evaluated.
    pub cost_per_ligand: f64,
    /// Joules per ligand evaluated.
    pub energy_per_ligand: f64,
}

/// Figure 5: one roofline plot per architecture with kernel points.
#[derive(Clone, Debug)]
pub struct RooflinePlot {
    pub arch: String,
    pub roofline: Roofline,
    /// (compiler, AI, attained GFLOP/s) for the docking kernels.
    pub points: Vec<(String, f64, f64)>,
}

/// Tables IV & V rows.
#[derive(Clone, Debug)]
pub struct MemoryRow {
    pub arch: String,
    pub llc_miss_single: f64,
    pub llc_miss_multi: f64,
    pub ai_single: f64,
    pub ai_multi: f64,
}

/// Everything computed once and shared by the figure generators.
pub struct Study {
    pub archs: Vec<ArchConfig>,
    pub compilers: Vec<CompilerProfile>,
    pub reduced: Workload,
    pub mediate: Workload,
    cache_single: HashMap<&'static str, CacheOutcome>,
    cache_multi: HashMap<&'static str, CacheOutcome>,
}

impl Study {
    /// Build the workloads (runs short real docking on the host) and all
    /// cache simulations. Takes a few seconds in release mode.
    pub fn new() -> Study {
        let archs = all_archs();
        let reduced = workload::reduced_workload();
        let mediate = workload::mediate_workload();
        let mut cache_single = HashMap::new();
        let mut cache_multi = HashMap::new();
        for a in &archs {
            cache_single.insert(a.key, workload::replay(a, &reduced, 1));
            let cores = Self::cores_to_simulate(a);
            cache_multi.insert(a.key, workload::replay(a, &mediate, cores));
        }
        Study {
            archs,
            compilers: all_compilers(),
            reduced,
            mediate,
            cache_single,
            cache_multi,
        }
    }

    /// LLC domains are independent (per-CCD on Genoa, per-CMG on A64FX):
    /// simulating one fully-populated domain reproduces the full node's
    /// per-domain behaviour; fully-shared LLCs are capped at 24 streams to
    /// bound simulation cost (large shared caches are past their capacity
    /// knee well before that).
    fn cores_to_simulate(arch: &ArchConfig) -> usize {
        arch.llc().shared_by.min(24).min(arch.cores())
    }

    /// Single-core run estimate on the reduced dataset; `None` when the
    /// paper does not evaluate the combination.
    pub fn single_core(&self, arch: &ArchConfig, comp: &CompilerProfile) -> Option<RunEstimate> {
        let cg = compiler::codegen(comp, arch)?;
        Some(estimate(
            arch,
            &cg,
            &self.reduced,
            &self.cache_single[arch.key],
        ))
    }

    /// Per-core estimate under multi-core cache behaviour (MEDIATE set).
    pub fn multi_core_per_ligand(
        &self,
        arch: &ArchConfig,
        comp: &CompilerProfile,
    ) -> Option<RunEstimate> {
        let cg = compiler::codegen(comp, arch)?;
        Some(estimate(
            arch,
            &cg,
            &self.mediate,
            &self.cache_multi[arch.key],
        ))
    }

    /// Node wall-clock seconds to screen the whole MEDIATE-like set.
    pub fn node_seconds(&self, arch: &ArchConfig, comp: &CompilerProfile) -> Option<f64> {
        let est = self.multi_core_per_ligand(arch, comp)?;
        let cores = arch.cores() as f64;
        let raw = self.mediate.ligands as f64 * est.seconds_per_ligand / (cores * smt_boost(arch));
        // Bandwidth contention: aggregate DRAM demand vs the node's peak.
        let demand_gbs = cores * est.dram_bytes_per_ligand / est.seconds_per_ligand / 1e9;
        let contention = (demand_gbs / arch.node_bw_gbs() as f64).max(1.0);
        Some(raw * contention * mc_memory_penalty(arch))
    }

    /// Figure 2a: single-core execution time (s) of the reduced dataset.
    pub fn fig2a(&self) -> Vec<Point> {
        let mut rows = Vec::new();
        for a in &self.archs {
            for c in &self.compilers {
                if let Some(est) = self.single_core(a, c) {
                    rows.push(Point {
                        arch: a.key.into(),
                        compiler: c.key.into(),
                        value: est.seconds_per_ligand * self.reduced.ligands as f64,
                    });
                }
            }
        }
        rows
    }

    /// Figure 2b: full-node execution time (s) of the MEDIATE-like set.
    pub fn fig2b(&self) -> Vec<Point> {
        let mut rows = Vec::new();
        for a in &self.archs {
            for c in &self.compilers {
                if let Some(secs) = self.node_seconds(a, c) {
                    rows.push(Point {
                        arch: a.key.into(),
                        compiler: c.key.into(),
                        value: secs,
                    });
                }
            }
        }
        rows
    }

    /// Figure 3: vectorization ratio and speedup over the no-vec baseline.
    pub fn fig3(&self) -> Vec<VecPoint> {
        let mut rows = Vec::new();
        for a in &self.archs {
            for c in &self.compilers {
                let Some(cg) = compiler::codegen(c, a) else {
                    continue;
                };
                let novec = estimate(
                    a,
                    &compiler::novec_baseline(a, &cg),
                    &self.reduced,
                    &self.cache_single[a.key],
                );
                let est = estimate(a, &cg, &self.reduced, &self.cache_single[a.key]);
                rows.push(VecPoint {
                    arch: a.key.into(),
                    compiler: c.key.into(),
                    vec_ratio: est.vec_ratio,
                    speedup: novec.seconds_per_ligand / est.seconds_per_ligand,
                });
            }
        }
        rows
    }

    /// Figure 4: pipeline stall fraction (vs useful work).
    pub fn fig4(&self) -> Vec<Point> {
        let mut rows = Vec::new();
        for a in &self.archs {
            for c in &self.compilers {
                if let Some(est) = self.single_core(a, c) {
                    rows.push(Point {
                        arch: a.key.into(),
                        compiler: c.key.into(),
                        value: est.stall_frac,
                    });
                }
            }
        }
        rows
    }

    /// Figure 5: rooflines for the four instrumented architectures
    /// (Graviton lacks the counters in the paper too).
    pub fn fig5(&self) -> Vec<RooflinePlot> {
        let mut plots = Vec::new();
        for a in &self.archs {
            if a.key == "graviton" {
                continue; // the paper cannot measure bandwidth/energy there
            }
            let lanes = a.vec_exec_bits / 32;
            let ghz = a.sustained_ghz as f64;
            let pipes = a.vec_pipes as f64;
            let vec_name = format!(
                "sp_{}{}",
                if a.isa == crate::arch::Isa::X86 {
                    "avx"
                } else {
                    "sve"
                },
                a.vec_bits
            );
            let roofline = Roofline::new(a.name, a.mem_bw_gbs as f64)
                .with_ceiling("sp_scalar", ghz * 2.0 * 2.0)
                .with_ceiling(&vec_name, ghz * pipes * lanes as f64)
                .with_ceiling(format!("{vec_name}+fma"), ghz * pipes * lanes as f64 * 2.0);
            let mut points = Vec::new();
            for c in &self.compilers {
                if let Some(est) = self.single_core(a, c) {
                    points.push((c.key.to_string(), est.arithmetic_intensity(), est.gflops()));
                }
            }
            plots.push(RooflinePlot {
                arch: a.key.into(),
                roofline,
                points,
            });
        }
        plots
    }

    /// Figure 6: application-efficiency matrix + harmonic means.
    pub fn fig6(&self) -> PortabilityMatrix {
        let times: Vec<Vec<Option<f64>>> = self
            .archs
            .iter()
            .map(|a| {
                self.compilers
                    .iter()
                    .map(|c| self.single_core(a, c).map(|e| e.seconds_per_ligand))
                    .collect()
            })
            .collect();
        PortabilityMatrix::from_times(
            self.archs.iter().map(|a| a.key.to_string()).collect(),
            self.compilers.iter().map(|c| c.key.to_string()).collect(),
            &times,
        )
    }

    /// Figure 7: cost (USD) and energy (J) per ligand on full-node runs.
    pub fn fig7(&self) -> Vec<CostPoint> {
        let mut rows = Vec::new();
        for a in &self.archs {
            for c in &self.compilers {
                if let Some(secs) = self.node_seconds(a, c) {
                    let ligands = self.mediate.ligands as f64;
                    let cost = a.cost_per_node_hour as f64 * (secs / 3600.0) / ligands;
                    let energy = a.node_tdp_w() as f64 * POWER_UTILIZATION * secs / ligands;
                    rows.push(CostPoint {
                        arch: a.key.into(),
                        compiler: c.key.into(),
                        cost_per_ligand: cost,
                        energy_per_ligand: energy,
                    });
                }
            }
        }
        rows
    }

    /// Tables IV & V: LLC miss rates and arithmetic intensity, single- vs
    /// multi-core, for the Clang toolchain (as the paper reports).
    pub fn tables45(&self) -> Vec<MemoryRow> {
        let clang = compiler::CLANG;
        let mut rows = Vec::new();
        for a in &self.archs {
            if a.key == "graviton" {
                continue; // no memory counters in the paper either
            }
            let single = &self.cache_single[a.key];
            let multi = &self.cache_multi[a.key];
            let cg = compiler::codegen(&clang, a).expect("clang targets everything");
            let est_s = estimate(a, &cg, &self.reduced, single);
            let est_m = estimate(a, &cg, &self.mediate, multi);
            rows.push(MemoryRow {
                arch: a.key.into(),
                llc_miss_single: single.llc_miss_rate(),
                llc_miss_multi: multi.llc_miss_rate(),
                ai_single: est_s.arithmetic_intensity(),
                ai_multi: est_m.arithmetic_intensity(),
            });
        }
        rows
    }
}

impl Default for Study {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The study takes seconds to build; share one across tests.
    fn study() -> &'static Study {
        static STUDY: OnceLock<Study> = OnceLock::new();
        STUDY.get_or_init(Study::new)
    }

    fn get(rows: &[Point], arch: &str, comp: &str) -> f64 {
        rows.iter()
            .find(|p| p.arch == arch && p.compiler == comp)
            .unwrap_or_else(|| panic!("missing {arch}/{comp}"))
            .value
    }

    #[test]
    fn fig2a_has_paper_combination_count() {
        // 4+4+4+4+3 = 19 bars in Figure 2a.
        assert_eq!(study().fig2a().len(), 19);
    }

    #[test]
    fn fig2a_headline_orderings() {
        let rows = study().fig2a();
        // HWY fastest on SPR (512-bit vs the compilers' 256-bit cap).
        assert!(get(&rows, "spr", "hwy") < get(&rows, "spr", "clang"));
        assert!(get(&rows, "spr", "hwy") < get(&rows, "spr", "gcc"));
        // FCC fastest on A64FX (FEXPA + tuning).
        assert!(get(&rows, "a64fx", "fcc") < get(&rows, "a64fx", "clang"));
        assert!(get(&rows, "a64fx", "fcc") < get(&rows, "a64fx", "hwy"));
        // GCC catastrophic on A64FX (scalar math on a 512-bit machine).
        assert!(get(&rows, "a64fx", "gcc") > 4.0 * get(&rows, "a64fx", "fcc"));
        // Clang beats HWY on the 128-bit ARM parts (ArmPL math).
        assert!(get(&rows, "grace", "clang") < get(&rows, "grace", "hwy"));
        assert!(get(&rows, "graviton", "clang") < get(&rows, "graviton", "hwy"));
        // GCC wins Genoa (the paper's cost-model/LLC observation).
        assert!(get(&rows, "genoa", "gcc") < get(&rows, "genoa", "clang"));
    }

    #[test]
    fn fig2b_x86_nodes_finish_first() {
        let rows = study().fig2b();
        // Best-per-arch node times: x86 (high core count × wide vectors)
        // beat A64FX and Grace; Graviton is competitive with Genoa.
        let best = |arch: &str| {
            rows.iter()
                .filter(|p| p.arch == arch)
                .map(|p| p.value)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(best("spr") < best("a64fx"));
        assert!(best("genoa") < best("grace"));
        let ratio = best("graviton") / best("genoa");
        assert!(
            (0.3..3.0).contains(&ratio),
            "Graviton comparable to Genoa, got ratio {ratio}"
        );
    }

    #[test]
    fn fig3_vectorization_story() {
        let rows = study().fig3();
        let find = |a: &str, c: &str| {
            rows.iter()
                .find(|p| p.arch == a && p.compiler == c)
                .unwrap()
        };
        // Vectorizing compilers reach a ratio comparable to HWY's.
        assert!(find("spr", "clang").vec_ratio > 0.85);
        assert!(find("spr", "hwy").vec_ratio > 0.85);
        // GCC on ARM and NVCC on Grace collapse (no vectorized GLIBC).
        assert!(find("grace", "gcc").vec_ratio < 0.5);
        assert!(find("grace", "nvcc").vec_ratio < 0.5);
        assert!(find("a64fx", "gcc").speedup < 1.5);
        // 512-bit machines see the biggest speedups.
        assert!(find("a64fx", "fcc").speedup > find("genoa", "clang").speedup);
        assert!(find("spr", "hwy").speedup > find("genoa", "hwy").speedup);
    }

    #[test]
    fn fig4_a64fx_stalls_highest() {
        let rows = study().fig4();
        let a64_clang = get(&rows, "a64fx", "clang");
        assert!(
            (0.5..0.9).contains(&a64_clang),
            "A64FX ≈70 % stalls, got {a64_clang}"
        );
        for arch in ["spr", "genoa", "grace", "graviton"] {
            assert!(
                get(&rows, arch, "clang") < a64_clang,
                "{arch} should stall less than A64FX"
            );
        }
    }

    #[test]
    fn fig5_kernels_are_compute_bound() {
        for plot in study().fig5() {
            for (comp, ai, gflops) in &plot.points {
                assert!(
                    *ai > plot.roofline.ridge_ai(),
                    "{}/{comp}: AI {ai} should be right of the ridge",
                    plot.arch
                );
                // No point exceeds its roof.
                assert!(
                    *gflops <= plot.roofline.attainable(*ai) * 1.001,
                    "{}/{comp}: {gflops} above roof",
                    plot.arch
                );
            }
        }
    }

    #[test]
    fn fig6_matches_paper_shape() {
        let m = study().fig6();
        // Per-row winners as in the paper's Figure 6.
        assert_eq!(m.get("grace", "clang"), Some(1.0));
        assert_eq!(m.get("genoa", "gcc"), Some(1.0));
        assert_eq!(m.get("spr", "hwy"), Some(1.0));
        assert_eq!(m.get("a64fx", "fcc"), Some(1.0));
        assert_eq!(m.get("graviton", "clang"), Some(1.0));
        // GCC's A64FX efficiency collapses (paper: 0.12).
        assert!(m.get("a64fx", "gcc").unwrap() < 0.35);
        // Harmonic means: clang and hwy are portable; vendor compilers 0.
        let h = m.harmonic_means();
        let idx = |k: &str| m.compilers.iter().position(|c| c == k).unwrap();
        assert!(h[idx("clang")] > 0.6);
        assert!(h[idx("hwy")] > 0.6);
        assert!(h[idx("gcc")] < h[idx("clang")]);
        assert_eq!(h[idx("fcc")], 0.0);
        assert_eq!(h[idx("icpx")], 0.0);
        assert_eq!(h[idx("aocc")], 0.0);
        assert_eq!(h[idx("nvcc")], 0.0);
    }

    #[test]
    fn fig7_cost_and_energy_story() {
        let rows = study().fig7();
        let pick = |a: &str, c: &str| {
            rows.iter()
                .find(|p| p.arch == a && p.compiler == c)
                .unwrap()
        };
        // A64FX is the value king (0.64 $/h node).
        let a64 = pick("a64fx", "fcc");
        for (a, c) in [("grace", "clang"), ("genoa", "gcc")] {
            assert!(
                a64.cost_per_ligand < pick(a, c).cost_per_ligand,
                "A64FX should be cheapest vs {a}"
            );
        }
        // Failing to vectorize costs energy: GCC on ARM burns much more
        // per ligand than Clang.
        let gcc = pick("grace", "gcc");
        let clang = pick("grace", "clang");
        assert!(gcc.energy_per_ligand > 1.5 * clang.energy_per_ligand);
        // Positive J-per-ligand scale (absolute values are smaller than
        // the paper's because our kernels are faster per pose; the
        // ordering across architectures and compilers is what is modeled).
        assert!(clang.energy_per_ligand > 0.01 && clang.energy_per_ligand < 500.0);
    }

    #[test]
    fn tables45_memory_shape() {
        let rows = study().tables45();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.llc_miss_multi >= r.llc_miss_single * 0.9 - 1e-12,
                "{}: multi-core misses should not improve",
                r.arch
            );
            assert!(r.ai_single.is_finite() && r.ai_multi.is_finite());
        }
        let by = |k: &str| rows.iter().find(|r| r.arch == k).unwrap();
        // A64FX's 8 MiB CMG LLC thrashes at least as hard as SPR's
        // 105 MiB fully-shared L3 under the map working set.
        assert!(by("a64fx").llc_miss_multi >= by("spr").llc_miss_multi);
        // SPR's large fully-shared L3 keeps the multi-core rate lowest.
        for k in ["genoa", "a64fx", "grace"] {
            assert!(by("spr").llc_miss_multi <= by(k).llc_miss_multi + 1e-9);
        }
    }
}
