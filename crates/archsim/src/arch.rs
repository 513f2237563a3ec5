//! Architecture configurations — the five CPUs of the paper's Tables I
//! and II, plus the microarchitectural parameters (cache geometry, memory
//! latency/bandwidth) the analytical model needs, taken from the paper's
//! own references (chipsandcheese, vendor tuning guides, Fugaku docs).
//!
//! These stand in for the physical testbeds we cannot access. The
//! substitution holds because the paper's cross-architecture results are
//! ratios explained by a few published parameters (vector width, pipes,
//! ROB size, cache capacity, bandwidth), and the model replays real kernel
//! traces from this host against exactly those parameters.

/// Instruction-set family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    X86,
    Arm,
}

/// One cache level. Levels are ordered nearest-first in
/// [`ArchConfig::caches`]; the last entry is the LLC (on A64FX that is the
/// CMG-shared L2 — there is no L3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheLevel {
    pub name: &'static str,
    pub size_kib: usize,
    pub assoc: usize,
    pub line_bytes: usize,
    /// Cores sharing one instance of this level.
    pub shared_by: usize,
    /// Load-to-use latency in cycles.
    pub latency_cycles: f32,
}

/// Full description of one target CPU.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchConfig {
    /// Short key used on command lines and in tables ("spr", "genoa", …).
    pub key: &'static str,
    /// Display name.
    pub name: &'static str,
    pub vendor: &'static str,
    pub codename: &'static str,
    pub isa: Isa,
    pub vec_ext: &'static str,

    // ---- Table I ----
    pub max_clock_ghz: f32,
    /// Clock sustained during the paper's experiments (Section VII-a).
    pub sustained_ghz: f32,
    /// Cores per socket.
    pub cores_per_socket: usize,
    pub threads_per_core: usize,
    pub sockets: usize,
    /// Socket TDP in watts.
    pub tdp_w: f32,
    /// Cost per node-hour in USD.
    pub cost_per_node_hour: f32,
    pub year: u32,

    // ---- Table II + vector datapath ----
    /// Architectural vector register width (bits).
    pub vec_bits: usize,
    /// Execution datapath width (bits) — Zen 4 splits 512-bit ops into two
    /// 256-bit µops, so its datapath is 256.
    pub vec_exec_bits: usize,
    /// Vector pipelines.
    pub vec_pipes: usize,
    pub has_fma: bool,
    /// A64FX's approximate-exponential instruction.
    pub has_fexpa: bool,
    pub scalar_regs: usize,
    pub vector_regs: usize,
    pub rob: usize,

    // ---- memory system ----
    pub caches: Vec<CacheLevel>,
    /// DRAM load latency (ns).
    pub mem_lat_ns: f32,
    /// Per-socket memory bandwidth (GB/s).
    pub mem_bw_gbs: f32,

    pub reference: &'static str,
}

impl ArchConfig {
    /// Total usable cores on the node.
    pub fn cores(&self) -> usize {
        self.cores_per_socket * self.sockets
    }

    /// Total hardware threads on the node.
    pub fn threads(&self) -> usize {
        self.cores() * self.threads_per_core
    }

    /// Node TDP (all sockets).
    pub fn node_tdp_w(&self) -> f32 {
        self.tdp_w * self.sockets as f32
    }

    /// Node memory bandwidth (all sockets).
    pub fn node_bw_gbs(&self) -> f32 {
        self.mem_bw_gbs * self.sockets as f32
    }

    /// Last-level cache description.
    pub fn llc(&self) -> &CacheLevel {
        self.caches.last().expect("every arch has caches")
    }

    /// DRAM latency in core cycles.
    pub fn mem_lat_cycles(&self) -> f32 {
        self.mem_lat_ns * self.sustained_ghz
    }

    /// f32 lanes of the execution datapath.
    pub fn exec_lanes(&self) -> usize {
        self.vec_exec_bits / 32
    }

    /// Single-core peak GFLOP/s (vector FMA).
    pub fn core_peak_gflops(&self) -> f64 {
        let fma = if self.has_fma { 2.0 } else { 1.0 };
        self.sustained_ghz as f64 * self.vec_pipes as f64 * self.exec_lanes() as f64 * fma
    }
}

/// Intel Sapphire Rapids (Xeon Platinum 8470, as measured in the paper).
pub fn spr() -> ArchConfig {
    ArchConfig {
        key: "spr",
        name: "SPR",
        vendor: "Intel",
        codename: "Golden Cove",
        isa: Isa::X86,
        vec_ext: "AVX512",
        max_clock_ghz: 4.8,
        sustained_ghz: 2.5,
        cores_per_socket: 52,
        threads_per_core: 2,
        sockets: 2,
        tdp_w: 350.0,
        cost_per_node_hour: 3.82,
        year: 2023,
        vec_bits: 512,
        vec_exec_bits: 512,
        vec_pipes: 2,
        has_fma: true,
        has_fexpa: false,
        scalar_regs: 288,
        vector_regs: 220,
        rob: 512,
        caches: vec![
            CacheLevel {
                name: "L1d",
                size_kib: 48,
                assoc: 12,
                line_bytes: 64,
                shared_by: 1,
                latency_cycles: 5.0,
            },
            CacheLevel {
                name: "L2",
                size_kib: 2048,
                assoc: 16,
                line_bytes: 64,
                shared_by: 1,
                latency_cycles: 16.0,
            },
            CacheLevel {
                name: "L3",
                size_kib: 105 * 1024,
                assoc: 15,
                line_bytes: 64,
                shared_by: 52,
                latency_cycles: 55.0,
            },
        ],
        mem_lat_ns: 110.0,
        mem_bw_gbs: 307.0,
        reference: "[55], [56], [63], [64]",
    }
}

/// AMD Genoa-X (EPYC 9684X, as measured in the paper).
pub fn genoa() -> ArchConfig {
    ArchConfig {
        key: "genoa",
        name: "Genoa",
        vendor: "AMD",
        codename: "Zen 4",
        isa: Isa::X86,
        vec_ext: "AVX512",
        max_clock_ghz: 3.7,
        sustained_ghz: 2.7,
        cores_per_socket: 96,
        threads_per_core: 2,
        sockets: 1,
        tdp_w: 400.0,
        cost_per_node_hour: 4.39,
        year: 2022,
        vec_bits: 512,
        vec_exec_bits: 256,
        vec_pipes: 2,
        has_fma: true,
        has_fexpa: false,
        scalar_regs: 224,
        vector_regs: 192,
        rob: 320,
        caches: vec![
            CacheLevel {
                name: "L1d",
                size_kib: 32,
                assoc: 8,
                line_bytes: 64,
                shared_by: 1,
                latency_cycles: 5.0,
            },
            CacheLevel {
                name: "L2",
                size_kib: 1024,
                assoc: 8,
                line_bytes: 64,
                shared_by: 1,
                latency_cycles: 14.0,
            },
            // 9684X: 3D V-Cache, 96 MiB per 8-core CCD; LLC is per-CCD, so
            // cross-CCD sharing of the grid maps is impossible (the paper's
            // Section VIII-b mechanism for the multi-core miss spike).
            CacheLevel {
                name: "L3",
                size_kib: 96 * 1024,
                assoc: 16,
                line_bytes: 64,
                shared_by: 8,
                latency_cycles: 50.0,
            },
        ],
        mem_lat_ns: 105.0,
        mem_bw_gbs: 460.0,
        reference: "[55], [57], [65]",
    }
}

/// NVIDIA Grace (Neoverse V2, 72 cores, as in GH200).
pub fn grace() -> ArchConfig {
    ArchConfig {
        key: "grace",
        name: "Grace",
        vendor: "NVIDIA",
        codename: "Neoverse V2",
        isa: Isa::Arm,
        vec_ext: "SVE2",
        max_clock_ghz: 3.4,
        sustained_ghz: 2.5,
        cores_per_socket: 72,
        threads_per_core: 1,
        sockets: 1,
        tdp_w: 250.0,
        cost_per_node_hour: 11.17,
        year: 2022,
        vec_bits: 128,
        vec_exec_bits: 128,
        vec_pipes: 4,
        has_fma: true,
        has_fexpa: false,
        scalar_regs: 213,
        vector_regs: 188,
        rob: 320,
        caches: vec![
            CacheLevel {
                name: "L1d",
                size_kib: 64,
                assoc: 4,
                line_bytes: 64,
                shared_by: 1,
                latency_cycles: 4.0,
            },
            CacheLevel {
                name: "L2",
                size_kib: 1024,
                assoc: 8,
                line_bytes: 64,
                shared_by: 1,
                latency_cycles: 13.0,
            },
            CacheLevel {
                name: "L3",
                size_kib: 114 * 1024,
                assoc: 12,
                line_bytes: 64,
                shared_by: 72,
                latency_cycles: 60.0,
            },
        ],
        mem_lat_ns: 130.0,
        mem_bw_gbs: 500.0,
        reference: "[30], [58], [61], [62]",
    }
}

/// Fujitsu A64FX (FX700, 48 cores at 2.0 GHz as measured).
pub fn a64fx() -> ArchConfig {
    ArchConfig {
        key: "a64fx",
        name: "A64FX",
        vendor: "Fujitsu",
        codename: "ARM Custom",
        isa: Isa::Arm,
        vec_ext: "SVE2",
        max_clock_ghz: 2.2,
        sustained_ghz: 2.0,
        cores_per_socket: 48,
        threads_per_core: 1,
        sockets: 1,
        tdp_w: 150.0,
        cost_per_node_hour: 0.64,
        year: 2019,
        vec_bits: 512,
        vec_exec_bits: 512,
        vec_pipes: 2,
        has_fma: true,
        has_fexpa: true,
        scalar_regs: 96,
        vector_regs: 128,
        rob: 128,
        caches: vec![
            CacheLevel {
                name: "L1d",
                size_kib: 64,
                assoc: 4,
                line_bytes: 256,
                shared_by: 1,
                latency_cycles: 5.0,
            },
            // No private L2 and no L3: the 8 MiB CMG L2 is the LLC,
            // shared by the 12 cores of a core-memory-group.
            CacheLevel {
                name: "L2(CMG)",
                size_kib: 8 * 1024,
                assoc: 16,
                line_bytes: 256,
                shared_by: 12,
                latency_cycles: 47.0,
            },
        ],
        mem_lat_ns: 130.0,
        mem_bw_gbs: 1024.0,
        reference: "[59], [60], [73]",
    }
}

/// AWS Graviton 4 (Neoverse V2, dual socket, 192 cores).
pub fn graviton4() -> ArchConfig {
    ArchConfig {
        key: "graviton",
        name: "Graviton",
        vendor: "AWS",
        codename: "Neoverse V2",
        isa: Isa::Arm,
        vec_ext: "SVE2",
        max_clock_ghz: 2.8,
        sustained_ghz: 2.0,
        cores_per_socket: 96,
        threads_per_core: 1,
        sockets: 2,
        tdp_w: 130.0,
        cost_per_node_hour: 3.40,
        year: 2023,
        vec_bits: 128,
        vec_exec_bits: 128,
        vec_pipes: 4,
        has_fma: true,
        has_fexpa: false,
        scalar_regs: 213,
        vector_regs: 188,
        rob: 320,
        caches: vec![
            CacheLevel {
                name: "L1d",
                size_kib: 64,
                assoc: 4,
                line_bytes: 64,
                shared_by: 1,
                latency_cycles: 4.0,
            },
            CacheLevel {
                name: "L2",
                size_kib: 2048,
                assoc: 8,
                line_bytes: 64,
                shared_by: 1,
                latency_cycles: 13.0,
            },
            CacheLevel {
                name: "L3",
                size_kib: 36 * 1024,
                assoc: 12,
                line_bytes: 64,
                shared_by: 96,
                latency_cycles: 60.0,
            },
        ],
        mem_lat_ns: 120.0,
        mem_bw_gbs: 537.0,
        reference: "[55], [58]",
    }
}

/// The five architectures in the paper's presentation order
/// (Grace, Genoa, SPR, A64FX, Graviton).
pub fn all_archs() -> Vec<ArchConfig> {
    vec![grace(), genoa(), spr(), a64fx(), graviton4()]
}

/// Look up an architecture by key.
pub fn arch_by_key(key: &str) -> Option<ArchConfig> {
    all_archs().into_iter().find(|a| a.key == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_architectures() {
        let archs = all_archs();
        assert_eq!(archs.len(), 5);
        let keys: Vec<&str> = archs.iter().map(|a| a.key).collect();
        assert_eq!(keys, vec!["grace", "genoa", "spr", "a64fx", "graviton"]);
    }

    #[test]
    fn lookup_by_key() {
        assert_eq!(arch_by_key("spr").unwrap().vendor, "Intel");
        assert!(arch_by_key("m1").is_none());
    }

    #[test]
    fn table_one_invariants() {
        // Spot-check against the paper's Table I.
        let spr = spr();
        assert_eq!(spr.max_clock_ghz, 4.8);
        assert_eq!(spr.cost_per_node_hour, 3.82);
        let a = a64fx();
        assert_eq!(a.cost_per_node_hour, 0.64);
        assert_eq!(a.year, 2019);
        assert!(a.has_fexpa);
        let g = graviton4();
        assert_eq!(g.cores(), 192);
        assert_eq!(g.threads(), 192);
    }

    #[test]
    fn table_two_invariants() {
        // Table II: ROB sizes and vector resources.
        assert_eq!(spr().rob, 512);
        assert_eq!(genoa().rob, 320);
        assert_eq!(a64fx().rob, 128);
        assert_eq!(grace().rob, 320);
        // Zen 4 decomposes 512-bit ops: datapath < register width.
        let g = genoa();
        assert!(g.vec_exec_bits < g.vec_bits);
        // Neoverse V2 compensates narrow vectors with more pipes.
        assert_eq!(grace().vec_pipes, 4);
    }

    #[test]
    fn a64fx_l2_is_llc() {
        let a = a64fx();
        assert_eq!(a.caches.len(), 2);
        assert_eq!(a.llc().name, "L2(CMG)");
        assert_eq!(a.llc().shared_by, 12);
        assert_eq!(a.llc().line_bytes, 256);
    }

    #[test]
    fn peak_flops_ordering() {
        // x86 nodes out-muscle ARM nodes on per-core vector peak except
        // A64FX, whose 2×512-bit pipes match SPR width at lower clock.
        let spr = spr().core_peak_gflops();
        let grace = grace().core_peak_gflops();
        assert!(spr > grace);
        // Per-core: 4×128 at Grace == 512-bit × 1 — SPR has 2 such pipes.
        assert!((spr / grace - 2.0 * 2.5 / 2.5).abs() < 0.01);
    }

    #[test]
    fn memory_latency_in_cycles() {
        let a = a64fx();
        assert!((a.mem_lat_cycles() - 260.0).abs() < 1.0);
    }
}
