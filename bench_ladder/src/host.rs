//! The host record every output carries, so that two sets of runs are
//! only compared when they ran on like hardware with like threads.

use mudock_core::Backend;

use crate::inputs::nproc;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    pub nproc: usize,
    /// Docking threads the workload used.
    pub threads: usize,
    /// What `Backend::auto()` resolved to (`avx512`, `avx2`, …).
    pub simd_level: String,
    pub cpu_model: String,
    /// `L1d/L2/L3` of cpu0, as sysfs prints them.
    pub caches: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect(threads: usize) -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        let cache = |index: u32| {
            std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
            ))
            .map_or_else(|_| "?".to_string(), |s| s.trim().to_string())
        };
        Host {
            nproc: nproc(),
            threads,
            simd_level: Backend::auto().name(),
            cpu_model,
            caches: format!("{}/{}/{}", cache(0), cache(2), cache(3)),
            rustc: env!("BENCH_LADDER_RUSTC").to_string(),
            commit: env!("BENCH_LADDER_COMMIT").to_string(),
        }
    }
}
