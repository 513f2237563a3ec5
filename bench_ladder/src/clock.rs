//! The two clocks a rep is timed with, and the `/proc` counters read
//! around a run.

use std::ffi::c_long;

/// `struct timespec` on 64-bit Linux (`time_t` and `long` are both
/// `c_long` there).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process, in ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; the call writes only
    // into it and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU counters, read before and after a run.
#[derive(Clone, Copy, Debug)]
pub struct HostCounters {
    /// Jiffies stolen by the hypervisor (`/proc/stat`, `cpu` line).
    steal: u64,
    /// All jiffies of the `cpu` line.
    total: u64,
    /// Microseconds some task waited for a CPU (`/proc/pressure/cpu`).
    psi_some_us: u64,
    wall: std::time::Instant,
}

impl HostCounters {
    pub fn read() -> HostCounters {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let psi = std::fs::read_to_string("/proc/pressure/cpu").unwrap_or_default();
        let psi_some_us = psi
            .lines()
            .find(|l| l.starts_with("some"))
            .and_then(|l| l.split("total=").nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        HostCounters {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
            psi_some_us,
            wall: std::time::Instant::now(),
        }
    }

    /// `(steal share of all CPU time, share of wall time some task
    /// waited for a CPU)` between `start` and `self`.
    pub fn since(&self, start: &HostCounters) -> (f64, f64) {
        let total = self.total.saturating_sub(start.total).max(1) as f64;
        let steal = self.steal.saturating_sub(start.steal) as f64 / total;
        let wall_us = self.wall.duration_since(start.wall).as_micros().max(1) as f64;
        let psi = self.psi_some_us.saturating_sub(start.psi_some_us) as f64 / wall_us;
        (steal, psi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > a);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
