//! Observability substrate for the mudock serve stack.
//!
//! Everything here is dependency-free (std only) and lock-cheap on the
//! hot path: the docking loop and the network reactor record into plain
//! atomics, and the expensive work (Prometheus text rendering, JSONL
//! encoding) happens only at scrape time.
//!
//! The crate has five parts:
//!
//! - [`metrics`]: [`Counter`], [`Gauge`] and a fixed-boundary
//!   log-bucketed [`Histogram`] whose `record` path is a handful of
//!   relaxed atomic RMWs — no locks, no allocation.
//! - [`registry`]: a name+label [`Registry`] that owns metric handles
//!   and renders the whole set in Prometheus text exposition format.
//! - [`jobtrace`]: [`JobTrace`], the per-job stage clock — monotonic
//!   nanosecond stamps at enqueue/dequeue/grid/dock/sink/terminal,
//!   snapshotted into a [`StageTimings`] breakdown for `GET /jobs/{id}`.
//! - [`trace`]: [`TraceWriter`], a bounded JSONL trace ring (one line
//!   per span close) for offline analysis.
//! - [`json`]: the workspace's one JSON codec — the
//!   [`Json`](json::Json) tree, its encoder and parser — behind every
//!   JSON line the stack writes or reads: span traces, checkpoints, result
//!   files, wire bodies.
//!
//! Time is the crate's own monotonic clock ([`now_ns`]): nanoseconds
//! since the first call in the process, never zero, so `0` doubles as
//! the "not yet stamped" sentinel in atomic timestamp slots.
//!
//! ```
//! use mudock_obs::{Registry, now_ns};
//!
//! let reg = Registry::new();
//! let reqs = reg.counter("mudock_requests_total", &[], "requests served");
//! let lat = reg.histogram("mudock_request_seconds", &[], "request latency");
//! let t0 = now_ns();
//! reqs.inc();
//! lat.record_ns(now_ns() - t0);
//! let text = reg.render_prometheus();
//! assert!(text.contains("# TYPE mudock_requests_total counter"));
//! assert!(text.contains("mudock_request_seconds_bucket"));
//! ```

pub mod jobtrace;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use jobtrace::{GridSource, JobTrace, StageTimings};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::Registry;
pub use trace::{SpanRecord, TraceWriter};

use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide monotonic clock origin.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the first call in this process.
///
/// Always `>= 1`, so atomic timestamp fields can use `0` as their
/// "never stamped" sentinel. Saturates (after ~584 years) rather than
/// wrapping.
pub fn now_ns() -> u64 {
    let ns = origin().elapsed().as_nanos();
    (ns.min(u64::MAX as u128) as u64).max(1)
}

/// Wall-clock nanoseconds since the Unix epoch (for trace lines that
/// must be correlatable across processes). Falls back to `0` if the
/// system clock reads before the epoch.
pub fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic_and_nonzero() {
        let a = now_ns();
        let b = now_ns();
        assert!(a >= 1);
        assert!(b >= a);
    }
}
