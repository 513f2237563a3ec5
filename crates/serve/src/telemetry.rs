//! Service-wide observability wiring: one [`Registry`], the per-stage
//! job histograms, the pool counter, and the optional JSONL trace. The
//! grid cache registers its own fetch counters in the same registry.
//!
//! A single [`ServeObs`] is built at service start and shared (`Arc`)
//! between the executors and the network frontend's event loop, so
//! `/metrics` and `/stats` read the same atomics the hot paths write.
//! All handles are pre-registered here — the job critical path never
//! touches the registry lock, only lock-free counters and histograms.

use std::path::Path;
use std::sync::Arc;

use mudock_obs::{Counter, GridSource, Histogram, JobTrace, Registry, SpanRecord, TraceWriter};

use crate::job::JobId;

/// The stage histogram family, `mudock_job_stage_seconds{stage=...}`.
const STAGE_METRIC: &str = "mudock_job_stage_seconds";
const STAGE_HELP: &str = "Per-job stage wall-clock (queue_wait, grid, dock, sink, total)";

/// Shared observability state for one [`ScreenService`](crate::ScreenService).
pub struct ServeObs {
    registry: Registry,
    stage_queue_wait: Arc<Histogram>,
    stage_grid: Arc<Histogram>,
    stage_dock: Arc<Histogram>,
    stage_sink: Arc<Histogram>,
    stage_total: Arc<Histogram>,
    pool_tasks: Arc<Counter>,
    trace: Option<TraceWriter>,
}

impl ServeObs {
    /// Register the service's metric families in `registry` and open
    /// the trace file at `trace`, if there is one: one JSONL line per
    /// closed job stage, the last [`TraceWriter::DEFAULT_CAPACITY`]
    /// lines kept across compactions.
    pub fn new(registry: Registry, trace: Option<&Path>) -> std::io::Result<ServeObs> {
        let stage = |name: &str| registry.histogram(STAGE_METRIC, &[("stage", name)], STAGE_HELP);
        let trace = match trace {
            Some(path) => Some(TraceWriter::create(path, TraceWriter::DEFAULT_CAPACITY)?),
            None => None,
        };
        Ok(ServeObs {
            stage_queue_wait: stage("queue_wait"),
            stage_grid: stage("grid"),
            stage_dock: stage("dock"),
            stage_sink: stage("sink"),
            stage_total: stage("total"),
            pool_tasks: registry.counter(
                "mudock_pool_tasks_total",
                &[],
                "Docking tasks executed by the worker pool",
            ),
            registry,
            trace,
        })
    }

    /// The registry behind `/metrics`; clone handles freely.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn span(&self, job: JobId, stage: &str, ns: u64, attrs: &[(&str, &str)]) {
        if let Some(t) = &self.trace {
            t.emit(&SpanRecord {
                job: Some(job),
                stage,
                dur_ns: ns,
                attrs,
            });
        }
    }

    /// A job left the queue: record its wait (if it was ever enqueued).
    pub fn job_dequeued(&self, job: JobId, trace: &JobTrace) {
        if let Some(ns) = trace.stamp_dequeued() {
            self.stage_queue_wait.record_ns(ns);
            self.span(job, "queue_wait", ns, &[]);
        }
    }

    /// A job's grid set arrived after `ns` of acquisition wall-clock.
    pub fn job_grid(&self, job: JobId, trace: &JobTrace, ns: u64, source: GridSource) {
        trace.record_grid(ns, source);
        self.stage_grid.record_ns(ns);
        self.span(job, "grid", ns, &[("source", source.name())]);
    }

    /// One chunk's docking fan-out finished.
    pub fn job_dock_chunk(&self, job: JobId, trace: &JobTrace, stats: &mudock_pool::PoolStats) {
        let ns = u64::try_from(stats.elapsed.as_nanos()).unwrap_or(u64::MAX);
        trace.add_dock(ns);
        self.stage_dock.record_ns(ns);
        self.pool_tasks.add(stats.executed as u64);
        self.span(job, "dock", ns, &[]);
    }

    /// One chunk's sink/checkpoint flush finished.
    pub fn job_sink_flush(&self, job: JobId, trace: &JobTrace, ns: u64) {
        trace.add_sink(ns);
        self.stage_sink.record_ns(ns);
        self.span(job, "sink", ns, &[]);
    }

    /// A job reached a terminal state: record queue-to-terminal time.
    pub fn job_finished(&self, job: JobId, trace: &JobTrace, state: &str) {
        if let Some(ns) = trace.stamp_finished() {
            self.stage_total.record_ns(ns);
            self.span(job, "total", ns, &[("state", state)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_feed_the_registry_histograms() {
        let obs = ServeObs::new(Registry::new(), None).unwrap();
        let trace = JobTrace::new();
        trace.stamp_enqueued();
        obs.job_dequeued(1, &trace);
        obs.job_grid(1, &trace, 2_000_000, GridSource::Built);
        obs.job_finished(1, &trace, "completed");
        let text = obs.registry().render_prometheus();
        assert!(text.contains("mudock_job_stage_seconds_count{stage=\"queue_wait\"} 1"));
        assert!(text.contains("mudock_job_stage_seconds_count{stage=\"grid\"} 1"));
        assert!(text.contains("mudock_job_stage_seconds_count{stage=\"total\"} 1"));
        // The job's own trace agrees with what the histograms saw.
        let snap = trace.snapshot();
        assert_eq!(snap.grid_ns, Some(2_000_000));
        assert_eq!(snap.grid_source, Some(GridSource::Built));
    }

    #[test]
    fn trace_file_records_stage_spans() {
        let path = std::env::temp_dir().join(format!(
            "mudock-serve-telemetry-{}.jsonl",
            std::process::id()
        ));
        let obs = ServeObs::new(Registry::new(), Some(&path)).unwrap();
        let trace = JobTrace::new();
        obs.job_grid(42, &trace, 1_000, GridSource::Reloaded);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"job\":42"));
        assert!(text.contains("\"stage\":\"grid\""));
        assert!(text.contains("\"source\":\"reloaded\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dock_chunks_accumulate_pool_counters() {
        let obs = ServeObs::new(Registry::new(), None).unwrap();
        let trace = JobTrace::new();
        let stats = mudock_pool::PoolStats {
            executed: 16,
            threads: 2,
            elapsed: std::time::Duration::from_micros(500),
            per_worker: vec![8, 8],
        };
        obs.job_dock_chunk(9, &trace, &stats);
        obs.job_dock_chunk(9, &trace, &stats);
        let text = obs.registry().render_prometheus();
        assert!(text.contains("mudock_pool_tasks_total 32"));
        assert_eq!(trace.snapshot().dock_chunks, 2);
        assert_eq!(trace.snapshot().dock_ns, Some(1_000_000));
    }
}
