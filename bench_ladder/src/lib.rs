//! # bench_ladder — the repository's benchmark
//!
//! Four workloads, five end-to-end metrics and a per-layer ladder from
//! `simd` to `cluster`, all measured **from outside**: every number
//! comes from timing calls into the layers' public functions. The
//! workloads, the metric names and every size are constants in
//! [`spec`]; `BENCHMARK.json` at the repository root lists the same
//! names and a test keeps the two in step. See `README.md`.

pub mod clock;
pub mod compare;
pub mod control;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod rigs;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
