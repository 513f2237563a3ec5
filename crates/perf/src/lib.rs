//! # mudock-perf — host peaks and the roofline model
//!
//! The paper measures everything with LIKWID (Section VII-d): marker
//! regions around the docking kernels, FLOP and bandwidth counters, and
//! `likwid-bench` peaks anchoring the rooflines. This crate keeps the
//! model side of that:
//!
//! * [`Roofline`] — the Figure 5 model: bandwidth diagonal + compute
//!   ceilings, attainability and efficiency queries;
//! * [`peak`] — host microbenchmarks (`peakflops`, `load`) in the spirit
//!   of `likwid-bench`.
//!
//! Timing of the running system (the marker-region side) lives in
//! `mudock-obs`: one registry of counters and histograms, rendered on
//! `/metrics`.

pub mod peak;
pub mod roofline;

pub use roofline::{Ceiling, KernelPoint, Roofline};
