//! # mudock-archsim — the cross-architecture model
//!
//! The paper evaluates five CPUs (SPR, Genoa, Grace, A64FX, Graviton 4)
//! and seven compilers. This reproduction has one x86-64 host, so every
//! cross-architecture figure is regenerated through a **calibrated
//! analytical machine model** driven by *real* kernel traces (README,
//! "Reproducing the paper"):
//!
//! * [`arch`] — the five CPUs (Tables I & II + cache/memory parameters);
//! * [`compiler`] — the seven toolchains reduced to their decisive
//!   codegen properties (emitted width, vector-math availability, FEXPA);
//! * [`workload`] — short *real* docking runs on the host produce atom/
//!   pair counts and grid-access traces with realistic GA locality;
//! * [`cache`] — trace-driven set-associative LRU hierarchy simulator
//!   (private levels, CCD/CMG-scoped or fully-shared LLCs);
//! * [`pipeline`] — throughput/latency/stall estimation per
//!   (architecture, compiler);
//! * [`portability`] — the Pennycook harmonic-mean metric of Figure 6;
//! * [`roofline`] — the Figure 5 model (bandwidth diagonal + compute
//!   ceilings), and [`peak`], `likwid-bench`-style measurements of
//!   *this* host to anchor it;
//! * [`scenario::Study`] — computes every table and figure series.
//!
//! The model's purpose is the paper's *shape* — who wins, by what factor,
//! and through which mechanism — not absolute seconds; the binaries
//! listed under "Reproducing the paper" in the README print the modeled
//! value of every table and figure for comparison with the paper's.

pub mod arch;
pub mod cache;
pub mod compiler;
pub mod opmix;
pub mod peak;
pub mod pipeline;
pub mod portability;
pub mod roofline;
pub mod scenario;
pub mod workload;

pub use arch::{all_archs, arch_by_key, ArchConfig, CacheLevel, Isa};
pub use cache::{Cache, CacheOutcome, Hierarchy};
pub use compiler::{all_compilers, codegen, compiler_by_key, Codegen, CompilerProfile};
pub use opmix::OpMix;
pub use pipeline::{estimate, RunEstimate};
pub use portability::PortabilityMatrix;
pub use roofline::{Ceiling, KernelPoint, Roofline};
pub use scenario::Study;
pub use workload::{mediate_workload, reduced_workload, Workload};
