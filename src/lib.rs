//! # mudock — high-performance, portable molecular docking on CPUs
//!
//! Facade crate re-exporting the whole workspace: a Rust reproduction of
//! *"Towards High-Performance and Portable Molecular Docking on CPUs
//! through Vectorization"* (CLUSTER 2025).
//!
//! Start with [`mudock_core`] for the docking engine, [`mudock_simd`] for
//! the portable explicit-SIMD layer, and [`mudock_archsim`] for the
//! cross-architecture study. See the repository README for a tour and
//! `examples/quickstart.rs` for the 30-second version.

pub use mudock_archsim as archsim;
pub use mudock_cluster as cluster;
pub use mudock_core as core;
pub use mudock_ff as ff;
pub use mudock_grids as grids;
pub use mudock_mol as mol;
pub use mudock_molio as molio;
pub use mudock_pool as pool;
pub use mudock_serve as serve;
pub use mudock_simd as simd;
