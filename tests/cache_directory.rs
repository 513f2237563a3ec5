//! The cache tier under the tier-1 command: the live-vs-replay parity
//! suite of `mudock-serve` (fixed sequences and proptest, all on tiny
//! grids), compiled here so `cargo test` at the root runs it.

#[path = "../crates/serve/tests/cache_lab.rs"]
mod cache_lab;
