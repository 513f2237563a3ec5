//! The cache tier under the tier-1 command: `mudock-serve`'s live grid
//! cache suite (fixed sequences and a proptest, all on tiny grids),
//! compiled here so `cargo test` at the root runs it.

#[path = "../crates/serve/tests/cache_lab.rs"]
mod cache_lab;
