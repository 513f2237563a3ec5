//! The service suite under the tier-1 command: `mudock-serve`'s
//! end-to-end service tests (a shared grid cache, per-level grids,
//! early stops, JSONL streaming, checkpoint resume and pruning, queue
//! backpressure), compiled here so `cargo test` at the root runs them.

#[path = "../crates/serve/tests/service.rs"]
mod service;
