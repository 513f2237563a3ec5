//! The warm-restart suite under the tier-1 command: `mudock-serve`'s
//! service-level restart tests (spill-tier reuse, queued jobs on a
//! restarted node, quarantined grid revisions, refused checkpoints),
//! compiled here so `cargo test` at the root runs them.

#[path = "../crates/serve/tests/warm_restart.rs"]
mod warm_restart;
