//! The cluster suite under the tier-1 command: `mudock-cluster`'s
//! end-to-end tests (a two-member scatter bit-identical to one stream, a
//! member killed mid-campaign, receptor-affinity routing), compiled here
//! so `cargo test` at the root runs them.

#[path = "../crates/cluster/tests/cluster_e2e.rs"]
mod cluster_e2e;
