//! The network end-to-end suite under the tier-1 command:
//! `mudock-serve`'s loopback tests (a served ranking bit-identical to
//! the in-process one, cancellation over the socket, a refused
//! lattice, concurrent submissions), compiled here so `cargo test` at
//! the root runs them.

#[path = "../crates/serve/tests/net_e2e.rs"]
mod net_e2e;
