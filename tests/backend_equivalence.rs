//! The SIMD backend suite under the tier-1 command: `mudock-simd`'s
//! proptests holding every level to the scalar reference, operation by
//! operation, compiled here so `cargo test` at the root runs them.

#[path = "../crates/simd/tests/backend_equivalence.rs"]
mod backend_equivalence;
