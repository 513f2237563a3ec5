//! The client's response-framing limits under the tier-1 command:
//! `mudock-serve`'s lying-peer tests (a huge `Content-Length`, a header
//! line that never ends, conflicting lengths, a head cut off before
//! its blank line), compiled here so
//! `cargo test` at the root runs them.

#[path = "../crates/serve/tests/client_limits.rs"]
mod client_limits;
