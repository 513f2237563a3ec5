//! The wire parser under the tier-1 command: the generated-document
//! properties and the pinned error-offset table of `mudock-serve`,
//! compiled here so `cargo test` at the root runs them.

#[path = "../crates/serve/tests/wire_parse.rs"]
mod wire_parse;
