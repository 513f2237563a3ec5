//! Records the compiler and the commit the benchmark was built from,
//! for the host record every output carries.

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string()).filter(|l| !l.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = first_line(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    // A checkout without git history (an exported tree) has no commit.
    let commit = first_line(Command::new("git").args(["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_LADDER_RUSTC={version}");
    println!("cargo:rustc-env=BENCH_LADDER_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
