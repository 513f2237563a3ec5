//! Codegen check for the portable arm: "it vectorizes" as a number.
//!
//! `core::autovec`'s three drivers are plain safe Rust that the compiler
//! is *expected* to vectorize; nothing in the type system says it did.
//! This binary disassembles its own executable
//! (`objdump -d --no-show-raw-insn`), finds the three `#[inline(never)]`
//! entry points by symbol, counts packed (`…ps`) against scalar (`…ss`)
//! floating-point arithmetic (`add sub mul div min max sqrt` and the
//! FMA forms) inside each, prints the table, and exits non-zero when
//!
//! * `inter` or `intra` has fewer than 10 packed operations per scalar
//!   one,
//! * `inter` or `intra` contains a call to `panic_bounds_check` (they
//!   have none: one in a lane loop is a second loop exit, and that loop
//!   stays scalar or pays a compare-and-branch per load), or
//! * a helper of the module was left out of line (a `call` in a lane loop
//!   keeps it scalar, too).
//!
//! `transform` is reported, not gated: its scalar operations are the
//! per-torsion quaternion set-up, and its bounds checks are the atom and
//! gene lookups of that set-up (`ConformSoA::pos`, `Genotype::torsion`),
//! outside every lane loop.
//!
//! Without `objdump` on `PATH` it prints `skipped` and exits 0.
//!
//! Reference rows, default `x86-64` build (SSE2) on the AVX-512 host the
//! ladder runs on:
//!
//! ```text
//! kernel                 packed  scalar  bounds checks
//! this module   intra       199       4              0
//!               inter       122       9              0
//!               transform   217      91             11
//! PR 17's lane-array `Simd` backend (never landed), intra kernel,
//! `-C target-cpu=native`:
//!               intra       404     676            140
//! ```
//!
//! The lane-array prototype wrapped `[f32; W]` in a `Simd` impl with a
//! loop per operation; each loop is fully unrolled before the vectorizer
//! runs, and SLP then packs a minority of the straight-line code. The
//! drivers checked here put the whole per-lane computation inside one
//! fixed-trip loop, which is the loop vectorizer's case.

use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, ExitCode};

use mudock_core::autovec::{apply_pose_autovec, inter_energy_autovec, intra_energy_autovec};
use mudock_core::scoring::PairsSoA;
use mudock_core::transform::TorsionPlan;
use mudock_core::Genotype;
use mudock_grids::GridSet;
use mudock_mol::{AtomStatics, ConformSoA};

/// Fewest packed operations per scalar one in a gated kernel.
const MIN_PACKED_PER_SCALAR: usize = 10;

/// The path of the module in a legacy-mangled symbol.
const MODULE: &str = "11mudock_core7autovec";

/// (row name, entry point, gated or only reported).
const KERNELS: [(&str, &str, bool); 3] = [
    ("transform", "apply_pose_autovec", false),
    ("inter", "inter_energy_autovec", true),
    ("intra", "intra_energy_autovec", true),
];

#[derive(Default)]
struct Counts {
    found: bool,
    packed: usize,
    scalar: usize,
    /// Indirect calls by the address of the GOT slot they go through,
    /// direct ones by their operand text (which names the target).
    calls: Vec<Result<u64, String>>,
}

/// `Some(true)` for packed single-precision arithmetic, `Some(false)` for
/// scalar, `None` for anything else (moves, shuffles, compares, integer).
fn fp_arith(mnemonic: &str) -> Option<bool> {
    let m = mnemonic.strip_prefix('v').unwrap_or(mnemonic);
    let (op, packed) = match (m.strip_suffix("ps"), m.strip_suffix("ss")) {
        (Some(op), _) => (op, true),
        (_, Some(op)) => (op, false),
        _ => return None,
    };
    let fma = ["fmadd", "fmsub", "fnmadd", "fnmsub"]
        .iter()
        .any(|f| op.strip_prefix(f).is_some_and(|n| n.len() == 3));
    (fma || ["add", "sub", "mul", "div", "min", "max", "sqrt"].contains(&op)).then_some(packed)
}

/// `objdump <flag> <exe>`'s output; `Ok(None)` when there is no objdump.
fn objdump(flags: &[&str], exe: &Path) -> Result<Option<String>, String> {
    match Command::new("objdump").args(flags).arg(exe).output() {
        Ok(out) if out.status.success() => Ok(Some(String::from_utf8_lossy(&out.stdout).into())),
        Ok(out) => Err(format!(
            "objdump failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("objdump: {e}")),
    }
}

fn hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

fn check(exe: &Path) -> Result<Option<bool>, String> {
    let (Some(code), Some(relocs)) = (
        objdump(&["-d", "--no-show-raw-insn"], exe)?,
        objdump(&["-R"], exe)?,
    ) else {
        return Ok(None);
    };

    // rustc calls through the GOT (`call *slot(%rip)`), where objdump has
    // no name to print: slot → target from the relocations
    // (`<slot> R_X86_64_RELATIVE *ABS*+0x<target>`), target → name from
    // the disassembly's own function headers.
    let slots: HashMap<u64, u64> = relocs
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (slot, _type, value) = (f.next()?, f.next()?, f.next()?);
            Some((hex(slot)?, hex(value.strip_prefix("*ABS*+")?)?))
        })
        .collect();
    let mut names: HashMap<u64, &str> = HashMap::new();

    let mut counts = [(); 3].map(|()| Counts::default());
    let mut strays = Vec::new();
    let mut current = None;
    for line in code.lines() {
        // `0000000000034470 <symbol>:` opens a function.
        if let Some((addr, symbol)) = line.strip_suffix(">:").and_then(|l| l.split_once(" <")) {
            names.extend(hex(addr).map(|a| (a, symbol)));
            current = None;
            if let Some((_, item)) = symbol.split_once(MODULE) {
                // `<len><name>` then the hash (`17h…E`) or, in v0
                // mangling, nothing: anything longer is nested in it.
                let entry = KERNELS.iter().position(|(_, f, _)| {
                    item.strip_prefix(&format!("{}{f}", f.len()))
                        .is_some_and(|rest| rest.is_empty() || rest.starts_with("17h"))
                });
                match entry {
                    Some(k) => {
                        counts[k].found = true;
                        current = Some(k);
                    }
                    None => strays.push(symbol),
                }
            }
            continue;
        }
        let Some(k) = current else { continue };
        // `   34481:\tcmovae %r10,%r11`
        let Some(insn) = line.split('\t').nth(1) else {
            continue;
        };
        let mnemonic = insn.split_whitespace().next().unwrap_or("");
        match fp_arith(mnemonic) {
            Some(true) => counts[k].packed += 1,
            Some(false) => counts[k].scalar += 1,
            None => {}
        }
        if mnemonic.starts_with("call") {
            // `call 3c2f0 <name>` or `call *0x55a55(%rip)  # 8acc0 <…>`.
            let slot = insn
                .split_once("# ")
                .and_then(|(_, c)| hex(c.split(' ').next()?));
            counts[k].calls.push(slot.ok_or_else(|| insn.to_string()));
        }
    }

    println!(
        "{:10} {:>7} {:>7} {:>14}",
        "kernel", "packed", "scalar", "bounds checks"
    );
    let mut ok = strays.is_empty();
    for ((name, symbol, gated), c) in KERNELS.iter().zip(&counts) {
        if !c.found {
            println!("{name:10} symbol `{symbol}` not found");
            ok = false;
            continue;
        }
        let bounds_checks = c
            .calls
            .iter()
            .filter_map(|call| match call {
                Ok(slot) => names.get(slots.get(slot)?).copied(),
                Err(direct) => Some(direct.as_str()),
            })
            .filter(|target| target.contains("panic_bounds_check"))
            .count();
        let vectorized = c.packed >= MIN_PACKED_PER_SCALAR * c.scalar && c.packed > 0;
        let verdict = match (*gated, bounds_checks > 0, vectorized) {
            (true, true, _) => "FAIL: bounds check left in a driver",
            (true, _, false) => "FAIL: fewer than 10 packed per scalar",
            _ => "",
        };
        ok &= verdict.is_empty();
        println!(
            "{name:10} {:>7} {:>7} {bounds_checks:>14}  {verdict}",
            c.packed, c.scalar
        );
    }
    for s in &strays {
        println!("FAIL: out-of-line helper {s}");
    }
    Ok(Some(ok))
}

fn main() -> ExitCode {
    // Link the drivers into this executable.
    type Transform = fn(&ConformSoA, &[TorsionPlan], &Genotype, &mut ConformSoA);
    type Inter = fn(&GridSet, &ConformSoA, &AtomStatics) -> f32;
    type Intra = fn(&ConformSoA, &PairsSoA) -> f32;
    std::hint::black_box((
        apply_pose_autovec as Transform,
        inter_energy_autovec as Inter,
        intra_energy_autovec as Intra,
    ));

    let exe = std::env::current_exe().expect("path of this executable");
    match check(&exe) {
        Ok(Some(true)) => ExitCode::SUCCESS,
        Ok(Some(false)) => ExitCode::FAILURE,
        Ok(None) => {
            println!("codegen_autovec: skipped (objdump is not on PATH)");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("codegen_autovec: {why}");
            ExitCode::FAILURE
        }
    }
}
