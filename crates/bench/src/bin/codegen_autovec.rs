//! Codegen check for the lane loops: "it vectorizes — at 512 bits, with
//! FMA" as numbers.
//!
//! `core::autovec`'s three drivers and `grids::build`'s one-lane map
//! build are plain safe Rust that the compiler is *expected* to vectorize,
//! once for the build's baseline ISA and once inside each
//! `#[target_feature]` frame `Simd::vectorize` provides; nothing in the
//! type system says it did. This binary disassembles its own executable
//! (`objdump -d --no-show-raw-insn`), finds the four `#[inline(never)]`
//! entry points (`apply_pose_simd`, the transform every backend shares,
//! the two `*_autovec_at` scoring drivers and `build_lanes_at`) by symbol
//! — the baseline body is inlined there — and their frames by call edge
//! (every frame is named `<Level as Simd>::vectorize::inner`, whichever
//! closure it was instantiated for, so a frame belongs to the driver that
//! calls it). Per
//! body it counts packed (`…ps`) against scalar (`…ss`) floating-point
//! arithmetic (`add sub mul div min max sqrt` and the FMA forms), the
//! register width of the packed operations and the packed FMAs, prints the
//! table, and exits non-zero when
//!
//! * a body of `inter` or `intra` has fewer than 10 packed operations per
//!   scalar one,
//! * a body of `inter` or `intra` calls `panic_bounds_check` (they have
//!   none: one in a lane loop is a second loop exit, and that loop stays
//!   scalar or pays a compare-and-branch per load),
//! * the AVX-512 frame of `inter` or `intra` has under 90 % of its packed
//!   operations on `zmm` registers, or no packed FMA,
//! * on x86-64, a driver has no AVX2 or no AVX-512 frame,
//! * any body calls a helper of the module left out of line (a `call` in
//!   a lane loop keeps it scalar, too), or
//! * any body calls libm's `fmaf` / `fma`: the fused one-lane token
//!   instantiated outside an FMA frame — safe, and the one way this
//!   design gets ten times slower without a test noticing.
//!
//! `build` runs the *unfused* token in every frame, so its maps have the
//! bits of the one-lane `Scalar` build whatever the frame. Its AVX2 and
//! AVX-512 frames are held to the same 10 : 1 ratio, no bounds check and
//! no out-of-line helper — of `grids::build`, or of the per-lane math in
//! `ff::vterms` and `simd::math` — and every frame of it to *zero* packed
//! FMA: a fused operation there would mean the maps' bits moved. Its
//! baseline body is reported, not gated: without SSE4.1 the `exp`s'
//! round-to-nearest-even is an out-of-line `rintf` call per lane, so
//! that part of the loop stays scalar there.
//!
//! `transform` is reported, not gated: its scalar operations are the
//! per-torsion quaternion set-up, and its bounds checks are the atom and
//! gene lookups of that set-up (`ConformSoA::pos`, `Genotype::torsion`),
//! outside every lane loop.
//!
//! The ratio counts *instructions*: a `zmm` operation does the work of
//! four `xmm` ones, so a frame's packed count falls with its width while
//! the per-call scalar set-up (`1/spacing`, the clamp bounds, the final
//! sum: 9 in `inter`) stays — `inter`'s AVX-512 frame sits nearest the
//! bound.
//!
//! Without `objdump` on `PATH` it prints `skipped` and exits 0.
//!
//! Reference rows, default `x86-64` build on the AVX-512 host the ladder
//! runs on:
//!
//! ```text
//! kernel     frame      packed  scalar    fma  zmm%  ymm%  xmm%  bounds checks
//! transform  baseline      217      91      0     0     0   100             11
//! transform  avx2           55     111     42     0    98     2             11
//! transform  avx512         28     111     21    96     0     4             11
//! inter      baseline      125       9      0     0     0   100              0
//! inter      avx2          183       9     56     0    99     1              0
//! inter      avx512         97       9     28    93     0     7              0
//! intra      baseline      199       4      0     0     0   100              0
//! intra      avx2          252       1    124     0    97     3              0
//! intra      avx512        131       1     62    95     0     5              0
//! build      baseline      260       0      0     0     0   100              0
//! build      avx2          200       0      0     0   100     0              0
//! build      avx512        101       0      0   100     0     0              0
//! PR 17's lane-array `Simd` backend (never landed), intra kernel,
//! `-C target-cpu=native`: 404 packed, 676 scalar, 140 bounds checks.
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

use mudock_core::autovec::{apply_pose_simd, inter_energy_autovec_at, intra_energy_autovec_at};
use mudock_core::scoring::PairsSoA;
use mudock_core::transform::TorsionPlan;
use mudock_core::Genotype;
use mudock_grids::{GridBuilder, GridSet};
use mudock_mol::{AtomStatics, ConformSoA};
use mudock_simd::SimdLevel;

/// Fewest packed operations per scalar one in a gated body.
const MIN_PACKED_PER_SCALAR: usize = 10;

/// Least share of the AVX-512 frame's packed operations on `zmm`, in %.
const MIN_ZMM_PERCENT: f64 = 90.0;

/// The path of `core::autovec` in a legacy-mangled symbol.
const AUTOVEC: &str = "11mudock_core7autovec";

/// The path of `grids::build`.
const GRID_BUILD: &str = "12mudock_grids5build";

/// What every `#[target_feature]` frame is called, whatever closure it
/// was instantiated for (legacy mangling hides that type): a frame belongs
/// to the driver that calls it.
const FRAME_FN: &str = "9vectorize5inner";

/// What a row's bodies are held to (module docs).
#[derive(Clone, Copy, PartialEq)]
enum Gate {
    /// Reported only.
    None,
    /// The fused token: every body 10 : 1 and free of bounds checks; the
    /// AVX-512 frame on `zmm`, with packed FMA.
    Fused,
    /// The unfused token: the wide frames 10 : 1 and free of bounds
    /// checks; no body with a packed FMA.
    Unfused,
}

/// One row group: a lane-loop driver.
struct Kernel {
    name: &'static str,
    /// Its module's path in a legacy-mangled symbol.
    module: &'static str,
    /// The entry point holding the baseline body.
    symbol: &'static str,
    /// Modules whose functions must all be inlined into its bodies.
    inlined: &'static [&'static str],
    gate: Gate,
}

const KERNELS: [Kernel; 4] = [
    Kernel {
        name: "transform",
        module: AUTOVEC,
        symbol: "apply_pose_simd",
        inlined: &[AUTOVEC],
        gate: Gate::None,
    },
    Kernel {
        name: "inter",
        module: AUTOVEC,
        symbol: "inter_energy_autovec_at",
        inlined: &[AUTOVEC],
        gate: Gate::Fused,
    },
    Kernel {
        name: "intra",
        module: AUTOVEC,
        symbol: "intra_energy_autovec_at",
        inlined: &[AUTOVEC],
        gate: Gate::Fused,
    },
    Kernel {
        name: "build",
        module: GRID_BUILD,
        symbol: "build_lanes_at",
        // With the per-lane math: `ff::vterms`, `simd::math`.
        inlined: &[GRID_BUILD, "9mudock_ff6vterms", "11mudock_simd4math"],
        gate: Gate::Unfused,
    },
];

/// One function of the disassembly.
#[derive(Default)]
struct Body<'a> {
    symbol: &'a str,
    /// Packed FP arithmetic by register width: `zmm`, `ymm`, `xmm`.
    packed: [usize; 3],
    packed_fma: usize,
    scalar: usize,
    /// Entry addresses of the functions it calls, tail-jumps to or takes
    /// the address of, once per instruction that names one.
    callees: Vec<u64>,
    /// Names of the dynamic symbols it refers to (`fmaf@GLIBC_2.2.5`).
    imports: Vec<&'a str>,
}

impl Body<'_> {
    fn packed(&self) -> usize {
        self.packed.iter().sum()
    }

    /// The level whose `#[target_feature]` frame this function is.
    fn frame(&self) -> Option<SimdLevel> {
        let (of, _) = self.symbol.split_once(FRAME_FN)?;
        SimdLevel::ALL
            .into_iter()
            .find(|l| of.contains(&format!("..{l}..")))
    }
}

/// `Some(true)` for packed single-precision arithmetic, `Some(false)` for
/// scalar, `None` for anything else (moves, shuffles, compares, integer);
/// and whether it is a fused multiply-add.
fn fp_arith(mnemonic: &str) -> Option<(bool, bool)> {
    let m = mnemonic.strip_prefix('v').unwrap_or(mnemonic);
    let (op, packed) = match (m.strip_suffix("ps"), m.strip_suffix("ss")) {
        (Some(op), _) => (op, true),
        (_, Some(op)) => (op, false),
        _ => return None,
    };
    let fma = ["fmadd", "fmsub", "fnmadd", "fnmsub"]
        .iter()
        .any(|f| op.strip_prefix(f).is_some_and(|n| n.len() == 3));
    (fma || ["add", "sub", "mul", "div", "min", "max", "sqrt"].contains(&op))
        .then_some((packed, fma))
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

/// Every function of the disassembly by entry address.
fn parse<'a>(code: &'a str, relocs: &str) -> HashMap<u64, Body<'a>> {
    // rustc calls through the GOT (`call *slot(%rip)`), where objdump has
    // no name to print: slot → target from the relocations
    // (`<slot> R_X86_64_RELATIVE *ABS*+0x<target>`).
    let slots: HashMap<u64, u64> = relocs
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (slot, _type, value) = (f.next()?, f.next()?, f.next()?);
            Some((hex(slot)?, hex(value.strip_prefix("*ABS*+")?)?))
        })
        .collect();

    let mut bodies: HashMap<u64, Body> = HashMap::new();
    let mut current = None;
    for line in code.lines() {
        // `0000000000034470 <symbol>:` opens a function.
        if let Some((addr, symbol)) = line.strip_suffix(">:").and_then(|l| l.split_once(" <")) {
            current = hex(addr).map(|a| {
                bodies.entry(a).or_insert(Body {
                    symbol,
                    ..Body::default()
                })
            });
            continue;
        }
        // `   34481:\tcmovae %r10,%r11`
        let (Some(body), Some(insn)) = (current.as_mut(), line.split('\t').nth(1)) else {
            continue;
        };
        let mut words = insn.split_whitespace();
        let mnemonic = words.next().unwrap_or("");
        if let Some((packed, fma)) = fp_arith(mnemonic) {
            if packed {
                let width = ["%zmm", "%ymm"].iter().position(|r| insn.contains(r));
                body.packed[width.unwrap_or(2)] += 1;
                body.packed_fma += usize::from(fma);
            } else {
                body.scalar += 1;
            }
        }
        // Edges out of the function. Through the GOT, on whatever
        // instruction names the slot — `call *0x55a55(%rip)  # 8acc0 <…>`,
        // or a `mov` of the slot into a register that a loop then calls
        // through: a slot with a relative relocation holds a function of
        // this executable, any other an import, and there objdump does
        // print the name (`# 735b0 <fmaf@GLIBC_2.2.5>`). Direct ones as
        // `call 3c2f0 <name>` / `jmp 3c2f0 <name>` (a tail call when the
        // target is another function's entry; a jump inside this one
        // resolves to no entry and the readers drop it).
        if let Some((_, slot)) = insn.split_once("# ") {
            let (addr, name) = slot.split_once(' ').unwrap_or((slot, ""));
            match hex(addr).and_then(|slot| slots.get(&slot)) {
                Some(&target) => body.callees.push(target),
                None => body.imports.push(name.trim_matches(['<', '>'])),
            }
        } else if mnemonic.starts_with("call") || mnemonic == "jmp" {
            body.callees.extend(words.next().and_then(hex));
        }
    }
    bodies
}

fn check(exe: &Path) -> Result<Option<bool>, String> {
    let (Some(code), Some(relocs)) = (
        objdump(&["-d", "--no-show-raw-insn"], exe)?,
        objdump(&["-R"], exe)?,
    ) else {
        return Ok(None);
    };
    let bodies = parse(&code, &relocs);
    let callees = |b: &Body| -> Vec<&Body> {
        let of = b.callees.iter().filter_map(|a| bodies.get(a));
        of.filter(|c| !std::ptr::eq(*c, b)).collect()
    };
    // How many of the functions `b` refers to, by name, satisfy `what`.
    let refers = |b: &Body, what: &dyn Fn(&str) -> bool| {
        let names = callees(b).into_iter().map(|c| c.symbol);
        names
            .chain(b.imports.iter().copied())
            .filter(|s| what(s))
            .count()
    };
    let libm_fma = |s: &str| ["fmaf", "fma"].contains(&s.split('@').next().unwrap_or(s));

    println!(
        "{:10} {:9} {:>7} {:>7} {:>6} {:>5} {:>5} {:>5} {:>14}",
        "kernel", "frame", "packed", "scalar", "fma", "zmm%", "ymm%", "xmm%", "bounds checks"
    );
    let mut ok = true;
    for Kernel {
        name,
        module,
        symbol,
        inlined,
        gate,
    } in KERNELS
    {
        // `<len><name>` then the hash (`17h…E`) or, in v0 mangling,
        // nothing: anything longer is nested in it.
        let entry = bodies.values().find(|b| {
            b.symbol
                .split_once(module)
                .and_then(|(_, item)| item.strip_prefix(&format!("{}{symbol}", symbol.len())))
                .is_some_and(|rest| rest.is_empty() || rest.starts_with("17h"))
        });
        let Some(entry) = entry else {
            println!("{name:10} symbol `{symbol}` not found");
            ok = false;
            continue;
        };
        // The baseline body is inlined in the entry point; the frames are
        // the `vectorize::inner` instances it calls.
        let mut rows: Vec<(Option<SimdLevel>, &Body)> = callees(entry)
            .into_iter()
            .filter_map(|c| Some((Some(c.frame()?), c)))
            .collect();
        rows.sort_by_key(|(frame, _)| *frame);
        rows.insert(0, (None, entry));
        if cfg!(target_arch = "x86_64") {
            for wide in [SimdLevel::Avx2, SimdLevel::Avx512] {
                if !rows.iter().any(|(f, _)| *f == Some(wide)) {
                    println!("{name:10} FAIL: no {wide} frame called from `{symbol}`");
                    ok = false;
                }
            }
        }

        for (frame, body) in rows {
            let bounds_checks = refers(body, &|s| s.contains("panic_bounds_check"));
            // A helper left out of line: a call in a lane loop keeps it
            // scalar.
            let helpers = refers(body, &|s| inlined.iter().any(|m| s.contains(m)));
            let packed = body.packed();
            let share = |k: usize| 100.0 * body.packed[k] as f64 / packed.max(1) as f64;
            let gated = match gate {
                Gate::None => false,
                Gate::Fused => true,
                Gate::Unfused => frame.is_some_and(mudock_simd::is_wide),
            };

            let mut verdicts = Vec::new();
            if refers(body, &libm_fma) > 0 {
                verdicts.push("FAIL: calls libm fmaf (fused token outside an FMA frame)");
            }
            if helpers > 0 {
                verdicts.push("FAIL: calls an out-of-line helper of the module");
            }
            if gated && bounds_checks > 0 {
                verdicts.push("FAIL: bounds check left in a driver");
            }
            if gated && (packed == 0 || packed < MIN_PACKED_PER_SCALAR * body.scalar) {
                verdicts.push("FAIL: fewer than 10 packed per scalar");
            }
            if gate == Gate::Unfused && body.packed_fma > 0 {
                verdicts.push("FAIL: packed FMA from the unfused token");
            }
            if gate == Gate::Fused && frame == Some(SimdLevel::Avx512) {
                if share(0) < MIN_ZMM_PERCENT {
                    verdicts.push("FAIL: under 90 % of packed ops on zmm");
                }
                if body.packed_fma == 0 {
                    verdicts.push("FAIL: no packed FMA");
                }
            }
            ok &= verdicts.is_empty();
            println!(
                "{name:10} {:9} {packed:>7} {:>7} {:>6} {:>5.0} {:>5.0} {:>5.0} {bounds_checks:>14}  {}",
                frame.map_or("baseline", SimdLevel::name),
                body.scalar,
                body.packed_fma,
                share(0),
                share(1),
                share(2),
                verdicts.join("; ")
            );
        }
    }
    // Everything else the modules compiled to (any helper that stayed a
    // function) must not reach `fmaf` either.
    for b in bodies.values() {
        let ours = [AUTOVEC, GRID_BUILD].iter().any(|m| b.symbol.contains(m));
        if ours && refers(b, &libm_fma) > 0 {
            println!("FAIL: {} calls libm fmaf", b.symbol);
            ok = false;
        }
    }
    Ok(Some(ok))
}

fn main() -> ExitCode {
    // Link the drivers into this executable.
    type Transform = fn(SimdLevel, &ConformSoA, &[TorsionPlan], &Genotype, &mut ConformSoA);
    type Inter = fn(SimdLevel, &GridSet, &ConformSoA, &AtomStatics) -> f32;
    type Intra = fn(SimdLevel, &ConformSoA, &PairsSoA) -> f32;
    type Build = fn(&GridBuilder<'static>, SimdLevel, usize) -> GridSet;
    std::hint::black_box((
        apply_pose_simd as Transform,
        inter_energy_autovec_at as Inter,
        intra_energy_autovec_at as Intra,
        GridBuilder::build_lanes_at as Build,
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
