//! One run of one workload: set-up, warm-up, then timed reps for the
//! run's length, every rep checked against the oracle.

use std::path::{Path as FsPath, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mudock_core::{BackendPolicy, KernelStats};
use mudock_grids::SimdLevel;

use crate::clock::{peak_rss_mib, process_cpu_ns, HostCounters};
use crate::control::Normalizer;
use crate::host::Host;
use crate::inputs::{synthesize, Inputs, Job};
use crate::layers;
use crate::oracle::{check_pass, reference, Ranking};
use crate::rigs::{ligands_per_pass, rig_dir, DockRig, GridPool, NetRig, Rig, ServiceRig};
use crate::spec::{MetricDef, Path, Workload, END_TO_END, SETUPS, WARMUP_REPS};
use crate::stats::{median, p10};
use crate::trace::Recorder;

#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed part, in seconds.
    pub seconds: f64,
    /// The traced pass (per-layer metrics) instead of the end-to-end
    /// run.
    pub trace: bool,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn of(def: &MetricDef, value: f64) -> Metric {
        Metric {
            name: def.name,
            value,
            unit: def.unit,
        }
    }
}

pub struct RunOutput {
    pub args: RunArgs,
    pub host: Host,
    /// Every checked rep matched the sequential reference.
    pub correct: bool,
    /// Reps attempted and failed, over every arm.
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
    /// Where the traced pass wrote its spans.
    pub trace_file: Option<PathBuf>,
}

/// The products of one set-up.
pub struct Setup {
    pub inputs: Inputs,
    pub main: Box<dyn Rig>,
    pub portable: Box<dyn Rig>,
    /// Grids built outside a service so far.
    pub grids: GridPool,
}

/// The level of the grids `job` docks on. `Path::Screen` docks both
/// arms on the main arm's grids, so that the arms differ in the scoring
/// backend alone; a service builds each campaign's grids at the
/// campaign's own level.
fn grid_level(inputs: &Inputs, job: &Job) -> SimdLevel {
    match inputs.workload.shape().path {
        Path::Screen => inputs.jobs[0].campaign.grid_level(),
        Path::Net | Path::Service => job.campaign.grid_level(),
    }
}

/// Input synthesis, grid builds, service start and warm-up reps: what
/// `setup_s` times.
pub fn set_up(workload: Workload, seed: u64, dir: &FsPath) -> Result<Setup, String> {
    let inputs = synthesize(workload, seed);
    let threads = inputs.threads;
    let mut grids = GridPool::default();
    let (main, portable): (Box<dyn Rig>, Box<dyn Rig>) = match workload.shape().path {
        Path::Screen => {
            let (m, p) = (&inputs.jobs[0], &inputs.portable[0]);
            let built = grids.get(m, grid_level(&inputs, m));
            (
                Box::new(DockRig {
                    grids: Arc::clone(&built),
                    job: m.clone(),
                    threads,
                }),
                Box::new(DockRig {
                    grids: built,
                    job: p.clone(),
                    threads,
                }),
            )
        }
        Path::Net => (
            Box::new(NetRig::start(
                &rig_dir(dir, "main")?,
                inputs.jobs.clone(),
                threads,
            )?),
            Box::new(NetRig::start(
                &rig_dir(dir, "portable")?,
                inputs.portable.clone(),
                threads,
            )?),
        ),
        Path::Service => (
            Box::new(ServiceRig::start(
                &rig_dir(dir, "main")?,
                inputs.jobs.clone(),
                threads,
            )?),
            Box::new(ServiceRig::start(
                &rig_dir(dir, "portable")?,
                inputs.portable.clone(),
                threads,
            )?),
        ),
    };
    let mut setup = Setup {
        inputs,
        main,
        portable,
        grids,
    };
    let off = Recorder::new(false);
    for _ in 0..WARMUP_REPS {
        setup.main.pass(&off)?;
        setup.portable.pass(&off)?;
    }
    Ok(setup)
}

/// Reference rankings of both arms, and the kernel work of one rep of
/// the main arm.
pub struct References {
    pub main: Vec<Ranking>,
    pub portable: Vec<Ranking>,
    pub work: KernelStats,
}

/// Dock every job sequentially on one thread, on grids built as the
/// rigs' were (the set-up's pool is reused and extended).
pub fn references(setup: &mut Setup) -> References {
    let Setup { inputs, grids, .. } = setup;
    let mut work = KernelStats::default();
    let main = inputs
        .jobs
        .iter()
        .map(|job| {
            let (ranking, stats) = reference(&grids.get(job, grid_level(inputs, job)), job);
            work.merge(&stats);
            ranking
        })
        .collect();
    let portable = inputs
        .portable
        .iter()
        .map(|job| reference(&grids.get(job, grid_level(inputs, job)), job).0)
        .collect();
    References {
        main,
        portable,
        work,
    }
}

/// Timed reps of one arm. Times are normalized by the control kernel
/// (see [`crate::control`]) unless named raw.
#[derive(Default)]
pub struct ArmSamples {
    pub wall_ns: Vec<f64>,
    /// Process CPU time consumed during the rep.
    pub cpu_ns: Vec<f64>,
    pub raw_wall_ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    total_wall_ns: f64,
}

/// The reps of a measured stretch, and how much slower than the
/// reference the host ran during it.
pub struct Measured {
    pub arms: Vec<ArmSamples>,
    pub slowdown: f64,
    /// Brings a raw duration taken during the stretch to the reference
    /// host speed.
    pub scale: f64,
}

/// Run reps for `seconds`, always giving the next rep to the arm that
/// has had the least time so far, so that every arm sees the same
/// stretch of host weather; the control kernel runs between reps.
/// `rep(arm)` runs one rep and returns its rankings, which are checked
/// against `expected[arm]` after the clocks have stopped. Every arm
/// gets at least one rep.
pub fn measure(
    expected: &[&[Ranking]],
    seconds: f64,
    mut rep: impl FnMut(usize) -> Result<Vec<Ranking>, String>,
) -> Measured {
    let mut arms: Vec<ArmSamples> = expected.iter().map(|_| ArmSamples::default()).collect();
    let start = Instant::now();
    let mut norm = Normalizer::new();
    while start.elapsed().as_secs_f64() < seconds || arms.iter().any(|a| a.attempted == 0) {
        let (next, _) = arms
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_wall_ns.total_cmp(&b.1.total_wall_ns))
            .expect("at least one arm");
        let cpu0 = process_cpu_ns();
        let wall0 = Instant::now();
        let got = rep(next);
        let wall = wall0.elapsed().as_nanos() as f64;
        let cpu = process_cpu_ns().saturating_sub(cpu0) as f64;
        let scale = norm.close();
        let arm = &mut arms[next];
        arm.attempted += 1;
        arm.total_wall_ns += wall;
        match got.and_then(|g| check_pass(expected[next], &g)) {
            Ok(()) => {
                arm.wall_ns.push(wall * scale);
                arm.cpu_ns.push(cpu * scale);
                arm.raw_wall_ns.push(wall);
            }
            Err(why) => {
                arm.failed += 1;
                arm.first_failure.get_or_insert(why);
            }
        }
    }
    Measured {
        arms,
        slowdown: norm.slowdown(),
        scale: norm.scale(),
    }
}

fn scratch_dir() -> Result<PathBuf, String> {
    // Unique per run: tests run several in one process.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(format!(
        "bench_ladder/target/run-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::canonicalize(&dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Pin glibc's `M_MMAP_THRESHOLD` at its documented default. Left
/// alone, the threshold rises to the size of the first big block freed,
/// after which freed grid sets stay in whichever arena they came from
/// and peak memory depends on which arena the next set-up's threads
/// draw — one grid set more or less from run to run (measured: 54.3 or
/// 58.5 MiB on `serve_hot`; pinned, 54.4 every time).
fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only stores the value in the allocator's
        // parameters; both arguments are plain integers.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    }
}

/// Run one workload. Reads and writes only under
/// `bench_ladder/target/` of the current directory.
pub fn run(args: RunArgs) -> Result<RunOutput, String> {
    pin_mmap_threshold();
    let scratch = scratch_dir()?;
    let out = run_in(args, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    out
}

fn run_in(args: RunArgs, scratch: &FsPath) -> Result<RunOutput, String> {
    let host0 = HostCounters::read();

    // Set up several times; keep the last one's products. The previous
    // set-up is dropped first, so peak memory is one set-up's. The
    // traced pass reports no set-up time and sets up once.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut setup = None;
    let mut norm = Normalizer::new();
    for k in 0..setups {
        drop(setup.take());
        let dir = rig_dir(scratch, &format!("setup-{k}"))?;
        norm.refresh();
        let (made, ns) = norm.time(|| set_up(args.workload, args.seed, &dir));
        setup = Some(made?);
        setup_s.push(ns * 1e-9);
    }
    let mut setup = setup.expect("SETUPS is at least 1");
    let refs = references(&mut setup);
    let host = Host::detect(setup.inputs.threads);

    let (arms, metrics, trace_file) = if args.trace {
        let traced = layers::traced_pass(&args, &mut setup, &refs, scratch, &host0)?;
        (traced.arms, traced.metrics, Some(traced.trace_file))
    } else {
        let off = Recorder::new(false);
        let arms = measure(&[&refs.main, &refs.portable], args.seconds, |arm| {
            if arm == 0 {
                setup.main.pass(&off)
            } else {
                setup.portable.pass(&off)
            }
        })
        .arms;
        let metrics = end_to_end(&setup.inputs, &arms, median(&setup_s))?;
        (arms, metrics, None)
    };
    drop(setup);

    let attempted = arms.iter().map(|a| a.attempted).sum();
    let failed: u64 = arms.iter().map(|a| a.failed).sum();
    Ok(RunOutput {
        args,
        host,
        correct: failed == 0,
        attempted,
        failed,
        first_failure: arms.iter().find_map(|a| a.first_failure.clone()),
        metrics,
        trace_file,
    })
}

/// `Err` with the first oracle failure when an arm has no rep that
/// passed, and so nothing to estimate from.
pub fn require_passes(arms: &[ArmSamples], what: &str) -> Result<(), String> {
    match arms.iter().find(|a| a.wall_ns.is_empty()) {
        None => Ok(()),
        Some(arm) => Err(format!(
            "{what}: no rep passed the oracle: {}",
            arm.first_failure.as_deref().unwrap_or("?")
        )),
    }
}

fn end_to_end(inputs: &Inputs, arms: &[ArmSamples], setup_s: f64) -> Result<Vec<Metric>, String> {
    let [main, portable] = arms else {
        return Err("the end-to-end run has two arms".into());
    };
    require_passes(arms, "rep")?;
    let ligands = ligands_per_pass(&inputs.jobs) as f64;
    let portable_ligands = ligands_per_pass(&inputs.portable) as f64;
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "ligands_per_s" => ligands / (p10(&main.wall_ns) * 1e-9),
        "portable_ligands_per_s" => portable_ligands / (p10(&portable.wall_ns) * 1e-9),
        "cpu_ms_per_ligand" => p10(&main.cpu_ns) * 1e-6 / ligands,
        "peak_rss_mb" => peak_rss_mib(),
        other => panic!("no estimator for end-to-end metric {other}"),
    };
    Ok(END_TO_END
        .iter()
        .map(|d| Metric::of(d, value(d.name)))
        .collect())
}

/// The SIMD level an unpinned campaign runs at.
pub fn auto_level() -> SimdLevel {
    BackendPolicy::Detect.grid_level()
}
