//! The traced pass: per-layer numbers, every one measured from outside
//! by timing calls into a layer's public functions, with a span around
//! each call.
//!
//! The pass spends the run's length on a fixed sequence of probes, each
//! with a fixed share of it: the workload's own rep traced and
//! untraced side by side (tracing overhead), kernel replays over a
//! sample of the workload's own genotypes, the harness-side dock loop,
//! the pool, grid build/save/load, the codecs, and the ladder — the
//! workload's job stream through `core::screen_campaign`, a
//! `ScreenService`, a `NetServer` and a `cluster::Coordinator`.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use mudock_core::scoring::inter::inter_energy_simd;
use mudock_core::scoring::intra::intra_energy_simd;
use mudock_core::transform::apply_pose_simd;
use mudock_core::{
    dock_ligand, ligand_seed, solis_wets, Backend, DockParams, DockingEngine, LigandPrep,
    SolisWetsParams,
};
use mudock_grids::{GridBuilder, GridSet};
use mudock_mol::ConformSoA;
use mudock_obs::{GridSource, StageTimings};
use mudock_serve::{wire, Priority};
use rand::SeedableRng as _;

use crate::clock::HostCounters;
use crate::control::Normalizer;
use crate::inputs::{nproc, to_pdbqt, Job};
use crate::oracle::Ranking;
use crate::replay::{dock_traced, search_centre, search_radius, PoseSample};
use crate::rigs::{ligands_per_pass, rig_dir, BareRig, ClusterRig, NetRig, Rig, ServiceRig};
use crate::run::{
    auto_level, measure, require_passes, ArmSamples, Measured, Metric, References, RunArgs, Setup,
};
use crate::spec::{PER_LAYER, SIMD_ELEMS, WARMUP_REPS};
use crate::stats::{median, p10, tail};
use crate::trace::{durations, root_coverage, write_jsonl, Recorder};

/// Share of the run's length each probe gets.
const SHARE_REPS: f64 = 0.25;
const SHARE_KERNEL: f64 = 0.02;
const SHARE_ENGINE: f64 = 0.03;
const SHARE_REPLAY: f64 = 0.04;
const SHARE_POOL: f64 = 0.04;
const SHARE_IO: f64 = 0.01;
const SHARE_RUNG: f64 = 0.08;

/// A probe runs at least this often, however short its share.
const MIN_CALLS: usize = 3;

/// Computed cost of the inter kernel per (padded) atom, from its
/// source: three trilinear fetches of eight 4-byte corners, plus the
/// atom's coordinates, type, charge and weight.
const INTER_BYTES_PER_ATOM: f64 = (3 * 8 * 4 + 3 * 4 + 3 * 4) as f64;
/// Floating-point operations per (padded) atom, an FMA counting two:
/// grid coordinates 6, out-of-box penalty 22, clamp and fraction 9,
/// cell index 6, three trilinear interpolations of 21, charge scaling
/// and accumulation 8.
const INTER_FLOPS_PER_ATOM: f64 = (6 + 22 + 9 + 6 + 3 * 21 + 8) as f64;

pub struct Traced {
    pub arms: Vec<ArmSamples>,
    pub metrics: Vec<Metric>,
    pub trace_file: PathBuf,
}

/// A timed sample lasts at least this long: calls shorter than it are
/// repeated inside one sample, so that the clock reads, the span and
/// the control runs around it are a small part of the probe.
const MIN_SAMPLE_NS: f64 = 1_000_000.0;

/// Samples of one probe: the normalized duration of one call per
/// sample, in ns, and the factor that brings a raw duration taken while
/// the probe ran (a span) to the reference host speed.
struct Timed {
    ns: Vec<f64>,
    scale: f64,
}

impl Timed {
    /// The estimate of one call's duration: the fast decile of the
    /// normalized samples, like every end-to-end time.
    fn fast(&self) -> f64 {
        p10(&self.ns)
    }
}

/// Call `f` for `seconds` (at least [`MIN_CALLS`] samples), a span
/// named `name` around each sample and the control kernel between
/// samples.
fn time_calls(rec: &Recorder, name: &'static str, seconds: f64, mut f: impl FnMut()) -> Timed {
    let start = Instant::now();
    rec.span(name, &mut f);
    let first = start.elapsed().as_nanos() as f64;
    let per_sample = (MIN_SAMPLE_NS / first.max(1.0)).ceil().clamp(1.0, 65536.0) as usize;
    let mut norm = Normalizer::new();
    let mut ns = Vec::new();
    while ns.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
        let ((), sample) = norm.time(|| rec.span(name, || (0..per_sample).for_each(|_| f())));
        ns.push(sample / per_sample as f64);
    }
    Timed {
        ns,
        scale: norm.scale(),
    }
}

/// Values gathered by the probes, by metric name.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} is measured once");
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

pub fn traced_pass(
    args: &RunArgs,
    setup: &mut Setup,
    refs: &References,
    scratch: &Path,
    host0: &HostCounters,
) -> Result<Traced, String> {
    let s = args.seconds;
    let on = Recorder::new(true);
    let off = Recorder::new(false);
    let mut v = Values::default();
    let ligands = ligands_per_pass(&setup.inputs.jobs) as f64;

    // --- the workload's own rep, untraced and traced side by side -----
    let Measured {
        mut arms,
        slowdown: rep_slowdown,
        ..
    } = measure(&[&refs.main, &refs.main], s * SHARE_REPS, |arm| {
        if arm == 0 {
            setup.main.pass(&off)
        } else {
            on.rep("rep", || setup.main.pass(&on))
        }
    });
    require_passes(&arms, "rep")?;
    let (plain, traced) = (&arms[0], &arms[1]);
    // Raw, as the clock read them: what a user of this host saw.
    let (tail_ns, tail_pct) = tail(&plain.raw_wall_ns);
    v.set("reps", traced.wall_ns.len() as f64);
    v.set("rep_ms_p50", median(&plain.raw_wall_ns) * 1e-6);
    v.set("rep_ms_p99", tail_ns * 1e-6);
    v.set("rep_tail_percentile", tail_pct);
    v.set(
        "ligands_per_s_mean",
        ligands * plain.raw_wall_ns.len() as f64 / (plain.raw_wall_ns.iter().sum::<f64>() * 1e-9),
    );
    v.set("host.slowdown", rep_slowdown);
    v.set(
        "trace.overhead_share",
        p10(&traced.wall_ns) / p10(&plain.wall_ns) - 1.0,
    );
    let coverage = root_coverage(&on.spans());
    if coverage < 0.95 {
        return Err(format!(
            "trace.root_coverage is {coverage:.3}: more than 5 % of a rep lies outside every span"
        ));
    }
    v.set("trace.root_coverage", coverage);

    // --- exact work counters of one rep -------------------------------
    v.set("count.poses_scored", refs.work.poses_scored as f64);
    v.set("count.pairs_evaluated", refs.work.pairs_evaluated as f64);
    v.set("count.grid_lookups", refs.work.grid_lookups as f64);
    v.set(
        "count.torsion_rotations",
        refs.work.torsion_rotations as f64,
    );
    v.set("count.generations", refs.work.generations as f64);

    // --- layers below the service, on the stream's first job ----------
    let job = setup.inputs.jobs[0].clone();
    let grids = setup.grids.get(&job, job.campaign.grid_level());
    simd_probes(&on, s, &mut v);
    let poses = replay_probe(&on, s, &job, &grids, &refs.main[0], &mut v)?;
    kernel_probes(&on, s, &job, &grids, &poses, &mut v)?;
    pool_probe(&on, s, &job, &grids, &mut v)?;
    grid_probes(&on, s, &job, scratch, &mut v)?;
    codec_probes(
        &on,
        s,
        &job,
        setup.inputs.workload.shape().ligand.spec,
        &mut v,
    )?;

    // --- the ladder ---------------------------------------------------
    arms.extend(ladder(&on, s, setup, refs, scratch, &mut v)?);

    let (steal, psi) = HostCounters::read().since(host0);
    v.set("host.steal_share", steal);
    v.set("host.psi_cpu_some", psi);
    let spans = on.spans();
    v.set("trace.spans", spans.len() as f64);

    let dir = PathBuf::from("bench_ladder/target/traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace_file = dir.join(format!("{}.trace.jsonl", args.workload.name()));
    write_jsonl(&trace_file, &spans).map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            v.get(d.name)
                .map(|value| Metric::of(d, value))
                .ok_or_else(|| format!("the traced pass did not measure {}", d.name))
        })
        .collect::<Result<Vec<Metric>, String>>()?;
    Ok(Traced {
        arms,
        metrics,
        trace_file,
    })
}

fn simd_probes(rec: &Recorder, s: f64, v: &mut Values) {
    let level = auto_level();
    let n = SIMD_ELEMS;
    let exp_in: Vec<f32> = (0..n).map(|i| -10.0 * i as f32 / n as f32).collect();
    let rsqrt_in: Vec<f32> = (0..n).map(|i| 0.5 + 100.0 * i as f32 / n as f32).collect();
    let mut out = vec![0.0f32; n];
    let exp = time_calls(rec, "simd.exp_slice", s * SHARE_KERNEL, || {
        mudock_simd::ops::exp_slice(level, std::hint::black_box(&exp_in), &mut out);
        std::hint::black_box(&out);
    });
    let rsqrt = time_calls(rec, "simd.rsqrt_slice", s * SHARE_KERNEL, || {
        mudock_simd::ops::rsqrt_slice(level, std::hint::black_box(&rsqrt_in), &mut out);
        std::hint::black_box(&out);
    });
    v.set("simd.exp_ns_per_elem", exp.fast() / n as f64);
    v.set("simd.rsqrt_ns_per_elem", rsqrt.fast() / n as f64);
}

/// The harness-side dock loop on the first job: GA and local-search
/// shares of a dock, and the genotype sample the kernel probes replay.
fn replay_probe(
    rec: &Recorder,
    s: f64,
    job: &Job,
    grids: &GridSet,
    expected: &Ranking,
    v: &mut Values,
) -> Result<Vec<PoseSample>, String> {
    let params = job.campaign.dock_params();
    let mark = rec.len();
    let mut poses = Vec::new();
    let mut failure = None;
    let timed = time_calls(
        rec,
        "engine.dock_replay",
        s * SHARE_REPLAY,
        || match dock_traced(grids, &job.ligands, &params, rec, true) {
            Ok((ranking, sample)) => {
                if let Err(why) = crate::oracle::check(expected, &ranking) {
                    failure.get_or_insert(format!(
                        "the replay is not bit-equal to DockingEngine::dock: {why}"
                    ));
                }
                poses = sample;
            }
            Err(why) => {
                failure.get_or_insert(why);
            }
        },
    );
    if let Some(why) = failure {
        return Err(why);
    }
    let spans = rec.spans_since(mark);
    let total: f64 = durations(&spans, "engine.dock_replay").iter().sum();
    let evolve = durations(&spans, "ga.evolve");
    let ga: f64 = evolve.iter().sum::<f64>() + durations(&spans, "ga.init").iter().sum::<f64>();
    let ls = durations(&spans, "local_search");
    // Span durations are raw: bring them to the reference host speed.
    v.set("ga.evolve_us_per_gen", median(&evolve) * 1e-3 * timed.scale);
    v.set("ga.share_of_dock", ga / total);
    v.set(
        "local_search.share_of_dock",
        ls.iter().fold(0.0, |sum, ns| sum + ns) / total,
    );

    // A workload without local search still says what one call costs:
    // refine a few of its sampled genotypes with the default settings.
    let ls: Vec<f64> = if ls.is_empty() {
        let engine = DockingEngine::new(grids).map_err(|e| e.to_string())?;
        let (centre, radius) = (search_centre(grids), search_radius(&params));
        let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
        let mut norm = Normalizer::new();
        let mut calls = Vec::new();
        for pose in poses.iter().step_by((poses.len() / 8).max(1)) {
            let prep =
                LigandPrep::new(job.ligands[pose.ligand].clone()).map_err(|e| e.to_string())?;
            let mut scratch = ConformSoA::with_capacity(prep.base.n);
            let start = engine.score(&prep, &pose.genotype, &mut scratch, params.backend);
            norm.refresh();
            let ((), ns) = norm.time(|| {
                rec.span("local_search", || {
                    std::hint::black_box(solis_wets(
                        &engine,
                        &prep,
                        &pose.genotype,
                        start,
                        params.backend,
                        &SolisWetsParams::default(),
                        centre,
                        radius,
                        &mut rng,
                        &mut scratch,
                    ));
                })
            });
            calls.push(ns);
        }
        calls
    } else {
        ls.iter().map(|ns| ns * timed.scale).collect()
    };
    v.set("local_search.us_per_call", median(&ls) * 1e-3);
    Ok(poses)
}

/// Replay the sampled genotypes through the public kernel entry points
/// and through `DockingEngine::score` with each backend.
fn kernel_probes(
    rec: &Recorder,
    s: f64,
    job: &Job,
    grids: &GridSet,
    poses: &[PoseSample],
    v: &mut Values,
) -> Result<(), String> {
    let level = auto_level();
    let engine = DockingEngine::new(grids).map_err(|e| e.to_string())?;
    let preps: Vec<LigandPrep> = job
        .ligands
        .iter()
        .map(|l| LigandPrep::new(l.clone()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    // One scratch conformation per ligand, sized as `dock` sizes it:
    // the kernels walk the padded length of what they are handed.
    let mut scratch: Vec<ConformSoA> = preps
        .iter()
        .map(|p| ConformSoA::with_capacity(p.base.n))
        .collect();
    let n = poses.len() as f64;

    // Conformations of every sampled pose, for the two scoring kernels.
    let confs: Vec<ConformSoA> = poses
        .iter()
        .map(|p| {
            let prep = &preps[p.ligand];
            let mut conf = ConformSoA::with_capacity(prep.base.n);
            apply_pose_simd(level, &prep.base, &prep.plans, &p.genotype, &mut conf);
            conf
        })
        .collect();
    let atoms: f64 = poses.iter().map(|p| preps[p.ligand].base.n as f64).sum();
    let padded: f64 = confs.iter().map(|c| c.len_padded() as f64).sum();
    let pairs: f64 = poses.iter().map(|p| preps[p.ligand].pairs.n as f64).sum();

    let budget = s * SHARE_KERNEL;
    let transform = time_calls(rec, "transform.sweep", budget, || {
        for p in poses {
            let prep = &preps[p.ligand];
            apply_pose_simd(
                level,
                &prep.base,
                &prep.plans,
                &p.genotype,
                &mut scratch[p.ligand],
            );
        }
        std::hint::black_box(&scratch);
    });
    let inter = time_calls(rec, "inter.sweep", budget, || {
        let mut sum = 0.0f32;
        for (p, conf) in poses.iter().zip(&confs) {
            sum += inter_energy_simd(level, grids, conf, &preps[p.ligand].statics);
        }
        std::hint::black_box(sum);
    });
    let intra = time_calls(rec, "intra.sweep", budget, || {
        let mut sum = 0.0f32;
        for (p, conf) in poses.iter().zip(&confs) {
            sum += intra_energy_simd(level, conf, &preps[p.ligand].pairs);
        }
        std::hint::black_box(sum);
    });
    let mut score = |name: &'static str, backend: Backend| {
        let ns = time_calls(rec, name, budget, || {
            let mut sum = 0.0f32;
            for p in poses {
                sum += engine.score(
                    &preps[p.ligand],
                    &p.genotype,
                    &mut scratch[p.ligand],
                    backend,
                );
            }
            std::hint::black_box(sum);
        });
        ns.fast() / n
    };
    let auto = score("engine.score_sweep", Backend::auto());
    let portable = score("engine.score_sweep_portable", Backend::AutoVec);
    let reference = score("engine.score_sweep_reference", Backend::Reference);

    let (t, i, a) = (transform.fast() / n, inter.fast() / n, intra.fast() / n);
    let inter_s = inter.fast() * 1e-9;
    v.set("transform.ns_per_pose", t);
    v.set("inter.ns_per_pose", i);
    v.set("inter.lookups_per_s", 3.0 * atoms / inter_s);
    v.set(
        "inter.computed_bytes_per_pose",
        INTER_BYTES_PER_ATOM * padded / n,
    );
    v.set(
        "inter.computed_gb_per_s",
        INTER_BYTES_PER_ATOM * padded / inter_s * 1e-9,
    );
    v.set(
        "inter.computed_flops_per_byte",
        INTER_FLOPS_PER_ATOM / INTER_BYTES_PER_ATOM,
    );
    v.set("intra.ns_per_pose", a);
    v.set("intra.pairs_per_s", pairs / (intra.fast() * 1e-9));
    v.set("engine.score_ns_per_pose", auto);
    v.set("engine.score_ns_per_pose_portable", portable);
    v.set("engine.score_ns_per_pose_reference", reference);
    v.set("engine.simd_speedup", reference / auto);
    v.set("engine.portable_gap", portable / auto);
    v.set("engine.glue_share", 1.0 - (t + i + a) / auto);

    // Per-ligand fixed cost and a whole dock, one sweep over the job.
    let params = job.campaign.dock_params();
    let count = job.ligands.len() as f64;
    let prep = time_calls(rec, "engine.prep_sweep", s * SHARE_ENGINE, || {
        for lig in job.ligands.iter() {
            std::hint::black_box(LigandPrep::new(lig.clone()).is_ok());
        }
    });
    let dock = time_calls(rec, "engine.dock_sweep", s * SHARE_ENGINE, || {
        for (index, prep) in preps.iter().enumerate() {
            let p = DockParams {
                seed: ligand_seed(params.seed, index),
                ..params.clone()
            };
            std::hint::black_box(engine.dock(prep, &p).is_ok());
        }
    });
    v.set("engine.prep_us_per_ligand", prep.fast() * 1e-3 / count);
    v.set("engine.dock_ms_per_ligand", dock.fast() * 1e-6 / count);
    Ok(())
}

/// The first job's ligands over `mudock_pool` at one thread and at
/// `nproc`, every task timed on the worker that runs it.
fn pool_probe(
    rec: &Recorder,
    s: f64,
    job: &Job,
    grids: &GridSet,
    v: &mut Values,
) -> Result<(), String> {
    let engine = DockingEngine::new(grids).map_err(|e| e.to_string())?;
    let params = job.campaign.dock_params();
    let workers: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
    let worker_index = |id: std::thread::ThreadId| -> u32 {
        let mut seen = workers
            .lock()
            .expect("nothing panics while the list is locked");
        let at = seen.iter().position(|&t| t == id).unwrap_or_else(|| {
            seen.push(id);
            seen.len() - 1
        });
        at as u32 + 1
    };
    let mark = rec.len();
    let region = |name: &'static str, threads: usize| {
        time_calls(rec, name, s * SHARE_POOL, || {
            let parent = rec.current();
            let (results, _) = mudock_pool::parallel_map_stats(&job.ligands, threads, |i, lig| {
                let start = rec.now_ns();
                let r = dock_ligand(&engine, lig, &params, i);
                rec.record(
                    "pool.task",
                    parent,
                    start,
                    rec.now_ns(),
                    worker_index(std::thread::current().id()),
                );
                r
            });
            std::hint::black_box(results);
        })
    };
    let threads = nproc();
    let one = region("pool.region_1", 1);
    let all = region("pool.region_nproc", threads);
    // Busy share of each region at `nproc`: its tasks' time over the
    // threads' time.
    let spans = rec.spans_since(mark);
    let busy_shares: Vec<f64> = spans
        .iter()
        .filter(|r| r.name == "pool.region_nproc")
        .map(|r| {
            let busy: u64 = spans
                .iter()
                .filter(|t| t.parent == r.id)
                .map(|t| t.duration_ns())
                .sum();
            busy as f64 / (threads as f64 * r.duration_ns() as f64)
        })
        .collect();
    v.set("pool.speedup_nproc", one.fast() / all.fast());
    v.set("pool.busy_share", median(&busy_shares));
    Ok(())
}

fn grid_probes(
    rec: &Recorder,
    s: f64,
    job: &Job,
    scratch: &Path,
    v: &mut Values,
) -> Result<(), String> {
    let level = job.campaign.grid_level();
    let (grids, build_ns) = Normalizer::new().time(|| {
        rec.span("grids.build", || {
            GridBuilder::new(&job.receptor, job.dims()).build_simd(level)
        })
    });
    v.set("grids.build_ms", build_ns * 1e-6);
    v.set("grids.bytes", grids.bytes() as f64);

    let path = scratch.join("probe.grids");
    let mut failure = None;
    let save = time_calls(rec, "grids.save", s * SHARE_IO, || {
        if let Err(e) = mudock_grids::save_grids(&grids, &path) {
            failure.get_or_insert(format!("save {}: {e:?}", path.display()));
        }
    });
    let load = time_calls(
        rec,
        "grids.load",
        s * SHARE_IO,
        || match mudock_grids::load_grids(&path) {
            Ok(back) => {
                std::hint::black_box(back);
            }
            Err(e) => {
                failure.get_or_insert(format!("load {}: {e:?}", path.display()));
            }
        },
    );
    std::fs::remove_file(&path).ok();
    if let Some(why) = failure {
        return Err(why);
    }
    v.set("grids.save_ms", save.fast() * 1e-6);
    v.set("grids.load_ms", load.fast() * 1e-6);
    Ok(())
}

/// `molio` and `wire`: the first job as a client would ship it.
fn codec_probes(
    rec: &Recorder,
    s: f64,
    job: &Job,
    ligand: mudock_molio::LigandSpec,
    v: &mut Values,
) -> Result<(), String> {
    let count = job.ligands.len();
    let text = to_pdbqt(&job.ligands);
    let parse = time_calls(rec, "molio.parse", s * SHARE_IO, || {
        std::hint::black_box(
            mudock_molio::parse_models(&text)
                .filter(Result::is_ok)
                .count(),
        );
    });
    let synth = time_calls(rec, "molio.synth", s * SHARE_IO, || {
        for i in 0..count {
            std::hint::black_box(mudock_molio::synthetic_ligand(
                job.campaign.seed ^ i as u64,
                ligand,
            ));
        }
    });
    v.set(
        "molio.parse_us_per_ligand",
        parse.fast() * 1e-3 / count as f64,
    );
    v.set(
        "molio.synth_us_per_ligand",
        synth.fast() * 1e-3 / count as f64,
    );

    let mut body = String::new();
    let mut failure = None;
    let encode = time_calls(
        rec,
        "wire.encode",
        s * SHARE_IO,
        || match wire::submission_to_json(
            &job.campaign,
            &job.receptor_source,
            &job.source,
            Priority::Normal,
        ) {
            Ok(json) => body = json.encode(),
            Err(e) => {
                failure.get_or_insert(format!("encode: {e:?}"));
            }
        },
    );
    let decode = time_calls(rec, "wire.decode", s * SHARE_IO, || {
        let decoded = wire::parse(&body).and_then(|json| wire::submission_from_json(&json));
        if let Err(e) = decoded {
            failure.get_or_insert(format!("decode: {e:?}"));
        }
    });
    if let Some(why) = failure {
        return Err(why);
    }
    v.set("wire.encode_us_per_submission", encode.fast() * 1e-3);
    v.set("wire.decode_us_per_submission", decode.fast() * 1e-3);
    v.set("wire.body_bytes", body.len() as f64);
    Ok(())
}

/// One rung: warm up, call `before_timed`, then timed passes for the
/// rung's share of the run. Returns the passes and the factor that
/// brings a raw duration taken during them to the reference host speed.
fn rung(
    rec: &Recorder,
    name: &'static str,
    s: f64,
    rig: &mut dyn Rig,
    expected: &[Ranking],
    before_timed: impl FnOnce(&mut dyn Rig),
) -> Result<(ArmSamples, f64), String> {
    let off = Recorder::new(false);
    for _ in 0..WARMUP_REPS {
        rig.pass(&off)?;
    }
    before_timed(rig);
    let Measured {
        mut arms, scale, ..
    } = measure(&[expected], s * SHARE_RUNG, |_| {
        rec.rep(name, || rig.pass(rec))
    });
    require_passes(&arms, name)?;
    let arm = arms.pop().expect("one arm in, one arm out");
    Ok((arm, scale))
}

/// The workload's job stream through four rungs, all at `nproc`
/// docking threads, and each rung's cost over the one below.
fn ladder(
    rec: &Recorder,
    s: f64,
    setup: &mut Setup,
    refs: &References,
    scratch: &Path,
    v: &mut Values,
) -> Result<Vec<ArmSamples>, String> {
    let jobs = setup.inputs.jobs.clone();
    let ligands = ligands_per_pass(&jobs) as f64;
    let threads = nproc();
    let n_jobs = jobs.len() as f64;
    let mut arms = Vec::new();

    // bare: core::screen_campaign on grids built beforehand.
    let mut bare = BareRig {
        jobs: jobs
            .iter()
            .map(|j| (j.clone(), setup.grids.get(j, j.campaign.grid_level())))
            .collect(),
        threads,
    };
    let (arm, _) = rung(rec, "ladder.bare", s, &mut bare, &refs.main, |_| ())?;
    let bare_ns = p10(&arm.wall_ns);
    arms.push(arm);
    drop(bare);

    // service: ScreenService; the cache counters and the stage clock of
    // its timed passes give the cache metrics.
    let mut service = ServiceRig::start(&rig_dir(scratch, "rung-service")?, jobs.clone(), threads)?;
    let mut cache0 = None;
    let mut stage_mark = 0;
    let handle = std::sync::Arc::clone(&service.service);
    let (arm, scale) = rung(rec, "ladder.service", s, &mut service, &refs.main, |rig| {
        cache0 = Some(handle.stats().cache);
        stage_mark = rig.stages().len();
    })?;
    let service_ns = p10(&arm.wall_ns);
    let passes = arm.attempted as f64;
    arms.push(arm);
    let (c0, c1) = (
        cache0.expect("set before the timed passes"),
        service.service.stats().cache,
    );
    let hits = (c1.hits - c0.hits) as f64;
    let misses = (c1.misses - c0.misses) as f64;
    let reloads = (c1.reloads - c0.reloads) as f64;
    let lookups = (hits + misses).max(1.0);
    v.set("cache.hit_share", hits / lookups);
    v.set("cache.reload_share", reloads / lookups);
    v.set("cache.rebuild_share", (misses - reloads) / lookups);
    v.set(
        "cache.spills_per_pass",
        (c1.spills - c0.spills) as f64 / passes,
    );
    let hit_us: Vec<f64> = service.stages()[stage_mark..]
        .iter()
        .filter(|t| t.grid_source == Some(GridSource::Hit))
        .filter_map(|t| t.grid_ns)
        .map(|ns| ns as f64 * 1e-3 * scale)
        .collect();
    v.set(
        "cache.get_us_hit",
        if hit_us.is_empty() {
            0.0
        } else {
            median(&hit_us)
        },
    );
    drop(service);

    // net: NetServer + Client; the per-request spans and the stage
    // clock of its timed passes give the net and stage metrics.
    let mut net = NetRig::start(&rig_dir(scratch, "rung-net")?, jobs.clone(), threads)?;
    let mut span_mark = 0;
    let mut stage_mark = 0;
    let (arm, scale) = rung(rec, "ladder.net", s, &mut net, &refs.main, |rig| {
        span_mark = rec.len();
        stage_mark = rig.stages().len();
    })?;
    let net_ns = p10(&arm.wall_ns);
    let net_jobs = arm.attempted as f64 * n_jobs;
    arms.push(arm);
    let spans = rec.spans_since(span_mark);
    let stages: &[StageTimings] = &net.stages()[stage_mark..];
    // The service's stage clock and the spans are raw: bring them to
    // the reference host speed.
    let p50_ms = |ns: Vec<f64>| {
        if ns.is_empty() {
            0.0
        } else {
            median(&ns) * 1e-6 * scale
        }
    };
    let stage = |pick: fn(&StageTimings) -> Option<u64>| {
        p50_ms(stages.iter().filter_map(pick).map(|ns| ns as f64).collect())
    };
    v.set("stage.queue_wait_ms_p50", stage(|t| t.queue_wait_ns));
    v.set("stage.grid_ms_p50", stage(|t| t.grid_ns));
    v.set("stage.dock_ms_p50", stage(|t| t.dock_ns));
    v.set("stage.sink_ms_p50", stage(|t| t.sink_ns));
    let polls = durations(&spans, "net.poll");
    v.set(
        "net.submit_rtt_ms_p50",
        p50_ms(durations(&spans, "net.submit")),
    );
    v.set("net.poll_rtt_ms_p50", p50_ms(polls.clone()));
    v.set(
        "net.results_ms_p50",
        p50_ms(durations(&spans, "net.results")),
    );
    v.set("net.polls_per_job", polls.len() as f64 / net_jobs);
    drop(net);

    // cluster: a coordinator in front of member nodes.
    let mut cluster = ClusterRig::start(&rig_dir(scratch, "rung-cluster")?, jobs, threads)?;
    let (arm, _) = rung(rec, "ladder.cluster", s, &mut cluster, &refs.main, |_| ())?;
    // The members' counters cover the warm-up passes too, so count
    // those passes' jobs as well.
    let cluster_jobs = (arm.attempted as f64 + WARMUP_REPS as f64) * n_jobs;
    v.set(
        "cluster.subjobs_per_job",
        cluster.subjobs() as f64 / cluster_jobs,
    );
    let cluster_ns = p10(&arm.wall_ns);
    arms.push(arm);
    drop(cluster);

    let rate = |ns: f64| ligands / (ns * 1e-9);
    v.set("ladder.bare_ligands_per_s", rate(bare_ns));
    v.set("ladder.service_ligands_per_s", rate(service_ns));
    v.set("ladder.net_ligands_per_s", rate(net_ns));
    v.set("ladder.cluster_ligands_per_s", rate(cluster_ns));
    v.set("service.tax", service_ns / bare_ns - 1.0);
    v.set("net.tax", net_ns / service_ns - 1.0);
    v.set("cluster.tax", cluster_ns / net_ns - 1.0);
    Ok(arms)
}
