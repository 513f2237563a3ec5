//! `mudock` — command-line front end for the docking pipeline.
//!
//! ```text
//! mudock info   <ligand.pdbqt>                       # inspect a molecule
//! mudock dock   --receptor R.pdbqt --ligand L.pdbqt  # dock one ligand
//!               [--backend avx2|autovec|reference|…]
//!               [--generations N] [--population P] [--seed S]
//!               [--local-search] [--out pose.pdbqt]
//! mudock dock   --demo                               # bundled 1a30-like complex
//! mudock screen --demo N [--threads T]               # synthetic screening batch
//! mudock serve  --demo N [--jobs J] [--threads T]    # screening service demo
//!               [--top K] [--chunk C] [--jsonl DIR] [--checkpoint DIR]
//! mudock serve  --listen ADDR [--jobs J] [--threads T] [--results DIR]
//!                                                    # network screening server
//! mudock submit --addr HOST:PORT (--demo N | --receptor R --ligands L)
//!               [campaign options] [--priority low|normal|high]
//! mudock poll   --addr HOST:PORT ID [--wait] [--results] [--cancel]
//! mudock stats  --addr HOST:PORT [--metrics]          # /stats JSON or /metrics text
//! ```
//!
//! Every subcommand builds one [`CampaignSpec`](mudock::core::CampaignSpec)
//! through `Campaign::builder()` from the shared flag set and hands it to
//! its entry point — `dock_campaign`, `screen_campaign`, or a serve
//! `JobSpec` — so the CLI, the library, and the service all run from the
//! same validated description. Invalid values (zero top-k, zero chunks,
//! negative radii, impossible GA shapes, unsupported SIMD pins) are
//! rejected by the builder with a typed error and exit code 2; runtime
//! failures exit 1.
//!
//! Argument parsing is hand-rolled (no CLI-crate dependency, matching the
//! workspace's minimal dependency policy).

use std::collections::HashMap;
use std::process::ExitCode;

use mudock::core::{
    screen_campaign, Backend, BackendPolicy, Campaign, CampaignError, CampaignSpec, ChunkPolicy,
    DockingEngine, GaParams, LigandPrep, ShardPolicy, SolisWetsParams, StopPolicy,
};
use mudock::grids::{GridBuilder, GridDims};
use mudock::mol::{Molecule, Vec3};

fn usage() -> &'static str {
    "usage:\n  mudock info <file.pdbqt>\n  mudock dock --receptor R.pdbqt --ligand L.pdbqt [options]\n  mudock dock --demo [options]\n  mudock screen --demo N [--threads T] [options]\n  mudock serve --demo N [--jobs J] [--threads T] [options]\n  mudock serve --listen ADDR [--jobs J] [--threads T] [--results DIR]\n  mudock coordinator --listen ADDR --nodes HOST:PORT,HOST:PORT[,...]\n  mudock submit --addr HOST:PORT (--demo N | --receptor R --ligands L) [options]\n  mudock poll --addr HOST:PORT ID [--wait] [--results] [--cancel] [--interval-ms MS]\n  mudock stats --addr HOST:PORT [--metrics]\n\ncampaign options (validated; bad values exit with code 2):\n  --backend <reference|autovec|scalar|sse2|avx2|avx512>  (default: best available;\n                    naming a SIMD level pins the job's grids to that level)\n  --generations N   (default 150)\n  --population P    (default 100)\n  --seed S          (default 42)\n  --radius R        search radius in Å (default: grid-derived)\n  --local-search    enable Solis-Wets Lamarckian refinement\n  --top K           ranking size (default 10)\n  --chunk C         ligands per chunk (default 16)\n  --chunk-target-ms MS   adaptive chunks sized to ~MS wall-clock each\n  --max-evals N     stop after N pose evaluations\n  --deadline-s S    stop after S seconds of wall-clock\n  --stable-window W stop once the top-k held still for W chunks\n  --stable-eps E    score tolerance for --stable-window (default 0)\n  --shard-weight W  relative executor share vs other receptors (default 1)\n  --single-queue    opt out of receptor sharding (pure priority/FIFO)\n\nother options:\n  --out FILE        write the best pose as PDBQT (dock only)\n  --threads T       worker threads (screen/serve)\n  --jobs J          concurrent service jobs (serve only, default 2)\n  --shards N        receptor shard groups slots are split across\n                    (serve only; default 0 = one per live receptor)\n  --cache N         grid sets kept resident (serve only, default 4)\n  --spill-dir DIR   spill evicted grids to DIR and reload on the next\n                    miss instead of rebuilding (serve only)\n  --spill-cap N     spill files kept in --spill-dir (default 16)\n  --cache-prefetch  reload the next queued job's spilled grids in the\n                    background while the current job docks (needs --spill-dir)\n  --cache-trace FILE  record grid-cache events as JSONL for offline policy\n                    replay with the cache_replay tool (serve only)\n  --jsonl DIR       stream per-ligand JSONL results into DIR (serve only)\n  --checkpoint DIR  write per-job chunk checkpoints into DIR (serve only)\n  --trace-file FILE append per-stage span JSONL to FILE, bounded (serve only)\n\nnetwork options:\n  --listen ADDR     serve the HTTP API on ADDR (port 0 picks one; serve only)\n  --results DIR     per-job JSONL result files (serve --listen only)\n  --allow-path-sources  accept server-side {\"path\": ...} sources (off by default)\n  --max-conns N     open connections held before load-shedding 503s\n                    (serve --listen only, default 1024)\n  --idle-s S        keep-alive idle-connection timeout in seconds (default 60)\n  --header-s S      request-header read deadline in seconds (default 10)\n  --event-loops N   frontend event-loop threads sharing the listen port\n                    (serve --listen and coordinator; default 0 = one per\n                    core, capped at 4; connections pin to one loop for life;\n                    Linux only — other platforms always run one loop)\n  --addr HOST:PORT  server to talk to (submit/poll)\n\ncoordinator options:\n  --nodes A,B,...   member `mudock serve --listen` addresses (required)\n  --health-ms MS    health-probe spacing (default 500)\n  --dead-after N    consecutive failures before a member is dead (default 3)\n  --scatter-min N   smallest library worth fanning out (default 8)\n  --max-parts N     scatter fan-out ceiling (default 16)\n  --poll-ms MS      sub-job poll interval (default 20)\n  --max-attempts N  dispatch attempts per window before failing (default 4)\n  --name NAME       campaign name (submit, default 'remote')\n  --priority P      low|normal|high (submit, default normal)\n  --ligands FILE    multi-model PDBQT ligand library (submit)\n  --receptor-seed S synthetic receptor seed for submit --demo, so two\n                    submissions can target different receptors/shards\n  --wait            poll until the job is terminal\n  --results (poll)  print the job's JSONL results\n  --cancel          request cancellation\n  --interval-ms MS  poll interval for --wait (default 100)\n  --metrics (stats) print the Prometheus /metrics text instead of /stats JSON"
}

/// CLI failure with its exit code: usage/validation errors (exit 2,
/// including every typed [`CampaignError`]) versus runtime errors
/// (exit 1).
enum CliError {
    Usage(String),
    Run(String),
}

impl From<CampaignError> for CliError {
    fn from(e: CampaignError) -> Self {
        CliError::Usage(format!("invalid campaign: {e}"))
    }
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Run(e)
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> Self {
        CliError::Run(e.into())
    }
}

/// Split argv into flags (`--k v` / bare `--k`) and positionals.
/// `boolean` names flags that never take a value, so `poll --wait 42`
/// keeps `42` as the positional job id instead of swallowing it as
/// `--wait`'s value.
fn parse_args(args: &[String], boolean: &[&str]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let takes_value =
                !boolean.contains(&key) && i + 1 < args.len() && !args[i + 1].starts_with("--");
            if takes_value {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), String::new());
                i += 1;
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (flags, positional)
}

fn load(path: &str) -> Result<Molecule, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Run(format!("{path}: {e}")))?;
    mudock::molio::parse(&text).map_err(|e| CliError::Run(format!("{path}: {e}")))
}

fn cmd_info(positional: &[String]) -> Result<(), CliError> {
    let path = positional.first().ok_or("info needs a file")?;
    let mol = load(path)?;
    mol.validate().map_err(|e| CliError::Run(e.to_string()))?;
    let topo = mudock::mol::Topology::build(&mol);
    println!(
        "name:            {}",
        if mol.name.is_empty() {
            "(unnamed)"
        } else {
            &mol.name
        }
    );
    println!("atoms:           {}", mol.atoms.len());
    println!(
        "heavy atoms:     {}",
        mol.atoms.iter().filter(|a| !a.ty.is_hydrogen()).count()
    );
    println!("bonds:           {}", mol.bonds.len());
    println!(
        "rotatable bonds: {} ({} usable torsions)",
        mol.num_rotatable_bonds(),
        topo.torsions.len()
    );
    println!("scored pairs:    {}", topo.pairs.len());
    println!("net charge:      {:+.3} e", mol.total_charge());
    println!("radius:          {:.2} Å", mol.radius());
    let mut types: Vec<String> = mol.atoms.iter().map(|a| a.ty.label().to_string()).collect();
    types.sort();
    types.dedup();
    println!("atom types:      {}", types.join(" "));
    Ok(())
}

fn num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --{key} value '{v}'"))),
    }
}

/// The one campaign every subcommand runs from, built and validated
/// from the shared flag set.
fn campaign_from(flags: &HashMap<String, String>, name: &str) -> Result<CampaignSpec, CliError> {
    let mut builder = Campaign::builder()
        .name(name)
        .ga(GaParams {
            population: num(flags, "population", 100usize)?,
            generations: num(flags, "generations", 150usize)?,
            ..Default::default()
        })
        .seed(num(flags, "seed", 42u64)?)
        .top_k(num(flags, "top", 10usize)?);
    if let Some(bname) = flags.get("backend") {
        let backend = Backend::parse(bname)
            .ok_or_else(|| CliError::Usage(format!("unknown backend '{bname}'")))?;
        builder = builder.backend(BackendPolicy::Fixed(backend));
    }
    if flags.contains_key("radius") {
        builder = builder.search_radius(num(flags, "radius", 0.0f32)?);
    }
    if flags.contains_key("local-search") {
        builder = builder.local_search(SolisWetsParams::default());
    }
    builder = builder.chunk(if flags.contains_key("chunk-target-ms") {
        ChunkPolicy::Adaptive {
            target: std::time::Duration::from_millis(num(flags, "chunk-target-ms", 1000u64)?),
        }
    } else {
        ChunkPolicy::Fixed(num(flags, "chunk", 16usize)?)
    });
    if flags.contains_key("single-queue") && flags.contains_key("shard-weight") {
        return Err(CliError::Usage(
            "--single-queue opts out of sharding; it conflicts with --shard-weight".into(),
        ));
    }
    if flags.contains_key("single-queue") {
        builder = builder.shard(ShardPolicy::SingleQueue);
    } else if flags.contains_key("shard-weight") {
        builder = builder.shard_weight(num(flags, "shard-weight", 1.0f32)?);
    }
    let stop_flags: Vec<&str> = ["max-evals", "deadline-s", "stable-window"]
        .into_iter()
        .filter(|k| flags.contains_key(*k))
        .collect();
    if stop_flags.len() > 1 {
        return Err(CliError::Usage(format!(
            "choose one stop policy: --{} conflict",
            stop_flags.join(" and --")
        )));
    }
    if flags.contains_key("stable-eps") && !flags.contains_key("stable-window") {
        return Err(CliError::Usage("--stable-eps needs --stable-window".into()));
    }
    match stop_flags.first().copied() {
        Some("max-evals") => {
            builder = builder.stop(StopPolicy::MaxEvaluations(num(flags, "max-evals", 0u64)?));
        }
        Some("deadline-s") => {
            let secs: f64 = num(flags, "deadline-s", 0.0f64)?;
            // try_from: a finite but absurd value (1e300 overflows
            // Duration) must exit 2 like every other bad flag, not
            // panic.
            let deadline = if secs.is_finite() && secs >= 0.0 {
                std::time::Duration::try_from_secs_f64(secs).ok()
            } else {
                None
            };
            let Some(deadline) = deadline else {
                return Err(CliError::Usage(format!(
                    "bad --deadline-s value '{secs}': must be a non-negative number of seconds \
                     a deadline can hold"
                )));
            };
            builder = builder.stop(StopPolicy::Deadline(deadline));
        }
        Some("stable-window") => {
            builder = builder.stop(StopPolicy::RankingStable {
                window: num(flags, "stable-window", 0usize)?,
                epsilon: num(flags, "stable-eps", 0.0f32)?,
            });
        }
        _ => {}
    }
    Ok(builder.build()?)
}

fn complex_from(flags: &HashMap<String, String>) -> Result<(Molecule, Molecule), CliError> {
    if flags.contains_key("demo") {
        let (r, l) = mudock::molio::complex_1a30_like();
        return Ok((r, l));
    }
    let r = load(flags.get("receptor").ok_or("need --receptor or --demo")?)?;
    let l = load(flags.get("ligand").ok_or("need --ligand or --demo")?)?;
    Ok((r, l))
}

fn build_grids(
    receptor: &Molecule,
    ligands: &[&Molecule],
    spec: &CampaignSpec,
) -> mudock::grids::GridSet {
    let mut types: Vec<mudock::ff::AtomType> = ligands
        .iter()
        .flat_map(|l| l.atoms.iter().map(|a| a.ty))
        .collect();
    types.sort_unstable();
    types.dedup();
    // Box centered on the receptor pocket, covering the receptor span,
    // built at the campaign's pinned (or detected) SIMD level.
    GridBuilder::new(receptor, spec.dims_for(receptor))
        .with_types(&types)
        .build_simd(spec.grid_level())
}

fn cmd_dock(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let (receptor, ligand) = complex_from(flags)?;
    let spec = campaign_from(flags, "dock")?;
    eprintln!(
        "docking {} ({} atoms) into {} ({} atoms) with backend {}…",
        if ligand.name.is_empty() {
            "ligand"
        } else {
            &ligand.name
        },
        ligand.atoms.len(),
        if receptor.name.is_empty() {
            "receptor"
        } else {
            &receptor.name
        },
        receptor.atoms.len(),
        spec.backend.resolve()
    );
    let grids = build_grids(&receptor, &[&ligand], &spec);
    let engine = DockingEngine::new(&grids).map_err(|e| e.to_string())?;
    let prep = LigandPrep::new(ligand).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let report = engine
        .dock_campaign(&prep, &spec)
        .map_err(|e| e.to_string())?;
    println!(
        "best score: {:.3} kcal/mol  ({} evaluations in {:.2?})",
        report.best_score,
        report.evaluations,
        t0.elapsed()
    );
    println!(
        "improvement: {:.3} → {:.3} over {} generations",
        report.history[0],
        report.history.last().unwrap(),
        report.history.len()
    );

    if let Some(out) = flags.get("out") {
        // Write the best pose: transform a copy of the prepared molecule.
        let mut posed = prep.mol.clone();
        let mut conf = mudock::mol::ConformSoA::with_capacity(prep.base.n);
        mudock::core::transform::apply_pose_reference(
            &prep.base,
            &prep.plans,
            &report.best_genotype,
            &mut conf,
        );
        for (i, a) in posed.atoms.iter_mut().enumerate() {
            a.pos = conf.pos(i);
        }
        posed.name = format!("{} (docked)", posed.name);
        std::fs::write(out, mudock::molio::write(&posed)).map_err(|e| e.to_string())?;
        println!("best pose written to {out}");
    }
    Ok(())
}

/// The `N` of `--demo N`: `default` for a bare `--demo`, an error (not
/// a silent fallback) when a value is present but unparsable.
fn demo_count(flags: &HashMap<String, String>, default: usize) -> Result<usize, CliError> {
    match flags.get("demo").map(String::as_str) {
        None | Some("") => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --demo value '{v}'"))),
    }
}

/// A demo campaign: the shared flags, plus a snappy generation count
/// unless the user asked for one explicitly.
fn demo_campaign(flags: &HashMap<String, String>, name: &str) -> Result<CampaignSpec, CliError> {
    let mut spec = campaign_from(flags, name)?;
    if !flags.contains_key("generations") {
        spec.ga.generations = 60; // keep the demo snappy
    }
    Ok(spec)
}

/// The bundled synthetic screening complex every demo mode shares.
/// `screen --demo`, `serve --demo`, and `submit --demo` must screen
/// the same target on the same lattice — `submit`'s rankings are only
/// comparable to the local demos because these constants are the
/// single source of that complex.
const DEMO_RECEPTOR_SEED: u64 = 0xd0c6;
const DEMO_RECEPTOR_ATOMS: usize = 300;
const DEMO_RECEPTOR_RADIUS: f32 = 9.0;

fn demo_receptor() -> Molecule {
    mudock::molio::synthetic_receptor(
        DEMO_RECEPTOR_SEED,
        DEMO_RECEPTOR_ATOMS,
        DEMO_RECEPTOR_RADIUS,
    )
}

fn demo_grid_dims() -> GridDims {
    GridDims::centered(Vec3::ZERO, 11.0, 0.6)
}

fn cmd_screen(flags: &HashMap<String, String>) -> Result<(), CliError> {
    if !flags.contains_key("demo") {
        return Err(CliError::Usage(
            "screen currently supports --demo N (synthetic batch)".into(),
        ));
    }
    let n = demo_count(flags, 16)?;
    let threads = num(flags, "threads", mudock::pool::default_threads())?;
    let mut spec = demo_campaign(flags, "screen-demo")?;
    spec.grid_dims = Some(demo_grid_dims());
    let receptor = demo_receptor();
    let ligands = mudock::molio::mediate_like_set(spec.seed, n);
    eprintln!("screening {n} synthetic ligands on {threads} threads…");
    let grids = GridBuilder::new(&receptor, spec.dims_for(&receptor)).build_simd(spec.grid_level());
    let summary = screen_campaign(&grids, &ligands, &spec, threads);
    println!(
        "{} ligands in {:.2?} → {:.1} ligands/s",
        summary.results.len(),
        summary.elapsed,
        summary.throughput
    );
    println!("\nrank  ligand                              score (kcal/mol)");
    for (rank, idx) in summary.top_k(spec.top_k.min(n)).into_iter().enumerate() {
        let r = &summary.results[idx];
        println!(
            "{:>4}  {:<34} {:>10.3}",
            rank + 1,
            r.name,
            r.best_score.unwrap()
        );
    }
    Ok(())
}

/// The service sizing every `serve` mode shares, from the flag set:
/// `--threads`, `--jobs`, `--shards`, `--cache`, the spill tier
/// (`--spill-dir`, `--spill-cap`), and the cache lab knobs
/// (`--cache-prefetch`, `--cache-trace`).
fn serve_config_from(
    flags: &HashMap<String, String>,
    job_slots: usize,
    threads: usize,
) -> Result<mudock::serve::ServeConfig, CliError> {
    use mudock::serve::{ServeConfig, SpillConfig};
    let defaults = ServeConfig::default();
    let spill = match flags.get("spill-dir").filter(|d| !d.is_empty()) {
        Some(dir) => Some(SpillConfig {
            dir: dir.into(),
            capacity: num(flags, "spill-cap", 16usize)?.max(1),
        }),
        None => {
            if flags.contains_key("spill-cap") {
                return Err(CliError::Usage("--spill-cap needs --spill-dir".into()));
            }
            None
        }
    };
    let cache_capacity = num(flags, "cache", defaults.cache_capacity)?;
    if spill.is_some() && cache_capacity == 0 {
        return Err(CliError::Usage(
            "--spill-dir needs --cache >= 1: capacity 0 disables caching entirely, \
             so nothing would ever spill or reload"
                .into(),
        ));
    }
    let cache_prefetch = flags.contains_key("cache-prefetch");
    if cache_prefetch && spill.is_none() {
        return Err(CliError::Usage(
            "--cache-prefetch needs --spill-dir: prefetch reloads spilled grids, \
             it never builds"
                .into(),
        ));
    }
    Ok(ServeConfig {
        total_threads: threads,
        job_slots,
        shards: num(flags, "shards", 0usize)?,
        cache_capacity,
        spill,
        cache_prefetch,
        cache_trace: flags
            .get("cache-trace")
            .filter(|p| !p.is_empty())
            .map(std::path::PathBuf::from),
        trace: flags
            .get("trace-file")
            .filter(|p| !p.is_empty())
            .map(mudock::serve::TraceConfig::new),
        ..defaults
    })
}

/// Demo of the screening service: J concurrent jobs against one shared
/// synthetic receptor, showing the grid cache, fair thread sharing, and
/// incremental top-k sinks in action.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use mudock::serve::{JobSpec, LigandSource, ScreenService};
    use std::sync::Arc;

    if flags.contains_key("listen") {
        return cmd_serve_listen(flags);
    }
    if !flags.contains_key("demo") {
        return Err(CliError::Usage(
            "serve needs --demo N (synthetic batch per job) or --listen ADDR (network server)"
                .into(),
        ));
    }
    let n = demo_count(flags, 32)?;
    let jobs: usize = num(flags, "jobs", 2usize)?.max(1);
    let threads = num(flags, "threads", mudock::pool::default_threads())?;
    let base = {
        let mut c = demo_campaign(flags, "demo")?;
        c.grid_dims = Some(demo_grid_dims());
        c
    };

    let cfg = serve_config_from(flags, jobs.min(threads).max(1), threads)?;
    let service = ScreenService::try_start(cfg)
        .map_err(|e| CliError::Run(format!("starting service: {e}")))?;
    let receptor = Arc::new(demo_receptor());

    eprintln!("serving {jobs} jobs × {n} ligands on {threads} threads…");
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = (0..jobs)
        .map(|j| {
            let campaign = CampaignSpec {
                name: format!("demo-{j}"),
                ..base.clone()
            };
            let mut spec = JobSpec {
                receptor: Arc::clone(&receptor),
                ligands: LigandSource::synth(base.seed.wrapping_add(j as u64), n),
                ..JobSpec::from(campaign)
            };
            if let Some(dir) = flags.get("jsonl") {
                spec.jsonl = Some(std::path::Path::new(dir).join(format!("demo-{j}.jsonl")));
            }
            if let Some(dir) = flags.get("checkpoint") {
                spec.checkpoint = Some(std::path::Path::new(dir).join(format!("demo-{j}.ckpt")));
            }
            service
                .submit(spec)
                .map_err(|e| CliError::Run(e.to_string()))
        })
        .collect::<Result<_, _>>()?;

    for handle in handles {
        let o = handle.wait();
        println!(
            "job {:<10} {:?}{}  {} ligands in {:.2?}  grid {}  best:",
            o.name,
            o.state,
            if o.stopped_early { " (early stop)" } else { "" },
            o.ligands_done,
            o.elapsed,
            if o.grid_cache_hit {
                "cache-hit"
            } else {
                "built"
            },
        );
        if let Some(err) = &o.error {
            println!("  error: {err}");
        }
        for (rank, r) in o.top.iter().enumerate() {
            println!("  {:>3}  {:<34} {:>10.3}", rank + 1, r.name, r.score);
        }
    }
    let elapsed = t0.elapsed();
    let stats = service.stats();
    println!(
        "\n{} ligands docked live in {:.2?} → {:.1} ligands/s  (cache: {} hit / {} miss, {:.0} % hit rate)",
        stats.ligands_docked,
        elapsed,
        stats.ligands_docked as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.cache.hits,
        stats.cache.misses,
        100.0 * stats.cache.hit_rate(),
    );
    service.shutdown();
    Ok(())
}

/// `mudock serve --listen ADDR`: the screening node as a network
/// service. Binds the HTTP frontend over a [`ScreenService`] and runs
/// until killed. The resolved address (important for `--listen …:0`)
/// is printed to stdout so scripts can capture the port.
fn cmd_serve_listen(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use mudock::serve::{NetConfig, NetServer, ScreenService};
    use std::sync::Arc;

    let addr = flags
        .get("listen")
        .filter(|a| !a.is_empty())
        .ok_or_else(|| CliError::Usage("--listen needs an ADDR (e.g. 127.0.0.1:7979)".into()))?;
    let jobs: usize = num(flags, "jobs", 2usize)?.max(1);
    let threads = num(flags, "threads", mudock::pool::default_threads())?;
    let cfg = serve_config_from(flags, jobs, threads)?;
    let service = Arc::new(
        ScreenService::try_start(cfg)
            .map_err(|e| CliError::Run(format!("starting service: {e}")))?,
    );
    let mut cfg = NetConfig::default();
    if let Some(dir) = flags.get("results").filter(|d| !d.is_empty()) {
        cfg.results_dir = dir.into();
    }
    // Off by default: on an open socket, server-side path sources are
    // a filesystem probe. Inline PDBQT text always works.
    cfg.allow_path_sources = flags.contains_key("allow-path-sources");
    cfg.max_connections = num(flags, "max-conns", cfg.max_connections)?.max(1);
    cfg.idle_timeout =
        std::time::Duration::from_secs(num(flags, "idle-s", cfg.idle_timeout.as_secs())?.max(1));
    cfg.header_timeout = std::time::Duration::from_secs(
        num(flags, "header-s", cfg.header_timeout.as_secs())?.max(1),
    );
    // 0 = auto (one loop per core, capped at 4).
    cfg.event_loops = num(flags, "event-loops", cfg.event_loops)?;
    let server = NetServer::bind(addr.as_str(), Arc::clone(&service), cfg)
        .map_err(|e| CliError::Run(format!("bind {addr}: {e}")))?;
    println!("mudock-serve listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    eprintln!(
        "endpoints: POST /jobs, GET /jobs/{{id}}, GET /jobs/{{id}}/results, \
         DELETE /jobs/{{id}}, GET /healthz, GET /stats, GET /metrics"
    );
    // Serve until the process is killed; jobs run on the service's
    // executors, connections on the frontend's event-loop thread.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `mudock coordinator --listen ADDR --nodes A,B`: federate existing
/// serve nodes into one screening cluster. Speaks the node dialect on
/// the frontend, so `mudock submit/poll/stats` work against it
/// unchanged.
fn cmd_coordinator(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use mudock::cluster::{ClusterConfig, Coordinator};

    let addr = flags
        .get("listen")
        .filter(|a| !a.is_empty())
        .ok_or_else(|| CliError::Usage("--listen needs an ADDR (e.g. 127.0.0.1:7878)".into()))?;
    let nodes: Vec<String> = flags
        .get("nodes")
        .map(|n| {
            n.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect()
        })
        .unwrap_or_default();
    if nodes.is_empty() {
        return Err(CliError::Usage(
            "coordinator needs --nodes HOST:PORT[,HOST:PORT...]".into(),
        ));
    }
    let defaults = ClusterConfig::default();
    let cfg = ClusterConfig {
        nodes,
        health_interval: std::time::Duration::from_millis(
            num(
                flags,
                "health-ms",
                defaults.health_interval.as_millis() as u64,
            )?
            .max(10),
        ),
        dead_after: num(flags, "dead-after", defaults.dead_after)?.max(1),
        scatter_min_ligands: num(flags, "scatter-min", defaults.scatter_min_ligands)?,
        max_parts: num(flags, "max-parts", defaults.max_parts)?.max(1),
        poll_interval: std::time::Duration::from_millis(
            num(flags, "poll-ms", defaults.poll_interval.as_millis() as u64)?.max(1),
        ),
        max_attempts: num(flags, "max-attempts", defaults.max_attempts)?.max(1),
        allow_path_sources: flags.contains_key("allow-path-sources"),
        event_loops: num(flags, "event-loops", defaults.event_loops)?,
        ..defaults
    };
    let n_nodes = cfg.nodes.len();
    let coordinator = Coordinator::bind(addr.as_str(), cfg)
        .map_err(|e| CliError::Run(format!("bind {addr}: {e}")))?;
    println!(
        "mudock-coordinator listening on {}",
        coordinator.local_addr()
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    eprintln!(
        "federating {n_nodes} node(s); endpoints: POST /jobs, GET /jobs/{{id}}, \
         GET /jobs/{{id}}/results, DELETE /jobs/{{id}}, GET /healthz, GET /stats, GET /metrics"
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `mudock submit`: build a campaign from the shared flag set and POST
/// it to a remote server. Prints the assigned job id (alone, on
/// stdout) for scripting.
fn cmd_submit(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use mudock::serve::net::client;
    use mudock::serve::{wire, LigandSource, Priority, ReceptorSource};

    let addr = flags
        .get("addr")
        .filter(|a| !a.is_empty())
        .ok_or_else(|| CliError::Usage("submit needs --addr HOST:PORT".into()))?;
    let name = flags
        .get("name")
        .cloned()
        .unwrap_or_else(|| "remote".into());
    let priority = match flags.get("priority").map(String::as_str) {
        None | Some("") => Priority::Normal,
        Some(p) => wire::priority_parse(p)
            .ok_or_else(|| CliError::Usage(format!("bad --priority '{p}' (low|normal|high)")))?,
    };
    let (spec, receptor, ligands) = if flags.contains_key("demo") {
        let n = demo_count(flags, 16)?;
        let mut spec = demo_campaign(flags, &name)?;
        // The same synthetic complex (and lattice) the local serve
        // demo screens — unless --receptor-seed picks a different
        // synthetic target, which lands the job in its own shard (the
        // multi-receptor testing hook the CI shard smoke uses).
        spec.grid_dims = Some(demo_grid_dims());
        (
            spec,
            ReceptorSource::Synth {
                seed: num(flags, "receptor-seed", DEMO_RECEPTOR_SEED)?,
                atoms: DEMO_RECEPTOR_ATOMS,
                radius: DEMO_RECEPTOR_RADIUS,
            },
            LigandSource::synth(num(flags, "seed", 42u64)?, n),
        )
    } else {
        let rpath = flags
            .get("receptor")
            .filter(|p| !p.is_empty())
            .ok_or_else(|| {
                CliError::Usage(
                    "submit needs --demo N or --receptor R.pdbqt --ligands L.pdbqt".into(),
                )
            })?;
        let lpath = flags
            .get("ligands")
            .filter(|p| !p.is_empty())
            .ok_or_else(|| {
                CliError::Usage(
                    "submit needs --ligands FILE (multi-model PDBQT) with --receptor".into(),
                )
            })?;
        // Read both client-side and ship the text inline, so the server
        // does not need a shared filesystem.
        let rtext =
            std::fs::read_to_string(rpath).map_err(|e| CliError::Run(format!("{rpath}: {e}")))?;
        let ltext =
            std::fs::read_to_string(lpath).map_err(|e| CliError::Run(format!("{lpath}: {e}")))?;
        (
            campaign_from(flags, &name)?,
            ReceptorSource::Pdbqt(rtext),
            LigandSource::from_pdbqt(ltext),
        )
    };
    let id = client::submit(addr, &spec, &receptor, &ligands, priority)
        .map_err(|e| CliError::Run(e.to_string()))?;
    eprintln!("submitted campaign '{name}' to {addr} as job {id}");
    println!("{id}");
    Ok(())
}

/// `mudock poll`: status / wait / results / cancel against a remote
/// job. Status and results go to stdout verbatim (JSON / JSONL).
fn cmd_poll(flags: &HashMap<String, String>, positional: &[String]) -> Result<(), CliError> {
    use mudock::serve::net::client;
    use mudock::serve::JobState;

    let addr = flags
        .get("addr")
        .filter(|a| !a.is_empty())
        .ok_or_else(|| CliError::Usage("poll needs --addr HOST:PORT".into()))?;
    let id: u64 = positional
        .first()
        .ok_or_else(|| CliError::Usage("poll needs a job id".into()))?
        .parse()
        .map_err(|_| CliError::Usage(format!("bad job id '{}'", positional[0])))?;
    let run = |e: client::ClientError| CliError::Run(e.to_string());

    if flags.contains_key("cancel") {
        let status = client::cancel(addr, id).map_err(run)?;
        eprintln!(
            "job {id}: cancellation requested (state {})",
            mudock::serve::wire::state_name(status.state)
        );
    }
    if flags.contains_key("wait") {
        let interval = std::time::Duration::from_millis(num(flags, "interval-ms", 100u64)?.max(1));
        let status = client::wait(addr, id, interval).map_err(run)?;
        if status.state == JobState::Failed {
            let why = status
                .outcome
                .and_then(|o| o.error)
                .unwrap_or_else(|| "no error detail".into());
            return Err(CliError::Run(format!("job {id} failed: {why}")));
        }
    }
    if flags.contains_key("results") {
        print!("{}", client::results(addr, id).map_err(run)?);
        return Ok(());
    }
    let resp = client::request(addr, "GET", &format!("/jobs/{id}"), None)
        .map_err(run)?
        .ok()
        .map_err(run)?;
    println!("{}", resp.body);
    Ok(())
}

/// `mudock stats`: one `/stats` snapshot (JSON) from a remote server —
/// or, with `--metrics`, the raw Prometheus text exposition. Both go
/// to stdout verbatim for piping into `jq` / `promtool`.
fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use mudock::serve::net::client;

    let addr = flags
        .get("addr")
        .filter(|a| !a.is_empty())
        .ok_or_else(|| CliError::Usage("stats needs --addr HOST:PORT".into()))?;
    let path = if flags.contains_key("metrics") {
        "/metrics"
    } else {
        "/stats"
    };
    let run = |e: client::ClientError| CliError::Run(e.to_string());
    let resp = client::request(addr, "GET", path, None)
        .map_err(run)?
        .ok()
        .map_err(run)?;
    print!("{}", resp.body);
    if !resp.body.ends_with('\n') {
        println!();
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    // Per-command boolean flags (never consume the next argument).
    // `--demo` is absent on purpose: its optional value (`--demo N`)
    // relies on the greedy form. For `poll`, `--results` is boolean;
    // for `serve` it takes a directory.
    let boolean: &[&str] = match cmd.as_str() {
        "poll" => &["wait", "cancel", "results"],
        "stats" => &["metrics"],
        "serve" => &[
            "local-search",
            "allow-path-sources",
            "single-queue",
            "cache-prefetch",
        ],
        "coordinator" => &["allow-path-sources"],
        "dock" | "screen" | "submit" => &["local-search", "single-queue"],
        _ => &[],
    };
    let (flags, positional) = parse_args(&args[1..], boolean);
    let result = match cmd.as_str() {
        "info" => cmd_info(&positional),
        "dock" => cmd_dock(&flags),
        "screen" => cmd_screen(&flags),
        "serve" => cmd_serve(&flags),
        "coordinator" => cmd_coordinator(&flags),
        "submit" => cmd_submit(&flags),
        "poll" => cmd_poll(&flags, &positional),
        "stats" => cmd_stats(&flags),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n{}",
            usage()
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Err(CliError::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
