//! Every name and every size of the benchmark. There are no tuning
//! switches: a change here is a change of the benchmark, and the
//! baseline is measured again after it.

use mudock_molio::LigandSpec;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DockSmall,
    DockLarge,
    ServeHot,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DockSmall,
        Workload::DockLarge,
        Workload::ServeHot,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DockSmall => "dock_small",
            Workload::DockLarge => "dock_large",
            Workload::ServeHot => "serve_hot",
            Workload::ServeChurn => "serve_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::DockSmall => DOCK_SMALL,
            Workload::DockLarge => DOCK_LARGE,
            Workload::ServeHot => SERVE_HOT,
            Workload::ServeChurn => SERVE_CHURN,
        }
    }
}

/// The ligands of a workload: `molio::synth::synthetic_ligand` draws
/// of `spec`, kept only when the prepared ligand's padded atom and pair
/// counts and its torsion count are exactly these, and the share of its
/// pairs that lie within the non-bonded cutoff (in the base
/// conformation) is inside `in_cutoff`. The kernels walk padded
/// lengths, and the one-lane intra kernel skips pairs beyond the
/// cutoff, so every ligand of a class costs about the same to score
/// with every backend, and a run's work does not depend on its seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LigandClass {
    pub spec: LigandSpec,
    pub atoms_padded: usize,
    pub pairs_padded: usize,
    /// Lowest and highest share of pairs within `ff::params::NB_CUTOFF`.
    pub in_cutoff: (f32, f32),
}

/// The most common class of each ligand size (56 %, 13 % and 5 % of
/// draws), and the middle fifth of its in-cutoff shares.
pub const SMALL_LIGAND: LigandClass = LigandClass {
    spec: LigandSpec {
        heavy_atoms: 10,
        torsions: 1,
    },
    atoms_padded: 16,
    pairs_padded: 32,
    in_cutoff: (1.0, 1.0),
};
pub const MEDIUM_LIGAND: LigandClass = LigandClass {
    spec: LigandSpec {
        heavy_atoms: 24,
        torsions: 6,
    },
    atoms_padded: 32,
    pairs_padded: 320,
    in_cutoff: (0.91, 0.95),
};
pub const LARGE_LIGAND: LigandClass = LigandClass {
    spec: LigandSpec {
        heavy_atoms: 48,
        torsions: 12,
    },
    atoms_padded: 64,
    pairs_padded: 1568,
    in_cutoff: (0.69, 0.75),
};

/// How a workload's ligands reach the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// In-process `core::screen` on one thread.
    Screen,
    /// `NetServer` + `net::client::Client` over loopback.
    Net,
    /// In-process `ScreenService`, no socket.
    Service,
}

/// The sizes of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub path: Path,
    /// Receptors in play, and atoms / pocket radius (Å) of each.
    pub receptors: usize,
    pub receptor_atoms: usize,
    pub pocket_radius: f32,
    /// Grid half extent and spacing (Å).
    pub half_extent: f32,
    pub spacing: f32,
    /// Jobs per rep; job `j` docks against receptor `CHURN_RANKS[j]`
    /// when there are several receptors.
    pub jobs: usize,
    pub ligands_per_job: usize,
    pub ligand: LigandClass,
    pub population: usize,
    pub generations: usize,
    /// Solis–Wets refinement: `SolisWetsParams::default()` with
    /// `rho_min: 0` and `max_evals: LOCAL_SEARCH_EVALS`, so that a call
    /// always spends exactly its budget.
    pub local_search: bool,
    pub search_radius: f32,
    /// The `Backend::AutoVec` arm docks this many jobs, and this many
    /// ligands of each, so its reps take about as long as the main
    /// arm's.
    pub portable_jobs: usize,
    pub portable_ligands: usize,
}

/// Kernels idle on ~13 atoms across 16 lanes; `Ga::evolve`,
/// `LigandPrep::new` and per-pose fixed cost do most of the work. Maps
/// of 33³ points fit L2.
pub const DOCK_SMALL: Shape = Shape {
    path: Path::Screen,
    receptors: 1,
    receptor_atoms: 150,
    pocket_radius: 9.0,
    half_extent: 12.0,
    spacing: 0.75,
    jobs: 1,
    ligands_per_job: 32,
    ligand: SMALL_LIGAND,
    population: 100,
    generations: 30,
    local_search: false,
    search_radius: 6.0,
    portable_jobs: 1,
    portable_ligands: 8,
};

/// Lamarckian GA on big ligands over 77³-point maps (29 MB ≫ L2):
/// gathers and intra pairs do nearly all the work, and Solis–Wets
/// scores one dependent pose at a time.
pub const DOCK_LARGE: Shape = Shape {
    path: Path::Screen,
    receptors: 1,
    receptor_atoms: 100,
    pocket_radius: 9.0,
    half_extent: 14.0,
    spacing: 0.375,
    jobs: 1,
    ligands_per_job: 4,
    ligand: LARGE_LIGAND,
    population: 50,
    generations: 20,
    local_search: true,
    search_radius: 7.0,
    portable_jobs: 1,
    portable_ligands: 2,
};

/// Small jobs over the whole wire path, one receptor: decode, parse,
/// queue, sink and the event loop are a large share of a rep.
pub const SERVE_HOT: Shape = Shape {
    path: Path::Net,
    receptors: 1,
    receptor_atoms: 150,
    pocket_radius: 9.0,
    half_extent: 11.0,
    spacing: 0.55,
    jobs: 1,
    ligands_per_job: 16,
    ligand: MEDIUM_LIGAND,
    population: 50,
    generations: 20,
    local_search: false,
    search_radius: 5.5,
    portable_jobs: 1,
    portable_ligands: 4,
};

/// Six receptors through a two-entry cache with a two-file spill tier:
/// grid build, save and load and the cache policy do most of the work.
pub const SERVE_CHURN: Shape = Shape {
    path: Path::Service,
    receptors: 6,
    receptor_atoms: 60,
    pocket_radius: 8.0,
    half_extent: 8.0,
    spacing: 0.75,
    jobs: 24,
    ligands_per_job: 8,
    ligand: MEDIUM_LIGAND,
    population: 20,
    generations: 10,
    local_search: false,
    search_radius: 4.0,
    portable_jobs: 6,
    portable_ligands: 4,
};

/// Receptor rank of each job of a `serve_churn` pass: request counts
/// 10, 5, 3, 2, 2, 2 over ranks 0–5 — Zipf(1) over six receptors,
/// rounded to 24 jobs. The order is fixed, and the seed decides which
/// receptor holds which rank, so that every seed sees the same numbers
/// of hits, spill reloads and rebuilds.
pub const CHURN_RANKS: [usize; 24] = [
    0, 0, 1, 0, 2, 0, 1, 3, 0, 0, 1, 4, 0, 2, 1, 5, 0, 0, 3, 1, 0, 2, 4, 5,
];

/// Scorings per Solis–Wets call where a workload refines.
pub const LOCAL_SEARCH_EVALS: usize = 64;

/// Resident entries and spill files of every `ScreenService` the
/// benchmark starts.
pub const CACHE_CAPACITY: usize = 2;
pub const SPILL_CAPACITY: usize = 2;

/// Untimed reps before the timed ones, in each set-up.
pub const WARMUP_REPS: usize = 2;
/// The whole set-up runs this many times; the median is reported and
/// the last one's products are kept.
pub const SETUPS: usize = 3;
/// Sleep between two polls of a job over the wire.
pub const POLL_INTERVAL: std::time::Duration = std::time::Duration::from_millis(2);
/// Member nodes behind the coordinator of the ladder's top rung.
pub const CLUSTER_MEMBERS: usize = 2;
/// Genotypes kept per ligand and generation for the kernel replays.
pub const POSES_PER_GENERATION: usize = 2;
/// Elements of the arrays the `simd` primitives are timed on (16 KiB
/// in, 16 KiB out: L1-resident).
pub const SIMD_ELEMS: usize = 4096;

pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("ligands_per_s", "ligands/s", "higher"),
    m("portable_ligands_per_s", "ligands/s", "higher"),
    m("cpu_ms_per_ligand", "ms", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

pub const PER_LAYER: &[MetricDef] = &[
    m("simd.exp_ns_per_elem", "ns", "lower"),
    m("simd.rsqrt_ns_per_elem", "ns", "lower"),
    m("transform.ns_per_pose", "ns", "lower"),
    m("inter.ns_per_pose", "ns", "lower"),
    m("inter.lookups_per_s", "1/s", "higher"),
    m("inter.computed_bytes_per_pose", "bytes", "lower"),
    m("inter.computed_gb_per_s", "GB/s", "higher"),
    m("inter.computed_flops_per_byte", "flops/byte", "higher"),
    m("intra.ns_per_pose", "ns", "lower"),
    m("intra.pairs_per_s", "1/s", "higher"),
    m("engine.score_ns_per_pose", "ns", "lower"),
    m("engine.score_ns_per_pose_portable", "ns", "lower"),
    m("engine.score_ns_per_pose_reference", "ns", "lower"),
    m("engine.simd_speedup", "ratio", "higher"),
    m("engine.portable_gap", "ratio", "lower"),
    m("engine.glue_share", "share", "lower"),
    m("engine.prep_us_per_ligand", "us", "lower"),
    m("engine.dock_ms_per_ligand", "ms", "lower"),
    m("ga.evolve_us_per_gen", "us", "lower"),
    m("ga.share_of_dock", "share", "lower"),
    m("local_search.us_per_call", "us", "lower"),
    m("local_search.share_of_dock", "share", "lower"),
    m("count.poses_scored", "count", "lower"),
    m("count.pairs_evaluated", "count", "lower"),
    m("count.grid_lookups", "count", "lower"),
    m("count.torsion_rotations", "count", "lower"),
    m("count.generations", "count", "lower"),
    m("pool.speedup_nproc", "ratio", "higher"),
    m("pool.busy_share", "share", "higher"),
    m("grids.build_ms", "ms", "lower"),
    m("grids.save_ms", "ms", "lower"),
    m("grids.load_ms", "ms", "lower"),
    m("grids.bytes", "bytes", "lower"),
    m("molio.parse_us_per_ligand", "us", "lower"),
    m("molio.synth_us_per_ligand", "us", "lower"),
    m("wire.decode_us_per_submission", "us", "lower"),
    m("wire.encode_us_per_submission", "us", "lower"),
    m("wire.body_bytes", "bytes", "lower"),
    m("cache.hit_share", "share", "higher"),
    m("cache.reload_share", "share", "lower"),
    m("cache.rebuild_share", "share", "lower"),
    m("cache.get_us_hit", "us", "lower"),
    m("cache.spills_per_pass", "count", "lower"),
    m("stage.queue_wait_ms_p50", "ms", "lower"),
    m("stage.grid_ms_p50", "ms", "lower"),
    m("stage.dock_ms_p50", "ms", "lower"),
    m("stage.sink_ms_p50", "ms", "lower"),
    m("net.submit_rtt_ms_p50", "ms", "lower"),
    m("net.poll_rtt_ms_p50", "ms", "lower"),
    m("net.results_ms_p50", "ms", "lower"),
    m("net.polls_per_job", "count", "lower"),
    m("ladder.bare_ligands_per_s", "ligands/s", "higher"),
    m("ladder.service_ligands_per_s", "ligands/s", "higher"),
    m("ladder.net_ligands_per_s", "ligands/s", "higher"),
    m("ladder.cluster_ligands_per_s", "ligands/s", "higher"),
    m("service.tax", "ratio", "lower"),
    m("net.tax", "ratio", "lower"),
    m("cluster.tax", "ratio", "lower"),
    m("cluster.subjobs_per_job", "count", "lower"),
    m("reps", "count", "higher"),
    m("rep_ms_p50", "ms", "lower"),
    m("rep_ms_p99", "ms", "lower"),
    m("rep_tail_percentile", "%", "higher"),
    m("ligands_per_s_mean", "ligands/s", "higher"),
    m("host.slowdown", "ratio", "lower"),
    m("host.steal_share", "share", "lower"),
    m("host.psi_cpu_some", "share", "lower"),
    m("trace.overhead_share", "share", "lower"),
    m("trace.spans", "count", "lower"),
    m("trace.root_coverage", "share", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "higher" || d.better == "lower");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn churn_ranks_are_zipf_over_every_receptor() {
        let mut counts = [0usize; 6];
        for r in CHURN_RANKS {
            counts[r] += 1;
        }
        assert_eq!(counts, [10, 5, 3, 2, 2, 2]);
        assert_eq!(CHURN_RANKS.len(), SERVE_CHURN.jobs);
        assert_eq!(counts.len(), SERVE_CHURN.receptors);
    }
}
