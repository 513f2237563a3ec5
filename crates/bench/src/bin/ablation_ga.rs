//! Ablation: the GA's share of a dock, at the benchmark's four GA shapes.
//!
//! Per shape: µs per generation of `Ga::evolve_into` alone (the engine's
//! double-buffered breeding, on a fixed fitness vector), µs per
//! generation of a real `DockingEngine::dock`, and the share of the
//! dock's evaluations whose fitness was carried over from a bit-equal
//! parent instead of scored (`KernelStats::poses_reused` over
//! `poses_scored`). Last, a real `Backend::AutoVec` dock per frame (the
//! engine narrowed by `DockingEngine::with_frame`; `-`: the host lacks it).

use std::time::Instant;

use mudock_core::autovec::frame_name;
use mudock_core::{
    Backend, BackendPolicy, DockParams, DockingEngine, Ga, GaParams, KernelStats, LigandPrep,
    SolisWetsParams,
};
use mudock_grids::{GridBuilder, GridDims};
use mudock_mol::Vec3;
use mudock_molio::{synthetic_ligand, synthetic_receptor, LigandSpec};
use mudock_simd::SimdLevel;

/// One GA shape of the benchmark: population × generations, the ligand
/// class (heavy atoms, torsions), search radius, Solis–Wets or not.
struct Shape {
    workload: &'static str,
    population: usize,
    generations: usize,
    ligand: LigandSpec,
    radius: f32,
    local_search: bool,
}

const SHAPES: [Shape; 4] = [
    Shape {
        workload: "dock_small",
        population: 100,
        generations: 30,
        ligand: LigandSpec {
            heavy_atoms: 10,
            torsions: 1,
        },
        radius: 6.0,
        local_search: false,
    },
    Shape {
        workload: "serve_hot",
        population: 50,
        generations: 20,
        ligand: LigandSpec {
            heavy_atoms: 24,
            torsions: 6,
        },
        radius: 5.5,
        local_search: false,
    },
    Shape {
        workload: "serve_churn",
        population: 20,
        generations: 10,
        ligand: LigandSpec {
            heavy_atoms: 24,
            torsions: 6,
        },
        radius: 4.0,
        local_search: false,
    },
    Shape {
        workload: "dock_large",
        population: 50,
        generations: 20,
        ligand: LigandSpec {
            heavy_atoms: 48,
            torsions: 12,
        },
        radius: 7.0,
        local_search: true,
    },
];

/// Ligands docked per shape, and timed passes over them (best kept).
const LIGANDS: u64 = 8;
const PASSES: usize = 3;

fn main() {
    let backend = Backend::auto();
    println!(
        "ABLATION: µs per GA generation, breeding alone, in a real dock ({}) \
         and in an autovec dock per frame; evaluations carried over from a parent\n",
        backend.name()
    );
    let frames: String = SimdLevel::ALL
        .map(|f| format!(" {:>19}", format!("autovec@{} µs", frame_name(f))))
        .concat();
    println!(
        "{:>11} {:>9} {:>8} {:>3} {:>14} {:>11} {:>9}{frames}",
        "workload", "pop×gens", "torsions", "LS", "evolve_into µs", "dock µs", "reused"
    );
    let receptor = synthetic_receptor(5, 150, 9.0);
    for shape in &SHAPES {
        let ga = GaParams {
            population: shape.population,
            generations: shape.generations,
            ..Default::default()
        };
        let preps: Vec<LigandPrep> = (0..LIGANDS)
            .map(|seed| LigandPrep::new(synthetic_ligand(seed, shape.ligand)).unwrap())
            .collect();
        let mut types: Vec<_> = preps
            .iter()
            .flat_map(|p| p.mol.atoms.iter().map(|a| a.ty))
            .collect();
        types.sort_unstable();
        types.dedup();
        let builder = GridBuilder::new(&receptor, GridDims::centered(Vec3::ZERO, 12.0, 0.75))
            .with_types(&types);
        let grids = builder.build_simd(BackendPolicy::Detect.grid_level());
        let params = DockParams {
            ga,
            seed: 41,
            backend,
            search_radius: Some(shape.radius),
            local_search: shape.local_search.then_some(SolisWetsParams {
                max_evals: 64,
                rho_min: 0.0,
                ..Default::default()
            }),
        };

        let (dock_us, work) = time_docks(&DockingEngine::new(&grids).unwrap(), &preps, &params);
        let mut autovec = params.clone();
        autovec.backend = Backend::AutoVec;
        let one_lane = builder.build_simd(SimdLevel::Scalar);
        let per_frame: String = SimdLevel::ALL
            .map(|frame| {
                if !frame.is_supported() {
                    return format!(" {:>19}", "-");
                }
                let engine = DockingEngine::new(&one_lane).unwrap().with_frame(frame);
                format!(" {:>19.1}", time_docks(&engine, &preps, &autovec).0)
            })
            .concat();

        println!(
            "{:>11} {:>9} {:>8} {:>3} {:>14.2} {:>11.1} {:>8.1}%{per_frame}",
            shape.workload,
            format!("{}×{}", shape.population, shape.generations),
            shape.ligand.torsions,
            if shape.local_search { "yes" } else { "no" },
            evolve_us(ga, shape.ligand.torsions),
            dock_us,
            100.0 * work.poses_reused as f64 / work.poses_scored as f64
        );
    }
}

/// µs per generation docking every ligand, best of [`PASSES`], and the work.
fn time_docks(engine: &DockingEngine, preps: &[LigandPrep], p: &DockParams) -> (f64, KernelStats) {
    let mut best = f64::MAX;
    let mut work = KernelStats::default();
    for _ in 0..PASSES {
        work = KernelStats::default();
        let t0 = Instant::now();
        for prep in preps {
            work.merge(&engine.dock(prep, p).unwrap().stats);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best * 1e6 / work.generations as f64, work)
}

/// µs per generation of `evolve_into` + swap on a fixed fitness vector,
/// best of five runs.
fn evolve_us(params: GaParams, torsions: usize) -> f64 {
    let fitness: Vec<f32> = (0..params.population)
        .map(|i| ((i * 37) % 101) as f32)
        .collect();
    let generations = 20_000;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let mut ga = Ga::new(params, 7, Vec3::ZERO, 5.0, torsions);
        let mut pop = ga.init_population();
        let mut next = Vec::new();
        let t0 = Instant::now();
        for _ in 0..generations {
            ga.evolve_into(&pop, &fitness, &mut next);
            std::mem::swap(&mut pop, &mut next);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e6 / generations as f64
}
