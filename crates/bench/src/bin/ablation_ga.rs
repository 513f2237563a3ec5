//! Ablation: the GA's share of a dock, at the benchmark's four GA shapes.
//!
//! Per shape: µs per generation of `Ga::evolve_into` alone (the engine's
//! double-buffered breeding, on a fixed fitness vector), µs per
//! generation of a real `DockingEngine::dock`, and the share of the
//! dock's evaluations whose fitness was carried over from a bit-equal
//! parent instead of scored (`KernelStats::poses_reused` over
//! `poses_scored`). Last, a real `Backend::AutoVec` dock per frame (the
//! engine narrowed by `DockingEngine::with_frame`; `-`: the host lacks it).
//!
//! A shape's docks take turns ([`mudock_bench::take_turns`]), and so do
//! the four shapes' `evolve_into` runs, so a row's docks and the breeding
//! column were each timed in one stretch of the host.

use mudock_bench::{take_turns, ROUNDS};
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

impl Shape {
    fn ga(&self) -> GaParams {
        GaParams {
            population: self.population,
            generations: self.generations,
            ..Default::default()
        }
    }
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

/// Ligands a dock pass docks per shape.
const LIGANDS: u64 = 8;

/// Rounds of a shape's docks, at least: a `dock_large` round takes
/// about a second on a 2-vCPU AVX-512 host, so the wall-time floor sets
/// the count for the other shapes.
const DOCK_ROUNDS: usize = 5;

/// Generations of `evolve_into` in one timed pass.
const GENERATIONS: usize = 200;

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
    let evolve = evolve_us(&SHAPES);
    for (shape, evolve_us) in SHAPES.iter().zip(evolve) {
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
            ga: shape.ga(),
            seed: 41,
            backend,
            search_radius: Some(shape.radius),
            local_search: shape.local_search.then_some(SolisWetsParams {
                max_evals: 64,
                rho_min: 0.0,
                ..Default::default()
            }),
        };

        let mut autovec = params.clone();
        autovec.backend = Backend::AutoVec;
        let one_lane = builder.build_simd(SimdLevel::Scalar);
        // The detect-backend dock, then an autovec dock per frame.
        let mut docks = vec![(DockingEngine::new(&grids).unwrap(), &params)];
        for frame in SimdLevel::ALL.into_iter().filter(|f| f.is_supported()) {
            docks.push((
                DockingEngine::new(&one_lane).unwrap().with_frame(frame),
                &autovec,
            ));
        }
        let mut work = vec![KernelStats::default(); docks.len()];
        let best = take_turns(docks.len(), DOCK_ROUNDS, |i| {
            let (engine, params) = &docks[i];
            work[i] = KernelStats::default();
            for prep in &preps {
                work[i].merge(&engine.dock(prep, params).unwrap().stats);
            }
        });
        let us = |i: usize| best[i] * 1e6 / work[i].generations as f64;
        let mut frame_docks = 1..;
        let per_frame: String = SimdLevel::ALL
            .map(|frame| match frame.is_supported() {
                true => format!(" {:>19.1}", us(frame_docks.next().unwrap())),
                false => format!(" {:>19}", "-"),
            })
            .concat();

        println!(
            "{:>11} {:>9} {:>8} {:>3} {:>14.2} {:>11.1} {:>8.1}%{per_frame}",
            shape.workload,
            format!("{}×{}", shape.population, shape.generations),
            shape.ligand.torsions,
            if shape.local_search { "yes" } else { "no" },
            evolve_us,
            us(0),
            100.0 * work[0].poses_reused as f64 / work[0].poses_scored as f64
        );
    }
}

/// µs per generation of `evolve_into` + swap on a fixed fitness vector,
/// per shape; the shapes take turns.
fn evolve_us(shapes: &[Shape]) -> Vec<f64> {
    let mut runs: Vec<_> = (shapes.iter())
        .map(|s| {
            let mut ga = Ga::new(s.ga(), 7, Vec3::ZERO, 5.0, s.ligand.torsions);
            let fitness: Vec<f32> = (0..s.population).map(|i| ((i * 37) % 101) as f32).collect();
            (ga.init_population(), ga, fitness, Vec::new())
        })
        .collect();
    let best = take_turns(runs.len(), ROUNDS, |i| {
        let (pop, ga, fitness, next) = &mut runs[i];
        for _ in 0..GENERATIONS {
            ga.evolve_into(pop, fitness, next);
            std::mem::swap(pop, next);
        }
    });
    best.iter().map(|s| s * 1e6 / GENERATIONS as f64).collect()
}
