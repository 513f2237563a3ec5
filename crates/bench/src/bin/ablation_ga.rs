//! Ablation: one GA generation, allocating vs double-buffered.
//!
//! `Ga::evolve` returns a fresh population (a `Vec<f32>` per child and per
//! elite); `Ga::evolve_into` overwrites a population the caller owns, which
//! is what the engine's generation loop does with two swapped buffers.
//! Same algorithm, same RNG stream, identical populations — the difference
//! is the allocator traffic, at the ladder's two GA shapes.

use std::time::Instant;

use mudock_core::{Ga, GaParams};
use mudock_mol::Vec3;

fn main() {
    println!("ABLATION: µs per GA generation, `evolve` (allocating) vs `evolve_into` + swap\n");
    println!(
        "{:>10} {:>6} {:>12} {:>14} {:>8}",
        "population", "genes", "evolve µs", "evolve_into µs", "ratio"
    );
    for (population, torsions) in [(100, 1), (50, 6)] {
        let params = GaParams {
            population,
            ..Default::default()
        };
        let fitness: Vec<f32> = (0..population).map(|i| ((i * 37) % 101) as f32).collect();
        let generations = 20_000;
        let (mut alloc, mut reuse) = (f64::MAX, f64::MAX);
        // The two alternate, best of five.
        for _ in 0..5 {
            let mut ga = Ga::new(params, 7, Vec3::ZERO, 5.0, torsions);
            let mut pop = ga.init_population();
            let t0 = Instant::now();
            for _ in 0..generations {
                pop = ga.evolve(&pop, &fitness);
            }
            alloc = alloc.min(t0.elapsed().as_secs_f64());
            let want = pop;

            let mut ga = Ga::new(params, 7, Vec3::ZERO, 5.0, torsions);
            let mut pop = ga.init_population();
            let mut next = Vec::new();
            let t0 = Instant::now();
            for _ in 0..generations {
                ga.evolve_into(&pop, &fitness, &mut next);
                std::mem::swap(&mut pop, &mut next);
            }
            reuse = reuse.min(t0.elapsed().as_secs_f64());
            assert_eq!(pop, want, "one algorithm: identical populations");
        }
        let per_gen = 1e6 / generations as f64;
        println!(
            "{:>10} {:>6} {:>12.2} {:>14.2} {:>8.2}",
            population,
            7 + torsions,
            alloc * per_gen,
            reuse * per_gen,
            reuse / alloc
        );
    }
}
