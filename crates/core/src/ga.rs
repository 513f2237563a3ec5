//! Genetic algorithm for pose search — the paper's search heuristic
//! (Section V): muDock "uses a genetic algorithm to dock a ligand inside
//! the target protein binding site *without a local search*", i.e. the
//! Lamarckian local-search step of AutoDock is intentionally absent.
//!
//! Standard generational GA: tournament selection, two-point crossover on
//! the flat gene vector, per-gene Gaussian mutation, elitism. Fully
//! deterministic given the seed.
//!
//! The elites are the `elitism` best of a generation, best first, ties in
//! index order (the order a stable sort leaves), taken in one pass that
//! keeps the best few so far rather than by sorting the population. [`Ga::evolve_into`] also records, for
//! every child, a parent whose genes it equals bit for bit
//! ([`Ga::copied_from`]): an elite always, a clone or a crossover whenever
//! mutation left it equal to one of its two tournament parents. The
//! engine gives such a child its parent's fitness instead of scoring it
//! again.

use mudock_mol::Vec3;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::genotype::{Genotype, FIRST_TORSION};

/// GA hyper-parameters (defaults follow the paper's setup: 100 individuals
/// per population).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaParams {
    /// Individuals per generation.
    pub population: usize,
    /// Generations to run.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Probability that a child is produced by crossover (else cloned).
    pub crossover_rate: f32,
    /// Per-gene mutation probability.
    pub mutation_rate: f32,
    /// Mutation σ for translation genes (Å).
    pub sigma_translation: f32,
    /// Mutation σ for quaternion component genes.
    pub sigma_rotation: f32,
    /// Mutation σ for torsion genes (radians).
    pub sigma_torsion: f32,
    /// Individuals copied unchanged into the next generation.
    pub elitism: usize,
}

impl GaParams {
    /// Ceiling on each mutation σ (Å, quaternion units, radians). A
    /// mutated torsion is wrapped back into (−π, π] by steps of 2π, and a
    /// Gaussian deviate here is at most √(−2 ln 10⁻⁷) ≈ 5.7, so at the
    /// ceiling a wrap takes at most 92 steps. Without one, a σ of 10⁹
    /// reaches angles where `t - 2π == t` and the wrap never ends.
    pub const MAX_SIGMA: f32 = 100.0;

    /// Why these parameters cannot drive a [`Ga`], if they cannot: fewer
    /// than 2 individuals, no tournament contestant, elitism that fills
    /// the population, a rate outside [0, 1], or a σ that is negative,
    /// not finite or above [`GaParams::MAX_SIGMA`].
    pub fn validate(&self) -> Result<(), String> {
        if self.population < 2 {
            return Err(format!(
                "population {} must hold at least 2 individuals",
                self.population
            ));
        }
        if self.tournament == 0 {
            return Err("tournament selection needs at least 1 contestant".into());
        }
        if self.elitism >= self.population {
            return Err(format!(
                "elitism {} must be smaller than the population {}",
                self.elitism, self.population
            ));
        }
        for (name, rate) in [
            ("crossover_rate", self.crossover_rate),
            ("mutation_rate", self.mutation_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} {rate} must lie in [0, 1]"));
            }
        }
        for (name, sigma) in [
            ("sigma_translation", self.sigma_translation),
            ("sigma_rotation", self.sigma_rotation),
            ("sigma_torsion", self.sigma_torsion),
        ] {
            if !(0.0..=Self::MAX_SIGMA).contains(&sigma) {
                return Err(format!(
                    "{name} {sigma} must lie in [0, {}]",
                    Self::MAX_SIGMA
                ));
            }
        }
        Ok(())
    }
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams {
            population: 100,
            generations: 1000,
            tournament: 3,
            crossover_rate: 0.8,
            mutation_rate: 0.08,
            sigma_translation: 0.6,
            sigma_rotation: 0.15,
            sigma_torsion: 0.4,
            elitism: 2,
        }
    }
}

/// Standard Gaussian via Box–Muller (GA mutation and Solis–Wets steps).
pub(crate) fn gauss(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.random::<f32>().max(1e-7);
    let u2: f32 = rng.random();
    (-2.0f32 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Fill `best` with the indices of the `k` best (lowest) fitnesses, best
/// first, ties in index order: the first `k` of a stable sort by
/// fitness, in one pass that keeps the `k` best so far in order. An
/// index enters only if it ranks before the `k`-th kept, so for the
/// engine's small `k` (elitism, the Solis–Wets fraction) the pass is
/// O(n) comparisons.
pub(crate) fn best_first(fitness: &[f32], k: usize, best: &mut Vec<usize>) {
    best.clear();
    if k == 0 {
        return;
    }
    for (i, f) in fitness.iter().enumerate() {
        if best.len() == k {
            if f.total_cmp(&fitness[best[k - 1]]).is_ge() {
                continue;
            }
            best.pop();
        }
        // After every kept index of equal fitness: those came first.
        let at = best.partition_point(|&j| fitness[j].total_cmp(f).is_le());
        best.insert(at, i);
    }
}

/// Whether two genotypes hold the same bits in every gene. One OR over
/// all genes, no early exit: a gene vector is a register or two.
fn same_bits(a: &Genotype, b: &Genotype) -> bool {
    a.genes.len() == b.genes.len()
        && a.genes
            .iter()
            .zip(&b.genes)
            .fold(0, |diff, (x, y)| diff | (x.to_bits() ^ y.to_bits()))
            == 0
}

/// Generational GA state (owns the RNG; all decisions are deterministic in
/// the seed).
pub struct Ga {
    pub params: GaParams,
    rng: StdRng,
    center: Vec3,
    t_bound: f32,
    n_torsions: usize,
    /// Elite indices of [`Ga::evolve_into`], kept between generations.
    order: Vec<usize>,
    /// What [`Ga::copied_from`] returns.
    copied_from: Vec<Option<usize>>,
}

impl Ga {
    /// A GA over genotypes of `n_torsions` torsions whose translations
    /// stay within `t_bound` of `center`, its RNG seeded from `seed`.
    ///
    /// # Panics
    /// If `params` fail [`GaParams::validate`].
    pub fn new(params: GaParams, seed: u64, center: Vec3, t_bound: f32, n_torsions: usize) -> Ga {
        if let Err(why) = params.validate() {
            panic!("invalid GA parameters: {why}");
        }
        Ga {
            params,
            rng: StdRng::seed_from_u64(seed ^ 0x67_615f_7365_6564),
            center,
            t_bound,
            n_torsions,
            order: Vec::new(),
            copied_from: Vec::new(),
        }
    }

    /// Uniformly random initial population.
    pub fn init_population(&mut self) -> Vec<Genotype> {
        (0..self.params.population)
            .map(|_| Genotype::random(&mut self.rng, self.n_torsions, self.center, self.t_bound))
            .collect()
    }

    /// Index of the tournament winner (lowest fitness = best).
    fn tournament(&mut self, fitness: &[f32]) -> usize {
        let n = fitness.len();
        let mut best = self.rng.random_range(0..n);
        for _ in 1..self.params.tournament {
            let c = self.rng.random_range(0..n);
            if fitness[c] < fitness[best] {
                best = c;
            }
        }
        best
    }

    /// Two-point crossover on the flat gene vector, written over `child`.
    fn crossover_into(&mut self, a: &Genotype, b: &Genotype, child: &mut Genotype) {
        let len = a.genes.len();
        let mut p1 = self.rng.random_range(0..len);
        let mut p2 = self.rng.random_range(0..len);
        if p1 > p2 {
            std::mem::swap(&mut p1, &mut p2);
        }
        child.clone_from(a);
        child.genes[p1..p2].copy_from_slice(&b.genes[p1..p2]);
    }

    /// Per-gene Gaussian mutation with role-specific σ; translations stay
    /// inside the search box, torsions wrap to (−π, π] (in at most 92
    /// steps: [`GaParams::MAX_SIGMA`]).
    fn mutate(&mut self, g: &mut Genotype) {
        use std::f32::consts::PI;
        let p = &self.params;
        for k in 0..g.genes.len() {
            if self.rng.random::<f32>() >= p.mutation_rate {
                continue;
            }
            let noise = gauss(&mut self.rng);
            if k < 3 {
                let c = [self.center.x, self.center.y, self.center.z][k];
                g.genes[k] = (g.genes[k] + noise * p.sigma_translation)
                    .clamp(c - self.t_bound, c + self.t_bound);
            } else if k < FIRST_TORSION {
                g.genes[k] += noise * p.sigma_rotation;
            } else {
                let mut t = g.genes[k] + noise * p.sigma_torsion;
                while t > PI {
                    t -= 2.0 * PI;
                }
                while t < -PI {
                    t += 2.0 * PI;
                }
                g.genes[k] = t;
            }
        }
        // Guard against a degenerate all-zero quaternion after mutation.
        let q2: f32 = g.genes[3..7].iter().map(|x| x * x).sum();
        if q2 < 1e-8 {
            g.genes[3] = 1.0;
        }
    }

    /// Produce the next generation from the scored current one.
    pub fn evolve(&mut self, pop: &[Genotype], fitness: &[f32]) -> Vec<Genotype> {
        // Gene buffers sized up front: `clone_from` into an empty `Vec`
        // grows it through the out-of-line reserve path, once per child.
        let genes = pop.first().map_or(0, |g| g.genes.len());
        let mut next = Vec::new();
        next.resize_with(pop.len(), || Genotype {
            genes: Vec::with_capacity(genes),
        });
        self.evolve_into(pop, fitness, &mut next);
        next
    }

    /// [`Ga::evolve`] into a caller-owned population: whatever `next`
    /// held is overwritten in place, reusing its gene buffers, so a caller
    /// that swaps two populations allocates nothing per generation.
    pub fn evolve_into(&mut self, pop: &[Genotype], fitness: &[f32], next: &mut Vec<Genotype>) {
        assert_eq!(pop.len(), fitness.len());
        best_first(fitness, self.params.elitism, &mut self.order);

        next.resize_with(pop.len(), || Genotype { genes: Vec::new() });
        self.copied_from.clear();
        let (elites, children) = next.split_at_mut(self.order.len());
        for (elite, &e) in elites.iter_mut().zip(&self.order) {
            elite.clone_from(&pop[e]);
            self.copied_from.push(Some(e));
        }
        for child in children {
            let parents = self.breed(pop, fitness, child);
            let copy = parents
                .into_iter()
                .flatten()
                .find(|&q| same_bits(child, &pop[q]));
            self.copied_from.push(copy);
        }
    }

    /// Write one child over `child`: a clone of a tournament winner or a
    /// crossover of two, then mutated. Returns the parents' indices.
    fn breed(
        &mut self,
        pop: &[Genotype],
        fitness: &[f32],
        child: &mut Genotype,
    ) -> [Option<usize>; 2] {
        let pa = self.tournament(fitness);
        let pb = if self.rng.random::<f32>() < self.params.crossover_rate {
            let pb = self.tournament(fitness);
            self.crossover_into(&pop[pa], &pop[pb], child);
            Some(pb)
        } else {
            child.clone_from(&pop[pa]);
            None
        };
        self.mutate(child);
        [Some(pa), pb]
    }

    /// For each child of the last [`Ga::evolve_into`] (or [`Ga::evolve`]),
    /// the index in the parent population of a genotype it equals bit for
    /// bit, if it is one of the parents it was bred from: the source of
    /// an elite, else its first tournament parent, else its second.
    /// Empty before the first generation is bred.
    pub fn copied_from(&self) -> &[Option<usize>] {
        &self.copied_from
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ga(seed: u64) -> Ga {
        Ga::new(
            GaParams {
                population: 20,
                generations: 5,
                ..Default::default()
            },
            seed,
            Vec3::ZERO,
            5.0,
            4,
        )
    }

    #[test]
    fn init_population_size_and_bounds() {
        let mut g = ga(1);
        let pop = g.init_population();
        assert_eq!(pop.len(), 20);
        for ind in &pop {
            assert_eq!(ind.n_torsions(), 4);
            let t = ind.translation();
            assert!(t.x.abs() <= 5.0 && t.y.abs() <= 5.0 && t.z.abs() <= 5.0);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (mut a, mut b) = (ga(7), ga(7));
        let pa = a.init_population();
        let pb = b.init_population();
        assert_eq!(pa, pb);
        let fit: Vec<f32> = (0..20).map(|i| i as f32).collect();
        assert_eq!(a.evolve(&pa, &fit), b.evolve(&pb, &fit));
    }

    #[test]
    fn evolve_into_overwrites_whatever_next_held() {
        let (mut a, mut b) = (ga(5), ga(5));
        let mut pop = a.init_population();
        assert_eq!(b.init_population(), pop);
        // Ties everywhere: the elites are the lowest indices among equals.
        let fit: Vec<f32> = (0..20).map(|i| (i % 3) as f32).collect();
        // Too long, and gene buffers of the wrong length.
        let mut next = vec![Genotype::identity(9); 31];
        for _ in 0..3 {
            let want = a.evolve(&pop, &fit);
            b.evolve_into(&pop, &fit, &mut next);
            assert_eq!(next, want);
            assert_eq!(next[0], pop[0], "first of the tied best");
            std::mem::swap(&mut pop, &mut next);
        }
    }

    #[test]
    fn elitism_preserves_best() {
        let mut g = ga(3);
        let pop = g.init_population();
        // Give individual 13 the best fitness.
        let mut fit = vec![10.0f32; 20];
        fit[13] = -5.0;
        let next = g.evolve(&pop, &fit);
        assert_eq!(next.len(), 20);
        assert_eq!(next[0], pop[13], "elite slot 0 holds the best individual");
    }

    #[test]
    fn mutation_keeps_translations_in_box() {
        let mut g = Ga::new(
            GaParams {
                mutation_rate: 1.0,
                sigma_translation: 50.0,
                ..Default::default()
            },
            9,
            Vec3::ZERO,
            2.0,
            0,
        );
        let pop = vec![Genotype::identity(0); 100];
        let fit = vec![0.0f32; 100];
        let next = g.evolve(&pop, &fit);
        for ind in &next {
            let t = ind.translation();
            assert!(t.x.abs() <= 2.0 + 1e-5 && t.y.abs() <= 2.0 + 1e-5 && t.z.abs() <= 2.0 + 1e-5);
        }
    }

    /// Breed one generation with `ga` and, on `twin` (same seed and
    /// state), the same children one by one to learn their parents.
    /// Asserts exactness (a flagged child equals that parent bit for
    /// bit) and completeness (a child equal to one of its parents is
    /// flagged), and returns the children and how many were flagged.
    fn check_copies(
        ga: &mut Ga,
        twin: &mut Ga,
        pop: &[Genotype],
        fit: &[f32],
    ) -> (Vec<Genotype>, usize) {
        let next = ga.evolve(pop, fit);
        let copied = ga.copied_from().to_vec();
        assert_eq!(copied.len(), pop.len());
        let elites = ga.params.elitism;
        for (i, child) in next.iter().enumerate() {
            if let Some(q) = copied[i] {
                assert!(
                    same_bits(child, &pop[q]),
                    "child {i} flagged as a copy of {q}"
                );
            }
            if i < elites {
                assert!(copied[i].is_some(), "elite {i} is a copy");
                continue;
            }
            let mut again = Genotype { genes: Vec::new() };
            let parents = twin.breed(pop, fit, &mut again);
            assert_eq!(&again, child, "the twin breeds child {i}");
            if parents
                .into_iter()
                .flatten()
                .any(|q| same_bits(child, &pop[q]))
            {
                assert!(copied[i].is_some(), "child {i} equals a parent unflagged");
            }
        }
        (next, copied.iter().flatten().count())
    }

    #[test]
    fn copies_are_flagged_exactly_and_completely() {
        let shapes = [
            // The engine's defaults.
            (GaParams::default(), 4),
            // Rare mutation: most children equal a parent.
            (
                GaParams {
                    mutation_rate: 0.02,
                    ..Default::default()
                },
                6,
            ),
            // Every gene mutates, and a child equals its parent only
            // where the clamp at the box wall takes it back.
            (
                GaParams {
                    mutation_rate: 1.0,
                    crossover_rate: 0.0,
                    sigma_translation: 50.0,
                    sigma_rotation: 0.0,
                    sigma_torsion: 0.0,
                    ..Default::default()
                },
                0,
            ),
        ];
        for (seed, (params, torsions)) in shapes.into_iter().enumerate() {
            let params = GaParams {
                population: 40,
                ..params
            };
            let new = || Ga::new(params, seed as u64, Vec3::ZERO, 3.0, torsions);
            let (mut ga, mut twin) = (new(), new());
            let mut pop = ga.init_population();
            twin.init_population();
            if torsions == 0 {
                // Everyone in one corner of the box.
                for g in &mut pop {
                    g.genes[..3].fill(3.0);
                }
            }
            let mut flagged = 0;
            for gen in 0..12 {
                let fit: Vec<f32> = (0..40).map(|i| ((i * 7 + gen) % 13) as f32).collect();
                let (next, n) = check_copies(&mut ga, &mut twin, &pop, &fit);
                flagged += n;
                pop = next;
            }
            assert!(
                flagged > 12 * params.elitism,
                "shape {seed}: {flagged} flagged"
            );
        }
    }

    #[test]
    fn best_first_is_a_stable_sorts_prefix() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut best = Vec::new();
        for n in 0..40 {
            // Few distinct values, signed zeros and NaNs: many ties.
            let fit: Vec<f32> = (0..n)
                .map(|_| [1.0, -0.0, 0.0, -2.5, f32::NAN, 3.0][rng.random_range(0..6usize)])
                .collect();
            let mut stable: Vec<usize> = (0..n).collect();
            stable.sort_by(|&a, &b| fit[a].total_cmp(&fit[b]));
            for k in 0..=n + 1 {
                best_first(&fit, k, &mut best);
                assert_eq!(best, stable[..k.min(n)], "n {n}, k {k}");
            }
        }
    }

    #[test]
    fn parameters_outside_their_ranges_are_refused() {
        let ok = GaParams {
            sigma_translation: GaParams::MAX_SIGMA,
            sigma_rotation: 0.0,
            crossover_rate: 1.0,
            mutation_rate: 0.0,
            ..Default::default()
        };
        assert_eq!(ok.validate(), Ok(()));
        for bad in [
            GaParams {
                mutation_rate: 1.5,
                ..ok
            },
            GaParams {
                crossover_rate: -0.1,
                ..ok
            },
            GaParams {
                mutation_rate: f32::NAN,
                ..ok
            },
            GaParams {
                sigma_torsion: -1.0,
                ..ok
            },
            GaParams {
                sigma_torsion: 1e9,
                ..ok
            },
            GaParams {
                sigma_rotation: f32::INFINITY,
                ..ok
            },
            GaParams {
                sigma_translation: f32::NAN,
                ..ok
            },
            GaParams {
                population: 1,
                elitism: 0,
                ..ok
            },
            GaParams {
                tournament: 0,
                ..ok
            },
            GaParams { elitism: 100, ..ok },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "sigma_torsion 1000000000 must lie in [0, 100]")]
    fn a_ga_refuses_a_sigma_past_the_ceiling() {
        let params = GaParams {
            sigma_torsion: 1e9,
            ..Default::default()
        };
        Ga::new(params, 1, Vec3::ZERO, 2.0, 6);
    }

    #[test]
    fn every_gene_mutating_at_the_ceiling_sigma_finishes_wrapped() {
        let params = GaParams {
            population: 50,
            mutation_rate: 1.0,
            sigma_translation: GaParams::MAX_SIGMA,
            sigma_rotation: GaParams::MAX_SIGMA,
            sigma_torsion: GaParams::MAX_SIGMA,
            ..Default::default()
        };
        let mut g = Ga::new(params, 13, Vec3::ZERO, 2.0, 12);
        let mut pop = g.init_population();
        let fit = vec![0.0f32; 50];
        for _ in 0..20 {
            pop = g.evolve(&pop, &fit);
        }
        for ind in &pop {
            for k in 0..12 {
                assert!(ind.torsion(k).abs() <= std::f32::consts::PI + 1e-4);
            }
        }
    }

    #[test]
    fn torsions_stay_wrapped() {
        let mut g = Ga::new(
            GaParams {
                mutation_rate: 1.0,
                sigma_torsion: 10.0,
                ..Default::default()
            },
            11,
            Vec3::ZERO,
            2.0,
            6,
        );
        let pop = vec![Genotype::identity(6); 50];
        let fit = vec![0.0f32; 50];
        let next = g.evolve(&pop, &fit);
        for ind in next.iter().skip(g.params.elitism) {
            for k in 0..6 {
                assert!(ind.torsion(k).abs() <= std::f32::consts::PI + 1e-4);
            }
        }
    }
}
