//! Input synthesis: the same seed gives the same receptors, ligands
//! and campaigns, through `molio::synth` alone.

use std::sync::Arc;

use mudock_core::{Backend, BackendPolicy, Campaign, CampaignSpec, LigandPrep, SolisWetsParams};
use mudock_ff::params::NB_CUTOFF;
use mudock_grids::GridDims;
use mudock_mol::{Molecule, Vec3};
use mudock_molio::{synthetic_ligand, synthetic_receptor};
use mudock_serve::{LigandSource, ReceptorSource};

use crate::spec::{LigandClass, Path, Shape, Workload, CHURN_RANKS, LOCAL_SEARCH_EVALS};

/// One screening job: a receptor, a ligand library and a campaign. The
/// same job can be docked in process, submitted to a service, or
/// shipped over the wire.
#[derive(Clone)]
pub struct Job {
    /// Index of the job's receptor among the workload's receptors.
    pub receptor_index: usize,
    pub receptor: Arc<Molecule>,
    /// The receptor as the wire ships it.
    pub receptor_source: ReceptorSource,
    /// The ligands as the engine sees them.
    pub ligands: Arc<Vec<Molecule>>,
    /// The ligands as a service receives them: inline PDBQT.
    pub source: LigandSource,
    pub campaign: CampaignSpec,
}

impl Job {
    pub fn dims(&self) -> GridDims {
        self.campaign.dims_for(&self.receptor)
    }
}

/// Everything a workload's run docks.
pub struct Inputs {
    pub workload: Workload,
    /// One rep of the main arm (`Backend::auto()`), in order.
    pub jobs: Vec<Job>,
    /// One rep of the portable arm: a prefix of `jobs`, each cut to a
    /// prefix of its ligands, pinned to `Backend::AutoVec`.
    pub portable: Vec<Job>,
    /// Docking threads of the end-to-end run.
    pub threads: usize,
}

/// SplitMix64 step: decorrelates the sub-seeds drawn from `--seed`.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Multi-model PDBQT text of `ligands`, as a client would upload it.
pub fn to_pdbqt(ligands: &[Molecule]) -> String {
    let mut text = String::new();
    for (i, lig) in ligands.iter().enumerate() {
        text.push_str(&format!("MODEL {}\n", i + 1));
        text.push_str(&mudock_molio::write(lig));
        text.push_str("ENDMDL\n");
    }
    text
}

fn campaign(shape: &Shape, seed: u64, top_k: usize, portable: bool, name: String) -> CampaignSpec {
    let mut b = Campaign::builder()
        .name(name)
        .population(shape.population)
        .generations(shape.generations)
        .seed(seed)
        .search_radius(shape.search_radius)
        .top_k(top_k)
        .grid_dims(GridDims::centered(
            Vec3::ZERO,
            shape.half_extent,
            shape.spacing,
        ));
    if shape.local_search {
        // Never stop a refinement early: every call then spends its
        // whole evaluation budget, whatever the seed's landscape. The
        // budget is what a default call (stopping when its step
        // collapses) spends on average on these ligands.
        b = b.local_search(SolisWetsParams {
            max_evals: LOCAL_SEARCH_EVALS,
            rho_min: 0.0,
            ..SolisWetsParams::default()
        });
    }
    if portable {
        b = b.backend(BackendPolicy::Fixed(Backend::AutoVec));
    }
    b.build().expect("the benchmark's campaigns are valid")
}

fn in_class(prep: &LigandPrep, class: &LigandClass) -> bool {
    if prep.base.len_padded() != class.atoms_padded
        || prep.pairs.len_padded() != class.pairs_padded
        || prep.n_torsions() != class.spec.torsions
    {
        return false;
    }
    let within = (0..prep.pairs.n)
        .filter(|&k| {
            let (a, b) = (prep.pairs.i[k] as usize, prep.pairs.j[k] as usize);
            prep.base.pos(a).distance(prep.base.pos(b)) <= NB_CUTOFF
        })
        .count();
    let share = within as f32 / prep.pairs.n.max(1) as f32;
    (class.in_cutoff.0..=class.in_cutoff.1).contains(&share)
}

/// Ligand `i` of job `j`: the first draw from the seed that falls in
/// the workload's ligand class.
fn draw_ligand(class: &LigandClass, seed: u64, j: usize, i: usize) -> Molecule {
    let stream = mix(seed, 1000 * (j as u64 + 1) + i as u64);
    (0u64..)
        .map(|attempt| synthetic_ligand(mix(stream, attempt), class.spec))
        .find(|lig| LigandPrep::new(lig.clone()).is_ok_and(|prep| in_class(&prep, class)))
        .expect("the class is common enough to be drawn")
}

/// The ligands of job `j`, and the inline PDBQT a service reads them
/// from.
fn library(shape: &Shape, seed: u64, j: usize, count: usize) -> (Vec<Molecule>, LigandSource) {
    let drawn: Vec<Molecule> = (0..count)
        .map(|i| draw_ligand(&shape.ligand, seed, j, i))
        .collect();
    // PDBQT keeps three decimals: dock what a server parsing the upload
    // docks, so every path scores the same atoms.
    let text = to_pdbqt(&drawn);
    let parsed: Vec<Molecule> = mudock_molio::parse_models(&text)
        .collect::<Result<_, _>>()
        .expect("molio::write output parses");
    (parsed, LigandSource::from_pdbqt(text))
}

pub fn synthesize(workload: Workload, seed: u64) -> Inputs {
    let shape = workload.shape();
    let receptors: Vec<(Arc<Molecule>, ReceptorSource)> = (0..shape.receptors)
        .map(|r| {
            let rseed = mix(seed, r as u64 + 1);
            (
                Arc::new(synthetic_receptor(
                    rseed,
                    shape.receptor_atoms,
                    shape.pocket_radius,
                )),
                ReceptorSource::Synth {
                    seed: rseed,
                    atoms: shape.receptor_atoms,
                    radius: shape.pocket_radius,
                },
            )
        })
        .collect();

    let job = |j: usize, ligands: usize, portable: bool| {
        let receptor_index = if shape.receptors > 1 {
            CHURN_RANKS[j]
        } else {
            0
        };
        let (receptor, receptor_source) = receptors[receptor_index].clone();
        let (mols, source) = library(&shape, seed, j, ligands);
        let arm = if portable { "portable" } else { "main" };
        Job {
            receptor_index,
            receptor,
            receptor_source,
            campaign: campaign(
                &shape,
                mix(seed, 77),
                mols.len(),
                portable,
                format!("{}-{arm}-{j}", workload.name()),
            ),
            ligands: Arc::new(mols),
            source,
        }
    };

    Inputs {
        workload,
        jobs: (0..shape.jobs)
            .map(|j| job(j, shape.ligands_per_job, false))
            .collect(),
        portable: (0..shape.portable_jobs)
            .map(|j| job(j, shape.portable_ligands, true))
            .collect(),
        threads: match shape.path {
            Path::Screen => 1,
            Path::Net | Path::Service => nproc(),
        },
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(inputs: &Inputs) -> Vec<(usize, usize, Vec<String>)> {
        inputs
            .jobs
            .iter()
            .map(|j| {
                (
                    j.receptor_index,
                    j.receptor.atoms.len(),
                    j.ligands.iter().map(mudock_molio::write).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for w in Workload::ALL {
            let a = synthesize(w, 5);
            let b = synthesize(w, 5);
            let c = synthesize(w, 6);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", w.name());
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", w.name());
        }
    }

    #[test]
    fn the_portable_arm_docks_a_prefix_with_autovec() {
        for w in Workload::ALL {
            let inputs = synthesize(w, 9);
            let shape = w.shape();
            assert_eq!(inputs.jobs.len(), shape.jobs);
            assert_eq!(inputs.portable.len(), shape.portable_jobs);
            for (p, m) in inputs.portable.iter().zip(&inputs.jobs) {
                assert_eq!(p.receptor_index, m.receptor_index);
                assert_eq!(p.ligands.len(), shape.portable_ligands);
                assert_eq!(m.ligands.len(), shape.ligands_per_job);
                for (a, b) in p.ligands.iter().zip(m.ligands.iter()) {
                    assert_eq!(mudock_molio::write(a), mudock_molio::write(b));
                }
                assert_eq!(p.campaign.backend.resolve(), Backend::AutoVec);
                assert_eq!(p.campaign.seed, m.campaign.seed);
            }
        }
    }

    #[test]
    fn inline_pdbqt_round_trips_to_the_docked_molecules() {
        let inputs = synthesize(Workload::ServeHot, 3);
        let job = &inputs.jobs[0];
        let streamed: Vec<Molecule> = job.source.stream().unwrap().collect();
        assert_eq!(streamed.len(), job.ligands.len());
        for (a, b) in streamed.iter().zip(job.ligands.iter()) {
            assert_eq!(mudock_molio::write(a), mudock_molio::write(b));
        }
    }
}
