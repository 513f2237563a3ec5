//! The correctness oracle: every rep's ranking (ligand names and the
//! bits of their scores) must equal a reference computed in set-up by
//! a sequential, one-thread `core::screen` with the same backend — the
//! repository's bit-identity invariant. A mismatch is a failed op.

use mudock_core::{screen, KernelStats, ScreenSummary};
use mudock_grids::GridSet;
use mudock_serve::RankedLigand;

use crate::inputs::Job;

/// One place of a ranking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ranked {
    /// Position of the ligand in its library.
    pub index: usize,
    pub name: String,
    /// `f32::to_bits` of the best score.
    pub score_bits: u32,
}

/// A job's full ranking, best first; a ligand that failed to dock is
/// absent.
pub type Ranking = Vec<Ranked>;

pub fn ranking_of_summary(summary: &ScreenSummary) -> Ranking {
    summary
        .top_k(summary.results.len())
        .into_iter()
        .map(|i| {
            let r = &summary.results[i];
            Ranked {
                index: i,
                name: r.name.clone(),
                score_bits: r
                    .best_score
                    .expect("top_k lists scored ligands only")
                    .to_bits(),
            }
        })
        .collect()
}

pub fn ranking_of_top(top: &[RankedLigand]) -> Ranking {
    top.iter()
        .map(|r| Ranked {
            index: r.index,
            name: r.name.clone(),
            score_bits: r.score.to_bits(),
        })
        .collect()
}

/// The reference ranking of `job` on `grids`, and the kernel work the
/// job takes.
pub fn reference(grids: &GridSet, job: &Job) -> (Ranking, KernelStats) {
    let summary = screen(grids, &job.ligands, &job.campaign.dock_params(), 1);
    (ranking_of_summary(&summary), summary.total_stats())
}

/// `Err` names the first difference between a rep's ranking and the
/// reference.
pub fn check(expected: &Ranking, got: &Ranking) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "ranking holds {} ligands, the reference {}",
            got.len(),
            expected.len()
        ));
    }
    for (place, (e, g)) in expected.iter().zip(got).enumerate() {
        if e != g {
            return Err(format!(
                "place {place}: got {} (#{}, bits {:08x}), the reference has {} (#{}, bits {:08x})",
                g.name, g.index, g.score_bits, e.name, e.index, e.score_bits
            ));
        }
    }
    Ok(())
}

/// Check every job of a rep; the number of jobs must match too.
pub fn check_pass(expected: &[Ranking], got: &[Ranking]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "rep returned {} rankings, the reference {}",
            got.len(),
            expected.len()
        ));
    }
    for (j, (e, g)) in expected.iter().zip(got).enumerate() {
        check(e, g).map_err(|why| format!("job {j}: {why}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranking() -> Ranking {
        (0..4)
            .map(|i| Ranked {
                index: 3 - i,
                name: format!("lig-{}", 3 - i),
                score_bits: (-(4.0 - i as f32)).to_bits(),
            })
            .collect()
    }

    #[test]
    fn an_identical_ranking_passes() {
        assert_eq!(check(&ranking(), &ranking()), Ok(()));
        assert_eq!(check_pass(&[ranking()], &[ranking()]), Ok(()));
    }

    #[test]
    fn one_flipped_score_bit_is_a_failed_op() {
        let mut got = ranking();
        got[2].score_bits ^= 1;
        let why = check(&ranking(), &got).unwrap_err();
        assert!(why.starts_with("place 2"), "{why}");
    }

    #[test]
    fn a_dropped_ligand_is_a_failed_op() {
        let mut got = ranking();
        got.remove(1);
        assert!(check(&ranking(), &got).is_err());
    }

    #[test]
    fn swapped_places_and_missing_jobs_are_failed_ops() {
        let mut got = ranking();
        got.swap(0, 1);
        assert!(check(&ranking(), &got).is_err());
        assert!(check_pass(&[ranking(), ranking()], &[ranking()]).is_err());
    }
}
