//! Kernel work counters — the software stand-in for the LIKWID marker
//! regions the paper instruments (Section VII-d). The architecture model
//! (`mudock-archsim`) converts these counts into operation mixes.

/// Work performed by the docking kernels, accumulated per engine run.
///
/// The kernel counts follow the GA's evaluations, one per individual per
/// generation (Solis–Wets calls are not counted), those whose fitness was
/// carried over from a bit-equal parent included: the work of a search
/// that scores every individual. [`KernelStats::poses_reused`] says how
/// much of it was not done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// GA individuals evaluated (transform + inter + intra).
    pub poses_scored: u64,
    /// Of [`KernelStats::poses_scored`], those not scored: a child
    /// bit-equal to a parent took the parent's fitness.
    pub poses_reused: u64,
    /// Intramolecular pairs evaluated (real pairs, before cutoff masking).
    pub pairs_evaluated: u64,
    /// Grid map lookups (3 per ligand atom per pose: type/elec/desolv).
    pub grid_lookups: u64,
    /// Atoms rigid-transformed.
    pub atoms_transformed: u64,
    /// Per-torsion atom rotations (branchless kernel: atoms × torsions).
    pub torsion_rotations: u64,
    /// GA generations executed.
    pub generations: u64,
}

impl KernelStats {
    /// Accumulate another run's counters.
    pub fn merge(&mut self, o: &KernelStats) {
        self.poses_scored += o.poses_scored;
        self.poses_reused += o.poses_reused;
        self.pairs_evaluated += o.pairs_evaluated;
        self.grid_lookups += o.grid_lookups;
        self.atoms_transformed += o.atoms_transformed;
        self.torsion_rotations += o.torsion_rotations;
        self.generations += o.generations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = KernelStats {
            poses_scored: 1,
            poses_reused: 7,
            pairs_evaluated: 2,
            grid_lookups: 3,
            atoms_transformed: 4,
            torsion_rotations: 5,
            generations: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.poses_scored, 2);
        assert_eq!(a.poses_reused, 14);
        assert_eq!(a.generations, 12);
    }
}
