//! Operation mixes of the docking kernels.
//!
//! Per-element operation counts, transcribed from the kernel sources in
//! `mudock-core` (each constant's comment names the function it was
//! counted from). The pipeline model multiplies these by the workload's
//! element counts and divides by the effective vector width.

/// Operation counts, in *elements* (one element = one lane of work).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpMix {
    /// Fused multiply-adds (2 FLOPs each where FMA exists).
    pub fma: f64,
    /// Additions/subtractions.
    pub add: f64,
    /// Multiplications.
    pub mul: f64,
    /// Compares, selects, min/max.
    pub cmp_sel: f64,
    /// Square roots.
    pub sqrt: f64,
    /// Hardware reciprocal / rsqrt estimates (Newton steps are counted in
    /// `fma`/`mul`).
    pub recip: f64,
    /// Exponential evaluations (expanded by the pipeline model according
    /// to the codegen: polynomial, FEXPA, or scalar libm).
    pub exp: f64,
    /// Gathered element loads (indexed).
    pub gather: f64,
    /// Contiguous element loads.
    pub load: f64,
    /// Contiguous element stores.
    pub store: f64,
    /// Integer ALU ops (index arithmetic).
    pub int_ops: f64,
}

impl OpMix {
    /// Scale every count by `k`.
    pub fn scaled(&self, k: f64) -> OpMix {
        OpMix {
            fma: self.fma * k,
            add: self.add * k,
            mul: self.mul * k,
            cmp_sel: self.cmp_sel * k,
            sqrt: self.sqrt * k,
            recip: self.recip * k,
            exp: self.exp * k,
            gather: self.gather * k,
            load: self.load * k,
            store: self.store * k,
            int_ops: self.int_ops * k,
        }
    }

    /// Element-wise sum.
    pub fn plus(&self, o: &OpMix) -> OpMix {
        OpMix {
            fma: self.fma + o.fma,
            add: self.add + o.add,
            mul: self.mul + o.mul,
            cmp_sel: self.cmp_sel + o.cmp_sel,
            sqrt: self.sqrt + o.sqrt,
            recip: self.recip + o.recip,
            exp: self.exp + o.exp,
            gather: self.gather + o.gather,
            load: self.load + o.load,
            store: self.store + o.store,
            int_ops: self.int_ops + o.int_ops,
        }
    }

    /// FLOPs represented by this mix, with `flops_per_exp` accounting for
    /// the exponential's implementation (polynomial ≈ 13, FEXPA ≈ 2,
    /// scalar libm ≈ 25).
    pub fn flops(&self, flops_per_exp: f64) -> f64 {
        2.0 * self.fma + self.add + self.mul + self.sqrt + self.recip + self.exp * flops_per_exp
    }

    /// "Simple-op equivalents" for throughput estimation: FMA = 1 issue
    /// slot (2 without FMA hardware), sqrt = 4 slots, everything else 1.
    pub fn issue_slots(&self, has_fma: bool) -> f64 {
        let fma_cost = if has_fma { 1.0 } else { 2.0 };
        self.fma * fma_cost + self.add + self.mul + self.cmp_sel + 4.0 * self.sqrt + self.recip
    }
}

/// One docking kernel, with the properties the codegen model needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelMix {
    pub name: &'static str,
    /// Per-element mix (element = pair for intra, atom for inter, …).
    pub per_element: OpMix,
    /// Contains math-library calls in the loop body: without a vector
    /// math library, this kernel does not vectorize (the GLIBC issue).
    pub contains_exp: bool,
}

/// Intra-energy, per pair. Counted from
/// `mudock_core::scoring::intra::{add_pair_vector, walk_gathered}` +
/// `mudock_ff::vterms::pair_energy` (its `rsqrt_nr`, two `recip_nr`s,
/// `smooth_r` and the r⁻⁶/r⁻¹⁰/r⁻¹² chain; the two bounded-domain
/// exponentials are the `exp` entries). No `sqrt`: `r = r²·rsqrt(r²)`.
/// This is the gathered walk — 6 gathers and 2 index loads per pair —
/// which is what every level below AVX-512 runs for every ligand rows do
/// not cover. The other two walks fetch the same six coordinates without
/// a gather: the table walk (AVX-512, ligands of at most 32 atoms) with 6
/// in-register permutes (`cmp_sel` + 6, `gather` 0), the half-shell rows
/// walk of large ligands with 3 contiguous loads and 3 broadcasts
/// (`gather` 0, `load` − 2 + 3) over 1.2–1.4× as many slots.
pub const INTRA_PER_PAIR: KernelMix = KernelMix {
    name: "intra",
    per_element: OpMix {
        fma: 9.0,
        add: 10.0,
        mul: 20.0,
        cmp_sel: 9.0,
        sqrt: 0.0,
        recip: 3.0, // rsqrt(r²), 1/r_smooth², 1/(A·d + B)
        exp: 2.0,   // dielectric + desolvation Gaussian
        gather: 6.0,
        load: 6.0,
        store: 0.0,
        int_ops: 2.0,
    },
    contains_exp: true,
};

/// Inter-energy, per atom. Counted from
/// `mudock_core::scoring::inter::{inter_kernel, trilerp}`: 12 paired
/// corner gathers (3 maps × 4 x-adjacent pairs, one 8-byte element load
/// each — `Simd::gather_pair_unchecked` on AVX-512 and AVX2; two single
/// gathers where the operation is its default), the 24 lane permutes that
/// split them into 24 corner values (under `cmp_sel`, with the clamps),
/// trilinear FMA chains, clamp/penalty math, integer index arithmetic
/// (3 corner offsets per map instead of 7).
pub const INTER_PER_ATOM: KernelMix = KernelMix {
    name: "inter",
    per_element: OpMix {
        fma: 25.0,
        add: 14.0,
        mul: 8.0,
        cmp_sel: 14.0 + 24.0, // 6 penalty max, 8 clamp min/max + the pair splits
        sqrt: 1.0,
        recip: 0.0,
        exp: 0.0,
        gather: 12.0,
        load: 6.0,
        store: 0.0,
        int_ops: 12.0,
    },
    contains_exp: false,
};

/// Rigid-body transform, per atom. Counted from the rigid lane loop of
/// `mudock_core::transform::apply_pose_simd`.
pub const TRANSFORM_RIGID_PER_ATOM: KernelMix = KernelMix {
    name: "transform-rigid",
    per_element: OpMix {
        fma: 9.0,
        add: 0.0,
        mul: 0.0,
        cmp_sel: 0.0,
        sqrt: 0.0,
        recip: 0.0,
        exp: 0.0,
        gather: 0.0,
        load: 3.0,
        store: 3.0,
        int_ops: 0.0,
    },
    contains_exp: false,
};

/// Torsion blend, per atom *per torsion* (branchless kernel rotates all
/// atoms and blends by mask). Counted from the torsion lane loop of
/// `apply_pose_simd`.
pub const TRANSFORM_TORSION_PER_ATOM: KernelMix = KernelMix {
    name: "transform-torsion",
    per_element: OpMix {
        fma: 12.0,
        add: 3.0,
        mul: 0.0,
        cmp_sel: 0.0,
        sqrt: 0.0,
        recip: 0.0,
        exp: 0.0,
        gather: 0.0,
        load: 4.0,
        store: 3.0,
        int_ops: 0.0,
    },
    contains_exp: false,
};

/// GA bookkeeping per gene per generation (selection, crossover,
/// mutation). Inherently scalar control flow; never vectorized.
pub const GA_PER_GENE: KernelMix = KernelMix {
    name: "ga",
    per_element: OpMix {
        fma: 0.0,
        add: 6.0,
        mul: 6.0,
        cmp_sel: 4.0,
        sqrt: 0.0,
        recip: 0.0,
        exp: 0.0,
        gather: 0.0,
        load: 4.0,
        store: 2.0,
        int_ops: 20.0,
    },
    contains_exp: false,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_and_sum() {
        let m = INTRA_PER_PAIR.per_element.scaled(2.0);
        assert_eq!(m.fma, 18.0);
        assert_eq!(m.exp, 4.0);
        let s = m.plus(&INTER_PER_ATOM.per_element);
        assert_eq!(s.gather, 12.0 + 12.0);
    }

    #[test]
    fn flops_accounting() {
        let m = OpMix {
            fma: 10.0,
            add: 5.0,
            mul: 5.0,
            exp: 1.0,
            ..Default::default()
        };
        assert_eq!(m.flops(13.0), 20.0 + 10.0 + 13.0);
    }

    #[test]
    fn issue_slots_respect_fma() {
        let m = OpMix {
            fma: 10.0,
            add: 2.0,
            sqrt: 1.0,
            ..Default::default()
        };
        assert_eq!(m.issue_slots(true), 10.0 + 2.0 + 4.0);
        assert_eq!(m.issue_slots(false), 20.0 + 2.0 + 4.0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the static op-mix tables
    fn kernels_flag_math_correctly() {
        assert!(
            INTRA_PER_PAIR.contains_exp,
            "intra calls exp (dielectric/desolv)"
        );
        assert!(!INTER_PER_ATOM.contains_exp, "inter is pure lookups + FMA");
        assert!(!TRANSFORM_RIGID_PER_ATOM.contains_exp);
    }

    #[test]
    fn intra_is_compute_heavy_inter_is_gather_heavy() {
        // The paper's characterization (Section V): intra = compute-bound,
        // inter = memory lookups — fewer FLOPs per gathered load, and each
        // of inter's loads is an 8-byte pair.
        let intra = INTRA_PER_PAIR.per_element;
        let inter = INTER_PER_ATOM.per_element;
        let intra_ratio = intra.flops(13.0) / intra.gather;
        let inter_ratio = inter.flops(13.0) / inter.gather;
        assert!(intra_ratio > 1.5 * inter_ratio);
    }
}
