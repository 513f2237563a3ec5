//! Roofline model (Williams et al.) — reproduces the paper's Figure 5
//! construction: per-architecture peak FLOP/s ceilings (scalar, vector,
//! vector+FMA) and a memory-bandwidth diagonal, with kernels placed by
//! their measured arithmetic intensity and attained FLOP/s.

/// One performance ceiling (a horizontal line on the roofline plot).
#[derive(Clone, Debug, PartialEq)]
pub struct Ceiling {
    /// Label, e.g. `"sp_avx512+fma"`.
    pub name: String,
    /// Peak in GFLOP/s.
    pub gflops: f64,
}

/// A measured kernel point on the plot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelPoint {
    /// Arithmetic intensity (FLOP/byte).
    pub ai: f64,
    /// Attained performance (GFLOP/s).
    pub gflops: f64,
}

/// Roofline for one machine: bandwidth diagonal + compute ceilings.
#[derive(Clone, Debug)]
pub struct Roofline {
    /// Machine name.
    pub name: String,
    /// Peak memory bandwidth (GB/s).
    pub bw_gbs: f64,
    /// Compute ceilings, ascending.
    pub ceilings: Vec<Ceiling>,
}

impl Roofline {
    pub fn new(name: impl Into<String>, bw_gbs: f64) -> Roofline {
        Roofline {
            name: name.into(),
            bw_gbs,
            ceilings: Vec::new(),
        }
    }

    /// Add a compute ceiling (kept sorted ascending).
    pub fn with_ceiling(mut self, name: impl Into<String>, gflops: f64) -> Roofline {
        self.ceilings.push(Ceiling {
            name: name.into(),
            gflops,
        });
        self.ceilings.sort_by(|a, b| a.gflops.total_cmp(&b.gflops));
        self
    }

    /// Highest compute ceiling.
    pub fn peak_gflops(&self) -> f64 {
        self.ceilings.last().map(|c| c.gflops).unwrap_or(0.0)
    }

    /// Attainable GFLOP/s at a given arithmetic intensity:
    /// `min(peak, bw × AI)`.
    pub fn attainable(&self, ai: f64) -> f64 {
        (self.bw_gbs * ai).min(self.peak_gflops())
    }

    /// The ridge point: the AI where memory- and compute-bound regimes
    /// meet.
    pub fn ridge_ai(&self) -> f64 {
        if self.bw_gbs > 0.0 {
            self.peak_gflops() / self.bw_gbs
        } else {
            f64::INFINITY
        }
    }

    /// Is a kernel at this intensity compute-bound (right of the ridge)?
    pub fn is_compute_bound(&self, ai: f64) -> bool {
        ai >= self.ridge_ai()
    }

    /// Fraction of the attainable performance a measured point achieves.
    pub fn efficiency(&self, p: KernelPoint) -> f64 {
        let roof = self.attainable(p.ai);
        if roof > 0.0 {
            p.gflops / roof
        } else {
            0.0
        }
    }

    /// Sample the roofline curve at log-spaced intensities in
    /// `[ai_min, ai_max]` — the series the figure generator prints.
    pub fn series(&self, ai_min: f64, ai_max: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(ai_min > 0.0 && ai_max > ai_min && points >= 2);
        let l0 = ai_min.ln();
        let l1 = ai_max.ln();
        (0..points)
            .map(|i| {
                let ai = (l0 + (l1 - l0) * i as f64 / (points - 1) as f64).exp();
                (ai, self.attainable(ai))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spr_like() -> Roofline {
        Roofline::new("spr", 300.0)
            .with_ceiling("sp_scalar", 10.0)
            .with_ceiling("sp_avx512", 80.0)
            .with_ceiling("sp_avx512+fma", 160.0)
    }

    #[test]
    fn ceilings_sorted_and_peak() {
        let r = spr_like();
        assert_eq!(r.ceilings[0].name, "sp_scalar");
        assert_eq!(r.peak_gflops(), 160.0);
    }

    #[test]
    fn attainable_respects_both_limits() {
        let r = spr_like();
        // Memory-bound region: limited by bw*ai.
        assert!((r.attainable(0.1) - 30.0).abs() < 1e-9);
        // Compute-bound region: flat at peak.
        assert_eq!(r.attainable(100.0), 160.0);
    }

    #[test]
    fn ridge_point() {
        let r = spr_like();
        let ridge = r.ridge_ai();
        assert!((ridge - 160.0 / 300.0).abs() < 1e-9);
        assert!(!r.is_compute_bound(ridge * 0.5));
        assert!(r.is_compute_bound(ridge * 2.0));
    }

    #[test]
    fn efficiency_of_points() {
        let r = spr_like();
        let perfect = KernelPoint {
            ai: 10.0,
            gflops: 160.0,
        };
        assert!((r.efficiency(perfect) - 1.0).abs() < 1e-9);
        let half = KernelPoint {
            ai: 10.0,
            gflops: 80.0,
        };
        assert!((r.efficiency(half) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn series_is_monotone_nondecreasing() {
        let r = spr_like();
        let s = r.series(0.01, 1000.0, 64);
        assert_eq!(s.len(), 64);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
            assert!(w[1].0 > w[0].0);
        }
        // Saturates at the peak.
        assert_eq!(s.last().unwrap().1, 160.0);
    }
}
