//! The control kernel: a fixed, compute-bound loop that belongs to the
//! benchmark and never changes with the repository's code. It is timed
//! right before and right after every measured unit of work, and every
//! reported time is the measured time scaled by
//! `(CONTROL_REF_NS ÷ control time) ^ CONTROL_ELASTICITY`.
//!
//! Why: this class of host (a 2-vCPU guest sharing a core) runs the
//! same rep at 30 ms or at 60 ms for tens of seconds at a stretch,
//! whatever the estimator — raw times measure the host's weather, not
//! the program. The control sees the same weather a fraction of a
//! millisecond away from the work, so the scaled time holds still where
//! the raw one does not. A reported time therefore reads "what this
//! would take with the host at its reference speed"; the raw figures
//! and the observed slowdown are among the traced pass's diagnostics.
//! The correction is first-order: contention for the last-level cache,
//! which the control does not feel, still shows in `dock_large`.

use std::time::Instant;

/// What one control run takes on the reference host (Xeon @ 2.1 GHz,
/// AVX-512) when nothing else shares the core: the fast decile of
/// several thousand runs. On another host the constant only scales
/// every reported time by the same factor.
pub const CONTROL_REF_NS: f64 = 285_000.0;

/// How strongly a unit of work responds to what slows the control: a
/// measured time is scaled by `(CONTROL_REF_NS ÷ control)` to this
/// power. The control is purely compute-bound; docking and serving also
/// wait on memory, the kernel and other threads, which a busy
/// neighbour slows less. Chosen from twelve 20 s runs of every
/// workload (48 runs, a different seed each): with the fast decile of
/// the normalized reps as the estimator, 0.9 gave the smallest worst
/// case over all arms (quartile distance 3–10 % of the median, where the
/// raw fast decile gave 14–33 %); 0.75 and 1.0 were within a point of
/// it.
pub const CONTROL_ELASTICITY: f64 = 0.9;

/// Independent accumulators: enough to fill the floating-point pipes
/// whatever the vector width the compiler picks.
const LANES: usize = 128;
const ROUNDS: usize = 40_000;

/// Run the control once; returns its duration in ns.
pub fn control_ns() -> f64 {
    let t0 = Instant::now();
    // Opaque inputs, so the loop cannot be folded away.
    let step = std::hint::black_box(1e-3f32);
    let mut acc = [0.0f32; LANES];
    for (k, a) in acc.iter_mut().enumerate() {
        *a = 1.0 + k as f32 * step;
    }
    for _ in 0..ROUNDS {
        for a in acc.iter_mut() {
            *a = *a * 0.99999 + 0.00001;
        }
    }
    std::hint::black_box(&mut acc);
    t0.elapsed().as_nanos() as f64
}

/// Times units of work between control runs. `time` returns the unit's
/// normalized duration, with the control taken as the mean of the runs
/// right before and right after.
pub struct Normalizer {
    before: f64,
    /// Control durations seen so far (one per unit of work).
    controls: Vec<f64>,
}

impl Default for Normalizer {
    fn default() -> Self {
        Normalizer::new()
    }
}

impl Normalizer {
    pub fn new() -> Normalizer {
        Normalizer {
            before: control_ns(),
            controls: Vec::new(),
        }
    }

    /// Run the control afresh before a unit of work that does not
    /// follow the previous one directly.
    pub fn refresh(&mut self) {
        self.before = control_ns();
    }

    /// The factor that turns a duration measured since the last control
    /// run into a normalized one; runs the control again.
    pub fn close(&mut self) -> f64 {
        let after = control_ns();
        let control = (self.before + after) / 2.0;
        self.before = after;
        self.controls.push(control);
        (CONTROL_REF_NS / control).powf(CONTROL_ELASTICITY)
    }

    /// Run `f`; returns its result and its normalized wall time in ns.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as f64;
        (out, ns * self.close())
    }

    /// The factor that brings a raw duration taken somewhere among the
    /// units timed so far (a span, a service's own stage clock) to the
    /// reference host speed.
    pub fn scale(&self) -> f64 {
        self.slowdown().powf(-CONTROL_ELASTICITY)
    }

    /// How much slower than the reference the host ran over the units
    /// timed so far (median control ÷ reference).
    pub fn slowdown(&self) -> f64 {
        if self.controls.is_empty() {
            return self.before / CONTROL_REF_NS;
        }
        crate::stats::median(&self.controls) / CONTROL_REF_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_as_long_as_the_control_reads_as_the_reference() {
        let mut n = Normalizer::new();
        let samples: Vec<f64> = (0..9).map(|_| n.time(control_ns).1).collect();
        // Whatever the host's speed, the control normalized by itself
        // stays near the reference (exactly so at elasticity 1).
        let ratio = crate::stats::median(&samples) / CONTROL_REF_NS;
        assert!((0.7..1.6).contains(&ratio), "ratio {ratio}");
        assert!(n.slowdown() > 0.0);
    }
}
