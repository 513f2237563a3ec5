//! Property-based equivalence: every SIMD backend must agree with the
//! scalar reference, operation by operation, over randomized inputs.
//! This is the contract that makes `dispatch!`-based kernels portable.

use mudock_simd::traits::{gather_pair_default, lookup2_default};
use mudock_simd::{dispatch, math, Simd, SimdLevel};
use proptest::prelude::*;

const MAX: usize = mudock_simd::MAX_LANES;

/// Apply a lane-wise binary op at `level` to the first MAX lanes.
fn binop(level: SimdLevel, a: &[f32], b: &[f32], op: &str) -> Vec<f32> {
    #[inline(always)]
    fn go<S: Simd>(s: S, a: &[f32], b: &[f32], op: &str) -> Vec<f32> {
        let mut out = vec![0.0f32; MAX];
        let mut i = 0;
        while i + S::LANES <= MAX {
            let va = s.load(&a[i..]);
            let vb = s.load(&b[i..]);
            let v = match op {
                "add" => s.add(va, vb),
                "sub" => s.sub(va, vb),
                "mul" => s.mul(va, vb),
                "div" => s.div(va, vb),
                "min" => s.min(va, vb),
                "max" => s.max(va, vb),
                _ => unreachable!(),
            };
            s.store(v, &mut out[i..]);
            i += S::LANES;
        }
        out
    }
    dispatch!(level, |s| go(s, a, b, op))
}

fn finite() -> impl Strategy<Value = f32> {
    // Away from subnormals and overflow to keep ULP comparisons honest.
    prop_oneof![(-1e6f32..1e6).prop_filter("nonzero-ish", |x| x.abs() > 1e-6)]
}

fn lanes() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(finite(), MAX..=MAX)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn arithmetic_matches_scalar(a in lanes(), b in lanes(),
                                 op in prop::sample::select(vec!["add","sub","mul","div","min","max"])) {
        let want = binop(SimdLevel::Scalar, &a, &b, op);
        for level in SimdLevel::available() {
            let got = binop(level, &a, &b, op);
            for i in 0..MAX {
                let (w, g) = (want[i], got[i]);
                prop_assert!(
                    (g - w).abs() <= 1e-6 * w.abs().max(1e-20) || g == w,
                    "{level} {op} lane {i}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn fma_is_at_least_as_accurate(a in lanes(), b in lanes(), c in lanes()) {
        // mul_add may be fused (more accurate) but must stay within one
        // rounding of the unfused result.
        for level in SimdLevel::available() {
            let got = dispatch!(level, |s| {
                fn go<S: Simd>(s: S, a: &[f32], b: &[f32], c: &[f32]) -> Vec<f32> {
                    let mut out = vec![0.0f32; MAX];
                    let mut i = 0;
                    while i + S::LANES <= MAX {
                        let v = s.mul_add(s.load(&a[i..]), s.load(&b[i..]), s.load(&c[i..]));
                        s.store(v, &mut out[i..]);
                        i += S::LANES;
                    }
                    out
                }
                go(s, &a, &b, &c)
            });
            for i in 0..MAX {
                let exact = (a[i] as f64) * (b[i] as f64) + (c[i] as f64);
                let unfused = a[i] * b[i] + c[i];
                let tol = ((unfused as f64) - exact).abs().max(exact.abs() * 1e-6) + 1e-30;
                prop_assert!(
                    ((got[i] as f64) - exact).abs() <= tol * 1.01,
                    "{level} lane {i}: {} vs exact {exact}",
                    got[i]
                );
            }
        }
    }

    #[test]
    fn compares_and_select_match(a in lanes(), b in lanes()) {
        for level in SimdLevel::available() {
            let got = dispatch!(level, |s| {
                fn go<S: Simd>(s: S, a: &[f32], b: &[f32]) -> Vec<f32> {
                    let mut out = vec![0.0f32; MAX];
                    let mut i = 0;
                    while i + S::LANES <= MAX {
                        let va = s.load(&a[i..]);
                        let vb = s.load(&b[i..]);
                        let m = s.lt(va, vb);
                        s.store(s.select(m, va, vb), &mut out[i..]);
                        i += S::LANES;
                    }
                    out
                }
                go(s, &a, &b)
            });
            for i in 0..MAX {
                let want = if a[i] < b[i] { a[i] } else { b[i] };
                prop_assert_eq!(got[i], want, "{} lane {}", level, i);
            }
        }
    }

    #[test]
    fn reductions_match_sequential(a in lanes()) {
        for level in SimdLevel::available() {
            let (sum, min, max) = dispatch!(level, |s| {
                fn go<S: Simd>(s: S, a: &[f32]) -> (f32, f32, f32) {
                    let mut sum = 0.0;
                    let mut mn = f32::INFINITY;
                    let mut mx = f32::NEG_INFINITY;
                    let mut i = 0;
                    while i + S::LANES <= MAX {
                        let v = s.load(&a[i..]);
                        sum += s.reduce_add(v);
                        mn = mn.min(s.reduce_min(v));
                        mx = mx.max(s.reduce_max(v));
                        i += S::LANES;
                    }
                    (sum, mn, mx)
                }
                go(s, &a)
            });
            let want_sum: f32 = a.iter().sum();
            let want_min = a.iter().cloned().fold(f32::INFINITY, f32::min);
            let want_max = a.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!((sum - want_sum).abs() <= 1e-3 * want_sum.abs().max(1.0), "{level}");
            prop_assert_eq!(min, want_min, "{}", level);
            prop_assert_eq!(max, want_max, "{}", level);
        }
    }

    #[test]
    fn gathers_match_indexing(idx in prop::collection::vec(0i32..512, MAX..=MAX)) {
        let table: Vec<f32> = (0..512).map(|i| (i as f32).sin()).collect();
        for level in SimdLevel::available() {
            let got = dispatch!(level, |s| {
                fn go<S: Simd>(s: S, table: &[f32], idx: &[i32]) -> Vec<f32> {
                    let mut out = vec![0.0f32; MAX];
                    let mut i = 0;
                    while i + S::LANES <= MAX {
                        let v = s.gather(table, s.load_i32(&idx[i..]));
                        s.store(v, &mut out[i..]);
                        i += S::LANES;
                    }
                    out
                }
                go(s, &table, &idx)
            });
            for i in 0..MAX {
                prop_assert_eq!(got[i], table[idx[i] as usize], "{} lane {}", level, i);
            }
        }
    }

    #[test]
    fn lookup2_matches_the_default_and_wraps(
        lo in lanes(),
        hi in lanes(),
        // Inside the table, just outside it on both sides, anywhere.
        idx in prop::collection::vec(
            prop_oneof![0i32..32, -40i32..72, (0u64..1 << 32).prop_map(|u| u as u32 as i32)],
            MAX..=MAX,
        ),
    ) {
        for level in SimdLevel::available() {
            let (got, want) = dispatch!(level, |s| {
                fn go<S: Simd>(s: S, lo: &[f32], hi: &[f32], idx: &[i32]) -> (Vec<f32>, Vec<f32>) {
                    let (mut got, mut want) = (vec![0.0f32; MAX], vec![0.0f32; MAX]);
                    let mut i = 0;
                    while i + S::LANES <= MAX {
                        let (l, h) = (s.load(&lo[i..]), s.load(&hi[i..]));
                        let ix = s.load_i32(&idx[i..]);
                        s.store(s.lookup2(l, h, ix), &mut got[i..]);
                        s.store(lookup2_default(s, l, h, ix), &mut want[i..]);
                        i += S::LANES;
                    }
                    (got, want)
                }
                go(s, &lo, &hi, &idx)
            });
            let n = level.lanes();
            for i in 0..MAX {
                prop_assert_eq!(got[i].to_bits(), want[i].to_bits(), "{} lane {}", level, i);
                // The documented semantics, independent of both.
                let base = i / n * n;
                let k = idx[i].rem_euclid(2 * n as i32) as usize;
                let entry = if k < n { lo[base + k] } else { hi[base + k - n] };
                prop_assert_eq!(got[i].to_bits(), entry.to_bits(), "{} lane {} wraps to {}", level, i, k);
            }
        }
    }

    #[test]
    fn paired_gathers_match_two_single_gathers(
        table in prop::collection::vec(finite(), 2..600),
        raw in prop::collection::vec(0usize..1 << 20, MAX..=MAX),
        last_pair_everywhere in prop::sample::select(vec![false, true]),
    ) {
        // Every index in 0 ..= len − 2; optionally the last legal pair in
        // every lane. Table lengths are odd as often as even.
        let top = table.len() - 2;
        let idx: Vec<i32> = raw
            .iter()
            .map(|&r| if last_pair_everywhere { top } else { r % (top + 1) } as i32)
            .collect();
        for level in SimdLevel::available() {
            let got = dispatch!(level, |s| {
                fn go<S: Simd>(s: S, table: &[f32], idx: &[i32]) -> [Vec<f32>; 4] {
                    let mut out = [(); 4].map(|_| vec![0.0f32; MAX]);
                    let mut i = 0;
                    while i + S::LANES <= MAX {
                        let ix = s.load_i32(&idx[i..]);
                        // SAFETY: every index is ≤ table.len() − 2.
                        let (a, b) = unsafe { s.gather_pair_unchecked(table, ix) };
                        let (c, d) = unsafe { gather_pair_default(s, table, ix) };
                        for (v, o) in [a, b, c, d].into_iter().zip(&mut out) {
                            s.store(v, &mut o[i..]);
                        }
                        i += S::LANES;
                    }
                    out
                }
                go(s, &table, &idx)
            });
            for i in 0..MAX {
                let k = idx[i] as usize;
                for (half, o) in got.iter().enumerate() {
                    prop_assert_eq!(
                        o[i].to_bits(), table[k + half % 2].to_bits(),
                        "{} lane {} half {} of table[{}..] (len {})", level, i, half, k, table.len()
                    );
                }
            }
        }
    }

    #[test]
    fn exp_agrees_across_backends(a in prop::collection::vec(-80.0f32..80.0, MAX..=MAX)) {
        let reference: Vec<f32> = a.iter().map(|&x| {
            math::exp(mudock_simd::Scalar::new(), x)
        }).collect();
        for level in SimdLevel::available() {
            let got = dispatch!(level, |s| {
                fn go<S: Simd>(s: S, a: &[f32]) -> Vec<f32> {
                    let mut out = vec![0.0f32; MAX];
                    let mut i = 0;
                    while i + S::LANES <= MAX {
                        s.store(math::exp(s, s.load(&a[i..])), &mut out[i..]);
                        i += S::LANES;
                    }
                    out
                }
                go(s, &a)
            });
            for i in 0..MAX {
                let rel = ((got[i] - reference[i]) / reference[i].abs().max(1e-30)).abs();
                // Backends may differ by FMA contraction inside the
                // polynomial: a few ULP.
                prop_assert!(rel < 1e-5, "{level} exp({}) {} vs {}", a[i], got[i], reference[i]);
            }
        }
    }

    #[test]
    fn int_ops_match_scalar(v in prop::collection::vec(-1_000_000i32..1_000_000, MAX..=MAX)) {
        for level in SimdLevel::available() {
            let got = dispatch!(level, |s| {
                fn go<S: Simd>(s: S, v: &[i32]) -> Vec<i32> {
                    let mut out = vec![0i32; MAX];
                    let mut i = 0;
                    while i + S::LANES <= MAX {
                        let a = s.load_i32(&v[i..]);
                        let r = s.i32_add(s.i32_shl::<2>(a), s.splat_i32(7));
                        let r = s.i32_and(r, s.splat_i32(0x00ff_ffff));
                        s.store_i32(r, &mut out[i..]);
                        i += S::LANES;
                    }
                    out
                }
                go(s, &v)
            });
            for i in 0..MAX {
                let want = (((v[i] as u32) << 2).wrapping_add(7) & 0x00ff_ffff) as i32;
                prop_assert_eq!(got[i], want, "{} lane {}", level, i);
            }
        }
    }
}
