//! The 1-D lifting 9/7 transform (Figure 3 of the paper).
//!
//! One forward and one inverse pass compute every transform here, as
//! the multi-pass block lifting of Barina et al., "Parallel Wavelet
//! Schemes for Images": each of the α, β, γ and δ stages is one
//! in-place sweep over a band. Both passes are generic over
//!
//! * **the arithmetic** — the two flavours Table 2 compares:
//!   floating-point factorised coefficients ([`forward_f64`],
//!   [`inverse_f64`], [`FloatConstants`] for perturbed values), and Q2.8
//!   integer-rounded coefficients with the 8-bit right-shift truncation
//!   of Section 3.1 ([`IntLifting`], [`Q2x8::mul_shift`]);
//! * **the boundary** — whole-sample symmetric extension for the block
//!   transform (see [`crate::boundary`]), performed *in the subband
//!   domain*, which is provably identical to mirroring the signal because
//!   a mirrored even index stays even and a mirrored odd index stays odd;
//!   or zeros past both ends for the streaming hardware's cleared
//!   registers and zero flush ([`IntLifting::forward_zero_history`]).
//!
//! [`LiftingTrace`] records every internal node, which the architecture
//! crate uses for register bit-width checks and netlist equivalence
//! testing.

use std::ops::{Add, Sub};

use crate::boundary::mirror;
use crate::coeffs::{lifting as lc, LiftingConstants};
use crate::error::{Error, Result};
use crate::fixed::Q2x8;

/// A low/high subband pair produced by one analysis octave.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Subbands<T> {
    /// Low-pass (approximation) band; `ceil(n/2)` samples.
    pub low: Vec<T>,
    /// High-pass (detail) band; `floor(n/2)` samples.
    pub high: Vec<T>,
}

impl<T> Subbands<T> {
    /// Length of the signal that produced (or would reconstruct from)
    /// this pair.
    #[must_use]
    pub fn signal_len(&self) -> usize {
        self.low.len() + self.high.len()
    }

    /// Validates that the band lengths can come from a forward transform.
    pub(crate) fn check(&self) -> Result<()> {
        let (l, h) = (self.low.len(), self.high.len());
        if l == h || l == h + 1 {
            if l + h < 2 {
                Err(Error::SignalTooShort { len: l + h })
            } else {
                Ok(())
            }
        } else {
            Err(Error::MismatchedBands { low: l, high: h })
        }
    }
}

/// Splits a signal into its even (`s`) and odd (`d`) polyphase components.
fn split<T: Copy>(x: &[T]) -> (Vec<T>, Vec<T>) {
    let s = x.iter().copied().step_by(2).collect();
    let d = x.iter().copied().skip(1).step_by(2).collect();
    (s, d)
}

/// Interleaves even and odd components back into a signal.
fn merge<T: Copy + Default>(s: &[T], d: &[T]) -> Vec<T> {
    let mut out = vec![T::default(); s.len() + d.len()];
    for (i, &v) in s.iter().enumerate() {
        out[2 * i] = v;
    }
    for (i, &v) in d.iter().enumerate() {
        out[2 * i + 1] = v;
    }
    out
}

fn check_len(n: usize) -> Result<()> {
    if n < 2 {
        return Err(Error::SignalTooShort { len: n });
    }
    Ok(())
}

/// One of Table 2's two arithmetics: how a constant scales a value.
trait Arithmetic: Copy {
    /// The sample type a pass computes in.
    type Value: Copy + Default + Add<Output = Self::Value> + Sub<Output = Self::Value>;

    /// `k · v`.
    fn times(self, v: Self::Value) -> Self::Value;

    /// `v / k`, undoing an output scaling.
    fn divide(self, v: Self::Value) -> Self::Value;
}

impl Arithmetic for f64 {
    type Value = f64;

    fn times(self, v: f64) -> f64 {
        self * v
    }

    fn divide(self, v: f64) -> f64 {
        v / self
    }
}

impl Arithmetic for Q2x8 {
    type Value = i64;

    fn times(self, v: i64) -> i64 {
        self.mul_shift(v)
    }

    /// Multiplies by the reciprocal rounded to Q2.8: `k = 1/(1/k)` and
    /// `-1/k = 1/(-k)` are 315/256 ≈ 1.2305 and -208/256 ≈ -0.8125, so
    /// the integer inverse is close to, not bit-exact with, the
    /// forward's input — the error Table 2 quantifies.
    fn divide(self, v: i64) -> i64 {
        (v * (65536 / i64::from(self.raw()))) >> 8
    }
}

/// One constant set in one arithmetic, in datapath order: α, β, γ, δ,
/// then the high-band scale −k and the low-band scale 1/k.
type Kernel<A> = [A; 6];

/// The boundary of a pass: whole-sample symmetric extension.
const MIRROR: bool = true;
/// The boundary of a pass: zeros past both ends.
const ZERO: bool = false;

/// Reads signal position `pos` of a signal of `n` samples from `band`,
/// the band holding positions of `pos`'s parity; past the ends the
/// position mirrors (a mirrored position keeps its parity) or reads 0.
fn at<T: Copy + Default, const M: bool>(band: &[T], pos: i64, n: usize) -> T {
    if M {
        band[mirror(pos, n) / 2]
    } else {
        usize::try_from(pos).ok().and_then(|p| band.get(p / 2)).copied().unwrap_or_default()
    }
}

/// One lifting stage over `band`, whose samples sit at the signal
/// positions `2i + parity`: each sample gains (or, when `undo`, loses)
/// `k` times the sum of its two neighbours, read from `other`.
fn lift<A: Arithmetic, const M: bool>(
    band: &mut [A::Value],
    parity: i64,
    other: &[A::Value],
    k: A,
    n: usize,
    undo: bool,
) {
    for (i, v) in band.iter_mut().enumerate() {
        let pos = 2 * i as i64 + parity;
        let step = k.times(at::<_, M>(other, pos - 1, n) + at::<_, M>(other, pos + 1, n));
        *v = if undo { *v - step } else { *v + step };
    }
}

/// The forward pass, in place: α, β, γ and δ over the even band `s`
/// and the odd band `d`, then the output scalings, so `s` ends as the
/// low band and `d` as the high band. `node` sees each band right after
/// its stage: `d1`, `s1`, `d2`, `s2`.
fn forward<A: Arithmetic, const M: bool>(
    k: Kernel<A>,
    s: &mut [A::Value],
    d: &mut [A::Value],
    mut node: impl FnMut(&[A::Value]),
) {
    let ([alpha, beta, gamma, delta, minus_k, inv_k], n) = (k, s.len() + d.len());
    lift::<A, M>(d, 1, s, alpha, n, false);
    node(d);
    lift::<A, M>(s, 0, d, beta, n, false);
    node(s);
    lift::<A, M>(d, 1, s, gamma, n, false);
    node(d);
    lift::<A, M>(s, 0, d, delta, n, false);
    node(s);
    s.iter_mut().for_each(|v| *v = inv_k.times(*v));
    d.iter_mut().for_each(|v| *v = minus_k.times(*v));
}

/// The inverse pass, in place: undoes the output scalings, then δ, γ,
/// β and α, so the low band `s` ends as the even samples and the high
/// band `d` as the odd ones.
fn inverse<A: Arithmetic, const M: bool>(k: Kernel<A>, s: &mut [A::Value], d: &mut [A::Value]) {
    let ([alpha, beta, gamma, delta, minus_k, inv_k], n) = (k, s.len() + d.len());
    s.iter_mut().for_each(|v| *v = inv_k.divide(*v));
    d.iter_mut().for_each(|v| *v = minus_k.divide(*v));
    lift::<A, M>(s, 0, d, delta, n, true);
    lift::<A, M>(d, 1, s, gamma, n, true);
    lift::<A, M>(s, 0, d, beta, n, true);
    lift::<A, M>(d, 1, s, alpha, n, true);
}

/// Every node of a mirrored forward pass over `x`: `s0`, `d0`, `d1`,
/// `s1`, `d2`, `s2`, low and high.
fn trace<A: Arithmetic>(k: Kernel<A>, x: &[A::Value]) -> [Vec<A::Value>; 8] {
    let (mut s, mut d) = split(x);
    let (s0, d0) = (s.clone(), d.clone());
    let mut nodes: [Vec<A::Value>; 4] = Default::default();
    let mut stage = 0;
    forward::<A, MIRROR>(k, &mut s, &mut d, |band| {
        nodes[stage] = band.to_vec();
        stage += 1;
    });
    let [d1, s1, d2, s2] = nodes;
    [s0, d0, d1, s1, d2, s2, s, d]
}

/// Real-valued lifting constants, for floating-point transforms with
/// perturbed (e.g. integer-rounded) coefficient values — the coefficient
/// study of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatConstants {
    /// Predict 1 constant.
    pub alpha: f64,
    /// Update 1 constant.
    pub beta: f64,
    /// Predict 2 constant.
    pub gamma: f64,
    /// Update 2 constant.
    pub delta: f64,
    /// Low-band scale (applied on the forward transform).
    pub inv_k: f64,
    /// High-band scale (applied on the forward transform; negative).
    pub minus_k: f64,
}

impl FloatConstants {
    /// The paper's exact floating-point constants.
    #[must_use]
    pub fn paper() -> Self {
        FloatConstants {
            alpha: lc::ALPHA,
            beta: lc::BETA,
            gamma: lc::GAMMA,
            delta: lc::DELTA,
            inv_k: lc::INV_K,
            minus_k: -lc::K,
        }
    }

    /// The values of a Q2.8 [`LiftingConstants`] set, as reals
    /// (`raw/256`) — what the "integer rounded factorized coefficients"
    /// method of Table 2 computes with.
    #[must_use]
    pub fn from_q2x8(c: &LiftingConstants) -> Self {
        FloatConstants {
            alpha: c.alpha.to_f64(),
            beta: c.beta.to_f64(),
            gamma: c.gamma.to_f64(),
            delta: c.delta.to_f64(),
            inv_k: c.inv_k.to_f64(),
            minus_k: c.minus_k.to_f64(),
        }
    }

    fn kernel(&self) -> Kernel<f64> {
        let c = self;
        [c.alpha, c.beta, c.gamma, c.delta, c.minus_k, c.inv_k]
    }
}

impl Default for FloatConstants {
    fn default() -> Self {
        FloatConstants::paper()
    }
}

/// Forward floating-point lifting transform with explicit constants.
///
/// # Errors
///
/// Returns [`Error::SignalTooShort`] if `x` has fewer than two samples.
pub fn forward_f64_with(x: &[f64], c: &FloatConstants) -> Result<Subbands<f64>> {
    check_len(x.len())?;
    let (mut s, mut d) = split(x);
    forward::<f64, MIRROR>(c.kernel(), &mut s, &mut d, |_| {});
    Ok(Subbands { low: s, high: d })
}

/// Inverse floating-point lifting transform with explicit constants
/// (the exact inverse of [`forward_f64_with`] for the same constants).
///
/// # Errors
///
/// Returns [`Error::MismatchedBands`] / [`Error::SignalTooShort`] for
/// invalid band pairs.
pub fn inverse_f64_with(bands: &Subbands<f64>, c: &FloatConstants) -> Result<Vec<f64>> {
    bands.check()?;
    let (mut s, mut d) = (bands.low.clone(), bands.high.clone());
    inverse::<f64, MIRROR>(c.kernel(), &mut s, &mut d);
    Ok(merge(&s, &d))
}

/// Forward floating-point lifting transform of one octave.
///
/// Produces the low band scaled by `1/k` and the high band scaled by `-k`
/// exactly as drawn in Figure 3 of the paper.
///
/// # Errors
///
/// Returns [`Error::SignalTooShort`] if `x` has fewer than two samples.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dwt_core::Error> {
/// use dwt_core::lifting::{forward_f64, inverse_f64};
///
/// let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin() * 100.0).collect();
/// let bands = forward_f64(&x)?;
/// let y = inverse_f64(&bands)?;
/// for (a, b) in x.iter().zip(&y) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
pub fn forward_f64(x: &[f64]) -> Result<Subbands<f64>> {
    forward_f64_with(x, &FloatConstants::paper())
}

/// Inverse floating-point lifting transform of one octave.
///
/// Exactly undoes [`forward_f64`] (to floating-point precision).
///
/// # Errors
///
/// Returns [`Error::MismatchedBands`] if the band lengths cannot come from
/// a forward transform, or [`Error::SignalTooShort`] for fewer than two
/// total samples.
pub fn inverse_f64(bands: &Subbands<f64>) -> Result<Vec<f64>> {
    inverse_f64_with(bands, &FloatConstants::paper())
}

/// Every internal node of the integer lifting datapath for one octave,
/// in the naming of Section 3.1 / Figure 5.
///
/// The architecture crate replays these against netlist simulations, and
/// the bit-width analysis measures empirical ranges from them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LiftingTrace {
    /// Even input samples (`x[2n]`).
    pub s0: Vec<i64>,
    /// Odd input samples (`x[2n+1]`).
    pub d0: Vec<i64>,
    /// Odd dataflow after the α stage (11-bit register class).
    pub d1: Vec<i64>,
    /// Even dataflow after the β stage (9-bit register class).
    pub s1: Vec<i64>,
    /// Odd dataflow after the γ stage (9-bit register class).
    pub d2: Vec<i64>,
    /// Even dataflow after the δ stage (10-bit register class).
    pub s2: Vec<i64>,
    /// Low-pass outputs after the 1/k multiplier (10-bit register class).
    pub low: Vec<i64>,
    /// High-pass outputs after the −k multiplier (9-bit register class).
    pub high: Vec<i64>,
}

/// Every internal node of the floating-point lifting datapath for one
/// octave — the real-valued counterpart of [`LiftingTrace`], used by the
/// bit-width analysis to measure per-node filter gains.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FloatLiftingTrace {
    /// Even input samples.
    pub s0: Vec<f64>,
    /// Odd input samples.
    pub d0: Vec<f64>,
    /// Odd dataflow after the α stage.
    pub d1: Vec<f64>,
    /// Even dataflow after the β stage.
    pub s1: Vec<f64>,
    /// Odd dataflow after the γ stage.
    pub d2: Vec<f64>,
    /// Even dataflow after the δ stage.
    pub s2: Vec<f64>,
    /// Low-pass outputs after 1/k.
    pub low: Vec<f64>,
    /// High-pass outputs after −k.
    pub high: Vec<f64>,
}

/// Forward floating-point lifting transform recording every internal node.
///
/// # Errors
///
/// Returns [`Error::SignalTooShort`] if `x` has fewer than two samples.
pub fn forward_trace_f64(x: &[f64]) -> Result<FloatLiftingTrace> {
    check_len(x.len())?;
    let [s0, d0, d1, s1, d2, s2, low, high] = trace(FloatConstants::paper().kernel(), x);
    Ok(FloatLiftingTrace { s0, d0, d1, s1, d2, s2, low, high })
}

/// Integer lifting kernel with Q2.8 constants and 8-bit right-shift
/// truncation after every constant multiplier (Sections 3.1–3.2).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dwt_core::Error> {
/// use dwt_core::coeffs::LiftingConstants;
/// use dwt_core::lifting::IntLifting;
///
/// let kernel = IntLifting::new(LiftingConstants::default());
/// let x: Vec<i32> = (0..16).map(|i| (i * 13 % 200) - 100).collect();
/// let bands = kernel.forward(&x)?;
/// assert_eq!(bands.low.len(), 8);
/// assert_eq!(bands.high.len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntLifting {
    constants: LiftingConstants,
}

impl IntLifting {
    /// Creates a kernel using the given Table 1 constants.
    #[must_use]
    pub fn new(constants: LiftingConstants) -> Self {
        IntLifting { constants }
    }

    /// The constants the kernel was built with.
    #[must_use]
    pub fn constants(&self) -> &LiftingConstants {
        &self.constants
    }

    fn kernel(&self) -> Kernel<Q2x8> {
        self.constants.named().map(|(_, k)| k)
    }

    /// Forward integer transform of one octave.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SignalTooShort`] if `x` has fewer than two samples.
    pub fn forward(&self, x: &[i32]) -> Result<Subbands<i32>> {
        check_len(x.len())?;
        let (mut s, mut d) = split(&widen(x));
        forward::<Q2x8, MIRROR>(self.kernel(), &mut s, &mut d, |_| {});
        Ok(Subbands { low: narrow(&s), high: narrow(&d) })
    }

    /// Forward integer transform that also records every internal node.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SignalTooShort`] if `x` has fewer than two samples.
    pub fn forward_trace(&self, x: &[i32]) -> Result<LiftingTrace> {
        check_len(x.len())?;
        let [s0, d0, d1, s1, d2, s2, low, high] = trace(self.kernel(), &widen(x));
        Ok(LiftingTrace { s0, d0, d1, s1, d2, s2, low, high })
    }

    /// Forward integer transform from zero history, in place: `even` and
    /// `odd` hold a pair stream's samples and end as its low and high
    /// coefficients. The bands read zero past both ends, and every stage
    /// runs at every index they hold. Intermediates leak one pair past
    /// each end of a stream (`d1`, `s1`, `d2` before it; `s1`, `d2` after
    /// it), so a stream padded with one zero pair on each side gets what
    /// the datapath emits from cleared registers and a zero flush.
    pub fn forward_zero_history(&self, even: &mut [i64], odd: &mut [i64]) {
        forward::<Q2x8, ZERO>(self.kernel(), even, odd, |_| {});
    }

    /// Inverse integer transform of one octave.
    ///
    /// The four lifting steps are undone exactly (the truncated multiplier
    /// outputs are recomputed from the same operands), so the only
    /// irreversible operations are the `1/k` and `−k` output scalings,
    /// which are inverted with the reciprocal Q2.8 constants. The result
    /// is therefore a close but not bit-exact reconstruction — the error
    /// Table 2 quantifies.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MismatchedBands`] if the band lengths cannot come
    /// from a forward transform, or [`Error::SignalTooShort`] for fewer
    /// than two total samples.
    pub fn inverse(&self, bands: &Subbands<i32>) -> Result<Vec<i32>> {
        bands.check()?;
        let (mut s, mut d) = (widen(&bands.low), widen(&bands.high));
        inverse::<Q2x8, MIRROR>(self.kernel(), &mut s, &mut d);
        Ok(narrow(&merge(&s, &d)))
    }
}

fn widen(x: &[i32]) -> Vec<i64> {
    x.iter().map(|&v| i64::from(v)).collect()
}

fn narrow(x: &[i64]) -> Vec<i32> {
    x.iter().map(|&v| v as i32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeffs::{KRound, LiftingConstants};

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn float_perfect_reconstruction_even() {
        let x: Vec<f64> = (0..64).map(|i| ((i * i) % 251) as f64 - 125.0).collect();
        let bands = forward_f64(&x).unwrap();
        let y = inverse_f64(&bands).unwrap();
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn float_perfect_reconstruction_odd() {
        let x: Vec<f64> = (0..33).map(|i| ((i * 7) % 100) as f64).collect();
        let bands = forward_f64(&x).unwrap();
        assert_eq!(bands.low.len(), 17);
        assert_eq!(bands.high.len(), 16);
        let y = inverse_f64(&bands).unwrap();
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn minimum_length_signal() {
        let x = [3.0, 5.0];
        let bands = forward_f64(&x).unwrap();
        let y = inverse_f64(&bands).unwrap();
        assert!((y[0] - 3.0).abs() < 1e-9);
        assert!((y[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn too_short_is_rejected() {
        assert_eq!(forward_f64(&[1.0]).unwrap_err(), Error::SignalTooShort { len: 1 });
        assert_eq!(forward_f64(&[]).unwrap_err(), Error::SignalTooShort { len: 0 });
    }

    #[test]
    fn mismatched_bands_rejected() {
        let bands = Subbands { low: vec![1.0; 4], high: vec![1.0; 7] };
        assert_eq!(inverse_f64(&bands).unwrap_err(), Error::MismatchedBands { low: 4, high: 7 });
    }

    #[test]
    fn constant_signal_has_silent_high_band() {
        let x = vec![42.0; 32];
        let bands = forward_f64(&x).unwrap();
        // The paper's nine-digit constants are not an exact factorisation,
        // so DC rejection is good but not perfect.
        for v in &bands.high {
            assert!(v.abs() < 1e-4, "high band leak {v}");
        }
        // Low band of a constant is constant.
        let first = bands.low[0];
        for v in &bands.low {
            assert!((v - first).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_ramp_high_band_is_zero_in_interior() {
        // The 9/7 high-pass has two vanishing moments: it annihilates
        // linear signals away from the boundary.
        let x = ramp(64);
        let bands = forward_f64(&x).unwrap();
        for (i, v) in bands.high.iter().enumerate().take(30).skip(3) {
            assert!(v.abs() < 1e-4, "interior high[{i}] = {v}");
        }
    }

    #[test]
    fn low_band_dc_gain_matches_normalisation() {
        // For constant input c the lifting steps reduce to scalar gains:
        //   d1 = c(1 + 2α); s1 = c(1 + 2β(1 + 2α)); d2 = d1 + 2γ s1;
        //   s2 = s1 + 2δ d2; low = s2 / k.
        let c = 100.0;
        let d1 = c * (1.0 + 2.0 * lc::ALPHA);
        let s1 = c + 2.0 * lc::BETA * d1;
        let d2 = d1 + 2.0 * lc::GAMMA * s1;
        let s2 = s1 + 2.0 * lc::DELTA * d2;
        let expected = s2 * lc::INV_K;

        let x = vec![c; 64];
        let bands = forward_f64(&x).unwrap();
        for v in &bands.low {
            assert!((v - expected).abs() < 1e-9, "{v} vs {expected}");
        }
    }

    #[test]
    fn integer_forward_matches_float_within_rounding() {
        let kernel = IntLifting::default();
        let x: Vec<i32> = (0..64).map(|i| ((i * 37) % 255) - 128).collect();
        let xf: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
        let fb = forward_f64(&xf).unwrap();
        let ib = kernel.forward(&x).unwrap();
        // Truncation (not rounding) after each multiplier accumulates a
        // small negative bias through the four stages.
        for (f, i) in fb.low.iter().zip(&ib.low) {
            assert!((f - f64::from(*i)).abs() < 7.0, "low {f} vs {i}");
        }
        for (f, i) in fb.high.iter().zip(&ib.high) {
            assert!((f - f64::from(*i)).abs() < 7.0, "high {f} vs {i}");
        }
    }

    #[test]
    fn integer_roundtrip_error_is_small() {
        let kernel = IntLifting::default();
        let x: Vec<i32> = (0..128).map(|i| ((i * 11) % 255) - 127).collect();
        let bands = kernel.forward(&x).unwrap();
        let y = kernel.inverse(&bands).unwrap();
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() <= 4, "{a} vs {b}");
        }
    }

    #[test]
    fn trace_nodes_are_consistent() {
        let kernel = IntLifting::default();
        let x: Vec<i32> = (0..32).map(|i| (i * 17 % 251) - 125).collect();
        let t = kernel.forward_trace(&x).unwrap();
        assert_eq!(t.s0.len(), 16);
        assert_eq!(t.d0.len(), 16);
        // d1 = d0 + alpha-step: recompute one interior element.
        let c = kernel.constants();
        let i = 5usize;
        let sum = t.s0[i] + t.s0[i + 1];
        assert_eq!(t.d1[i], t.d0[i] + c.alpha.mul_shift(sum));
        // Outputs come from the final nodes.
        assert_eq!(t.low[i], c.inv_k.mul_shift(t.s2[i]));
        assert_eq!(t.high[i], c.minus_k.mul_shift(t.d2[i]));
    }

    #[test]
    fn nearest_and_truncated_k_differ_only_in_high_band() {
        let xt: Vec<i32> = (0..64).map(|i| ((i * 29) % 255) - 128).collect();
        let a = IntLifting::new(LiftingConstants::table1(KRound::Truncated)).forward(&xt).unwrap();
        let b = IntLifting::new(LiftingConstants::table1(KRound::Nearest)).forward(&xt).unwrap();
        assert_eq!(a.low, b.low);
        let diffs = a.high.iter().zip(&b.high).filter(|(x, y)| x != y).count();
        assert!(diffs > 0, "the two k encodings should disagree somewhere");
        for (x, y) in a.high.iter().zip(&b.high) {
            assert!((x - y).abs() <= 2);
        }
    }

    #[test]
    fn subbands_signal_len() {
        let b = Subbands { low: vec![0i32; 9], high: vec![0i32; 8] };
        assert_eq!(b.signal_len(), 17);
        assert!(b.check().is_ok());
    }
}
