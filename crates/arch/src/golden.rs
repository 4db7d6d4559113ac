//! Cycle-faithful software golden model of the streaming datapath.
//!
//! [`GoldenStream`] computes exactly what the hardware computes, in the
//! same arithmetic (Q2.8 constants, 8-bit truncating shifts), under the
//! streaming convention the datapath uses: the sample history before the
//! stream starts is all zeros (the registers power up cleared), rather
//! than the mirrored boundary the block transform of
//! [`dwt_core::lifting`] applies. Interior coefficients are identical to
//! the block transform's — a property the tests pin — so verifying a
//! netlist against [`GoldenStream`] transitively verifies it against the
//! paper's transform.

use dwt_core::bitwidth::{paper, RegisterRanges};
use dwt_core::coeffs::LiftingConstants;
use dwt_core::lifting::IntLifting;

use crate::error::{Error, Result};

/// Zero pairs silently prepended to model the hardware's cleared
/// registers; the datapath's data dependencies look back at most four
/// pairs, so four zeros reproduce an unbounded zero history exactly.
const WARMUP: usize = 4;

/// How many pairs before pair `m` the coefficients of pair `m` still
/// depend on. `low[m]` reaches furthest back: through `s2[m]`,
/// `d2[m-1]` and `s1[m-1]` to the `d1[m-2]` term, which reads
/// `s0[m-2]` and `d0[m-2]`; nothing reads pair `m-3`. So a stream
/// started from zero history at pair `m0 - LOOKBACK` emits coefficient
/// `m0`, and every one after it, exactly as the whole stream does. It
/// is the filter's support, not any datapath's pipeline depth.
pub const LOOKBACK: usize = 2;

/// Streaming golden model; push one even/odd pair per cycle and read the
/// emitted low/high coefficients.
#[derive(Debug, Clone)]
pub struct GoldenStream {
    constants: LiftingConstants,
    s0: Vec<i64>,
    d0: Vec<i64>,
    d1: Vec<i64>,
    s1: Vec<i64>,
    d2: Vec<i64>,
    s2: Vec<i64>,
    low: Vec<i64>,
    high: Vec<i64>,
}

fn at(v: &[i64], i: i64) -> i64 {
    if i < 0 {
        0
    } else {
        v[i as usize]
    }
}

impl GoldenStream {
    /// Creates a stream using the given constants.
    #[must_use]
    pub fn new(constants: LiftingConstants) -> Self {
        let mut stream = GoldenStream {
            constants,
            s0: Vec::new(),
            d0: Vec::new(),
            d1: Vec::new(),
            s1: Vec::new(),
            d2: Vec::new(),
            s2: Vec::new(),
            low: Vec::new(),
            high: Vec::new(),
        };
        for _ in 0..WARMUP {
            stream.push_raw(0, 0);
        }
        stream
    }

    /// Restarts the stream from zero history, as if freshly created,
    /// keeping the allocated capacity for the next run.
    pub fn clear(&mut self) {
        for v in [
            &mut self.s0,
            &mut self.d0,
            &mut self.d1,
            &mut self.s1,
            &mut self.d2,
            &mut self.s2,
            &mut self.low,
            &mut self.high,
        ] {
            v.clear();
        }
        for _ in 0..WARMUP {
            self.push_raw(0, 0);
        }
    }

    /// Number of (real) pairs pushed so far.
    #[must_use]
    pub fn pairs_pushed(&self) -> usize {
        self.s0.len() - WARMUP
    }

    /// Accepts the next sample pair; internal stages advance as far as
    /// their data dependencies allow (the α/γ stages each need one pair
    /// of lookahead, so outputs trail the input by two indices).
    pub fn push(&mut self, even: i64, odd: i64) {
        self.push_raw(even, odd);
    }

    fn push_raw(&mut self, even: i64, odd: i64) {
        let c = self.constants;
        self.s0.push(even);
        self.d0.push(odd);
        let n = self.s0.len() as i64 - 1;

        // d1[m] = d0[m] + (α (s0[m] + s0[m+1])) >> 8, ready at m = n-1.
        if n >= 1 {
            let m = n - 1;
            let sum = at(&self.s0, m) + at(&self.s0, m + 1);
            self.d1.push(at(&self.d0, m) + c.alpha.mul_shift(sum));
            // s1[m] = s0[m] + (β (d1[m-1] + d1[m])) >> 8.
            let sum = at(&self.d1, m - 1) + at(&self.d1, m);
            self.s1.push(at(&self.s0, m) + c.beta.mul_shift(sum));
        }
        // d2[m] = d1[m] + (γ (s1[m] + s1[m+1])) >> 8, ready at m = n-2.
        if n >= 2 {
            let m = n - 2;
            let sum = at(&self.s1, m) + at(&self.s1, m + 1);
            self.d2.push(at(&self.d1, m) + c.gamma.mul_shift(sum));
            // s2[m] = s1[m] + (δ (d2[m-1] + d2[m])) >> 8.
            let sum = at(&self.d2, m - 1) + at(&self.d2, m);
            let s2 = at(&self.s1, m) + c.delta.mul_shift(sum);
            self.s2.push(s2);
            self.low.push(c.inv_k.mul_shift(s2));
            self.high.push(c.minus_k.mul_shift(at(&self.d2, m)));
        }
    }

    /// Low-pass coefficients for the real (post-warm-up) pairs;
    /// `low()[m]` is the coefficient of input pair `m`.
    #[must_use]
    pub fn low(&self) -> &[i64] {
        if self.low.len() <= WARMUP {
            &[]
        } else {
            &self.low[WARMUP..]
        }
    }

    /// High-pass coefficients for the real pairs.
    #[must_use]
    pub fn high(&self) -> &[i64] {
        if self.high.len() <= WARMUP {
            &[]
        } else {
            &self.high[WARMUP..]
        }
    }

    /// Checks that every internal node stayed within the Section 3.1
    /// register ranges, so a paper-width datapath represents this run
    /// exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::StimulusOutOfRange`] naming the first violated
    /// register class.
    pub fn check_ranges(&self) -> Result<()> {
        self.check_ranges_scaled(1)
    }

    /// As [`GoldenStream::check_ranges`] for a datapath whose register
    /// classes are scaled by `scale` (a `2^(input_bits-8)` widening).
    ///
    /// # Errors
    ///
    /// Returns [`Error::StimulusOutOfRange`] naming the first violated
    /// register class.
    pub fn check_ranges_scaled(&self, scale: i64) -> Result<()> {
        let base: RegisterRanges = paper();
        let r = ScaledRanges { base, scale };
        let check = |name: &'static str, vals: &[i64], min: i64, max: i64| -> Result<()> {
            for &v in vals {
                if v < min || v > max {
                    return Err(Error::StimulusOutOfRange { node: name, value: v });
                }
            }
            Ok(())
        };
        check("input", &self.s0, r.min(|b| b.input), r.max(|b| b.input))?;
        check("input", &self.d0, r.min(|b| b.input), r.max(|b| b.input))?;
        check("after alpha", &self.d1, r.min(|b| b.after_alpha), r.max(|b| b.after_alpha))?;
        check("after beta", &self.s1, r.min(|b| b.after_beta), r.max(|b| b.after_beta))?;
        check("after gamma", &self.d2, r.min(|b| b.after_gamma), r.max(|b| b.after_gamma))?;
        check("after delta", &self.s2, r.min(|b| b.after_delta), r.max(|b| b.after_delta))?;
        check("low output", &self.low, r.min(|b| b.low_output), r.max(|b| b.low_output))?;
        check("high output", &self.high, r.min(|b| b.high_output), r.max(|b| b.high_output))?;
        Ok(())
    }
}

/// Register ranges widened for a higher-precision datapath.
struct ScaledRanges {
    base: RegisterRanges,
    scale: i64,
}

impl ScaledRanges {
    fn min(&self, f: impl Fn(&RegisterRanges) -> dwt_core::bitwidth::NodeRange) -> i64 {
        f(&self.base).min * self.scale
    }

    fn max(&self, f: impl Fn(&RegisterRanges) -> dwt_core::bitwidth::NodeRange) -> i64 {
        f(&self.base).max * self.scale
    }
}

impl Default for GoldenStream {
    fn default() -> Self {
        GoldenStream::new(LiftingConstants::default())
    }
}

/// The golden model's answer for one self-contained tile: what a
/// drained hardware lane must emit for `pairs`, and the software
/// fallback a serving stack can always serve.
///
/// The recovery executor's flush makes tiles independent, so the
/// continuous golden stream restricted to one tile equals the golden
/// stream of that tile alone: a [`GoldenStream`] fed `pairs` and
/// flushed with zeros. This computes the same coefficients in one
/// block pass from zero history; see [`golden_tile_into`].
#[must_use]
pub fn golden_tile(pairs: &[(i64, i64)]) -> (Vec<i64>, Vec<i64>) {
    let mut scratch = TileScratch::default();
    let (low, high) = golden_tile_into(pairs, &mut scratch);
    (low.to_vec(), high.to_vec())
}

/// Caller-owned buffers for [`golden_tile_into`]; they keep their
/// capacity, so a reused scratch allocates only for a longer tile.
#[derive(Debug, Clone, Default)]
pub struct TileScratch {
    even: Vec<i64>,
    odd: Vec<i64>,
}

/// [`golden_tile`] into `scratch`, returning the tile's low and high
/// coefficients as slices of it.
///
/// The tile is laid out with one zero pair before and after it, and
/// [`IntLifting::forward_zero_history`] runs the four lifting stages
/// over it in place: the margins hold the intermediates that leak past
/// the tile's edges, which [`GoldenStream`] computes in its warm-up and
/// flush pairs.
pub fn golden_tile_into<'a>(
    pairs: &[(i64, i64)],
    scratch: &'a mut TileScratch,
) -> (&'a [i64], &'a [i64]) {
    let TileScratch { even, odd } = scratch;
    even.clear();
    odd.clear();
    for &(e, o) in [(0, 0)].iter().chain(pairs).chain(&[(0, 0)]) {
        even.push(e);
        odd.push(o);
    }
    IntLifting::default().forward_zero_history(even, odd);
    let p = pairs.len();
    (&even[1..=p], &odd[1..=p])
}

/// Deterministic still-tone stimulus: smooth correlated sample pairs in
/// the 8-bit signed range, resembling level-shifted photographic rows.
#[must_use]
pub fn still_tone_pairs(len: usize, seed: u64) -> Vec<(i64, i64)> {
    still_tone_pairs_scaled(len, seed, 8)
}

/// As [`still_tone_pairs`], scaled to a `bits`-bit signed sample range.
#[must_use]
pub fn still_tone_pairs_scaled(len: usize, seed: u64, bits: u32) -> Vec<(i64, i64)> {
    let scale = 1i64 << (bits - 8);
    still_tone_base(len, seed).into_iter().map(|(e, o)| (e * scale, o * scale)).collect()
}

fn still_tone_base(len: usize, seed: u64) -> Vec<(i64, i64)> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    // A few random smooth components per stimulus.
    let f1 = 0.02 + rand() * 0.08;
    let f2 = 0.15 + rand() * 0.25;
    let p1 = rand() * std::f64::consts::TAU;
    let p2 = rand() * std::f64::consts::TAU;
    let a1 = 50.0 + rand() * 50.0;
    let a2 = 10.0 + rand() * 20.0;
    let bias = (rand() - 0.5) * 40.0;
    (0..len)
        .map(|i| {
            let sample = |t: f64| -> i64 {
                let v = bias + a1 * (f1 * t + p1).sin() + a2 * (f2 * t + p2).sin();
                (v.round() as i64).clamp(-128, 127)
            };
            let t = 2.0 * i as f64;
            (sample(t), sample(t + 1.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_matches_block_transform() {
        // Feed a signal through the stream and through the block
        // transform of dwt-core; interior coefficients must be equal
        // (boundaries differ: zero history vs mirroring).
        let pairs = still_tone_pairs(64, 7);
        let mut golden = GoldenStream::default();
        for &(e, o) in &pairs {
            golden.push(e, o);
        }
        let flat: Vec<i32> = pairs.iter().flat_map(|&(e, o)| [e as i32, o as i32]).collect();
        let block = IntLifting::default().forward(&flat).unwrap();
        // Skip a margin at both ends (filter support is ±4 samples).
        for m in 4..golden.low().len().min(block.low.len() - 4) {
            assert_eq!(golden.low()[m], i64::from(block.low[m]), "low[{m}]");
            assert_eq!(golden.high()[m], i64::from(block.high[m]), "high[{m}]");
        }
    }

    #[test]
    fn output_indexing_lines_up() {
        // After pushing N pairs the stream has emitted N-2 real outputs.
        let mut g = GoldenStream::default();
        for i in 0..10 {
            g.push(i, -i);
        }
        assert_eq!(g.pairs_pushed(), 10);
        assert_eq!(g.low().len(), 8);
        assert_eq!(g.high().len(), 8);
    }

    #[test]
    fn clear_restarts_from_zero_history() {
        let pairs = still_tone_pairs(24, 5);
        let mut fresh = GoldenStream::default();
        let mut reused = GoldenStream::default();
        for &(e, o) in still_tone_pairs(40, 9).iter() {
            reused.push(e, o);
        }
        reused.clear();
        assert_eq!(reused.pairs_pushed(), 0);
        assert!(reused.low().is_empty());
        for &(e, o) in &pairs {
            fresh.push(e, o);
            reused.push(e, o);
        }
        assert_eq!(reused.low(), fresh.low());
        assert_eq!(reused.high(), fresh.high());
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let mut g = GoldenStream::default();
        for _ in 0..20 {
            g.push(0, 0);
        }
        assert!(g.low().iter().all(|&v| v == 0));
        assert!(g.high().iter().all(|&v| v == 0));
    }

    #[test]
    fn constant_input_interior_high_is_small() {
        let mut g = GoldenStream::default();
        for _ in 0..32 {
            g.push(100, 100);
        }
        // Fixed-point truncation leaves a small residue, but the high
        // band of a constant must be near zero away from the start.
        for (m, &v) in g.high().iter().enumerate().skip(4) {
            assert!(v.abs() <= 3, "high[{m}] = {v}");
        }
    }

    #[test]
    fn still_tone_respects_paper_ranges() {
        for seed in 0..20 {
            let pairs = still_tone_pairs(256, seed);
            let mut g = GoldenStream::default();
            for &(e, o) in &pairs {
                g.push(e, o);
            }
            g.check_ranges().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn extreme_stimulus_fails_range_check() {
        // A constant (-128, 127) pair stream drives the after-alpha node
        // to 127 + (-406 * -256 >> 8) = 533, past the paper's +-530.
        let mut g = GoldenStream::default();
        for _ in 0..16 {
            g.push(-128, 127);
        }
        assert!(g.check_ranges().is_err());
    }

    /// Low and high coefficients of a stream fed from zero history.
    fn transform(pairs: &[(i64, i64)]) -> (Vec<i64>, Vec<i64>) {
        let mut g = GoldenStream::default();
        for &(e, o) in pairs {
            g.push(e, o);
        }
        (g.low().to_vec(), g.high().to_vec())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn coefficients_never_see_past_the_lookback(
            pairs in proptest::collection::vec((-128i64..128, -128i64..128), 40),
            other in proptest::collection::vec((-128i64..128, -128i64..128), 40),
            cut in 1usize..36,
        ) {
            // Replace every pair before `cut`: coefficient `m` may only
            // move while `cut` is past `m - LOOKBACK`.
            let mut mixed = other[..cut].to_vec();
            mixed.extend_from_slice(&pairs[cut..]);
            let (low, high) = transform(&pairs);
            let (mixed_low, mixed_high) = transform(&mixed);
            for m in cut + LOOKBACK..low.len() {
                proptest::prop_assert_eq!(low[m], mixed_low[m]);
                proptest::prop_assert_eq!(high[m], mixed_high[m]);
            }
        }
    }

    #[test]
    fn lookback_is_tight() {
        // Some stimulus moves coefficient `m` through pair `m - LOOKBACK`
        // alone, so no shorter lookback is exact.
        let m = 12;
        let moved = (0..64).any(|seed| {
            let pairs = still_tone_pairs(24, seed);
            let mut perturbed = pairs.clone();
            perturbed[m - LOOKBACK].0 = -perturbed[m - LOOKBACK].0 - 1;
            let (low, high) = transform(&pairs);
            let (p_low, p_high) = transform(&perturbed);
            low[m] != p_low[m] || high[m] != p_high[m]
        });
        assert!(moved, "no stimulus moved coefficient {m} through pair {}", m - LOOKBACK);
    }

    #[test]
    fn stimulus_is_deterministic() {
        assert_eq!(still_tone_pairs(32, 3), still_tone_pairs(32, 3));
        assert_ne!(still_tone_pairs(32, 3), still_tone_pairs(32, 4));
    }

    #[test]
    fn stimulus_is_in_signed8() {
        for &(e, o) in &still_tone_pairs(512, 11) {
            assert!((-128..=127).contains(&e));
            assert!((-128..=127).contains(&o));
        }
    }

    /// A stream fed `tile` from zero history, flushed until the tile's
    /// last coefficient has emerged.
    fn flushed_stream(tile: &[(i64, i64)]) -> GoldenStream {
        let mut g = GoldenStream::default();
        for &(e, o) in tile.iter().chain(&[(0, 0); LOOKBACK]) {
            g.push(e, o);
        }
        g
    }

    fn assert_tile_matches_stream(tile: &[(i64, i64)]) -> GoldenStream {
        let g = flushed_stream(tile);
        let p = tile.len();
        assert_eq!(golden_tile(tile), (g.low()[..p].to_vec(), g.high()[..p].to_vec()), "{tile:?}");
        g
    }

    /// Signed 8-bit samples, a third of them at the extremes.
    fn sample() -> impl proptest::strategy::Strategy<Value = i64> {
        use proptest::strategy::Just;
        proptest::prop_oneof![-128i64..128, Just(-128i64), Just(127i64)]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn golden_tile_equals_the_flushed_stream(
            tile in proptest::collection::vec((sample(), sample()), 1..65),
        ) {
            assert_tile_matches_stream(&tile);
        }

        #[test]
        fn golden_tile_equals_the_flushed_stream_on_long_tiles(
            tile in proptest::collection::vec((sample(), sample()), 1024),
        ) {
            assert_tile_matches_stream(&tile);
        }

        #[test]
        fn golden_tile_equals_the_flushed_stream_on_scaled_still_tones(
            len in proptest::prop_oneof![1usize..65, proptest::strategy::Just(1024usize)],
            seed in proptest::arbitrary::any::<u64>(),
            bits in proptest::prop_oneof![
                proptest::strategy::Just(8u32),
                proptest::strategy::Just(10u32),
                proptest::strategy::Just(12u32),
            ],
        ) {
            let g = assert_tile_matches_stream(&still_tone_pairs_scaled(len, seed, bits));
            // In-range input keeps every node, the warm-up and flush
            // intermediates included, inside the scaled register ranges.
            proptest::prop_assert!(g.check_ranges_scaled(1 << (bits - 8)).is_ok());
        }
    }

    #[test]
    fn golden_tile_matches_prefix_of_continuous_stream() {
        let pairs: Vec<(i64, i64)> = (0..10).map(|i| (i * 3 - 7, -i * 2 + 1)).collect();
        let (low, high) = golden_tile(&pairs);
        assert_eq!(low.len(), 10);
        assert_eq!(high.len(), 10);
        let mut g = GoldenStream::default();
        for &(e, o) in &pairs {
            g.push(e, o);
        }
        for _ in 0..8 {
            g.push(0, 0);
        }
        assert_eq!(low, g.low()[..10].to_vec());
        assert_eq!(high, g.high()[..10].to_vec());
    }
}
