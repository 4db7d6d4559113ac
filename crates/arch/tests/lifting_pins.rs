//! Output pins for every 9/7 lifting entry point and the tile golden
//! reference. Each test hashes the exact f64 bit patterns or i64
//! values an entry point returns on seeded signals, so a refactor of
//! the lifting kernel that moves any coefficient by one ulp or one LSB
//! shows here even where the round-trip and tolerance tests still pass.
//! A deliberate change to the arithmetic moves the pins; update them
//! with it.

use dwt_arch::golden::{golden_tile, still_tone_pairs};
use dwt_core::coeffs::{KRound, LiftingConstants};
use dwt_core::lifting::{
    forward_f64, forward_f64_with, forward_trace_f64, inverse_f64, inverse_f64_with,
    FloatConstants, IntLifting, Subbands,
};
use dwt_rtl::bytes::{fnv1a, hash_seed};

/// Deterministic xorshift stream for the seeded signals.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A sample in `[-half, half)`.
    fn sample(&mut self, half: i64) -> i64 {
        (self.next() % (2 * half as u64)) as i64 - half
    }

    /// A real sample with a fractional part, so rounding shows.
    fn real(&mut self) -> f64 {
        self.sample(256) as f64 + (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Folds values into a running FNV-1a hash, length first.
struct Pin(u64);

impl Pin {
    fn new() -> Self {
        Pin(hash_seed())
    }

    fn f64s(&mut self, v: &[f64]) {
        self.0 = fnv1a(self.0, &(v.len() as u64).to_le_bytes());
        for x in v {
            self.0 = fnv1a(self.0, &x.to_bits().to_le_bytes());
        }
    }

    fn i64s(&mut self, v: impl IntoIterator<Item = i64>) {
        let v: Vec<i64> = v.into_iter().collect();
        self.0 = fnv1a(self.0, &(v.len() as u64).to_le_bytes());
        for x in v {
            self.0 = fnv1a(self.0, &x.to_le_bytes());
        }
    }
}

/// Signal lengths 2–65: odd and even, the shortest legal signal included.
const LENGTHS: std::ops::RangeInclusive<usize> = 2..=65;

fn real_signal(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed * 1000 + n as u64);
    (0..n).map(|_| rng.real()).collect()
}

fn int_signal(n: usize, seed: u64) -> Vec<i32> {
    let mut rng = Rng::new(seed * 1000 + n as u64);
    (0..n).map(|_| rng.sample(128) as i32).collect()
}

fn float_constants() -> [FloatConstants; 3] {
    [
        FloatConstants::paper(),
        FloatConstants::from_q2x8(&LiftingConstants::table1(KRound::Truncated)),
        FloatConstants::from_q2x8(&LiftingConstants::table1(KRound::Nearest)),
    ]
}

fn int_kernels() -> [IntLifting; 2] {
    [
        IntLifting::new(LiftingConstants::table1(KRound::Truncated)),
        IntLifting::new(LiftingConstants::table1(KRound::Nearest)),
    ]
}

fn widen(v: &[i32]) -> impl Iterator<Item = i64> + '_ {
    v.iter().map(|&x| i64::from(x))
}

#[test]
fn float_forward_and_inverse_are_pinned() {
    let (mut fwd, mut inv) = (Pin::new(), Pin::new());
    for n in LENGTHS {
        for seed in 0..3 {
            let x = real_signal(n, seed);
            let bands = forward_f64(&x).unwrap();
            fwd.f64s(&bands.low);
            fwd.f64s(&bands.high);
            inv.f64s(&inverse_f64(&bands).unwrap());
            // Bands that no forward transform produced.
            let noise = Subbands { low: real_signal(n.div_ceil(2), seed + 7), high: bands.high };
            inv.f64s(&inverse_f64(&noise).unwrap());
        }
    }
    assert_eq!(
        [fwd.0, inv.0],
        [0x3090_2855_f199_7020, 0x62dc_b691_ba3a_ab9a],
        "forward_f64 / inverse_f64"
    );
}

#[test]
fn float_forward_and_inverse_with_constants_are_pinned() {
    let (mut fwd, mut inv) = (Pin::new(), Pin::new());
    for c in float_constants() {
        for n in LENGTHS {
            for seed in 0..3 {
                let x = real_signal(n, seed);
                let bands = forward_f64_with(&x, &c).unwrap();
                fwd.f64s(&bands.low);
                fwd.f64s(&bands.high);
                inv.f64s(&inverse_f64_with(&bands, &c).unwrap());
            }
        }
    }
    assert_eq!(
        [fwd.0, inv.0],
        [0x4692_8619_4f7e_4ce0, 0x10cf_0d1e_391c_c7f6],
        "forward_f64_with / inverse_f64_with"
    );
}

#[test]
fn float_trace_is_pinned() {
    let mut pin = Pin::new();
    for n in LENGTHS {
        for seed in 0..3 {
            let t = forward_trace_f64(&real_signal(n, seed)).unwrap();
            for node in [&t.s0, &t.d0, &t.d1, &t.s1, &t.d2, &t.s2, &t.low, &t.high] {
                pin.f64s(node);
            }
        }
    }
    assert_eq!(pin.0, 0xbaca_e0be_1456_e0d9, "forward_trace_f64");
}

#[test]
fn integer_forward_trace_and_inverse_are_pinned() {
    let (mut fwd, mut trace, mut inv) = (Pin::new(), Pin::new(), Pin::new());
    for kernel in int_kernels() {
        for n in LENGTHS {
            for seed in 0..3 {
                let x = int_signal(n, seed);
                let bands = kernel.forward(&x).unwrap();
                fwd.i64s(widen(&bands.low));
                fwd.i64s(widen(&bands.high));
                let t = kernel.forward_trace(&x).unwrap();
                for node in [&t.s0, &t.d0, &t.d1, &t.s1, &t.d2, &t.s2, &t.low, &t.high] {
                    trace.i64s(node.iter().copied());
                }
                inv.i64s(widen(&kernel.inverse(&bands).unwrap()));
            }
        }
    }
    assert_eq!(
        [fwd.0, trace.0, inv.0],
        [0x21f3_0e54_9b71_8f00, 0x592f_5275_13ce_1780, 0x4235_5c20_3bcd_9934],
        "IntLifting forward / forward_trace / inverse"
    );
}

#[test]
fn golden_tile_is_pinned() {
    let mut pin = Pin::new();
    for p in (1..=64).chain([1024]) {
        let mut rng = Rng::new(p as u64);
        let random: Vec<(i64, i64)> = (0..p).map(|_| (rng.sample(128), rng.sample(128))).collect();
        for tile in [random, still_tone_pairs(p, p as u64)] {
            let (low, high) = golden_tile(&tile);
            pin.i64s(low);
            pin.i64s(high);
        }
    }
    assert_eq!(pin.0, 0xdc01_5495_4cf3_9f26, "golden_tile");
}
