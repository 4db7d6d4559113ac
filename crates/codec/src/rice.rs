//! Adaptive Golomb–Rice coding of subband coefficients.
//!
//! Quantized wavelet detail coefficients are near-Laplacian, for which
//! Rice codes are close to optimal. The coder maps signed values to
//! unsigned with the zigzag transform, codes quotient/remainder against
//! a power-of-two divisor `2^k`, and adapts `k` per coefficient from a
//! running mean of magnitudes — a simplified cousin of the JPEG-LS /
//! CCSDS adaptive entropy stages.

use crate::bitstream::{BitReader, BitWriter};
use crate::error::{Error, Result};

/// Maps a signed integer to an unsigned one (0, −1, 1, −2, 2 → 0,1,2,3,4).
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Escape threshold: quotients beyond this are stored verbatim so a
/// mismodelled sample cannot blow the stream up.
const ESCAPE_QUOTIENT: u64 = 47;

/// Raw bits of an escape. An escaped zigzag value that does not fit
/// them below [`WIDE`] — any `|v| >= 2^31` — stores [`WIDE`] there, then
/// its full 64 bits, so every `i64` round-trips while a stream whose
/// values fit 32 bits encodes as it always has.
const ESCAPE_BITS: u32 = 32;

/// The escape's raw value that announces a 64-bit value after it.
const WIDE: u64 = (1 << ESCAPE_BITS) - 1;

/// The adaptation state: `k` is derived from a decaying magnitude mean
/// that encoder and decoder track identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Adapt {
    sum: u64,
    count: u64,
}

impl Adapt {
    fn new() -> Self {
        Adapt { sum: 4, count: 1 }
    }

    fn k(&self) -> u32 {
        // Smallest k with 2^k at least the running mean magnitude.
        let mut k = 0;
        while (self.count << k) < self.sum && k < 24 {
            k += 1;
        }
        k
    }

    fn update(&mut self, magnitude: u64) {
        // Saturates only past what 64 values below 2^32 can sum to, so
        // every stream of 32-bit values adapts as it always has.
        self.sum = self.sum.saturating_add(magnitude);
        self.count += 1;
        if self.count == 64 {
            self.sum >>= 1;
            self.count >>= 1;
        }
    }
}

/// Encodes a coefficient block; the decoder must be given the same
/// `len` it was encoded with.
#[must_use]
pub fn encode(values: &[i64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut adapt = Adapt::new();
    for &v in values {
        let u = zigzag(v);
        let k = adapt.k();
        let quotient = u >> k;
        if quotient >= ESCAPE_QUOTIENT {
            // Escape: unary marker, then 32 raw bits, or the wide
            // marker and 64.
            w.put_unary(ESCAPE_QUOTIENT);
            if u < WIDE {
                w.put_bits(u, ESCAPE_BITS);
            } else {
                w.put_bits(WIDE, ESCAPE_BITS);
                w.put_bits(u, 64);
            }
        } else {
            w.put_unary(quotient);
            w.put_bits(u & ((1 << k) - 1), k);
        }
        adapt.update(u);
    }
    w.into_bytes()
}

/// Decodes `len` coefficients from an [`encode`]d stream.
///
/// # Errors
///
/// Returns [`Error::Truncated`] when the stream ends early.
pub fn decode(bytes: &[u8], len: usize) -> Result<Vec<i64>> {
    let mut r = BitReader::new(bytes);
    let mut adapt = Adapt::new();
    // Every coefficient costs at least one bit (its unary terminator),
    // so a hostile `len` cannot reserve more than the stream can fill.
    let mut out = Vec::with_capacity(len.min(bytes.len().saturating_mul(8)));
    for _ in 0..len {
        let k = adapt.k();
        let quotient = r.get_unary().ok_or(Error::Truncated)?;
        let u = if quotient >= ESCAPE_QUOTIENT {
            match r.get_bits(ESCAPE_BITS).ok_or(Error::Truncated)? {
                WIDE => r.get_bits(64).ok_or(Error::Truncated)?,
                u => u,
            }
        } else {
            let rem = r.get_bits(k).ok_or(Error::Truncated)?;
            (quotient << k) | rem
        };
        out.push(unzigzag(u));
        adapt.update(u);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip() {
        for v in [-1_000_000i64, -2, -1, 0, 1, 2, 7, 1_000_000] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn zigzag_orders_by_magnitude() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn roundtrip_small_values() {
        let values: Vec<i64> = (-50..50).collect();
        let bytes = encode(&values);
        assert_eq!(decode(&bytes, values.len()).unwrap(), values);
    }

    #[test]
    fn roundtrip_sparse_subband_like_data() {
        // Mostly zeros with occasional spikes — the detail-band shape.
        let values: Vec<i64> = (0..2000)
            .map(|i| match i % 37 {
                0 => (i as i64 % 19) - 9,
                5 => 120,
                _ => 0,
            })
            .collect();
        let bytes = encode(&values);
        assert_eq!(decode(&bytes, values.len()).unwrap(), values);
        // Sparse data must compress well below the 10-bit raw size
        // (a per-sample Rice code floors around mean-magnitude bits;
        // run modes would go lower but are out of scope).
        let bits_per_value = bytes.len() as f64 * 8.0 / values.len() as f64;
        assert!(bits_per_value < 6.0, "{bits_per_value} bits/value");
    }

    #[test]
    fn roundtrip_extreme_values() {
        let values = vec![i32::MAX as i64, i32::MIN as i64 + 1, 0, -1, 1 << 30];
        let bytes = encode(&values);
        assert_eq!(decode(&bytes, values.len()).unwrap(), values);
    }

    #[test]
    fn every_i64_round_trips() {
        let edges = [i64::MIN, i64::MIN + 1, i64::MAX, i64::MAX - 1, 1 << 31, -(1 << 31)];
        let near = [(1i64 << 31) - 1, -(1 << 31) + 1, 1 << 40, -(1 << 40), 1 << 62, 0, -1];
        let values: Vec<i64> = edges.iter().chain(&near).chain(&edges).copied().collect();
        let bytes = encode(&values);
        assert_eq!(decode(&bytes, values.len()).unwrap(), values);
        // A wide escape cut anywhere is a typed error.
        let wide = encode(&[i64::MAX]);
        for cut in 0..wide.len() {
            assert!(matches!(decode(&wide[..cut], 1), Err(Error::Truncated)), "cut {cut}");
        }
    }

    #[test]
    fn values_below_2_pow_31_encode_as_they_always_have() {
        // Bytes of this stream before 64-bit escapes existed.
        let values: Vec<i64> = vec![
            0,
            3,
            -7,
            120,
            i64::from(i32::MAX),
            -i64::from(i32::MAX),
            1 << 30,
            -5,
            0,
            0,
            2_000_000_000,
            -2_147_483_647,
            17,
            -1,
        ];
        let want: [u8; 72] = [
            28, 231, 255, 255, 255, 240, 255, 255, 255, 255, 255, 254, 255, 255, 255, 254, 255,
            255, 255, 255, 255, 254, 255, 255, 255, 253, 255, 255, 255, 255, 255, 254, 128, 0, 0,
            0, 0, 0, 4, 128, 0, 0, 0, 0, 0, 31, 255, 255, 255, 255, 255, 221, 205, 101, 0, 31, 255,
            255, 255, 255, 255, 223, 255, 255, 255, 160, 0, 2, 32, 0, 0, 8,
        ];
        assert_eq!(encode(&values), want);
    }

    #[test]
    fn truncated_stream_is_detected() {
        let values: Vec<i64> = (0..100).map(|i| i * 3 - 150).collect();
        let bytes = encode(&values);
        let cut = &bytes[..bytes.len() / 2];
        assert!(matches!(decode(cut, values.len()), Err(Error::Truncated)));
    }

    #[test]
    fn a_hostile_length_is_an_error_not_an_allocation() {
        assert!(decode(&[0], usize::MAX).is_err());
    }

    #[test]
    fn empty_block() {
        let bytes = encode(&[]);
        assert_eq!(decode(&bytes, 0).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn adaptation_tracks_magnitude_shifts() {
        // Large-then-small data must not stay stuck at a large k.
        let mut values: Vec<i64> = (0..200).map(|i| 500 + i).collect();
        values.extend(std::iter::repeat_n(0i64, 2000));
        let bytes = encode(&values);
        assert_eq!(decode(&bytes, values.len()).unwrap(), values);
        let tail_bits = bytes.len() as f64 * 8.0 / values.len() as f64;
        assert!(tail_bits < 4.0, "{tail_bits} bits/value overall");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn any_block_roundtrips(values in prop::collection::vec(-100_000i64..100_000, 0..400)) {
            let bytes = encode(&values);
            prop_assert_eq!(decode(&bytes, values.len()).unwrap(), values);
        }

        #[test]
        fn laplacian_like_blocks_compress(scale in 1i64..30) {
            // Geometric-ish magnitudes around zero.
            let values: Vec<i64> = (0..1000)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 40;
                    let mag = (h % (scale as u64 + 1)) as i64;
                    if h & 1 == 0 { mag } else { -mag }
                })
                .collect();
            let bytes = encode(&values);
            prop_assert_eq!(decode(&bytes, values.len()).unwrap(), values.clone());
            // Entropy of the source is about log2(2*scale); the coder
            // must be within a couple of bits of it.
            let bpp = bytes.len() as f64 * 8.0 / values.len() as f64;
            let entropy = ((2 * scale) as f64).log2().max(1.0);
            prop_assert!(bpp < entropy + 2.5, "{} vs entropy {}", bpp, entropy);
        }

        #[test]
        fn zigzag_is_a_bijection_on_i32(v in any::<i32>()) {
            prop_assert_eq!(unzigzag(zigzag(i64::from(v))), i64::from(v));
        }
    }
}
