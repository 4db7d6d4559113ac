//! Format pins for the hashes that cross a process boundary or outlive
//! a process: the FNV-1a under every frame checksum, link hash and cut
//! fingerprint, and the fingerprint a worker process presents at
//! admission. A change to either is a protocol change (old workers and
//! old stores are refused), so it must show here rather than pass every
//! round trip. A deliberate change to the partitioner's cuts also moves
//! the fingerprints; update the pins with it.

use dwt_arch::designs::Design;
use dwt_partition::{fnv1a, hash_seed, partition, CutOptions};

#[test]
fn fnv1a_matches_its_reference_vectors() {
    assert_eq!(hash_seed(), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(hash_seed(), b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(hash_seed(), b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(hash_seed(), b"foobar"), 0x8594_4171_f739_67e8);
    // Folding is incremental: two calls equal one over the concatenation.
    assert_eq!(fnv1a(fnv1a(hash_seed(), b"foo"), b"bar"), fnv1a(hash_seed(), b"foobar"));
}

#[test]
fn design5_cut_fingerprints_are_pinned() {
    let netlist = Design::D5.build().expect("design builds").netlist;
    let got: Vec<u64> = [2, 4]
        .iter()
        .map(|&parts| {
            partition(&netlist, parts, &CutOptions::default()).expect("cut").fingerprint()
        })
        .collect();
    assert_eq!(got, PINNED_FINGERPRINTS);
}

/// Design 5 cut two and four ways.
const PINNED_FINGERPRINTS: [u64; 2] = [0x89db_21eb_fcb9_5af5, 0x80c1_e5a0_cecf_76f8];
