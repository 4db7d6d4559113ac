//! Durable barrier snapshots: the crash-consistent store behind the
//! process-isolated coordinator.
//!
//! Thread-mode recovery keeps its barrier snapshots in the
//! coordinator's memory — fine when the coordinator cannot die
//! independently of the workers. Process mode has a harder contract:
//! the **coordinator itself** may be killed between barriers, and a
//! restarted coordinator must resume from the last durable barrier
//! instead of cycle 0. This module is that durability layer.
//!
//! One barrier = one file, `barrier-<cycle, hex>.dwtb`, written with
//! the classic crash-safe dance: write to a `.tmp` sibling, `fsync`
//! the file, atomically rename over the final name, `fsync` the
//! directory. A record is either fully present under its final name
//! or does not exist; a torn write can only ever leave a `.tmp`
//! corpse, which the scanner ignores.
//!
//! Inside a record, each section (meta, worker snapshots, committed output
//! prefix) is checksum-framed — length prefix, payload, the workspace's
//! FNV-1a ([`fnv1a`]) — so truncation and bit rot are both detected.
//! [`RunStore::latest_consistent`] walks records newest-first and
//! returns the first one that passes every check, which makes corruption
//! of the newest barrier a *bounded rollback*, not a failure: the
//! coordinator just resumes one barrier earlier. A record of another
//! [`STORE_VERSION`] fails the check too, so it is refused, not misread.
//!
//! Records carry the committed output prefix in full, so resuming
//! needs exactly one readable record — no replay across files, no
//! dependency on older barriers (which [`RunStore::prune`] deletes).

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use dwt_rtl::bytes::{fnv1a, hash_seed, ByteReader, ByteWriter};
use dwt_rtl::Error as RtlError;

use crate::error::PartitionError;

/// Record file magic.
pub const STORE_MAGIC: [u8; 4] = *b"DWTS";
/// Record layout version; bump on any change.
pub const STORE_VERSION: u8 = 3;

const RECORD_EXT: &str = "dwtb";

/// Everything needed to resume a run from one barrier.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BarrierRecord {
    /// Virtual cycle the barrier committed through (exclusive: the
    /// next batch starts here).
    pub cycle: u64,
    /// Cut fingerprint of the partition the snapshots belong to; a
    /// resume against a different cut must be refused.
    pub fingerprint: u64,
    /// Per-worker portable engine snapshots
    /// ([`PortableSnapshot::to_bytes`](dwt_rtl::engine::PortableSnapshot::to_bytes)),
    /// indexed by shard. Link state restarts with every restore, so the
    /// snapshots are all a worker needs.
    pub snapshots: Vec<Vec<u8>>,
    /// The full committed output prefix, cycles `0..cycle` per port.
    pub outputs: BTreeMap<String, Vec<i64>>,
}

fn store_err(detail: impl Into<String>) -> PartitionError {
    PartitionError::Store { detail: detail.into() }
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> PartitionError {
    store_err(format!("{what} {}: {e}", path.display()))
}

/// The on-disk barrier store for one emulation run.
#[derive(Debug, Clone)]
pub struct RunStore {
    dir: PathBuf,
}

impl RunStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Store`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<RunStore, PartitionError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, &e))?;
        Ok(RunStore { dir })
    }

    fn record_path(&self, cycle: u64) -> PathBuf {
        self.dir.join(format!("barrier-{cycle:016x}.{RECORD_EXT}"))
    }

    /// Durably writes one barrier record: tmp file, fsync, atomic
    /// rename, directory fsync. Returns the final path.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Store`] on any I/O failure.
    pub fn save(&self, record: &BarrierRecord) -> Result<PathBuf, PartitionError> {
        let bytes = encode_record(record);
        let path = self.record_path(record.cycle);
        let tmp = path.with_extension("tmp");
        {
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
                .map_err(|e| io_err("open", &tmp, &e))?;
            file.write_all(&bytes).map_err(|e| io_err("write", &tmp, &e))?;
            file.sync_all().map_err(|e| io_err("fsync", &tmp, &e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| io_err("rename", &tmp, &e))?;
        // Persist the rename itself; without this a coordinator crash
        // right after `save` could resurface an empty directory.
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(path)
    }

    /// Loads and fully verifies one barrier record file.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Store`] for I/O failures, truncation, checksum
    /// mismatches, or version/magic mismatches.
    pub fn load(&self, path: &Path) -> Result<BarrierRecord, PartitionError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err("read", path, &e))?;
        decode_record(&bytes)
    }

    /// Barrier record paths present under their final names,
    /// ascending by cycle.
    fn record_paths(&self) -> Result<Vec<(u64, PathBuf)>, PartitionError> {
        let mut records = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("scan", &self.dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("scan", &self.dir, &e))?;
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(hex) = name
                .strip_prefix("barrier-")
                .and_then(|r| r.strip_suffix(&format!(".{RECORD_EXT}")))
            else {
                continue;
            };
            if let Ok(cycle) = u64::from_str_radix(hex, 16) {
                records.push((cycle, path));
            }
        }
        records.sort_unstable_by_key(|&(cycle, _)| cycle);
        Ok(records)
    }

    /// The newest barrier record that passes every integrity check, or
    /// `None` for a fresh (or fully corrupted) store. Corrupt newer
    /// records are skipped, so a torn write costs one barrier of
    /// rollback, never the run.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Store`] only if the directory itself is
    /// unreadable.
    pub fn latest_consistent(&self) -> Result<Option<BarrierRecord>, PartitionError> {
        for (_, path) in self.record_paths()?.into_iter().rev() {
            if let Ok(record) = self.load(&path) {
                return Ok(Some(record));
            }
        }
        Ok(None)
    }

    /// Deletes all but the newest `keep` records (and any stale `.tmp`
    /// corpses). Returns how many files were removed.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Store`] if the directory is unreadable;
    /// failure to delete an individual file is ignored (it will be
    /// retried on the next prune).
    pub fn prune(&self, keep: usize) -> Result<usize, PartitionError> {
        let mut removed = 0;
        let records = self.record_paths()?;
        let cut = records.len().saturating_sub(keep);
        for (_, path) in &records[..cut] {
            if fs::remove_file(path).is_ok() {
                removed += 1;
            }
        }
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("scan", &self.dir, &e))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tmp") && fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

// ----------------------------------------------------------- codec

/// Appends one checksum-framed section: `len u32 | payload | fnv1a u64`.
fn write_section(out: &mut ByteWriter, payload: &[u8]) {
    out.bytes(payload);
    out.u64(fnv1a(hash_seed(), payload));
}

/// Extracts one checksum-framed section.
fn read_section<'a>(r: &mut ByteReader<'a>) -> dwt_rtl::Result<&'a [u8]> {
    let len = r.u32()? as usize;
    let payload = r.take(len)?;
    let (declared, fresh) = (r.u64()?, fnv1a(hash_seed(), payload));
    if declared != fresh {
        let detail = format!("section checksum mismatch ({declared:#018x} != {fresh:#018x})");
        return Err(RtlError::SnapshotDecode { detail });
    }
    Ok(payload)
}

fn encode_record(record: &BarrierRecord) -> Vec<u8> {
    let mut out = ByteWriter::new();
    STORE_MAGIC.iter().for_each(|&b| out.u8(b));
    out.u8(STORE_VERSION);

    let mut meta = ByteWriter::new();
    meta.u64(record.cycle);
    meta.u64(record.fingerprint);
    write_section(&mut out, &meta.finish());

    let mut workers = ByteWriter::new();
    workers.seq(&record.snapshots, |w, snapshot| w.bytes(snapshot));
    write_section(&mut out, &workers.finish());

    let mut outputs = ByteWriter::new();
    outputs.len(record.outputs.len());
    for (port, values) in &record.outputs {
        outputs.str(port);
        outputs.seq(values, |w, &v| w.i64(v));
    }
    write_section(&mut out, &outputs.finish());
    out.finish()
}

fn decode_record(bytes: &[u8]) -> Result<BarrierRecord, PartitionError> {
    if bytes.len() < 5 {
        return Err(store_err(format!("record header truncated: {} bytes", bytes.len())));
    }
    if bytes[..4] != STORE_MAGIC {
        return Err(store_err(format!("bad record magic {:02x?}", &bytes[..4])));
    }
    if bytes[4] != STORE_VERSION {
        return Err(store_err(format!("unsupported record version {}", bytes[4])));
    }
    decode_sections(&bytes[5..]).map_err(|e| match e {
        RtlError::SnapshotDecode { detail } => store_err(detail),
        other => PartitionError::Rtl(other),
    })
}

/// Parses the three checksum-framed sections after a record's header.
fn decode_sections(bytes: &[u8]) -> dwt_rtl::Result<BarrierRecord> {
    let mut record = ByteReader::new(bytes);
    let meta = read_section(&mut record)?;
    let workers = read_section(&mut record)?;
    let outputs = read_section(&mut record)?;
    record.finish()?;

    let mut r = ByteReader::new(meta);
    let (cycle, fingerprint) = (r.u64()?, r.u64()?);
    r.finish()?;

    let mut r = ByteReader::new(workers);
    // Each snapshot is at least its 4-byte length prefix.
    let snapshots = r.seq(4, ByteReader::bytes)?;
    r.finish()?;

    let mut r = ByteReader::new(outputs);
    let mut ports = BTreeMap::new();
    let n_ports = r.len(5)?;
    for _ in 0..n_ports {
        let port = r.str()?;
        ports.insert(port, r.seq(8, ByteReader::i64)?);
    }
    r.finish()?;

    Ok(BarrierRecord { cycle, fingerprint, snapshots, outputs: ports })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(length, FNV-1a)` of `sample(32)`'s encoding.
    const PINNED_RECORD: (usize, u64) = (653, 0x1877_94ad_ba30_07b3);

    /// `(length, IEEE CRC32)` of `sample(32)` as [`STORE_VERSION`] 2
    /// wrote it, with CRC32-framed sections.
    const PINNED_VERSION_2_RECORD: (usize, u32) = (641, 0xebc6_ade3);

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dwt-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(cycle: u64) -> BarrierRecord {
        let mut outputs = BTreeMap::new();
        outputs.insert("out_low".to_string(), (0..cycle as i64).collect());
        outputs.insert("out_high".to_string(), (0..cycle as i64).map(|v| -v).collect());
        BarrierRecord {
            cycle,
            fingerprint: 0x5117_c0de,
            snapshots: vec![vec![1, 2, 3, 4], vec![9; 33]],
            outputs,
        }
    }

    /// The cycles of the records present under their final names.
    fn cycles(store: &RunStore) -> Vec<u64> {
        store.record_paths().unwrap().into_iter().map(|(cycle, _)| cycle).collect()
    }

    /// IEEE CRC32 (reflected, polynomial `0xEDB88320`), the section
    /// check of [`STORE_VERSION`] 2.
    fn ieee_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// `record` as [`STORE_VERSION`] 2 wrote it: the same sections,
    /// each framed `len u32 | payload | crc32 u32`.
    fn version_2_record(record: &BarrierRecord) -> Vec<u8> {
        let current = encode_record(record);
        let mut r = ByteReader::new(&current[5..]);
        let mut out = ByteWriter::new();
        STORE_MAGIC.iter().for_each(|&b| out.u8(b));
        out.u8(2);
        for _ in 0..3 {
            let len = r.u32().unwrap() as usize;
            let payload = r.take(len).unwrap();
            r.u64().unwrap();
            out.bytes(payload);
            out.u32(ieee_crc32(payload));
        }
        r.finish().unwrap();
        out.finish()
    }

    #[test]
    fn save_load_and_latest_consistent_round_trip() {
        let dir = temp_dir("roundtrip");
        let store = RunStore::open(&dir).unwrap();
        assert_eq!(store.latest_consistent().unwrap(), None, "fresh store is empty");
        for cycle in [32u64, 64, 96] {
            store.save(&sample(cycle)).unwrap();
        }
        let latest = store.latest_consistent().unwrap().unwrap();
        assert_eq!(latest, sample(96));
        for (cycle, path) in store.record_paths().unwrap() {
            assert_eq!(store.load(&path).unwrap(), sample(cycle));
        }
        assert_eq!(cycles(&store), vec![32, 64, 96]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_record_falls_back_to_previous_barrier() {
        let dir = temp_dir("truncate");
        let store = RunStore::open(&dir).unwrap();
        let oldest = store.save(&sample(32)).unwrap();
        let newest = store.save(&sample(64)).unwrap();
        // Simulate a torn write that somehow reached the final name:
        // chop the record mid-section.
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let latest = store.latest_consistent().unwrap().unwrap();
        assert_eq!(latest.cycle, 32, "fall back past the torn record");
        assert_eq!(store.load(&oldest).unwrap(), sample(32));
        let torn = store.load(&newest);
        assert!(matches!(torn, Err(PartitionError::Store { .. })), "{torn:?}");
        assert_eq!(cycles(&store), vec![32, 64], "the torn record keeps its name");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_records_are_typed_errors_never_panics() {
        let dir = temp_dir("bitflip");
        let store = RunStore::open(&dir).unwrap();
        let path = store.save(&sample(32)).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Every single-byte flip must yield a typed Store error.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            assert!(
                matches!(decode_record(&corrupt), Err(PartitionError::Store { .. })),
                "flip at byte {i} must be rejected"
            );
        }
        // And every truncation.
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_record(&bytes[..cut]), Err(PartitionError::Store { .. })),
                "truncation at {cut} must be rejected"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_a_typed_error_and_open_creates_it() {
        let dir = temp_dir("missing");
        // A store whose directory vanished reports Store errors, not
        // panics.
        let store = RunStore::open(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(store.latest_consistent(), Err(PartitionError::Store { .. })));
        let gone = store.load(&store.record_path(32));
        assert!(matches!(gone, Err(PartitionError::Store { .. })), "{gone:?}");
        // Re-opening recreates it.
        let store = RunStore::open(&dir).unwrap();
        assert_eq!(store.latest_consistent().unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_the_newest_records_and_sweeps_tmp_corpses() {
        let dir = temp_dir("prune");
        let store = RunStore::open(&dir).unwrap();
        for cycle in [8u64, 16, 24, 32, 40] {
            store.save(&sample(cycle)).unwrap();
        }
        fs::write(dir.join("barrier-dead.tmp"), b"torn").unwrap();
        let removed = store.prune(2).unwrap();
        assert_eq!(removed, 4, "three old records + one tmp corpse");
        assert_eq!(cycles(&store), vec![32, 40]);
        for (cycle, path) in store.record_paths().unwrap() {
            assert_eq!(store.load(&path).unwrap(), sample(cycle));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A record of the previous layout is refused by `load` and skipped
    /// by `latest_consistent`, so a store holding only such records
    /// reads as empty and a resume starts from power-on.
    #[test]
    fn version_2_records_are_refused_and_skipped() {
        // The helper writes the real old format: CRC32 per its test
        // vector, and the record byte for byte as version 2 pinned it.
        assert_eq!(ieee_crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(ieee_crc32(b""), 0);
        let old = version_2_record(&sample(32));
        assert_eq!((old.len(), ieee_crc32(&old)), PINNED_VERSION_2_RECORD);

        let dir = temp_dir("version2");
        let store = RunStore::open(&dir).unwrap();
        store.save(&sample(32)).unwrap();
        let path = store.record_path(64);
        fs::write(&path, version_2_record(&sample(64))).unwrap();
        match store.load(&path) {
            Err(PartitionError::Store { detail }) => {
                assert!(detail.contains("unsupported record version 2"), "{detail}");
            }
            other => panic!("a version 2 record must be refused, got {other:?}"),
        }
        assert_eq!(store.latest_consistent().unwrap(), Some(sample(32)), "skipped, not misread");

        fs::remove_file(store.record_path(32)).unwrap();
        fs::write(store.record_path(96), version_2_record(&sample(96))).unwrap();
        assert_eq!(cycles(&store), vec![64, 96]);
        assert_eq!(store.latest_consistent().unwrap(), None, "only old records: power-on");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Pins the encoded bytes of a sample record (by length and FNV-1a
    /// of the whole file), so a symmetric change to the record codec,
    /// which every round trip would accept, fails here.
    #[test]
    fn record_encoding_is_pinned() {
        let bytes = encode_record(&sample(32));
        assert_eq!((bytes.len(), fnv1a(hash_seed(), &bytes)), PINNED_RECORD);
    }
}
