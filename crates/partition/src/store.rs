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
//! prefix) is CRC32-framed — length prefix, payload, IEEE CRC32 — so
//! truncation and bit rot are both detected. [`RunStore::latest_consistent`]
//! walks records newest-first and returns the first one that passes
//! every check, which makes corruption of the newest barrier a
//! *bounded rollback*, not a failure: the coordinator just resumes one
//! barrier earlier. [`RunStore::fsck`] reports the full
//! consistent/corrupt census for diagnostics and tests.
//!
//! Records carry the committed output prefix in full, so resuming
//! needs exactly one readable record — no replay across files, no
//! dependency on older barriers (which [`RunStore::prune`] deletes).

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use dwt_rtl::bytes::{ByteReader, ByteWriter};
use dwt_rtl::Error as RtlError;

use crate::error::PartitionError;

/// Record file magic.
pub const STORE_MAGIC: [u8; 4] = *b"DWTS";
/// Record layout version; bump on any change.
pub const STORE_VERSION: u8 = 2;

const RECORD_EXT: &str = "dwtb";

/// IEEE CRC32 (reflected, polynomial `0xEDB88320`), bitwise — the
/// store's integrity check is not on any hot path.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

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

/// Census of a store directory.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Barrier cycles whose records pass every integrity check,
    /// ascending.
    pub consistent: Vec<u64>,
    /// `(file name, what failed)` for every unreadable record.
    pub corrupt: Vec<(String, String)>,
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
    /// [`PartitionError::Store`] for I/O failures, truncation, CRC
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

    /// Full integrity census: which barriers are consistent, which
    /// records are corrupt and why.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Store`] only if the directory is unreadable.
    pub fn fsck(&self) -> Result<FsckReport, PartitionError> {
        let mut report = FsckReport::default();
        for (cycle, path) in self.record_paths()? {
            match self.load(&path) {
                Ok(_) => report.consistent.push(cycle),
                Err(e) => {
                    let name = path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or("<non-utf8>")
                        .to_string();
                    report.corrupt.push((name, e.to_string()));
                }
            }
        }
        Ok(report)
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

/// Appends one CRC32-framed section: `len u32 | payload | crc32 u32`.
fn write_section(out: &mut ByteWriter, payload: &[u8]) {
    out.bytes(payload);
    out.u32(crc32(payload));
}

/// Extracts one CRC32-framed section.
fn read_section<'a>(r: &mut ByteReader<'a>) -> dwt_rtl::Result<&'a [u8]> {
    let len = r.u32()? as usize;
    let payload = r.take(len)?;
    let (declared, fresh) = (r.u32()?, crc32(payload));
    if declared != fresh {
        let detail = format!("section CRC mismatch ({declared:#010x} != {fresh:#010x})");
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

/// Parses the three CRC32-framed sections after a record's header.
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

    /// `(length, CRC32)` of `sample(32)`'s encoding.
    const PINNED_RECORD: (usize, u32) = (641, 0xebc6_ade3);

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
        let report = store.fsck().unwrap();
        assert_eq!(report.consistent, vec![32, 64, 96]);
        assert!(report.corrupt.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_record_falls_back_to_previous_barrier() {
        let dir = temp_dir("truncate");
        let store = RunStore::open(&dir).unwrap();
        store.save(&sample(32)).unwrap();
        let newest = store.save(&sample(64)).unwrap();
        // Simulate a torn write that somehow reached the final name:
        // chop the record mid-section.
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let latest = store.latest_consistent().unwrap().unwrap();
        assert_eq!(latest.cycle, 32, "fall back past the torn record");
        let report = store.fsck().unwrap();
        assert_eq!(report.consistent, vec![32]);
        assert_eq!(report.corrupt.len(), 1);
        assert!(report.corrupt[0].0.contains("barrier-"), "{report:?}");
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
        assert!(matches!(store.fsck(), Err(PartitionError::Store { .. })));
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
        let report = store.fsck().unwrap();
        assert_eq!(report.consistent, vec![32, 40]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 test vector: "123456789" -> 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Pins the encoded bytes of a sample record (by length and CRC32 of
    /// the whole file), so a symmetric change to the record codec, which
    /// every round trip would accept, fails here.
    #[test]
    fn record_encoding_is_pinned() {
        let bytes = encode_record(&sample(32));
        assert_eq!((bytes.len(), crc32(&bytes)), PINNED_RECORD);
    }
}
