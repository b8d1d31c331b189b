//! The disk spill tier: content-addressed artifact files under one
//! directory.
//!
//! When a byte budget forces the [`crate::ArtifactCache`] (or a design
//! store) to evict a derived structure, the spill tier demotes it to disk
//! instead of discarding it outright: a later miss tries deserialization
//! before falling back to reconstruction. Spilling is **off by default**
//! and enabled by pointing a cache or store at a directory (the CLI's
//! `--spill-dir`).
//!
//! # File format
//!
//! One artifact per file, named `<stem>.spill` where the stem is a kind
//! prefix plus the 16-hex-digit identity fingerprint (e.g.
//! `gseq-1f00ba….spill`). Each file is:
//!
//! | field        | size | contents                                   |
//! |--------------|------|--------------------------------------------|
//! | magic        | 4    | `HSPL`                                     |
//! | version      | 4    | format version (little-endian `u32`)       |
//! | fingerprint  | 8    | the identity the caller will ask for       |
//! | payload\_len | 8    | byte length of the payload                 |
//! | payload      | n    | codec-encoded artifact ([`netlist::codec`])|
//! | checksum     | 8    | FNV-1a of the payload                      |
//!
//! Files are written to a `.tmp` sibling and renamed into place, so a crash
//! mid-write never leaves a half-written `.spill` file under the final name.
//!
//! # Failure model
//!
//! Every failure — unwritable directory, truncated or corrupt file, magic or
//! version or fingerprint mismatch, checksum mismatch — is reported as
//! "absent" (`false` / `None`), **never** an error or a panic: the caches
//! above degrade to a rebuild miss, identical to running without a spill
//! directory. Spilling therefore affects timing, never results.

// lint:allow(fs-scope): this module IS the spill tier — the one place
// deterministic crates touch the filesystem (see docs/MEMORY.md).

use netlist::codec::{put_u32, put_u64, Reader};
use netlist::Fnv1a;
use std::fs;
use std::path::{Path, PathBuf};

/// `HSPL` as a little-endian `u32`.
const MAGIC: u32 = u32::from_le_bytes(*b"HSPL");
/// Format version; bumped on any layout change so stale files from an older
/// build read as absent instead of mis-decoding. Version 2: warm-start seed
/// payloads lead with the id of the job that wrote them.
const VERSION: u32 = 2;
/// Header bytes before the payload: magic + version + fingerprint + length.
const HEADER_LEN: usize = 24;

/// A handle on one spill directory. Cheap to clone (a `PathBuf`); clones
/// address the same files, so the artifact cache and the design store of one
/// service share a directory.
#[derive(Debug, Clone)]
pub struct SpillTier {
    dir: PathBuf,
}

impl SpillTier {
    /// A spill tier rooted at `dir`. The directory is created lazily on the
    /// first store, so constructing a tier never touches the filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The directory this tier files artifacts under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes `payload` under `<stem>.spill`, framed and checksummed, via a
    /// temp-file rename. Returns whether the file landed; any filesystem
    /// failure returns `false` (the entry is simply not spilled).
    pub fn store(&self, stem: &str, fingerprint: u64, payload: &[u8]) -> bool {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
        put_u32(&mut buf, MAGIC);
        put_u32(&mut buf, VERSION);
        put_u64(&mut buf, fingerprint);
        put_u64(&mut buf, payload.len() as u64);
        buf.extend_from_slice(payload);
        let mut h = Fnv1a::new();
        h.write_bytes(payload);
        put_u64(&mut buf, h.finish());

        if fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let tmp = self.dir.join(format!("{stem}.tmp"));
        if fs::write(&tmp, &buf).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        fs::rename(&tmp, self.dir.join(format!("{stem}.spill"))).is_ok()
    }

    /// Reads and validates `<stem>.spill`, returning its payload. `None` on
    /// any failure: missing file, short file, wrong magic/version, a
    /// fingerprint other than the one asked for, a length that disagrees
    /// with the file size, or a checksum mismatch.
    pub fn load(&self, stem: &str, fingerprint: u64) -> Option<Vec<u8>> {
        let bytes = fs::read(self.dir.join(format!("{stem}.spill"))).ok()?;
        let mut r = Reader::new(&bytes);
        if r.take_u32()? != MAGIC || r.take_u32()? != VERSION || r.take_u64()? != fingerprint {
            return None;
        }
        let len = r.take_u64()? as usize;
        if r.remaining() != len.checked_add(8)? {
            return None;
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + len];
        let mut h = Fnv1a::new();
        h.write_bytes(payload);
        let mut tail = Reader::new(&bytes[HEADER_LEN + len..]);
        if tail.take_u64()? != h.finish() {
            return None;
        }
        Some(payload.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hidap-spill-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = scratch_dir("roundtrip");
        let tier = SpillTier::new(&dir);
        let payload = b"the artifact bytes".to_vec();
        assert!(tier.store("gnet-00ff", 0xff00, &payload));
        assert_eq!(tier.load("gnet-00ff", 0xff00), Some(payload));
        // no leftover temp files after a clean store
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(stray.is_empty(), "temp file leaked: {stray:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_and_wrong_fingerprint_read_as_absent() {
        let dir = scratch_dir("absent");
        let tier = SpillTier::new(&dir);
        assert_eq!(tier.load("gnet-0000", 0), None);
        assert!(tier.store("gnet-0001", 1, b"x"));
        assert_eq!(tier.load("gnet-0001", 2), None, "fingerprint mismatch");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_reads_as_absent() {
        let dir = scratch_dir("truncate");
        let tier = SpillTier::new(&dir);
        assert!(tier.store("csr-0abc", 42, b"payload bytes"));
        let path = dir.join("csr-0abc.spill");
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(tier.load("csr-0abc", 42), None, "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_and_trailing_garbage_read_as_absent() {
        let dir = scratch_dir("corrupt");
        let tier = SpillTier::new(&dir);
        assert!(tier.store("seed-0abc", 7, b"some payload"));
        let path = dir.join("seed-0abc.spill");
        let full = fs::read(&path).unwrap();
        for flip in 0..full.len() {
            let mut bad = full.clone();
            bad[flip] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert_eq!(tier.load("seed-0abc", 7), None, "flip at {flip}");
        }
        let mut padded = full.clone();
        padded.push(0);
        fs::write(&path, &padded).unwrap();
        assert_eq!(tier.load("seed-0abc", 7), None, "trailing garbage");
        fs::write(&path, &full).unwrap();
        assert!(tier.load("seed-0abc", 7).is_some(), "pristine file still loads");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_degrades_to_not_spilled() {
        // a path under a regular file can never be created as a directory
        let file = scratch_dir("unwritable-anchor");
        fs::create_dir_all(&file).unwrap();
        let anchor = file.join("anchor");
        fs::write(&anchor, b"").unwrap();
        let tier = SpillTier::new(anchor.join("nested"));
        assert!(!tier.store("gnet-0000", 0, b"x"));
        assert_eq!(tier.load("gnet-0000", 0), None);
        let _ = fs::remove_dir_all(&file);
    }
}
