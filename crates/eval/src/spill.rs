//! The disk spill tier: framed, checksummed files under one directory.
//!
//! Its one user is the placement service, which persists each finished
//! job's warm-start seed here and reads it back when a `replace` finds its
//! base result gone (`placer_core::seeds`). A seed is the one piece of
//! service state that cannot be rebuilt from the design; the graphs the
//! [`crate::ArtifactCache`] evicts can, so they are dropped and rebuilt,
//! never written here. The tier is **off by default** and enabled by the
//! daemon's `--spill-dir`.
//!
//! # File format
//!
//! One payload per file, named `<stem>.spill` where the stem is a kind
//! prefix plus the 16-hex-digit identity fingerprint (e.g.
//! `seed-1f00ba….spill`). Each file is:
//!
//! | field        | size | contents                                   |
//! |--------------|------|--------------------------------------------|
//! | magic        | 4    | `HSPL`                                     |
//! | version      | 4    | format version (little-endian `u32`)       |
//! | fingerprint  | 8    | the identity the caller will ask for       |
//! | payload\_len | 8    | byte length of the payload                 |
//! | payload      | n    | codec-encoded payload ([`netlist::codec`]) |
//! | checksum     | 8    | [`Fnv1a::write_words`] of the payload      |
//!
//! Version 3 checksums the payload with the word fold, eight bytes per step;
//! versions 1 and 2 used the byte-at-a-time FNV-1a and are refused. The
//! payloads themselves are unchanged from version 2.
//!
//! A store writes the header, the caller's payload and the checksum straight
//! to a `.tmp` sibling and renames it into place, so a crash mid-write never
//! leaves a half-written `.spill` file under the final name. A read loads the
//! payload into the buffer it returns and cuts the checksum off its end: the
//! payload is never copied out of a framed buffer.
//!
//! # Failure model
//!
//! Every failure is a value, **never** a panic: a store that does not land
//! returns `false`, and [`SpillTier::read`] returns [`SpillMiss::Absent`]
//! for a file it cannot open and [`SpillMiss::Refused`] for one that is
//! there but fails a check (short or corrupt, a magic, version or
//! fingerprint mismatch, a length that disagrees with the file size, a
//! checksum mismatch), so a caller can count disk rot and stale formats
//! apart from plain misses.

// lint:allow(fs-scope): this module IS the spill tier — the one place
// deterministic crates touch the filesystem (see docs/MEMORY.md).

use netlist::codec::{put_u32, put_u64, Reader};
use netlist::Fnv1a;
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// `HSPL` as a little-endian `u32`.
const MAGIC: u32 = u32::from_le_bytes(*b"HSPL");
/// Format version; bumped on any layout change so stale files from an older
/// build read as absent instead of mis-decoding. Version 2: warm-start seed
/// payloads lead with the id of the job that wrote them. Version 3: the
/// payload checksum is the word fold ([`Fnv1a::write_words`]).
const VERSION: u32 = 3;
/// Header bytes before the payload: magic + version + fingerprint + length.
const HEADER_LEN: usize = 24;
/// Checksum bytes after the payload.
const CHECKSUM_LEN: usize = 8;

/// Why [`SpillTier::read`] returned no payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillMiss {
    /// No file could be opened under the name.
    Absent,
    /// A file is there but was refused: short, wrong magic, version or
    /// fingerprint, a length that disagrees with the file size, or a
    /// checksum mismatch.
    Refused,
}

/// A handle on one spill directory. Cheap to clone (a `PathBuf`); clones
/// address the same files.
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

    /// The directory this tier files payloads under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes `payload` under `<stem>.spill`, framed and checksummed, via a
    /// temp-file rename. Returns whether the file landed; any filesystem
    /// failure returns `false` (the entry is simply not spilled).
    pub fn store(&self, stem: &str, fingerprint: u64, payload: &[u8]) -> bool {
        let mut header = Vec::with_capacity(HEADER_LEN);
        put_u32(&mut header, MAGIC);
        put_u32(&mut header, VERSION);
        put_u64(&mut header, fingerprint);
        put_u64(&mut header, payload.len() as u64);
        let mut sum = Fnv1a::new();
        sum.write_words(payload);

        if fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let tmp = self.dir.join(format!("{stem}.tmp"));
        let written = File::create(&tmp).and_then(|mut file| {
            file.write_all(&header)?;
            file.write_all(payload)?;
            file.write_all(&sum.finish().to_le_bytes())
        });
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        fs::rename(&tmp, self.dir.join(format!("{stem}.spill"))).is_ok()
    }

    /// Reads and validates `<stem>.spill`, returning its payload. A file
    /// that is not there is [`SpillMiss::Absent`]; a short file, wrong
    /// magic or version, a fingerprint other than the one asked for, a
    /// length that disagrees with the file size or a checksum mismatch is
    /// [`SpillMiss::Refused`]. The payload is read into the returned
    /// buffer, whose only other bytes are the checksum's spare capacity.
    pub fn read(&self, stem: &str, fingerprint: u64) -> Result<Vec<u8>, SpillMiss> {
        let mut file =
            File::open(self.dir.join(format!("{stem}.spill"))).map_err(|_| SpillMiss::Absent)?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header).map_err(|_| SpillMiss::Refused)?;
        let mut r = Reader::new(&header);
        if r.take_u32() != Some(MAGIC)
            || r.take_u32() != Some(VERSION)
            || r.take_u64() != Some(fingerprint)
        {
            return Err(SpillMiss::Refused);
        }
        let len =
            r.take_u64().and_then(|len| usize::try_from(len).ok()).ok_or(SpillMiss::Refused)?;
        // `read_to_end` sizes the buffer from the file's remaining length,
        // so a corrupt length field cannot allocate more than the file holds
        let mut body = Vec::new();
        file.read_to_end(&mut body).map_err(|_| SpillMiss::Refused)?;
        if body.len().checked_sub(CHECKSUM_LEN) != Some(len) {
            return Err(SpillMiss::Refused);
        }
        let (payload, stored) = body.split_at_checked(len).ok_or(SpillMiss::Refused)?;
        let mut sum = Fnv1a::new();
        sum.write_words(payload);
        if stored != sum.finish().to_le_bytes() {
            return Err(SpillMiss::Refused);
        }
        body.truncate(len);
        Ok(body)
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
        let payload = b"the seed bytes".to_vec();
        assert!(tier.store("seed-00ff", 0xff00, &payload));
        assert_eq!(tier.read("seed-00ff", 0xff00), Ok(payload));
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
        assert_eq!(tier.read("seed-0000", 0), Err(SpillMiss::Absent));
        assert!(tier.store("seed-0001", 1, b"x"));
        assert_eq!(tier.read("seed-0001", 2), Err(SpillMiss::Refused), "fingerprint mismatch");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_reads_as_absent() {
        let dir = scratch_dir("truncate");
        let tier = SpillTier::new(&dir);
        assert!(tier.store("seed-0abc", 42, b"payload bytes"));
        let path = dir.join("seed-0abc.spill");
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            assert_eq!(tier.read("seed-0abc", 42), Err(SpillMiss::Refused), "cut at {cut}");
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
            assert_eq!(tier.read("seed-0abc", 7), Err(SpillMiss::Refused), "flip at {flip}");
        }
        let mut padded = full.clone();
        padded.push(0);
        fs::write(&path, &padded).unwrap();
        assert_eq!(tier.read("seed-0abc", 7), Err(SpillMiss::Refused), "trailing garbage");
        fs::write(&path, &full).unwrap();
        assert!(tier.read("seed-0abc", 7).is_ok(), "pristine file still loads");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_tells_a_missing_file_from_a_refused_one() {
        let dir = scratch_dir("refused");
        let tier = SpillTier::new(&dir);
        assert_eq!(tier.read("seed-0abc", 7), Err(SpillMiss::Absent));
        assert!(tier.store("seed-0abc", 7, b"some payload"));
        assert_eq!(tier.read("seed-0abc", 8), Err(SpillMiss::Refused), "fingerprint");
        let path = dir.join("seed-0abc.spill");
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..HEADER_LEN - 1]).unwrap();
        assert_eq!(tier.read("seed-0abc", 7), Err(SpillMiss::Refused), "short header");
        let mut flipped = full.clone();
        flipped[HEADER_LEN] ^= 1;
        fs::write(&path, &flipped).unwrap();
        assert_eq!(tier.read("seed-0abc", 7), Err(SpillMiss::Refused), "checksum");
        fs::write(&path, &full).unwrap();
        assert_eq!(tier.read("seed-0abc", 7).as_deref(), Ok(&b"some payload"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A file an older build wrote — version 2, byte-at-a-time FNV-1a — is
    /// refused, not mis-read.
    #[test]
    fn a_version_2_frame_is_refused() {
        let dir = scratch_dir("version-2");
        let tier = SpillTier::new(&dir);
        let payload = b"payload of an older build";
        let mut frame = Vec::new();
        put_u32(&mut frame, MAGIC);
        put_u32(&mut frame, 2);
        put_u64(&mut frame, 7);
        put_u64(&mut frame, payload.len() as u64);
        frame.extend_from_slice(payload);
        let mut h = Fnv1a::new();
        h.write_bytes(payload);
        put_u64(&mut frame, h.finish());
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("seed-0abc.spill"), &frame).unwrap();
        assert_eq!(tier.read("seed-0abc", 7), Err(SpillMiss::Refused));
        // the same payload in the current frame loads
        assert!(tier.store("seed-0abc", 7, payload));
        assert_eq!(tier.read("seed-0abc", 7).as_deref(), Ok(&payload[..]));
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
        assert!(!tier.store("seed-0000", 0, b"x"));
        assert_eq!(tier.read("seed-0000", 0), Err(SpillMiss::Absent));
        let _ = fs::remove_dir_all(&file);
    }
}
