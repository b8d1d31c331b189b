//! Warm-start seed persistence: the spill-tier face of `replace`.
//!
//! A replace job warm-starts from its base job's outcome. Within one service
//! lifetime the base result is held in memory; when a spill directory is
//! configured ([`crate::PlacementService::with_spill_dir`]) the service also
//! persists every successful job's winning placement as a **seed file** in
//! the spill tier's framed format ([`eval::SpillTier`], stem
//! `seed-<fingerprint>`), keyed by the design identity
//! ([`eval::DesignKey::fingerprint`]) folded with the design's geometry
//! fingerprint. After a daemon restart, a replace job whose base result is
//! gone — a [`crate::JobId`] from the previous incarnation, or one whose
//! result was already taken — revives the seed from disk and warm-starts
//! exactly as it would have from the held result.
//!
//! Every job that succeeds on one design state writes the same file, so the
//! file holds the last one's outcome. The payload records that job's
//! [`JobId`], and a replace revives the seed only when it names that job as
//! its base.
//!
//! The payload is codec-encoded ([`netlist::codec`]): the writing job's id,
//! the winning macro placement (locations, orientations, top-level block
//! rectangles) plus the standard-cell placement when the job evaluated.
//! Decoding is truncation-tolerant — any malformed payload reads as absent
//! and the replace falls back to its structured dependency error.
//!
//! | section | bytes |
//! |---|---|
//! | writing job's id | 8 |
//! | macro count, then per macro: cell id, x, y, orientation tag | 8 + 21 each |
//! | block count, then per block: name (length-prefixed), llx, lly, urx, ury | 8 + 40 + name each |
//! | cell placement present (0 or 1) | 1 |
//! | if present: cell count, then per cell a record | 8 + 17 (placed: tag 1, x, y) or 1 (unplaced: tag 0) each |
//!
//! The seed is encoded straight from the job's outcome ([`SeedRef`] borrows
//! it) into one buffer sized exactly before the first byte is written, and
//! the cell section, nearly all of a seed's bytes, is written and read one
//! whole record at a time. A seed of the benchmark's `eco_session` design
//! (200 macros, 16 blocks, 24,968 placed cells) is 429,463 bytes.

use crate::JobId;
use eval::{CellPlacement, DesignKey};
use geometry::{Orientation, Point, Rect};
use hidap::{MacroPlacement, PlacedMacro};
use netlist::codec::{put_i64, put_str, put_u32, put_u64, put_u8, Reader};
use netlist::dense::DenseMap;
use netlist::design::CellId;
use netlist::Fnv1a;

/// A revivable warm-start: what [`crate::service::PlacementService`] needs
/// from a base job to warm a replace — no more, no less.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmSeed {
    /// The base job's winning macro placement.
    pub placement: MacroPlacement,
    /// The base job's standard-cell placement, when it ran with evaluation
    /// (seeds the warm evaluation solver).
    pub cells: Option<CellPlacement>,
}

/// The content address of a design's seed file: the design identity
/// fingerprint folded with its geometry fingerprint. Two designs share a
/// seed exactly when they would intern to the same store slot.
pub fn seed_fingerprint(key: &DesignKey, geometry: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(key.fingerprint());
    h.write_sep();
    h.write_u64(geometry);
    h.finish()
}

/// The spill-file stem a seed fingerprint files under.
pub fn seed_stem(fingerprint: u64) -> String {
    format!("seed-{fingerprint:016x}")
}

/// A borrowed warm seed: what [`encode_seed`] writes. The service encodes a
/// job's outcome through it in place, without cloning it into a
/// [`WarmSeed`] first.
#[derive(Debug, Clone, Copy)]
pub struct SeedRef<'a> {
    /// The winning macro placement.
    pub placement: &'a MacroPlacement,
    /// The standard-cell placement, when the job evaluated.
    pub cells: Option<&'a CellPlacement>,
}

impl<'a> From<&'a WarmSeed> for SeedRef<'a> {
    fn from(seed: &'a WarmSeed) -> Self {
        Self { placement: &seed.placement, cells: seed.cells.as_ref() }
    }
}

/// Bytes of one macro record: cell id, x, y, orientation tag.
const MACRO_RECORD: usize = 4 + 16 + 1;
/// Bytes of one top-level block record besides its name: the name's
/// length prefix and the rectangle.
const BLOCK_RECORD: usize = 8 + 32;
/// Bytes of one placed cell's record: tag 1, x, y.
const PLACED_RECORD: usize = 1 + 16;

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_i64(out, p.x);
    put_i64(out, p.y);
}

fn take_point(r: &mut Reader<'_>) -> Option<Point> {
    Some(Point::new(r.take_i64()?, r.take_i64()?))
}

/// A placed cell's record: tag 1, then x and y little-endian.
fn placed_record(p: Point) -> [u8; PLACED_RECORD] {
    let [x0, x1, x2, x3, x4, x5, x6, x7] = p.x.to_le_bytes();
    let [y0, y1, y2, y3, y4, y5, y6, y7] = p.y.to_le_bytes();
    [1, x0, x1, x2, x3, x4, x5, x6, x7, y0, y1, y2, y3, y4, y5, y6, y7]
}

/// The point of a placed cell's record, from the 16 bytes after its tag.
fn record_point(xy: [u8; 16]) -> Point {
    let [x0, x1, x2, x3, x4, x5, x6, x7, y0, y1, y2, y3, y4, y5, y6, y7] = xy;
    Point::new(
        i64::from_le_bytes([x0, x1, x2, x3, x4, x5, x6, x7]),
        i64::from_le_bytes([y0, y1, y2, y3, y4, y5, y6, y7]),
    )
}

fn orientation_tag(o: Orientation) -> u8 {
    // Orientation::ALL is the canonical order; a macro always matches.
    Orientation::ALL.iter().position(|&x| x == o).unwrap_or(0) as u8
}

/// The exact byte length [`encode_seed`] writes for `seed`.
fn encoded_len(seed: SeedRef<'_>) -> usize {
    let blocks: usize =
        seed.placement.top_blocks.iter().map(|(name, _)| BLOCK_RECORD + name.len()).sum();
    let cells = seed.cells.map_or(0, |cells| {
        let slots = cells.positions.as_slice();
        let placed = slots.iter().filter(|slot| slot.is_some()).count();
        8 + placed * PLACED_RECORD + (slots.len() - placed)
    });
    8 + 8 + seed.placement.macros.len() * MACRO_RECORD + 8 + blocks + 1 + cells
}

/// Encodes the warm seed job `job` left behind into a spill payload, in one
/// allocation of exactly the payload's length.
pub fn encode_seed<'a>(job: JobId, seed: impl Into<SeedRef<'a>>) -> Vec<u8> {
    let seed = seed.into();
    let len = encoded_len(seed);
    let mut out = Vec::with_capacity(len);
    put_u64(&mut out, job.0);
    put_u64(&mut out, seed.placement.macros.len() as u64);
    for m in &seed.placement.macros {
        put_u32(&mut out, m.cell.0);
        put_point(&mut out, m.location);
        put_u8(&mut out, orientation_tag(m.orientation));
    }
    put_u64(&mut out, seed.placement.top_blocks.len() as u64);
    for (name, rect) in &seed.placement.top_blocks {
        put_str(&mut out, name);
        put_i64(&mut out, rect.llx);
        put_i64(&mut out, rect.lly);
        put_i64(&mut out, rect.urx);
        put_i64(&mut out, rect.ury);
    }
    match seed.cells {
        None => put_u8(&mut out, 0),
        Some(cells) => {
            put_u8(&mut out, 1);
            put_u64(&mut out, cells.positions.len() as u64);
            for slot in cells.positions.as_slice() {
                match slot {
                    None => out.push(0),
                    Some(p) => out.extend_from_slice(&placed_record(*p)),
                }
            }
        }
    }
    debug_assert_eq!(out.len(), len, "encoded_len disagrees with the encoder");
    out
}

/// Decodes a spill payload back into the job that wrote it and its warm
/// seed. `None` on any truncation, trailing garbage, or out-of-range tag —
/// the caller degrades to running without the seed.
pub fn decode_seed(bytes: &[u8]) -> Option<(JobId, WarmSeed)> {
    let mut r = Reader::new(bytes);
    let job = JobId(r.take_u64()?);
    let num_macros = r.take_len()?;
    // reject length bombs before sizing the vector
    if r.remaining() / MACRO_RECORD < num_macros {
        return None;
    }
    let mut macros = Vec::with_capacity(num_macros);
    for _ in 0..num_macros {
        let cell = CellId(r.take_u32()?);
        let location = take_point(&mut r)?;
        let orientation = *Orientation::ALL.get(usize::from(r.take_u8()?))?;
        macros.push(PlacedMacro { cell, location, orientation });
    }
    let num_blocks = r.take_len()?;
    if r.remaining() / BLOCK_RECORD < num_blocks {
        return None;
    }
    let mut top_blocks = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        let name = r.take_str()?;
        let (llx, lly) = (r.take_i64()?, r.take_i64()?);
        let (urx, ury) = (r.take_i64()?, r.take_i64()?);
        top_blocks.push((name, Rect { llx, lly, urx, ury }));
    }
    let cells = match r.take_u8()? {
        0 => None,
        1 => Some(decode_cells(r.take_len()?, r.take_rest())?),
        _ => return None,
    };
    if !r.is_exhausted() {
        return None;
    }
    Some((job, WarmSeed { placement: MacroPlacement { macros, top_blocks }, cells }))
}

/// Reads `num_cells` cell records that must fill `records` exactly.
fn decode_cells(num_cells: usize, mut records: &[u8]) -> Option<CellPlacement> {
    // every record is at least its tag byte
    if records.len() < num_cells {
        return None;
    }
    let mut positions = Vec::with_capacity(num_cells);
    for _ in 0..num_cells {
        let (&tag, rest) = records.split_first()?;
        records = rest;
        positions.push(match tag {
            0 => None,
            1 => {
                let (xy, rest) = records.split_first_chunk::<16>()?;
                records = rest;
                Some(record_point(*xy))
            }
            _ => return None,
        });
    }
    records.is_empty().then(|| CellPlacement { positions: DenseMap::from_vec(positions) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(with_cells: bool) -> WarmSeed {
        let placement = MacroPlacement {
            macros: vec![
                PlacedMacro {
                    cell: CellId(3),
                    location: Point::new(-40, 1200),
                    orientation: Orientation::FS,
                },
                PlacedMacro {
                    cell: CellId(9),
                    location: Point::new(0, 0),
                    orientation: Orientation::N,
                },
            ],
            top_blocks: vec![("u_core".to_string(), Rect::new(0, 0, 500, 400))],
        };
        let cells = with_cells.then(|| {
            let mut c = CellPlacement::with_num_cells(4);
            c.positions.insert(CellId(1), Some(Point::new(17, -2)));
            c.positions.insert(CellId(3), Some(Point::new(250, 199)));
            c
        });
        WarmSeed { placement, cells }
    }

    #[test]
    fn seed_round_trips_with_and_without_cells() {
        for with_cells in [false, true] {
            let seed = sample(with_cells);
            let bytes = encode_seed(JobId(41), &seed);
            assert_eq!(decode_seed(&bytes), Some((JobId(41), seed)));
        }
    }

    #[test]
    fn truncated_and_padded_seed_payloads_read_as_absent() {
        let bytes = encode_seed(JobId(0), &sample(true));
        for cut in 0..bytes.len() {
            assert_eq!(decode_seed(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(decode_seed(&padded), None, "trailing garbage");
    }

    #[test]
    fn out_of_range_tags_read_as_absent() {
        let mut bad_orient = encode_seed(JobId(0), &sample(false));
        // last macro byte before the block and cells sections: job id (8) +
        // macros len (8) + 2 × (4 + 16 + 1) = 58; orientation of macro 1 is
        // at offset 57
        bad_orient[57] = 8;
        assert_eq!(decode_seed(&bad_orient), None);

        let mut bad_cells = encode_seed(JobId(0), &sample(false));
        let last = bad_cells.len() - 1;
        bad_cells[last] = 2;
        assert_eq!(decode_seed(&bad_cells), None);
    }

    /// A seed the size of the benchmark's `eco_session` ones (200 macros,
    /// 16 blocks, 24,968 cells), every 97th cell unplaced: encoded in one
    /// allocation of exactly its length, record by record, and decoded back.
    #[test]
    fn an_eco_session_sized_seed_encodes_in_one_exact_allocation() {
        let orientations = Orientation::ALL;
        let macros = (0..200u32)
            .map(|i| PlacedMacro {
                cell: CellId(i * 120),
                location: Point::new(i64::from(i) * 7_001 - 40_000, i64::from(i) * -13),
                orientation: orientations[i as usize % orientations.len()],
            })
            .collect();
        let top_blocks = (0..16i64)
            .map(|i| (format!("u_u_sub{i}"), Rect::new(i * 1000, 0, i * 1000 + 900, 5000)))
            .collect();
        let mut cells = CellPlacement::with_num_cells(24_968);
        for c in (0..24_968u32).filter(|c| c % 97 != 0) {
            let (x, y) = (i64::from(c) * 31, i64::MAX - i64::from(c));
            cells.positions.insert(CellId(c), Some(Point::new(x, y)));
        }
        let seed =
            WarmSeed { placement: MacroPlacement { macros, top_blocks }, cells: Some(cells) };

        let bytes = encode_seed(JobId(12), &seed);
        assert_eq!(bytes.capacity(), bytes.len(), "one exact allocation");
        let (unplaced, placed) = (24_968usize.div_ceil(97), 24_968 - 24_968usize.div_ceil(97));
        let names: usize = (0..16).map(|i| format!("u_u_sub{i}").len()).sum();
        let want = 8 + 8 + 200 * 21 + 8 + 16 * 40 + names + 1 + 8 + placed * 17 + unplaced;
        assert_eq!(bytes.len(), want);
        assert_eq!(decode_seed(&bytes), Some((JobId(12), seed.clone())));

        // with every cell placed it is the seed-1 `eco_session` size, whose
        // 16 block names (`u_u_sub0` … `u_u_sub15`) hold 134 bytes
        let mut all = seed;
        if let Some(cells) = all.cells.as_mut() {
            for c in (0..24_968u32).filter(|c| c % 97 == 0) {
                cells.positions.insert(CellId(c), Some(Point::new(1, 2)));
            }
        }
        let bytes = encode_seed(JobId(12), &all);
        assert_eq!((names, bytes.len(), bytes.capacity()), (134, 429_463, 429_463));
        assert_eq!(decode_seed(&bytes), Some((JobId(12), all)));
    }

    #[test]
    fn seed_fingerprint_separates_identity_and_geometry() {
        use netlist::design::DesignBuilder;
        let build = |die_w| {
            let mut b = DesignBuilder::new("fp");
            let m = b.add_macro("u/ram", "RAM", 100, 80, "u");
            let f = b.add_flop("r_reg[0]", "");
            let n = b.add_net("n");
            b.connect_driver(n, f);
            b.connect_sink(n, m);
            b.set_die(geometry::Rect::new(0, 0, die_w, 500));
            b.build()
        };
        let (a, b) = (build(1000), build(2000));
        let (ka, kb) = (DesignKey::of(&a), DesignKey::of(&b));
        assert_eq!(ka, kb, "geometry is not part of the identity key");
        let fa = seed_fingerprint(&ka, a.geometry_fingerprint());
        let fb = seed_fingerprint(&kb, b.geometry_fingerprint());
        assert_ne!(fa, fb, "the seed address covers the geometry half");
        assert_eq!(fa, seed_fingerprint(&ka, a.geometry_fingerprint()));
    }
}
