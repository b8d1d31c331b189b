//! Warm-start seed persistence: the spill-tier face of `replace`.
//!
//! A replace job warm-starts from its base job's outcome. Within one service
//! lifetime the base result is held in memory; when a spill directory is
//! configured ([`crate::PlacementService::with_spill_dir`]) the service also
//! persists every successful job's winning placement as a **seed file** in
//! the same framed format the artifact spill tier uses ([`eval::SpillTier`],
//! stem `seed-<fingerprint>`), keyed by the design identity
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

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_i64(out, p.x);
    put_i64(out, p.y);
}

fn take_point(r: &mut Reader<'_>) -> Option<Point> {
    Some(Point::new(r.take_i64()?, r.take_i64()?))
}

fn orientation_tag(o: Orientation) -> u8 {
    // Orientation::ALL is the canonical order; a macro always matches.
    Orientation::ALL.iter().position(|&x| x == o).unwrap_or(0) as u8
}

/// Encodes the warm seed job `job` left behind into a spill payload.
pub fn encode_seed(job: JobId, seed: &WarmSeed) -> Vec<u8> {
    let mut out = Vec::new();
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
    match &seed.cells {
        None => put_u8(&mut out, 0),
        Some(cells) => {
            put_u8(&mut out, 1);
            put_u64(&mut out, cells.positions.len() as u64);
            for slot in cells.positions.as_slice() {
                match slot {
                    None => put_u8(&mut out, 0),
                    Some(p) => {
                        put_u8(&mut out, 1);
                        put_point(&mut out, *p);
                    }
                }
            }
        }
    }
    out
}

/// Decodes a spill payload back into the job that wrote it and its warm
/// seed. `None` on any truncation, trailing garbage, or out-of-range tag —
/// the caller degrades to running without the seed.
pub fn decode_seed(bytes: &[u8]) -> Option<(JobId, WarmSeed)> {
    let mut r = Reader::new(bytes);
    let job = JobId(r.take_u64()?);
    let num_macros = r.take_len()?;
    // every macro record is at least 4 + 16 + 1 bytes: reject length bombs
    // before sizing the vector
    if r.remaining() / 21 < num_macros {
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
    if r.remaining() / 40 < num_blocks {
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
        1 => {
            let num_cells = r.take_len()?;
            if r.remaining() < num_cells {
                return None;
            }
            let mut positions = Vec::with_capacity(num_cells);
            for _ in 0..num_cells {
                positions.push(match r.take_u8()? {
                    0 => None,
                    1 => Some(take_point(&mut r)?),
                    _ => return None,
                });
            }
            Some(CellPlacement { positions: DenseMap::from_vec(positions) })
        }
        _ => return None,
    };
    if !r.is_exhausted() {
        return None;
    }
    Some((job, WarmSeed { placement: MacroPlacement { macros, top_blocks }, cells }))
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
