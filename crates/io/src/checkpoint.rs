//! Binary checkpoint/restart.
//!
//! Three formats share one little-endian envelope; the version tag says
//! which header and record section sit inside it:
//!
//! ```text
//! magic   "RHRSCCKP"   8 bytes
//! version u32          4
//! header  fixed size, per format (below)
//! records variable, per format (below)
//! fnv     u64          FNV-1a over the record section
//! crc32   u32          CRC-32 over every preceding byte, header included
//! ```
//!
//! | version | type | slot files | header | record section |
//! |---|---|---|---|---|
//! | 2 | [`Checkpoint`] | `*.ckp` | time f64, step u64, n\[3\] u64, ng u64, origin\[3\] f64, dx\[3\] f64, ncomp u64 | the ghost-inclusive field, component-major |
//! | 3 | [`GlobalCheckpoint`] | `*.gckp` | time f64, step u64, global_n\[3\] u64, ncomp u64, nblocks u64 | per block: id u64, offset\[3\] u64, size\[3\] u64, interior data |
//! | 4 | [`AmrCheckpoint`] | `*.ackp` | time f64, step u64, n0 u64, ncomp u64, npatches u64 | per patch: level u32, lo u64, n u64, interior data |
//!
//! [`encode`], [`decode`], [`save_checkpoint`], [`load_checkpoint`] and
//! [`CheckpointSlots`] are generic over [`CheckpointFormat`], which is
//! what a format owns: its version tag, slot extension, header and
//! records. A decoder checks, in this order: magic, version and minimum
//! length ([`CheckpointError::Format`]), the whole-file CRC
//! ([`CheckpointError::Corrupt`]), the structure of header and records
//! (`Format` — every size read from the file is multiplied checked and
//! bounded by the bytes that are left before anything is allocated), the
//! record FNV (`Corrupt`).
//!
//! Writes are atomic: the payload goes to a sibling temp file which is
//! fsynced and renamed into place, so a crash mid-write can never leave a
//! file that [`load_checkpoint`] accepts — at worst a stale `*.tmp`,
//! which the loaders ignore. [`CheckpointSlots`] adds a `latest`/`prev`
//! rotation on top, so one torn or corrupted checkpoint still leaves a
//! valid restart point.

use bytes::{Buf, BufMut};
use rhrsc_grid::{Field, PatchGeom};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"RHRSCCKP";
/// Bytes ahead of a format's header: magic and version.
const PREFIX_LEN: usize = 12;
/// Bytes behind a format's records: FNV and CRC-32.
const FOOTER_LEN: usize = 12;

/// What one checkpoint format owns inside the shared envelope.
pub trait CheckpointFormat: Sized {
    /// Version tag written after the magic.
    const VERSION: u32;
    /// File extension of this format's rotating slots.
    const EXT: &'static str;
    /// Size of the fixed header in bytes.
    const HEADER_LEN: usize;
    /// Size of the record section in bytes (sizes the encode buffer).
    fn records_len(&self) -> usize;
    /// Append the header, then the records.
    fn put(&self, buf: &mut Vec<u8>);
    /// Parse the header and consume the records from the front of
    /// `bytes`, which holds at least [`Self::HEADER_LEN`] bytes. Anything
    /// left over is the envelope's to reject.
    fn parse(bytes: &mut &[u8]) -> Result<Self, CheckpointError>;
}

/// A restartable solver state (format version 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Simulation time.
    pub time: f64,
    /// Step counter.
    pub step: u64,
    /// Ghost-inclusive conserved field.
    pub field: Field,
}

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a checkpoint file, an unsupported version, or a header or
    /// record whose sizes do not fit the file.
    Format(String),
    /// Checksum mismatch (truncated/corrupted file).
    Corrupt,
    /// Both slots of a rotating store were unusable. Carries each slot's
    /// own failure so the operator can tell "no checkpoint was ever
    /// written" (two `Io` not-found errors) from "both generations
    /// rotted" (`Corrupt`/`Format`) — the old fallback discarded the
    /// `latest` error and reported only whatever happened to `prev`.
    Slots {
        /// Why the `latest` slot could not be loaded.
        latest: Box<CheckpointError>,
        /// Why the `prev` slot could not be loaded either.
        prev: Box<CheckpointError>,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(m) => write!(f, "bad checkpoint format: {m}"),
            CheckpointError::Corrupt => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Slots { latest, prev } => write!(
                f,
                "both checkpoint slots unusable: latest slot: {latest}; prev slot: {prev}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a over a byte slice (cheap integrity check, not cryptographic).
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// CRC-32 (IEEE, reflected) over a byte slice. Covers the whole file
/// including the header, unlike the FNV data checksum — a bit flip in
/// `time` or the geometry is as fatal to a restart as one in the data.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb88320 & mask);
        }
    }
    !crc
}

/// Serialize a checkpoint of any format to bytes.
pub fn encode<R: CheckpointFormat>(ckp: &R) -> Vec<u8> {
    let records_at = PREFIX_LEN + R::HEADER_LEN;
    let mut buf = Vec::with_capacity(records_at + ckp.records_len() + FOOTER_LEN);
    buf.put_slice(MAGIC);
    buf.put_u32_le(R::VERSION);
    ckp.put(&mut buf);
    let fnv = fnv1a(&buf[records_at..]);
    buf.put_u64_le(fnv);
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf
}

/// Integrity passes a decoder runs before trusting the bytes.
///
/// * [`Checks::Full`] — bitwise whole-file CRC-32 plus the record FNV:
///   the disk tier, where torn writes and media rot are real.
/// * [`Checks::Trusted`] — pure parsing: the caller has just re-hashed
///   the *entire* buffer against an external stamp (e.g.
///   [`crate::MemorySnapshot::verify`], which covers every byte
///   including the header — strictly stronger than the record FNV), so
///   either armor pass would verify the same bits twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Checks {
    Full,
    Trusted,
}

/// Deserialize a checkpoint from bytes, with every integrity pass.
pub fn decode<R: CheckpointFormat>(bytes: &[u8]) -> Result<R, CheckpointError> {
    decode_with(bytes, Checks::Full)
}

/// Like [`decode`] but with *both* integrity passes (CRC-32 and the
/// record FNV) skipped: pure parsing, with every structural check still
/// in force. Sound **only** when the caller has just re-hashed the entire
/// byte buffer against an external stamp —
/// [`crate::MemorySnapshot::verify`] covers every byte including the
/// header, which is strictly stronger than the record FNV — so running
/// either armor pass again would verify the same bits twice. This is
/// what makes the diskless restore tier cheap: one FNV pass plus
/// parsing, against the disk tier's read + FNV + bitwise CRC.
pub fn decode_trusted<R: CheckpointFormat>(bytes: &[u8]) -> Result<R, CheckpointError> {
    decode_with(bytes, Checks::Trusted)
}

fn decode_with<R: CheckpointFormat>(bytes: &[u8], checks: Checks) -> Result<R, CheckpointError> {
    if bytes.len() < PREFIX_LEN || &bytes[..8] != MAGIC {
        return Err(CheckpointError::Format("missing magic".into()));
    }
    let version = (&bytes[8..]).get_u32_le();
    if version != R::VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version} (this is the v{} decoder)",
            R::VERSION
        )));
    }
    if bytes.len() < PREFIX_LEN + R::HEADER_LEN + FOOTER_LEN {
        return Err(CheckpointError::Format("truncated header".into()));
    }
    // Whole-file CRC first: a bit flip anywhere is fatal to a restart,
    // and the record FNV cannot see the header.
    let (armored, mut crc) = bytes.split_at(bytes.len() - 4);
    if checks == Checks::Full && crc32(armored) != crc.get_u32_le() {
        return Err(CheckpointError::Corrupt);
    }
    let (mut body, mut fnv) = armored[PREFIX_LEN..].split_at(armored.len() - PREFIX_LEN - 8);
    let records = &body[R::HEADER_LEN..];
    let ckp = R::parse(&mut body)?;
    if !body.is_empty() {
        return Err(CheckpointError::Format("trailing bytes".into()));
    }
    if checks == Checks::Full && fnv1a(records) != fnv.get_u64_le() {
        return Err(CheckpointError::Corrupt);
    }
    Ok(ckp)
}

fn put_usize3(buf: &mut Vec<u8>, v: [usize; 3]) {
    for x in v {
        buf.put_u64_le(x as u64);
    }
}

fn put_f64s(buf: &mut Vec<u8>, v: &[f64]) {
    for &x in v {
        buf.put_f64_le(x);
    }
}

fn get_usize3(bytes: &mut &[u8]) -> [usize; 3] {
    [(); 3].map(|()| bytes.get_u64_le() as usize)
}

fn get_f64x3(bytes: &mut &[u8]) -> [f64; 3] {
    [(); 3].map(|()| bytes.get_f64_le())
}

fn oversized() -> CheckpointError {
    CheckpointError::Format("record size exceeds the file".into())
}

/// Take the `ncomp × extent[0] × extent[1] × extent[2]` f64s of one
/// record off the front of `bytes`. All four factors come from the file:
/// the product is formed checked and must fit the bytes that are left
/// (the footer was split off already) before anything is allocated, so a
/// lying size is a [`CheckpointError::Format`], never an overflow, an
/// out-of-bounds slice or a record that claims cells it does not hold.
/// `chunks_exact` lets the compiler hoist the per-element bounds checks
/// out of the loop — this is the bulk of a trusted decode.
fn get_f64_payload(
    bytes: &mut &[u8],
    ncomp: usize,
    extent: [usize; 3],
) -> Result<Vec<f64>, CheckpointError> {
    let nbytes = extent
        .iter()
        .try_fold(1usize, |len, &n| len.checked_mul(n))
        .and_then(|cells| cells.checked_mul(ncomp))
        .and_then(|len| len.checked_mul(8))
        .filter(|&nbytes| nbytes <= bytes.len())
        .ok_or_else(oversized)?;
    let (head, rest) = bytes.split_at(nbytes);
    *bytes = rest;
    Ok(head
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks of 8")))
        .collect())
}

impl CheckpointFormat for Checkpoint {
    const VERSION: u32 = 2;
    const EXT: &'static str = "ckp";
    const HEADER_LEN: usize = 13 * 8;

    fn records_len(&self) -> usize {
        self.field.raw().len() * 8
    }

    fn put(&self, buf: &mut Vec<u8>) {
        let geom = self.field.geom();
        buf.put_f64_le(self.time);
        buf.put_u64_le(self.step);
        put_usize3(buf, geom.n);
        buf.put_u64_le(geom.ng as u64);
        put_f64s(buf, &geom.origin);
        put_f64s(buf, &geom.dx);
        buf.put_u64_le(self.field.ncomp() as u64);
        put_f64s(buf, self.field.raw());
    }

    fn parse(bytes: &mut &[u8]) -> Result<Self, CheckpointError> {
        let time = bytes.get_f64_le();
        let step = bytes.get_u64_le();
        let n = get_usize3(bytes);
        let ng = bytes.get_u64_le() as usize;
        let origin = get_f64x3(bytes);
        let dx = get_f64x3(bytes);
        let ncomp = bytes.get_u64_le() as usize;
        // The ghost-inclusive extents of `PatchGeom::ntot`, formed checked.
        let mut ntot = n;
        for nd in ntot.iter_mut().filter(|nd| **nd > 1) {
            *nd = ng
                .checked_mul(2)
                .and_then(|g| g.checked_add(*nd))
                .ok_or_else(oversized)?;
        }
        let data = get_f64_payload(bytes, ncomp, ntot)?;
        let geom = PatchGeom { n, ng, origin, dx };
        Ok(Checkpoint {
            time,
            step,
            field: Field::from_vec(geom, ncomp, data),
        })
    }
}

/// One block of a [`GlobalCheckpoint`]: an axis-aligned box of the global
/// interior index space, keyed by the writing decomposition's block id.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockRecord {
    /// Block id in the decomposition that wrote the checkpoint.
    pub id: u64,
    /// Global index of the block's first interior cell, per axis.
    pub offset: [usize; 3],
    /// Interior extent of the block, per axis.
    pub size: [usize; 3],
    /// Interior cell data, component-major within the block
    /// (`((c*nz + z)*ny + y)*nx + x`).
    pub data: Vec<f64>,
}

/// Rank-count-independent checkpoint (format version 3): global interior
/// state stored as blocks keyed by block id, each with its global offset
/// and extent. Because every value is addressed in *global* index space,
/// the state can be restored onto any decomposition — in particular onto
/// fewer ranks after a shrinking recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalCheckpoint {
    /// Simulation time.
    pub time: f64,
    /// Step counter.
    pub step: u64,
    /// Global interior extent.
    pub global_n: [usize; 3],
    /// Components per cell.
    pub ncomp: usize,
    /// The blocks, in writing-decomposition order.
    pub blocks: Vec<BlockRecord>,
}

impl GlobalCheckpoint {
    /// Extract the component-major data of the global interior span
    /// `[lo, lo + size)` by intersecting whatever blocks cover it —
    /// regardless of how the writing decomposition tiled the domain.
    /// Returns `None` if any cell of the span is uncovered.
    pub fn extract_span(&self, lo: [usize; 3], size: [usize; 3]) -> Option<Vec<f64>> {
        let cells = size[0] * size[1] * size[2];
        let mut out = vec![0.0f64; self.ncomp * cells];
        let mut covered = vec![false; cells];
        for b in &self.blocks {
            let mut ilo = [0usize; 3];
            let mut ihi = [0usize; 3];
            let mut empty = false;
            for d in 0..3 {
                ilo[d] = lo[d].max(b.offset[d]);
                ihi[d] = (lo[d] + size[d]).min(b.offset[d] + b.size[d]);
                empty |= ilo[d] >= ihi[d];
            }
            if empty {
                continue;
            }
            let bcells = b.size[0] * b.size[1] * b.size[2];
            for c in 0..self.ncomp {
                for z in ilo[2]..ihi[2] {
                    for y in ilo[1]..ihi[1] {
                        for x in ilo[0]..ihi[0] {
                            let src = ((c * b.size[2] + (z - b.offset[2])) * b.size[1]
                                + (y - b.offset[1]))
                                * b.size[0]
                                + (x - b.offset[0]);
                            let dst = ((c * size[2] + (z - lo[2])) * size[1] + (y - lo[1]))
                                * size[0]
                                + (x - lo[0]);
                            debug_assert!(
                                src < b.data.len() && b.data.len() == self.ncomp * bcells
                            );
                            out[dst] = b.data[src];
                            if c == 0 {
                                covered[dst] = true;
                            }
                        }
                    }
                }
            }
        }
        covered.iter().all(|&c| c).then_some(out)
    }
}

impl CheckpointFormat for GlobalCheckpoint {
    const VERSION: u32 = 3;
    const EXT: &'static str = "gckp";
    const HEADER_LEN: usize = 7 * 8;

    fn records_len(&self) -> usize {
        self.blocks.iter().map(|b| 56 + b.data.len() * 8).sum()
    }

    fn put(&self, buf: &mut Vec<u8>) {
        buf.put_f64_le(self.time);
        buf.put_u64_le(self.step);
        put_usize3(buf, self.global_n);
        buf.put_u64_le(self.ncomp as u64);
        buf.put_u64_le(self.blocks.len() as u64);
        for b in &self.blocks {
            buf.put_u64_le(b.id);
            put_usize3(buf, b.offset);
            put_usize3(buf, b.size);
            put_f64s(buf, &b.data);
        }
    }

    fn parse(bytes: &mut &[u8]) -> Result<Self, CheckpointError> {
        let time = bytes.get_f64_le();
        let step = bytes.get_u64_le();
        let global_n = get_usize3(bytes);
        let ncomp = bytes.get_u64_le() as usize;
        let nblocks = bytes.get_u64_le() as usize;
        let mut blocks = Vec::with_capacity(nblocks.min(4096));
        for _ in 0..nblocks {
            if bytes.remaining() < 56 {
                return Err(CheckpointError::Format("truncated block header".into()));
            }
            let id = bytes.get_u64_le();
            let offset = get_usize3(bytes);
            let size = get_usize3(bytes);
            let data = get_f64_payload(bytes, ncomp, size)?;
            blocks.push(BlockRecord {
                id,
                offset,
                size,
                data,
            });
        }
        Ok(GlobalCheckpoint {
            time,
            step,
            global_n,
            ncomp,
            blocks,
        })
    }
}

/// One patch of an [`AmrCheckpoint`]: a 1D interval of its level's global
/// cell index space plus the interior conserved data (component-major).
#[derive(Debug, Clone, PartialEq)]
pub struct AmrPatchRecord {
    /// Refinement level (0 = base grid).
    pub level: u32,
    /// First cell of the patch in the level's global index space.
    pub lo: u64,
    /// Interior cell count.
    pub n: u64,
    /// Interior conserved data, component-major (`c * n + i`).
    pub data: Vec<f64>,
}

/// AMR hierarchy checkpoint (format version 4): every patch of every
/// level with its level-global placement. Ghosts, primitives and parent
/// links are reconstructed deterministically on restore, so a restarted
/// run continues bit-identically — asserted by the solver tests.
#[derive(Debug, Clone, PartialEq)]
pub struct AmrCheckpoint {
    /// Simulation time.
    pub time: f64,
    /// Base-level step counter (also fixes the regrid phase).
    pub step: u64,
    /// Base-grid interior cell count.
    pub n0: u64,
    /// Components per cell.
    pub ncomp: usize,
    /// Patches, coarse-to-fine then left-to-right.
    pub patches: Vec<AmrPatchRecord>,
}

impl CheckpointFormat for AmrCheckpoint {
    const VERSION: u32 = 4;
    const EXT: &'static str = "ackp";
    const HEADER_LEN: usize = 5 * 8;

    fn records_len(&self) -> usize {
        self.patches.iter().map(|p| 20 + p.data.len() * 8).sum()
    }

    fn put(&self, buf: &mut Vec<u8>) {
        buf.put_f64_le(self.time);
        buf.put_u64_le(self.step);
        buf.put_u64_le(self.n0);
        buf.put_u64_le(self.ncomp as u64);
        buf.put_u64_le(self.patches.len() as u64);
        for p in &self.patches {
            buf.put_u32_le(p.level);
            buf.put_u64_le(p.lo);
            buf.put_u64_le(p.n);
            put_f64s(buf, &p.data);
        }
    }

    fn parse(bytes: &mut &[u8]) -> Result<Self, CheckpointError> {
        let time = bytes.get_f64_le();
        let step = bytes.get_u64_le();
        let n0 = bytes.get_u64_le();
        let ncomp = bytes.get_u64_le() as usize;
        let npatches = bytes.get_u64_le() as usize;
        let mut patches = Vec::with_capacity(npatches.min(4096));
        for _ in 0..npatches {
            if bytes.remaining() < 20 {
                return Err(CheckpointError::Format("truncated patch header".into()));
            }
            let level = bytes.get_u32_le();
            let lo = bytes.get_u64_le();
            let n = bytes.get_u64_le();
            let data = get_f64_payload(bytes, ncomp, [n as usize, 1, 1])?;
            patches.push(AmrPatchRecord { level, lo, n, data });
        }
        Ok(AmrCheckpoint {
            time,
            step,
            n0,
            ncomp,
            patches,
        })
    }
}

/// Sibling temp path used for atomic writes (`state.ckp` → `state.ckp.tmp`).
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsync the directory containing `path`, making renames into it durable.
///
/// `rename` only updates directory entries; until the directory inode
/// itself is flushed, a crash can lose *both* the slot rotation and the
/// freshly renamed checkpoint even though the file data was fsynced. One
/// directory fsync after the final rename commits every rename performed
/// in that directory. Platforms where directories cannot be opened for
/// sync are tolerated (the open error is swallowed); an actual sync
/// failure on an opened directory is reported.
fn fsync_parent_dir(path: &Path) -> Result<(), CheckpointError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    match std::fs::File::open(parent) {
        Ok(d) => d.sync_all().map_err(CheckpointError::from),
        Err(_) => Ok(()),
    }
}

/// Write a checkpoint file atomically.
///
/// The payload goes to a sibling `<path>.tmp`, is fsynced, and renamed
/// into place. A crash at any point leaves either the old file or the new
/// one — never a torn write under `path` itself.
pub fn save_checkpoint<R: CheckpointFormat>(path: &Path, ckp: &R) -> Result<(), CheckpointError> {
    let bytes = encode(ckp);
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    fsync_parent_dir(path)?;
    Ok(())
}

/// Read a checkpoint file.
pub fn load_checkpoint<R: CheckpointFormat>(path: &Path) -> Result<R, CheckpointError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode(&bytes)
}

/// Rotating two-slot checkpoint store: `latest.<ext>` and `prev.<ext>` in
/// one directory, one pair per format ([`CheckpointFormat::EXT`]). Saving
/// demotes the current `latest` to `prev` before the atomic rename, so
/// even if the new checkpoint is later found corrupted (e.g. media
/// failure after the write), the previous generation is still on disk
/// and [`CheckpointSlots::load_newest`] falls back to it.
#[derive(Debug, Clone)]
pub struct CheckpointSlots {
    dir: PathBuf,
}

impl CheckpointSlots {
    /// Open (and create if missing) a slot directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointSlots { dir })
    }

    /// Path of format `R`'s most recent checkpoint slot.
    pub fn latest_path<R: CheckpointFormat>(&self) -> PathBuf {
        self.dir.join(format!("latest.{}", R::EXT))
    }

    /// Path of format `R`'s previous-generation checkpoint slot.
    pub fn prev_path<R: CheckpointFormat>(&self) -> PathBuf {
        self.dir.join(format!("prev.{}", R::EXT))
    }

    /// Save a checkpoint, rotating `latest` → `prev` first.
    pub fn save<R: CheckpointFormat>(&self, ckp: &R) -> Result<(), CheckpointError> {
        let latest = self.latest_path::<R>();
        if latest.exists() {
            std::fs::rename(&latest, self.prev_path::<R>())?;
        }
        save_checkpoint(&latest, ckp)
    }

    /// Load the newest valid checkpoint: `latest` if it decodes cleanly,
    /// otherwise `prev`. Also reports whether the `prev` slot had to be
    /// used because `latest` was missing, torn, or corrupt — so callers
    /// can count the event in their metrics. When both slots are missing
    /// or corrupt the returned [`CheckpointError::Slots`] carries *both*
    /// per-slot errors.
    pub fn load_newest<R: CheckpointFormat>(&self) -> Result<(R, bool), CheckpointError> {
        let latest_err = match load_checkpoint(&self.latest_path::<R>()) {
            Ok(ckp) => return Ok((ckp, false)),
            Err(e) => e,
        };
        let prev = self.prev_path::<R>();
        match load_checkpoint(&prev) {
            Ok(ckp) => {
                eprintln!(
                    "checkpoint: latest slot unusable ({latest_err}), fell back to {}",
                    prev.display()
                );
                Ok((ckp, true))
            }
            Err(prev_err) => Err(CheckpointError::Slots {
                latest: Box::new(latest_err),
                prev: Box::new(prev_err),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::fnv1a_bytes;
    use std::fmt::Debug;

    /// A format's in-file sample, so one test body runs over all three.
    trait Sample: CheckpointFormat + Clone + PartialEq + Debug {
        fn sample() -> Self;
        fn step_mut(&mut self) -> &mut u64;

        fn at_step(step: u64) -> Self {
            let mut ckp = Self::sample();
            *ckp.step_mut() = step;
            ckp
        }
    }

    /// Run `$body::<R>()` for the three formats.
    macro_rules! for_each_format {
        ($body:ident) => {
            $body::<Checkpoint>();
            $body::<GlobalCheckpoint>();
            $body::<AmrCheckpoint>();
        };
    }

    /// A fresh slot directory for one format of one test.
    fn scratch_dir<R: CheckpointFormat>(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rhrsc-ckp-{test}-{}", R::EXT));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    impl Sample for Checkpoint {
        fn sample() -> Self {
            let geom = PatchGeom::rect([6, 4], [0.0, -1.0], [2.0, 1.0], 3);
            let mut field = Field::cons(geom);
            for (i, v) in field.raw_mut().iter_mut().enumerate() {
                *v = (i as f64).sin() * 1e3;
            }
            Checkpoint {
                time: 0.7251,
                step: 1234,
                field,
            }
        }

        fn step_mut(&mut self) -> &mut u64 {
            &mut self.step
        }
    }

    /// A 2x2-block global checkpoint over a 6x4 interior, 3 components,
    /// with data encoding the global cell coordinate so any re-tiling can
    /// be verified cell by cell.
    impl Sample for GlobalCheckpoint {
        fn sample() -> Self {
            let global_n = [6usize, 4, 1];
            let ncomp = 3usize;
            let val = |c: usize, x: usize, y: usize| (c * 1000 + y * 10 + x) as f64;
            let mut blocks = Vec::new();
            let xs = [(0usize, 3usize), (3, 3)];
            let ys = [(0usize, 2usize), (2, 2)];
            let mut id = 0u64;
            for &(y0, ny) in &ys {
                for &(x0, nx) in &xs {
                    let mut data = Vec::with_capacity(ncomp * nx * ny);
                    for c in 0..ncomp {
                        for y in y0..y0 + ny {
                            for x in x0..x0 + nx {
                                data.push(val(c, x, y));
                            }
                        }
                    }
                    blocks.push(BlockRecord {
                        id,
                        offset: [x0, y0, 0],
                        size: [nx, ny, 1],
                        data,
                    });
                    id += 1;
                }
            }
            GlobalCheckpoint {
                time: 0.375,
                step: 42,
                global_n,
                ncomp,
                blocks,
            }
        }

        fn step_mut(&mut self) -> &mut u64 {
            &mut self.step
        }
    }

    /// A three-level AMR hierarchy with recognizable per-patch data.
    impl Sample for AmrCheckpoint {
        fn sample() -> Self {
            let mk = |level: u32, lo: u64, n: u64| {
                let data = (0..5 * n)
                    .map(|i| (level as u64 * 100_000 + lo * 1000 + i) as f64 * 0.5)
                    .collect();
                AmrPatchRecord { level, lo, n, data }
            };
            AmrCheckpoint {
                time: 0.125,
                step: 17,
                n0: 64,
                ncomp: 5,
                patches: vec![mk(0, 0, 64), mk(1, 20, 24), mk(1, 80, 16), mk(2, 56, 24)],
            }
        }

        fn step_mut(&mut self) -> &mut u64 {
            &mut self.step
        }
    }

    /// The bytes each format wrote before the envelope was shared (hash
    /// and length of the three samples, taken on the three-encoder code),
    /// and a committed v2 file: the refactor moved no byte.
    #[test]
    fn encoded_bytes_match_the_pre_envelope_goldens() {
        fn check<R: Sample>(fnv: u64, len: usize) {
            let bytes = encode(&R::sample());
            assert_eq!(
                (fnv1a_bytes(&bytes), bytes.len()),
                (fnv, len),
                "v{}",
                R::VERSION
            );
        }
        check::<Checkpoint>(0x4d8f81612718f2cf, 4928);
        check::<GlobalCheckpoint>(0x00f179f02956a380, 880);
        check::<AmrCheckpoint>(0x7b153763a3d2d57a, 5264);

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/blast1_mid.ckp");
        let file = std::fs::read(path).unwrap();
        let ckp: Checkpoint = decode(&file).unwrap();
        assert_eq!((file.len(), ckp.step), (16368, 186));
        assert_eq!(encode(&ckp), file);
    }

    #[test]
    fn roundtrip_is_exact() {
        fn body<R: Sample>() {
            let ckp = R::sample();
            assert_eq!(decode::<R>(&encode(&ckp)).unwrap(), ckp);
        }
        for_each_format!(body);
    }

    #[test]
    fn file_roundtrip_is_atomic_over_stale_tmp() {
        // A crash mid-write leaves a garbage `<path>.tmp`. A later save
        // must still succeed, the result must load cleanly, and no tmp
        // file may survive.
        fn body<R: Sample>() {
            let dir = scratch_dir::<R>("atomic");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("state.ckp");
            let tmp = tmp_path(&path);
            std::fs::write(&tmp, b"torn write from a crashed run").unwrap();
            let ckp = R::sample();
            save_checkpoint(&path, &ckp).unwrap();
            assert!(!tmp.exists(), "tmp file must be renamed away");
            assert_eq!(load_checkpoint::<R>(&path).unwrap(), ckp);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        for_each_format!(body);
    }

    #[test]
    fn detects_corruption() {
        fn body<R: Sample>() {
            let mut bytes = encode(&R::sample());
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            assert!(matches!(decode::<R>(&bytes), Err(CheckpointError::Corrupt)));
        }
        for_each_format!(body);
    }

    #[test]
    fn detects_truncation() {
        // A cut anywhere behind the fixed header fails the whole-file
        // CRC — the error class whose doc names truncation.
        fn body<R: Sample>() {
            let bytes = encode(&R::sample());
            for cut in [1, 3, 5, 9] {
                assert!(matches!(
                    decode::<R>(&bytes[..bytes.len() - cut]),
                    Err(CheckpointError::Corrupt)
                ));
            }
        }
        for_each_format!(body);
    }

    #[test]
    fn rejects_garbage() {
        fn body<R: Sample>() {
            assert!(matches!(
                decode::<R>(b"not a checkpoint at all"),
                Err(CheckpointError::Format(_))
            ));
        }
        for_each_format!(body);
    }

    #[test]
    fn rejects_wrong_version() {
        fn body<R: Sample>() {
            let mut bytes = encode(&R::sample());
            bytes[8] = 99; // version field LE low byte
            assert!(matches!(
                decode::<R>(&bytes),
                Err(CheckpointError::Format(_))
            ));
        }
        for_each_format!(body);
        // The version field tells the formats apart: no decoder accepts
        // another format's file.
        let (rank, global, amr) = (
            encode(&Checkpoint::sample()),
            encode(&GlobalCheckpoint::sample()),
            encode(&AmrCheckpoint::sample()),
        );
        for foreign in [&global, &amr] {
            assert!(matches!(
                decode::<Checkpoint>(foreign),
                Err(CheckpointError::Format(_))
            ));
        }
        for foreign in [&rank, &amr] {
            assert!(matches!(
                decode::<GlobalCheckpoint>(foreign),
                Err(CheckpointError::Format(_))
            ));
        }
        for foreign in [&rank, &global] {
            assert!(matches!(
                decode::<AmrCheckpoint>(foreign),
                Err(CheckpointError::Format(_))
            ));
        }
    }

    #[test]
    fn detects_header_corruption() {
        // A bit flip in the `time` field is invisible to the record FNV;
        // the whole-file CRC must catch it.
        fn body<R: Sample>() {
            let mut bytes = encode(&R::sample());
            bytes[12] ^= 0x01; // low byte of `time`
            assert!(matches!(decode::<R>(&bytes), Err(CheckpointError::Corrupt)));
        }
        for_each_format!(body);
    }

    #[test]
    fn slots_rotate_and_fall_back() {
        fn body<R: Sample>() {
            let dir = scratch_dir::<R>("slots");
            let slots = CheckpointSlots::new(&dir).unwrap();
            let (latest, prev) = (slots.latest_path::<R>(), slots.prev_path::<R>());
            assert_eq!(
                latest.file_name().unwrap().to_str().unwrap(),
                format!("latest.{}", R::EXT)
            );
            assert_eq!(
                prev.file_name().unwrap().to_str().unwrap(),
                format!("prev.{}", R::EXT)
            );

            // Nothing saved yet: load must fail.
            assert!(slots.load_newest::<R>().is_err());

            let a = R::at_step(1);
            slots.save(&a).unwrap();
            assert_eq!(slots.load_newest::<R>().unwrap(), (a.clone(), false));
            assert!(!prev.exists());

            let b = R::at_step(2);
            slots.save(&b).unwrap();
            assert_eq!(slots.load_newest::<R>().unwrap(), (b, false));
            // First generation rotated into prev.
            assert_eq!(load_checkpoint::<R>(&prev).unwrap(), a);

            // Corrupt latest: load_newest must fall back to prev.
            let mut bytes = std::fs::read(&latest).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&latest, &bytes).unwrap();
            assert_eq!(slots.load_newest::<R>().unwrap(), (a, true));

            // Corrupt prev too: now everything is gone.
            std::fs::write(&prev, b"junk").unwrap();
            assert!(slots.load_newest::<R>().is_err());
            std::fs::remove_dir_all(&dir).unwrap();
        }
        for_each_format!(body);
    }

    #[test]
    fn special_values_roundtrip() {
        let geom = PatchGeom::line(4, 0.0, 1.0, 1);
        let mut field = Field::new(geom, 1);
        field.raw_mut()[0] = f64::MIN_POSITIVE;
        field.raw_mut()[1] = -0.0;
        field.raw_mut()[2] = 1e308;
        field.raw_mut()[3] = 5e-324; // subnormal
        let ckp = Checkpoint {
            time: 0.0,
            step: 0,
            field,
        };
        let out: Checkpoint = decode(&encode(&ckp)).unwrap();
        assert_eq!(out.field.raw(), ckp.field.raw());
        assert!(out.field.raw()[1].is_sign_negative());
    }

    #[test]
    fn torn_write_falls_back_to_prev() {
        // Simulate a crash that tore the write mid-footer: `latest` ends
        // up truncated inside its CRC trailer (by one byte, as a crash
        // during a media flush would leave it, or by two). The loader
        // must recover `prev` and report that it did so.
        fn body<R: Sample>() {
            for cut in [1, 2] {
                let dir = scratch_dir::<R>("torn");
                let slots = CheckpointSlots::new(&dir).unwrap();
                let a = R::at_step(10);
                slots.save(&a).unwrap();
                slots.save(&R::at_step(11)).unwrap();

                let latest = slots.latest_path::<R>();
                let bytes = std::fs::read(&latest).unwrap();
                std::fs::write(&latest, &bytes[..bytes.len() - cut]).unwrap();

                let (ckp, fell_back) = slots.load_newest::<R>().unwrap();
                assert!(fell_back, "truncated latest must trigger prev fallback");
                assert_eq!(ckp, a);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
        for_each_format!(body);
    }

    #[test]
    fn crc_corruption_falls_back_to_prev() {
        // Distinct failure mode from truncation: the file has the right
        // length but a flipped bit in the payload, caught by the CRC.
        fn body<R: Sample>() {
            let dir = scratch_dir::<R>("crcfall");
            let slots = CheckpointSlots::new(&dir).unwrap();
            let a = R::at_step(20);
            slots.save(&a).unwrap();
            let b = R::at_step(21);
            slots.save(&b).unwrap();

            let latest = slots.latest_path::<R>();
            let mut bytes = std::fs::read(&latest).unwrap();
            let mid = bytes.len() / 3;
            bytes[mid] ^= 0x40;
            std::fs::write(&latest, &bytes).unwrap();

            let (ckp, fell_back) = slots.load_newest::<R>().unwrap();
            assert!(fell_back, "corrupt latest must trigger prev fallback");
            assert_eq!(ckp, a);
            // The intact path must NOT report a fallback.
            slots.save(&b).unwrap(); // rotates the corrupt file away
            let (_, fell_back) = slots.load_newest::<R>().unwrap();
            assert!(!fell_back);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        for_each_format!(body);
    }

    #[test]
    fn four_block_checkpoint_restores_onto_three_ranks() {
        // Written by a 4-rank (2x2) decomposition; restored onto a 3-rank
        // (3x1) decomposition whose spans cut straight across the old
        // block boundaries. Every cell must land where the global
        // coordinate says it belongs.
        let ckp: GlobalCheckpoint = decode(&encode(&GlobalCheckpoint::sample())).unwrap();
        let val = |c: usize, x: usize, y: usize| (c * 1000 + y * 10 + x) as f64;
        let spans = [
            ([0usize, 0, 0], [2usize, 4, 1]),
            ([2, 0, 0], [2, 4, 1]),
            ([4, 0, 0], [2, 4, 1]),
        ];
        for (lo, size) in spans {
            let data = ckp.extract_span(lo, size).expect("span must be covered");
            assert_eq!(data.len(), ckp.ncomp * size[0] * size[1] * size[2]);
            for c in 0..ckp.ncomp {
                for y in 0..size[1] {
                    for x in 0..size[0] {
                        let got = data[(c * size[1] + y) * size[0] + x];
                        assert_eq!(got, val(c, lo[0] + x, lo[1] + y));
                    }
                }
            }
        }
        // A span poking outside the covered region must report a gap.
        assert!(ckp.extract_span([4, 0, 0], [3, 4, 1]).is_none());
    }

    #[test]
    fn both_slots_failing_surfaces_both_errors() {
        fn body<R: Sample>() {
            let dir = scratch_dir::<R>("both-slots");
            let slots = CheckpointSlots::new(&dir).unwrap();

            // Empty directory: both slots are missing → two Io errors,
            // each attributed to its slot.
            match slots.load_newest::<R>() {
                Err(CheckpointError::Slots { latest, prev }) => {
                    assert!(matches!(*latest, CheckpointError::Io(_)));
                    assert!(matches!(*prev, CheckpointError::Io(_)));
                }
                other => panic!("expected Slots error, got {other:?}"),
            }

            // Corrupt latest + missing prev: the error classes differ and
            // both must survive into the combined error (and its message).
            slots.save(&R::sample()).unwrap();
            let latest = slots.latest_path::<R>();
            let mut bytes = std::fs::read(&latest).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&latest, &bytes).unwrap();
            match slots.load_newest::<R>() {
                Err(err @ CheckpointError::Slots { .. }) => {
                    let msg = format!("{err}");
                    assert!(msg.contains("latest slot"), "message was: {msg}");
                    assert!(msg.contains("prev slot"), "message was: {msg}");
                    if let CheckpointError::Slots { latest, prev } = err {
                        assert!(matches!(*latest, CheckpointError::Corrupt));
                        assert!(matches!(*prev, CheckpointError::Io(_)));
                    }
                }
                other => panic!("expected Slots error, got {other:?}"),
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
        for_each_format!(body);
    }

    #[test]
    fn trusted_decoder_matches_full_decoder_on_clean_bytes() {
        fn body<R: Sample>() {
            let bytes = encode(&R::sample());
            assert_eq!(
                decode_trusted::<R>(&bytes).unwrap(),
                decode::<R>(&bytes).unwrap()
            );
        }
        for_each_format!(body);
    }

    /// Recompute the whole-file CRC of a hand-edited image (the record
    /// FNV does not cover the header, so header edits need only this).
    fn restamp_crc(bytes: &mut [u8]) {
        let at = bytes.len() - 4;
        let crc = crc32(&bytes[..at]);
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Both decoders must refuse `bytes` — a file whose armor is valid
    /// but whose sizes lie — as malformed, in debug and release builds.
    fn assert_oversized<R: Sample>(bytes: &[u8]) {
        for decoded in [decode::<R>(bytes), decode_trusted::<R>(bytes)] {
            assert!(
                matches!(&decoded, Err(CheckpointError::Format(m)) if m.contains("exceeds")),
                "v{}: got {decoded:?}",
                R::VERSION
            );
        }
    }

    #[test]
    fn rank_geometry_whose_cell_count_overflows_is_a_format_error() {
        // n = [2^32, 2^32, 1]: the ghost-inclusive cell count wraps.
        let mut bytes = encode(&Checkpoint::sample());
        let n_at = PREFIX_LEN + 16;
        bytes[n_at..n_at + 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        bytes[n_at + 8..n_at + 16].copy_from_slice(&(1u64 << 32).to_le_bytes());
        restamp_crc(&mut bytes);
        assert_oversized::<Checkpoint>(&bytes);
        // A ghost width that overflows `n + 2 ng` on its own.
        let mut bytes = encode(&Checkpoint::sample());
        let ng_at = PREFIX_LEN + 16 + 24;
        bytes[ng_at..ng_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        restamp_crc(&mut bytes);
        assert_oversized::<Checkpoint>(&bytes);
    }

    #[test]
    fn global_block_whose_byte_count_overflows_is_a_format_error() {
        // 2^61 cells × 8 bytes wraps to zero, which "fits" an empty
        // record: the unchecked decoder returned a block claiming 2^61
        // cells over no data.
        let mut ckp = GlobalCheckpoint::sample();
        ckp.blocks.truncate(1);
        ckp.blocks[0].size = [1 << 61, 1, 1];
        ckp.blocks[0].data.clear();
        assert_oversized::<GlobalCheckpoint>(&encode(&ckp));
        // Honest arithmetic, but more cells than the file holds.
        ckp.blocks[0].size = [1 << 20, 1, 1];
        assert_oversized::<GlobalCheckpoint>(&encode(&ckp));
    }

    #[test]
    fn amr_patch_whose_byte_count_overflows_is_a_format_error() {
        let mut ckp = AmrCheckpoint::sample();
        ckp.patches.truncate(1);
        ckp.patches[0].n = 1 << 61;
        ckp.patches[0].data.clear();
        assert_oversized::<AmrCheckpoint>(&encode(&ckp));
    }
}
