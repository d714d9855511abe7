//! Binary checkpoint/restart.
//!
//! One format in one little-endian envelope:
//!
//! ```text
//! magic   "RHRSCCKP"   8 bytes
//! version u32          4 (always 3)
//! header  time f64, step u64, global_n[3] u64, ncomp u64, nblocks u64
//! records per block: id u32, level u32, offset[3] u64, size[3] u64,
//!         interior data (component-major within the block)
//! fnv     u64          FNV-1a over the record section
//! crc32   u32          CRC-32 over every preceding byte, header included
//! ```
//!
//! A [`GlobalCheckpoint`] is a list of [`BlockRecord`]s, each an
//! axis-aligned box of its refinement level's global interior index
//! space. Every writer fills the same record:
//!
//! | writer | blocks | slot files |
//! |---|---|---|
//! | block driver, disk tier | one per block of the decomposition, level 0 | `<dir>/global/{latest,prev}.gckp` |
//! | block driver, memory tier | the rank's own block | — |
//! | distributed AMR, both tiers | one per patch ([`AmrCheckpoint::into_image`]): `[lo, lo + n) × 1 × 1` on its level, `global_n = [n0, 1, 1]` | `<dir>/{latest,prev}.gckp` |
//! | a single-patch run | one block, the whole interior | caller's path |
//!
//! `id` and `level` split what was once one little-endian `u64` id word,
//! so a block image written before records had a level decodes as level
//! 0 and re-encodes to the same bytes. Any other version tag is refused
//! as unsupported.
//!
//! A decoder checks, in this order: magic, version and minimum length
//! ([`CheckpointError::Format`]), the whole-file CRC
//! ([`CheckpointError::Corrupt`]), the structure of header and records
//! (`Format` — every size read from the file is multiplied checked and
//! bounded by the bytes that are left before anything is allocated), the
//! record FNV (`Corrupt`).
//!
//! The memory tier writes the same envelope with [`encode_trusted`],
//! whose footer is zeroed (same length, so every shipped byte count is
//! the disk image's), and reads it with [`decode_trusted`], which parses
//! without either integrity pass: those images live behind
//! [`crate::MemorySnapshot`]'s stamp over every byte, the only armor they
//! carry. Both hashes are `rhrsc_runtime::hash`'s: the CRC-32 runs
//! slicing-by-8, the record FNV stays bytewise, as the format defines it.
//!
//! Writes are atomic: the payload goes to a sibling temp file which is
//! fsynced and renamed into place, so a crash mid-write can never leave a
//! file that [`load_checkpoint`] accepts — at worst a stale `*.tmp`,
//! which the loaders ignore. [`CheckpointSlots`] adds a `latest`/`prev`
//! rotation on top, so one torn or corrupted checkpoint still leaves a
//! valid restart point.

use bytes::{Buf, BufMut};
use rhrsc_runtime::hash::{crc32, fnv1a};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"RHRSCCKP";
/// The version tag written after the magic.
const VERSION: u32 = 3;
/// Bytes ahead of the header: magic and version.
const PREFIX_LEN: usize = 12;
/// Bytes of the fixed header, and of each block record's own header.
const HEADER_LEN: usize = 7 * 8;
/// Bytes behind the records: FNV and CRC-32.
const FOOTER_LEN: usize = 12;

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

/// One block of a [`GlobalCheckpoint`]: an axis-aligned box of its
/// level's global interior index space, keyed by the writer's block id.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockRecord {
    /// Block id in the decomposition (or hierarchy) that wrote it.
    pub id: u32,
    /// Refinement level (0 = base grid) whose index space `offset` and
    /// `size` are in.
    pub level: u32,
    /// Global index of the block's first interior cell, per axis.
    pub offset: [usize; 3],
    /// Interior extent of the block, per axis.
    pub size: [usize; 3],
    /// Interior cell data, component-major within the block
    /// (`((c*nz + z)*ny + y)*nx + x`).
    pub data: Vec<f64>,
}

/// The one checkpoint image: global interior state stored as blocks,
/// each with its level, global offset and extent. Because every value is
/// addressed in *global* index space, the state can be restored onto any
/// decomposition — in particular onto fewer ranks after a shrinking
/// recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalCheckpoint {
    /// Simulation time.
    pub time: f64,
    /// Step counter.
    pub step: u64,
    /// Global interior extent of the base level.
    pub global_n: [usize; 3],
    /// Components per cell.
    pub ncomp: usize,
    /// The blocks, in writing order.
    pub blocks: Vec<BlockRecord>,
}

impl GlobalCheckpoint {
    /// Extract the component-major data of the base-level interior span
    /// `[lo, lo + size)` by intersecting whatever level-0 blocks cover it
    /// — regardless of how the writing decomposition tiled the domain —
    /// one x-row copy at a time. Returns `None` if any cell of the span
    /// is uncovered: coverage is tracked per cell, because a malformed
    /// file may hold overlapping blocks whose volumes would add up to the
    /// span's around a gap.
    pub fn extract_span(&self, lo: [usize; 3], size: [usize; 3]) -> Option<Vec<f64>> {
        let cells = size[0] * size[1] * size[2];
        let mut out = vec![0.0f64; self.ncomp * cells];
        let mut covered = vec![false; cells];
        for b in self.blocks.iter().filter(|b| b.level == 0) {
            let ilo = [0, 1, 2].map(|d| lo[d].max(b.offset[d]));
            let ihi =
                [0, 1, 2].map(|d| (lo[d] + size[d]).min(b.offset[d].saturating_add(b.size[d])));
            if (0..3).any(|d| ilo[d] >= ihi[d]) {
                continue;
            }
            let nx = ihi[0] - ilo[0];
            for c in 0..self.ncomp {
                for z in ilo[2]..ihi[2] {
                    for y in ilo[1]..ihi[1] {
                        let src = ((c * b.size[2] + z - b.offset[2]) * b.size[1] + y - b.offset[1])
                            * b.size[0]
                            + ilo[0]
                            - b.offset[0];
                        let at = ((z - lo[2]) * size[1] + y - lo[1]) * size[0] + ilo[0] - lo[0];
                        let dst = c * cells + at;
                        out[dst..dst + nx].copy_from_slice(&b.data[src..src + nx]);
                        if c == 0 {
                            covered[at..at + nx].fill(true);
                        }
                    }
                }
            }
        }
        covered.iter().all(|&c| c).then_some(out)
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

/// An in-memory view of a 1D AMR hierarchy: every patch of every level
/// with its level-global placement. On disk and in the memory tier it is
/// a [`GlobalCheckpoint`] whose blocks are the patches
/// ([`AmrCheckpoint::into_image`], [`AmrCheckpoint::from_image`]).
/// Ghosts, primitives and parent links are reconstructed
/// deterministically on restore, so a restarted run continues
/// bit-identically — asserted by the solver tests.
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

impl AmrCheckpoint {
    /// The image of this hierarchy: patch `i` becomes block `i` on its
    /// level, the box `[lo, lo + n) × 1 × 1`.
    pub fn into_image(self) -> GlobalCheckpoint {
        let blocks = self.patches.into_iter().enumerate();
        GlobalCheckpoint {
            time: self.time,
            step: self.step,
            global_n: [self.n0 as usize, 1, 1],
            ncomp: self.ncomp,
            blocks: blocks
                .map(|(i, p)| BlockRecord {
                    id: i as u32,
                    level: p.level,
                    offset: [p.lo as usize, 0, 0],
                    size: [p.n as usize, 1, 1],
                    data: p.data,
                })
                .collect(),
        }
    }

    /// The hierarchy an image holds, in block order. An image that is not
    /// 1D — a transverse base extent, offset or size other than `1`, `0`,
    /// `1` — is a [`CheckpointError::Format`].
    pub fn from_image(img: GlobalCheckpoint) -> Result<Self, CheckpointError> {
        let one_d =
            |offset: [usize; 3], size: [usize; 3]| offset[1..] == [0, 0] && size[1..] == [1, 1];
        if !one_d([0; 3], img.global_n) || !img.blocks.iter().all(|b| one_d(b.offset, b.size)) {
            return Err(CheckpointError::Format("not a 1D AMR image".into()));
        }
        let patches = img.blocks.into_iter().map(|b| AmrPatchRecord {
            level: b.level,
            lo: b.offset[0] as u64,
            n: b.size[0] as u64,
            data: b.data,
        });
        Ok(AmrCheckpoint {
            time: img.time,
            step: img.step,
            n0: img.global_n[0] as u64,
            ncomp: img.ncomp,
            patches: patches.collect(),
        })
    }
}

/// Serialize a checkpoint to bytes, with the disk tier's armor: the
/// record FNV and the whole-file CRC-32.
pub fn encode(ckp: &GlobalCheckpoint) -> Vec<u8> {
    encode_with(ckp, Checks::Full)
}

/// Like [`encode`] but with the 12-byte footer zeroed: the same bytes
/// before it, and the same length. For an image that only
/// [`decode_trusted`] reads, behind an external stamp over every byte
/// ([`crate::MemorySnapshot`]): nothing would ever check its FNV or CRC,
/// so neither pass is paid. [`decode`] refuses it as
/// [`CheckpointError::Corrupt`].
pub fn encode_trusted(ckp: &GlobalCheckpoint) -> Vec<u8> {
    encode_with(ckp, Checks::Trusted)
}

fn encode_with(ckp: &GlobalCheckpoint, checks: Checks) -> Vec<u8> {
    let records_at = PREFIX_LEN + HEADER_LEN;
    let records: usize = ckp
        .blocks
        .iter()
        .map(|b| HEADER_LEN + b.data.len() * 8)
        .sum();
    let mut buf = Vec::with_capacity(records_at + records + FOOTER_LEN);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_f64_le(ckp.time);
    buf.put_u64_le(ckp.step);
    put_usize3(&mut buf, ckp.global_n);
    buf.put_u64_le(ckp.ncomp as u64);
    buf.put_u64_le(ckp.blocks.len() as u64);
    for b in &ckp.blocks {
        buf.put_u32_le(b.id);
        buf.put_u32_le(b.level);
        put_usize3(&mut buf, b.offset);
        put_usize3(&mut buf, b.size);
        let at = buf.len();
        buf.resize(at + 8 * b.data.len(), 0);
        for (word, x) in buf[at..].chunks_exact_mut(8).zip(&b.data) {
            word.copy_from_slice(&x.to_le_bytes());
        }
    }
    if checks == Checks::Trusted {
        buf.resize(buf.len() + FOOTER_LEN, 0);
        return buf;
    }
    let fnv = fnv1a(&buf[records_at..]);
    buf.put_u64_le(fnv);
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf
}

/// Integrity passes an encoder writes and a decoder runs before trusting
/// the bytes.
///
/// * [`Checks::Full`] — whole-file CRC-32 plus the record FNV: the disk
///   tier, where torn writes and media rot are real.
/// * [`Checks::Trusted`] — a zeroed footer on write, pure parsing on
///   read: the reader has just re-hashed the *entire* buffer against an
///   external stamp (e.g. [`crate::MemorySnapshot::verify`], which
///   covers every byte including the header — strictly stronger than
///   the record FNV), so either armor pass would verify the same bits
///   twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Checks {
    Full,
    Trusted,
}

/// Deserialize a checkpoint from bytes, with every integrity pass.
pub fn decode(bytes: &[u8]) -> Result<GlobalCheckpoint, CheckpointError> {
    decode_with(bytes, Checks::Full)
}

/// Like [`decode`] but with *both* integrity passes (CRC-32 and the
/// record FNV) skipped: pure parsing, with every structural check still
/// in force. Sound **only** when the caller has just re-hashed the entire
/// byte buffer against an external stamp —
/// [`crate::MemorySnapshot::verify`] covers every byte including the
/// header, which is strictly stronger than the record FNV — so running
/// either armor pass again would verify the same bits twice. This is
/// what makes the diskless restore tier cheap: one lane-hash pass plus
/// parsing, against the disk tier's read + bytewise FNV + CRC. The
/// images it is meant for are written by [`encode_trusted`].
pub fn decode_trusted(bytes: &[u8]) -> Result<GlobalCheckpoint, CheckpointError> {
    decode_with(bytes, Checks::Trusted)
}

fn decode_with(bytes: &[u8], checks: Checks) -> Result<GlobalCheckpoint, CheckpointError> {
    if bytes.len() < PREFIX_LEN || &bytes[..8] != MAGIC {
        return Err(CheckpointError::Format("missing magic".into()));
    }
    let version = (&bytes[8..]).get_u32_le();
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version} (this decoder reads version {VERSION})"
        )));
    }
    if bytes.len() < PREFIX_LEN + HEADER_LEN + FOOTER_LEN {
        return Err(CheckpointError::Format("truncated header".into()));
    }
    // Whole-file CRC first: a bit flip anywhere is fatal to a restart,
    // and the record FNV cannot see the header.
    let (armored, mut crc) = bytes.split_at(bytes.len() - 4);
    if checks == Checks::Full && crc32(armored) != crc.get_u32_le() {
        return Err(CheckpointError::Corrupt);
    }
    let (mut body, mut fnv) = armored[PREFIX_LEN..].split_at(armored.len() - PREFIX_LEN - 8);
    let records = &body[HEADER_LEN..];
    let time = body.get_f64_le();
    let step = body.get_u64_le();
    let global_n = get_usize3(&mut body);
    let ncomp = body.get_u64_le() as usize;
    let nblocks = body.get_u64_le() as usize;
    let mut blocks = Vec::with_capacity(nblocks.min(4096));
    for _ in 0..nblocks {
        if body.remaining() < HEADER_LEN {
            return Err(CheckpointError::Format("truncated block header".into()));
        }
        let id = body.get_u32_le();
        let level = body.get_u32_le();
        let offset = get_usize3(&mut body);
        let size = get_usize3(&mut body);
        let data = get_f64_payload(&mut body, ncomp, size)?;
        blocks.push(BlockRecord {
            id,
            level,
            offset,
            size,
            data,
        });
    }
    if !body.is_empty() {
        return Err(CheckpointError::Format("trailing bytes".into()));
    }
    if checks == Checks::Full && fnv1a(records) != fnv.get_u64_le() {
        return Err(CheckpointError::Corrupt);
    }
    Ok(GlobalCheckpoint {
        time,
        step,
        global_n,
        ncomp,
        blocks,
    })
}

fn put_usize3(buf: &mut Vec<u8>, v: [usize; 3]) {
    for x in v {
        buf.put_u64_le(x as u64);
    }
}

fn get_usize3(bytes: &mut &[u8]) -> [usize; 3] {
    [(); 3].map(|()| bytes.get_u64_le() as usize)
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
        .ok_or_else(|| CheckpointError::Format("record size exceeds the file".into()))?;
    let (head, rest) = bytes.split_at(nbytes);
    *bytes = rest;
    Ok(head
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks of 8")))
        .collect())
}

/// Sibling temp path used for atomic writes (`state.gckp` → `state.gckp.tmp`).
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
pub fn save_checkpoint(path: &Path, ckp: &GlobalCheckpoint) -> Result<(), CheckpointError> {
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
pub fn load_checkpoint(path: &Path) -> Result<GlobalCheckpoint, CheckpointError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode(&bytes)
}

/// Rotating two-slot checkpoint store: `latest.gckp` and `prev.gckp` in
/// one directory. Saving demotes the current `latest` to `prev` before
/// the atomic rename, so even if the new checkpoint is later found
/// corrupted (e.g. media failure after the write), the previous
/// generation is still on disk and [`CheckpointSlots::load_newest`]
/// falls back to it.
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

    /// Path of the most recent checkpoint slot.
    pub fn latest_path(&self) -> PathBuf {
        self.dir.join("latest.gckp")
    }

    /// Path of the previous-generation checkpoint slot.
    pub fn prev_path(&self) -> PathBuf {
        self.dir.join("prev.gckp")
    }

    /// Save a checkpoint, rotating `latest` → `prev` first.
    pub fn save(&self, ckp: &GlobalCheckpoint) -> Result<(), CheckpointError> {
        let latest = self.latest_path();
        if latest.exists() {
            std::fs::rename(&latest, self.prev_path())?;
        }
        save_checkpoint(&latest, ckp)
    }

    /// Load the newest valid checkpoint: `latest` if it decodes cleanly,
    /// otherwise `prev`. Also reports whether the `prev` slot had to be
    /// used because `latest` was missing, torn, or corrupt — so callers
    /// can count the event in their metrics. When both slots are missing
    /// or corrupt the returned [`CheckpointError::Slots`] carries *both*
    /// per-slot errors.
    pub fn load_newest(&self) -> Result<(GlobalCheckpoint, bool), CheckpointError> {
        let latest_err = match load_checkpoint(&self.latest_path()) {
            Ok(ckp) => return Ok((ckp, false)),
            Err(e) => e,
        };
        let prev = self.prev_path();
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

    /// Word-wise FNV-style hash over a byte slice, tail bytes zero-padded
    /// into one final word: what the golden pins below were taken with.
    fn fnv1a_bytes(data: &[u8]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for c in data.chunks(8) {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            h ^= u64::from_le_bytes(w);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// A 2x2-block image over a 6x4 interior, 3 components, with data
    /// encoding the global cell coordinate so any re-tiling can be
    /// verified cell by cell.
    fn block_sample() -> GlobalCheckpoint {
        let global_n = [6usize, 4, 1];
        let ncomp = 3usize;
        let val = |c: usize, x: usize, y: usize| (c * 1000 + y * 10 + x) as f64;
        let mut blocks = Vec::new();
        let xs = [(0usize, 3usize), (3, 3)];
        let ys = [(0usize, 2usize), (2, 2)];
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
                    id: blocks.len() as u32,
                    level: 0,
                    offset: [x0, y0, 0],
                    size: [nx, ny, 1],
                    data,
                });
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

    /// A three-level AMR hierarchy with recognizable per-patch data.
    fn amr_sample() -> AmrCheckpoint {
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

    /// The two samples every codec test runs over: a level-0 block image
    /// and a multi-level AMR image.
    fn samples() -> [GlobalCheckpoint; 2] {
        [block_sample(), amr_sample().into_image()]
    }

    /// `ckp` with another step, to tell slot generations apart.
    fn at_step(ckp: &GlobalCheckpoint, step: u64) -> GlobalCheckpoint {
        GlobalCheckpoint {
            step,
            ..ckp.clone()
        }
    }

    /// A fresh slot directory for one sample of one test.
    fn scratch_dir(test: &str, k: usize) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rhrsc-ckp-{test}-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The block image's bytes have not moved since the block record had
    /// a one-word `u64` id (hash and length of the sample, taken on that
    /// code); the AMR image is pinned beside it, and so is the committed
    /// single-patch file the `checkpoint_restart` example writes.
    #[test]
    fn encoded_bytes_match_the_goldens() {
        let pin = |ckp: &GlobalCheckpoint| {
            let bytes = encode(ckp);
            (fnv1a_bytes(&bytes), bytes.len())
        };
        assert_eq!(pin(&block_sample()), (0x00f179f02956a380, 880));
        assert_eq!(pin(&amr_sample().into_image()), (0x5f0c4374c60b327a, 5424));

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/blast1_mid.ckp");
        let file = std::fs::read(path).unwrap();
        let ckp = decode(&file).unwrap();
        assert_eq!((file.len(), ckp.step), (16136, 186));
        assert_eq!(encode(&ckp), file);
    }

    #[test]
    fn roundtrip_is_exact() {
        for ckp in samples() {
            assert_eq!(decode(&encode(&ckp)).unwrap(), ckp);
        }
        let amr = amr_sample();
        let back = AmrCheckpoint::from_image(decode(&encode(&amr.clone().into_image())).unwrap());
        assert_eq!(back.unwrap(), amr);
    }

    #[test]
    fn a_block_above_level_zero_roundtrips() {
        let mut ckp = block_sample();
        for (b, level) in ckp.blocks.iter_mut().zip([1, 2, 7, u32::MAX]) {
            b.level = level;
        }
        assert_eq!(decode(&encode(&ckp)).unwrap(), ckp);
    }

    #[test]
    fn from_image_rejects_every_non_1d_shape() {
        let base = amr_sample().into_image();
        let edits: [fn(&mut GlobalCheckpoint); 6] = [
            |g| g.global_n[1] = 2,
            |g| g.global_n[2] = 0,
            |g| g.blocks[1].offset[1] = 1,
            |g| g.blocks[2].offset[2] = 3,
            |g| g.blocks[3].size = [12, 2, 1],
            |g| g.blocks[0].size = [32, 1, 2],
        ];
        for (k, edit) in edits.iter().enumerate() {
            let mut img = base.clone();
            edit(&mut img);
            // The image itself is well-formed (each edit keeps the cell
            // count): only the view refuses it.
            let img = decode(&encode(&img)).unwrap();
            assert!(
                matches!(
                    AmrCheckpoint::from_image(img),
                    Err(CheckpointError::Format(_))
                ),
                "edit {k}"
            );
        }
    }

    #[test]
    fn file_roundtrip_is_atomic_over_stale_tmp() {
        // A crash mid-write leaves a garbage `<path>.tmp`. A later save
        // must still succeed, the result must load cleanly, and no tmp
        // file may survive.
        for (k, ckp) in samples().into_iter().enumerate() {
            let dir = scratch_dir("atomic", k);
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("state.gckp");
            let tmp = tmp_path(&path);
            std::fs::write(&tmp, b"torn write from a crashed run").unwrap();
            save_checkpoint(&path, &ckp).unwrap();
            assert!(!tmp.exists(), "tmp file must be renamed away");
            assert_eq!(load_checkpoint(&path).unwrap(), ckp);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn detects_corruption() {
        for ckp in samples() {
            let mut bytes = encode(&ckp);
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            assert!(matches!(decode(&bytes), Err(CheckpointError::Corrupt)));
        }
    }

    #[test]
    fn detects_truncation() {
        // A cut anywhere behind the fixed header fails the whole-file
        // CRC — the error class whose doc names truncation.
        for ckp in samples() {
            let bytes = encode(&ckp);
            for cut in [1, 3, 5, 9] {
                assert!(matches!(
                    decode(&bytes[..bytes.len() - cut]),
                    Err(CheckpointError::Corrupt)
                ));
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            decode(b"not a checkpoint at all"),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn rejects_every_other_version() {
        // The retired tags (the ghost-inclusive field, the AMR codec) and
        // an unknown one, each re-stamped so only the tag is wrong.
        for ckp in samples() {
            for tag in [2u8, 4, 99] {
                let mut bytes = encode(&ckp);
                bytes[8] = tag; // version field LE low byte
                restamp_crc(&mut bytes);
                for decoded in [decode(&bytes), decode_trusted(&bytes)] {
                    assert!(
                        matches!(&decoded, Err(CheckpointError::Format(m)) if m.contains("unsupported version")),
                        "tag {tag}: got {decoded:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn detects_header_corruption() {
        // A bit flip in the `time` field is invisible to the record FNV;
        // the whole-file CRC must catch it.
        for ckp in samples() {
            let mut bytes = encode(&ckp);
            bytes[12] ^= 0x01; // low byte of `time`
            assert!(matches!(decode(&bytes), Err(CheckpointError::Corrupt)));
        }
    }

    #[test]
    fn slots_rotate_and_fall_back() {
        for (k, ckp) in samples().into_iter().enumerate() {
            let dir = scratch_dir("slots", k);
            let slots = CheckpointSlots::new(&dir).unwrap();
            let (latest, prev) = (slots.latest_path(), slots.prev_path());
            assert_eq!(latest.file_name().unwrap(), "latest.gckp");
            assert_eq!(prev.file_name().unwrap(), "prev.gckp");

            // Nothing saved yet: load must fail.
            assert!(slots.load_newest().is_err());

            let a = at_step(&ckp, 1);
            slots.save(&a).unwrap();
            assert_eq!(slots.load_newest().unwrap(), (a.clone(), false));
            assert!(!prev.exists());

            let b = at_step(&ckp, 2);
            slots.save(&b).unwrap();
            assert_eq!(slots.load_newest().unwrap(), (b, false));
            // First generation rotated into prev.
            assert_eq!(load_checkpoint(&prev).unwrap(), a);

            // Corrupt latest: load_newest must fall back to prev.
            let mut bytes = std::fs::read(&latest).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&latest, &bytes).unwrap();
            assert_eq!(slots.load_newest().unwrap(), (a, true));

            // Corrupt prev too: now everything is gone.
            std::fs::write(&prev, b"junk").unwrap();
            assert!(slots.load_newest().is_err());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn special_values_roundtrip() {
        let mut ckp = block_sample();
        let data = &mut ckp.blocks[0].data;
        data[..4].copy_from_slice(&[f64::MIN_POSITIVE, -0.0, 1e308, 5e-324]);
        let out = decode(&encode(&ckp)).unwrap();
        assert_eq!(out, ckp);
        assert!(out.blocks[0].data[1].is_sign_negative());
    }

    #[test]
    fn torn_write_falls_back_to_prev() {
        // Simulate a crash that tore the write mid-footer: `latest` ends
        // up truncated inside its CRC trailer (by one byte, as a crash
        // during a media flush would leave it, or by two). The loader
        // must recover `prev` and report that it did so.
        for (k, ckp) in samples().into_iter().enumerate() {
            for cut in [1, 2] {
                let dir = scratch_dir("torn", k);
                let slots = CheckpointSlots::new(&dir).unwrap();
                let a = at_step(&ckp, 10);
                slots.save(&a).unwrap();
                slots.save(&at_step(&ckp, 11)).unwrap();

                let latest = slots.latest_path();
                let bytes = std::fs::read(&latest).unwrap();
                std::fs::write(&latest, &bytes[..bytes.len() - cut]).unwrap();

                let (got, fell_back) = slots.load_newest().unwrap();
                assert!(fell_back, "truncated latest must trigger prev fallback");
                assert_eq!(got, a);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn crc_corruption_falls_back_to_prev() {
        // Distinct failure mode from truncation: the file has the right
        // length but a flipped bit in the payload, caught by the CRC.
        for (k, ckp) in samples().into_iter().enumerate() {
            let dir = scratch_dir("crcfall", k);
            let slots = CheckpointSlots::new(&dir).unwrap();
            let a = at_step(&ckp, 20);
            slots.save(&a).unwrap();
            let b = at_step(&ckp, 21);
            slots.save(&b).unwrap();

            let latest = slots.latest_path();
            let mut bytes = std::fs::read(&latest).unwrap();
            let mid = bytes.len() / 3;
            bytes[mid] ^= 0x40;
            std::fs::write(&latest, &bytes).unwrap();

            let (got, fell_back) = slots.load_newest().unwrap();
            assert!(fell_back, "corrupt latest must trigger prev fallback");
            assert_eq!(got, a);
            // The intact path must NOT report a fallback.
            slots.save(&b).unwrap(); // rotates the corrupt file away
            let (_, fell_back) = slots.load_newest().unwrap();
            assert!(!fell_back);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn four_block_checkpoint_restores_onto_three_ranks() {
        // Written by a 4-rank (2x2) decomposition; restored onto a 3-rank
        // (3x1) decomposition whose spans cut straight across the old
        // block boundaries. Every cell must land where the global
        // coordinate says it belongs.
        let ckp = decode(&encode(&block_sample())).unwrap();
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
        // Blocks above the base level live in another index space: a
        // refined copy of the first block neither covers nor overwrites.
        let mut refined = ckp.clone();
        refined.blocks[0].level = 1;
        assert!(refined.extract_span([0, 0, 0], [3, 2, 1]).is_none());
        refined.blocks.push(BlockRecord {
            level: 0,
            ..refined.blocks[0].clone()
        });
        refined.blocks[0].data.fill(-1.0);
        assert_eq!(
            refined.extract_span([0, 0, 0], [6, 4, 1]),
            ckp.extract_span([0, 0, 0], [6, 4, 1])
        );
    }

    #[test]
    fn overlapping_blocks_cannot_hide_a_gap() {
        // Two copies of one block cover as many cells as the span holds,
        // yet leave the other block's cells uncovered.
        let mut ckp = block_sample();
        ckp.blocks.truncate(2);
        ckp.blocks[1] = BlockRecord {
            id: 1,
            ..ckp.blocks[0].clone()
        };
        assert!(ckp.extract_span([0, 0, 0], [6, 2, 1]).is_none());
        assert!(ckp.extract_span([0, 0, 0], [3, 2, 1]).is_some());
    }

    #[test]
    fn both_slots_failing_surfaces_both_errors() {
        for (k, ckp) in samples().into_iter().enumerate() {
            let dir = scratch_dir("both-slots", k);
            let slots = CheckpointSlots::new(&dir).unwrap();

            // Empty directory: both slots are missing → two Io errors,
            // each attributed to its slot.
            match slots.load_newest() {
                Err(CheckpointError::Slots { latest, prev }) => {
                    assert!(matches!(*latest, CheckpointError::Io(_)));
                    assert!(matches!(*prev, CheckpointError::Io(_)));
                }
                other => panic!("expected Slots error, got {other:?}"),
            }

            // Corrupt latest + missing prev: the error classes differ and
            // both must survive into the combined error (and its message).
            slots.save(&ckp).unwrap();
            let latest = slots.latest_path();
            let mut bytes = std::fs::read(&latest).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&latest, &bytes).unwrap();
            match slots.load_newest() {
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
    }

    #[test]
    fn trusted_decoder_matches_full_decoder_on_clean_bytes() {
        for ckp in samples() {
            let bytes = encode(&ckp);
            assert_eq!(decode_trusted(&bytes).unwrap(), decode(&bytes).unwrap());
        }
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
    fn assert_oversized(bytes: &[u8]) {
        for decoded in [decode(bytes), decode_trusted(bytes)] {
            assert!(
                matches!(&decoded, Err(CheckpointError::Format(m)) if m.contains("exceeds")),
                "got {decoded:?}"
            );
        }
    }

    #[test]
    fn block_whose_byte_count_overflows_is_a_format_error() {
        // 2^61 cells × 8 bytes wraps to zero, which "fits" an empty
        // record: an unchecked decoder would return a block claiming
        // 2^61 cells over no data.
        for mut ckp in samples() {
            ckp.blocks.truncate(1);
            ckp.blocks[0].size = [1 << 61, 1, 1];
            ckp.blocks[0].data.clear();
            assert_oversized(&encode(&ckp));
            // The cell count itself wraps.
            ckp.blocks[0].size = [1 << 32, 1 << 32, 1];
            assert_oversized(&encode(&ckp));
            // Honest arithmetic, but more cells than the file holds.
            ckp.blocks[0].size = [1 << 20, 1, 1];
            assert_oversized(&encode(&ckp));
        }
    }
}
