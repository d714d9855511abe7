//! Binary checkpoint/restart.
//!
//! Format (little-endian, version 2):
//!
//! ```text
//! magic  "RHRSCCKP"           8 bytes
//! version u32                 4
//! time    f64, step u64       12
//! geometry: n[3] u64, ng u64, origin[3] f64, dx[3] f64
//! ncomp  u64
//! data   ncomp * len f64      (ghost-inclusive, component-major)
//! fnv    u64 (FNV-1a over the data section)
//! crc32  u32 (CRC-32 over every preceding byte, header included)
//! ```
//!
//! Writes are atomic: the payload goes to a sibling temp file which is
//! fsynced and renamed into place, so a crash mid-write can never leave a
//! file that [`load_checkpoint`] accepts — at worst a stale `*.tmp`,
//! which the loaders ignore. [`CheckpointSlots`] adds a `latest`/`prev`
//! rotation on top, so one torn or corrupted checkpoint still leaves a
//! valid restart point.

use bytes::{Buf, BufMut, BytesMut};
use rhrsc_grid::{Field, PatchGeom};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"RHRSCCKP";
const VERSION: u32 = 2;
/// Version tag of the rank-count-independent global format (see
/// [`GlobalCheckpoint`]).
const GLOBAL_VERSION: u32 = 3;
/// Version tag of the AMR hierarchy format (see [`AmrCheckpoint`]).
const AMR_VERSION: u32 = 4;

/// A restartable solver state.
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
    /// Not a checkpoint file, or an unsupported version.
    Format(String),
    /// Data-section checksum mismatch (truncated/corrupted file).
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

/// Serialize a checkpoint to bytes.
pub fn encode(ckp: &Checkpoint) -> Vec<u8> {
    let geom = ckp.field.geom();
    let mut buf = BytesMut::with_capacity(64 + ckp.field.raw().len() * 8);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_f64_le(ckp.time);
    buf.put_u64_le(ckp.step);
    for d in 0..3 {
        buf.put_u64_le(geom.n[d] as u64);
    }
    buf.put_u64_le(geom.ng as u64);
    for d in 0..3 {
        buf.put_f64_le(geom.origin[d]);
    }
    for d in 0..3 {
        buf.put_f64_le(geom.dx[d]);
    }
    buf.put_u64_le(ckp.field.ncomp() as u64);
    let data_start = buf.len();
    for &v in ckp.field.raw() {
        buf.put_f64_le(v);
    }
    let crc = fnv1a(&buf[data_start..]);
    buf.put_u64_le(crc);
    let footer = crc32(&buf[..]);
    buf.put_u32_le(footer);
    buf.to_vec()
}

/// Integrity passes a decoder runs before trusting the bytes.
///
/// * [`Checks::Full`] — bitwise whole-file CRC-32 plus the payload FNV:
///   the disk tier, where torn writes and media rot are real.
/// * [`Checks::Trusted`] — pure parsing: the caller has just re-hashed
///   the *entire* buffer against an external stamp (e.g.
///   [`crate::MemorySnapshot::verify`], which covers every byte
///   including the header — strictly stronger than the payload FNV), so
///   either armor pass would verify the same bits twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Checks {
    Full,
    Trusted,
}

/// Parse `len` little-endian f64s in one pass. `chunks_exact` lets the
/// compiler hoist the per-element bounds checks out of the loop — this is
/// the bulk of a decode once the CRC is skipped, so the memory-restore
/// tier's latency is essentially this loop plus one FNV pass. The caller
/// must have length-checked `bytes` already.
fn get_f64_payload(bytes: &mut &[u8], len: usize) -> Vec<f64> {
    let (head, rest) = bytes.split_at(len * 8);
    let data = head
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    *bytes = rest;
    data
}

/// Deserialize a checkpoint from bytes.
pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let orig = bytes;
    let mut bytes = bytes;
    if bytes.len() < 8 + 4 || &bytes[..8] != MAGIC {
        return Err(CheckpointError::Format("missing magic".into()));
    }
    bytes.advance(8);
    let version = bytes.get_u32_le();
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version}"
        )));
    }
    if bytes.remaining() < 12 + 4 * 8 + 6 * 8 + 8 {
        return Err(CheckpointError::Format("truncated header".into()));
    }
    let time = bytes.get_f64_le();
    let step = bytes.get_u64_le();
    let mut n = [0usize; 3];
    for d in &mut n {
        *d = bytes.get_u64_le() as usize;
    }
    let ng = bytes.get_u64_le() as usize;
    let mut origin = [0.0; 3];
    for o in &mut origin {
        *o = bytes.get_f64_le();
    }
    let mut dx = [0.0; 3];
    for d in &mut dx {
        *d = bytes.get_f64_le();
    }
    let geom = PatchGeom { n, ng, origin, dx };
    let ncomp = bytes.get_u64_le() as usize;
    let len = ncomp * geom.len();
    if bytes.remaining() != len * 8 + 8 + 4 {
        return Err(CheckpointError::Format(format!(
            "data section: expected {} bytes, have {}",
            len * 8 + 8 + 4,
            bytes.remaining()
        )));
    }
    // Whole-file CRC first: catches header corruption the per-section FNV
    // checksum cannot see.
    let footer_off = orig.len() - 4;
    let stored = u32::from_le_bytes([
        orig[footer_off],
        orig[footer_off + 1],
        orig[footer_off + 2],
        orig[footer_off + 3],
    ]);
    if crc32(&orig[..footer_off]) != stored {
        return Err(CheckpointError::Corrupt);
    }
    let data_bytes = &bytes[..len * 8];
    let crc_expected = fnv1a(data_bytes);
    let data = get_f64_payload(&mut bytes, len);
    let crc = bytes.get_u64_le();
    if crc != crc_expected {
        return Err(CheckpointError::Corrupt);
    }
    Ok(Checkpoint {
        time,
        step,
        field: Field::from_vec(geom, ncomp, data),
    })
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

/// Serialize a global checkpoint to bytes (format version 3; same
/// magic/FNV/CRC armor as the per-rank format).
pub fn encode_global(ckp: &GlobalCheckpoint) -> Vec<u8> {
    let payload: usize = ckp.blocks.iter().map(|b| 56 + b.data.len() * 8).sum();
    let mut buf = BytesMut::with_capacity(80 + payload);
    buf.put_slice(MAGIC);
    buf.put_u32_le(GLOBAL_VERSION);
    buf.put_f64_le(ckp.time);
    buf.put_u64_le(ckp.step);
    for d in 0..3 {
        buf.put_u64_le(ckp.global_n[d] as u64);
    }
    buf.put_u64_le(ckp.ncomp as u64);
    buf.put_u64_le(ckp.blocks.len() as u64);
    let data_start = buf.len();
    for b in &ckp.blocks {
        buf.put_u64_le(b.id);
        for d in 0..3 {
            buf.put_u64_le(b.offset[d] as u64);
        }
        for d in 0..3 {
            buf.put_u64_le(b.size[d] as u64);
        }
        for &v in &b.data {
            buf.put_f64_le(v);
        }
    }
    let fnv = fnv1a(&buf[data_start..]);
    buf.put_u64_le(fnv);
    let footer = crc32(&buf[..]);
    buf.put_u32_le(footer);
    buf.to_vec()
}

/// Deserialize a global checkpoint from bytes.
pub fn decode_global(bytes: &[u8]) -> Result<GlobalCheckpoint, CheckpointError> {
    decode_global_with(bytes, Checks::Full)
}

/// Like [`decode_global`] but with *both* integrity passes (CRC-32 and
/// the payload FNV) skipped: pure parsing. Sound **only** when the caller
/// has just re-hashed the entire byte buffer against an external stamp —
/// [`crate::MemorySnapshot::verify`] covers every byte including the
/// header, which is strictly stronger than the payload FNV — so running
/// either armor pass again would verify the same bits twice. This is
/// what makes the diskless restore tier cheap: one FNV pass plus
/// parsing, against the disk tier's read + FNV + bitwise CRC.
pub fn decode_global_trusted(bytes: &[u8]) -> Result<GlobalCheckpoint, CheckpointError> {
    decode_global_with(bytes, Checks::Trusted)
}

fn decode_global_with(bytes: &[u8], checks: Checks) -> Result<GlobalCheckpoint, CheckpointError> {
    let orig = bytes;
    let mut bytes = bytes;
    if bytes.len() < 8 + 4 || &bytes[..8] != MAGIC {
        return Err(CheckpointError::Format("missing magic".into()));
    }
    bytes.advance(8);
    let version = bytes.get_u32_le();
    if version != GLOBAL_VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported global version {version}"
        )));
    }
    if bytes.remaining() < 12 + 3 * 8 + 2 * 8 + 12 {
        return Err(CheckpointError::Format("truncated header".into()));
    }
    // Whole-file CRC first: a bit flip anywhere is fatal to a restart.
    if checks == Checks::Full {
        let footer_off = orig.len() - 4;
        let stored = u32::from_le_bytes([
            orig[footer_off],
            orig[footer_off + 1],
            orig[footer_off + 2],
            orig[footer_off + 3],
        ]);
        if crc32(&orig[..footer_off]) != stored {
            return Err(CheckpointError::Corrupt);
        }
    }
    let time = bytes.get_f64_le();
    let step = bytes.get_u64_le();
    let mut global_n = [0usize; 3];
    for d in &mut global_n {
        *d = bytes.get_u64_le() as usize;
    }
    let ncomp = bytes.get_u64_le() as usize;
    let nblocks = bytes.get_u64_le() as usize;
    let data_len = bytes.remaining().saturating_sub(8 + 4);
    let fnv_expected = (checks == Checks::Full).then(|| fnv1a(&bytes[..data_len]));
    let mut blocks = Vec::with_capacity(nblocks.min(4096));
    for _ in 0..nblocks {
        if bytes.remaining() < 56 + 8 + 4 {
            return Err(CheckpointError::Format("truncated block header".into()));
        }
        let id = bytes.get_u64_le();
        let mut offset = [0usize; 3];
        for d in &mut offset {
            *d = bytes.get_u64_le() as usize;
        }
        let mut size = [0usize; 3];
        for d in &mut size {
            *d = bytes.get_u64_le() as usize;
        }
        let len = ncomp
            .checked_mul(size[0])
            .and_then(|v| v.checked_mul(size[1]))
            .and_then(|v| v.checked_mul(size[2]))
            .ok_or_else(|| CheckpointError::Format("block size overflow".into()))?;
        if bytes.remaining() < len * 8 + 8 + 4 {
            return Err(CheckpointError::Format("truncated block data".into()));
        }
        let data = get_f64_payload(&mut bytes, len);
        blocks.push(BlockRecord {
            id,
            offset,
            size,
            data,
        });
    }
    if bytes.remaining() != 8 + 4 {
        return Err(CheckpointError::Format("trailing bytes".into()));
    }
    let fnv_stored = bytes.get_u64_le();
    if fnv_expected.is_some_and(|f| f != fnv_stored) {
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

/// Serialize an AMR checkpoint to bytes (format version 4; same
/// magic/FNV/CRC armor as the other formats).
pub fn encode_amr(ckp: &AmrCheckpoint) -> Vec<u8> {
    let payload: usize = ckp.patches.iter().map(|p| 24 + p.data.len() * 8).sum();
    let mut buf = BytesMut::with_capacity(64 + payload);
    buf.put_slice(MAGIC);
    buf.put_u32_le(AMR_VERSION);
    buf.put_f64_le(ckp.time);
    buf.put_u64_le(ckp.step);
    buf.put_u64_le(ckp.n0);
    buf.put_u64_le(ckp.ncomp as u64);
    buf.put_u64_le(ckp.patches.len() as u64);
    let data_start = buf.len();
    for p in &ckp.patches {
        buf.put_u32_le(p.level);
        buf.put_u64_le(p.lo);
        buf.put_u64_le(p.n);
        for &v in &p.data {
            buf.put_f64_le(v);
        }
    }
    let fnv = fnv1a(&buf[data_start..]);
    buf.put_u64_le(fnv);
    let footer = crc32(&buf[..]);
    buf.put_u32_le(footer);
    buf.to_vec()
}

/// Deserialize an AMR checkpoint from bytes.
pub fn decode_amr(bytes: &[u8]) -> Result<AmrCheckpoint, CheckpointError> {
    decode_amr_with(bytes, Checks::Full)
}

/// Like [`decode_amr`] but with no integrity passes at all — sound only
/// when the caller has *just* verified the whole buffer against an
/// external stamp; see [`decode_global_trusted`].
pub fn decode_amr_trusted(bytes: &[u8]) -> Result<AmrCheckpoint, CheckpointError> {
    decode_amr_with(bytes, Checks::Trusted)
}

fn decode_amr_with(bytes: &[u8], checks: Checks) -> Result<AmrCheckpoint, CheckpointError> {
    let orig = bytes;
    let mut bytes = bytes;
    if bytes.len() < 8 + 4 || &bytes[..8] != MAGIC {
        return Err(CheckpointError::Format("missing magic".into()));
    }
    bytes.advance(8);
    let version = bytes.get_u32_le();
    if version != AMR_VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported AMR version {version}"
        )));
    }
    if bytes.remaining() < 8 + 8 + 8 + 8 + 8 + 12 {
        return Err(CheckpointError::Format("truncated header".into()));
    }
    // Whole-file CRC first: a bit flip anywhere is fatal to a restart.
    if checks == Checks::Full {
        let footer_off = orig.len() - 4;
        let stored = u32::from_le_bytes([
            orig[footer_off],
            orig[footer_off + 1],
            orig[footer_off + 2],
            orig[footer_off + 3],
        ]);
        if crc32(&orig[..footer_off]) != stored {
            return Err(CheckpointError::Corrupt);
        }
    }
    let time = bytes.get_f64_le();
    let step = bytes.get_u64_le();
    let n0 = bytes.get_u64_le();
    let ncomp = bytes.get_u64_le() as usize;
    let npatches = bytes.get_u64_le() as usize;
    let data_len = bytes.remaining().saturating_sub(8 + 4);
    let fnv_expected = (checks == Checks::Full).then(|| fnv1a(&bytes[..data_len]));
    let mut patches = Vec::with_capacity(npatches.min(4096));
    for _ in 0..npatches {
        if bytes.remaining() < 20 + 8 + 4 {
            return Err(CheckpointError::Format("truncated patch header".into()));
        }
        let level = bytes.get_u32_le();
        let lo = bytes.get_u64_le();
        let n = bytes.get_u64_le();
        let len = ncomp
            .checked_mul(n as usize)
            .ok_or_else(|| CheckpointError::Format("patch size overflow".into()))?;
        if bytes.remaining() < len * 8 + 8 + 4 {
            return Err(CheckpointError::Format("truncated patch data".into()));
        }
        let data = get_f64_payload(&mut bytes, len);
        patches.push(AmrPatchRecord { level, lo, n, data });
    }
    if bytes.remaining() != 8 + 4 {
        return Err(CheckpointError::Format("trailing bytes".into()));
    }
    let fnv_stored = bytes.get_u64_le();
    if fnv_expected.is_some_and(|f| f != fnv_stored) {
        return Err(CheckpointError::Corrupt);
    }
    Ok(AmrCheckpoint {
        time,
        step,
        n0,
        ncomp,
        patches,
    })
}

/// Write an AMR checkpoint file atomically (tmp + fsync + rename).
pub fn save_amr_checkpoint(path: &Path, ckp: &AmrCheckpoint) -> Result<(), CheckpointError> {
    let bytes = encode_amr(ckp);
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

/// Read an AMR checkpoint file.
pub fn load_amr_checkpoint(path: &Path) -> Result<AmrCheckpoint, CheckpointError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode_amr(&bytes)
}

/// Write a global checkpoint file atomically (tmp + fsync + rename).
pub fn save_global_checkpoint(path: &Path, ckp: &GlobalCheckpoint) -> Result<(), CheckpointError> {
    let bytes = encode_global(ckp);
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

/// Read a global checkpoint file.
pub fn load_global_checkpoint(path: &Path) -> Result<GlobalCheckpoint, CheckpointError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode_global(&bytes)
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
pub fn save_checkpoint(path: &Path, ckp: &Checkpoint) -> Result<(), CheckpointError> {
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
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode(&bytes)
}

/// Rotating two-slot checkpoint store: `latest.ckp` and `prev.ckp` in one
/// directory. Saving demotes the current `latest` to `prev` before the
/// atomic rename, so even if the new checkpoint is later found corrupted
/// (e.g. media failure after the write), the previous generation is still
/// on disk and [`CheckpointSlots::load_newest`] falls back to it.
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
        self.dir.join("latest.ckp")
    }

    /// Path of the previous-generation checkpoint slot.
    pub fn prev_path(&self) -> PathBuf {
        self.dir.join("prev.ckp")
    }

    /// Save a checkpoint, rotating `latest` → `prev` first.
    pub fn save(&self, ckp: &Checkpoint) -> Result<(), CheckpointError> {
        let latest = self.latest_path();
        if latest.exists() {
            std::fs::rename(&latest, self.prev_path())?;
        }
        save_checkpoint(&latest, ckp)
    }

    /// Load the newest valid checkpoint: `latest` if it decodes cleanly,
    /// otherwise `prev`. When both slots are missing or corrupt the
    /// returned [`CheckpointError::Slots`] carries *both* per-slot errors.
    pub fn load_newest(&self) -> Result<Checkpoint, CheckpointError> {
        self.load_newest_with_fallback().map(|(ckp, _)| ckp)
    }

    /// Like [`load_newest`](Self::load_newest), but also reports whether
    /// the `prev` slot had to be used because `latest` was missing, torn,
    /// or corrupt — so callers can count the event in their metrics.
    pub fn load_newest_with_fallback(&self) -> Result<(Checkpoint, bool), CheckpointError> {
        match load_checkpoint(&self.latest_path()) {
            Ok(ckp) => Ok((ckp, false)),
            Err(latest_err) => match load_checkpoint(&self.prev_path()) {
                Ok(ckp) => {
                    eprintln!(
                        "checkpoint: latest slot unusable ({latest_err}), fell back to {}",
                        self.prev_path().display()
                    );
                    Ok((ckp, true))
                }
                Err(prev_err) => Err(CheckpointError::Slots {
                    latest: Box::new(latest_err),
                    prev: Box::new(prev_err),
                }),
            },
        }
    }

    /// Path of the most recent *global* (rank-count-independent) slot.
    pub fn global_latest_path(&self) -> PathBuf {
        self.dir.join("latest.gckp")
    }

    /// Path of the previous-generation global slot.
    pub fn global_prev_path(&self) -> PathBuf {
        self.dir.join("prev.gckp")
    }

    /// Save a global checkpoint, rotating `latest.gckp` → `prev.gckp`.
    pub fn save_global(&self, ckp: &GlobalCheckpoint) -> Result<(), CheckpointError> {
        let latest = self.global_latest_path();
        if latest.exists() {
            std::fs::rename(&latest, self.global_prev_path())?;
        }
        save_global_checkpoint(&latest, ckp)
    }

    /// Load the newest valid global checkpoint, reporting whether the
    /// `prev` slot was used.
    pub fn load_newest_global(&self) -> Result<(GlobalCheckpoint, bool), CheckpointError> {
        match load_global_checkpoint(&self.global_latest_path()) {
            Ok(ckp) => Ok((ckp, false)),
            Err(latest_err) => match load_global_checkpoint(&self.global_prev_path()) {
                Ok(ckp) => {
                    eprintln!(
                        "checkpoint: global latest slot unusable ({latest_err}), fell back to {}",
                        self.global_prev_path().display()
                    );
                    Ok((ckp, true))
                }
                Err(prev_err) => Err(CheckpointError::Slots {
                    latest: Box::new(latest_err),
                    prev: Box::new(prev_err),
                }),
            },
        }
    }

    /// Path of the most recent *AMR hierarchy* (format v4,
    /// rank-count-independent) slot.
    pub fn amr_latest_path(&self) -> PathBuf {
        self.dir.join("latest.ackp")
    }

    /// Path of the previous-generation AMR slot.
    pub fn amr_prev_path(&self) -> PathBuf {
        self.dir.join("prev.ackp")
    }

    /// Save an AMR checkpoint, rotating `latest.ackp` → `prev.ackp`.
    pub fn save_amr(&self, ckp: &AmrCheckpoint) -> Result<(), CheckpointError> {
        let latest = self.amr_latest_path();
        if latest.exists() {
            std::fs::rename(&latest, self.amr_prev_path())?;
        }
        save_amr_checkpoint(&latest, ckp)
    }

    /// Load the newest valid AMR checkpoint, reporting whether the `prev`
    /// slot was used because `latest` was missing, torn, or corrupt.
    pub fn load_newest_amr(&self) -> Result<(AmrCheckpoint, bool), CheckpointError> {
        match load_amr_checkpoint(&self.amr_latest_path()) {
            Ok(ckp) => Ok((ckp, false)),
            Err(latest_err) => match load_amr_checkpoint(&self.amr_prev_path()) {
                Ok(ckp) => {
                    eprintln!(
                        "checkpoint: AMR latest slot unusable ({latest_err}), fell back to {}",
                        self.amr_prev_path().display()
                    );
                    Ok((ckp, true))
                }
                Err(prev_err) => Err(CheckpointError::Slots {
                    latest: Box::new(latest_err),
                    prev: Box::new(prev_err),
                }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
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

    #[test]
    fn roundtrip_is_exact() {
        let ckp = sample();
        let out = decode(&encode(&ckp)).unwrap();
        assert_eq!(out, ckp);
    }

    #[test]
    fn file_roundtrip() {
        let ckp = sample();
        let dir = std::env::temp_dir().join("rhrsc-ckp-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckp");
        save_checkpoint(&path, &ckp).unwrap();
        let out = load_checkpoint(&path).unwrap();
        assert_eq!(out, ckp);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn detects_corruption() {
        let ckp = sample();
        let mut bytes = encode(&ckp);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(CheckpointError::Corrupt)));
    }

    #[test]
    fn detects_truncation() {
        let ckp = sample();
        let bytes = encode(&ckp);
        assert!(matches!(
            decode(&bytes[..bytes.len() - 9]),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            decode(b"not a checkpoint at all"),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let ckp = sample();
        let mut bytes = encode(&ckp);
        bytes[8] = 99; // version field LE low byte
        assert!(matches!(decode(&bytes), Err(CheckpointError::Format(_))));
    }

    #[test]
    fn detects_header_corruption() {
        // A bit flip in the `time` field is invisible to the data-section
        // FNV checksum; the whole-file CRC must catch it.
        let ckp = sample();
        let mut bytes = encode(&ckp);
        bytes[12] ^= 0x01; // low byte of `time`
        assert!(matches!(decode(&bytes), Err(CheckpointError::Corrupt)));
    }

    #[test]
    fn save_is_atomic_over_stale_tmp() {
        // A crash mid-write leaves a garbage `<path>.tmp`. A later save
        // must still succeed, the result must load cleanly, and no tmp
        // file may survive.
        let dir = std::env::temp_dir().join("rhrsc-ckp-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckp");
        let tmp = tmp_path(&path);
        std::fs::write(&tmp, b"torn write from a crashed run").unwrap();
        let ckp = sample();
        save_checkpoint(&path, &ckp).unwrap();
        assert!(!tmp.exists(), "tmp file must be renamed away");
        assert_eq!(load_checkpoint(&path).unwrap(), ckp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slots_rotate_and_fall_back() {
        let dir = std::env::temp_dir().join("rhrsc-ckp-slots-test");
        let _ = std::fs::remove_dir_all(&dir);
        let slots = CheckpointSlots::new(&dir).unwrap();

        // Nothing saved yet: load must fail.
        assert!(slots.load_newest().is_err());

        let mut a = sample();
        a.step = 1;
        slots.save(&a).unwrap();
        assert_eq!(slots.load_newest().unwrap().step, 1);
        assert!(!slots.prev_path().exists());

        let mut b = sample();
        b.step = 2;
        slots.save(&b).unwrap();
        assert_eq!(slots.load_newest().unwrap().step, 2);
        // First generation rotated into prev.
        assert_eq!(load_checkpoint(&slots.prev_path()).unwrap().step, 1);

        // Corrupt latest: load_newest must fall back to prev.
        let mut bytes = std::fs::read(slots.latest_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(slots.latest_path(), &bytes).unwrap();
        assert_eq!(slots.load_newest().unwrap().step, 1);

        // Corrupt prev too: now everything is gone.
        std::fs::write(slots.prev_path(), b"junk").unwrap();
        assert!(slots.load_newest().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
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
        let out = decode(&encode(&ckp)).unwrap();
        assert_eq!(out.field.raw(), ckp.field.raw());
        assert!(out.field.raw()[1].is_sign_negative());
    }

    #[test]
    fn torn_write_mid_footer_falls_back_to_prev() {
        // Simulate a crash that tore the write mid-footer: `latest` ends
        // up truncated inside its CRC trailer. The fallback loader must
        // recover `prev` and report that it did so.
        let dir = std::env::temp_dir().join("rhrsc-ckp-torn-test");
        let _ = std::fs::remove_dir_all(&dir);
        let slots = CheckpointSlots::new(&dir).unwrap();
        let mut a = sample();
        a.step = 10;
        slots.save(&a).unwrap();
        let mut b = sample();
        b.step = 11;
        slots.save(&b).unwrap();

        let bytes = std::fs::read(slots.latest_path()).unwrap();
        std::fs::write(slots.latest_path(), &bytes[..bytes.len() - 2]).unwrap();

        let (ckp, fell_back) = slots.load_newest_with_fallback().unwrap();
        assert!(fell_back, "truncated latest must trigger prev fallback");
        assert_eq!(ckp.step, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_corruption_falls_back_to_prev() {
        // Distinct failure mode from truncation: the file has the right
        // length but a flipped bit in the payload, caught by the CRC.
        let dir = std::env::temp_dir().join("rhrsc-ckp-crcfall-test");
        let _ = std::fs::remove_dir_all(&dir);
        let slots = CheckpointSlots::new(&dir).unwrap();
        let mut a = sample();
        a.step = 20;
        slots.save(&a).unwrap();
        let mut b = sample();
        b.step = 21;
        slots.save(&b).unwrap();

        let mut bytes = std::fs::read(slots.latest_path()).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x40;
        std::fs::write(slots.latest_path(), &bytes).unwrap();

        let (ckp, fell_back) = slots.load_newest_with_fallback().unwrap();
        assert!(fell_back, "corrupt latest must trigger prev fallback");
        assert_eq!(ckp.step, 20);
        // The intact path must NOT report a fallback.
        slots.save(&b).unwrap(); // rotates the corrupt file away
        let (_, fell_back) = slots.load_newest_with_fallback().unwrap();
        assert!(!fell_back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A 2x2-block global checkpoint over a 6x4 interior, 3 components,
    /// with data encoding the global cell coordinate so any re-tiling can
    /// be verified cell by cell.
    fn sample_global() -> GlobalCheckpoint {
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

    #[test]
    fn global_roundtrip_is_exact() {
        let ckp = sample_global();
        let out = decode_global(&encode_global(&ckp)).unwrap();
        assert_eq!(out, ckp);
    }

    #[test]
    fn global_detects_corruption_and_truncation() {
        let ckp = sample_global();
        let bytes = encode_global(&ckp);
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0xff;
        assert!(matches!(decode_global(&bad), Err(CheckpointError::Corrupt)));
        assert!(decode_global(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn four_block_checkpoint_restores_onto_three_ranks() {
        // Written by a 4-rank (2x2) decomposition; restored onto a 3-rank
        // (3x1) decomposition whose spans cut straight across the old
        // block boundaries. Every cell must land where the global
        // coordinate says it belongs.
        let ckp = sample_global();
        let ckp = decode_global(&encode_global(&ckp)).unwrap();
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

    /// A three-level AMR hierarchy with recognizable per-patch data.
    fn sample_amr() -> AmrCheckpoint {
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

    #[test]
    fn amr_roundtrip_is_exact() {
        let ckp = sample_amr();
        let out = decode_amr(&encode_amr(&ckp)).unwrap();
        assert_eq!(out, ckp);
    }

    #[test]
    fn amr_detects_corruption_truncation_and_wrong_version() {
        let ckp = sample_amr();
        let bytes = encode_amr(&ckp);
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0xff;
        assert!(matches!(decode_amr(&bad), Err(CheckpointError::Corrupt)));
        assert!(decode_amr(&bytes[..bytes.len() - 5]).is_err());
        // The per-rank (v2) decoder must refuse an AMR (v4) file and vice
        // versa — the version field distinguishes the formats.
        assert!(matches!(decode(&bytes), Err(CheckpointError::Format(_))));
        let rank = encode(&sample());
        assert!(matches!(decode_amr(&rank), Err(CheckpointError::Format(_))));
    }

    #[test]
    fn amr_file_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join("rhrsc-amr-ckp-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("amr.ckp");
        let tmp = tmp_path(&path);
        std::fs::write(&tmp, b"stale torn write").unwrap();
        let ckp = sample_amr();
        save_amr_checkpoint(&path, &ckp).unwrap();
        assert!(!tmp.exists(), "tmp file must be renamed away");
        assert_eq!(load_amr_checkpoint(&path).unwrap(), ckp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn global_slots_rotate_and_fall_back() {
        let dir = std::env::temp_dir().join("rhrsc-gckp-slots-test");
        let _ = std::fs::remove_dir_all(&dir);
        let slots = CheckpointSlots::new(&dir).unwrap();
        assert!(slots.load_newest_global().is_err());

        let mut a = sample_global();
        a.step = 1;
        slots.save_global(&a).unwrap();
        let mut b = sample_global();
        b.step = 2;
        slots.save_global(&b).unwrap();
        let (got, fell_back) = slots.load_newest_global().unwrap();
        assert_eq!((got.step, fell_back), (2, false));

        // Torn latest → prev generation with a fallback report.
        let bytes = std::fs::read(slots.global_latest_path()).unwrap();
        std::fs::write(slots.global_latest_path(), &bytes[..bytes.len() - 1]).unwrap();
        let (got, fell_back) = slots.load_newest_global().unwrap();
        assert_eq!((got.step, fell_back), (1, true));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn amr_slots_rotate_and_fall_back_on_torn_write() {
        let dir = std::env::temp_dir().join("rhrsc-ackp-slots-test");
        let _ = std::fs::remove_dir_all(&dir);
        let slots = CheckpointSlots::new(&dir).unwrap();
        assert!(slots.load_newest_amr().is_err());

        let mut a = sample_amr();
        a.step = 1;
        slots.save_amr(&a).unwrap();
        let mut b = sample_amr();
        b.step = 2;
        slots.save_amr(&b).unwrap();
        let (got, fell_back) = slots.load_newest_amr().unwrap();
        assert_eq!((got.step, fell_back), (2, false));
        assert_eq!(got, b);

        // Torn latest (truncated inside the CRC footer, as a crash during
        // a media flush would leave it) → prev generation, reported.
        let bytes = std::fs::read(slots.amr_latest_path()).unwrap();
        std::fs::write(slots.amr_latest_path(), &bytes[..bytes.len() - 1]).unwrap();
        let (got, fell_back) = slots.load_newest_amr().unwrap();
        assert_eq!((got.step, fell_back), (1, true));
        assert_eq!(got, a);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn both_slots_failing_surfaces_both_errors() {
        let dir = std::env::temp_dir().join("rhrsc-ckp-both-slots-test");
        let _ = std::fs::remove_dir_all(&dir);
        let slots = CheckpointSlots::new(&dir).unwrap();

        // Empty directory: both slots are missing → two Io errors, each
        // attributed to its slot.
        match slots.load_newest() {
            Err(CheckpointError::Slots { latest, prev }) => {
                assert!(matches!(*latest, CheckpointError::Io(_)));
                assert!(matches!(*prev, CheckpointError::Io(_)));
            }
            other => panic!("expected Slots error, got {other:?}"),
        }

        // Corrupt latest + missing prev: the error classes differ and both
        // must survive into the combined error (and its message).
        let ckp = sample();
        slots.save(&ckp).unwrap();
        let mut bytes = std::fs::read(slots.latest_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(slots.latest_path(), &bytes).unwrap();
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

    #[test]
    fn trusted_decoders_match_full_decoders_on_clean_bytes() {
        let g = sample_global();
        let gb = encode_global(&g);
        assert_eq!(
            decode_global_trusted(&gb).unwrap(),
            decode_global(&gb).unwrap()
        );

        let a = sample_amr();
        let ab = encode_amr(&a);
        assert_eq!(decode_amr_trusted(&ab).unwrap(), decode_amr(&ab).unwrap());
    }
}
