//! Versioned binary checkpoint codec for [`MaBdq`](crate::MaBdq) state.
//!
//! Zero-dependency wire format, little-endian throughout:
//!
//! ```text
//! magic      8 B   b"TWIGCKPT"
//! version    u32   currently 1
//! shape header     agents u32 · state_dim u32 · head_hidden u32
//!                  · branches (count u32, entries u32…)
//!                  · trunk_hidden (count u32, entries u32…)
//! section WEIGHTS  tag u32 = 1 · count u64 · f32 × count
//! section MOMENTS  tag u32 = 2 · slots u64 · per slot:
//!                  id u64 · steps u64 · len u64 · m f32 × len · v f32 × len
//! section ANNEAL   tag u32 = 3 · steps u64 · skipped u64 · per_step u64
//!                  · per_max_priority f64
//! section PRIOS    tag u32 = 4 · count u64 · f64 × count
//! footer     u32   CRC32 (IEEE) over every preceding byte
//! ```
//!
//! [`decode_checkpoint`] verifies the CRC before parsing anything, so any
//! single-byte corruption — torn write, bit flip, truncation — yields
//! [`RlError::CorruptCheckpoint`] deterministically rather than a
//! half-parsed state.

use crate::RlError;
use std::fmt;

/// File magic prefix.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"TWIGCKPT";
/// Current format version.
pub const CHECKPOINT_VERSION: u32 = 1;

const TAG_WEIGHTS: u32 = 1;
const TAG_MOMENTS: u32 = 2;
const TAG_ANNEAL: u32 = 3;
const TAG_PRIORITIES: u32 = 4;

/// Complete serializable learner state for a [`MaBdq`](crate::MaBdq)
/// agent fleet: architecture fingerprint, flat network weights, optimizer
/// moments, step/anneal counters, and replay priorities.
///
/// Produced by [`MaBdq::save_checkpoint`](crate::MaBdq::save_checkpoint),
/// consumed by [`MaBdq::load_checkpoint`](crate::MaBdq::load_checkpoint),
/// serialized by [`encode_checkpoint`] / [`decode_checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct MaBdqCheckpoint {
    /// Number of agents (services) the network was built for.
    pub agents: usize,
    /// Per-service state vector width.
    pub state_dim: usize,
    /// Action branch cardinalities.
    pub branches: Vec<usize>,
    /// Trunk hidden-layer widths.
    pub trunk_hidden: Vec<usize>,
    /// Head hidden-layer width.
    pub head_hidden: usize,
    /// Flat online-network parameters: trunk, then value heads in agent
    /// order, then advantage heads in branch order.
    pub params: Vec<f32>,
    /// Adam's moments as the MOMENTS section carries them.
    pub adam: Moments,
    /// Applied train steps.
    pub steps: u64,
    /// Train steps skipped by the non-finite guard.
    pub skipped_steps: u64,
    /// PER β-anneal step counter.
    pub per_step: u64,
    /// PER running maximum priority.
    pub per_max_priority: f64,
    /// PER sum-tree leaves (α-exponentiated), in buffer order.
    pub priorities: Vec<f64>,
}

/// The MOMENTS section: Adam's moments cut into one slot per parameter
/// tensor (per dense layer, weights then bias). Wire layout only: the
/// optimiser keeps one step count, so every slot carries the same `steps`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Moments {
    /// One slot per parameter tensor, ids `0..n` in order.
    pub slots: Vec<MomentSlot>,
}

/// One parameter tensor's moments.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentSlot {
    /// The tensor's position in the checkpoint's tensor order.
    pub id: usize,
    /// The optimiser's bias-correction step count `t`.
    pub steps: u64,
    /// First-moment estimate.
    pub m: Vec<f32>,
    /// Second-moment estimate.
    pub v: Vec<f32>,
}

/// IEEE CRC32 (reflected, polynomial 0xEDB88320) over `bytes`.
///
/// Slicing-by-8: each step folds eight input bytes through eight lookups
/// that do not depend on one another, where the bytewise form chains one
/// lookup per byte. The last `len % 8` bytes go through `CRC_TABLES[0]`
/// alone, which is the bytewise table.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// `CRC_TABLES[k][b]` is the CRC register after byte `b` and then `k` zero
/// bytes have been shifted through it.
static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a whole `f32` / `f64` section body: one `extend` per slice.
fn put_elems<T: Copy, const N: usize>(out: &mut Vec<u8>, xs: &[T], to_le: impl Fn(T) -> [u8; N]) {
    out.extend(xs.iter().flat_map(|&x| to_le(x)));
}

fn put_usize_list(out: &mut Vec<u8>, list: &[usize]) {
    put_u32(out, list.len() as u32);
    for &v in list {
        put_u32(out, v as u32);
    }
}

/// Serializes a checkpoint into the versioned binary format described in
/// the module docs, CRC32 footer included.
pub fn encode_checkpoint(ckpt: &MaBdqCheckpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        64 + 4 * ckpt.params.len()
            + ckpt
                .adam
                .slots
                .iter()
                .map(|s| 24 + 8 * s.m.len())
                .sum::<usize>()
            + 8 * ckpt.priorities.len(),
    );
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    put_u32(&mut out, CHECKPOINT_VERSION);
    put_u32(&mut out, ckpt.agents as u32);
    put_u32(&mut out, ckpt.state_dim as u32);
    put_u32(&mut out, ckpt.head_hidden as u32);
    put_usize_list(&mut out, &ckpt.branches);
    put_usize_list(&mut out, &ckpt.trunk_hidden);

    put_u32(&mut out, TAG_WEIGHTS);
    put_u64(&mut out, ckpt.params.len() as u64);
    put_elems(&mut out, &ckpt.params, f32::to_le_bytes);

    put_u32(&mut out, TAG_MOMENTS);
    put_u64(&mut out, ckpt.adam.slots.len() as u64);
    for slot in &ckpt.adam.slots {
        put_u64(&mut out, slot.id as u64);
        put_u64(&mut out, slot.steps);
        put_u64(&mut out, slot.m.len() as u64);
        put_elems(&mut out, &slot.m, f32::to_le_bytes);
        put_elems(&mut out, &slot.v, f32::to_le_bytes);
    }

    put_u32(&mut out, TAG_ANNEAL);
    put_u64(&mut out, ckpt.steps);
    put_u64(&mut out, ckpt.skipped_steps);
    put_u64(&mut out, ckpt.per_step);
    put_f64(&mut out, ckpt.per_max_priority);

    put_u32(&mut out, TAG_PRIORITIES);
    put_u64(&mut out, ckpt.priorities.len() as u64);
    put_elems(&mut out, &ckpt.priorities, f64::to_le_bytes);

    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Cheaply checks that `bytes` is a plausible checkpoint — minimum
/// length, magic, version, and CRC32 footer — without materializing the
/// payload.
///
/// This is the guard a transfer path runs on received bytes before
/// handing them to a live agent: corruption in flight is caught here at
/// wire-scan cost instead of surfacing mid-restore.
///
/// # Errors
///
/// Returns [`RlError::CorruptCheckpoint`] when the buffer is too short,
/// fails the CRC, carries the wrong magic, or an unsupported version.
pub fn validate_checkpoint_bytes(bytes: &[u8]) -> Result<(), RlError> {
    verified_body(bytes).map(|_| ())
}

/// Bytes of the frame header: magic, then the format version.
const HEADER_LEN: usize = CHECKPOINT_MAGIC.len() + 4;

/// The one integrity pass: length, then CRC, then magic, then version.
/// Returns the frame without its footer; nothing is parsed from bytes the
/// CRC has not covered.
fn verified_body(bytes: &[u8]) -> Result<&[u8], RlError> {
    if bytes.len() < HEADER_LEN + 4 {
        return Err(corrupt(format!("{} bytes is too short", bytes.len())));
    }
    let (body, footer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(footer.try_into().unwrap());
    let actual = crc32(body);
    if stored != actual {
        return Err(corrupt(format!(
            "CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    if body[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(body[CHECKPOINT_MAGIC.len()..HEADER_LEN].try_into().unwrap());
    if version != CHECKPOINT_VERSION {
        return Err(corrupt(format!(
            "unsupported format version {version} (expected {CHECKPOINT_VERSION})"
        )));
    }
    Ok(body)
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn corrupt(detail: impl Into<String>) -> RlError {
    RlError::CorruptCheckpoint {
        detail: detail.into(),
    }
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RlError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("section extends past end of buffer"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, RlError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, RlError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, RlError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Byte length of `n` elements of `elem_size` bytes, once it is known
    /// to fit in what remains of the buffer. Every count read from the wire
    /// passes through here before anything is allocated for it.
    fn span(&self, n: usize, elem_size: usize, what: fmt::Arguments<'_>) -> Result<usize, RlError> {
        let bytes = n
            .checked_mul(elem_size)
            .ok_or_else(|| corrupt("element count overflows usize"))?;
        if self
            .pos
            .checked_add(bytes)
            .filter(|&e| e <= self.buf.len())
            .is_none()
        {
            return Err(corrupt(format!("{what} exceeds remaining buffer")));
        }
        Ok(bytes)
    }

    /// Reads a u64 element count and checks `count * elem_size` fits in the
    /// remaining bytes, so corrupted counts cannot trigger huge allocations.
    fn count(&mut self, elem_size: usize) -> Result<usize, RlError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| corrupt("element count overflows usize"))?;
        self.span(n, elem_size, format_args!("element count {n}"))?;
        Ok(n)
    }

    /// Reads `n` little-endian `N`-byte elements as one slice.
    fn elems<T, const N: usize>(
        &mut self,
        n: usize,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, RlError> {
        let bytes = self.span(n, N, format_args!("element count {n}"))?;
        Ok(self
            .take(bytes)?
            .chunks_exact(N)
            .map(|c| from_le(c.try_into().expect("chunks_exact yields N-byte chunks")))
            .collect())
    }

    fn usize_list(&mut self) -> Result<Vec<usize>, RlError> {
        let n = self.u32()? as usize;
        self.span(n, 4, format_args!("shape list"))?;
        (0..n).map(|_| Ok(self.u32()? as usize)).collect()
    }

    fn tag(&mut self, expected: u32) -> Result<(), RlError> {
        let tag = self.u32()?;
        if tag != expected {
            return Err(corrupt(format!("expected section {expected}, found {tag}")));
        }
        Ok(())
    }
}

/// Deserializes a checkpoint, verifying the CRC32 footer before any field
/// is parsed.
///
/// # Errors
///
/// Returns [`RlError::CorruptCheckpoint`] when the buffer is truncated,
/// fails the CRC, carries the wrong magic, an unsupported version, or an
/// inconsistent section layout.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<MaBdqCheckpoint, RlError> {
    let body = verified_body(bytes)?;
    let mut r = Reader {
        buf: body,
        pos: HEADER_LEN,
    };
    let agents = r.u32()? as usize;
    let state_dim = r.u32()? as usize;
    let head_hidden = r.u32()? as usize;
    let branches = r.usize_list()?;
    let trunk_hidden = r.usize_list()?;

    r.tag(TAG_WEIGHTS)?;
    let n = r.count(4)?;
    let params = r.elems(n, f32::from_le_bytes)?;

    r.tag(TAG_MOMENTS)?;
    let slots_n = r.count(24)?;
    let mut slots = Vec::with_capacity(slots_n);
    for _ in 0..slots_n {
        let id = usize::try_from(r.u64()?).map_err(|_| corrupt("slot id overflows usize"))?;
        let steps = r.u64()?;
        let len = r.count(8)?;
        let m = r.elems(len, f32::from_le_bytes)?;
        let v = r.elems(len, f32::from_le_bytes)?;
        slots.push(MomentSlot { id, steps, m, v });
    }

    r.tag(TAG_ANNEAL)?;
    let steps = r.u64()?;
    let skipped_steps = r.u64()?;
    let per_step = r.u64()?;
    let per_max_priority = r.f64()?;

    r.tag(TAG_PRIORITIES)?;
    let n = r.count(8)?;
    let priorities = r.elems(n, f64::from_le_bytes)?;

    if r.pos != body.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after last section",
            body.len() - r.pos
        )));
    }

    Ok(MaBdqCheckpoint {
        agents,
        state_dim,
        branches,
        trunk_hidden,
        head_hidden,
        params,
        adam: Moments { slots },
        steps,
        skipped_steps,
        per_step,
        per_max_priority,
        priorities,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> MaBdqCheckpoint {
        MaBdqCheckpoint {
            agents: 2,
            state_dim: 3,
            branches: vec![4, 2],
            trunk_hidden: vec![8, 6],
            head_hidden: 5,
            params: vec![0.5, -1.25, 3.75, f32::MIN_POSITIVE],
            adam: Moments {
                slots: vec![
                    MomentSlot {
                        id: 0,
                        steps: 7,
                        m: vec![0.1, 0.2],
                        v: vec![0.3, 0.4],
                    },
                    MomentSlot {
                        id: 5,
                        steps: 9,
                        m: vec![-0.5],
                        v: vec![0.25],
                    },
                ],
            },
            steps: 41,
            skipped_steps: 2,
            per_step: 40,
            per_max_priority: 2.5,
            priorities: vec![1.0, 0.125, 7.75],
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let ckpt = sample_checkpoint();
        let bytes = encode_checkpoint(&ckpt);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn crc_checked_before_parsing() {
        let bytes = encode_checkpoint(&sample_checkpoint());
        // Flip one bit in every byte position: all must fail with
        // CorruptCheckpoint, never panic or succeed.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            match decode_checkpoint(&bad) {
                Err(RlError::CorruptCheckpoint { .. }) => {}
                other => panic!("byte {i}: expected CorruptCheckpoint, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = encode_checkpoint(&sample_checkpoint());
        for n in 0..bytes.len() {
            assert!(
                matches!(
                    decode_checkpoint(&bytes[..n]),
                    Err(RlError::CorruptCheckpoint { .. })
                ),
                "truncation to {n} bytes must be rejected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        // A CRC-valid buffer with wrong magic.
        let mut body = b"NOTACKPT".to_vec();
        put_u32(&mut body, CHECKPOINT_VERSION);
        let crc = crc32(&body);
        put_u32(&mut body, crc);
        assert!(matches!(
            decode_checkpoint(&body),
            Err(RlError::CorruptCheckpoint { .. })
        ));

        let mut body = CHECKPOINT_MAGIC.to_vec();
        put_u32(&mut body, 999);
        let crc = crc32(&body);
        put_u32(&mut body, crc);
        let err = decode_checkpoint(&body).unwrap_err();
        assert!(err.to_string().contains("version 999"), "{err}");
    }

    #[test]
    fn validate_accepts_good_and_rejects_corrupt() {
        let bytes = encode_checkpoint(&sample_checkpoint());
        validate_checkpoint_bytes(&bytes).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                matches!(
                    validate_checkpoint_bytes(&bad),
                    Err(RlError::CorruptCheckpoint { .. })
                ),
                "flip at byte {i} must fail validation"
            );
        }
        for n in 0..bytes.len() {
            assert!(validate_checkpoint_bytes(&bytes[..n]).is_err());
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_state_roundtrips() {
        let ckpt = MaBdqCheckpoint {
            agents: 1,
            state_dim: 1,
            branches: vec![],
            trunk_hidden: vec![],
            head_hidden: 1,
            params: vec![],
            adam: Moments::default(),
            steps: 0,
            skipped_steps: 0,
            per_step: 0,
            per_max_priority: 1.0,
            priorities: vec![],
        };
        let back = decode_checkpoint(&encode_checkpoint(&ckpt)).unwrap();
        assert_eq!(back, ckpt);
    }
}
