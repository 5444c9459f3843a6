//! Checksummed binary checkpoint format.
//!
//! The paper's application "automatically deletes any corrupted
//! checkpoint (checkpoint file that exists, but misses some
//! information)" (§V-B). Detecting that condition requires a
//! self-validating on-disk format: this codec frames a checkpoint as a
//! magic/version header, a set of named sections, and CRC-32 checksums
//! over the header and every section, so truncation (a writer that
//! failed mid-checkpoint) and bit damage are both detected.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use xsim_core::Bytes;

const MAGIC: &[u8; 4] = b"XCKP";
const VERSION: u16 = 1;
/// Magic, version, rank, iteration, section count, header CRC.
const HEADER_LEN: usize = 4 + 2 + 4 + 8 + 4 + 4;
/// Per-section framing around name and data: name length, data length,
/// section CRC.
const SECTION_OVERHEAD: usize = 4 + 8 + 4;

/// Input bytes folded into the CRC state per step of the kernel.
const CRC_STRIDE: usize = 16;

/// Slice-by-16 lookup tables for the reflected IEEE 802.3 polynomial.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so a 16-byte block
/// folds into the state with 16 independent lookups.
static CRC_TABLES: [[u32; 256]; CRC_STRIDE] = {
    const POLY: u32 = 0xEDB8_8320;
    let mut t = [[0u32; 256]; CRC_STRIDE];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < CRC_STRIDE {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Streaming CRC-32 (IEEE 802.3, reflected): feeding a buffer in any
/// number of pieces yields the checksum of the concatenation, so a
/// section's name‖data checksum needs no concatenation buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// State of the empty input.
    pub const fn new() -> Self {
        Crc32(!0)
    }

    /// Fold `data` into the state.
    #[must_use]
    pub fn update(self, data: &[u8]) -> Self {
        let mut crc = self.0;
        let mut blocks = data.chunks_exact(CRC_STRIDE);
        for block in &mut blocks {
            // The state only ever meets the next four input bytes; the
            // block's first byte is followed by 15 more, its last by none.
            let mut w: [u8; CRC_STRIDE] = block.try_into().expect("chunks_exact");
            for (b, c) in w.iter_mut().zip(crc.to_le_bytes()) {
                *b ^= c;
            }
            crc = 0;
            for (i, &b) in w.iter().enumerate() {
                crc ^= CRC_TABLES[CRC_STRIDE - 1 - i][b as usize];
            }
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        Crc32(crc)
    }

    /// The checksum of everything fed so far.
    pub const fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// CRC-32 (IEEE 802.3, reflected) of one buffer — implemented locally to
/// keep the dependency set minimal.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

/// Why a checkpoint failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is shorter than a valid checkpoint (a failure during
    /// the simulated write leaves a truncated/empty file).
    Truncated,
    /// The magic or version did not match.
    BadHeader,
    /// A checksum failed (bit damage).
    ChecksumMismatch {
        /// Which section failed ("header" or the section name index).
        section: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "checkpoint truncated"),
            CodecError::BadHeader => write!(f, "checkpoint header invalid"),
            CodecError::ChecksumMismatch { section } => {
                write!(f, "checkpoint checksum mismatch in section {section}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked cursor over an encoded checkpoint. Lengths read from
/// the file are not covered by any checksum, so every advance is
/// overflow-checked: a damaged length is a truncation, never a panic.
struct Reader<'a> {
    data: &'a [u8],
    off: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<Range<usize>, CodecError> {
        let end = self.off.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.data.len() {
            return Err(CodecError::Truncated);
        }
        let range = self.off..end;
        self.off = end;
        Ok(range)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let range = self.take(N)?;
        Ok(self.data[range].try_into().expect("take returned N bytes"))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A length field followed by that many bytes.
    fn counted(&mut self, len: u64) -> Result<Range<usize>, CodecError> {
        self.take(usize::try_from(len).map_err(|_| CodecError::Truncated)?)
    }
}

/// The one parser of the format: checks magic, version, header CRC,
/// every section's framing, CRC and name encoding, and that nothing
/// trails the last section. `section(name, data_range)` is called for
/// each section that passed, in file order; the return value is
/// `(rank, iteration)`.
fn parse(
    data: &[u8],
    mut section: impl FnMut(&str, Range<usize>),
) -> Result<(u32, u64), CodecError> {
    let mut r = Reader { data, off: 0 };
    if r.array::<4>()? != *MAGIC {
        return Err(CodecError::BadHeader);
    }
    if u16::from_le_bytes(r.array()?) != VERSION {
        return Err(CodecError::BadHeader);
    }
    let rank = r.u32()?;
    let iteration = r.u64()?;
    let n_sections = r.u32()? as usize;
    let header_crc = crc32(&data[..r.off]);
    if r.u32()? != header_crc {
        return Err(CodecError::ChecksumMismatch { section: 0 });
    }
    for i in 0..n_sections {
        let name_len = r.u32()?;
        let name = r.counted(name_len as u64)?;
        let data_len = r.u64()?;
        let body = r.counted(data_len)?;
        let stored = r.u32()?;
        let crc = Crc32::new()
            .update(&data[name.clone()])
            .update(&data[body.clone()]);
        if crc.finish() != stored {
            return Err(CodecError::ChecksumMismatch { section: i + 1 });
        }
        let name = std::str::from_utf8(&data[name]).map_err(|_| CodecError::BadHeader)?;
        section(name, body);
    }
    if r.off != data.len() {
        return Err(CodecError::Truncated);
    }
    Ok((rank, iteration))
}

/// Exact encoded length of a checkpoint with these sections.
fn encoded_len<'a>(sections: impl Iterator<Item = (&'a str, Section<'a>)>) -> usize {
    sections
        .map(|(name, data)| SECTION_OVERHEAD + name.len() + data.len())
        .sum::<usize>()
        + HEADER_LEN
}

/// The data of one section [`Checkpoint::encode_from`] writes, borrowed
/// in the form the writer holds it. A `&[u8]` converts into it.
#[derive(Clone, Copy, Debug)]
pub enum Section<'a> {
    /// Bytes, stored as they are.
    Bytes(&'a [u8]),
    /// `f64` words, stored as their little-endian bytes (a solver's
    /// grid): written straight into the encoded buffer, no byte copy of
    /// the words first.
    F64s(&'a [f64]),
}

impl Section<'_> {
    /// Encoded length in bytes.
    fn len(&self) -> usize {
        match self {
            Section::Bytes(b) => b.len(),
            Section::F64s(w) => 8 * w.len(),
        }
    }

    /// Append the encoded bytes to `buf`.
    fn write_to(self, buf: &mut Vec<u8>) {
        match self {
            Section::Bytes(b) => buf.extend_from_slice(b),
            Section::F64s(words) => {
                let start = buf.len();
                buf.resize(start + 8 * words.len(), 0);
                for (out, w) in buf[start..].chunks_exact_mut(8).zip(words) {
                    out.copy_from_slice(&w.to_le_bytes());
                }
            }
        }
    }
}

impl<'a> From<&'a [u8]> for Section<'a> {
    fn from(bytes: &'a [u8]) -> Self {
        Section::Bytes(bytes)
    }
}

/// A decoded checkpoint: identification plus named data sections (the
/// paper's checkpoints contain "the application's configuration and the
/// current iteration's data", §V-B).
///
/// ```
/// use xsim_ckpt::Checkpoint;
/// use xsim_core::Bytes;
///
/// let ckpt = Checkpoint::new(7, 250).with_section("grid", Bytes::from_static(b"data"));
/// let encoded = ckpt.encode();
/// assert_eq!(Checkpoint::decode(&encoded).unwrap(), ckpt);
/// // Any truncation is detected (the paper's corrupted-checkpoint case).
/// assert!(Checkpoint::decode(&encoded[..encoded.len() - 1]).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// World rank that wrote the checkpoint.
    pub rank: u32,
    /// Application iteration the checkpoint captures.
    pub iteration: u64,
    /// Named data sections. A constant name is borrowed, not copied;
    /// names decoded from a file are owned.
    pub sections: Vec<(Cow<'static, str>, Bytes)>,
}

impl Checkpoint {
    /// A checkpoint with no sections yet.
    pub fn new(rank: u32, iteration: u64) -> Self {
        Checkpoint {
            rank,
            iteration,
            sections: Vec::new(),
        }
    }

    /// Add a named section (a `&'static str` name is kept by reference).
    pub fn with_section(mut self, name: impl Into<Cow<'static, str>>, data: Bytes) -> Self {
        self.sections.push((name.into(), data));
        self
    }

    /// Find a section by name.
    pub fn section(&self, name: &str) -> Option<&Bytes> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
    }

    /// Exact length of [`encode`](Self::encode)'s output.
    pub fn encoded_len(&self) -> usize {
        encoded_len(self.parts().map(|(name, data)| (name, data.into())))
    }

    /// Serialize with checksums: one buffer of exactly
    /// [`encoded_len`](Self::encoded_len) bytes, each payload byte copied
    /// once and checksummed once.
    pub fn encode(&self) -> Bytes {
        Self::encode_from(self.rank, self.iteration, self.parts())
    }

    /// The bytes [`encode`](Self::encode) writes for a checkpoint of
    /// `rank`, `iteration` and `sections`, from borrowed sections: a
    /// writer that only encodes builds no `Checkpoint` (and no section
    /// list) first, and an `f64` section ([`Section::F64s`]) is encoded
    /// in place. Allocates the one buffer.
    pub fn encode_from<'a, I, S>(rank: u32, iteration: u64, sections: I) -> Bytes
    where
        I: IntoIterator<Item = (&'a str, S)>,
        I::IntoIter: Clone,
        S: Into<Section<'a>>,
    {
        let sections = sections.into_iter().map(|(name, data)| (name, data.into()));
        let len = encoded_len(sections.clone());
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&rank.to_le_bytes());
        buf.extend_from_slice(&iteration.to_le_bytes());
        buf.extend_from_slice(&(sections.clone().count() as u32).to_le_bytes());
        let header_crc = crc32(&buf);
        buf.extend_from_slice(&header_crc.to_le_bytes());
        for (name, data) in sections {
            let name_b = name.as_bytes();
            buf.extend_from_slice(&(name_b.len() as u32).to_le_bytes());
            buf.extend_from_slice(name_b);
            buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
            let start = buf.len();
            data.write_to(&mut buf);
            let crc = Crc32::new().update(name_b).update(&buf[start..]).finish();
            buf.extend_from_slice(&crc.to_le_bytes());
        }
        debug_assert_eq!(buf.len(), len);
        buf.into()
    }

    /// The sections as borrowed `(name, data)` pairs.
    fn parts(&self) -> impl Iterator<Item = (&str, &[u8])> + Clone {
        self.sections.iter().map(|(name, data)| (&**name, &**data))
    }

    /// Run every check of [`decode`](Self::decode) — header, section
    /// framing and checksums, trailing bytes — without building the
    /// checkpoint and without allocating: for callers that only ask
    /// whether a file is intact.
    pub fn verify(data: &[u8]) -> Result<(), CodecError> {
        parse(data, |_, _| {}).map(|_| ())
    }

    /// Deserialize and verify checksums. Any truncation or damage yields
    /// an error — the "corrupted checkpoint" the application must delete.
    /// Sections are copied out of `data`; a caller holding the encoded
    /// bytes as [`Bytes`] should use [`decode_bytes`](Self::decode_bytes).
    pub fn decode(data: &[u8]) -> Result<Checkpoint, CodecError> {
        Self::decode_with(data, |body| Bytes::copy_from_slice(&data[body]))
    }

    /// [`decode`](Self::decode) without copying: every section is a
    /// [`Bytes::slice`] of `data` and shares its buffer (which therefore
    /// lives as long as any section does).
    pub fn decode_bytes(data: &Bytes) -> Result<Checkpoint, CodecError> {
        Self::decode_with(data, |body| data.slice(body))
    }

    fn decode_with(
        data: &[u8],
        section: impl Fn(Range<usize>) -> Bytes,
    ) -> Result<Checkpoint, CodecError> {
        let mut sections = Vec::new();
        let (rank, iteration) = parse(data, |name, body| {
            sections.push((Cow::Owned(name.to_string()), section(body)));
        })?;
        Ok(Checkpoint {
            rank,
            iteration,
            sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `verify`, `decode` and `decode_bytes` are one parser: they must
    /// agree on every input. Returns whether `data` was accepted.
    fn accepted(data: &[u8]) -> bool {
        let copied = Checkpoint::decode(data);
        let shared = Checkpoint::decode_bytes(&Bytes::copy_from_slice(data));
        assert_eq!(copied, shared);
        assert_eq!(Checkpoint::verify(data), copied.map(|_| ()));
        Checkpoint::verify(data).is_ok()
    }

    /// An `f64` section encodes to exactly the bytes of its words'
    /// little-endian images passed as a byte section, signed zeros, NaN
    /// and infinities included.
    #[test]
    fn f64_sections_encode_as_their_le_bytes() {
        let words = [0.0, -0.0, 1.5, -2.25e-300, f64::NAN, f64::INFINITY, 7.0];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        for n in [0, 1, words.len()] {
            let config = ("config", Section::Bytes(b"nx=7"));
            let direct =
                Checkpoint::encode_from(3, 9, [config, ("grid", Section::F64s(&words[..n]))]);
            let packed =
                Checkpoint::encode_from(3, 9, [config, ("grid", Section::Bytes(&bytes[..8 * n]))]);
            assert_eq!(direct, packed, "{n} words");
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn round_trip() {
        let c = Checkpoint::new(7, 250)
            .with_section("config", Bytes::from_static(b"nx=512"))
            .with_section("grid", Bytes::from(vec![1u8, 2, 3, 4]));
        let enc = c.encode();
        assert_eq!(enc.len(), c.encoded_len());
        assert!(accepted(&enc));
        let d = Checkpoint::decode(&enc).unwrap();
        assert_eq!(d, c);
        assert_eq!(d.section("config").unwrap(), &Bytes::from_static(b"nx=512"));
        assert!(d.section("missing").is_none());
    }

    #[test]
    fn decode_bytes_sections_share_the_input_buffer() {
        let c = Checkpoint::new(7, 250)
            .with_section("config", Bytes::from_static(b"nx=512"))
            .with_section("grid", Bytes::from(vec![5u8; 4096]));
        let enc = c.encode();
        let d = Checkpoint::decode_bytes(&enc).unwrap();
        assert_eq!(d, c);
        for (_, data) in &d.sections {
            assert!(enc.as_ptr_range().contains(&data.as_ptr()));
        }
        let copied = Checkpoint::decode(&enc).unwrap();
        let grid = copied.section("grid").unwrap();
        assert!(!enc.as_ptr_range().contains(&grid.as_ptr()));
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let c = Checkpoint::new(0, 0);
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let c = Checkpoint::new(3, 9)
            .with_section("a", Bytes::from(vec![9u8; 37]))
            .with_section("b", Bytes::from(vec![1u8; 5]));
        let enc = c.encode();
        for cut in 0..enc.len() {
            assert!(
                !accepted(&enc[..cut]),
                "truncation at {cut} went undetected"
            );
        }
    }

    #[test]
    fn bit_damage_is_detected() {
        let c = Checkpoint::new(1, 2).with_section("grid", Bytes::from(vec![42u8; 64]));
        let enc = c.encode();
        for i in 0..enc.len() {
            let mut dmg = enc.to_vec();
            dmg[i] ^= 0x10;
            assert!(!accepted(&dmg), "bit damage at byte {i} went undetected");
        }
    }

    /// Section lengths are covered by no checksum. A length the file
    /// cannot hold — including ones that overflow `offset + length` — is
    /// a truncation, not a panic (both fields panicked before PR 15).
    #[test]
    fn oversized_length_fields_are_truncation() {
        let enc = Checkpoint::new(1, 2)
            .with_section("grid", Bytes::from(vec![42u8; 64]))
            .encode();
        // One section named "grid": name_len at 26..30, data_len at 34..42.
        assert_eq!(enc[26..30], 4u32.to_le_bytes());
        assert_eq!(enc[34..42], 64u64.to_le_bytes());
        for data_len in [65, 1 << 40, u64::MAX - 42, u64::MAX - 41, u64::MAX] {
            let mut bad = enc.to_vec();
            bad[34..42].copy_from_slice(&data_len.to_le_bytes());
            assert!(!accepted(&bad), "data_len {data_len}");
            assert_eq!(Checkpoint::verify(&bad), Err(CodecError::Truncated));
        }
        for name_len in [enc.len() as u32, u32::MAX - 30, u32::MAX] {
            let mut bad = enc.to_vec();
            bad[26..30].copy_from_slice(&name_len.to_le_bytes());
            assert!(!accepted(&bad), "name_len {name_len}");
            assert_eq!(Checkpoint::verify(&bad), Err(CodecError::Truncated));
        }
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let c = Checkpoint::new(1, 2).encode();
        let mut bad = c.to_vec();
        bad[0] = b'Y';
        assert_eq!(Checkpoint::decode(&bad), Err(CodecError::BadHeader));
        let mut bad = c.to_vec();
        bad[4] = 99;
        assert_eq!(Checkpoint::decode(&bad), Err(CodecError::BadHeader));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = Checkpoint::new(1, 2).encode().to_vec();
        enc.push(0);
        assert_eq!(Checkpoint::decode(&enc), Err(CodecError::Truncated));
    }
}
