//! Checksummed binary checkpoint format.
//!
//! The paper's application "automatically deletes any corrupted
//! checkpoint (checkpoint file that exists, but misses some
//! information)" (§V-B). Detecting that condition requires a
//! self-validating on-disk format: this codec frames a checkpoint as a
//! magic/version header, a set of named sections, and CRC-32 checksums
//! over the header and every section, so truncation (a writer that
//! failed mid-checkpoint) and bit damage are both detected.

use std::fmt;
use xsim_core::Bytes;

const MAGIC: &[u8; 4] = b"XCKP";
const VERSION: u16 = 1;

/// CRC-32 (IEEE 802.3, reflected) — implemented locally to keep the
/// dependency set minimal.
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
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
    /// Named data sections.
    pub sections: Vec<(String, Bytes)>,
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

    /// Add a named section.
    pub fn with_section(mut self, name: &str, data: Bytes) -> Self {
        self.sections.push((name.to_string(), data));
        self
    }

    /// Find a section by name.
    pub fn section(&self, name: &str) -> Option<&Bytes> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
    }

    /// Serialize with checksums.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&self.rank.to_le_bytes());
        buf.extend_from_slice(&self.iteration.to_le_bytes());
        buf.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let header_crc = crc32(&buf);
        buf.extend_from_slice(&header_crc.to_le_bytes());
        for (name, data) in &self.sections {
            let name_b = name.as_bytes();
            buf.extend_from_slice(&(name_b.len() as u32).to_le_bytes());
            buf.extend_from_slice(name_b);
            buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
            buf.extend_from_slice(data);
            let mut crc_input = Vec::with_capacity(name_b.len() + data.len());
            crc_input.extend_from_slice(name_b);
            crc_input.extend_from_slice(data);
            buf.extend_from_slice(&crc32(&crc_input).to_le_bytes());
        }
        buf.into()
    }

    /// Deserialize and verify checksums. Any truncation or damage yields
    /// an error — the "corrupted checkpoint" the application must delete.
    pub fn decode(data: &[u8]) -> Result<Checkpoint, CodecError> {
        let mut off = 0usize;
        let take = |off: &mut usize, n: usize| -> Result<&[u8], CodecError> {
            if data.len() < *off + n {
                return Err(CodecError::Truncated);
            }
            let s = &data[*off..*off + n];
            *off += n;
            Ok(s)
        };
        let magic = take(&mut off, 4)?;
        if magic != MAGIC {
            return Err(CodecError::BadHeader);
        }
        let version = u16::from_le_bytes(take(&mut off, 2)?.try_into().expect("2"));
        if version != VERSION {
            return Err(CodecError::BadHeader);
        }
        let rank = u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4"));
        let iteration = u64::from_le_bytes(take(&mut off, 8)?.try_into().expect("8"));
        let n_sections = u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4")) as usize;
        let header_crc = crc32(&data[..off]);
        let stored = u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4"));
        if stored != header_crc {
            return Err(CodecError::ChecksumMismatch { section: 0 });
        }
        let mut sections = Vec::with_capacity(n_sections.min(1024));
        for i in 0..n_sections {
            let name_len = u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4")) as usize;
            let name_b = take(&mut off, name_len)?.to_vec();
            let data_len = u64::from_le_bytes(take(&mut off, 8)?.try_into().expect("8")) as usize;
            let body = take(&mut off, data_len)?.to_vec();
            let stored = u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4"));
            let mut crc_input = Vec::with_capacity(name_b.len() + body.len());
            crc_input.extend_from_slice(&name_b);
            crc_input.extend_from_slice(&body);
            if crc32(&crc_input) != stored {
                return Err(CodecError::ChecksumMismatch { section: i + 1 });
            }
            let name = String::from_utf8(name_b).map_err(|_| CodecError::BadHeader)?;
            sections.push((name, Bytes::from(body)));
        }
        if off != data.len() {
            return Err(CodecError::Truncated);
        }
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
        let d = Checkpoint::decode(&enc).unwrap();
        assert_eq!(d, c);
        assert_eq!(d.section("config").unwrap(), &Bytes::from_static(b"nx=512"));
        assert!(d.section("missing").is_none());
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
                Checkpoint::decode(&enc[..cut]).is_err(),
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
            assert!(
                Checkpoint::decode(&dmg).is_err(),
                "bit damage at byte {i} went undetected"
            );
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
