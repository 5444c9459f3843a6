//! Seeded property tests for the checkpoint codec: round trips always
//! succeed; any truncation or single-bit damage is always detected
//! (paper §V-B's corrupted-checkpoint detection depends on this); the
//! table-driven streaming CRC equals the bit-at-a-time definition; and
//! the on-disk bytes of the `XCKP` v1 format are pinned. Every property
//! runs `CASES` cases, case `i` drawing from `DetRng::stream(SEED, i)`.

use xsim_ckpt::{crc32, encode_diff, Checkpoint, Crc32};
use xsim_core::rng::for_each_case;
use xsim_core::{Bytes, DetRng};

const SEED: u64 = 0xC0DE_0005;
const CASES: u64 = 64;

/// Any rank and iteration, up to 5 sections named `[a-z]{0,12}` of up
/// to 199 bytes each.
fn arb_checkpoint(g: &mut DetRng) -> Checkpoint {
    let mut c = Checkpoint::new(g.next_u64() as u32, g.next_u64());
    for _ in 0..g.gen_in(0..6) {
        let name: String = (0..g.gen_in(0..13))
            .map(|_| (b'a' + g.gen_in(0..26) as u8) as char)
            .collect();
        c = c.with_section(&name, Bytes::from(g.gen_bytes(0..200)));
    }
    c
}

/// The reference CRC-32 (IEEE 802.3, reflected), one bit at a time —
/// the oracle the table-driven kernel in `src/codec.rs` is held to.
fn crc32_bitwise(data: &[u8]) -> u32 {
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

/// Whether `data` decodes — asserting on the way that `verify`,
/// `decode` and `decode_bytes` give the same answer.
fn accepted(data: &[u8]) -> bool {
    let copied = Checkpoint::decode(data);
    assert_eq!(
        copied,
        Checkpoint::decode_bytes(&Bytes::copy_from_slice(data))
    );
    assert_eq!(Checkpoint::verify(data), copied.map(|_| ()));
    Checkpoint::verify(data).is_ok()
}

fn hex(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn round_trip() {
    for_each_case(SEED, CASES, |g| {
        let c = arb_checkpoint(g);
        let enc = c.encode();
        assert_eq!(enc.len(), c.encoded_len());
        assert!(accepted(&enc));
        assert_eq!(Checkpoint::decode(&enc).unwrap(), c);
        assert_eq!(Checkpoint::decode_bytes(&enc).unwrap(), c);
    });
}

#[test]
fn truncation_always_detected() {
    for_each_case(SEED, CASES, |g| {
        let enc = arb_checkpoint(g).encode();
        // `gen_f64` is in [0, 1): the cut is always a proper prefix.
        let cut = ((enc.len() as f64) * g.gen_f64()) as usize;
        assert!(!accepted(&enc[..cut]));
    });
}

#[test]
fn bit_damage_always_detected() {
    for_each_case(SEED, CASES, |g| {
        let enc = arb_checkpoint(g).encode();
        let mut dmg = enc.to_vec();
        let pos = g.gen_index(dmg.len());
        let bit = g.gen_in(0..8);
        dmg[pos] ^= 1 << bit;
        assert!(
            !accepted(&dmg),
            "flip at byte {pos} bit {bit} went undetected"
        );
    });
}

#[test]
fn crc32_detects_any_single_bit_flip() {
    for_each_case(SEED, CASES, |g| {
        let data = g.gen_bytes(1..256);
        let original = crc32(&data);
        let mut dmg = data.clone();
        let pos = g.gen_index(dmg.len());
        dmg[pos] ^= 1 << g.gen_in(0..8);
        assert_ne!(crc32(&dmg), original);
    });
}

/// Every length 0..=80 at every start offset 0..16: every head/tail
/// remainder of the 16-byte kernel, at every alignment, up to five
/// blocks.
#[test]
fn crc32_equals_bitwise_oracle_on_short_inputs() {
    let buf = DetRng::stream(SEED, 0).gen_bytes(96..97);
    for start in 0..16 {
        for len in 0..=80 {
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), crc32_bitwise(data), "start {start} len {len}");
        }
    }
}

#[test]
fn crc32_equals_bitwise_oracle_on_random_buffers() {
    for_each_case(SEED, CASES, |g| {
        let data = g.gen_bytes(0..65_537);
        assert_eq!(crc32(&data), crc32_bitwise(&data));
    });
}

/// `crc(a‖b) == finish(update(update(init, a), b))` at every split
/// point — what lets a section checksum name‖data without joining them.
#[test]
fn crc32_streaming_is_split_invariant() {
    for_each_case(SEED, CASES, |g| {
        let data = g.gen_bytes(0..200);
        let whole = crc32_bitwise(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(Crc32::new().update(a).update(b).finish(), whole);
        }
    });
}

/// The `XCKP` v1 bytes of one two-section checkpoint and of one diff
/// file, captured from the bit-at-a-time encoder this codec replaced:
/// files written by either side of that change restore on the other.
#[test]
fn on_disk_format_is_pinned() {
    let ckpt = Checkpoint::new(7, 250)
        .with_section("config", Bytes::from_static(b"nx=512"))
        .with_section("grid", Bytes::from((0u8..40).collect::<Vec<_>>()));
    assert_eq!(hex(&ckpt.encode()), GOLDEN_CHECKPOINT);

    let base: Vec<u8> = (0..600u32).map(|i| (i * 7) as u8).collect();
    let mut cur = base.clone();
    cur[300] ^= 0xff;
    cur.extend_from_slice(b"tail");
    let diff = encode_diff(3, 20, 10, &base, &cur);
    assert_eq!(hex(&diff.encode()), GOLDEN_DIFF);
}

const GOLDEN_CHECKPOINT: &str = "\
    58434b50010007000000fa0000000000000002000000525df4b206000000636f\
    6e66696706000000000000006e783d3531326e8be05304000000677269642800\
    000000000000000102030405060708090a0b0c0d0e0f10111213141516171819\
    1a1b1c1d1e1f2021222324252627ea6431c1";

const GOLDEN_DIFF: &str = "\
    58434b50010003000000140000000000000004000000ff9e0ae2050000006962\
    61736508000000000000000a00000000000000e3cb6b490700000069626c6f63\
    6b730800000000000000010000000200000088b21f0f0500000069646174615c\
    0100000000000000070e151c232a31383f464d545b626970777e858c939aa1a8\
    afb6bdc4cbd2d9e0e7eef5fc030a11181f262dcb3b424950575e656c737a8188\
    8f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a6168\
    6f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a4148\
    4f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a2128\
    2f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa0108\
    0f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8\
    eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8\
    cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8\
    afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a8188\
    8f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a6174\
    61696c44c7ed4904000000696c656e08000000000000005c02000000000000ab\
    f699a2";
