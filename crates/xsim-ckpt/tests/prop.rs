//! Seeded property tests for the checkpoint codec: round trips always
//! succeed; any truncation or single-bit damage is always detected
//! (paper §V-B's corrupted-checkpoint detection depends on this). Every
//! property runs `CASES` cases, case `i` drawing from
//! `DetRng::stream(SEED, i)`.

use xsim_ckpt::{crc32, Checkpoint};
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

#[test]
fn round_trip() {
    for_each_case(SEED, CASES, |g| {
        let c = arb_checkpoint(g);
        let enc = c.encode();
        let d = Checkpoint::decode(&enc).unwrap();
        assert_eq!(d, c);
    });
}

#[test]
fn truncation_always_detected() {
    for_each_case(SEED, CASES, |g| {
        let enc = arb_checkpoint(g).encode();
        // `gen_f64` is in [0, 1): the cut is always a proper prefix.
        let cut = ((enc.len() as f64) * g.gen_f64()) as usize;
        assert!(Checkpoint::decode(&enc[..cut]).is_err());
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
            Checkpoint::decode(&dmg).is_err(),
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

#[test]
fn crc32_is_deterministic() {
    for_each_case(SEED, CASES, |g| {
        let data = g.gen_bytes(0..512);
        assert_eq!(crc32(&data), crc32(&data));
    });
}
