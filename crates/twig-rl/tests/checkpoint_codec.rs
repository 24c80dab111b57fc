//! Randomized round-trip hardening for the checkpoint codec: random
//! configurations, trained agents, bit-identical decode, and guaranteed
//! corruption detection for any single flipped byte. Below those: the
//! sliced CRC against a bytewise reference, the v1 wire format pinned to a
//! frame the parent of PR 19 encoded, and hostile counts against the
//! whole-slice section reader.

use twig_rl::checkpoint::{MomentSlot, Moments};
use twig_rl::federate::{decode_payload, FedError};
use twig_rl::{
    crc32, decode_checkpoint, encode_checkpoint, validate_checkpoint_bytes, MaBdq, MaBdqCheckpoint,
    MaBdqConfig, MultiTransition, RlError,
};
use twig_stats::rng::{Rng, Xoshiro256};

fn random_config(rng: &mut Xoshiro256) -> MaBdqConfig {
    let agents = rng.range_usize(1, 4);
    let num_branches = rng.range_usize(1, 4);
    MaBdqConfig {
        agents,
        state_dim: rng.range_usize(1, 4),
        branches: (0..num_branches).map(|_| rng.range_usize(2, 6)).collect(),
        trunk_hidden: vec![rng.range_usize(4, 12), rng.range_usize(4, 12)],
        head_hidden: rng.range_usize(4, 12),
        dropout: 0.0,
        gamma: 0.0,
        batch_size: 8,
        buffer_capacity: 256,
        seed: rng.next_u64(),
        ..MaBdqConfig::default()
    }
}

fn train_a_little(agent: &mut MaBdq, rng: &mut Xoshiro256) {
    let config = agent.config().clone();
    for _ in 0..3 * config.batch_size {
        let state: Vec<Vec<f32>> = (0..config.agents)
            .map(|_| {
                (0..config.state_dim)
                    .map(|_| rng.range_f64(-1.0, 1.0) as f32)
                    .collect()
            })
            .collect();
        let actions: Vec<Vec<usize>> = (0..config.agents)
            .map(|_| {
                config
                    .branches
                    .iter()
                    .map(|&n| rng.range_usize(0, n))
                    .collect()
            })
            .collect();
        let rewards: Vec<f32> = (0..config.agents)
            .map(|_| rng.range_f64(-1.0, 1.0) as f32)
            .collect();
        agent
            .observe(MultiTransition {
                states: state.clone(),
                actions,
                rewards,
                next_states: state,
            })
            .unwrap();
        agent.train_step().unwrap();
    }
}

#[test]
fn random_configs_roundtrip_bit_identically() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0DEC);
    for round in 0..10 {
        let config = random_config(&mut rng);
        let mut agent = MaBdq::new(config.clone()).expect("valid random config");
        train_a_little(&mut agent, &mut rng);
        let ckpt = agent.save_checkpoint();
        let bytes = encode_checkpoint(&ckpt);
        let decoded = decode_checkpoint(&bytes).expect("uncorrupted decode");
        assert_eq!(decoded, ckpt, "round {round}: lossless decode");
        for (a, b) in decoded.params.iter().zip(&ckpt.params) {
            assert_eq!(a.to_bits(), b.to_bits(), "round {round}: bit-identical");
        }

        // The decoded state must load back into a fresh agent of the same
        // architecture and reproduce the policy exactly.
        let mut restored = MaBdq::new(MaBdqConfig {
            seed: rng.next_u64(),
            ..config.clone()
        })
        .expect("valid random config");
        restored.load_checkpoint(&decoded).expect("matching shape");
        let probe: Vec<Vec<f32>> = (0..config.agents)
            .map(|_| vec![0.25; config.state_dim])
            .collect();
        assert_eq!(
            restored.q_values(&probe).unwrap(),
            agent.q_values(&probe).unwrap(),
            "round {round}: restored policy differs"
        );
    }
}

#[test]
fn corrupting_one_random_byte_fails_with_crc_error() {
    let mut rng = Xoshiro256::seed_from_u64(0xBAD5EED);
    for round in 0..10 {
        let config = random_config(&mut rng);
        let mut agent = MaBdq::new(config).expect("valid random config");
        train_a_little(&mut agent, &mut rng);
        let bytes = encode_checkpoint(&agent.save_checkpoint());

        let mut corrupted = bytes.clone();
        let pos = rng.range_usize(0, corrupted.len());
        let flip = 1 + rng.range_usize(0, 255) as u8; // never a no-op XOR
        corrupted[pos] ^= flip;
        match decode_checkpoint(&corrupted) {
            Err(RlError::CorruptCheckpoint { .. }) => {}
            other => {
                panic!("round {round}: byte {pos} xor {flip:#04x} must fail the CRC, got {other:?}")
            }
        }
    }
}

/// The one-lookup-per-byte CRC32 the codec shipped with until PR 19. It
/// lives here only: `src/` keeps the sliced implementation alone, and this
/// is what proves the two are the same function.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

fn random_bytes(rng: &mut Xoshiro256, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn sliced_crc_equals_the_bytewise_reference() {
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);

    // Every length across 32 eight-byte steps, at every alignment of the
    // slice start: each split into sliced body and bytewise tail occurs.
    let mut rng = Xoshiro256::seed_from_u64(0x00C4_C032);
    let buf = random_bytes(&mut rng, 16 + 256);
    for o in 0..16 {
        for n in 0..=256 {
            let slice = &buf[o..o + n];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "offset {o}, len {n}");
        }
    }

    let big = random_bytes(&mut rng, 1 << 20);
    assert_eq!(crc32(&big), crc32_bytewise(&big));
}

/// Two Adam slots of different lengths, a subnormal and `-0.0` among the
/// weights, a NaN with a payload among the priorities.
fn golden_checkpoint() -> MaBdqCheckpoint {
    MaBdqCheckpoint {
        agents: 2,
        state_dim: 3,
        branches: vec![4, 2],
        trunk_hidden: vec![8, 6],
        head_hidden: 5,
        params: vec![0.5, -1.25, -0.0, f32::from_bits(1), 3.75],
        adam: Moments {
            slots: vec![
                MomentSlot {
                    id: 0,
                    steps: 7,
                    m: vec![0.1, -0.2, 0.3],
                    v: vec![0.01, 0.02, 0.03],
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
        priorities: vec![1.0, f64::from_bits(0x7FF8_0000_0000_0BAD), 0.125],
    }
}

/// `encode_checkpoint(&golden_checkpoint())` as the parent of PR 19 wrote
/// it (per-element `put_f32`, bytewise CRC). Regenerate only for a new
/// format version; see `.claude/skills/verify/SKILL.md`.
#[rustfmt::skip]
const GOLDEN_FRAME: [u8; 248] = [
    0x54, 0x57, 0x49, 0x47, 0x43, 0x4b, 0x50, 0x54, 0x01, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0xa0, 0xbf, 0x00, 0x00, 0x00, 0x80,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x70, 0x40, 0x02, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xcd, 0xcc, 0xcc, 0x3d,
    0xcd, 0xcc, 0x4c, 0xbe, 0x9a, 0x99, 0x99, 0x3e, 0x0a, 0xd7, 0x23, 0x3c,
    0x0a, 0xd7, 0xa3, 0x3c, 0x8f, 0xc2, 0xf5, 0x3c, 0x05, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xbf,
    0x00, 0x00, 0x80, 0x3e, 0x03, 0x00, 0x00, 0x00, 0x29, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x04, 0x40, 0x04, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
    0xad, 0x0b, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x7f, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xc0, 0x3f, 0xc4, 0x1c, 0x69, 0x9e,
];
const GOLDEN_CRC: u32 = 0x9E69_1CC4;

// Byte offsets of the golden frame's counts (module docs of
// `twig_rl::checkpoint` give the layout).
const AT_BRANCHES_COUNT: usize = 24;
const AT_WEIGHTS_COUNT: usize = 52;
const AT_WEIGHTS: usize = 60;
const AT_SLOTS_COUNT: usize = 84;
const AT_SLOT0_LEN: usize = 108;
const AT_PRIORITIES_COUNT: usize = 212;

#[test]
fn v1_wire_format_is_pinned() {
    let bytes = encode_checkpoint(&golden_checkpoint());
    assert_eq!(bytes, GOLDEN_FRAME);
    let (body, footer) = bytes.split_at(bytes.len() - 4);
    assert_eq!(u32::from_le_bytes(footer.try_into().unwrap()), GOLDEN_CRC);
    assert_eq!(crc32(body), GOLDEN_CRC);

    // `==` on the struct would fail on the NaN priority; the bytes carry
    // its payload and the sign of `-0.0`.
    let decoded = decode_checkpoint(&GOLDEN_FRAME).expect("golden frame decodes");
    assert_eq!(encode_checkpoint(&decoded), GOLDEN_FRAME);
    assert_eq!(decoded.params[2].to_bits(), (-0.0f32).to_bits());
    assert_eq!(decoded.params[3].to_bits(), 1);
    assert_eq!(decoded.priorities[1].to_bits(), 0x7FF8_0000_0000_0BAD);
    assert_eq!(decoded.adam.slots[0].m.len(), 3);
    assert_eq!(decoded.adam.slots[1].v, vec![0.25]);
}

/// Recomputes the footer, so the frame reaches the section parser.
fn restamp(mut frame: Vec<u8>) -> Vec<u8> {
    let body = frame.len() - 4;
    let crc = crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
    frame
}

fn with_u64_at(at: usize, value: u64) -> Vec<u8> {
    let mut frame = GOLDEN_FRAME.to_vec();
    frame[at..at + 8].copy_from_slice(&value.to_le_bytes());
    restamp(frame)
}

#[test]
fn hostile_counts_are_rejected_before_any_allocation() {
    let body = GOLDEN_FRAME.len() - 4;
    let mut shape_list = GOLDEN_FRAME.to_vec();
    shape_list[AT_BRANCHES_COUNT..AT_BRANCHES_COUNT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    // A count that sized a `Vec` before being checked would, for all but
    // the one-past case, end this test in a capacity-overflow panic or an
    // allocation failure instead of an `Err`.
    let frames = [
        (
            "weights count u64::MAX",
            with_u64_at(AT_WEIGHTS_COUNT, u64::MAX),
        ),
        (
            "weights count * 4 overflows",
            with_u64_at(AT_WEIGHTS_COUNT, (usize::MAX / 4 + 1) as u64),
        ),
        (
            "priorities count * 8 overflows",
            with_u64_at(AT_PRIORITIES_COUNT, (usize::MAX / 8 + 1) as u64),
        ),
        (
            "weights count one past the remaining bytes",
            with_u64_at(AT_WEIGHTS_COUNT, ((body - AT_WEIGHTS) / 4 + 1) as u64),
        ),
        ("slot len past the end", with_u64_at(AT_SLOT0_LEN, 1 << 40)),
        ("slots count 2^60", with_u64_at(AT_SLOTS_COUNT, 1 << 60)),
        ("shape list count u32::MAX", restamp(shape_list)),
    ];
    for (what, frame) in &frames {
        validate_checkpoint_bytes(frame).expect("re-stamped frames pass the integrity pass");
        assert!(
            matches!(
                decode_checkpoint(frame),
                Err(RlError::CorruptCheckpoint { .. })
            ),
            "{what}"
        );
    }
    // The largest weights count that does fit is rejected later, by the
    // section tag that no longer lines up — not accepted, not a panic.
    let fits = with_u64_at(AT_WEIGHTS_COUNT, ((body - AT_WEIGHTS) / 4) as u64);
    assert!(matches!(
        decode_checkpoint(&fits),
        Err(RlError::CorruptCheckpoint { .. })
    ));
}

#[test]
fn flips_and_truncations_hit_sliced_body_and_bytewise_tail() {
    // The CRC covers the frame minus its footer: 244 bytes, thirty sliced
    // steps and a four-byte tail. (Every field is a multiple of four bytes
    // wide, so a frame whose *total* length is off a multiple of eight has
    // no tail under the CRC.)
    let covered = GOLDEN_FRAME.len() - 4;
    assert!(covered >= 64 && !covered.is_multiple_of(8));
    for i in 0..GOLDEN_FRAME.len() {
        for bit in [0x01, 0x80] {
            let mut bad = GOLDEN_FRAME;
            bad[i] ^= bit;
            assert!(
                matches!(
                    decode_checkpoint(&bad),
                    Err(RlError::CorruptCheckpoint { .. })
                ),
                "flip {bit:#04x} at byte {i}"
            );
            assert!(validate_checkpoint_bytes(&bad).is_err(), "byte {i}");
        }
    }
    for n in 0..GOLDEN_FRAME.len() {
        assert!(
            matches!(
                decode_checkpoint(&GOLDEN_FRAME[..n]),
                Err(RlError::CorruptCheckpoint { .. })
            ),
            "truncation to {n} bytes"
        );
    }
}

#[test]
fn decode_payload_keeps_the_integrity_details() {
    let detail = |frame: &[u8]| match decode_payload(frame) {
        Err(FedError::CorruptPayload { detail }) => detail,
        other => panic!("expected CorruptPayload, got {other:?}"),
    };
    // The strings the parent of PR 19 produced, when `decode_payload` ran
    // `validate_checkpoint_bytes` and then `decode_checkpoint`.
    let mut damaged = GOLDEN_FRAME;
    damaged[100] ^= 0x40;
    assert_eq!(
        detail(&damaged),
        "corrupt checkpoint: CRC mismatch: stored 0x9e691cc4, computed 0x85e63888"
    );
    let mut magic = GOLDEN_FRAME.to_vec();
    magic[0] = b'X';
    assert_eq!(detail(&restamp(magic)), "corrupt checkpoint: bad magic");
    let mut version = GOLDEN_FRAME.to_vec();
    version[8] = 9;
    assert_eq!(
        detail(&restamp(version)),
        "corrupt checkpoint: unsupported format version 9 (expected 1)"
    );
    assert_eq!(
        detail(&GOLDEN_FRAME[..11]),
        "corrupt checkpoint: 11 bytes is too short"
    );
}
