//! Hostile bytes into the weight decoders: whatever is done to a well-formed
//! `TrainSnapshot` / LSTM weight block — truncation, bit flips, lying length
//! and shape fields — `TrainSnapshot::from_bytes` and `decode_lstm` return a
//! typed `WireError` or a model that is internally consistent (its config
//! validates and it re-encodes to bytes that decode to the same bytes again).
//! Never a panic, and never an allocation sized by an unchecked field.

use clgen_neural::checkpoint::{decode_lstm, encode_lstm};
use clgen_neural::lstm::{LstmConfig, LstmModel};
use clgen_neural::train::TrainSnapshot;
use clgen_wire::{Decoder, Encoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CONFIG: LstmConfig = LstmConfig {
    vocab_size: 6,
    hidden_size: 8,
    num_layers: 2,
    seed: 3,
};

/// Snapshot bytes ahead of the LSTM weight block: magic, version, epoch.
const SNAPSHOT_PREFIX: usize = 8 + 4 + 8;

fn snapshot_bytes() -> Vec<u8> {
    TrainSnapshot::capture(&LstmModel::new(CONFIG), 3).to_bytes()
}

fn lstm_bytes(model: &LstmModel) -> Vec<u8> {
    let mut enc = Encoder::new();
    encode_lstm(model, &mut enc);
    enc.into_bytes()
}

/// Offsets, within the snapshot, of every `u64` that is a count, a shape or a
/// length: the epoch, the three config sizes, and each tensor's header.
fn length_fields() -> Vec<usize> {
    let (nv, hs) = (CONFIG.vocab_size, CONFIG.hidden_size);
    let mut fields = vec![SNAPSHOT_PREFIX - 8];
    let mut at = SNAPSHOT_PREFIX + 4; // past the weight block's version
    fields.extend([at, at + 8, at + 16]); // vocab, hidden, layers
    at += 32; // ... and the seed
    let mut matrix = |at: &mut usize, elems: usize| {
        fields.extend([*at, *at + 8, *at + 16]); // rows, cols, data length
        *at += 24 + 4 * elems;
    };
    let mut vectors = Vec::new();
    for l in 0..CONFIG.num_layers {
        matrix(&mut at, 4 * hs * if l == 0 { nv } else { hs });
        matrix(&mut at, 4 * hs * hs);
        vectors.push(at);
        at += 8 + 4 * 4 * hs;
    }
    matrix(&mut at, nv * hs);
    vectors.push(at);
    at += 8 + 4 * nv;
    assert_eq!(at, snapshot_bytes().len(), "layout walk is out of date");
    fields.extend(vectors);
    fields
}

/// Decode `block` as an LSTM weight block: an error, or a consistent model.
fn check_lstm_block(block: &[u8]) {
    let Ok(model) = decode_lstm(&mut Decoder::new(block)) else {
        return;
    };
    model.config.validate().expect("decoded config validates");
    let again = lstm_bytes(&model);
    let back = decode_lstm(&mut Decoder::new(&again)).expect("re-encoding decodes");
    assert_eq!(lstm_bytes(&back), again, "re-encoding is not a fixed point");
}

/// Decode `bytes` as a snapshot and its tail as a bare weight block.
fn check(bytes: &[u8]) {
    if let Ok(snapshot) = TrainSnapshot::from_bytes(bytes) {
        snapshot
            .model
            .config
            .validate()
            .expect("decoded config validates");
        let again = snapshot.to_bytes();
        let back = TrainSnapshot::from_bytes(&again).expect("re-encoding decodes");
        assert_eq!(back.to_bytes(), again, "re-encoding is not a fixed point");
    }
    if let Some(block) = bytes.get(SNAPSHOT_PREFIX..) {
        check_lstm_block(block);
    }
}

#[test]
fn well_formed_bytes_decode() {
    let bytes = snapshot_bytes();
    let snapshot = TrainSnapshot::from_bytes(&bytes).expect("snapshot decodes");
    assert_eq!(snapshot.model, LstmModel::new(CONFIG));
    assert_eq!(bytes[SNAPSHOT_PREFIX..], lstm_bytes(&snapshot.model)[..]);
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let bytes = snapshot_bytes();
    for len in 0..bytes.len() {
        assert!(TrainSnapshot::from_bytes(&bytes[..len]).is_err(), "{len}");
        check(&bytes[..len]);
    }
}

#[test]
fn bit_flips_never_panic() {
    let bytes = snapshot_bytes();
    // Every bit of the headers and the first tensor's leading rows, then a
    // random sample of the rest.
    let dense = SNAPSHOT_PREFIX + 256;
    let mut rng = StdRng::seed_from_u64(0xB17F);
    let sampled = (0..512).map(|_| rng.gen_range(dense * 8..bytes.len() * 8));
    for bit in (0..dense * 8).chain(sampled.collect::<Vec<_>>()) {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(&flipped);
    }
}

#[test]
fn lying_length_and_shape_fields_never_panic() {
    let bytes = snapshot_bytes();
    for at in length_fields() {
        let honest = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        for lie in [0, u64::MAX, honest + 1] {
            let mut lying = bytes.clone();
            lying[at..at + 8].copy_from_slice(&lie.to_le_bytes());
            check(&lying);
            // Only the epoch can change without contradicting another field.
            let decoded = TrainSnapshot::from_bytes(&lying);
            assert_eq!(
                decoded.is_ok(),
                at == SNAPSHOT_PREFIX - 8,
                "field at {at} = {lie}"
            );
        }
    }
}

/// 64 bytes are exactly a weight block's header plus the first tensor's
/// header: a data length of `u64::MAX` there must be refused from the bytes
/// that remain, not handed to an allocator.
#[test]
fn a_huge_declared_length_fails_before_allocating() {
    let mut block = lstm_bytes(&LstmModel::new(CONFIG));
    block.truncate(64);
    for at in [20, 52] {
        // the layer count, the first tensor's data length
        let mut lying = block.clone();
        lying[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_lstm(&mut Decoder::new(&lying)).is_err());
    }
}
