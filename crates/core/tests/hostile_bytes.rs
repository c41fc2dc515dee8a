//! Hostile bytes into the `CLGENCRP` decoder: whatever is done to a
//! well-formed saved corpus stage — truncation, bit flips, lying length and
//! count fields — `CorpusStage::from_bytes` returns a typed `ClgenError` or a
//! stage that re-encodes to bytes that decode to the same bytes again. Never
//! a panic, and never an allocation sized by an unchecked field.
//! (`checkpoint_fuzz.rs` samples random mutations of a mined corpus; this
//! walks every offset and every field of a two-kernel one.)

use clgen::{ClgenBuilder, ClgenError, ClgenOptions, CorpusStage};
use clgen_corpus::{Corpus, CorpusKernel, CorpusStats};

const KERNELS: [(&str, &str); 2] = [
    (
        "__kernel void A(__global int* a) {\n  a[0] = 1;\n}",
        "repo/one",
    ),
    (
        "__kernel void B(__global float* a, const int b) {\n  a[b] = 2.0f;\n}",
        "repo/two",
    ),
];

fn stage_bytes() -> Vec<u8> {
    let corpus = Corpus {
        kernels: KERNELS
            .iter()
            .map(|&(source, repository)| CorpusKernel {
                source: source.to_string(),
                repository: repository.to_string(),
                instructions: 3,
            })
            .collect(),
        stats: CorpusStats {
            repositories: 2,
            content_files: 5,
            discard_rate_with_shim: 0.32,
            corpus_kernels: 2,
            ..CorpusStats::default()
        },
    };
    ClgenBuilder::new()
        .adopt_corpus(corpus)
        .expect("two kernels are a corpus")
        .to_bytes()
}

fn decode(bytes: &[u8]) -> Result<CorpusStage, ClgenError> {
    CorpusStage::from_bytes(bytes, ClgenOptions::default())
}

/// Offsets of every `u64` that is a length or a count, and whether it frames
/// the bytes after it (the alphabet length, the kernel count, each kernel's
/// two string lengths) or is a free-standing number (each instruction count,
/// the nine integer statistics).
fn length_fields(bytes: &[u8]) -> Vec<(usize, bool)> {
    let length_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 8 + 4; // magic, container version
    let mut fields = vec![(at, true)];
    at += 8 + length_at(at); // the alphabet
    at += 4; // corpus block version
    fields.push((at, true));
    at += 8;
    for (source, repository) in KERNELS {
        for text in [source, repository] {
            assert_eq!(length_at(at), text.len(), "layout walk is out of date");
            fields.push((at, true));
            at += 8 + text.len();
        }
        fields.push((at, false));
        at += 8;
    }
    // usize x 4, f64 x 2, usize, f64, usize x 4
    for is_count in [1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1] {
        if is_count == 1 {
            fields.push((at, false));
        }
        at += 8;
    }
    assert_eq!(at, bytes.len(), "layout walk is out of date");
    fields
}

/// Decode `bytes`: a typed decode error, or a stage that is consistent.
fn check(bytes: &[u8]) {
    match decode(bytes) {
        Ok(stage) => {
            let again = stage.to_bytes();
            let back = decode(&again).expect("re-encoding decodes");
            assert_eq!(back.to_bytes(), again, "re-encoding is not a fixed point");
        }
        Err(ClgenError::Checkpoint(_) | ClgenError::EmptyCorpus | ClgenError::EmptyVocabulary) => {}
        Err(other) => panic!("unexpected error class: {other:?}"),
    }
}

#[test]
fn well_formed_bytes_decode() {
    let bytes = stage_bytes();
    let stage = decode(&bytes).expect("stage decodes");
    assert_eq!(stage.corpus().len(), KERNELS.len());
    assert_eq!(stage.to_bytes(), bytes);
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let bytes = stage_bytes();
    for len in 0..bytes.len() {
        assert!(
            matches!(decode(&bytes[..len]), Err(ClgenError::Checkpoint(_))),
            "{len}"
        );
    }
}

#[test]
fn bit_flips_never_panic() {
    let bytes = stage_bytes();
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(&flipped);
    }
}

#[test]
fn lying_length_and_count_fields_never_panic() {
    let bytes = stage_bytes();
    for (at, framing) in length_fields(&bytes) {
        let honest = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        for lie in [0, u64::MAX, honest + 1] {
            let mut lying = bytes.clone();
            lying[at..at + 8].copy_from_slice(&lie.to_le_bytes());
            check(&lying);
            // A free-standing number can be anything; a framing one cannot
            // change without contradicting the bytes it frames.
            assert_eq!(decode(&lying).is_err(), framing, "field at {at} = {lie}");
        }
    }
}

/// A kernel count or a string length of `u64::MAX` must be refused from the
/// bytes that remain, not handed to an allocator.
#[test]
fn a_huge_declared_length_fails_before_allocating() {
    let bytes = stage_bytes();
    // the alphabet length, the kernel count, the first source length
    for &(at, _) in &length_fields(&bytes)[..3] {
        let mut lying = bytes[..at + 8 + 16].to_vec();
        lying[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode(&lying),
            Err(ClgenError::Checkpoint(
                clgen_wire::WireError::ImplausibleLength { .. }
            ))
        ));
    }
}
