//! Character-level vocabulary and encoding for language modelling (§4.2).
//!
//! The paper trains a character-level LSTM over the corpus with a 1-of-K coded
//! vocabulary. This module builds that vocabulary from corpus text and
//! provides encode/decode between text and index sequences, plus the special
//! start/end-of-kernel markers used when assembling training batches.

use clgen_wire::{Decoder, Encoder, WireError};
use std::collections::BTreeMap;

/// Index type for vocabulary entries.
pub type TokenId = u32;

/// A character vocabulary with a reserved padding/unknown entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vocabulary {
    chars: Vec<char>,
    index: BTreeMap<char, TokenId>,
}

/// Id reserved for characters outside the vocabulary.
pub const UNKNOWN_ID: TokenId = 0;

impl Vocabulary {
    /// Build a vocabulary from a corpus text. Id 0 is reserved for unknown
    /// characters; all characters present in `text` get consecutive ids in
    /// sorted order (deterministic across runs).
    pub fn from_text(text: &str) -> Vocabulary {
        let mut set: Vec<char> = text.chars().collect();
        set.sort_unstable();
        set.dedup();
        Vocabulary::from_alphabet(set)
    }

    /// Rebuild a vocabulary from an explicit alphabet, **preserving its
    /// order**: `alphabet[i]` gets id `i + 1` (id 0 stays the unknown entry).
    /// This is the checkpoint-loading constructor — ids must match the
    /// vocabulary the model was trained with exactly, so the alphabet is
    /// *not* re-sorted or deduplicated.
    pub fn from_alphabet(alphabet: impl IntoIterator<Item = char>) -> Vocabulary {
        let mut chars = vec!['\u{FFFD}'];
        chars.extend(alphabet);
        let index = chars
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, c)| (*c, i as TokenId))
            .collect();
        Vocabulary { chars, index }
    }

    /// Append this vocabulary to a checkpoint (the alphabet in id order).
    pub fn encode_into(&self, enc: &mut Encoder) {
        let alphabet: String = self.chars[1..].iter().collect();
        enc.str(&alphabet);
    }

    /// Decode a vocabulary written by [`Vocabulary::encode_into`]. The
    /// decoded vocabulary assigns every character the same id it had when
    /// saved.
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Vocabulary, WireError> {
        let alphabet = dec.str()?;
        Ok(Vocabulary::from_alphabet(alphabet.chars()))
    }

    /// Number of entries (including the unknown entry).
    pub fn len(&self) -> usize {
        self.chars.len()
    }

    /// True if the vocabulary only contains the unknown entry.
    pub fn is_empty(&self) -> bool {
        self.chars.len() <= 1
    }

    /// Encode a character.
    pub fn encode_char(&self, c: char) -> TokenId {
        self.index.get(&c).copied().unwrap_or(UNKNOWN_ID)
    }

    /// Decode an id back to a character (unknown ids decode to `\u{FFFD}`).
    pub fn decode_char(&self, id: TokenId) -> char {
        self.chars.get(id as usize).copied().unwrap_or('\u{FFFD}')
    }

    /// Encode a string into ids.
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        text.chars().map(|c| self.encode_char(c)).collect()
    }

    /// Decode a sequence of ids into a string (unknown ids are skipped).
    pub fn decode(&self, ids: &[TokenId]) -> String {
        ids.iter()
            .filter(|&&id| id != UNKNOWN_ID)
            .map(|&id| self.decode_char(id))
            .collect()
    }

    /// True if every character of `text` is representable.
    pub fn covers(&self, text: &str) -> bool {
        text.chars().all(|c| self.index.contains_key(&c))
    }

    /// All characters in the vocabulary (excluding the unknown slot).
    pub fn alphabet(&self) -> &[char] {
        &self.chars[1..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_encoding() {
        let text = "__kernel void A(__global float* a) {\n  a[0] = 1.0f;\n}\n";
        let vocab = Vocabulary::from_text(text);
        let ids = vocab.encode(text);
        assert_eq!(vocab.decode(&ids), text);
        assert!(vocab.covers(text));
    }

    #[test]
    fn unknown_characters_map_to_reserved_id() {
        let vocab = Vocabulary::from_text("abc");
        assert_eq!(vocab.encode_char('z'), UNKNOWN_ID);
        assert!(vocab.encode_char('a') != UNKNOWN_ID);
        assert!(!vocab.covers("xyz"));
    }

    #[test]
    fn vocabulary_is_deterministic_and_compact() {
        let a = Vocabulary::from_text("kernel kernel kernel");
        let b = Vocabulary::from_text("kernel kernel kernel");
        assert_eq!(a, b);
        // ' ', 'e', 'k', 'l', 'n', 'r' + unknown
        assert_eq!(a.len(), 7);
        assert_eq!(a.alphabet().len(), 6);
    }

    #[test]
    fn wire_roundtrip_preserves_every_id() {
        let text = "__kernel void A(__global float* a) {\n  a[0] = 1.0f;\n}\n";
        let vocab = Vocabulary::from_text(text);
        let mut enc = Encoder::new();
        vocab.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Vocabulary::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, vocab);
        for c in text.chars() {
            assert_eq!(back.encode_char(c), vocab.encode_char(c));
        }
    }

    #[test]
    fn opencl_corpus_vocabulary_is_small() {
        // A realistic rewritten corpus uses well under 100 distinct characters,
        // which keeps the softmax of the character LSTM small.
        let sample = "__kernel void A(__global float* a, const int b) {\n  int c = get_global_id(0);\n  if (c < b) {\n    a[c] = a[c] * 2.5f + 1.0f;\n  }\n}\n";
        let vocab = Vocabulary::from_text(sample);
        assert!(vocab.len() < 100);
    }
}
