//! # clgen-wire
//!
//! Hand-rolled binary wire format primitives for checkpoint persistence.
//!
//! The build environment has no serialisation framework, so the checkpoint
//! formats of the workspace are written by hand over these primitives. The
//! encoding is deliberately plain:
//!
//! * every integer is fixed-width little-endian,
//! * lengths are `u64` prefixes,
//! * floats are stored as their IEEE-754 bit patterns (`f32::to_le_bytes`),
//!   which makes round-trips **bit-exact** — the foundation of the
//!   byte-identical-sampling guarantee of model checkpoints,
//! * strings are length-prefixed UTF-8.
//!
//! [`Encoder`] appends to a growable byte buffer; [`Decoder`] is a
//! bounds-checked cursor over a byte slice. Every read returns
//! [`WireError::UnexpectedEof`] instead of panicking when the input is
//! truncated, so corrupt checkpoints surface as typed errors.
//!
//! ```
//! use clgen_wire::{Decoder, Encoder};
//!
//! let mut enc = Encoder::new();
//! enc.u32(7);
//! enc.str("lstm");
//! enc.f32_slice(&[1.0, -0.5]);
//! let bytes = enc.into_bytes();
//!
//! let mut dec = Decoder::new(&bytes);
//! assert_eq!(dec.u32().unwrap(), 7);
//! assert_eq!(dec.str().unwrap(), "lstm");
//! assert_eq!(dec.f32_vec().unwrap(), vec![1.0, -0.5]);
//! assert!(dec.finish().is_ok());
//! ```

#![warn(missing_docs)]

use std::fmt;

/// Errors produced while decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the expected field.
    UnexpectedEof {
        /// What the decoder was trying to read.
        expected: &'static str,
    },
    /// A magic header did not match.
    BadMagic {
        /// The magic string that was expected.
        expected: &'static str,
    },
    /// The format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the input.
        found: u32,
        /// Highest version this build can read.
        supported: u32,
    },
    /// A length-prefixed field declared an implausible size.
    ImplausibleLength {
        /// The declared element count.
        declared: u64,
        /// What was being read.
        field: &'static str,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// Decoding finished with unread bytes left over.
    TrailingBytes {
        /// Number of bytes left unread.
        remaining: usize,
    },
    /// A field held a value the caller's schema does not allow.
    Invalid {
        /// Description of the violated constraint.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input while reading {expected}")
            }
            WireError::BadMagic { expected } => {
                write!(f, "bad magic header (expected {expected:?})")
            }
            WireError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (supported <= {supported})"
                )
            }
            WireError::ImplausibleLength { declared, field } => {
                write!(f, "implausible length {declared} for {field}")
            }
            WireError::InvalidUtf8 => f.write_str("string field holds invalid UTF-8"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the last field")
            }
            WireError::Invalid { what } => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends wire-encoded fields to a byte buffer.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    bytes: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Write a raw magic header (no length prefix).
    pub fn magic(&mut self, magic: &str) {
        self.bytes.extend_from_slice(magic.as_bytes());
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64` (portable across word sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f32` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f32(&mut self, v: f32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Write a length-prefixed slice of `f32` bit patterns.
    pub fn f32_slice(&mut self, values: &[f32]) {
        self.usize(values.len());
        for &v in values {
            self.f32(v);
        }
    }

    /// Write a length-prefixed slice of little-endian `u32`s.
    pub fn u32_slice(&mut self, values: &[u32]) {
        self.usize(values.len());
        for &v in values {
            self.u32(v);
        }
    }
}

/// A bounds-checked cursor over wire-encoded bytes.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Decoder<'a> {
        Decoder { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { expected });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Check a raw magic header written by [`Encoder::magic`].
    pub fn magic(&mut self, magic: &'static str) -> Result<(), WireError> {
        let found = self.take(magic.len(), "magic header")?;
        if found != magic.as_bytes() {
            return Err(WireError::BadMagic { expected: magic });
        }
        Ok(())
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `usize` written by [`Encoder::usize`]. Use this for scalar
    /// counts; for a length that drives an allocation or a loop, prefer
    /// [`Decoder::usize_bounded`].
    pub fn usize(&mut self, field: &'static str) -> Result<usize, WireError> {
        let declared = self.u64()?;
        usize::try_from(declared).map_err(|_| WireError::ImplausibleLength { declared, field })
    }

    /// Read a `usize` written by [`Encoder::usize`] that prefixes `unit`-byte
    /// elements, sanity-bounded by the remaining input so corrupt lengths
    /// cannot trigger huge allocations.
    pub fn usize_bounded(&mut self, unit: usize, field: &'static str) -> Result<usize, WireError> {
        let declared = self.u64()?;
        let max = (self.remaining() / unit.max(1)) as u64;
        if declared > max {
            return Err(WireError::ImplausibleLength { declared, field });
        }
        Ok(declared as usize)
    }

    /// Read an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        let b = self.take(4, "f32")?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let b = self.take(8, "f64")?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.usize_bounded(1, "string")?;
        let bytes = self.take(len, "string body")?;
        std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }

    /// Read a length-prefixed `f32` slice into a fresh vector.
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, WireError> {
        let len = self.usize_bounded(4, "f32 slice")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f32()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed `u32` slice into a fresh vector.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, WireError> {
        let len = self.usize_bounded(4, "u32 slice")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Assert that every byte has been consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            return Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut enc = Encoder::new();
        enc.magic("TEST");
        enc.u8(0xAB);
        enc.u32(u32::MAX - 1);
        enc.u64(1 << 40);
        enc.usize(12);
        enc.f32(-0.0);
        enc.f64(std::f64::consts::PI);
        enc.str("hello κόσμε");
        let bytes = enc.into_bytes();

        let mut dec = Decoder::new(&bytes);
        dec.magic("TEST").unwrap();
        assert_eq!(dec.u8().unwrap(), 0xAB);
        assert_eq!(dec.u32().unwrap(), u32::MAX - 1);
        assert_eq!(dec.u64().unwrap(), 1 << 40);
        assert_eq!(dec.usize("count").unwrap(), 12);
        assert_eq!(dec.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(dec.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(dec.str().unwrap(), "hello κόσμε");
        dec.finish().unwrap();
    }

    #[test]
    fn float_bit_patterns_survive() {
        let specials = [f32::NAN, f32::INFINITY, f32::MIN_POSITIVE, -1.5e-42];
        let mut enc = Encoder::new();
        enc.f32_slice(&specials);
        let bytes = enc.into_bytes();
        let back = Decoder::new(&bytes).f32_vec().unwrap();
        for (a, b) in specials.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mut enc = Encoder::new();
        enc.u64(5);
        let mut bytes = enc.into_bytes();
        bytes.truncate(3);
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u64(), Err(WireError::UnexpectedEof { expected: "u64" }));
    }

    #[test]
    fn implausible_length_is_rejected_before_allocation() {
        let mut enc = Encoder::new();
        enc.u64(u64::MAX / 8);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            dec.f32_vec(),
            Err(WireError::ImplausibleLength { .. })
        ));
    }

    #[test]
    fn bad_magic_and_trailing_bytes() {
        let mut enc = Encoder::new();
        enc.magic("GOOD");
        enc.u8(1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(
            dec.magic("EVIL"),
            Err(WireError::BadMagic { expected: "EVIL" })
        );
        let mut dec = Decoder::new(&bytes);
        dec.magic("GOOD").unwrap();
        assert_eq!(dec.finish(), Err(WireError::TrailingBytes { remaining: 1 }));
    }
}
