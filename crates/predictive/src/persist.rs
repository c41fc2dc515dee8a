//! Wire-codec persistence for trained [`MappingModel`]s.
//!
//! # Checkpoint format
//!
//! [`MappingModel::save`] writes a versioned binary container:
//!
//! | field | encoding |
//! |---|---|
//! | magic | 8 raw bytes `CLGENPRD` |
//! | format version | `u32` little-endian (currently 1) |
//! | num_classes | `usize` |
//! | num_features | `usize` |
//! | root node | recursive: tag `u8` (0 = leaf, 1 = split) then payload |
//!
//! A leaf carries `class: usize` and its length-prefixed `counts` histogram; a
//! split carries `feature: usize`, `threshold: f64` (IEEE-754 bit pattern, so
//! reload is bit-exact) and both children. Decoding bounds the node recursion
//! at [`MAX_TREE_DEPTH`] so a corrupt or hostile file cannot blow the stack,
//! and refuses a leaf class or a split feature outside the declared
//! `num_classes` / `num_features`, so a tree that decodes predicts in range.

use crate::model::MappingModel;
use crate::tree::{DecisionTree, Node};
use clgen_wire::{Decoder, Encoder, WireError};
use std::path::Path;

/// Magic header of a mapping-model checkpoint file.
pub const MAPPING_MAGIC: &str = "CLGENPRD";
/// Current mapping-model checkpoint container version.
pub const MAPPING_VERSION: u32 = 1;
/// Maximum node depth accepted when decoding (training caps depth far below
/// this; the bound only guards against corrupt/hostile inputs).
pub const MAX_TREE_DEPTH: usize = 64;

const TAG_LEAF: u8 = 0;
const TAG_SPLIT: u8 = 1;

/// Errors raised while loading a mapping-model checkpoint.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The bytes are not a valid `CLGENPRD` container.
    Wire(WireError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        PersistError::Wire(e)
    }
}

fn encode_node(node: &Node, enc: &mut Encoder) {
    match node {
        Node::Leaf { class, counts } => {
            enc.u8(TAG_LEAF);
            enc.usize(*class);
            enc.usize(counts.len());
            for &c in counts {
                enc.usize(c);
            }
        }
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            enc.u8(TAG_SPLIT);
            enc.usize(*feature);
            enc.f64(*threshold);
            encode_node(left, enc);
            encode_node(right, enc);
        }
    }
}

/// Decode one node of a tree over `num_classes` classes and `num_features`
/// feature columns.
fn decode_node(
    dec: &mut Decoder<'_>,
    depth: usize,
    num_classes: usize,
    num_features: usize,
) -> Result<Node, WireError> {
    if depth > MAX_TREE_DEPTH {
        return Err(WireError::Invalid {
            what: "decision tree deeper than MAX_TREE_DEPTH",
        });
    }
    match dec.u8()? {
        TAG_LEAF => {
            let class = dec.usize("leaf class")?;
            if class >= num_classes {
                return Err(WireError::Invalid {
                    what: "leaf class outside the model's classes",
                });
            }
            let len = dec.usize_bounded(std::mem::size_of::<usize>(), "leaf counts")?;
            let mut counts = Vec::with_capacity(len);
            for _ in 0..len {
                counts.push(dec.usize("leaf count")?);
            }
            Ok(Node::Leaf { class, counts })
        }
        TAG_SPLIT => {
            let feature = dec.usize("split feature")?;
            if feature >= num_features {
                return Err(WireError::Invalid {
                    what: "split feature outside the model's feature columns",
                });
            }
            let threshold = dec.f64()?;
            let left = Box::new(decode_node(dec, depth + 1, num_classes, num_features)?);
            let right = Box::new(decode_node(dec, depth + 1, num_classes, num_features)?);
            Ok(Node::Split {
                feature,
                threshold,
                left,
                right,
            })
        }
        _ => Err(WireError::Invalid {
            what: "unknown tree node tag",
        }),
    }
}

impl MappingModel {
    /// Serialize the model to a `CLGENPRD` byte container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let tree = self.tree();
        let mut enc = Encoder::new();
        enc.magic(MAPPING_MAGIC);
        enc.u32(MAPPING_VERSION);
        enc.usize(tree.num_classes);
        enc.usize(tree.num_features);
        encode_node(&tree.root, &mut enc);
        enc.into_bytes()
    }

    /// Decode a model previously produced by [`MappingModel::to_bytes`]. The
    /// reload is bit-exact: every threshold round-trips through its IEEE-754
    /// bit pattern, so the loaded model predicts identically to the saved one.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the bytes are truncated, carry a bad
    /// magic/version, or encode an implausible tree.
    pub fn from_bytes(bytes: &[u8]) -> Result<MappingModel, WireError> {
        let mut dec = Decoder::new(bytes);
        dec.magic(MAPPING_MAGIC)?;
        let version = dec.u32()?;
        if version != MAPPING_VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                supported: MAPPING_VERSION,
            });
        }
        let num_classes = dec.usize("num_classes")?;
        let num_features = dec.usize("num_features")?;
        if num_classes == 0 {
            return Err(WireError::Invalid {
                what: "mapping model with zero classes",
            });
        }
        let root = decode_node(&mut dec, 0, num_classes, num_features)?;
        dec.finish()?;
        Ok(MappingModel::from_tree(DecisionTree {
            root,
            num_classes,
            num_features,
        }))
    }

    /// Write the model checkpoint to a file.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError::Io`] when the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Load a model checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] when the file cannot be read or does not
    /// decode as a `CLGENPRD` container.
    pub fn load(path: impl AsRef<Path>) -> Result<MappingModel, PersistError> {
        let bytes = std::fs::read(path)?;
        Ok(MappingModel::from_bytes(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Example};

    fn trained_model() -> MappingModel {
        let mut d = Dataset::new();
        for i in 0..24 {
            let size = (i + 1) as f64 * 37.0;
            let gpu_better = size > 300.0;
            d.push(Example {
                features: vec![size, (i % 5) as f64, 1.0 / size],
                benchmark: format!("b{}", i / 4),
                suite: "S".into(),
                id: format!("b{i}"),
                cpu_time: if gpu_better { 10.0 } else { 1.0 },
                gpu_time: if gpu_better { 1.0 } else { 10.0 },
            });
        }
        MappingModel::train(&d)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let model = trained_model();
        let bytes = model.to_bytes();
        let reloaded = MappingModel::from_bytes(&bytes).unwrap();
        assert_eq!(&model, &reloaded);
        // Predictions agree on a grid of probe vectors.
        for i in 0..50 {
            let v = vec![i as f64 * 20.0, (i % 7) as f64, 0.01];
            assert_eq!(model.predict_vector(&v), reloaded.predict_vector(&v));
        }
    }

    #[test]
    fn file_roundtrip() {
        let model = trained_model();
        let path = std::env::temp_dir().join("clgen-prd-roundtrip.ckpt");
        model.save(&path).unwrap();
        let reloaded = MappingModel::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(model, reloaded);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = MappingModel::from_bytes(b"NOTAPRDX\0\0\0\0").unwrap_err();
        assert!(matches!(err, WireError::BadMagic { .. }));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = trained_model().to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 9] {
            assert!(MappingModel::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = trained_model().to_bytes();
        bytes.push(0);
        assert!(matches!(
            MappingModel::from_bytes(&bytes).unwrap_err(),
            WireError::TrailingBytes { .. }
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut enc = Encoder::new();
        enc.magic(MAPPING_MAGIC);
        enc.u32(MAPPING_VERSION);
        enc.usize(2);
        enc.usize(4);
        enc.u8(9); // bogus node tag
        assert!(matches!(
            MappingModel::from_bytes(&enc.into_bytes()).unwrap_err(),
            WireError::Invalid { .. }
        ));
    }

    /// A two-class, three-feature container around one hand-written root.
    fn container(root: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.magic(MAPPING_MAGIC);
        enc.u32(MAPPING_VERSION);
        enc.usize(2);
        enc.usize(3);
        root(&mut enc);
        enc.into_bytes()
    }

    fn leaf(enc: &mut Encoder, class: usize) {
        enc.u8(TAG_LEAF);
        enc.usize(class);
        enc.usize(0);
    }

    #[test]
    fn leaf_class_outside_the_classes_rejected() {
        assert!(MappingModel::from_bytes(&container(|enc| leaf(enc, 1))).is_ok());
        assert!(matches!(
            MappingModel::from_bytes(&container(|enc| leaf(enc, 2))).unwrap_err(),
            WireError::Invalid { .. }
        ));
    }

    #[test]
    fn split_feature_outside_the_columns_rejected() {
        let split_on = |feature: usize| {
            container(|enc| {
                enc.u8(TAG_SPLIT);
                enc.usize(feature);
                enc.f64(0.5);
                leaf(enc, 0);
                leaf(enc, 1);
            })
        };
        assert!(MappingModel::from_bytes(&split_on(2)).is_ok());
        assert!(matches!(
            MappingModel::from_bytes(&split_on(3)).unwrap_err(),
            WireError::Invalid { .. }
        ));
    }
}
