//! Hostile bytes into the `CLGENPRD` decoder: whatever is done to a
//! well-formed mapping-model checkpoint — truncation, bit flips, lying count
//! and index fields — `MappingModel::from_bytes` returns a typed `WireError`
//! or a model whose tree is in range everywhere (so it predicts a declared
//! class) and re-encodes to bytes that decode to the same bytes again. Never
//! a panic, and never an allocation sized by an unchecked field.

use predictive::persist::MAX_TREE_DEPTH;
use predictive::tree::Node;
use predictive::{DecisionTree, MappingModel};

const NUM_CLASSES: usize = 2;
const NUM_FEATURES: usize = 3;
/// Container bytes ahead of the root node: magic, version and the two sizes.
const HEADER: usize = 8 + 4 + 8 + 8;

fn leaf(class: usize, counts: [usize; NUM_CLASSES]) -> Box<Node> {
    Box::new(Node::Leaf {
        class,
        counts: counts.to_vec(),
    })
}

/// Three splits over all three feature columns, four leaves.
fn model() -> MappingModel {
    let split = |feature, threshold, left, right| {
        Box::new(Node::Split {
            feature,
            threshold,
            left,
            right,
        })
    };
    let root = split(
        0,
        300.0,
        split(2, 0.5, leaf(0, [5, 0]), leaf(1, [1, 2])),
        split(1, -1.25, leaf(1, [0, 7]), leaf(0, [3, 3])),
    );
    MappingModel::from_tree(DecisionTree {
        root: *root,
        num_classes: NUM_CLASSES,
        num_features: NUM_FEATURES,
    })
}

/// Offsets of every `u64` that is a count or an index: the two sizes, each
/// split's feature, each leaf's class, histogram length and histogram cells.
fn count_fields(bytes: &[u8]) -> Vec<usize> {
    fn walk(node: &Node, at: &mut usize, fields: &mut Vec<usize>) {
        *at += 1; // the tag
        match node {
            Node::Leaf { counts, .. } => {
                let cells = 2 + counts.len(); // class, length, cells
                fields.extend((0..cells).map(|i| *at + 8 * i));
                *at += 8 * cells;
            }
            Node::Split { left, right, .. } => {
                fields.push(*at);
                *at += 16; // feature, threshold
                walk(left, at, fields);
                walk(right, at, fields);
            }
        }
    }
    let mut fields = vec![HEADER - 16, HEADER - 8];
    let mut at = HEADER;
    walk(&model().tree().root, &mut at, &mut fields);
    assert_eq!(at, bytes.len(), "layout walk is out of date");
    fields
}

/// Decode `bytes`: an error, or a model that is consistent.
fn check(bytes: &[u8]) {
    fn in_range(node: &Node, tree: &DecisionTree, depth: usize) {
        assert!(depth <= MAX_TREE_DEPTH);
        match node {
            Node::Leaf { class, .. } => assert!(*class < tree.num_classes),
            Node::Split {
                feature,
                left,
                right,
                ..
            } => {
                assert!(*feature < tree.num_features);
                in_range(left, tree, depth + 1);
                in_range(right, tree, depth + 1);
            }
        }
    }
    let Ok(model) = MappingModel::from_bytes(bytes) else {
        return;
    };
    let tree = model.tree();
    in_range(&tree.root, tree, 0);
    assert!(model.predict_vector(&[301.0, 0.0, 0.75]) < tree.num_classes);
    let again = model.to_bytes();
    let back = MappingModel::from_bytes(&again).expect("re-encoding decodes");
    assert_eq!(back.to_bytes(), again, "re-encoding is not a fixed point");
}

#[test]
fn well_formed_bytes_decode() {
    let bytes = model().to_bytes();
    assert_eq!(MappingModel::from_bytes(&bytes).unwrap(), model());
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let bytes = model().to_bytes();
    for len in 0..bytes.len() {
        assert!(MappingModel::from_bytes(&bytes[..len]).is_err(), "{len}");
    }
}

#[test]
fn bit_flips_never_panic() {
    let bytes = model().to_bytes();
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(&flipped);
    }
}

#[test]
fn lying_count_and_index_fields_never_panic() {
    let bytes = model().to_bytes();
    for at in count_fields(&bytes) {
        let honest = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        for lie in [0, u64::MAX, honest + 1] {
            let mut lying = bytes.clone();
            lying[at..at + 8].copy_from_slice(&lie.to_le_bytes());
            check(&lying);
        }
    }
}

/// A histogram length of `u64::MAX` must be refused from the bytes that
/// remain, not handed to an allocator.
#[test]
fn a_huge_declared_length_fails_before_allocating() {
    let mut bytes = MappingModel::from_tree(DecisionTree {
        root: *leaf(0, [4, 1]),
        num_classes: NUM_CLASSES,
        num_features: NUM_FEATURES,
    })
    .to_bytes();
    let length_at = HEADER + 1 + 8;
    bytes[length_at..length_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(MappingModel::from_bytes(&bytes).is_err());
}
