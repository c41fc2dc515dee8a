//! CART decision-tree classifier.
//!
//! The Grewe et al. predictive model "uses supervised learning to construct a
//! decision tree" over program features. This module implements a standard
//! CART learner (greedy binary splits minimising Gini impurity) that both the
//! original and the extended models are built on.

/// Learner hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples a node must hold to be split further.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 4,
            min_samples_leaf: 1,
        }
    }
}

/// A decision tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Internal node splitting on `feature <= threshold`.
    Split {
        /// Feature column index.
        feature: usize,
        /// Split threshold (left: `<=`, right: `>`).
        threshold: f64,
        /// Left child.
        left: Box<Node>,
        /// Right child.
        right: Box<Node>,
    },
    /// Leaf node predicting a class.
    Leaf {
        /// Predicted class.
        class: usize,
        /// Class histogram of the training samples that reached the leaf.
        counts: Vec<usize>,
    },
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    /// Root node.
    pub root: Node,
    /// Number of classes.
    pub num_classes: usize,
    /// Number of feature columns.
    pub num_features: usize,
}

impl DecisionTree {
    /// Train a tree on `(features, label)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or rows have inconsistent lengths.
    pub fn train(samples: &[(Vec<f64>, usize)], config: &TreeConfig) -> DecisionTree {
        assert!(!samples.is_empty(), "cannot train on an empty sample set");
        let num_features = samples[0].0.len();
        assert!(
            samples.iter().all(|(f, _)| f.len() == num_features),
            "inconsistent feature lengths"
        );
        let num_classes = samples.iter().map(|(_, l)| *l).max().unwrap_or(0) + 1;
        let indices: Vec<usize> = (0..samples.len()).collect();
        let root = build_node(samples, &indices, num_classes, config, 0);
        DecisionTree {
            root,
            num_classes,
            num_features,
        }
    }

    /// Predict the class of a feature vector.
    pub fn predict(&self, features: &[f64]) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class, .. } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let value = features.get(*feature).copied().unwrap_or(0.0);
                    node = if value <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Number of leaves (a rough measure of model complexity).
    pub fn leaf_count(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Maximum depth of the tree.
    pub fn depth(&self) -> usize {
        fn depth(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        depth(&self.root)
    }

    /// Accuracy over a labelled evaluation set.
    pub fn accuracy(&self, samples: &[(Vec<f64>, usize)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|(f, l)| self.predict(f) == *l)
            .count();
        correct as f64 / samples.len() as f64
    }
}

fn class_counts(
    samples: &[(Vec<f64>, usize)],
    indices: &[usize],
    num_classes: usize,
) -> Vec<usize> {
    let mut counts = vec![0usize; num_classes];
    for &i in indices {
        counts[samples[i].1] += 1;
    }
    counts
}

fn gini(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| (c as f64 / total).powi(2))
        .sum::<f64>()
}

fn majority(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn build_node(
    samples: &[(Vec<f64>, usize)],
    indices: &[usize],
    num_classes: usize,
    config: &TreeConfig,
    depth: usize,
) -> Node {
    let counts = class_counts(samples, indices, num_classes);
    let node_gini = gini(&counts);
    if depth >= config.max_depth || indices.len() < config.min_samples_split || node_gini == 0.0 {
        return Node::Leaf {
            class: majority(&counts),
            counts,
        };
    }
    let num_features = samples[indices[0]].0.len();
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, weighted gini)
    for feature in 0..num_features {
        // candidate thresholds: midpoints between consecutive distinct values
        let mut values: Vec<f64> = indices.iter().map(|&i| samples[i].0[feature]).collect();
        values.sort_by(|a, b| a.total_cmp(b));
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        for w in values.windows(2) {
            let threshold = (w[0] + w[1]) / 2.0;
            let left: Vec<usize> = indices
                .iter()
                .copied()
                .filter(|&i| samples[i].0[feature] <= threshold)
                .collect();
            let right: Vec<usize> = indices
                .iter()
                .copied()
                .filter(|&i| samples[i].0[feature] > threshold)
                .collect();
            if left.len() < config.min_samples_leaf || right.len() < config.min_samples_leaf {
                continue;
            }
            let gl = gini(&class_counts(samples, &left, num_classes));
            let gr = gini(&class_counts(samples, &right, num_classes));
            let weighted =
                (left.len() as f64 * gl + right.len() as f64 * gr) / indices.len() as f64;
            if best.map(|(_, _, b)| weighted < b - 1e-12).unwrap_or(true) {
                best = Some((feature, threshold, weighted));
            }
        }
    }
    match best {
        Some((feature, threshold, weighted)) if weighted < node_gini - 1e-12 => {
            let left_idx: Vec<usize> = indices
                .iter()
                .copied()
                .filter(|&i| samples[i].0[feature] <= threshold)
                .collect();
            let right_idx: Vec<usize> = indices
                .iter()
                .copied()
                .filter(|&i| samples[i].0[feature] > threshold)
                .collect();
            Node::Split {
                feature,
                threshold,
                left: Box::new(build_node(
                    samples,
                    &left_idx,
                    num_classes,
                    config,
                    depth + 1,
                )),
                right: Box::new(build_node(
                    samples,
                    &right_idx,
                    num_classes,
                    config,
                    depth + 1,
                )),
            }
        }
        _ => Node::Leaf {
            class: majority(&counts),
            counts,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Conjunction of two thresholds: label 1 iff x > 0.5 and y > 0.5. Needs a
    /// depth-2 tree (greedy CART learns it, unlike XOR).
    fn and_data() -> Vec<(Vec<f64>, usize)> {
        let mut data = Vec::new();
        for i in 0..40 {
            let x = (i % 8) as f64 / 8.0;
            let y = ((i / 8) % 8) as f64 / 8.0;
            let label = usize::from(x > 0.5 && y > 0.5);
            data.push((vec![x, y], label));
        }
        data
    }

    #[test]
    fn learns_threshold_rule() {
        let data: Vec<(Vec<f64>, usize)> = (0..50)
            .map(|i| (vec![i as f64], usize::from(i >= 25)))
            .collect();
        let tree = DecisionTree::train(&data, &TreeConfig::default());
        assert_eq!(tree.predict(&[3.0]), 0);
        assert_eq!(tree.predict(&[40.0]), 1);
        assert_eq!(tree.accuracy(&data), 1.0);
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn learns_conjunction_with_depth_two() {
        let data = and_data();
        let tree = DecisionTree::train(
            &data,
            &TreeConfig {
                max_depth: 3,
                min_samples_split: 2,
                min_samples_leaf: 1,
            },
        );
        assert!(
            tree.accuracy(&data) > 0.95,
            "accuracy {}",
            tree.accuracy(&data)
        );
    }

    #[test]
    fn depth_limit_respected() {
        let data = and_data();
        let tree = DecisionTree::train(
            &data,
            &TreeConfig {
                max_depth: 1,
                min_samples_split: 2,
                min_samples_leaf: 1,
            },
        );
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let data: Vec<(Vec<f64>, usize)> = (0..10).map(|i| (vec![i as f64], 0)).collect();
        let tree = DecisionTree::train(&data, &TreeConfig::default());
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.predict(&[100.0]), 0);
    }

    #[test]
    fn handles_constant_features() {
        let data: Vec<(Vec<f64>, usize)> = (0..10)
            .map(|i| (vec![1.0, i as f64], usize::from(i >= 5)))
            .collect();
        let tree = DecisionTree::train(&data, &TreeConfig::default());
        assert_eq!(tree.accuracy(&data), 1.0);
    }

    #[test]
    fn multiclass_supported() {
        let data: Vec<(Vec<f64>, usize)> = (0..60)
            .map(|i| (vec![i as f64], (i / 20) as usize))
            .collect();
        let tree = DecisionTree::train(&data, &TreeConfig::default());
        assert_eq!(tree.num_classes, 3);
        assert_eq!(tree.predict(&[10.0]), 0);
        assert_eq!(tree.predict(&[30.0]), 1);
        assert_eq!(tree.predict(&[50.0]), 2);
    }
}
