//! Labelled datasets for the CPU/GPU-mapping prediction task, and the
//! evaluation metrics used throughout the paper's evaluation section.

/// The two mapping classes.
pub const CLASS_CPU: usize = 0;
/// GPU class label.
pub const CLASS_GPU: usize = 1;

/// One training/evaluation example: a (kernel, dataset size) pair with its
/// feature vector, measured runtimes and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Feature vector (representation depends on the experiment's feature set).
    pub features: Vec<f64>,
    /// Benchmark name this example belongs to (e.g. `"FT"`), used for
    /// leave-one-out cross-validation groups.
    pub benchmark: String,
    /// Suite the benchmark comes from (e.g. `"NPB"`, `"CLgen"`).
    pub suite: String,
    /// Kernel + dataset identifier (for reporting).
    pub id: String,
    /// CPU runtime in seconds.
    pub cpu_time: f64,
    /// GPU runtime in seconds.
    pub gpu_time: f64,
}

impl Example {
    /// The oracle class (the device with the lower runtime).
    pub fn oracle(&self) -> usize {
        if self.cpu_time <= self.gpu_time {
            CLASS_CPU
        } else {
            CLASS_GPU
        }
    }

    /// Runtime of the given class.
    pub fn time_of(&self, class: usize) -> f64 {
        if class == CLASS_CPU {
            self.cpu_time
        } else {
            self.gpu_time
        }
    }

    /// Runtime of the oracle mapping.
    pub fn oracle_time(&self) -> f64 {
        self.time_of(self.oracle())
    }

    /// The `(features, label)` pair used to train the decision tree.
    pub fn training_pair(&self) -> (Vec<f64>, usize) {
        (self.features.clone(), self.oracle())
    }
}

/// A labelled dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Examples in insertion order.
    pub examples: Vec<Example>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Dataset {
        Dataset::default()
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// True if there are no examples.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Add an example.
    pub fn push(&mut self, example: Example) {
        self.examples.push(example);
    }

    /// Distinct benchmark names, in first-seen order.
    pub fn benchmarks(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for e in &self.examples {
            if !seen.contains(&e.benchmark) {
                seen.push(e.benchmark.clone());
            }
        }
        seen
    }

    /// Distinct suite names, in first-seen order.
    pub fn suites(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for e in &self.examples {
            if !seen.contains(&e.suite) {
                seen.push(e.suite.clone());
            }
        }
        seen
    }

    /// Examples belonging to a suite.
    pub fn of_suite(&self, suite: &str) -> Dataset {
        Dataset {
            examples: self
                .examples
                .iter()
                .filter(|e| e.suite == suite)
                .cloned()
                .collect(),
        }
    }

    /// Examples NOT belonging to a benchmark (training set for LOOCV).
    pub fn excluding_benchmark(&self, benchmark: &str) -> Dataset {
        Dataset {
            examples: self
                .examples
                .iter()
                .filter(|e| e.benchmark != benchmark)
                .cloned()
                .collect(),
        }
    }

    /// Examples belonging to a benchmark (test set for LOOCV).
    pub fn of_benchmark(&self, benchmark: &str) -> Dataset {
        Dataset {
            examples: self
                .examples
                .iter()
                .filter(|e| e.benchmark == benchmark)
                .cloned()
                .collect(),
        }
    }

    /// Merge two datasets.
    pub fn merged_with(&self, other: &Dataset) -> Dataset {
        let mut examples = self.examples.clone();
        examples.extend(other.examples.iter().cloned());
        Dataset { examples }
    }

    /// `(features, label)` pairs for training.
    pub fn training_pairs(&self) -> Vec<(Vec<f64>, usize)> {
        self.examples.iter().map(Example::training_pair).collect()
    }

    /// Fraction of examples whose oracle is the GPU.
    pub fn gpu_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.examples
            .iter()
            .filter(|e| e.oracle() == CLASS_GPU)
            .count() as f64
            / self.len() as f64
    }

    /// The best *static* mapping for this dataset: the single device that
    /// minimises total runtime when used for every example. Speedups in
    /// Figures 7 and 8 are reported relative to this baseline.
    pub fn best_static_mapping(&self) -> usize {
        let cpu_total: f64 = self.examples.iter().map(|e| e.cpu_time).sum();
        let gpu_total: f64 = self.examples.iter().map(|e| e.gpu_time).sum();
        if cpu_total <= gpu_total {
            CLASS_CPU
        } else {
            CLASS_GPU
        }
    }
}

/// Evaluation metrics over a set of (example, predicted class) pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalMetrics {
    /// Number of predictions evaluated.
    pub count: usize,
    /// Fraction of predictions matching the oracle.
    pub accuracy: f64,
    /// Total runtime achieved by the predicted mappings (seconds).
    pub predicted_time: f64,
    /// Total runtime of the oracle mappings.
    pub oracle_time: f64,
    /// Total runtime of the best single-device static mapping.
    pub static_time: f64,
}

impl EvalMetrics {
    /// Performance relative to the oracle (1.0 = optimal), as used in Table 1.
    pub fn performance_vs_oracle(&self) -> f64 {
        if self.predicted_time <= 0.0 {
            0.0
        } else {
            self.oracle_time / self.predicted_time
        }
    }

    /// Speedup of the predicted mapping over the best static mapping, as used
    /// in Figures 7 and 8.
    pub fn speedup_vs_static(&self) -> f64 {
        if self.predicted_time <= 0.0 {
            0.0
        } else {
            self.static_time / self.predicted_time
        }
    }
}

/// Compute metrics for a list of predictions against their examples.
///
/// `static_class` is the baseline single-device mapping to compare against
/// (normally [`Dataset::best_static_mapping`] computed over the *whole*
/// evaluation set, which is how the paper picks the per-platform baseline).
pub fn evaluate(examples: &[Example], predictions: &[usize], static_class: usize) -> EvalMetrics {
    assert_eq!(examples.len(), predictions.len());
    let mut metrics = EvalMetrics {
        count: examples.len(),
        ..Default::default()
    };
    if examples.is_empty() {
        return metrics;
    }
    let mut correct = 0usize;
    for (example, &prediction) in examples.iter().zip(predictions) {
        if prediction == example.oracle() {
            correct += 1;
        }
        metrics.predicted_time += example.time_of(prediction);
        metrics.oracle_time += example.oracle_time();
        metrics.static_time += example.time_of(static_class);
    }
    metrics.accuracy = correct as f64 / examples.len() as f64;
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example(benchmark: &str, suite: &str, cpu: f64, gpu: f64) -> Example {
        Example {
            features: vec![cpu, gpu],
            benchmark: benchmark.into(),
            suite: suite.into(),
            id: format!("{benchmark}.{cpu}"),
            cpu_time: cpu,
            gpu_time: gpu,
        }
    }

    #[test]
    fn oracle_and_static_mapping() {
        let mut d = Dataset::new();
        d.push(example("a", "S1", 1.0, 2.0));
        d.push(example("b", "S1", 3.0, 1.0));
        d.push(example("c", "S2", 5.0, 1.0));
        assert_eq!(d.examples[0].oracle(), CLASS_CPU);
        assert_eq!(d.examples[1].oracle(), CLASS_GPU);
        // totals: cpu 9.0, gpu 4.0 -> static GPU
        assert_eq!(d.best_static_mapping(), CLASS_GPU);
        assert!((d.gpu_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn grouping_operations() {
        let mut d = Dataset::new();
        d.push(example("a", "S1", 1.0, 2.0));
        d.push(example("a", "S1", 1.5, 2.0));
        d.push(example("b", "S2", 3.0, 1.0));
        assert_eq!(d.benchmarks(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(d.suites(), vec!["S1".to_string(), "S2".to_string()]);
        assert_eq!(d.of_suite("S1").len(), 2);
        assert_eq!(d.of_benchmark("a").len(), 2);
        assert_eq!(d.excluding_benchmark("a").len(), 1);
        assert_eq!(d.merged_with(&d.of_suite("S1")).len(), 5);
    }

    #[test]
    fn metrics_formulas() {
        let examples = vec![example("a", "S", 1.0, 2.0), example("b", "S", 4.0, 1.0)];
        // predict CPU for both: first correct, second wrong.
        let metrics = evaluate(&examples, &[CLASS_CPU, CLASS_CPU], CLASS_GPU);
        assert_eq!(metrics.count, 2);
        assert!((metrics.accuracy - 0.5).abs() < 1e-9);
        assert!((metrics.predicted_time - 5.0).abs() < 1e-9);
        assert!((metrics.oracle_time - 2.0).abs() < 1e-9);
        assert!((metrics.static_time - 3.0).abs() < 1e-9);
        assert!((metrics.performance_vs_oracle() - 0.4).abs() < 1e-9);
        assert!((metrics.speedup_vs_static() - 0.6).abs() < 1e-9);
        // perfect predictions reach the oracle
        let perfect = evaluate(&examples, &[CLASS_CPU, CLASS_GPU], CLASS_GPU);
        assert!((perfect.performance_vs_oracle() - 1.0).abs() < 1e-9);
        assert!(perfect.speedup_vs_static() >= 1.0);
    }
}
