//! Table 3: the benchmark inventory (suites, benchmark counts, kernel counts).
//!
//! The paper uses 71 benchmarks / 256 kernels from the seven suites; this
//! reproduction ships a reduced-but-representative population, and this
//! binary prints the actual inventory for the paper-vs-reproduction
//! comparison.

use experiments::print_table;
use suites::{inventory, NPB_CLASSES};

fn main() {
    let inv = inventory();
    let rows: Vec<Vec<String>> = inv
        .iter()
        .map(|(suite, benchmarks, kernels)| {
            vec![
                suite.short_name().to_string(),
                benchmarks.to_string(),
                kernels.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 3: benchmark inventory (this reproduction)",
        &["suite", "#benchmarks", "#kernels"],
        &rows,
    );
    let total_b: usize = inv.iter().map(|(_, b, _)| b).sum();
    let total_k: usize = inv.iter().map(|(_, _, k)| k).sum();
    println!(
        "\nTotal: {total_b} benchmarks, {total_k} kernels (paper: 71 benchmarks, 256 kernels)."
    );
    println!(
        "NPB dataset classes: {:?}",
        NPB_CLASSES.iter().map(|(c, _)| *c).collect::<Vec<_>>()
    );
}
