//! Synthetic GitHub miner.
//!
//! The paper's search engine scrapes GitHub for files that *potentially*
//! contain OpenCL device code, yielding a noisy dataset: device code tangled
//! with host code, heavy macro use, project-specific type aliases that are
//! undefined once the device code is isolated, files with no kernels, and
//! files whose kernels are trivially small. This module generates a corpus of
//! raw [`ContentFile`]s with the same mix of pathologies so that the rejection
//! filter, shim header and code rewriter operate on realistic input.
//!
//! The pathology rates are chosen so that the headline corpus statistics of
//! §4.1 are reproduced: roughly 40% of files are discarded without the shim
//! and roughly 32% with it.

use crate::content::ContentFile;
use crate::kernelgen::{self, KernelGenConfig, NamingStyle};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Configuration for the synthetic miner.
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Number of synthetic repositories to "mine".
    pub repositories: usize,
    /// Minimum and maximum number of content files per repository.
    pub files_per_repo: (usize, usize),
    /// RNG seed (the miner is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for MinerConfig {
    fn default() -> Self {
        // Defaults scaled down from the paper's 793 repositories / 8078 files
        // to keep experiment turnaround on a laptop reasonable.
        MinerConfig {
            repositories: 120,
            files_per_repo: (1, 8),
            seed: 0xC161,
        }
    }
}

impl MinerConfig {
    /// A small configuration for unit tests.
    pub fn small(seed: u64) -> Self {
        MinerConfig {
            repositories: 12,
            files_per_repo: (1, 4),
            seed,
        }
    }
}

/// The kind of content a synthetic file holds. Weights approximate the mix the
/// paper describes for GitHub-scraped OpenCL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    /// Clean standalone device code.
    CleanKernels,
    /// Device code that relies on project-specific typedefs/constants which
    /// the shim header can supply.
    NeedsShim,
    /// Device code that relies on identifiers even the shim does not define.
    NeedsUnknownIdentifiers,
    /// Host-side OpenCL C/C++ code wrongly picked up by the scraper.
    HostCode,
    /// A header-like file with declarations but no kernel definition.
    NoKernel,
    /// Kernels that compile but are trivially small.
    TrivialKernel,
    /// Device code truncated mid-file (e.g. bad download).
    Truncated,
}

fn pick_kind(rng: &mut StdRng) -> FileKind {
    // Tuned so that ~40% of files are rejected without the shim and ~32% with
    // it (the shim rescues the `NeedsShim` class, ~8% of files).
    let roll = rng.gen_range(0..100);
    match roll {
        0..=59 => FileKind::CleanKernels,
        60..=67 => FileKind::NeedsShim,
        68..=74 => FileKind::NeedsUnknownIdentifiers,
        75..=82 => FileKind::HostCode,
        83..=89 => FileKind::NoKernel,
        90..=95 => FileKind::TrivialKernel,
        _ => FileKind::Truncated,
    }
}

/// Mine a synthetic corpus of raw content files.
pub fn mine(config: &MinerConfig) -> Vec<ContentFile> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut files = Vec::new();
    for repo_idx in 0..config.repositories {
        let repo = format!("github.com/user{:03}/{}", repo_idx, repo_name(&mut rng));
        let project_style = match rng.gen_range(0..4) {
            0 => NamingStyle::Snake,
            1 => NamingStyle::Camel,
            2 => NamingStyle::Terse,
            _ => NamingStyle::Prefixed,
        };
        let n_files = rng.gen_range(config.files_per_repo.0..=config.files_per_repo.1);
        for file_idx in 0..n_files {
            let kind = pick_kind(&mut rng);
            let text = render_file(&mut rng, kind, project_style);
            let path = format!("{}/{}", dir_name(&mut rng), file_name(&mut rng, file_idx));
            files.push(ContentFile::new(repo.clone(), path, text));
        }
    }
    files
}

fn repo_name(rng: &mut StdRng) -> String {
    let adjectives = [
        "fast", "parallel", "tiny", "open", "gpu", "hetero", "turbo", "deep", "sparse",
    ];
    let nouns = [
        "solver", "bench", "fluid", "nn", "cl-kit", "raytrace", "miner", "dsp", "sim", "linalg",
    ];
    format!(
        "{}-{}",
        adjectives[rng.gen_range(0..adjectives.len())],
        nouns[rng.gen_range(0..nouns.len())]
    )
}

fn dir_name(rng: &mut StdRng) -> String {
    let dirs = [
        "src",
        "kernels",
        "cl",
        "opencl",
        "src/device",
        "gpu",
        "lib/kernels",
    ];
    dirs[rng.gen_range(0..dirs.len())].to_string()
}

fn file_name(rng: &mut StdRng, idx: usize) -> String {
    let stems = [
        "kernels", "compute", "device", "math", "core", "ops", "physics", "filters",
    ];
    let ext = if rng.gen_bool(0.85) { "cl" } else { "ocl" };
    format!("{}_{idx}.{ext}", stems[rng.gen_range(0..stems.len())])
}

fn render_file(rng: &mut StdRng, kind: FileKind, naming: NamingStyle) -> String {
    match kind {
        FileKind::CleanKernels => render_clean(rng, naming, false, false),
        FileKind::NeedsShim => render_clean(rng, naming, true, false),
        FileKind::NeedsUnknownIdentifiers => render_clean(rng, naming, false, true),
        FileKind::HostCode => render_host_code(rng),
        FileKind::NoKernel => render_header_only(rng),
        FileKind::TrivialKernel => render_trivial(rng, naming),
        FileKind::Truncated => {
            let full = render_clean(rng, naming, false, false);
            let cut = full.len() * rng.gen_range(30..70usize) / 100;
            full[..cut].to_string()
        }
    }
}

/// Render a file of 1-4 kernels with repository-level noise. When
/// `use_shim_idents` is set, data types / workgroup constants are spelled with
/// shim-covered identifiers *without* defining them (they were defined in the
/// host project). When `use_unknown_idents` is set, identifiers that not even
/// the shim covers are used.
fn render_clean(
    rng: &mut StdRng,
    naming: NamingStyle,
    use_shim_idents: bool,
    use_unknown_idents: bool,
) -> String {
    let mut out = String::new();
    if rng.gen_bool(0.4) {
        out.push_str(license_header(rng));
    }
    if rng.gen_bool(0.5) {
        out.push_str("#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n\n");
    }
    // project-local macros, sometimes used below
    let defines_own_macros = rng.gen_bool(0.35) && !use_shim_idents;
    if defines_own_macros {
        out.push_str("#define BLOCK 64\n#define SCALE_FACTOR 1.5f\n\n");
    }
    let elem_type: &'static str = if use_shim_idents {
        ["FLOAT_T", "DTYPE", "real_t", "VALUE_TYPE"][rng.gen_range(0..4usize)]
    } else if rng.gen_bool(0.85) {
        "float"
    } else {
        "int"
    };
    let n_kernels = rng.gen_range(1..=4);
    let config = KernelGenConfig {
        naming,
        elem_type: "float",
        guard_probability: 0.7,
    };
    for i in 0..n_kernels {
        if rng.gen_bool(0.5) {
            out.push_str(comment_block(rng));
        }
        let mut kernel = kernelgen::generate_kernel(rng, &config).source;
        // Re-spell the float element type with the project alias if needed.
        if use_shim_idents || elem_type != "float" {
            kernel = kernel.replace("__global float*", &format!("__global {elem_type}*"));
            kernel = kernel.replace("__local float*", &format!("__local {elem_type}*"));
        }
        if use_shim_idents && rng.gen_bool(0.6) {
            // Reference a workgroup-size constant assumed to come from the host build.
            let constant =
                ["WG_SIZE", "BLOCK_SIZE", "TILE_SIZE", "LOCAL_SIZE"][rng.gen_range(0..4usize)];
            kernel = kernel.replace("get_local_size(0)", constant);
        }
        if use_unknown_idents && i == 0 {
            // An identifier neither defined locally nor covered by the shim.
            let unknown = [
                "NUM_PARTICLES_PER_CELL",
                "kSimulationRate",
                "g_solver_params",
                "MY_PROJECT_EPS",
            ][rng.gen_range(0..4usize)];
            kernel = kernel.replace(
                "get_global_id(0);",
                &format!("get_global_id(0) + {unknown};"),
            );
        }
        out.push_str(&kernel);
        out.push('\n');
    }
    out
}

fn render_host_code(rng: &mut StdRng) -> String {
    let variant = rng.gen_range(0..3);
    match variant {
        0 => "#include <CL/cl.h>\n#include <stdio.h>\n\nint main(int argc, char** argv) {\n  cl_platform_id platform;\n  clGetPlatformIDs(1, &platform, NULL);\n  printf(\"platforms: %d\\n\", 1);\n  return 0;\n}\n".to_string(),
        1 => "// OpenCL host wrapper\n#include <vector>\n#include <string>\n\nclass DeviceContext {\n public:\n  DeviceContext() : ready_(false) {}\n  bool init(const std::string& name);\n private:\n  bool ready_;\n};\n".to_string(),
        _ => "const char* kernel_source = \"__kernel void A(__global float* a) { a[0] = 1.0f; }\";\n\nstatic int build_program(void* ctx) {\n  /* builds the embedded kernel string */\n  return ctx != 0;\n}\n".to_string(),
    }
}

fn render_header_only(rng: &mut StdRng) -> String {
    let variant = rng.gen_range(0..2);
    if variant == 0 {
        "/* common device declarations */\n#ifndef COMMON_CL_H\n#define COMMON_CL_H\n\ntypedef float scalar_t;\n#define MAX_NEIGHBOURS 27\n\nfloat3 wrap_position(float3 p, float3 box);\n\n#endif\n".to_string()
    } else {
        "// Utility functions shared by kernels\ninline float squared(float x) { return x * x; }\ninline float cube(float x) { return x * x * x; }\n".to_string()
    }
}

fn render_trivial(rng: &mut StdRng, _naming: NamingStyle) -> String {
    let variant = rng.gen_range(0..3);
    match variant {
        0 => "__kernel void noop(__global float* data) {\n}\n".to_string(),
        1 => "__kernel void set_flag(__global int* flag) {\n  *flag = 1;\n}\n".to_string(),
        _ => "// placeholder kernel, to be implemented\n__kernel void todo(__global float* out) {\n  out[0] = 0.0f;\n}\n".to_string(),
    }
}

fn license_header(rng: &mut StdRng) -> &'static str {
    const HEADERS: &[&str] = &[
        "/*\n * Copyright (c) 2014 The Project Authors.\n * Licensed under the MIT license.\n */\n\n",
        "// SPDX-License-Identifier: Apache-2.0\n// Part of the compute kernels module.\n\n",
        "/*==============================\n  Device kernels\n  Author: research group\n ==============================*/\n\n",
    ];
    HEADERS[rng.gen_range(0..HEADERS.len())]
}

fn comment_block(rng: &mut StdRng) -> &'static str {
    const COMMENTS: &[&str] = &[
        "// Process one element per work item.\n",
        "/* The work-group size must divide the problem size. */\n",
        "// TODO: vectorise this loop\n",
        "/** Computes the per-element update used by the outer solver loop. */\n",
        "// NB: assumes row-major layout\n",
    ];
    COMMENTS[rng.gen_range(0..COMMENTS.len())]
}

/// Summary statistics of a mined corpus, mirroring the numbers reported in
/// §4.1 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MiningStats {
    /// Number of repositories mined.
    pub repositories: usize,
    /// Number of content files.
    pub files: usize,
    /// Total lines across all content files.
    pub lines: usize,
}

/// Compute corpus-level statistics for a set of content files.
pub fn mining_stats(files: &[ContentFile]) -> MiningStats {
    let mut repos: Vec<&str> = files.iter().map(|f| f.repository.as_str()).collect();
    repos.sort_unstable();
    repos.dedup();
    MiningStats {
        repositories: repos.len(),
        files: files.len(),
        lines: files.iter().map(ContentFile::line_count).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mining_is_deterministic() {
        let a = mine(&MinerConfig::small(9));
        let b = mine(&MinerConfig::small(9));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.repository, y.repository);
        }
    }

    #[test]
    fn mining_produces_requested_scale() {
        let config = MinerConfig {
            repositories: 20,
            files_per_repo: (1, 5),
            seed: 1,
        };
        let files = mine(&config);
        let stats = mining_stats(&files);
        assert_eq!(stats.repositories, 20);
        assert!(stats.files >= 20);
        assert!(stats.files <= 100);
        assert!(stats.lines > 200);
    }

    #[test]
    fn corpus_contains_noise_and_signal() {
        let files = mine(&MinerConfig {
            repositories: 60,
            files_per_repo: (2, 5),
            seed: 5,
        });
        let with_kernel = files.iter().filter(|f| f.text.contains("__kernel")).count();
        let with_comments = files
            .iter()
            .filter(|f| f.text.contains("//") || f.text.contains("/*"))
            .count();
        let host_code = files
            .iter()
            .filter(|f| f.text.contains("int main") || f.text.contains("class "))
            .count();
        assert!(
            with_kernel > files.len() / 2,
            "most files should contain kernels"
        );
        assert!(
            with_comments > files.len() / 4,
            "comments should be present"
        );
        assert!(host_code > 0, "some host code should be mis-scraped");
    }

    #[test]
    fn some_files_need_the_shim() {
        let files = mine(&MinerConfig {
            repositories: 80,
            files_per_repo: (2, 5),
            seed: 11,
        });
        let needs_shim = files
            .iter()
            .filter(|f| {
                f.text.contains("FLOAT_T") || f.text.contains("DTYPE") || f.text.contains("WG_SIZE")
            })
            .count();
        assert!(
            needs_shim > 0,
            "shim-dependent files should appear in the corpus"
        );
    }
}
