//! The shim header (Listing 1 of the paper).
//!
//! Isolating OpenCL device code from its host project leaves many common
//! project-specific type aliases and constants undefined; the paper found
//! that 50% of undeclared-identifier errors in the GitHub dataset were caused
//! by only 60 unique identifiers, and fixed them with a "shim" header of
//! inferred typedefs and constants. Injecting the shim reduced the discard
//! rate from 40% to 32%.
//!
//! This module provides the equivalent shim for our frontend: a header of
//! inferred type aliases and constants that the rejection filter includes
//! (virtually) before compiling each content file.

/// Name under which the shim is registered with the preprocessor.
pub const SHIM_INCLUDE_NAME: &str = "clgen-shim.h";

/// Inferred type aliases: (alias, underlying type).
pub const SHIM_TYPEDEFS: &[(&str, &str)] = &[
    ("FLOAT_T", "float"),
    ("FLOAT_TYPE", "float"),
    ("FPTYPE", "float"),
    ("DTYPE", "float"),
    ("DATA_TYPE", "float"),
    ("DATATYPE", "float"),
    ("VALUE_TYPE", "float"),
    ("real", "float"),
    ("real_t", "float"),
    ("REAL", "float"),
    ("Real", "float"),
    ("scalar_t", "float"),
    ("INDEX_TYPE", "unsigned int"),
    ("index_t", "unsigned int"),
    ("uint_t", "unsigned int"),
    ("int_t", "int"),
    ("T", "float"),
    ("TYPE", "float"),
    ("KEY_TYPE", "unsigned int"),
    ("VAL_TYPE", "float"),
    ("hmc_float", "float"),
    ("hmc_complex", "float2"),
    ("cl_float_t", "float"),
    ("elem_t", "float"),
    ("WeightType", "float"),
    ("node_t", "int"),
    ("edge_t", "int"),
    ("vertex_t", "int"),
    ("mask_t", "unsigned int"),
    ("cfloat", "float2"),
    ("Complex", "float2"),
    ("POSVECTYPE", "float4"),
    ("FORCEVECTYPE", "float4"),
    ("VECTYPE", "float4"),
    ("FLOAT4", "float4"),
    ("INT4", "int4"),
    ("UINT4", "uint4"),
    ("uchar_t", "uchar"),
    ("BitmapType", "unsigned int"),
];

/// Inferred constants: (name, value text).
pub const SHIM_CONSTANTS: &[(&str, &str)] = &[
    ("WG_SIZE", "128"),
    ("WGSIZE", "128"),
    ("WORKGROUP_SIZE", "128"),
    ("GROUP_SIZE", "128"),
    ("LOCAL_SIZE", "128"),
    ("LOCAL_WORK_SIZE", "128"),
    ("BLOCK_SIZE", "64"),
    ("BLOCKSIZE", "64"),
    ("BLOCK_DIM", "16"),
    ("BLOCK_X", "16"),
    ("BLOCK_Y", "16"),
    ("TILE_SIZE", "16"),
    ("TILE_DIM", "16"),
    ("TILE_WIDTH", "16"),
    ("WARP_SIZE", "32"),
    ("WAVE_SIZE", "64"),
    ("SIMD_WIDTH", "16"),
    ("VECTOR_SIZE", "4"),
    ("UNROLL_FACTOR", "4"),
    ("N", "1024"),
    ("NUM", "1024"),
    ("SIZE", "1024"),
    ("DATA_SIZE", "1024"),
    ("ARRAY_SIZE", "1024"),
    ("LENGTH", "1024"),
    ("WIDTH", "256"),
    ("HEIGHT", "256"),
    ("DEPTH", "64"),
    ("COLS", "256"),
    ("ROWS", "256"),
    ("RADIUS", "4"),
    ("STEPS", "16"),
    ("ITERATIONS", "16"),
    ("EPSILON", "1e-6f"),
    ("ALPHA", "1.5f"),
    ("BETA", "0.5f"),
    ("GAMMA", "0.9f"),
    ("OMEGA", "1.2f"),
    ("SCALE", "2.0f"),
    ("FACTOR", "2.0f"),
    ("THRESHOLD", "0.5f"),
    ("DELTA", "0.01f"),
    ("DT", "0.01f"),
    ("DX", "0.1f"),
    ("PI", "3.14159265f"),
    ("M_PI_VALUE", "3.14159265f"),
    ("TWOPI", "6.2831853f"),
    ("E_VALUE", "2.7182818f"),
    ("MAX_ITER", "256"),
    ("NUM_BINS", "256"),
    ("HISTOGRAM_SIZE", "256"),
    ("BINS", "256"),
    ("KERNEL_RADIUS", "3"),
    ("FILTER_SIZE", "7"),
    ("MASK_WIDTH", "5"),
    ("PADDING", "1"),
    ("OFFSET", "0"),
    ("STRIDE", "1"),
    ("BATCH", "4"),
    ("CHANNELS", "3"),
];

/// Render the shim header as preprocessable OpenCL C text.
pub fn shim_header() -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("/* CLgen shim: inferred types and constants for GitHub OpenCL code. */\n");
    out.push_str("#define cl_clang_storage_class_specifiers\n");
    out.push_str("#define cl_khr_fp64\n\n");
    out.push_str("/* Inferred types */\n");
    for (alias, ty) in SHIM_TYPEDEFS {
        out.push_str(&format!("typedef {ty} {alias};\n"));
    }
    out.push_str("\n/* Inferred constants */\n");
    for (name, value) in SHIM_CONSTANTS {
        out.push_str(&format!("#define {name} {value}\n"));
    }
    out
}

/// The list of identifier names the shim defines (types and constants).
pub fn shim_identifiers() -> Vec<&'static str> {
    SHIM_TYPEDEFS
        .iter()
        .map(|(alias, _)| *alias)
        .chain(SHIM_CONSTANTS.iter().map(|(name, _)| *name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_frontend::{compile, CompileOptions, PreprocessOptions};

    #[test]
    fn shim_header_is_parseable() {
        let header = shim_header();
        let r = compile(&header, &CompileOptions::default());
        assert!(
            r.is_ok(),
            "shim header does not compile:\n{}",
            r.diagnostics
        );
    }

    #[test]
    fn shim_has_many_identifiers() {
        // The paper's shim covers 60 identifiers responsible for half of all
        // undeclared-identifier errors; ours is of comparable size.
        assert!(shim_identifiers().len() >= 60);
    }

    #[test]
    fn shim_fixes_undeclared_identifiers() {
        let src = "#include <clgen-shim.h>\n__kernel void A(__global FLOAT_T* a) { a[get_global_id(0)] = ALPHA * BLOCK_SIZE; }";
        let options = CompileOptions {
            preprocess: PreprocessOptions::new().include(SHIM_INCLUDE_NAME, &shim_header()),
        };
        let r = compile(src, &options);
        assert!(r.is_ok(), "{}", r.diagnostics);
    }

    #[test]
    fn no_duplicate_shim_names() {
        let mut names = shim_identifiers();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate identifiers in shim");
    }
}
