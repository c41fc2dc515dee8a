//! The hostile kernel sources, shared by `hostile.rs` (the driver must
//! answer each with a typed outcome) and `differential.rs` (both executors
//! must answer each with the *same* outcome).

#![allow(dead_code)]

pub const GARBAGE: &[&str] = &[
    "",
    "\0\0\0\0",
    "}}}}{{{{",
    "kernel kernel kernel ((((",
    "__kernel __kernel void void A A",
    "#pragma nonsense\n@!$%^&*",
    "__kernel void A(__global float* a) { a[0] = ; }",
    "\u{FFFD}\u{FFFD}\u{FFFD}",
];

/// A cheap xorshift over a printable alphabet: 64 seeds of fuzz input.
pub fn pseudo_random_garbage() -> Vec<String> {
    let alphabet: Vec<char> = "__kernel void A(){}[]<>;,+-*/%&|^!~=0123456789abcxyz \n\t\"'"
        .chars()
        .collect();
    let mut state = 0x2545F4914F6CDD1Du64;
    (0..64)
        .map(|_| {
            let mut src = String::new();
            for _ in 0..200 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                src.push(alphabet[(state as usize) % alphabet.len()]);
            }
            src
        })
        .collect()
}

/// 10k nested parens/blocks/ifs/unary operators: would overflow the parser
/// stack without the nesting cap; the cap turns them into compile
/// diagnostics.
pub fn deep_nesting() -> Vec<(&'static str, String)> {
    vec![
        (
            "parens",
            format!(
                "__kernel void A(__global float* a) {{ a[0] = {}1.0f{}; }}",
                "(".repeat(10_000),
                ")".repeat(10_000)
            ),
        ),
        (
            "blocks",
            format!(
                "__kernel void A(__global float* a) {{ {} a[0] = 1.0f; {} }}",
                "{".repeat(10_000),
                "}".repeat(10_000)
            ),
        ),
        (
            "ifs",
            format!(
                "__kernel void A(__global float* a) {{ {} a[0] = 1.0f; {} }}",
                "if (1) {".repeat(10_000),
                "}".repeat(10_000)
            ),
        ),
        (
            "unary",
            format!(
                "__kernel void A(__global float* a) {{ a[0] = {}1.0f; }}",
                "-".repeat(10_000)
            ),
        ),
    ]
}

/// Would formerly attempt multi-gigabyte `Buffer::zeroed` allocations (or
/// overflow the element product in debug builds).
pub const HUGE_ARRAYS: &[(&str, &str)] = &[
    (
        "huge",
        "__kernel void A(__global float* a) {
        float t[1000000000];
        t[0] = a[0];
        a[0] = t[0];
    }",
    ),
    (
        "overflowing",
        "__kernel void A(__global float* a) {
        float t[4000000000][4000000000][4000000000];
        a[0] = 1.0f;
    }",
    ),
];

/// A modest array, declared every iteration: each declaration that executes
/// allocates, and nothing is freed before the work item ends. 64 MB every few
/// steps aborted the process (`memory allocation of 67108864 bytes failed`)
/// long before any step budget was consulted.
pub const SCRATCH_IN_A_LOOP: &str = "__kernel void A(__global float* a) {
        for (int i = 0; i < 100000; i++) { float t[4194304]; t[0] = 1.0f; a[0] += 1; }
    }";

pub const INTEGER_EDGE_CASES: &[&str] = &[
    // i64::MIN / -1 and % -1 overflow in two's complement.
    "__kernel void A(__global int* a) { long x = -9223372036854775807L - 1L; a[0] = (int)(x / -1L); }",
    "__kernel void A(__global int* a) { long x = -9223372036854775807L - 1L; a[0] = (int)(x % -1L); }",
    // Division by a zero loaded from data.
    "__kernel void A(__global int* a) { a[0] = 7 / a[1]; }",
    "__kernel void A(__global int* a) { a[0] = 7 % a[1]; }",
    // Shift counts beyond the width.
    "__kernel void A(__global int* a) { a[0] = 1 << 1000; }",
    "__kernel void A(__global int* a) { a[0] = 1 >> -3; }",
    // Out-of-range float→int casts.
    "__kernel void A(__global int* a) { a[0] = (int)1e300; }",
    "__kernel void A(__global int* a) { float f = 0.0f; a[0] = (int)(1.0f / f); }",
];

/// Arithmetic on `long` that overflows: used to panic in a debug build and
/// wrap in a release build, so the same source was a `panicked` unit under
/// test and a `run` line in production. Each source writes the values a
/// release build has always produced; `WRAPPED` holds them (in `a[0..]`).
pub const INTEGER_WRAPS: &[(&str, &[i64])] = &[
    (
        "__kernel void A(__global long* a) { long x = LONG_MIN; a[0] = -x; a[1] = abs(x); }",
        &[i64::MIN, i64::MIN],
    ),
    (
        "__kernel void A(__global long* a) { long x = LONG_MAX; a[0] = abs_diff(x, -2L); a[1] = hadd(x, x); }",
        &[i64::MAX, -1],
    ),
    (
        // `a[x * 2]` and `*(a + x + x)` address element -2, which clamps to 0.
        "__kernel void A(__global long* a) { long x = LONG_MAX; a[1] = 5; a[x * 2] = 7; a[2] = *(a + x + x); }",
        &[7, 5, 7],
    ),
    (
        "__kernel void A(__global long* a) { a[0] = LONG_MAX; atomic_add(a, 1L); a[1] = LONG_MIN; atomic_dec(a + 1); a[2] = LONG_MAX; atomic_inc(&a[2]); a[3] = LONG_MIN; atomic_sub(&a[3], 1L); }",
        &[i64::MIN, i64::MAX, i64::MIN, i64::MAX],
    ),
    (
        // vload/vstore element `LONG_MAX * 4 + lane` wraps to -4 + lane.
        "__kernel void A(__global long* a) { long x = LONG_MAX; a[0] = 3; long4 v = vload4(x, a); vstore4(v + 1L, x, a); a[1] = v.x; }",
        &[4, 3],
    ),
    (
        // The exponent is cut to 32 bits: 2^32 + 1 scales by 2.
        "__kernel void A(__global long* a) { a[0] = (long)ldexp(3.0f, 4294967297L); a[LONG_MIN] = a[0] + 1; }",
        &[7],
    ),
];

pub const INFINITE_LOOPS: &[&str] = &[
    "__kernel void A(__global float* a) { while (1) { a[0] += 1.0f; } }",
    "__kernel void A(__global float* a) { for (;;) { a[0] += 1.0f; } }",
    "__kernel void A(__global float* a) { int i = 0; do { i++; } while (i >= 0); a[0] = i; }",
];

/// Per-item budget alone would admit ~128 items × 2M steps; the launch-wide
/// budget cuts the whole unit.
pub const SPIN: &str = "__kernel void A(__global float* a, const int n) {
        int i = get_global_id(0);
        float acc = 0.0f;
        for (int r = 0; r < 1000000; r++) { acc += 0.5f; }
        a[i % 8] = acc;
    }";

/// Mutually recursive calls exhaust the interpreter's call-depth cap and must
/// surface as a typed error.
pub const MUTUAL_RECURSION: &str = "float f(float x);
    float g(float x) { return f(x) + 1.0f; }
    float f(float x) { return g(x) + 1.0f; }
    __kernel void A(__global float* a) { a[0] = f(a[0]); }";

/// Every source above.
pub fn all() -> Vec<String> {
    let mut sources: Vec<String> = Vec::new();
    sources.extend(GARBAGE.iter().map(|s| s.to_string()));
    sources.extend(pseudo_random_garbage());
    sources.extend(deep_nesting().into_iter().map(|(_, s)| s));
    sources.extend(HUGE_ARRAYS.iter().map(|(_, s)| s.to_string()));
    sources.push(SCRATCH_IN_A_LOOP.to_string());
    sources.extend(INTEGER_EDGE_CASES.iter().map(|s| s.to_string()));
    sources.extend(INTEGER_WRAPS.iter().map(|(s, _)| s.to_string()));
    sources.extend(INFINITE_LOOPS.iter().map(|s| s.to_string()));
    sources.push(SPIN.to_string());
    sources.push(MUTUAL_RECURSION.to_string());
    sources
}
