//! The differential suite: `cldrive::Program` (the bytecode executor
//! production runs) against `cldrive::reference` (the tree-walker it
//! replaced) on the same launch must produce the same
//! `Result<LaunchResult, ExecError>` — every output buffer bit for bit, all
//! eleven counters, `sampled_fraction`, or the identical error — and the same
//! step count, also (the count reached) when a budget or a trap cuts the
//! launch short.
//!
//! Tier-1 runs this in a debug build, CI's "Drive parity" step in the release
//! profile production runs (`cargo test -p cldrive --release`); the launch
//! budgets scale with the profile so both finish in seconds.

mod common;

use cl_frontend::ast::TranslationUnit;
use cl_frontend::sema::KernelSignature;
use cldrive::interp::{ArgBinding, ExecError, ExecLimits, LaunchResult, NDRange};
use cldrive::{generate_payload, reference, PayloadOptions, Program, Scalar};
use proptest::prelude::*;

/// A launch result with every float replaced by its bits, so `NaN == NaN`
/// and `0.0 != -0.0`.
#[derive(Debug, PartialEq)]
struct Exact {
    args: Vec<String>,
    counts: cldrive::ExecutionCounts,
    sampled_fraction: u64,
}

fn bits(s: &Scalar) -> String {
    match s {
        Scalar::I(v) => format!("i{v}"),
        Scalar::F(v) => format!("f{:016x}", v.to_bits()),
    }
}

fn exact(result: Result<LaunchResult, ExecError>) -> Result<Exact, ExecError> {
    result.map(|r| Exact {
        args: r
            .args
            .iter()
            .map(|arg| match arg {
                ArgBinding::GlobalBuffer(b) => format!(
                    "{:?}x{} {:?} [{}]",
                    b.elem,
                    b.lanes,
                    b.space,
                    b.data.iter().map(bits).collect::<Vec<_>>().join(" ")
                ),
                ArgBinding::LocalElements(n) => format!("local {n}"),
                ArgBinding::Scalar(s) => bits(s),
            })
            .collect(),
        counts: r.counts,
        sampled_fraction: r.sampled_fraction.to_bits(),
    })
}

/// How a launch both executors agreed on ended.
struct Outcome {
    steps: u64,
    error: Option<ExecError>,
}

/// Launch `sig` both ways and hold the outcomes equal.
fn assert_agree(
    label: &str,
    unit: &TranslationUnit,
    sig: &KernelSignature,
    args: &[ArgBinding],
    ndrange: NDRange,
    limits: &ExecLimits,
) -> Outcome {
    let expected = reference::launch(unit, &sig.name, args.to_vec(), ndrange, limits);
    let launch = Program::lower(unit, &sig.name).launch(args.to_vec(), ndrange, limits);
    let got = exact(launch.result);
    assert_eq!(
        (&got, launch.steps),
        (&exact(expected.result), expected.steps),
        "{label}: kernel `{}` over {ndrange:?} under {limits:?}",
        sig.name
    );
    if let Ok(result) = &got {
        assert_eq!(launch.steps, result.counts.instructions, "{label}: steps");
    }
    Outcome {
        steps: launch.steps,
        error: got.err(),
    }
}

/// The shapes the driver launches a payload of `size` elements in.
fn shapes(size: usize, local: usize) -> [NDRange; 2] {
    let side = (size as f64).sqrt().ceil() as usize;
    let lside = (local as f64).sqrt().ceil() as usize;
    [
        NDRange::linear(size, local),
        NDRange::two_d(side, side, lside, lside),
    ]
}

/// Every kernel of `source` (whether or not it passes semantic analysis —
/// `execute` takes any unit), at `size`, in both shapes, sampled and not.
/// Returns the outcomes in that order.
fn sweep_source(
    label: &str,
    source: &str,
    size: usize,
    local: usize,
    limits: &ExecLimits,
) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    let parsed = cl_frontend::parser::parse(
        &cl_frontend::preprocess::preprocess(source, &Default::default()).text,
    );
    let sigs = cl_frontend::sema::analyze(&parsed.unit).kernels;
    for sig in &sigs {
        let options = PayloadOptions {
            global_size: size,
            local_size: local,
            seed: 0xD1FF,
        };
        let Ok(payload) = generate_payload(sig, &options) else {
            continue;
        };
        for ndrange in shapes(size, local) {
            for max_work_items in [0, 24] {
                let limits = ExecLimits {
                    max_work_items,
                    ..*limits
                };
                outcomes.push(assert_agree(
                    label,
                    &parsed.unit,
                    sig,
                    &payload.args,
                    ndrange,
                    &limits,
                ));
            }
        }
    }
    outcomes
}

/// The launch-wide budget the suite sweep runs under: the harness's in the
/// release profile, a sliver of it in a debug build (the walker makes well
/// under a million steps a second there).
fn suite_budget() -> u64 {
    if cfg!(debug_assertions) {
        40_000
    } else {
        16_000_000
    }
}

#[test]
fn every_suite_source_agrees_at_the_drivers_sizes() {
    let driver = cldrive::DriverOptions::default();
    let mut sizes: Vec<usize> = [256usize, 4096, 65536]
        .iter()
        .map(|&s| s.min(driver.profile_elements_cap).max(driver.local_size))
        .collect();
    sizes.dedup();
    let limits = ExecLimits {
        steps_per_work_item: 2_000_000,
        max_work_items: 0,
        total_steps: suite_budget(),
    };
    let benchmarks = suites::all_benchmarks();
    assert_eq!(benchmarks.len(), 50);
    for benchmark in &benchmarks {
        for &size in &sizes {
            sweep_source(
                &benchmark.id(),
                &benchmark.source,
                size,
                driver.local_size,
                &limits,
            );
        }
    }
}

#[test]
fn every_hostile_source_agrees() {
    let limits = ExecLimits {
        steps_per_work_item: 20_000,
        max_work_items: 0,
        total_steps: 60_000,
    };
    for (i, source) in common::all().iter().enumerate() {
        sweep_source(&format!("hostile source {i}"), source, 64, 16, &limits);
    }
}

/// Sources that lean on the corners of the walker's semantics: names bound
/// only on some paths, names never declared, calls that pass too few
/// arguments, `continue` inside `switch`, targets evaluated twice, rows of
/// multi-dimensional arrays, vectors of every width, every builtin family.
/// With each, the error its full linear launch ends in (if it traps).
const CORNERS: &[(&str, Option<&str>)] = &[
    // A declaration that is the body of an `if` binds on one path only.
    (
        "__kernel void A(__global int* a, const int n) {
        int i = get_global_id(0);
        int x = 7;
        { if (i % 2) int x = 1; a[i] = x; }
        { int x = x + 1; int z = 3, y = z + x; a[i] += x * 5 + y; int x = x * 2; a[i] -= x; }
        if (i % 3) int y = 2;
        if (i % 3) a[i] += y;
        for (int j = 0; j < 3 + (j ? z : 0); j++) int z = -j;
        for (int j = 0; j < 3; j++) { if (j) int w = j; if (j) a[i] += w; }
        switch (i % 4) { case 0: int s = 5; case 1: a[i] += i % 4 ? 1 : s; break; case 2: int s = 9; default: a[i] += i % 4 == 2 ? s : 2; }
        if (i == 42) a[i] += y;
    }",
        Some("unbound identifier `y`"),
    ),
    // A name that is only ever assigned is bound where it is first assigned.
    (
        "int k;
    __kernel void A(__global int* a, const int n) {
        int i = get_global_id(0);
        if (i % 2) { k = i; a[i] = k; }
        k = 3;
        { k = 4; { k++; a[i] += k; } if (i % 2) r = 1; if (i % 2) a[i] += r; r = 2; a[i] += r--; }
        for (int j = 0; j < 2; j++) q = j + 5;
        for (int j = 0; j < 2; j++) { if (j && i == 43) a[i] += q; q = 5; }
        a[i] += k;
    }",
        Some("unbound identifier `q`"),
    ),
    // A file-scope constant is not a binding; the kernel's arguments are, for
    // every function, by value.
    (
        "__constant float scale = 2.0f;
    float deeper(float x) { return x + n; }
    float twice(float x) { n = n + 1; a = a + 1; return x * n + deeper(x) + a[0]; }
    float leak(float x) { return x * scale; }
    __kernel void A(__global float* a, const int n) {
        int i = get_global_id(0);
        a[i] = twice(a[i]) + n;
        if (i == 44) { a[i] = leak(a[i]); }
    }",
        Some("unbound identifier `scale`"),
    ),
    // Too few arguments leave a parameter unbound (it may resolve further
    // out); too many are evaluated and dropped.
    (
        "float f(float x, float n) { return x + n; }
    float g(float x, float y) { y = 4.0f; return x + y; }
    float h(float x, float zz) { return x + zz; }
    __kernel void A(__global float* a, const int n) {
        int i = get_global_id(0);
        int c = 0;
        a[i] = f(a[i]) + g(a[i]) + f(1.0f, 2.0f, c++) + c;
        if (i == 45) { a[i] = h(a[i]); }
    }",
        Some("unbound identifier `zz`"),
    ),
    // `continue` in a `switch` ends the statement it is in, not the
    // iteration; `break` leaves the switch; cases fall through; a matching
    // case after `default` wins.
    (
        "__kernel void A(__global int* a, const int n) {
        int i = get_global_id(0);
        int acc = 0;
        for (int j = 0; j < 6; j++) {
            switch ((i + j) % 5) {
                case 0: acc += 1; continue; acc += 100;
                default: acc += 1000;
                case 1: { acc += 10; continue; }
                        acc += 7;
                case 2: acc += 20; break;
                case 3: if (j > 2) break; acc += 30;
                case 4: acc += 40;
            }
            acc += 100000;
        }
        a[i] = acc;
        switch (i) { case 1: break; }
        switch (i) { }
        do { if (i > 4) continue; a[i] += 1; } while (a[i] < 3);
        while (1) { if (a[i] > 0) break; a[i] = 1; }
        if (i == 7) return;
        a[i] += 5;
    }",
        None,
    ),
    // A compound assignment evaluates its target twice: the subscript's
    // effects and ticks happen twice, the coalescing check too.
    (
        "__kernel void A(__global int* a, __global int* b, const int n) {
        int i = get_global_id(0);
        int j = i;
        a[j++ % n] += 2;
        b[i] = j;
        b[i] <<= 1;
        ++a[i];
        a[i]--;
        int k = (j = 3) + j + (j++) + (++j) + j;
        b[i] ^= k;
        *(b + i) += k;
        int* p = &a[i];
        *p *= 2;
        p[0] -= 1;
        j = j ? j-- : ++j;
        b[i] += (j, k, j && k, j || b[i]);
    }",
        None,
    ),
    // Private and local arrays, rows of a two-dimensional one, addresses.
    (
        "__kernel void A(__global float* a, __local float* l, const int n) {
        int i = get_global_id(0);
        float t[4];
        float m[3][5];
        __local float s[8];
        for (int j = 0; j < 4; j++) { t[j] = a[i] * j; }
        m[1][2] = 3.0f;
        m[2] = t[1];
        s[i % 8] = t[3] + m[2] + m[1][2];
        l[get_local_id(0)] = s[i % 8];
        barrier(CLK_LOCAL_MEM_FENCE);
        __global float* p = &a[i];
        a[i] = *p + l[get_local_id(0)] + t[2] + *(&m[0] + 10) + sizeof(float) + sizeof(t);
    }",
        None,
    ),
    // Vectors: literals, broadcast, components, subscripts, lane stores,
    // vload/vstore, conversions, the whole-value math functions.
    (
        "__kernel void A(__global float4* a, __global float* b, __global int* c, const int n) {
        int i = get_global_id(0);
        float4 v = a[i];
        float4 w = (float4)(1.0f, 2.0f);
        float8 wide = (float8)(v, w);
        float2 lo = (float2)(wide.s0, wide.s7);
        v.x = v.y + w.z;
        v[1] = lo.y;
        w = w * v + 2.0f;
        w.w = -w.w;
        a[i] = w;
        a[i].y = v[3] + v.s2;
        b[i] = dot(v, w) + length(lo) + distance(v, w) + v[9];
        float4 n4 = normalize(cross(v, w));
        b[i] += n4.x + any(convert_int4(v)) + all(c[i]);
        float4 ld = vload4(i / 4, b);
        vstore4(ld + 1.0f, i / 4, b);
        vstore2((float2)(1.0f), i, b);
        int4 iv = convert_int4(w);
        iv = ~iv + -iv;
        c[i] = iv.x + (int)select(1.0f, 2.0f, i % 2) + (int)clamp(b[i], 0.0f, 9.0f);
        float16 big = (float16)(b[i]);
        big.sF = 3.0f;
        b[i] += big.sf + big.s3 + mix(v, w, 0.5f).x + smoothstep(0.0f, 1.0f, v).y + mad(v, w, v).z;
        q.x = 5;
        b[i] += q;
    }",
        None,
    ),
    // Every scalar builtin family, atomics included.
    (
        "__kernel void A(__global float* a, __global int* c, __global uint* h, const int n) {
        int i = get_global_id(0);
        float x = a[i];
        a[i] = sqrt(fabs(x)) + rsqrt(x + 1.0f) + exp(x) + log(x) + pow(x, 2.0f) + sin(x)
             + cos(x) + tan(x) + floor(x) + ceil(x) + round(x) + trunc(x) + fract(x)
             + fmin(x, 1.0f) + fmax(x, 2.0f) + fmod(x, 0.7f) + fmod(x, 0.0f) + step(1.0f, x)
             + sign(x) + hypot(x, 2.0f) + copysign(x, -1.0f) + native_divide(x, 0.0f)
             + native_recip(x) + ldexp(x, 3) + atan2(x, 2.0f) + degrees(x) + radians(x)
             + nextafter(x, 2.0f) + isnan(x) + isinf(x) + isfinite(x) + isless(x, 1.0f)
             + M_PI + FLT_EPSILON + clamp(x, NAN, 1.0f) + clamp(x, 2.0f, 1.0f) + exp10(x);
        c[i] = abs(c[i]) + min(c[i], 3) + max(c[i], i) + clz(c[i]) + popcount(c[i])
             + rotate(c[i], 3) + mul24(c[i], 3) + hadd(c[i], 5) + abs_diff(c[i], 9)
             + mad24(c[i], 2, 1) + bitselect(c[i], 5) + convert_int(x) + as_int(2.5f)
             + get_local_size(0) + get_num_groups(0) + get_group_id(0) + get_work_dim()
             + get_global_offset(0) + get_global_size(1) + get_global_id(i) + INT_MAX
             + (c[i] > 2 ? CHAR_BIT : -CHAR_BIT) + !c[i] + (c[i] >> 2) + (c[i] / 0) + 'a';
        atomic_inc(&h[c[i] % 4u]);
        atomic_add(h + 1, 2);
        atom_max(&h[2], i);
        int old = atomic_cmpxchg(&h[3], 0, i + 1);
        atomic_xchg(&h[0], old);
        atomic_min(&h[2], atomic_or(&h[1], 4));
        atomic_add(7, c[i]++);
        mem_fence(CLK_GLOBAL_MEM_FENCE);
        printf(\"%d\", c[i]++);
        prefetch(c, i++);
    }",
        None,
    ),
    // Recursion to the depth limit, a `break` outside any loop, a helper
    // that falls off its end, a kernel called as a function, an unknown
    // function that is never reached and one that is.
    (
        "int down(int d) { if (d <= 0) return 0; return down(d - 1) + 1; }
    float none(float x) { x = x + 1.0f; }
    int out(int x) { if (x > 2) break; return 9.5f; }
    __kernel void B(__global int* a, const int n) { a[0] += 1; }
    __kernel void A(__global int* a, const int n) {
        int i = get_global_id(0);
        a[i] = down(i % 17) + none(1.0f) + out(i);
        if (i == 1) { B(a, n); }
        if (i > 1000) { missing(i); }
        if (i == 40) { a[i] = down(40); }
    }",
        Some("call depth exceeded"),
    ),
    (
        "__kernel void A(__global int* a, const int n) {
        int i = get_global_id(0);
        a[i] = 1;
        if (i == 39) { a[i] = missing(a[i]++); }
    }",
        Some("call to unknown function `missing`"),
    ),
    (
        "__kernel void A(__global int* a, const int n) {
        int i = get_global_id(0);
        int4 v = vload4(0, a);
        a[i] = v.x + vload4(0, a).y + vload4(0).z + vstore4(v, 0);
        if (i == 42) { v = vload32(0, a); }
    }",
        Some("vectors have at most 16 lanes"),
    ),
    (
        "__kernel void A(__global int* a, const int n) {
        int i = get_global_id(0);
        a[i] = 1;
        if (i == 46) { atomic_inc(); }
    }",
        Some("without a pointer argument"),
    ),
    // Struct members are not modelled; unmodelled places are not evaluated.
    (
        "typedef struct { float x; float len; } P;
    __kernel void A(__global float* a, const int n) {
        int i = get_global_id(0);
        int c = 0;
        a[i] = a[i].len + (a[c++] + 1.0f).x + a[i].x + &c + &a[i].x;
        (c) = 4;
        a[i] += c + +c;
        M_PI.x = 3;
        a[i] += M_PI.x + M_PI[0] + (int)\"s\";
    }",
        None,
    ),
];

#[test]
fn the_walkers_corners_agree() {
    let limits = ExecLimits {
        steps_per_work_item: 50_000,
        max_work_items: 0,
        total_steps: 0,
    };
    for (i, (source, trap)) in CORNERS.iter().enumerate() {
        let outcomes = sweep_source(&format!("corner {i}"), source, 48, 8, &limits);
        // The traps sit behind `i == 39` and up: the full linear launch
        // reaches them, the sampled and the 7 x 7 ones run clean.
        let (linear, rest) = outcomes
            .split_last_chunk::<4>()
            .expect("four launches")
            .1
            .split_first()
            .expect("four");
        let detail = linear.error.as_ref().map(|e| e.to_string());
        assert_eq!(
            detail
                .as_deref()
                .map(|d| trap.is_some_and(|t| d.contains(t))),
            trap.map(|_| true),
            "corner {i} ended in {detail:?}"
        );
        assert!(rest.iter().all(|o| o.error.is_none()), "corner {i}");
    }
}

/// Five small kernels with loops, calls, a `switch` and a private array.
const BUDGETED: &[&str] = &[
    "__kernel void A(__global float* a, const int n) {
        int i = get_global_id(0);
        float acc = 0.0f;
        for (int r = 0; r < 9; r++) { acc += a[(i + r) % n] * 0.5f; }
        a[i] = acc;
    }",
    "float sq(float x) { return x * x; }
    float tw(float x) { float y = sq(x) + 1.0f; return y + sq(y); }
    __kernel void A(__global float* a, const int n) {
        int i = get_global_id(0);
        int j = 0;
        while (j < 4) { a[i] = tw(a[i]) * 0.001f; j++; }
    }",
    "__kernel void A(__global int* a, const int n) {
        int i = get_global_id(0);
        for (int j = 0; j < 7; j++) {
            switch ((i + j) % 4) {
                case 0: a[i] += 1; break;
                case 1: a[i] += 2;
                case 2: a[i] ^= j; break;
                default: a[i] -= 1;
            }
        }
    }",
    "__kernel void A(__global float* a, const int n) {
        int i = get_global_id(0);
        float t[6];
        for (int j = 0; j < 6; j++) { t[j] = a[i] + j; }
        float s = 0.0f;
        int j = 5;
        do { s += t[j] > 2.0f ? t[j] : -t[j]; } while (j-- > 0);
        a[i] = s;
    }",
    "int fib(int k) { if (k < 2) { return k; } return fib(k - 1) + fib(k - 2); }
    __kernel void A(__global int* a, __local int* l, const int n) {
        int i = get_global_id(0);
        l[get_local_id(0)] = fib(i % 6);
        barrier(CLK_LOCAL_MEM_FENCE);
        a[i] = l[get_local_id(0)] && a[i] || i;
    }",
];

/// Steps are charged per straight-line run, not per operation: at every
/// budget the verdict (and the count reached) must still be the walker's.
#[test]
fn every_budget_from_1_to_400_gives_the_walkers_verdict() {
    for (k, source) in BUDGETED.iter().enumerate() {
        let compiled = cl_frontend::compile(source, &Default::default());
        assert!(compiled.is_ok(), "{}", compiled.diagnostics);
        let sig = compiled.kernels.last().expect("a kernel");
        let options = PayloadOptions {
            global_size: 6,
            local_size: 3,
            seed: 5,
        };
        let payload = generate_payload(sig, &options).unwrap();
        let ndrange = NDRange::linear(6, 3);
        let mut verdicts = std::collections::BTreeSet::new();
        for budget in 1..=400u64 {
            for limits in [
                ExecLimits {
                    steps_per_work_item: budget,
                    max_work_items: 0,
                    total_steps: 0,
                },
                ExecLimits {
                    steps_per_work_item: 1_000_000,
                    max_work_items: 0,
                    total_steps: budget,
                },
                ExecLimits {
                    steps_per_work_item: budget / 3 + 1,
                    max_work_items: 4,
                    total_steps: budget,
                },
            ] {
                let label = format!("budgeted kernel {k}");
                let outcome =
                    assert_agree(&label, &compiled.unit, sig, &payload.args, ndrange, &limits);
                verdicts.insert(outcome.error.is_none());
                if outcome.error == Some(ExecError::TotalStepLimitExceeded) {
                    assert_eq!(outcome.steps, budget + 1, "{label}: the count reached");
                }
            }
        }
        assert_eq!(verdicts.len(), 2, "kernel {k}: the sweep crosses its cost");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CLSmith-style random kernels (deep expression trees over every
    /// operator) agree.
    #[test]
    fn clsmith_kernels_agree(seed in any::<u64>(), statements in 4usize..20, depth in 2usize..6) {
        let config = clsmith::ClsmithConfig {
            num_variables: 6,
            num_statements: statements,
            max_expr_depth: depth,
        };
        let kernel = clsmith::generate_kernel(seed, &config);
        let limits = ExecLimits {
            steps_per_work_item: 30_000,
            max_work_items: 0,
            total_steps: 150_000,
        };
        sweep_source(&format!("clsmith seed {seed}"), &kernel.source, 32, 8, &limits);
    }

    /// Kernels of the synthetic corpus's families (what CLgen learns from)
    /// agree.
    #[test]
    fn corpus_kernels_agree(seed in any::<u64>()) {
        let limits = ExecLimits {
            steps_per_work_item: 30_000,
            max_work_items: 0,
            total_steps: 150_000,
        };
        for kernel in clgen_corpus::kernelgen::generate_population(seed, 6) {
            sweep_source(&format!("corpus seed {seed}"), &kernel.source, 32, 8, &limits);
        }
    }
}
