//! Fuzz-style hostility tests: `HostDriver::run_source` must return typed
//! errors for garbage and pathological kernels — never panic, abort or hang.
//!
//! Every case here was chosen to poke a specific historical panic surface:
//! unbounded parser recursion (stack overflow inside `compile`), unchecked
//! array-dimension products (overflow/OOM in `exec_decl`), integer edge cases
//! in the evaluator, and unbounded loops (step budgets). The sources live in
//! `common`, which `differential.rs` replays against the reference executor.

mod common;

use cldrive::interp::{execute, ArgBinding, ExecLimits, NDRange};
use cldrive::{
    generate_payload, CheckOutcome, CheckerOptions, DriveError, DriverOptions, ExecError,
    HostDriver, PayloadOptions, Platform,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn driver() -> HostDriver {
    HostDriver::with_options(
        Platform::amd(),
        DriverOptions {
            total_step_budget: 2_000_000,
            ..DriverOptions::quick()
        },
    )
}

/// Run a source through the driver asserting it neither panics nor succeeds
/// silently in a way that matters — we only care that the outcome is typed.
fn assert_typed_outcome(label: &str, source: &str) {
    let result = catch_unwind(AssertUnwindSafe(|| driver().run_source(source, &[256])));
    assert!(result.is_ok(), "{label}: run_source panicked");
}

#[test]
fn garbage_bytes_do_not_panic() {
    let cases = common::GARBAGE;
    for (i, src) in cases.iter().enumerate() {
        assert_typed_outcome(&format!("garbage case {i}"), src);
    }
}

#[test]
fn deterministic_pseudo_random_garbage() {
    for (case, src) in common::pseudo_random_garbage().iter().enumerate() {
        assert_typed_outcome(&format!("fuzz case {case}"), src);
    }
}

#[test]
fn deep_nesting_is_rejected_not_stack_overflow() {
    for (label, src) in &common::deep_nesting() {
        let result = catch_unwind(AssertUnwindSafe(|| driver().run_source(src, &[64])));
        let outcome = result.unwrap_or_else(|_| panic!("{label}: panicked"));
        assert!(
            matches!(outcome, Err(DriveError::Compile(_))),
            "{label}: expected a compile diagnostic, got {outcome:?}"
        );
    }
}

#[test]
fn huge_array_dimensions_become_typed_errors() {
    for (label, src) in common::HUGE_ARRAYS {
        let result = catch_unwind(AssertUnwindSafe(|| driver().run_source(src, &[64])));
        let outcome = result.unwrap_or_else(|_| panic!("{label}: panicked"));
        assert!(
            matches!(
                outcome,
                Err(DriveError::Exec(ExecError::ResourceLimitExceeded(_)))
                    | Err(DriveError::Compile(_))
            ),
            "{label}: expected resource-limit or compile error, got {outcome:?}"
        );
    }
}

#[test]
fn integer_edge_cases_do_not_panic() {
    let cases = common::INTEGER_EDGE_CASES;
    for (i, src) in cases.iter().enumerate() {
        assert_typed_outcome(&format!("integer case {i}"), src);
    }
    // Overflowing `long` arithmetic wraps, here (a debug build) exactly as in
    // the release build production runs: the same source is the same bytes.
    for (i, (src, wrapped)) in common::INTEGER_WRAPS.iter().enumerate() {
        assert_typed_outcome(&format!("wrapping case {i}"), src);
        let compiled = cl_frontend::compile(src, &Default::default());
        assert!(
            compiled.is_ok(),
            "wrapping case {i}: {}",
            compiled.diagnostics
        );
        let options = PayloadOptions {
            global_size: 8,
            local_size: 4,
            seed: 1,
        };
        let payload = generate_payload(&compiled.kernels[0], &options).unwrap();
        let result = execute(
            &compiled.unit,
            "A",
            payload.args,
            NDRange::linear(8, 4),
            &ExecLimits::default(),
        )
        .unwrap_or_else(|e| panic!("wrapping case {i}: {e}"));
        let ArgBinding::GlobalBuffer(a) = &result.args[0] else {
            panic!("wrapping case {i}: the argument is a buffer")
        };
        let got: Vec<i64> = (0..wrapped.len())
            .map(|at| a.load(at as i64).as_scalar().as_i64())
            .collect();
        assert_eq!(&got, wrapped, "wrapping case {i}: {src}");
    }
}

#[test]
fn scratch_declared_in_a_loop_is_a_typed_error_not_an_abort() {
    // 64 MB per iteration, freed only when the work item ends: without a cap
    // on what one work item holds the allocator aborts the process, which
    // `catch_unwind` cannot contain.
    let outcome = driver().run_source(common::SCRATCH_IN_A_LOOP, &[64]);
    assert!(
        matches!(
            outcome,
            Err(DriveError::Exec(ExecError::ResourceLimitExceeded(_)))
        ),
        "expected the scratch allowance to fire, got {outcome:?}"
    );
    // The allowance is per work item: more than half of it in each of two
    // work items is fine.
    let per_item = "__kernel void A(__global float* a) {
        float t[2097153];
        t[5] = a[0]; a[get_global_id(0)] = t[5] + 1.0f;
    }";
    let compiled = cl_frontend::compile(per_item, &Default::default());
    let options = PayloadOptions {
        global_size: 2,
        local_size: 1,
        seed: 1,
    };
    let payload = generate_payload(&compiled.kernels[0], &options).unwrap();
    let ndrange = NDRange::linear(2, 1);
    let result = execute(
        &compiled.unit,
        "A",
        payload.args,
        ndrange,
        &ExecLimits::default(),
    );
    assert!(result.is_ok(), "{result:?}");
}

#[test]
fn infinite_loops_are_cut_by_budgets() {
    let loops = common::INFINITE_LOOPS;
    for (i, src) in loops.iter().enumerate() {
        let outcome = driver().run_source(src, &[256]);
        assert!(
            matches!(
                outcome,
                Err(DriveError::Exec(
                    ExecError::StepLimitExceeded | ExecError::TotalStepLimitExceeded
                ))
            ),
            "loop case {i}: expected a step-budget error, got {outcome:?}"
        );
    }
}

#[test]
fn total_step_budget_cuts_launches_short() {
    let spin = common::SPIN;
    let bounded = HostDriver::with_options(
        Platform::amd(),
        DriverOptions {
            total_step_budget: 50_000,
            ..DriverOptions::quick()
        },
    );
    let outcome = bounded.run_source(spin, &[4096]);
    assert!(
        matches!(
            outcome,
            Err(DriveError::Exec(ExecError::TotalStepLimitExceeded))
        ),
        "expected the launch-wide budget to fire, got {outcome:?}"
    );
}

#[test]
fn recursion_depth_is_bounded() {
    let recursive = common::MUTUAL_RECURSION;
    assert_typed_outcome("mutual recursion", recursive);
}

#[test]
fn the_unit_budget_bounds_the_dynamic_check_too() {
    // 60k steps per work item: far below the per-item budget (2M), so only a
    // launch-wide budget can stop the check's four launches of 64 items
    // before they have cost 15M steps. With the budget at 100k the first
    // check launch is cut (a timeout) and the unit has cost one budget, not
    // the kernel's full price four times over and a profile launch besides.
    let slow = "__kernel void A(__global float* a, const int n) {
        int i = get_global_id(0);
        float acc = 0.0f;
        for (int r = 0; r < 15000; r++) { acc += a[i] * 0.5f; }
        a[i] = acc;
    }";
    let checked = HostDriver::with_options(
        Platform::amd(),
        DriverOptions {
            checker: Some(CheckerOptions {
                global_size: 64,
                local_size: 16,
                ..CheckerOptions::default()
            }),
            total_step_budget: 100_000,
            ..DriverOptions::quick()
        },
    );
    let outcome = checked.run_source(slow, &[4096]);
    assert!(
        matches!(outcome, Err(DriveError::Check(CheckOutcome::Timeout))),
        "expected the check to time out on the unit budget, got {outcome:?}"
    );
    let compiled = cl_frontend::compile(slow, &Default::default());
    let kernel = checked.prepare(&compiled.unit, &compiled.kernels[0]);
    assert_eq!(kernel.check_steps(), 100_001);
}
