//! Direct tests of the execution machine's edge and failure behaviour: the
//! paper's runtime-error taxonomy (crash / wrong result / hang), resource
//! handling, and metrics accounting.

use acc_compiler::driver::compile_with_profile;
use acc_compiler::{ExecMode, RunKnobs, RunOutcome, RunResult, VendorCompiler};
use acc_device::{Defect, ExecProfile};
use acc_spec::envvar::EnvConfig;
use acc_spec::{ClauseKind, DeviceType, DirectiveKind, Language};

fn run(src: &str) -> RunOutcome {
    run_with(src, ExecProfile::reference())
}

fn run_with(src: &str, profile: ExecProfile) -> RunOutcome {
    compile_with_profile(src, Language::C, profile, DeviceType::Nvidia)
        .unwrap_or_else(|e| panic!("{e}\n---\n{src}"))
        .run()
        .outcome
}

fn crash_message(outcome: RunOutcome) -> String {
    match outcome {
        RunOutcome::Crash(m) => m,
        other => panic!("expected crash, got {other:?}"),
    }
}

#[test]
fn host_index_out_of_bounds_crashes() {
    let src = "int main(void) {\n    int A[4];\n    A[9] = 1;\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("out of bounds"), "{m}");
}

#[test]
fn device_index_out_of_bounds_crashes() {
    let src = "int main(void) {\n    int A[4];\n    #pragma acc parallel copy(A[0:4])\n    {\n        #pragma acc loop\n        for (i = 0; i < 9; i++)\n        {\n            A[i] = 1;\n        }\n    }\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("out of bounds"), "{m}");
}

#[test]
fn present_miss_crashes() {
    let src = "int main(void) {\n    int A[4];\n    #pragma acc parallel present(A[0:4])\n    {\n    }\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("not present"), "{m}");
}

#[test]
fn host_dereference_of_device_pointer_segfaults() {
    let src = "int main(void) {\n    float* p = acc_malloc(16 * sizeof(float));\n    float x = 0.0f;\n    x = p[0];\n    return x == 0.0f;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("segmentation fault"), "{m}");
}

#[test]
fn deref_without_deviceptr_clause_faults_in_kernel() {
    let src = "int main(void) {\n    float* p = acc_malloc(16 * sizeof(float));\n    #pragma acc parallel\n    {\n        #pragma acc loop\n        for (i = 0; i < 4; i++)\n        {\n            p[i] = 1.0f;\n        }\n    }\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("not present"), "{m}");
}

#[test]
fn infinite_loop_times_out() {
    // A loop whose bound the body keeps moving: the step budget must stop it.
    let src = "int main(void) {\n    int n = 10;\n    int s = 0;\n    for (i = 0; i < n; i++)\n    {\n        n = n + 1;\n        s = s + 1;\n    }\n    return s;\n}\n";
    assert_eq!(run(src), RunOutcome::Timeout);
}

#[test]
fn hang_defect_times_out() {
    let src = "int main(void) {\n    int A[4];\n    #pragma acc parallel copy(A[0:4]) async(1)\n    {\n    }\n    #pragma acc wait(1)\n    return 1;\n}\n";
    let profile = ExecProfile::reference().with_defect(Defect::HangOnClause(
        DirectiveKind::Parallel,
        ClauseKind::Async,
    ));
    assert_eq!(run_with(src, profile), RunOutcome::Timeout);
}

#[test]
fn collapse_requires_tight_nesting() {
    let src = "int main(void) {\n    int A[4];\n    #pragma acc parallel copy(A[0:4])\n    {\n        #pragma acc loop collapse(2)\n        for (i = 0; i < 4; i++)\n        {\n            A[i] = 0;\n            for (j = 0; j < 2; j++)\n            {\n                A[i] = A[i] + j;\n            }\n        }\n    }\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("tightly nested"), "{m}");
}

#[test]
fn nested_compute_regions_rejected() {
    let src = "int main(void) {\n    #pragma acc parallel\n    {\n        #pragma acc parallel\n        {\n        }\n    }\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("nested"), "{m}");
}

#[test]
fn procedure_call_in_region_rejected() {
    // OpenACC 1.0 has no `routine` directive (§V-C).
    let src = "void helper(int* a, int n) {\n    a[0] = n;\n}\n\nint main(void) {\n    int A[4];\n    #pragma acc parallel copy(A[0:4])\n    {\n        helper(A, 4);\n    }\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("not supported by OpenACC 1.0"), "{m}");
}

#[test]
fn division_by_zero_crashes() {
    let src =
        "int main(void) {\n    int z = 0;\n    int x = 0;\n    x = 4 / z;\n    return x;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("division by zero"), "{m}");
}

#[test]
fn negative_section_crashes() {
    let src = "int main(void) {\n    int n = -2;\n    int A[4];\n    #pragma acc data copyin(A[0:n])\n    {\n    }\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("negative"), "{m}");
}

#[test]
fn section_overrun_crashes() {
    let src = "int main(void) {\n    int A[4];\n    #pragma acc data copyin(A[0:9])\n    {\n    }\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("out of bounds"), "{m}");
}

#[test]
fn metrics_count_the_work() {
    let src = "int main(void) {\n    int A[8];\n    for (i = 0; i < 8; i++)\n    {\n        A[i] = 0;\n    }\n    #pragma acc parallel num_gangs(2) copy(A[0:8])\n    {\n        #pragma acc loop\n        for (i = 0; i < 8; i++)\n        {\n            A[i] = A[i] + 1;\n        }\n    }\n    return 1;\n}\n";
    let exe = compile_with_profile(
        src,
        Language::C,
        ExecProfile::reference(),
        DeviceType::Nvidia,
    )
    .unwrap();
    let result = exe.run();
    assert!(result.outcome.passed());
    let m = result.metrics;
    assert_eq!(m.kernels_launched, 1);
    assert_eq!(m.async_launches, 0);
    assert_eq!(
        m.device_iterations, 8,
        "each iteration executes exactly once"
    );
    assert_eq!(m.bytes_to_device, 8 * 8, "copy uploads 8 ints");
    assert_eq!(m.bytes_to_host, 8 * 8, "copy downloads 8 ints");
    assert_eq!(m.allocations, 1);
}

#[test]
fn env_config_reaches_the_program() {
    let src = "int main(void) {\n    int t = 0;\n    t = acc_get_device_type();\n    return t == acc_device_host;\n}\n";
    let exe = VendorCompiler::reference()
        .compile(src, Language::C)
        .unwrap();
    // Without the env: the concrete accelerator type — not host.
    assert!(matches!(exe.run().outcome, RunOutcome::Completed(0)));
    // With ACC_DEVICE_TYPE=HOST: host.
    let env = EnvConfig::from_pairs([("ACC_DEVICE_TYPE", "HOST")]);
    assert!(matches!(
        exe.run_with_env(&env).outcome,
        RunOutcome::Completed(1)
    ));
}

#[test]
fn uninitialized_scalar_reads_garbage_not_zero() {
    // Host locals are garbage-initialized; a test forgetting to initialize
    // must fail loudly (the value is never a small constant).
    let src = "int main(void) {\n    int x;\n    return x == 0;\n}\n";
    assert!(matches!(run(src), RunOutcome::Completed(0)));
}

#[test]
fn call_stack_overflow_crashes() {
    let src =
        "void spin(int n) {\n    spin(n);\n}\n\nint main(void) {\n    spin(1);\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("stack overflow"), "{m}");
}

#[test]
fn wrong_argument_count_crashes() {
    let src = "void two(int a, int n) {\n}\n\nint main(void) {\n    two(1);\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("expects 2"), "{m}");
}

#[test]
fn update_of_unmapped_variable_crashes() {
    let src =
        "int main(void) {\n    int A[4];\n    #pragma acc update host(A[0:4])\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(m.contains("not present"), "{m}");
}

#[test]
fn double_free_crashes() {
    let src = "int main(void) {\n    float* p = acc_malloc(8 * sizeof(float));\n    acc_free(p);\n    acc_free(p);\n    return 1;\n}\n";
    let m = crash_message(run(src));
    assert!(
        m.contains("invalid device address") || m.contains("free"),
        "{m}"
    );
}

#[test]
fn gang_redundant_execution_is_deterministic() {
    // The DESIGN.md §4.1 contract: without a loop directive, G gangs each
    // run the loop — exactly G increments, run after run.
    let src = "int main(void) {\n    int A[4];\n    for (i = 0; i < 4; i++)\n    {\n        A[i] = 0;\n    }\n    #pragma acc parallel num_gangs(7) copy(A[0:4])\n    {\n        for (i = 0; i < 4; i++)\n        {\n            A[i] = A[i] + 1;\n        }\n    }\n    return A[0] * 1000 + A[3];\n}\n";
    let exe = VendorCompiler::reference()
        .compile(src, Language::C)
        .unwrap();
    for _ in 0..3 {
        assert!(matches!(exe.run().outcome, RunOutcome::Completed(7007)));
    }
}

/// Run `src` under both engines with a 100k-step budget: they must agree,
/// and neither may panic.
fn run_both(src: &str, language: Language) -> RunOutcome {
    run_both_with(src, language, ExecProfile::reference()).outcome
}

/// Run `src` under `profile` on both engines, which must agree on the
/// outcome and on every `Metrics` field.
fn run_both_with(src: &str, language: Language, profile: ExecProfile) -> RunResult {
    let exe = compile_with_profile(src, language, profile, DeviceType::Nvidia)
        .unwrap_or_else(|e| panic!("{e}\n---\n{src}"));
    let [vm, walk] = [ExecMode::Vm, ExecMode::Walk].map(|exec_mode| {
        let knobs = RunKnobs {
            exec_mode,
            step_limit: Some(100_000),
            ..RunKnobs::default()
        };
        exe.run_with_knobs(&EnvConfig::empty(), knobs)
    });
    assert_eq!(vm, walk, "the engines disagree on\n{src}");
    vm
}

/// A compute region around a loop that adds one to each of `a`'s four
/// elements, between host loops that fill `a` and check the sum.
fn region_program(directive: &str, closing: &str) -> String {
    format!(
        "int main(void) {{\n    int a[4];\n    int s = 0;\n    int n = 0;\n    for (i = 0; i < 4; i++)\n    {{\n        a[i] = i;\n    }}\n    {directive}\n{closing}    for (i = 0; i < 4; i++)\n    {{\n        s = s + a[i];\n    }}\n    return s == 10;\n}}\n"
    )
}

const BLOCK_BODY: &str = "    {\n        #pragma acc loop\n        for (i = 0; i < 4; i++)\n        {\n            a[i] = a[i] + 1;\n        }\n    }\n";
const LOOP_BODY: &str = "    for (i = 0; i < 4; i++)\n    {\n        a[i] = a[i] + 1;\n    }\n";

/// A region that ran as its host fallback: the body ran once on the host,
/// nothing launched and nothing moved.
fn assert_host_fallback(r: &RunResult) {
    assert_eq!(r.outcome, RunOutcome::Completed(1));
    assert_eq!(r.metrics.kernels_launched, 0);
    assert_eq!(r.metrics.bytes_to_device + r.metrics.bytes_to_host, 0);
    assert_eq!(r.metrics.device_iterations, 0);
}

#[test]
fn a_parallel_if_zero_block_runs_on_the_host_under_both_engines() {
    let src = region_program("#pragma acc parallel if(0) copy(a[0:4])", BLOCK_BODY);
    assert_host_fallback(&run_both_with(&src, Language::C, ExecProfile::reference()));
}

#[test]
fn a_parallel_loop_with_a_false_if_runs_on_the_host_under_both_engines() {
    let src = region_program("#pragma acc parallel loop if(n) copy(a[0:4])", LOOP_BODY);
    assert_host_fallback(&run_both_with(&src, Language::C, ExecProfile::reference()));
    // The same region with a true `if` launches.
    let src = src.replace("int n = 0;", "int n = 1;");
    let r = run_both_with(&src, Language::C, ExecProfile::reference());
    assert_eq!(r.metrics.kernels_launched, 1);
}

#[test]
fn an_ignored_kernels_region_runs_on_the_host_under_both_engines() {
    let src = region_program("#pragma acc kernels copy(a[0:4])", BLOCK_BODY);
    let profile =
        ExecProfile::reference().with_defect(Defect::IgnoreDirective(DirectiveKind::Kernels));
    assert_host_fallback(&run_both_with(&src, Language::C, profile));
}

#[test]
fn a_dead_region_is_eliminated_under_both_engines() {
    let src = "int main(void) {\n    int a[4];\n    int b[4];\n    for (i = 0; i < 4; i++)\n    {\n        a[i] = i;\n        b[i] = 0;\n    }\n    #pragma acc parallel copyin(a[0:4]) copyout(b[0:4])\n    {\n        #pragma acc loop\n        for (i = 0; i < 4; i++)\n        {\n            b[i] = a[i];\n        }\n    }\n    return b[3] == 3;\n}\n";
    let live = run_both_with(src, Language::C, ExecProfile::reference());
    assert_eq!(live.outcome, RunOutcome::Completed(1));
    let profile = ExecProfile::reference().with_defect(Defect::EliminateDeadComputeRegions);
    let dead = run_both_with(src, Language::C, profile);
    assert_eq!(dead.outcome, RunOutcome::Completed(0));
    assert_eq!(dead.metrics.kernels_launched, 0);
    assert_eq!(dead.metrics.bytes_to_device + dead.metrics.bytes_to_host, 0);
}

/// `x = i64::MIN; y = x <op> ...;` in C.
fn c_min_program(assign: &str) -> String {
    format!(
        "int main(void) {{\n    int x = 0;\n    int y = 0;\n    x = -9223372036854775807 - 1;\n    {assign}\n    return y == x;\n}}\n"
    )
}

/// The same in Fortran.
fn fortran_min_program(assign: &str) -> String {
    format!(
        "integer function main()\n    implicit none\n    integer :: x\n    integer :: y\n    x = -9223372036854775807 - 1\n    y = 0\n    {assign}\n    main = y == x\n    return\nend function main\n"
    )
}

#[test]
fn int_min_divided_by_minus_one_crashes_in_both_engines() {
    let message = "value error: integer division overflow";
    for (src, language) in [
        (c_min_program("y = x / -1;"), Language::C),
        (fortran_min_program("y = x / (-1)"), Language::Fortran),
    ] {
        assert_eq!(
            run_both(&src, language),
            RunOutcome::Crash(message.into()),
            "{src}"
        );
    }
}

#[test]
fn int_min_remainder_by_minus_one_crashes_in_both_engines() {
    let src = c_min_program("y = x % -1;");
    assert_eq!(
        run_both(&src, Language::C),
        RunOutcome::Crash("value error: integer remainder overflow".into())
    );
    // Fortran spells the remainder `mod`, whose host crashes carry no
    // "value error" prefix (as "mod by zero" does not).
    let src = fortran_min_program("y = mod(x, -1)");
    assert_eq!(
        run_both(&src, Language::Fortran),
        RunOutcome::Crash("mod overflow".into())
    );
}

#[test]
fn negating_int_min_wraps_in_both_engines() {
    for (src, language) in [
        (c_min_program("y = -x;"), Language::C),
        (fortran_min_program("y = -x"), Language::Fortran),
    ] {
        assert_eq!(run_both(&src, language), RunOutcome::Completed(1), "{src}");
    }
}

/// A loop whose step carries the induction variable past `i64::MAX` wraps
/// to a negative value, still below the bound, so it runs until the step
/// budget stops it — on the host and in a compute region alike.
#[test]
fn loop_stepping_past_int_max_wraps_in_both_engines() {
    let host = "int main(void) {\n    int n = 0;\n    for (i = 9223372036854775806; i < 9223372036854775807; i += 4)\n    {\n        n = n + 1;\n    }\n    return n;\n}\n";
    let device = "int main(void) {\n    int n = 0;\n    #pragma acc parallel num_gangs(1)\n    {\n        for (i = 9223372036854775806; i < 9223372036854775807; i += 4)\n        {\n            n = n + 1;\n        }\n    }\n    return n;\n}\n";
    for src in [host, device] {
        assert_eq!(run_both(src, Language::C), RunOutcome::Timeout, "{src}");
    }
}

/// A `loop`-directive nest over `for (i = -i64::MAX; i < i64::MAX; i +=
/// step)`, collapsed with an inner two-trip loop when `collapse` is 2.
fn wide_loop_program(step: &str, collapse: u32) -> String {
    let (directive, inner_open, inner_close) = if collapse == 2 {
        (
            "#pragma acc loop collapse(2)",
            "        for (j = 0; j < 2; j++)\n        {\n",
            "        }\n",
        )
    } else {
        ("#pragma acc loop", "", "")
    };
    format!(
        "int main(void) {{\n    int n = 0;\n    #pragma acc parallel num_gangs(1) reduction(+:n)\n    {{\n        {directive}\n        for (i = -9223372036854775807; i < 9223372036854775807; i += {step})\n        {{\n{inner_open}            n = n + 1;\n{inner_close}        }}\n    }}\n    return n;\n}}\n"
    )
}

/// A collapsed nest's trip count is exact for any bounds: a span of
/// nearly 2^64 neither panics nor wraps to a short count, so steps 1 and
/// 3 run until the step budget stops them, with one loop or two.
#[test]
fn collapsed_loops_spanning_the_int_range_run_their_full_count() {
    for collapse in [1, 2] {
        for step in ["1", "3"] {
            let src = wide_loop_program(step, collapse);
            assert_eq!(run_both(&src, Language::C), RunOutcome::Timeout, "{src}");
        }
        // A step of 2^62 crosses the range in exactly four iterations
        // (each inner loop twice more when collapsed).
        let src = wide_loop_program("4611686018427387904", collapse);
        let trips = 4 * i64::from(collapse);
        assert_eq!(
            run_both(&src, Language::C),
            RunOutcome::Completed(trips),
            "{src}"
        );
    }
}

/// A Fortran `main` with `x = i64::MIN`, `y = 0` and `z = 0`, then `body`.
fn fortran_mod_program(body: &str) -> String {
    format!(
        "integer function main()\n    implicit none\n    integer :: x\n    integer :: y\n    integer :: z\n    x = -9223372036854775807 - 1\n    y = 0\n    z = 0\n{body}\n    main = y == 0\n    return\nend function main\n"
    )
}

/// Fortran's `mod` crashes with one text wherever it runs: on the host
/// and inside a compute region, under both engines.
#[test]
fn mod_crashes_read_the_same_on_host_and_device() {
    for (call, message) in [("mod(7, z)", "mod by zero"), ("mod(x, -1)", "mod overflow")] {
        let host = fortran_mod_program(&format!("    y = {call}"));
        let device = fortran_mod_program(&format!(
            "    !$acc parallel num_gangs(1)\n        y = {call}\n    !$acc end parallel"
        ));
        for src in [host, device] {
            assert_eq!(
                run_both(&src, Language::Fortran),
                RunOutcome::Crash(message.into()),
                "{src}"
            );
        }
    }
}
