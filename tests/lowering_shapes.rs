//! Lowering shapes the corpus never reaches, pinned by their full
//! disassembly.
//!
//! `tests/golden/corpus_runs.txt` pins every corpus image by a hash, but
//! the corpus lowers no unary operator on either side, no device statement
//! escape (`DevStmt`) and no compile-time crash (`CrashMsg`), so a slip in
//! those arms changes no line of it. The programs below reach, in host
//! code and in device code, every lowering arm the two chunk kinds share:
//! unary `-` and `!`, `&&` and `||`, `sizeof`, float and double literals,
//! plain and compound assignment to scalars and to elements with computed
//! subscripts, subscript lists deeper than the inline arity (8), read and
//! written, scalar assignments from calls, call statements and `if`/`else`;
//! and the device statements that crash at compile time.
//!
//! `tests/golden/lowering_shapes.txt` holds, for each program, a header
//! `== <name> (<language>)`, a `run:` line with the outcome (`Debug`) and
//! all ten `Metrics` fields (`Display`), then the image's
//! `disassemble()` text. The run is derived under the VM and under the
//! walker, which must agree on the whole result. On a mismatch the derived
//! text is written to `lowering_shapes.actual.txt` beside the other test
//! outputs. Replace the golden file only for a deliberate change of
//! lowering or of what a program does, and say why in CHANGES.md.

use openacc_vv::compiler::{Executable, RunKnobs, RunResult};
use openacc_vv::prelude::*;
use openacc_vv::spec::envvar::EnvConfig;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/lowering_shapes.txt"
);

/// `(name, language, source)` of every pinned program.
const PROGRAMS: &[(&str, Language, &str)] = &[
    ("host_operators", Language::C, HOST_OPERATORS),
    ("host_elements", Language::C, HOST_ELEMENTS),
    ("host_calls", Language::C, HOST_CALLS),
    ("device_operators", Language::C, DEVICE_OPERATORS),
    ("device_elements", Language::C, DEVICE_ELEMENTS),
    ("device_calls", Language::C, DEVICE_CALLS),
    ("device_return", Language::C, DEVICE_RETURN),
    ("device_array_decl", Language::C, DEVICE_ARRAY_DECL),
    ("device_nested_region", Language::C, DEVICE_NESTED_REGION),
    ("device_standalone", Language::C, DEVICE_STANDALONE),
    ("directive_blocks", Language::C, DIRECTIVE_BLOCKS),
    ("fortran_both_sides", Language::Fortran, FORTRAN_BOTH_SIDES),
];

const HOST_OPERATORS: &str = "int main(void) {
    int error = 0;
    int a = 3;
    int b = -a;
    int c = !a;
    int d = a > 1 && b < 0;
    int e = a < 1 || b < 0;
    int s = sizeof(double);
    float f = 1.5f;
    double g = 0.25;
    int u;
    a += 2;
    b *= -(a - 1);
    f = f * 2.0f - 0.5f;
    g -= 0.125;
    u = !c || a == 0;
    if (!(d && e))
    {
        error += 1;
    }
    else
    {
        error -= 0;
    }
    if (a != 5 || b != 12 || c != 0 || s != 8)
    {
        error += 1;
    }
    if (f != 2.5f && g != 0.125)
    {
        error += 1;
    }
    return error == 0 && u;
}
";

const HOST_ELEMENTS: &str = "int main(void) {
    int error = 0;
    int k = 1;
    int v[8];
    int m[2][3];
    int w[2][2];
    for (i = 0; i < 8; i++)
    {
        v[i] = i * 2;
    }
    v[k + 1] += 5;
    v[2 * k] -= v[0];
    m[1][k] = v[k + 1] - v[3];
    w[1][k] = 7;
    if (k > 100)
    {
        w[1][0][0][0][0][0][0][0][k] = 7;
        k = w[1][0][0][0][0][0][0][0][1];
        w[1][0][0][0][0][0][0][0][1] += k;
    }
    k = w[1][1];
    for (i = k; i < k + 2; i += k - 6)
    {
        v[i - k] = -v[i - k];
    }
    if (m[1][1] != 3 || k != 7)
    {
        error += 1;
    }
    if (v[0] != 0 || v[1] != (-2))
    {
        error += 1;
    }
    return error == 0;
}
";

const HOST_CALLS: &str = "void fill(int* a, int n) {
    for (i = 0; i < n; i++)
    {
        a[i] = i;
    }
}

int twice(int x) {
    return x + x;
}

int main(void) {
    int error = 0;
    int a[4];
    int n = 0;
    acc_init(acc_device_default);
    fill(a, 4);
    n = acc_get_num_devices(acc_device_not_host);
    n = 1 + twice(n);
    a[0] = twice(3);
    int m = acc_on_device(acc_device_not_host);
    float f = -twice(2);
    if (n < 3 || a[0] != 6 || a[3] != 3 || m != 0 || f != (-4.0f))
    {
        error += 1;
    }
    return error == 0;
}
";

const DEVICE_OPERATORS: &str = "int main(void) {
    int error = 0;
    int r[8];
    int x = 5;
    for (i = 0; i < 8; i++)
    {
        r[i] = 0;
    }
    #pragma acc parallel num_gangs(1) copy(r[0:8])
    {
        int t = -x;
        int u;
        float f = 1.5f;
        double g = 0.25;
        u = !t;
        t += 3;
        f *= 2.0f;
        g = -g + 0.75;
        if (t < 0 && u == 0 || x == 0)
        {
            r[0] = t;
        }
        else
        {
            r[0] = 99;
        }
        r[1] = sizeof(float) + u;
        r[2] = f;
        r[3] = g * 4.0;
        r[4] = !u || t > 0;
        r[5] = -r[0];
    }
    if (r[0] != (-2) || r[1] != 4 || r[2] != 3 || r[3] != 2 || r[4] != 1 || r[5] != 2)
    {
        error += 1;
    }
    return error == 0;
}
";

const DEVICE_ELEMENTS: &str = "int main(void) {
    int error = 0;
    int k = 1;
    int v[8];
    int w[2][2];
    for (i = 0; i < 8; i++)
    {
        v[i] = i;
    }
    w[0][1] = 0;
    w[1][1] = 4;
    #pragma acc parallel loop copy(v[0:8])
    for (i = 0; i < 4; i++)
    {
        v[2 * i + 1] += v[2 * i];
        v[2 * i] *= k + 1;
        for (j = 0; j < i; j += k)
        {
            v[2 * i] -= 1;
        }
    }
    #pragma acc parallel num_gangs(1) copy(v[0:8], w)
    {
        if (k > 100)
        {
            w[0][0][0][0][0][0][0][0][k] = 3;
            w[0][0][0][0][0][0][0][0][1] += 2;
            v[0] = w[1][0][0][0][0][0][0][0][k];
        }
        w[0][k] = 3;
        w[0][1] += 2;
        v[0] = w[1][k] + w[0][1];
    }
    if (v[0] != 9 || v[1] != 1 || v[2] != 3 || v[7] != 13)
    {
        error += 1;
    }
    if (w[0][1] != 5)
    {
        error += 1;
    }
    return error == 0;
}
";

const DEVICE_CALLS: &str = "int main(void) {
    int error = 0;
    int on = 0;
    int r[2];
    #pragma acc parallel num_gangs(1) copy(on, r[0:2])
    {
        acc_on_device(acc_device_not_host);
        on = acc_on_device(acc_device_not_host);
        on += 1 + acc_on_device(acc_device_not_host);
        r[on - 2] = -acc_on_device(acc_device_not_host);
        r[1] = abs(-7);
    }
    if (on != 3 || r[1] != 7)
    {
        error += 1;
    }
    return error == 0;
}
";

const DEVICE_RETURN: &str = "int main(void) {
    int error = 0;
    #pragma acc parallel num_gangs(1)
    {
        error = 1;
        return error;
    }
    return error == 0;
}
";

const DEVICE_ARRAY_DECL: &str = "int main(void) {
    int error = 0;
    #pragma acc parallel num_gangs(1)
    {
        int z[4];
        z[0] = 1;
    }
    return error == 0;
}
";

const DEVICE_NESTED_REGION: &str = "int main(void) {
    int error = 0;
    int a[4];
    #pragma acc parallel num_gangs(1) copy(a[0:4])
    {
        a[0] = 1;
        #pragma acc kernels
        {
            a[1] = 2;
        }
    }
    return error == 0;
}
";

const DEVICE_STANDALONE: &str = "int main(void) {
    int error = 0;
    int a[4];
    #pragma acc parallel loop copy(a[0:4])
    for (i = 0; i < 4; i++)
    {
        #pragma acc cache(a[0:4])
        a[i] = i;
        #pragma acc update host(a[0:4])
    }
    return error == 0;
}
";

const DIRECTIVE_BLOCKS: &str = "void bump(int* d, int n) {
    for (i = 0; i < n; i++)
    {
        d[i] += 1;
    }
}

int main(void) {
    int error = 0;
    int a[4];
    int s = 0;
    for (i = 0; i < 4; i++)
    {
        a[i] = i;
    }
    #pragma acc data copy(a[0:4])
    {
        #pragma acc parallel num_gangs(2)
        {
            #pragma acc loop gang
            for (i = 0; i < 4; i++)
            {
                a[i] = a[i] * 2;
            }
        }
        #pragma acc host_data use_device(a)
        {
            bump(a, 4);
        }
        #pragma acc update host(a[0:4])
    }
    #pragma acc loop
    for (i = 0; i < 4; i++)
    {
        s += a[i];
    }
    if (s != 16)
    {
        error += 1;
    }
    return error == 0;
}
";

const FORTRAN_BOTH_SIDES: &str = "integer function main()
    implicit none
    integer :: V(0:7)
    integer :: error
    integer :: i
    integer :: k
    integer :: ok
    real :: f
    error = 0
    k = 3
    f = 0.5
    ok = .not. (k < 0) .and. f > 0.25d0
    do i = 0, 7
        V(i) = mod(i * 7, 5)
    end do
    !$acc parallel loop copy(V(0:7))
    do i = 0, 7
        if (mod(i, 2) == 0 .or. .not. (V(i) > 1)) then
            V(i) = -V(i) + k
        else
            V(i) = V(mod(i + k, 8)) * 2
        end if
    end do
    if (.not. ok .or. V(0) /= 3 .or. V(1) /= 6) then
        error = error + 1
    end if
    main = error == 0
    return
end function main
";

/// One run of `exe` under `mode`, with the environment empty and a step
/// budget small enough for a runaway loop to end as a timeout.
fn run(exe: &Executable, exec_mode: ExecMode) -> RunResult {
    let knobs = RunKnobs {
        exec_mode,
        step_limit: Some(100_000),
        ..RunKnobs::default()
    };
    exe.run_with_knobs(&EnvConfig::empty(), knobs)
}

/// The golden text of every program, with each one's run checked equal
/// under both engines.
fn derive() -> String {
    let mut out = String::new();
    for &(name, lang, src) in PROGRAMS {
        let exe = VendorCompiler::reference()
            .compile(src, lang)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let vm = run(&exe, ExecMode::Vm);
        let walk = run(&exe, ExecMode::Walk);
        assert_eq!(vm, walk, "{name}: the engines disagree");
        let _ = writeln!(out, "== {name} ({lang})");
        let _ = writeln!(out, "run: {:?}\t{}", vm.outcome, vm.metrics);
        out.push_str(&exe.disassemble());
    }
    out
}

/// Which kind of chunk an instruction sits in.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Side {
    Host,
    Device,
}

/// Each chunk's start offset with its side, sorted: functions and
/// `data`/`host_data` blocks are host chunks, region blocks and nest
/// bodies device chunks.
fn chunk_starts(disasm: &str) -> Vec<(u32, Side)> {
    let mut starts = Vec::new();
    let mut section = "";
    for line in disasm.lines() {
        if !line.starts_with(' ') {
            section = line;
            continue;
        }
        let (side, from) = match section {
            "funcs:" | "blocks:" => (Side::Host, 0),
            "regions:" => match line.find("block@") {
                Some(at) => (Side::Device, at),
                None => continue,
            },
            "nests:" => (Side::Device, line.find("bodies=").expect("nest bodies")),
            _ => continue,
        };
        for part in line[from..].split('@').skip(1) {
            let digits: String = part.chars().take_while(char::is_ascii_digit).collect();
            starts.push((digits.parse().expect("chunk start"), side));
        }
    }
    starts.sort_by_key(|&(start, _)| start);
    starts
}

/// Every `(side, instruction name)` pair in one disassembly.
fn side_instrs(disasm: &str, found: &mut Vec<(Side, String)>) {
    let starts = chunk_starts(disasm);
    let code = disasm.split_once("\ncode:\n").expect("code section").1;
    for line in code.lines() {
        let (at, ins) = line.trim_start().split_once("  ").expect("offset");
        let at: u32 = at.parse().expect("offset");
        let name: String = ins
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect();
        let chunk = starts.partition_point(|&(start, _)| start <= at);
        let side = starts[chunk - 1].1;
        if !found.iter().any(|(s, n)| *s == side && *n == name) {
            found.push((side, name));
        }
    }
}

#[test]
fn every_shape_lowers_and_runs_as_pinned() {
    let derived = derive();
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if derived != golden {
        let actual = format!("{}/lowering_shapes.actual.txt", env!("CARGO_TARGET_TMPDIR"));
        let _ = std::fs::write(&actual, &derived);
        let first = derived
            .lines()
            .zip(golden.lines())
            .position(|(d, g)| d != g)
            .unwrap_or(derived.lines().count().min(golden.lines().count()));
        panic!(
            "lowering shapes differ from {GOLDEN} at line {}; derived text written to {actual}",
            first + 1
        );
    }
}

/// The pin covers what it claims: each lowering arm both chunk kinds
/// share, on each side, and each side's own instructions.
#[test]
fn the_programs_reach_every_arm_on_each_side() {
    const SHARED: &[&str] = &[
        "Const",
        "Copy",
        "Unop",
        "Binop",
        "AsInt",
        "ConvertTo",
        "Garbage",
        "Jump",
        "JumpIfTrue",
        "JumpIfFalse",
        "JumpIfGe",
        "CheckStep",
        "End",
    ];
    const HOST: &[&str] = &[
        "TickHost",
        "TickLoop",
        "ReadVarH",
        "WriteVarH",
        "ReadIdxH",
        "WriteIdxH",
        "IdxVarH",
        "DeclStore",
        "SetSlot",
        "EvalHostExpr",
        "HostStmt",
        "Return",
        "Standalone",
        "Compute",
        "DataRegion",
        "HostDataRegion",
    ];
    const DEVICE: &[&str] = &[
        "TickDev",
        "ReadVarD",
        "WriteVarD",
        "ReadIdxD",
        "WriteIdxD",
        "IdxVarD",
        "SetLocal",
        "DevIter",
        "EvalDevExpr",
        "DevStmt",
        "DevLoopDir",
        "CrashMsg",
    ];
    let mut found = Vec::new();
    for &(name, lang, src) in PROGRAMS {
        let exe = VendorCompiler::reference()
            .compile(src, lang)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        side_instrs(&exe.disassemble(), &mut found);
    }
    let wanted = SHARED
        .iter()
        .flat_map(|&n| [(Side::Host, n), (Side::Device, n)])
        .chain(HOST.iter().map(|&n| (Side::Host, n)))
        .chain(DEVICE.iter().map(|&n| (Side::Device, n)));
    let missing: Vec<String> = wanted
        .filter(|&(side, n)| !found.iter().any(|(s, f)| *s == side && f == n))
        .map(|(side, n)| format!("{n} ({side:?})"))
        .collect();
    assert!(missing.is_empty(), "no pinned program lowers {missing:?}");
}
