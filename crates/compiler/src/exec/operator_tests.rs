//! The operators on the operands no corpus program reaches.
//!
//! Integer arithmetic has one definition, `int_binop`, which `apply_binop`
//! calls for two `Int`s and the general path calls after promotion. These
//! tests drive every operator over the edges (`i64::MIN`, −1 divisors,
//! NaN, signed zeros, infinities, device pointers) plus a seeded random
//! sample: none may panic in any build, and the overflow cases are errors
//! or wrap as C's two's-complement targets do.

use super::{apply_binop, apply_unop};
use acc_ast::{BinOp, UnOp};
use acc_device::value::ValueError;
use acc_device::{BufferId, Value};

const BINOPS: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::And,
    BinOp::Or,
    BinOp::BitAnd,
    BinOp::BitOr,
    BinOp::BitXor,
];

/// SplitMix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The fixed edge operands, then `random` seeded draws of each kind.
fn operands(random: usize) -> Vec<Value> {
    let mut v: Vec<Value> = [0, 1, -1, 2, -2, 7, i64::MIN, i64::MIN + 1, i64::MAX]
        .into_iter()
        .map(Value::Int)
        .collect();
    for x in [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
    ] {
        v.push(Value::F64(x));
        v.push(Value::F32(x as f32));
    }
    v.extend([Value::DevPtr(BufferId(1)), Value::DevPtr(BufferId(2))]);
    let mut rng = Rng(0xACC_0B1D);
    for _ in 0..random {
        let r = rng.next();
        v.push(Value::Int(r as i64));
        v.push(Value::Int((r % 21) as i64 - 10));
        v.push(Value::F64(f64::from_bits(rng.next())));
        v.push(Value::F32(f32::from_bits(rng.next() as u32)));
    }
    v
}

/// A value by its bits, so NaN equals NaN and −0.0 differs from 0.0.
fn bits(r: &Result<Value, ValueError>) -> Result<(u8, u64), String> {
    match r {
        Ok(Value::Int(x)) => Ok((0, *x as u64)),
        Ok(Value::F32(x)) => Ok((1, x.to_bits() as u64)),
        Ok(Value::F64(x)) => Ok((2, x.to_bits())),
        Ok(Value::DevPtr(b)) => Ok((3, b.0)),
        Err(e) => Err(e.to_string()),
    }
}

#[test]
fn binops_never_panic_and_two_ints_give_an_int() {
    let xs = operands(48);
    let division_errors = [
        "value error: integer division by zero",
        "value error: integer division overflow",
        "value error: integer remainder by zero",
        "value error: integer remainder overflow",
    ];
    for op in BINOPS {
        for &a in &xs {
            for &b in &xs {
                let r = bits(&apply_binop(op, a, b));
                if let (Value::Int(_), Value::Int(_)) = (a, b) {
                    match &r {
                        Ok((kind, _)) => assert_eq!(*kind, 0, "{a:?} {op:?} {b:?}"),
                        Err(e) => assert!(
                            division_errors.contains(&e.as_str()),
                            "{a:?} {op:?} {b:?}: {e}"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn integer_division_overflow_is_a_value_error_not_a_panic() {
    let (min, m1, zero) = (Value::Int(i64::MIN), Value::Int(-1), Value::Int(0));
    for (op, divisor, text) in [
        (BinOp::Div, m1, "value error: integer division overflow"),
        (BinOp::Rem, m1, "value error: integer remainder overflow"),
        (BinOp::Div, zero, "value error: integer division by zero"),
        (BinOp::Rem, zero, "value error: integer remainder by zero"),
    ] {
        assert_eq!(bits(&apply_binop(op, min, divisor)), Err(text.to_string()));
    }
    assert_eq!(
        apply_binop(BinOp::Div, Value::Int(7), m1),
        Ok(Value::Int(-7))
    );
    assert_eq!(
        apply_binop(BinOp::Rem, Value::Int(7), m1),
        Ok(Value::Int(0))
    );
    assert_eq!(
        apply_binop(BinOp::Add, Value::Int(i64::MAX), Value::Int(1)),
        Ok(Value::Int(i64::MIN))
    );
}

#[test]
fn unops_follow_c_semantics_and_wrap() {
    for v in operands(48) {
        let neg = match v {
            Value::Int(x) => Ok(Value::Int(x.wrapping_neg())),
            Value::F32(x) => Ok(Value::F32(-x)),
            Value::F64(x) => Ok(Value::F64(-x)),
            Value::DevPtr(_) => Err(ValueError("negation of device pointer".into())),
        };
        assert_eq!(bits(&apply_unop(UnOp::Neg, v)), bits(&neg), "-{v:?}");
        let not = Ok(Value::Int(!v.truthy() as i64));
        assert_eq!(bits(&apply_unop(UnOp::Not, v)), bits(&not), "!{v:?}");
    }
    assert_eq!(
        apply_unop(UnOp::Neg, Value::Int(i64::MIN)),
        Ok(Value::Int(i64::MIN))
    );
}
