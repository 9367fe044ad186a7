//! Runtime values and typed array storage.
//!
//! The mini-language has C arithmetic semantics: `int` (64-bit here for
//! safety), `float` (f32), `double` (f64), with the usual promotions and
//! truncating conversions. Device pointers are first-class values so the
//! `deviceptr` / `acc_malloc` / `host_data use_device` tests can pass them
//! around; dereferencing one on the host is a runtime error, which is how
//! the simulator models a segfault.

use crate::memory::BufferId;
use acc_ast::ScalarType;
use std::fmt;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Single-precision float.
    F32(f32),
    /// Double-precision float.
    F64(f64),
    /// A device pointer (from `acc_malloc` or `use_device`).
    DevPtr(BufferId),
}

/// Errors raised by value operations (type confusion the front-end cannot
/// catch — e.g. arithmetic on a device pointer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueError(pub String);

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value error: {}", self.0)
    }
}

impl std::error::Error for ValueError {}

impl ValueError {
    /// An error with a fixed message, built out of line: the accessors
    /// below are inlined into the engines' dispatch loops, and their error
    /// arms need not be.
    #[cold]
    #[inline(never)]
    fn fixed(msg: &'static str) -> ValueError {
        ValueError(msg.to_owned())
    }
}

impl Value {
    /// Zero of a scalar type.
    #[inline]
    pub fn zero(ty: ScalarType) -> Value {
        match ty {
            ScalarType::Int => Value::Int(0),
            ScalarType::Float => Value::F32(0.0),
            ScalarType::Double => Value::F64(0.0),
        }
    }

    /// The value's numeric type, when it is numeric.
    #[inline]
    pub fn scalar_type(self) -> Option<ScalarType> {
        match self {
            Value::Int(_) => Some(ScalarType::Int),
            Value::F32(_) => Some(ScalarType::Float),
            Value::F64(_) => Some(ScalarType::Double),
            Value::DevPtr(_) => None,
        }
    }

    /// As an integer (truthiness/index); errors on pointers.
    #[inline]
    pub fn as_int(self) -> Result<i64, ValueError> {
        match self {
            Value::Int(v) => Ok(v),
            Value::F32(v) => Ok(v as i64),
            Value::F64(v) => Ok(v as i64),
            Value::DevPtr(_) => Err(ValueError::fixed("device pointer used as integer")),
        }
    }

    /// As an f64; errors on pointers.
    #[inline]
    pub fn as_f64(self) -> Result<f64, ValueError> {
        match self {
            Value::Int(v) => Ok(v as f64),
            Value::F32(v) => Ok(v as f64),
            Value::F64(v) => Ok(v),
            Value::DevPtr(_) => Err(ValueError::fixed("device pointer used as number")),
        }
    }

    /// Truthiness (C semantics: nonzero = true). Pointers are true.
    #[inline]
    pub fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::F32(v) => v != 0.0,
            Value::F64(v) => v != 0.0,
            Value::DevPtr(_) => true,
        }
    }

    /// Convert to the given scalar type (C conversion semantics).
    #[inline]
    pub fn convert_to(self, ty: ScalarType) -> Result<Value, ValueError> {
        Ok(match ty {
            ScalarType::Int => Value::Int(self.as_int()?),
            ScalarType::Float => Value::F32(self.as_f64()? as f32),
            ScalarType::Double => Value::F64(self.as_f64()?),
        })
    }

    /// The common type of two operands under C promotion rules.
    #[inline]
    pub fn promoted(a: Value, b: Value) -> Result<ScalarType, ValueError> {
        let (ta, tb) = (
            a.scalar_type()
                .ok_or_else(|| ValueError::fixed("pointer in arithmetic"))?,
            b.scalar_type()
                .ok_or_else(|| ValueError::fixed("pointer in arithmetic"))?,
        );
        Ok(if ta == ScalarType::Double || tb == ScalarType::Double {
            ScalarType::Double
        } else if ta == ScalarType::Float || tb == ScalarType::Float {
            ScalarType::Float
        } else {
            ScalarType::Int
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v:?}f"),
            Value::F64(v) => write!(f, "{v:?}"),
            Value::DevPtr(b) => write!(f, "<devptr {}>", b.0),
        }
    }
}

/// Typed contiguous array storage used for both host arrays and device
/// buffers.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayData {
    /// `int` elements.
    Int(Vec<i64>),
    /// `float` elements.
    F32(Vec<f32>),
    /// `double` elements.
    F64(Vec<f64>),
}

impl ArrayData {
    /// Zero-filled storage.
    pub fn zeros(ty: ScalarType, len: usize) -> ArrayData {
        match ty {
            ScalarType::Int => ArrayData::Int(vec![0; len]),
            ScalarType::Float => ArrayData::F32(vec![0.0; len]),
            ScalarType::Double => ArrayData::F64(vec![0.0; len]),
        }
    }

    /// Deterministic "uninitialized memory" pattern: recognizably garbage,
    /// never equal to small test constants, and varying by position so
    /// accidental matches are vanishingly unlikely.
    pub fn garbage(ty: ScalarType, len: usize, seed: u64) -> ArrayData {
        match ty {
            ScalarType::Int => ArrayData::Int(
                (0..len)
                    .map(|i| -(0x5EED_0000 + seed as i64 * 131 + i as i64 * 7))
                    .collect(),
            ),
            ScalarType::Float => ArrayData::F32(
                (0..len)
                    .map(|i| -1.0e30f32 - seed as f32 - i as f32)
                    .collect(),
            ),
            ScalarType::Double => ArrayData::F64(
                (0..len)
                    .map(|i| -1.0e300 - seed as f64 - i as f64)
                    .collect(),
            ),
        }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ArrayData::Int(v) => v.len(),
            ArrayData::F32(v) => v.len(),
            ArrayData::F64(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type.
    #[inline]
    pub fn elem_type(&self) -> ScalarType {
        match self {
            ArrayData::Int(_) => ScalarType::Int,
            ArrayData::F32(_) => ScalarType::Float,
            ArrayData::F64(_) => ScalarType::Double,
        }
    }

    /// Read element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Value> {
        match self {
            ArrayData::Int(v) => v.get(i).map(|x| Value::Int(*x)),
            ArrayData::F32(v) => v.get(i).map(|x| Value::F32(*x)),
            ArrayData::F64(v) => v.get(i).map(|x| Value::F64(*x)),
        }
    }

    /// Write element `i`, converting `val` to the element type. Returns
    /// false when out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, val: Value) -> Result<bool, ValueError> {
        // Bounds before conversion: an out-of-bounds write of a pointer
        // reports the bounds, not the pointer.
        match self {
            ArrayData::Int(v) => match v.get_mut(i) {
                Some(x) => *x = val.as_int()?,
                None => return Ok(false),
            },
            ArrayData::F32(v) => match v.get_mut(i) {
                Some(x) => *x = val.as_f64()? as f32,
                None => return Ok(false),
            },
            ArrayData::F64(v) => match v.get_mut(i) {
                Some(x) => *x = val.as_f64()?,
                None => return Ok(false),
            },
        }
        Ok(true)
    }

    /// Copy a section `[start, start+len)` from `src` into the same
    /// positions of `self`. Both must have the same element type and the
    /// section must be in bounds of both.
    pub fn copy_section_from(
        &mut self,
        src: &ArrayData,
        start: usize,
        len: usize,
    ) -> Result<(), ValueError> {
        if start + len > self.len() || start + len > src.len() {
            return Err(ValueError(format!(
                "section [{start}..{}) out of bounds (dst {}, src {})",
                start + len,
                self.len(),
                src.len()
            )));
        }
        match (self, src) {
            (ArrayData::Int(d), ArrayData::Int(s)) => {
                d[start..start + len].copy_from_slice(&s[start..start + len])
            }
            (ArrayData::F32(d), ArrayData::F32(s)) => {
                d[start..start + len].copy_from_slice(&s[start..start + len])
            }
            (ArrayData::F64(d), ArrayData::F64(s)) => {
                d[start..start + len].copy_from_slice(&s[start..start + len])
            }
            _ => return Err(ValueError("element type mismatch in transfer".into())),
        }
        Ok(())
    }

    /// Size in bytes (for transfer metrics).
    pub fn size_bytes(&self) -> usize {
        self.len() * self.elem_type().size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotions() {
        assert_eq!(
            Value::promoted(Value::Int(1), Value::F32(2.0)).unwrap(),
            ScalarType::Float
        );
        assert_eq!(
            Value::promoted(Value::F32(1.0), Value::F64(2.0)).unwrap(),
            ScalarType::Double
        );
        assert_eq!(
            Value::promoted(Value::Int(1), Value::Int(2)).unwrap(),
            ScalarType::Int
        );
    }

    #[test]
    fn conversions_truncate_like_c() {
        assert_eq!(
            Value::F64(2.9).convert_to(ScalarType::Int).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            Value::Int(3).convert_to(ScalarType::Float).unwrap(),
            Value::F32(3.0)
        );
        assert_eq!(
            Value::F32(1.5).convert_to(ScalarType::Double).unwrap(),
            Value::F64(1.5)
        );
    }

    #[test]
    fn pointer_arithmetic_rejected() {
        assert!(Value::DevPtr(BufferId(1)).as_int().is_err());
        assert!(Value::promoted(Value::DevPtr(BufferId(1)), Value::Int(0)).is_err());
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(-1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::F64(0.0).truthy());
        assert!(Value::F32(0.5).truthy());
        assert!(Value::DevPtr(BufferId(0)).truthy());
    }

    #[test]
    fn array_get_set_with_conversion() {
        let mut a = ArrayData::zeros(ScalarType::Int, 4);
        assert!(a.set(2, Value::F64(7.9)).unwrap());
        assert_eq!(a.get(2), Some(Value::Int(7)));
        assert!(!a.set(4, Value::Int(1)).unwrap(), "oob write reports false");
        assert_eq!(a.get(4), None);
    }

    #[test]
    fn garbage_differs_from_zeros_and_is_deterministic() {
        let g1 = ArrayData::garbage(ScalarType::Int, 8, 3);
        let g2 = ArrayData::garbage(ScalarType::Int, 8, 3);
        let g3 = ArrayData::garbage(ScalarType::Int, 8, 4);
        assert_eq!(g1, g2);
        assert_ne!(g1, g3);
        assert_ne!(g1, ArrayData::zeros(ScalarType::Int, 8));
        for i in 0..8 {
            let v = g1.get(i).unwrap().as_int().unwrap();
            assert!(
                v < -1000,
                "garbage must not collide with small test constants"
            );
        }
    }

    #[test]
    fn section_copy() {
        let mut dst = ArrayData::zeros(ScalarType::Float, 6);
        let src = ArrayData::F32(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        dst.copy_section_from(&src, 2, 3).unwrap();
        assert_eq!(dst.get(1), Some(Value::F32(0.0)));
        assert_eq!(dst.get(2), Some(Value::F32(3.0)));
        assert_eq!(dst.get(4), Some(Value::F32(5.0)));
        assert_eq!(dst.get(5), Some(Value::F32(0.0)));
    }

    #[test]
    fn section_copy_errors() {
        let mut dst = ArrayData::zeros(ScalarType::Float, 4);
        let src = ArrayData::F32(vec![1.0; 8]);
        assert!(dst.copy_section_from(&src, 2, 3).is_err());
        let src_int = ArrayData::Int(vec![1; 8]);
        assert!(dst.copy_section_from(&src_int, 0, 2).is_err());
    }

    #[test]
    fn size_bytes() {
        assert_eq!(ArrayData::zeros(ScalarType::Float, 10).size_bytes(), 40);
        assert_eq!(ArrayData::zeros(ScalarType::Int, 10).size_bytes(), 80);
    }
}
