//! Runtime support: "the runtime support functions perform all the
//! predefined VHDL operations" (§2.1).

use std::sync::Arc;

use crate::value::{ArrVal, Val};

/// Predefined operation codes (matching the `builtin` strings the analyzer
/// attaches to implicit operator declarations).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// `+`
    Add,
    /// binary `-`
    Sub,
    /// `*`
    Mul,
    /// `*` with reversed physical operands
    MulRev,
    /// `/`
    Div,
    /// physical `/` physical → integer
    DivPhys,
    /// `mod`
    Mod,
    /// `rem`
    Rem,
    /// `**`
    Pow,
    /// unary `-`
    Neg,
    /// unary `+`
    Pos,
    /// `abs`
    Abs,
    /// `=`
    Eq,
    /// `/=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
    /// `nand`
    Nand,
    /// `nor`
    Nor,
    /// `xor`
    Xor,
    /// `not`
    Not,
    /// `&`
    Concat,
    /// `&` array, element
    ConcatRe,
    /// `&` element, array
    ConcatLe,
    /// integer → real conversion
    ToReal,
    /// real → integer conversion (rounds to nearest)
    ToInt,
}

impl Op {
    /// Decodes the analyzer's builtin code string.
    pub fn decode(s: &str) -> Option<Op> {
        Some(match s {
            "add" => Op::Add,
            "sub" => Op::Sub,
            "mul" => Op::Mul,
            "mul_rev" => Op::MulRev,
            "div" => Op::Div,
            "div_phys" => Op::DivPhys,
            "mod" => Op::Mod,
            "rem" => Op::Rem,
            "pow" => Op::Pow,
            "neg" => Op::Neg,
            "pos" => Op::Pos,
            "abs" => Op::Abs,
            "eq" => Op::Eq,
            "ne" => Op::Ne,
            "lt" => Op::Lt,
            "le" => Op::Le,
            "gt" => Op::Gt,
            "ge" => Op::Ge,
            "and" => Op::And,
            "or" => Op::Or,
            "nand" => Op::Nand,
            "nor" => Op::Nor,
            "xor" => Op::Xor,
            "not" => Op::Not,
            "concat" => Op::Concat,
            "concat_re" => Op::ConcatRe,
            "concat_le" => Op::ConcatLe,
            "to_real" => Op::ToReal,
            "to_int" => Op::ToInt,
            _ => return None,
        })
    }

    /// Arity (1 or 2).
    pub fn arity(self) -> usize {
        match self {
            Op::Neg | Op::Pos | Op::Abs | Op::Not | Op::ToReal | Op::ToInt => 1,
            _ => 2,
        }
    }
}

/// Runtime errors (bounds violations, division by zero, assertion
/// failures are reported separately).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RtError {
    /// Division or modulus by zero.
    DivByZero,
    /// Value outside its subtype range.
    RangeError {
        /// The offending value.
        value: i64,
        /// Low bound.
        lo: i64,
        /// High bound.
        hi: i64,
    },
    /// Array index out of bounds.
    IndexError {
        /// The offending index.
        index: i64,
    },
    /// Arithmetic overflow.
    Overflow,
    /// A negative `wait for` timeout or signal-assignment delay, in fs
    /// (VHDL-87 §8.1, §8.3).
    NegativeDelay(i64),
    /// Internal inconsistency (typed IR violated).
    Internal(String),
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::DivByZero => write!(f, "division by zero"),
            RtError::RangeError { value, lo, hi } => {
                write!(f, "value {value} outside range {lo} to {hi}")
            }
            RtError::IndexError { index } => write!(f, "index {index} out of bounds"),
            RtError::Overflow => write!(f, "arithmetic overflow"),
            RtError::NegativeDelay(fs) => write!(f, "negative delay ({fs} fs)"),
            RtError::Internal(m) => write!(f, "internal: {m}"),
        }
    }
}

impl std::error::Error for RtError {}

/// Applies a binary operation.
pub fn binop(op: Op, a: &Val, b: &Val) -> Result<Val, RtError> {
    use Op::*;
    Ok(match (op, a, b) {
        // Integer / physical arithmetic.
        (Add, Val::Int(x), Val::Int(y)) => Val::Int(x.checked_add(*y).ok_or(RtError::Overflow)?),
        (Sub, Val::Int(x), Val::Int(y)) => Val::Int(x.checked_sub(*y).ok_or(RtError::Overflow)?),
        (Mul | MulRev, Val::Int(x), Val::Int(y)) => {
            Val::Int(x.checked_mul(*y).ok_or(RtError::Overflow)?)
        }
        (Div | DivPhys, Val::Int(x), Val::Int(y)) => {
            Val::Int(x.checked_div(*y).ok_or(RtError::DivByZero)?)
        }
        (Mod, Val::Int(x), Val::Int(y)) => {
            Val::Int(x.checked_rem_euclid(*y).ok_or(RtError::DivByZero)?)
        }
        (Rem, Val::Int(x), Val::Int(y)) => Val::Int(x.checked_rem(*y).ok_or(RtError::DivByZero)?),
        (Pow, Val::Int(x), Val::Int(y)) => Val::Int(
            u32::try_from(*y)
                .ok()
                .and_then(|e| x.checked_pow(e))
                .ok_or(RtError::Overflow)?,
        ),
        // Real arithmetic.
        (Add, Val::Real(x), Val::Real(y)) => Val::Real(x + y),
        (Sub, Val::Real(x), Val::Real(y)) => Val::Real(x - y),
        (Mul, Val::Real(x), Val::Real(y)) => Val::Real(x * y),
        (Div, Val::Real(x), Val::Real(y)) => Val::Real(x / y),
        // Comparisons.
        (Eq, a, b) => Val::Int((a == b) as i64),
        (Ne, a, b) => Val::Int((a != b) as i64),
        (Lt | Le | Gt | Ge, a, b) => {
            let ord = compare(a, b)?;
            let r = match op {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                _ => ord != std::cmp::Ordering::Less,
            };
            Val::Int(r as i64)
        }
        // Logical (scalar and elementwise array).
        (And | Or | Nand | Nor | Xor, Val::Int(x), Val::Int(y)) => Val::Int(logical(op, *x, *y)),
        (And | Or | Nand | Nor | Xor, Val::Arr(x), Val::Arr(y)) => {
            if x.data.len() != y.data.len() {
                return Err(RtError::Internal("logical op on unequal lengths".into()));
            }
            let data = x
                .data
                .iter()
                .zip(y.data.iter())
                .map(|(a, b)| match (a, b) {
                    (Val::Int(x), Val::Int(y)) => Ok(Val::Int(logical(op, *x, *y))),
                    _ => Err(RtError::Internal("logical op on non-bit elements".into())),
                })
                .collect::<Result<Vec<Val>, RtError>>()?;
            Val::Arr(ArrVal {
                left: x.left,
                dir: x.dir,
                data: Arc::new(data),
            })
        }
        // Concatenation (result bounds per VHDL-87: left of the left
        // operand when it is an array, index from 0-based otherwise).
        (Concat, Val::Arr(x), Val::Arr(y)) => {
            let mut data = (*x.data).clone();
            data.extend(y.data.iter().cloned());
            Val::Arr(ArrVal {
                left: x.left,
                dir: x.dir,
                data: Arc::new(data),
            })
        }
        (ConcatRe, Val::Arr(x), e) => {
            let mut data = (*x.data).clone();
            data.push(e.clone());
            Val::Arr(ArrVal {
                left: x.left,
                dir: x.dir,
                data: Arc::new(data),
            })
        }
        (ConcatLe, e, Val::Arr(y)) => {
            let mut data = vec![e.clone()];
            data.extend(y.data.iter().cloned());
            Val::Arr(ArrVal {
                left: y.left,
                dir: y.dir,
                data: Arc::new(data),
            })
        }
        (op, a, b) => {
            return Err(RtError::Internal(format!(
                "bad operands for {op:?}: {a:?}, {b:?}"
            )))
        }
    })
}

pub(crate) fn logical(op: Op, x: i64, y: i64) -> i64 {
    let (x, y) = (x != 0, y != 0);
    let r = match op {
        Op::And => x && y,
        Op::Or => x || y,
        Op::Nand => !(x && y),
        Op::Nor => !(x || y),
        Op::Xor => x ^ y,
        _ => unreachable!("logical called with non-logical op"),
    };
    r as i64
}

/// Applies a unary operation.
pub fn unop(op: Op, a: &Val) -> Result<Val, RtError> {
    Ok(match (op, a) {
        (Op::Neg, Val::Int(x)) => Val::Int(x.checked_neg().ok_or(RtError::Overflow)?),
        (Op::Neg, Val::Real(x)) => Val::Real(-x),
        (Op::Pos, v) => v.clone(),
        (Op::Abs, Val::Int(x)) => Val::Int(x.checked_abs().ok_or(RtError::Overflow)?),
        (Op::Abs, Val::Real(x)) => Val::Real(x.abs()),
        (Op::Not, Val::Int(x)) => Val::Int((*x == 0) as i64),
        (Op::Not, Val::Arr(x)) => {
            let data = x
                .data
                .iter()
                .map(|v| match v {
                    Val::Int(i) => Ok(Val::Int((*i == 0) as i64)),
                    _ => Err(RtError::Internal("not on non-bit elements".into())),
                })
                .collect::<Result<Vec<Val>, RtError>>()?;
            Val::Arr(ArrVal {
                left: x.left,
                dir: x.dir,
                data: Arc::new(data),
            })
        }
        (Op::ToReal, Val::Int(x)) => Val::Real(*x as f64),
        (Op::ToReal, Val::Real(x)) => Val::Real(*x),
        (Op::ToInt, Val::Real(x)) => Val::Int(x.round() as i64),
        (Op::ToInt, Val::Int(x)) => Val::Int(*x),
        (op, a) => return Err(RtError::Internal(format!("bad operand for {op:?}: {a:?}"))),
    })
}

/// VHDL ordering: scalars numerically, arrays lexicographically.
pub fn compare(a: &Val, b: &Val) -> Result<std::cmp::Ordering, RtError> {
    match (a, b) {
        (Val::Int(x), Val::Int(y)) => Ok(x.cmp(y)),
        (Val::Real(x), Val::Real(y)) => x
            .partial_cmp(y)
            .ok_or_else(|| RtError::Internal("NaN comparison".into())),
        (Val::Arr(x), Val::Arr(y)) => {
            for (a, b) in x.data.iter().zip(y.data.iter()) {
                match compare(a, b)? {
                    std::cmp::Ordering::Equal => continue,
                    o => return Ok(o),
                }
            }
            Ok(x.data.len().cmp(&y.data.len()))
        }
        _ => Err(RtError::Internal("incomparable values".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_ops() {
        assert_eq!(
            binop(Op::Add, &Val::Int(2), &Val::Int(3)).unwrap(),
            Val::Int(5)
        );
        assert_eq!(
            binop(Op::Pow, &Val::Int(2), &Val::Int(8)).unwrap(),
            Val::Int(256)
        );
        assert_eq!(
            binop(Op::Mod, &Val::Int(-7), &Val::Int(3)).unwrap(),
            Val::Int(2)
        );
        assert_eq!(
            binop(Op::Rem, &Val::Int(-7), &Val::Int(3)).unwrap(),
            Val::Int(-1)
        );
        assert_eq!(
            binop(Op::Div, &Val::Int(1), &Val::Int(0)).unwrap_err(),
            RtError::DivByZero
        );
        assert_eq!(
            binop(Op::Add, &Val::Int(i64::MAX), &Val::Int(1)).unwrap_err(),
            RtError::Overflow
        );
        assert_eq!(unop(Op::Neg, &Val::Int(4)).unwrap(), Val::Int(-4));
        assert_eq!(unop(Op::Abs, &Val::Int(-4)).unwrap(), Val::Int(4));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(
            binop(Op::Lt, &Val::Int(1), &Val::Int(2)).unwrap(),
            Val::Int(1)
        );
        assert_eq!(
            binop(Op::Ge, &Val::Int(1), &Val::Int(2)).unwrap(),
            Val::Int(0)
        );
        assert_eq!(
            binop(Op::Xor, &Val::Int(1), &Val::Int(1)).unwrap(),
            Val::Int(0)
        );
        assert_eq!(
            binop(Op::Nand, &Val::Int(1), &Val::Int(1)).unwrap(),
            Val::Int(0)
        );
        assert_eq!(unop(Op::Not, &Val::Int(0)).unwrap(), Val::Int(1));
    }

    #[test]
    fn array_ops() {
        let a = Val::bits(&[1, 0]);
        let b = Val::bits(&[1, 1]);
        assert_eq!(binop(Op::And, &a, &b).unwrap(), Val::bits(&[1, 0]));
        assert_eq!(unop(Op::Not, &a).unwrap(), Val::bits(&[0, 1]));
        let c = binop(Op::Concat, &a, &b).unwrap();
        assert_eq!(c.as_arr().data.len(), 4);
        // Lexicographic comparison.
        assert_eq!(binop(Op::Lt, &a, &b).unwrap(), Val::Int(1));
        assert_eq!(binop(Op::Eq, &a, &a).unwrap(), Val::Int(1));
        // Element concat.
        let d = binop(Op::ConcatRe, &a, &Val::Int(1)).unwrap();
        assert_eq!(d.as_arr().data.len(), 3);
        let e = binop(Op::ConcatLe, &Val::Int(1), &a).unwrap();
        assert_eq!(e.as_arr().data.len(), 3);
    }

    #[test]
    fn op_decode_round_trip() {
        for code in [
            "add",
            "sub",
            "mul",
            "div",
            "mod",
            "rem",
            "pow",
            "neg",
            "pos",
            "abs",
            "eq",
            "ne",
            "lt",
            "le",
            "gt",
            "ge",
            "and",
            "or",
            "nand",
            "nor",
            "xor",
            "not",
            "concat",
            "concat_re",
            "concat_le",
            "mul_rev",
            "div_phys",
        ] {
            assert!(Op::decode(code).is_some(), "{code}");
        }
        assert!(Op::decode("zzz").is_none());
        assert_eq!(Op::Not.arity(), 1);
        assert_eq!(Op::Add.arity(), 2);
    }
}
