//! Scalar operation kernels shared by the tree-walking interpreter and the
//! bytecode VM.
//!
//! Both backends must produce **bit-identical** values *and* bit-identical
//! [`CostCounter`] totals for every UDF (the differential property suite
//! enforces this over the generated corpus). The only way to guarantee that
//! is to have exactly one implementation of each scalar operation, with the
//! cost-accounting calls baked into it in a fixed order — so the kernels
//! live here and the backends only differ in *how they traverse* the UDF.
//!
//! The typed lanes of [`crate::simd`] cannot share them — their operands are
//! unboxed columns, not [`Value`]s — and mirror them instead, one lane kernel
//! per scalar kernel; `lane_kernels_mirror_the_scalar_kernels_over_edge_values`
//! in that module holds the two to the same bits, so a kernel changed here
//! is changed there or that test fails.

use crate::ast::{BinOp, CmpOp, UnOp};
use crate::costs::{CostCounter, CostWeights};
use crate::libfns::LibFn;
use graceful_common::Result;
use graceful_storage::Value;

/// Apply a unary operator, accounting one (fast) arithmetic op.
///
/// Negation of `i64::MIN` is pinned to `i64::MIN` (two's-complement wrap, the
/// release-mode behaviour) instead of the debug-only overflow panic `-i` hits.
pub fn apply_unary(w: &CostWeights, op: UnOp, v: &Value, cost: &mut CostCounter) -> Value {
    cost.add_arith(w, false);
    match op {
        UnOp::Neg => match v {
            Value::Int(i) => Value::Int(i.wrapping_neg()),
            Value::Float(f) => Value::Float(-f),
            _ => Value::Null,
        },
        UnOp::Not => Value::Bool(!v.truthy()),
    }
}

/// `np.sign` semantics: `0.0` for ±0 (where `f64::signum` returns ±1),
/// `±1.0` for everything else of that sign, `NaN` passed through.
pub fn np_sign(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else {
        x.signum()
    }
}

/// `np.clip(x, lo, hi)` with a well-ordered upper bound and **no panic**:
/// `f64::clamp` aborts when a bound is NaN, which a pathological UDF can
/// feed it (e.g. `math.sin` of an overflowed power). Identical to
/// `x.clamp(lo, hi.max(lo))` for every non-NaN bound — NaN `x` passes
/// through unchanged — while a NaN bound is pinned to "absent" (the other
/// bound still applies) instead of aborting the query.
pub fn np_clip(x: f64, lo: f64, hi: f64) -> f64 {
    let hi = hi.max(lo);
    let mut v = x;
    if v < lo {
        v = lo;
    }
    if v > hi {
        v = hi;
    }
    v
}

/// The float→int conversion used by `math.floor` / `math.ceil` / `int(..)`:
/// Rust's saturating `as` cast — `NaN → 0`, values beyond the `i64` range
/// (±inf included) clamp to `i64::MIN`/`i64::MAX`. Routed through one helper
/// so every backend (tree-walker, VM, columnar) pins the same edge semantics.
pub fn f64_to_i64(x: f64) -> i64 {
    x as i64
}

/// Apply a binary operator, accounting its work.
///
/// String concatenation (`Text + Text`) and repetition (`Text * Int`) charge
/// string costs; every other combination charges an arithmetic op (slow-path
/// surcharge for `**`, `//`, `%`) and follows NULL-propagation semantics.
pub fn apply_binary(
    w: &CostWeights,
    op: BinOp,
    l: &Value,
    r: &Value,
    cost: &mut CostCounter,
) -> Result<Value> {
    // String concatenation.
    if op == BinOp::Add {
        if let (Value::Text(a), Value::Text(b)) = (l, r) {
            cost.add_string(w, a.len() + b.len());
            return Ok(Value::Text(format!("{a}{b}")));
        }
    }
    // String repetition `s * n`.
    if op == BinOp::Mul {
        if let (Value::Text(a), Value::Int(n)) = (l, r) {
            let n = (*n).clamp(0, 64) as usize;
            cost.add_string(w, a.len() * n);
            return Ok(Value::Text(a.repeat(n)));
        }
    }
    cost.add_arith(w, op.is_slow());
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer fast path keeps int-typed data int-typed.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let (a, b) = (*a, *b);
        return Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(b)),
            BinOp::Div => {
                if b == 0 {
                    Value::Null
                } else {
                    Value::Float(a as f64 / b as f64)
                }
            }
            BinOp::Mod => {
                if b == 0 {
                    Value::Null
                } else {
                    // checked: `i64::MIN.rem_euclid(-1)` overflows (panics in
                    // debug builds). Pinned result for that single pair is 0,
                    // the mathematical remainder.
                    Value::Int(a.checked_rem_euclid(b).unwrap_or(0))
                }
            }
            BinOp::FloorDiv => {
                if b == 0 {
                    Value::Null
                } else {
                    // checked: `i64::MIN.div_euclid(-1)` overflows; the true
                    // quotient 2^63 is unrepresentable, so pin the saturated
                    // i64::MAX.
                    Value::Int(a.checked_div_euclid(b).unwrap_or(i64::MAX))
                }
            }
            BinOp::Pow => {
                if (0..=16).contains(&b) {
                    Value::Int(a.saturating_pow(b as u32))
                } else {
                    Value::Float((a as f64).powf(b as f64))
                }
            }
        });
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Ok(Value::Null),
    };
    let out = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a / b
        }
        BinOp::Mod => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a.rem_euclid(b)
        }
        BinOp::FloorDiv => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            (a / b).floor()
        }
        BinOp::Pow => sanitize(a.powf(b)),
    };
    Ok(Value::Float(sanitize(out)))
}

/// Apply a library/builtin function (or string method when `recv` is set),
/// accounting its work.
pub fn apply_lib(
    w: &CostWeights,
    f: LibFn,
    recv: Option<&Value>,
    args: &[Value],
    cost: &mut CostCounter,
) -> Result<Value> {
    use LibFn::*;
    cost.add_lib_call(f);
    // NULL propagation: any NULL input yields NULL (cheap early exit,
    // mirroring how adapters skip the Python call for NULL rows).
    if recv.is_some_and(Value::is_null) || args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let num = |i: usize| args.get(i).and_then(Value::as_f64);
    let arg_str = |i: usize| args.get(i).and_then(Value::as_str);
    let out = match f {
        MathSqrt | NpSqrt => num(0).map(|x| Value::Float(sanitize(x.abs().sqrt()))),
        MathPow | NpPower => match (num(0), num(1)) {
            (Some(a), Some(b)) => Some(Value::Float(sanitize(a.powf(b)))),
            _ => None,
        },
        MathLog | NpLog => num(0).map(|x| Value::Float(sanitize(x.abs().max(1e-12).ln()))),
        MathExp | NpExp => num(0).map(|x| Value::Float(sanitize(x.min(700.0).exp()))),
        MathSin => num(0).map(|x| Value::Float(x.sin())),
        MathCos => num(0).map(|x| Value::Float(x.cos())),
        MathAtan => num(0).map(|x| Value::Float(x.atan())),
        MathFloor => num(0).map(|x| Value::Int(f64_to_i64(x.floor()))),
        MathCeil => num(0).map(|x| Value::Int(f64_to_i64(x.ceil()))),
        MathFabs | NpAbs => num(0).map(|x| Value::Float(x.abs())),
        NpMinimum => match (num(0), num(1)) {
            (Some(a), Some(b)) => Some(Value::Float(a.min(b))),
            _ => None,
        },
        NpMaximum => match (num(0), num(1)) {
            (Some(a), Some(b)) => Some(Value::Float(a.max(b))),
            _ => None,
        },
        NpClip => match (num(0), num(1), num(2)) {
            (Some(x), Some(lo), Some(hi)) => Some(Value::Float(np_clip(x, lo, hi))),
            _ => None,
        },
        // `np.sign(0) == 0` (and `np.sign(-0.0) == 0`), unlike
        // `f64::signum`, which maps ±0 to ±1.
        NpSign => num(0).map(|x| Value::Float(np_sign(x))),
        NpRound | BuiltinRound => num(0).map(|x| Value::Float(x.round())),
        BuiltinAbs => match args.first() {
            // checked: `i64::MIN.abs()` overflows (debug panic, release
            // wrap-to-MIN). Python's arbitrary-precision 2^63 is
            // unrepresentable, so pin the saturated i64::MAX.
            Some(Value::Int(i)) => Some(Value::Int(i.checked_abs().unwrap_or(i64::MAX))),
            Some(v) => v.as_f64().map(|x| Value::Float(x.abs())),
            None => None,
        },
        BuiltinInt => num(0).map(|x| Value::Int(f64_to_i64(x))),
        BuiltinFloat => num(0).map(Value::Float),
        BuiltinMin => match (num(0), num(1)) {
            (Some(a), Some(b)) => Some(Value::Float(a.min(b))),
            _ => None,
        },
        BuiltinMax => match (num(0), num(1)) {
            (Some(a), Some(b)) => Some(Value::Float(a.max(b))),
            _ => None,
        },
        BuiltinLen => match args.first() {
            Some(Value::Text(s)) => {
                cost.add_string(w, 0);
                Some(Value::Int(s.len() as i64))
            }
            _ => None,
        },
        BuiltinStr => {
            let s = args.first().map(|v| match v {
                Value::Text(t) => t.clone(),
                other => other.to_string(),
            });
            s.map(|s| {
                cost.add_string(w, s.len());
                Value::Text(s)
            })
        }
        // String methods: a receiver that is not text yields NULL uncharged;
        // a text receiver is charged per character whatever the arguments.
        StrUpper => method_recv(w, recv, cost).map(|s| Value::Text(s.to_uppercase())),
        StrLower => method_recv(w, recv, cost).map(|s| Value::Text(s.to_lowercase())),
        StrStrip => method_recv(w, recv, cost).map(|s| Value::Text(s.trim().to_string())),
        StrReplace => method_recv(w, recv, cost).map(|s| match (arg_str(0), arg_str(1)) {
            (Some(from), Some(to)) if !from.is_empty() => Value::Text(s.replace(from, to)),
            _ => Value::Text(s.clone()),
        }),
        StrStartswith => method_recv(w, recv, cost)
            .and_then(|s| arg_str(0).map(|p| Value::Bool(s.starts_with(p)))),
        StrEndswith => {
            method_recv(w, recv, cost).and_then(|s| arg_str(0).map(|p| Value::Bool(s.ends_with(p))))
        }
        StrFind => method_recv(w, recv, cost)
            .and_then(|s| arg_str(0).map(|p| Value::Int(s.find(p).map_or(-1, |i| i as i64)))),
        StrSplitCount => method_recv(w, recv, cost).and_then(|s| {
            arg_str(0).map(|p| {
                let count = if p.is_empty() { 1 } else { s.matches(p).count() + 1 };
                Value::Int(count as i64)
            })
        }),
    };
    Ok(out.unwrap_or(Value::Null))
}

/// The text receiver of a string method, charged as one string operation
/// over its characters; `None` (and no charge) for any other receiver.
fn method_recv<'a>(
    w: &CostWeights,
    recv: Option<&'a Value>,
    cost: &mut CostCounter,
) -> Option<&'a String> {
    match recv {
        Some(Value::Text(s)) => {
            cost.add_string(w, s.len());
            Some(s)
        }
        _ => None,
    }
}

/// SQL/Python-style comparison: NULL never compares true.
pub fn compare(op: CmpOp, l: &Value, r: &Value) -> bool {
    use std::cmp::Ordering::*;
    match l.compare(r) {
        None => false,
        Some(ord) => match op {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
        },
    }
}

/// Replace NaN/inf (from overflowing powf etc.) with large-but-finite values
/// so downstream filters and aggregates stay well-defined.
pub fn sanitize(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else if x.is_infinite() {
        if x > 0.0 {
            1e300
        } else {
            -1e300
        }
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_string_paths_charge_string_costs() {
        let w = CostWeights::default();
        let mut c = CostCounter::new();
        let out = apply_binary(
            &w,
            BinOp::Add,
            &Value::Text("ab".into()),
            &Value::Text("cd".into()),
            &mut c,
        )
        .unwrap();
        assert_eq!(out, Value::Text("abcd".into()));
        assert_eq!(c.string_ops, 1);
        assert_eq!(c.arith_ops, 0);
    }

    #[test]
    fn lib_null_propagation_still_charges_the_call() {
        let w = CostWeights::default();
        let mut c = CostCounter::new();
        let out = apply_lib(&w, LibFn::MathSqrt, None, &[Value::Null], &mut c).unwrap();
        assert_eq!(out, Value::Null);
        assert_eq!(c.lib_calls, 1);
    }

    #[test]
    fn np_sign_is_zero_at_zero() {
        let w = CostWeights::default();
        let mut c = CostCounter::new();
        let sign = |v: f64, c: &mut CostCounter| {
            apply_lib(&w, LibFn::NpSign, None, &[Value::Float(v)], c).unwrap()
        };
        assert_eq!(sign(0.0, &mut c), Value::Float(0.0));
        assert_eq!(sign(-0.0, &mut c), Value::Float(0.0));
        assert_eq!(sign(3.5, &mut c), Value::Float(1.0));
        assert_eq!(sign(-2.0, &mut c), Value::Float(-1.0));
        let int_zero = apply_lib(&w, LibFn::NpSign, None, &[Value::Int(0)], &mut c).unwrap();
        assert_eq!(int_zero, Value::Float(0.0));
    }

    #[test]
    fn builtin_abs_saturates_at_i64_min() {
        let w = CostWeights::default();
        let mut c = CostCounter::new();
        let abs = |v: Value, c: &mut CostCounter| {
            apply_lib(&w, LibFn::BuiltinAbs, None, &[v], c).unwrap()
        };
        assert_eq!(abs(Value::Int(i64::MIN), &mut c), Value::Int(i64::MAX));
        assert_eq!(abs(Value::Int(-7), &mut c), Value::Int(7));
        assert_eq!(abs(Value::Float(-2.5), &mut c), Value::Float(2.5));
    }

    #[test]
    fn int_mod_and_floordiv_overflow_pair_is_pinned() {
        let w = CostWeights::default();
        let mut c = CostCounter::new();
        let run = |op: BinOp, a: i64, b: i64, c: &mut CostCounter| {
            apply_binary(&w, op, &Value::Int(a), &Value::Int(b), c).unwrap()
        };
        assert_eq!(run(BinOp::Mod, i64::MIN, -1, &mut c), Value::Int(0));
        assert_eq!(run(BinOp::FloorDiv, i64::MIN, -1, &mut c), Value::Int(i64::MAX));
        assert_eq!(run(BinOp::Mod, 7, 3, &mut c), Value::Int(1));
        assert_eq!(run(BinOp::FloorDiv, -7, 2, &mut c), Value::Int(-4));
    }

    #[test]
    fn unary_neg_wraps_at_i64_min() {
        let w = CostWeights::default();
        let mut c = CostCounter::new();
        assert_eq!(apply_unary(&w, UnOp::Neg, &Value::Int(i64::MIN), &mut c), Value::Int(i64::MIN));
        assert_eq!(apply_unary(&w, UnOp::Neg, &Value::Int(4), &mut c), Value::Int(-4));
        assert_eq!(apply_unary(&w, UnOp::Not, &Value::Null, &mut c), Value::Bool(true));
        assert_eq!(c.arith_ops, 3);
    }

    #[test]
    fn np_clip_matches_clamp_and_never_panics() {
        assert_eq!(np_clip(5.0, 0.0, 10.0), 5.0);
        assert_eq!(np_clip(-3.0, 0.0, 10.0), 0.0);
        assert_eq!(np_clip(99.0, 0.0, 10.0), 10.0);
        // Inverted bounds behave like clamp(lo, hi.max(lo)).
        assert_eq!(np_clip(5.0, 8.0, 2.0), 8.0);
        // NaN x passes through (like f64::clamp).
        assert!(np_clip(f64::NAN, 0.0, 10.0).is_nan());
        // NaN bounds are pinned to "absent" instead of panicking.
        assert_eq!(np_clip(50.0, f64::NAN, 10.0), 10.0);
        assert_eq!(np_clip(-50.0, 0.0, f64::NAN), 0.0);
    }

    #[test]
    fn float_to_int_cast_edges_saturate() {
        assert_eq!(f64_to_i64(f64::NAN), 0);
        assert_eq!(f64_to_i64(f64::INFINITY), i64::MAX);
        assert_eq!(f64_to_i64(f64::NEG_INFINITY), i64::MIN);
        assert_eq!(f64_to_i64(1e19), i64::MAX);
        assert_eq!(f64_to_i64(-1e19), i64::MIN);
        assert_eq!(f64_to_i64(2.75), 2);
    }

    #[test]
    fn sanitize_bounds() {
        assert_eq!(sanitize(f64::NAN), 0.0);
        assert_eq!(sanitize(f64::INFINITY), 1e300);
        assert_eq!(sanitize(f64::NEG_INFINITY), -1e300);
        assert_eq!(sanitize(1.25), 1.25);
    }
}
