//! Render and data expression ASTs.

use crate::ops::{DataType, TransformOp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use v2v_data::{DataArray, Value};
use v2v_time::{AffineTimeMap, Rational, TimeSet};

/// A frame-valued expression: the body of `Render(t)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RenderExpr {
    /// `match t { when_i => expr_i }` — first matching arm wins.
    Match {
        /// The arms in priority order.
        arms: Vec<MatchArm>,
    },
    /// `video[scale·t + offset]`.
    FrameRef {
        /// Name in the spec's `videos` map.
        video: String,
        /// Time indexing expression.
        #[serde(default)]
        time: AffineTimeMap,
    },
    /// `Transform(args…)`.
    Transform {
        /// The operator.
        op: TransformOp,
        /// Arguments in signature order.
        args: Vec<Arg>,
    },
}

/// One `when => expr` arm of a match.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MatchArm {
    /// Instants this arm covers.
    pub when: TimeSet,
    /// The expression rendered over those instants.
    pub expr: RenderExpr,
}

/// A transform argument: frame-valued or data-valued.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Arg {
    /// A frame sub-expression.
    Frame(RenderExpr),
    /// A data expression.
    Data(DataExpr),
}

impl Arg {
    /// Frame view.
    pub fn as_frame(&self) -> Option<&RenderExpr> {
        match self {
            Arg::Frame(e) => Some(e),
            Arg::Data(_) => None,
        }
    }

    /// Data view.
    pub fn as_data(&self) -> Option<&DataExpr> {
        match self {
            Arg::Data(e) => Some(e),
            Arg::Frame(_) => None,
        }
    }
}

/// Comparison operators in data expressions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators in data expressions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression evaluated per output instant.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DataExpr {
    /// A constant.
    Const(Value),
    /// The current output instant as a rational value.
    T,
    /// `array[scale·t + offset]` — `Null` when no entry exists.
    ArrayRef {
        /// Name in the spec's `data_arrays` map.
        array: String,
        /// Time indexing expression.
        #[serde(default)]
        time: AffineTimeMap,
    },
    /// Comparison of two sub-expressions (SQL semantics: NULL never
    /// compares true).
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<DataExpr>,
        /// Right operand.
        rhs: Box<DataExpr>,
    },
    /// Arithmetic over numerics (exact over rationals where possible).
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<DataExpr>,
        /// Right operand.
        rhs: Box<DataExpr>,
    },
    /// Logical negation.
    Not(Box<DataExpr>),
    /// Logical conjunction.
    And(Box<DataExpr>, Box<DataExpr>),
    /// Logical disjunction.
    Or(Box<DataExpr>, Box<DataExpr>),
    /// Length of a list/boxes value (`|b|` in the paper's
    /// `BoundingBox_dde`).
    Len(Box<DataExpr>),
}

impl DataExpr {
    /// Convenience: `array[t]`.
    pub fn array(name: impl Into<String>) -> DataExpr {
        DataExpr::ArrayRef {
            array: name.into(),
            time: AffineTimeMap::IDENTITY,
        }
    }

    /// Convenience: constant.
    pub fn constant(v: impl Into<Value>) -> DataExpr {
        DataExpr::Const(v.into())
    }

    /// Convenience: `lhs < rhs`.
    pub fn lt(lhs: DataExpr, rhs: DataExpr) -> DataExpr {
        DataExpr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience: `len(e) > 0`.
    pub fn non_empty(e: DataExpr) -> DataExpr {
        DataExpr::Cmp {
            op: CmpOp::Gt,
            lhs: Box::new(DataExpr::Len(Box::new(e))),
            rhs: Box::new(DataExpr::Const(Value::Int(0))),
        }
    }

    /// Names of all arrays this expression references.
    pub fn referenced_arrays(&self, out: &mut Vec<String>) {
        match self {
            DataExpr::Const(_) | DataExpr::T => {}
            DataExpr::ArrayRef { array, .. } => out.push(array.clone()),
            DataExpr::Cmp { lhs, rhs, .. } | DataExpr::Arith { lhs, rhs, .. } => {
                lhs.referenced_arrays(out);
                rhs.referenced_arrays(out);
            }
            DataExpr::And(a, b) | DataExpr::Or(a, b) => {
                a.referenced_arrays(out);
                b.referenced_arrays(out);
            }
            DataExpr::Not(e) | DataExpr::Len(e) => e.referenced_arrays(out),
        }
    }

    /// Static type of the expression (best effort; `Any` for array refs,
    /// whose contents are only known at data-binding time).
    pub fn data_type(&self) -> DataType {
        match self {
            DataExpr::Const(v) => match v {
                Value::Bool(_) => DataType::Bool,
                Value::Int(_) | Value::Float(_) | Value::Rational(_) => DataType::Number,
                Value::Str(_) => DataType::Str,
                Value::Boxes(_) => DataType::Boxes,
                Value::Null | Value::List(_) => DataType::Any,
            },
            DataExpr::T => DataType::Number,
            DataExpr::ArrayRef { .. } => DataType::Any,
            DataExpr::Cmp { .. } | DataExpr::Not(_) | DataExpr::And(..) | DataExpr::Or(..) => {
                DataType::Bool
            }
            DataExpr::Arith { .. } | DataExpr::Len(_) => DataType::Number,
        }
    }

    /// Evaluates at output instant `t` against bound data arrays.
    ///
    /// Missing arrays and type errors evaluate to `Null` (SQL-style
    /// propagation) rather than aborting a render mid-stream; the checker
    /// reports unknown arrays statically.
    pub fn eval(&self, t: Rational, arrays: &BTreeMap<String, DataArray>) -> Value {
        match self {
            DataExpr::Const(v) => v.clone(),
            DataExpr::T => Value::Rational(t),
            DataExpr::ArrayRef { array, time } => arrays
                .get(array)
                .map(|a| a.get(time.apply(t)).clone())
                .unwrap_or(Value::Null),
            DataExpr::Cmp { op, lhs, rhs } => {
                let l = lhs.eval(t, arrays);
                let r = rhs.eval(t, arrays);
                match l.compare(&r) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(match op {
                        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                        CmpOp::Lt => ord == std::cmp::Ordering::Less,
                        CmpOp::Le => ord != std::cmp::Ordering::Greater,
                        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                        CmpOp::Ge => ord != std::cmp::Ordering::Less,
                    }),
                }
            }
            DataExpr::Arith { op, lhs, rhs } => {
                let l = lhs.eval(t, arrays);
                let r = rhs.eval(t, arrays);
                // Exact rational path first.
                if let (Some(a), Some(b)) = (l.as_rational(), r.as_rational()) {
                    let out = match op {
                        ArithOp::Add => a.checked_add(b),
                        ArithOp::Sub => a.checked_sub(b),
                        ArithOp::Mul => a.checked_mul(b),
                        ArithOp::Div => a.checked_div(b),
                    };
                    return out.map(Value::Rational).unwrap_or(Value::Null);
                }
                match (l.as_f64(), r.as_f64()) {
                    (Some(a), Some(b)) => {
                        let v = match op {
                            ArithOp::Add => a + b,
                            ArithOp::Sub => a - b,
                            ArithOp::Mul => a * b,
                            ArithOp::Div => {
                                if b == 0.0 {
                                    return Value::Null;
                                }
                                a / b
                            }
                        };
                        Value::Float(v)
                    }
                    _ => Value::Null,
                }
            }
            DataExpr::Not(e) => match e.eval(t, arrays).as_bool() {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            DataExpr::And(a, b) => match (a.eval(t, arrays).as_bool(), b.eval(t, arrays).as_bool())
            {
                (Some(x), Some(y)) => Value::Bool(x && y),
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                _ => Value::Null,
            },
            DataExpr::Or(a, b) => {
                match (a.eval(t, arrays).as_bool(), b.eval(t, arrays).as_bool()) {
                    (Some(x), Some(y)) => Value::Bool(x || y),
                    (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                }
            }
            DataExpr::Len(e) => match e.eval(t, arrays) {
                Value::Boxes(b) => Value::Int(b.len() as i64),
                Value::List(l) => Value::Int(l.len() as i64),
                Value::Str(s) => Value::Int(s.chars().count() as i64),
                Value::Null => Value::Int(0),
                _ => Value::Null,
            },
        }
    }
}

impl RenderExpr {
    /// Convenience: `video[t]`.
    pub fn video(name: impl Into<String>) -> RenderExpr {
        RenderExpr::FrameRef {
            video: name.into(),
            time: AffineTimeMap::IDENTITY,
        }
    }

    /// Convenience: `video[t + offset]`.
    pub fn video_shifted(name: impl Into<String>, offset: Rational) -> RenderExpr {
        RenderExpr::FrameRef {
            video: name.into(),
            time: AffineTimeMap::shift(offset),
        }
    }

    /// Wraps this expression in a transform (frames first is NOT assumed;
    /// callers supply full args).
    pub fn transform(op: TransformOp, args: Vec<Arg>) -> RenderExpr {
        RenderExpr::Transform { op, args }
    }

    /// A single-arm match covering `when`.
    pub fn matching(arms: Vec<(TimeSet, RenderExpr)>) -> RenderExpr {
        RenderExpr::Match {
            arms: arms
                .into_iter()
                .map(|(when, expr)| MatchArm { when, expr })
                .collect(),
        }
    }

    /// All video names referenced anywhere in the expression.
    pub fn referenced_videos(&self, out: &mut Vec<String>) {
        match self {
            RenderExpr::FrameRef { video, .. } => out.push(video.clone()),
            RenderExpr::Match { arms } => {
                for a in arms {
                    a.expr.referenced_videos(out);
                }
            }
            RenderExpr::Transform { args, .. } => {
                for a in args {
                    if let Arg::Frame(e) = a {
                        e.referenced_videos(out);
                    }
                }
            }
        }
    }

    /// All array names referenced anywhere in the expression.
    pub fn referenced_arrays(&self, out: &mut Vec<String>) {
        match self {
            RenderExpr::FrameRef { .. } => {}
            RenderExpr::Match { arms } => {
                for a in arms {
                    a.expr.referenced_arrays(out);
                }
            }
            RenderExpr::Transform { args, .. } => {
                for a in args {
                    match a {
                        Arg::Frame(e) => e.referenced_arrays(out),
                        Arg::Data(d) => d.referenced_arrays(out),
                    }
                }
            }
        }
    }

    /// Every constant image path an `Overlay` or `OverlayAt` names
    /// anywhere in the expression. A computed path has no value before
    /// execution, so it is not listed.
    pub fn referenced_images(&self, out: &mut Vec<String>) {
        match self {
            RenderExpr::FrameRef { .. } => {}
            RenderExpr::Match { arms } => {
                for a in arms {
                    a.expr.referenced_images(out);
                }
            }
            RenderExpr::Transform { op, args } => {
                if matches!(op, TransformOp::Overlay | TransformOp::OverlayAt) {
                    if let Some(Arg::Data(DataExpr::Const(Value::Str(path)))) = args.get(1) {
                        out.push(path.clone());
                    }
                }
                for a in args {
                    if let Arg::Frame(e) = a {
                        e.referenced_images(out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_time::r;

    fn arrays() -> BTreeMap<String, DataArray> {
        let mut m = BTreeMap::new();
        m.insert(
            "a".to_string(),
            DataArray::from_pairs([
                (r(0, 1), Value::Int(3)),
                (r(1, 1), Value::Int(6)),
                (r(2, 1), Value::Int(8)),
            ]),
        );
        m
    }

    #[test]
    fn paper_if_then_else_condition() {
        // a = [3, 6, 8]; a[t] < 5 is true at t=0 only.
        let cond = DataExpr::lt(DataExpr::array("a"), DataExpr::constant(5i64));
        let arrays = arrays();
        assert_eq!(cond.eval(r(0, 1), &arrays), Value::Bool(true));
        assert_eq!(cond.eval(r(1, 1), &arrays), Value::Bool(false));
        assert_eq!(cond.eval(r(2, 1), &arrays), Value::Bool(false));
        // Missing entry → NULL comparison → Null.
        assert_eq!(cond.eval(r(9, 1), &arrays), Value::Null);
    }

    #[test]
    fn t_and_arith() {
        let e = DataExpr::Arith {
            op: ArithOp::Sub,
            lhs: Box::new(DataExpr::T),
            rhs: Box::new(DataExpr::constant(Value::Rational(r(1, 2)))),
        };
        assert_eq!(e.eval(r(3, 2), &BTreeMap::new()), Value::Rational(r(1, 1)));
        let div = DataExpr::Arith {
            op: ArithOp::Div,
            lhs: Box::new(DataExpr::constant(1i64)),
            rhs: Box::new(DataExpr::constant(0i64)),
        };
        assert_eq!(div.eval(r(0, 1), &BTreeMap::new()), Value::Null);
    }

    #[test]
    fn len_of_boxes_and_null() {
        let arrays = {
            let mut m = BTreeMap::new();
            m.insert(
                "bb".to_string(),
                DataArray::from_pairs([(
                    r(0, 1),
                    Value::Boxes(vec![v2v_frame::BoxCoord::new(0.0, 0.0, 0.1, 0.1, "z")]),
                )]),
            );
            m
        };
        let n = DataExpr::Len(Box::new(DataExpr::array("bb")));
        assert_eq!(n.eval(r(0, 1), &arrays), Value::Int(1));
        // Missing entry counts as 0 boxes (Null → 0).
        assert_eq!(n.eval(r(1, 1), &arrays), Value::Int(0));
        let ne = DataExpr::non_empty(DataExpr::array("bb"));
        assert_eq!(ne.eval(r(0, 1), &arrays), Value::Bool(true));
        assert_eq!(ne.eval(r(1, 1), &arrays), Value::Bool(false));
    }

    #[test]
    fn logic_three_valued() {
        let null = DataExpr::Const(Value::Null);
        let yes = DataExpr::Const(Value::Bool(true));
        let no = DataExpr::Const(Value::Bool(false));
        let arrays = BTreeMap::new();
        let and = |a: &DataExpr, b: &DataExpr| {
            DataExpr::And(Box::new(a.clone()), Box::new(b.clone())).eval(r(0, 1), &arrays)
        };
        let or = |a: &DataExpr, b: &DataExpr| {
            DataExpr::Or(Box::new(a.clone()), Box::new(b.clone())).eval(r(0, 1), &arrays)
        };
        assert_eq!(and(&yes, &no), Value::Bool(false));
        assert_eq!(and(&no, &null), Value::Bool(false));
        assert_eq!(and(&yes, &null), Value::Null);
        assert_eq!(or(&yes, &null), Value::Bool(true));
        assert_eq!(or(&no, &null), Value::Null);
        assert_eq!(
            DataExpr::Not(Box::new(null)).eval(r(0, 1), &arrays),
            Value::Null
        );
    }

    #[test]
    fn reference_collection() {
        let e = RenderExpr::transform(
            TransformOp::IfThenElse,
            vec![
                Arg::Data(DataExpr::lt(DataExpr::array("a"), DataExpr::constant(5i64))),
                Arg::Frame(RenderExpr::video("vid1")),
                Arg::Frame(RenderExpr::video("vid2")),
            ],
        );
        let mut vids = Vec::new();
        let mut arrs = Vec::new();
        e.referenced_videos(&mut vids);
        e.referenced_arrays(&mut arrs);
        assert_eq!(vids, vec!["vid1", "vid2"]);
        assert_eq!(arrs, vec!["a"]);
    }

    #[test]
    fn serde_round_trip() {
        let e = RenderExpr::matching(vec![(
            TimeSet::from_range(v2v_time::TimeRange::new(r(0, 1), r(1, 1), r(1, 30))),
            RenderExpr::transform(
                TransformOp::Blur,
                vec![
                    Arg::Frame(RenderExpr::video_shifted("v", r(5, 1))),
                    Arg::Data(DataExpr::constant(2.0f64)),
                ],
            ),
        )]);
        let js = serde_json::to_string(&e).unwrap();
        let back: RenderExpr = serde_json::from_str(&js).unwrap();
        assert_eq!(e, back);
    }
}
