//! Directive-program lowering: compile a [`Model`]'s statement tree into a
//! slot-indexed form evaluated without string hashing or allocation.
//!
//! The VM executes directives millions of times per Monte-Carlo batch, and
//! profiling shows the symbolic [`Expr`] interpreter — one hash-map lookup
//! per variable reference, a string match per `sizeof` — dominating the
//! sweep phase once sampling itself is compiled. This pass runs once per
//! [`crate::vm::evaluate`] call:
//!
//! - every variable name is interned to a dense slot index, so the runtime
//!   environment is a `Vec<Option<f64>>` and a variable reference is an
//!   array read;
//! - `sizeof(<ctype>)` is resolved to its constant;
//! - constant subtrees are folded (`xsize*sizeof(float)` lowers to one
//!   multiply against a literal once `sizeof` resolves), except subtrees
//!   whose evaluation errors — those are kept symbolic so the error still
//!   surfaces if and when the directive actually executes;
//! - builtin calls are arity-checked here and lowered to fixed-arity
//!   nodes, removing the per-call argument `Vec`;
//! - `Irecv`/`Wait` request handles are interned the same way, so the
//!   per-process handle table is a `Vec`, not a string-keyed map.
//!
//! Evaluation semantics ([`LExpr::eval`] vs [`Expr::eval`]) are replicated
//! exactly — same short-circuiting, same error messages, same rounding —
//! so lowering cannot perturb a prediction, only the wall clock.

use std::collections::HashMap;

use crate::expr::{sizeof, BinOp, Expr, ExprError, UnOp};
use crate::model::{CollOp, Model, MsgKind, Stmt};

fn err<T>(message: impl Into<String>) -> Result<T, ExprError> {
    Err(ExprError {
        message: message.into(),
    })
}

/// String-to-slot interner. Kept after lowering only for error messages
/// (`unbound variable …`) and for binding named parameters to slots.
#[derive(Debug, Default)]
pub(crate) struct Names {
    map: HashMap<String, u32>,
    list: Vec<String>,
}

impl Names {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.map.get(name) {
            return i;
        }
        let i = self.list.len() as u32;
        self.map.insert(name.to_string(), i);
        self.list.push(name.to_string());
        i
    }

    /// Slot of `name`, if the lowered program references it.
    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        self.map.get(name).copied()
    }

    pub(crate) fn name(&self, slot: u32) -> &str {
        &self.list[slot as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.list.len()
    }

    pub(crate) fn list(&self) -> &[String] {
        &self.list
    }
}

/// Unary builtins (arity checked at lowering time).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fn1 {
    Ceil,
    Floor,
    Abs,
    Log2,
}

/// Binary builtins.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fn2 {
    Min,
    Max,
}

/// A lowered expression: shape of [`Expr`] with variables as slot indices,
/// `sizeof` resolved, and builtin calls at fixed arity.
#[derive(Debug, Clone)]
pub(crate) enum LExpr {
    Num(f64),
    Var(u32),
    Unary(UnOp, Box<LExpr>),
    Binary(BinOp, Box<LExpr>, Box<LExpr>),
    Call1(Fn1, Box<LExpr>),
    Call2(Fn2, Box<LExpr>, Box<LExpr>),
}

impl LExpr {
    /// Evaluate against the slot environment. Mirrors [`Expr::eval`]
    /// exactly, including error messages.
    pub(crate) fn eval(&self, slots: &[Option<f64>], names: &Names) -> Result<f64, ExprError> {
        match self {
            LExpr::Num(v) => Ok(*v),
            LExpr::Var(i) => slots[*i as usize].ok_or_else(|| ExprError {
                message: format!("unbound variable {:?}", names.name(*i)),
            }),
            LExpr::Unary(op, e) => {
                let v = e.eval(slots, names)?;
                Ok(match op {
                    UnOp::Neg => -v,
                    UnOp::Not => {
                        if v == 0.0 {
                            1.0
                        } else {
                            0.0
                        }
                    }
                })
            }
            LExpr::Binary(op, a, b) => {
                match op {
                    BinOp::And => {
                        return Ok(
                            if a.eval(slots, names)? != 0.0 && b.eval(slots, names)? != 0.0 {
                                1.0
                            } else {
                                0.0
                            },
                        )
                    }
                    BinOp::Or => {
                        return Ok(
                            if a.eval(slots, names)? != 0.0 || b.eval(slots, names)? != 0.0 {
                                1.0
                            } else {
                                0.0
                            },
                        )
                    }
                    _ => {}
                }
                let x = a.eval(slots, names)?;
                let y = b.eval(slots, names)?;
                Ok(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if y == 0.0 {
                            return err("division by zero");
                        }
                        x / y
                    }
                    BinOp::Mod => {
                        let yi = y.trunc();
                        if yi == 0.0 {
                            return err("modulo by zero");
                        }
                        (x.trunc() as i64).rem_euclid(yi as i64) as f64
                    }
                    BinOp::Eq => (x == y) as u8 as f64,
                    BinOp::Ne => (x != y) as u8 as f64,
                    BinOp::Lt => (x < y) as u8 as f64,
                    BinOp::Le => (x <= y) as u8 as f64,
                    BinOp::Gt => (x > y) as u8 as f64,
                    BinOp::Ge => (x >= y) as u8 as f64,
                    BinOp::And | BinOp::Or => unreachable!(),
                })
            }
            LExpr::Call1(f, a) => {
                let a = a.eval(slots, names)?;
                Ok(match f {
                    Fn1::Ceil => a.ceil(),
                    Fn1::Floor => a.floor(),
                    Fn1::Abs => a.abs(),
                    Fn1::Log2 => {
                        if a <= 0.0 {
                            return err("log2 of non-positive value");
                        }
                        a.log2()
                    }
                })
            }
            LExpr::Call2(f, a, b) => {
                let a = a.eval(slots, names)?;
                let b = b.eval(slots, names)?;
                Ok(match f {
                    Fn2::Min => a.min(b),
                    Fn2::Max => a.max(b),
                })
            }
        }
    }

    /// Evaluate as a boolean (non-zero = true).
    pub(crate) fn eval_bool(
        &self,
        slots: &[Option<f64>],
        names: &Names,
    ) -> Result<bool, ExprError> {
        Ok(self.eval(slots, names)? != 0.0)
    }

    /// Evaluate as a non-negative integer (rounded), mirroring
    /// [`Expr::eval_usize`].
    pub(crate) fn eval_usize(
        &self,
        slots: &[Option<f64>],
        names: &Names,
    ) -> Result<usize, ExprError> {
        let v = self.eval(slots, names)?;
        if !v.is_finite() || v < -0.5 {
            return err(format!("expected a non-negative integer, got {v}"));
        }
        Ok(v.round() as usize)
    }

    fn has_var(&self) -> bool {
        match self {
            LExpr::Num(_) => false,
            LExpr::Var(_) => true,
            LExpr::Unary(_, e) | LExpr::Call1(_, e) => e.has_var(),
            LExpr::Binary(_, a, b) | LExpr::Call2(_, a, b) => a.has_var() || b.has_var(),
        }
    }
}

/// An interned directive label: the text (borrowed from the model) plus a
/// dense slot used for O(1) loss attribution in the VM — accumulating
/// blocked time under a label is an indexed add, not a string-keyed map
/// operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Label<'m> {
    pub(crate) slot: u32,
    pub(crate) text: &'m str,
}

/// A lowered directive. Labels borrow from the model.
#[derive(Debug)]
pub(crate) enum LStmt<'m> {
    Loop {
        count: LExpr,
        var: Option<u32>,
        body: Vec<LStmt<'m>>,
    },
    Runon {
        branches: Vec<(LExpr, Vec<LStmt<'m>>)>,
    },
    Message {
        kind: MsgKind,
        size: LExpr,
        from: LExpr,
        to: LExpr,
        handle: Option<u32>,
        handle_name: Option<&'m str>,
        label: Option<Label<'m>>,
    },
    Wait {
        handle: u32,
        handle_name: &'m str,
        label: Option<Label<'m>>,
    },
    Serial {
        time: LExpr,
        label: Option<Label<'m>>,
    },
    Collective {
        op: CollOp,
        size: LExpr,
        label: Option<Label<'m>>,
    },
}

/// A model compiled for slot-indexed execution.
#[derive(Debug)]
pub(crate) struct LoweredModel<'m> {
    pub(crate) stmts: Vec<LStmt<'m>>,
    pub(crate) names: Names,
    /// Slot of the standard `procnum` variable.
    pub(crate) procnum: u32,
    /// Slot of the standard `numprocs` variable.
    pub(crate) numprocs: u32,
    /// Number of distinct `Irecv`/`Wait` handle names.
    pub(crate) nhandles: usize,
    /// Interned directive labels, indexed by [`Label::slot`].
    pub(crate) labels: Names,
}

/// Lower `model.stmts`, with constant folding made optional. Errors only
/// on programs that could never evaluate (unknown builtin, bad `sizeof`)
/// — valid models always lower. Folding is a pure
/// optimisation — `fold: false` must produce bitwise-identical evaluations
/// — which is exactly what the differential conformance harness
/// (`pevpm-testkit`) checks by running both variants over fuzzed programs.
pub(crate) fn lower_model_with(model: &Model, fold: bool) -> Result<LoweredModel<'_>, ExprError> {
    let mut names = Names::default();
    let procnum = names.intern("procnum");
    let numprocs = names.intern("numprocs");
    let mut handles = Names::default();
    let mut labels = Names::default();
    let mut cx = LowerCx {
        names: &mut names,
        handles: &mut handles,
        labels: &mut labels,
        fold,
    };
    let stmts = lower_block(&model.stmts, &mut cx)?;
    Ok(LoweredModel {
        stmts,
        names,
        procnum,
        numprocs,
        nhandles: handles.len(),
        labels,
    })
}

/// Shared lowering state: the three interners plus the fold switch.
struct LowerCx<'a> {
    names: &'a mut Names,
    handles: &'a mut Names,
    labels: &'a mut Names,
    fold: bool,
}

fn lower_label<'m>(label: &'m Option<String>, labels: &mut Names) -> Option<Label<'m>> {
    label.as_deref().map(|text| Label {
        slot: labels.intern(text),
        text,
    })
}

fn lower_block<'m>(stmts: &'m [Stmt], cx: &mut LowerCx<'_>) -> Result<Vec<LStmt<'m>>, ExprError> {
    stmts.iter().map(|s| lower_stmt(s, cx)).collect()
}

fn lower_stmt<'m>(stmt: &'m Stmt, cx: &mut LowerCx<'_>) -> Result<LStmt<'m>, ExprError> {
    Ok(match stmt {
        Stmt::Loop { count, var, body } => LStmt::Loop {
            count: lower_expr_in(count, cx)?,
            var: var.as_ref().map(|v| cx.names.intern(v)),
            body: lower_block(body, cx)?,
        },
        Stmt::Runon { branches } => LStmt::Runon {
            branches: branches
                .iter()
                .map(|(cond, body)| Ok((lower_expr_in(cond, cx)?, lower_block(body, cx)?)))
                .collect::<Result<_, ExprError>>()?,
        },
        Stmt::Message {
            kind,
            size,
            from,
            to,
            handle,
            label,
        } => LStmt::Message {
            kind: *kind,
            size: lower_expr_in(size, cx)?,
            from: lower_expr_in(from, cx)?,
            to: lower_expr_in(to, cx)?,
            handle: handle.as_ref().map(|h| cx.handles.intern(h)),
            handle_name: handle.as_deref(),
            label: lower_label(label, cx.labels),
        },
        Stmt::Wait { handle, label } => LStmt::Wait {
            handle: cx.handles.intern(handle),
            handle_name: handle.as_str(),
            label: lower_label(label, cx.labels),
        },
        Stmt::Serial { time, label, .. } => LStmt::Serial {
            time: lower_expr_in(time, cx)?,
            label: lower_label(label, cx.labels),
        },
        Stmt::Collective { op, size, label } => LStmt::Collective {
            op: *op,
            size: lower_expr_in(size, cx)?,
            label: lower_label(label, cx.labels),
        },
    })
}

fn lower_expr_in(e: &Expr, cx: &mut LowerCx<'_>) -> Result<LExpr, ExprError> {
    lower_expr_opts(e, cx.names, cx.fold)
}

#[cfg(test)]
fn lower_expr(e: &Expr, names: &mut Names) -> Result<LExpr, ExprError> {
    lower_expr_opts(e, names, true)
}

fn lower_expr_opts(e: &Expr, names: &mut Names, do_fold: bool) -> Result<LExpr, ExprError> {
    let l = match e {
        Expr::Num(v) => LExpr::Num(*v),
        Expr::Var(n) => LExpr::Var(names.intern(n)),
        Expr::Unary(op, a) => LExpr::Unary(*op, Box::new(lower_expr_opts(a, names, do_fold)?)),
        Expr::Binary(op, a, b) => LExpr::Binary(
            *op,
            Box::new(lower_expr_opts(a, names, do_fold)?),
            Box::new(lower_expr_opts(b, names, do_fold)?),
        ),
        Expr::Call(name, args) => {
            if name == "sizeof" {
                if args.len() != 1 {
                    return err("sizeof takes exactly one argument");
                }
                LExpr::Num(sizeof(&args[0])?)
            } else {
                match (name.as_str(), args.len()) {
                    ("min", 2) => LExpr::Call2(
                        Fn2::Min,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                        Box::new(lower_expr_opts(&args[1], names, do_fold)?),
                    ),
                    ("max", 2) => LExpr::Call2(
                        Fn2::Max,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                        Box::new(lower_expr_opts(&args[1], names, do_fold)?),
                    ),
                    ("ceil", 1) => LExpr::Call1(
                        Fn1::Ceil,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                    ),
                    ("floor", 1) => LExpr::Call1(
                        Fn1::Floor,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                    ),
                    ("abs", 1) => LExpr::Call1(
                        Fn1::Abs,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                    ),
                    ("log2", 1) => LExpr::Call1(
                        Fn1::Log2,
                        Box::new(lower_expr_opts(&args[0], names, do_fold)?),
                    ),
                    (_, n) => {
                        return err(format!("unknown function {name:?} with {n} args"));
                    }
                }
            }
        }
    };
    Ok(if do_fold { fold(l, names) } else { l })
}

/// Constant-fold a variable-free subtree. Subtrees whose evaluation errors
/// (division by zero, log2 domain) are kept symbolic so the error is
/// raised at execution time, exactly as the interpreter would.
fn fold(l: LExpr, names: &Names) -> LExpr {
    if matches!(l, LExpr::Num(_)) || l.has_var() {
        return l;
    }
    match l.eval(&[], names) {
        Ok(v) => LExpr::Num(v),
        Err(_) => l,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{parse, Env};

    fn lower(src: &str) -> (LExpr, Names) {
        let mut names = Names::default();
        let l = lower_expr(&parse(src).unwrap(), &mut names).unwrap();
        (l, names)
    }

    #[test]
    fn folds_sizeof_and_constants() {
        let (l, _) = lower("4*sizeof(float)+1");
        assert!(matches!(l, LExpr::Num(v) if v == 17.0));
    }

    #[test]
    fn keeps_erroring_subtree_symbolic() {
        let (l, names) = lower("1/0");
        assert!(!matches!(l, LExpr::Num(_)));
        assert_eq!(l.eval(&[], &names).unwrap_err().message, "division by zero");
    }

    #[test]
    fn slot_eval_matches_interpreter() {
        for src in [
            "xsize*sizeof(float)",
            "procnum%2==0 && procnum<numprocs-1",
            "max(ceil(n/4), min(n, 3)) + log2(8)",
            "-n + abs(0-n) + (n>=2)*7",
        ] {
            let e = parse(src).unwrap();
            let mut env = Env::default();
            for (k, v) in [
                ("xsize", 256.0),
                ("procnum", 3.0),
                ("numprocs", 8.0),
                ("n", 6.0),
            ] {
                env.insert(k.to_string(), v);
            }
            let mut names = Names::default();
            let l = lower_expr(&e, &mut names).unwrap();
            let mut slots = vec![None; names.len()];
            for (k, v) in [
                ("xsize", 256.0),
                ("procnum", 3.0),
                ("numprocs", 8.0),
                ("n", 6.0),
            ] {
                if let Some(i) = names.get(k) {
                    slots[i as usize] = Some(v);
                }
            }
            let a = e.eval(&env).unwrap();
            let b = l.eval(&slots, &names).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "{src}");
        }
    }

    #[test]
    fn unbound_variable_message_matches() {
        let e = parse("missing+1").unwrap();
        let mut names = Names::default();
        let l = lower_expr(&e, &mut names).unwrap();
        let slots = vec![None; names.len()];
        assert_eq!(
            l.eval(&slots, &names).unwrap_err(),
            e.eval(&Env::default()).unwrap_err()
        );
    }

    #[test]
    fn unfolded_lowering_evaluates_identically() {
        for src in [
            "4*sizeof(float)+1",
            "max(ceil(6/4), min(6, 3)) + log2(8)",
            "1+2*3-4/2",
        ] {
            let e = parse(src).unwrap();
            let mut names = Names::default();
            let folded = lower_expr_opts(&e, &mut names, true).unwrap();
            let mut names2 = Names::default();
            let plain = lower_expr_opts(&e, &mut names2, false).unwrap();
            assert!(matches!(folded, LExpr::Num(_)), "{src} should fold");
            assert!(!matches!(plain, LExpr::Num(_)), "{src} should stay a tree");
            let a = folded.eval(&[], &names).unwrap();
            let b = plain.eval(&[], &names2).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "{src}");
        }
    }

    #[test]
    fn unknown_function_errors_at_lower_time() {
        let e = parse("frob(1)").unwrap();
        let mut names = Names::default();
        assert_eq!(
            lower_expr(&e, &mut names).unwrap_err().message,
            "unknown function \"frob\" with 1 args"
        );
    }
}
