//! Reporter blocks — the expression layer of the psnap AST.
//!
//! Every oval/hexagonal block in Snap! that reports a value corresponds to
//! an [`Expr`] variant here. The AST is fully serializable so projects can
//! be saved and reloaded, mirroring Snap!'s XML project files.

use serde::{Deserialize, Serialize};

use crate::constant::Constant;
use crate::stmt::Stmt;

/// Binary operator blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `−`
    Sub,
    /// `×`
    Mul,
    /// `/`
    Div,
    /// `mod`
    Mod,
    /// `^` (power)
    Pow,
    /// `=` (loose equality)
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `≤`
    Le,
    /// `≥`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
}

/// Unary operator blocks (mostly the `sqrt of`-style monadic menu).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// `not`
    Not,
    /// numeric negation
    Neg,
    /// `abs of`
    Abs,
    /// `sqrt of`
    Sqrt,
    /// `round`
    Round,
    /// `floor of`
    Floor,
    /// `ceiling of`
    Ceil,
    /// `sin of` (degrees, like Snap!)
    Sin,
    /// `cos of` (degrees)
    Cos,
    /// `ln of`
    Ln,
    /// `e^ of`
    Exp,
}

/// Read-only sprite/stage attributes exposed as reporter blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Attr {
    /// Stage timer, in timesteps since the last reset.
    Timer,
    /// Sprite x position.
    XPosition,
    /// Sprite y position.
    YPosition,
    /// Sprite heading in degrees.
    Direction,
    /// Costume number of the current costume.
    CostumeNumber,
    /// The sprite's name (clones share their parent's name plus an id).
    SpriteName,
    /// `true` when this sprite instance is a clone.
    IsClone,
}

/// A quoted (ringified) expression or script as it appears in the AST.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingExpr {
    /// Formal parameter names (empty = implicit empty-slot parameters).
    pub params: Vec<String>,
    /// The quoted body.
    pub body: RingExprBody,
}

/// Body of a [`RingExpr`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RingExprBody {
    /// Gray ring around a reporter.
    Reporter(Box<Expr>),
    /// Gray ring around a predicate.
    Predicate(Box<Expr>),
    /// Gray ring around a script.
    Command(Vec<Stmt>),
}

impl RingExpr {
    /// Ring a reporter expression with implicit parameters.
    pub fn reporter(expr: Expr) -> RingExpr {
        RingExpr {
            params: Vec::new(),
            body: RingExprBody::Reporter(Box::new(expr)),
        }
    }

    /// Ring a reporter expression with named parameters.
    pub fn reporter_with_params(params: Vec<String>, expr: Expr) -> RingExpr {
        RingExpr {
            params,
            body: RingExprBody::Reporter(Box::new(expr)),
        }
    }

    /// Ring a predicate expression.
    pub fn predicate(expr: Expr) -> RingExpr {
        RingExpr {
            params: Vec::new(),
            body: RingExprBody::Predicate(Box::new(expr)),
        }
    }

    /// Ring a script.
    pub fn command(body: Vec<Stmt>) -> RingExpr {
        RingExpr {
            params: Vec::new(),
            body: RingExprBody::Command(body),
        }
    }

    /// Ring a script with named parameters.
    pub fn command_with_params(params: Vec<String>, body: Vec<Stmt>) -> RingExpr {
        RingExpr {
            params,
            body: RingExprBody::Command(body),
        }
    }
}

/// A reporter block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A literal input typed into a slot.
    Literal(Constant),
    /// The `list` block with per-item inputs.
    MakeList(Vec<Expr>),
    /// A variable reporter (script, sprite, or global scope — resolved at
    /// run time, innermost first).
    Var(String),
    /// An **empty input slot**. Inside a ring, empty slots receive the
    /// ring's arguments positionally (paper §3.1: "the empty input signals
    /// where the list inputs are to be inserted").
    EmptySlot,
    /// A binary operator block.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A unary operator block.
    Unary(UnOp, Box<Expr>),
    /// `item <i> of <list>` (1-based).
    Item(Box<Expr>, Box<Expr>),
    /// `length of <list>`.
    LengthOf(Box<Expr>),
    /// `<list> contains <value>`.
    Contains(Box<Expr>, Box<Expr>),
    /// `join <parts...>` — string concatenation.
    Join(Vec<Expr>),
    /// `split <text> by <delimiter>` — reports a list.
    Split(Box<Expr>, Box<Expr>),
    /// `letter <i> of <text>` (1-based).
    LetterOf(Box<Expr>, Box<Expr>),
    /// `length of <text>` (string length).
    TextLength(Box<Expr>),
    /// `pick random <a> to <b>` — integral when both bounds are integral.
    PickRandom(Box<Expr>, Box<Expr>),
    /// `numbers from <a> to <b>` — reports the list `[a, a+1, …, b]`.
    NumbersFromTo(Box<Expr>, Box<Expr>),
    /// A read-only attribute reporter (`timer`, `x position`, …).
    Attribute(Attr),
    /// A gray ring: quotes its body into a first-class [`crate::Ring`].
    Ring(RingExpr),
    /// `call <ring> with inputs <args…>`.
    CallRing(Box<Expr>, Vec<Expr>),
    /// Call a custom reporter block defined with "Build Your Own Blocks".
    CallCustom(String, Vec<Expr>),
    /// Snap!'s sequential `map <ring> over <list>` (paper §3.1, Fig. 4).
    Map {
        /// The function to apply.
        ring: Box<Expr>,
        /// The input list.
        list: Box<Expr>,
    },
    /// `keep items such that <pred> from <list>`.
    Keep {
        /// The predicate.
        pred: Box<Expr>,
        /// The input list.
        list: Box<Expr>,
    },
    /// `combine <list> using <ring>` — sequential fold.
    Combine {
        /// The input list.
        list: Box<Expr>,
        /// The binary combining function.
        ring: Box<Expr>,
    },
    /// **`parallelMap <ring> over <list> (workers <n>)`** — the paper's
    /// new block (§3.2, Fig. 5). `workers` is the optional input revealed
    /// by the right-facing arrow; `None` uses the default (hardware
    /// concurrency, else 4).
    ParallelMap {
        /// The function to apply.
        ring: Box<Expr>,
        /// The input list.
        list: Box<Expr>,
        /// Optional worker count.
        workers: Option<Box<Expr>>,
    },
    /// **`mapReduce <map fn> <reduce fn> over <list>`** — the paper's
    /// MapReduce block (§3.4, Figs. 11–13).
    MapReduce {
        /// The map function: item → `[key, value]`.
        mapper: Box<Expr>,
        /// The reduce function: combines the values grouped under one key.
        reducer: Box<Expr>,
        /// The input list.
        list: Box<Expr>,
    },
}

impl Expr {
    /// Number literal shortcut.
    pub fn num(n: f64) -> Expr {
        Expr::Literal(Constant::Number(n))
    }

    /// Text literal shortcut.
    pub fn text(s: impl Into<String>) -> Expr {
        Expr::Literal(Constant::Text(s.into()))
    }

    /// Boolean literal shortcut.
    pub fn boolean(b: bool) -> Expr {
        Expr::Literal(Constant::Bool(b))
    }

    /// Walk this expression tree, calling `f` on every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        let each = |items: &[Expr], f: &mut dyn FnMut(&Expr)| {
            for e in items {
                e.visit_dyn(f);
            }
        };
        match self {
            Expr::Literal(_) | Expr::Var(_) | Expr::EmptySlot | Expr::Attribute(_) => {}
            Expr::MakeList(items) | Expr::Join(items) => each(items, f),
            Expr::Binary(_, a, b)
            | Expr::Item(a, b)
            | Expr::Contains(a, b)
            | Expr::Split(a, b)
            | Expr::LetterOf(a, b)
            | Expr::PickRandom(a, b)
            | Expr::NumbersFromTo(a, b) => {
                a.visit_dyn(f);
                b.visit_dyn(f);
            }
            Expr::Unary(_, a) | Expr::LengthOf(a) | Expr::TextLength(a) => a.visit_dyn(f),
            Expr::Ring(r) => match &r.body {
                RingExprBody::Reporter(e) | RingExprBody::Predicate(e) => e.visit_dyn(f),
                RingExprBody::Command(stmts) => {
                    for s in stmts {
                        s.visit_exprs(&mut |e| e.visit_dyn(f));
                    }
                }
            },
            Expr::CallRing(r, args) => {
                r.visit_dyn(f);
                each(args, f);
            }
            Expr::CallCustom(_, args) => each(args, f),
            Expr::Map { ring, list } | Expr::Keep { pred: ring, list } => {
                ring.visit_dyn(f);
                list.visit_dyn(f);
            }
            Expr::Combine { list, ring } => {
                list.visit_dyn(f);
                ring.visit_dyn(f);
            }
            Expr::ParallelMap {
                ring,
                list,
                workers,
            } => {
                ring.visit_dyn(f);
                list.visit_dyn(f);
                if let Some(w) = workers {
                    w.visit_dyn(f);
                }
            }
            Expr::MapReduce {
                mapper,
                reducer,
                list,
            } => {
                mapper.visit_dyn(f);
                reducer.visit_dyn(f);
                list.visit_dyn(f);
            }
        }
    }

    fn visit_dyn(&self, f: &mut dyn FnMut(&Expr)) {
        self.visit(&mut |e| f(e));
    }

    /// Count the nodes of the expression tree (a rough proxy for "number
    /// of blocks", used by cost models and tests).
    pub fn block_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Rebuild the expression with each own-level empty slot replaced by
    /// `f(slot_index)` (0-based, left-to-right). Does **not** descend into
    /// nested [`Expr::Ring`]s — their slots belong to them.
    pub fn map_own_empty_slots(&self, f: &mut impl FnMut(usize) -> Expr) -> Expr {
        let mut counter = 0usize;
        self.map_slots_inner(&mut |i| f(i), &mut counter)
    }

    fn map_slots_inner(&self, f: &mut dyn FnMut(usize) -> Expr, counter: &mut usize) -> Expr {
        let go = |e: &Expr, f: &mut dyn FnMut(usize) -> Expr, c: &mut usize| {
            Box::new(e.map_slots_inner(f, c))
        };
        match self {
            Expr::EmptySlot => {
                let i = *counter;
                *counter += 1;
                f(i)
            }
            Expr::Literal(_) | Expr::Var(_) | Expr::Attribute(_) | Expr::Ring(_) => self.clone(),
            Expr::MakeList(items) => Expr::MakeList(
                items
                    .iter()
                    .map(|e| e.map_slots_inner(f, counter))
                    .collect(),
            ),
            Expr::Join(items) => Expr::Join(
                items
                    .iter()
                    .map(|e| e.map_slots_inner(f, counter))
                    .collect(),
            ),
            Expr::Binary(op, a, b) => Expr::Binary(*op, go(a, f, counter), go(b, f, counter)),
            Expr::Unary(op, a) => Expr::Unary(*op, go(a, f, counter)),
            Expr::Item(a, b) => Expr::Item(go(a, f, counter), go(b, f, counter)),
            Expr::LengthOf(a) => Expr::LengthOf(go(a, f, counter)),
            Expr::Contains(a, b) => Expr::Contains(go(a, f, counter), go(b, f, counter)),
            Expr::Split(a, b) => Expr::Split(go(a, f, counter), go(b, f, counter)),
            Expr::LetterOf(a, b) => Expr::LetterOf(go(a, f, counter), go(b, f, counter)),
            Expr::TextLength(a) => Expr::TextLength(go(a, f, counter)),
            Expr::PickRandom(a, b) => Expr::PickRandom(go(a, f, counter), go(b, f, counter)),
            Expr::NumbersFromTo(a, b) => Expr::NumbersFromTo(go(a, f, counter), go(b, f, counter)),
            Expr::CallRing(r, args) => Expr::CallRing(
                go(r, f, counter),
                args.iter().map(|e| e.map_slots_inner(f, counter)).collect(),
            ),
            Expr::CallCustom(name, args) => Expr::CallCustom(
                name.clone(),
                args.iter().map(|e| e.map_slots_inner(f, counter)).collect(),
            ),
            Expr::Map { ring, list } => Expr::Map {
                ring: go(ring, f, counter),
                list: go(list, f, counter),
            },
            Expr::Keep { pred, list } => Expr::Keep {
                pred: go(pred, f, counter),
                list: go(list, f, counter),
            },
            Expr::Combine { list, ring } => Expr::Combine {
                list: go(list, f, counter),
                ring: go(ring, f, counter),
            },
            Expr::ParallelMap {
                ring,
                list,
                workers,
            } => Expr::ParallelMap {
                ring: go(ring, f, counter),
                list: go(list, f, counter),
                workers: workers.as_ref().map(|w| go(w, f, counter)),
            },
            Expr::MapReduce {
                mapper,
                reducer,
                list,
            } => Expr::MapReduce {
                mapper: go(mapper, f, counter),
                reducer: go(reducer, f, counter),
                list: go(list, f, counter),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn block_count_counts_nested_nodes() {
        // (( ) × 10): Binary + EmptySlot + Literal = 3 blocks
        let e = mul(empty_slot(), num(10.0));
        assert_eq!(e.block_count(), 3);
    }

    #[test]
    fn visit_descends_into_rings() {
        let e = Expr::Ring(RingExpr::reporter(mul(empty_slot(), num(10.0))));
        assert_eq!(e.block_count(), 4);
        let mut slots = 0;
        e.visit(&mut |e| slots += usize::from(matches!(e, Expr::EmptySlot)));
        assert_eq!(slots, 1);
    }

    #[test]
    fn serde_roundtrip_of_parallel_map() {
        let e = Expr::ParallelMap {
            ring: Box::new(Expr::Ring(RingExpr::reporter(mul(empty_slot(), num(10.0))))),
            list: Box::new(Expr::MakeList(vec![num(3.0), num(7.0), num(8.0)])),
            workers: Some(Box::new(num(4.0))),
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Expr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn slot_substitution_skips_nested_rings() {
        let inner = Expr::Ring(RingExpr::reporter(mul(empty_slot(), num(2.0))));
        let map_over = |list| Expr::Map {
            ring: Box::new(inner.clone()),
            list: Box::new(list),
        };
        let outer = add(empty_slot(), map_over(empty_slot()));
        let mut seen = Vec::new();
        let replaced = outer.map_own_empty_slots(&mut |i| {
            seen.push(i);
            var(format!("%arg{i}"))
        });
        // The outer level's two slots are numbered left to right; the
        // inner ring's slot belongs to it and survives.
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(replaced, add(var("%arg0"), map_over(var("%arg1"))));
    }
}
