//! # snap-ast — the psnap block language
//!
//! The abstract syntax of a Snap!-style block language with the parallel
//! extensions of *"Parallel Programming with Pictures is a Snap!"*
//! (Feng, Gardner & Feng): first-class lists and rings, `parallelMap`,
//! `parallelForEach`, and `mapReduce` blocks.
//!
//! The crate is deliberately runtime-free: it defines values
//! ([`Value`], [`List`], [`Ring`]), blocks ([`Expr`], [`Stmt`]), scripts,
//! sprites and projects, a fluent [`builder`] API standing in for the
//! drag-and-drop editor, and a [`pure`] evaluator that compiles reporter
//! rings into thread-safe functions (the analogue of the paper's
//! `mappedCode()` → `new Function` pipeline that feeds Web Workers).
//! The cooperative interpreter lives in `snap-vm`; the worker pool in
//! `snap-workers`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod bytecode;
pub mod constant;
pub mod error;
pub mod expr;
pub mod lint;
pub mod project_xml;
pub mod pure;
pub mod ring;
pub mod script;
pub mod sprite;
pub mod stmt;
pub mod value;
pub mod xml;

pub use constant::Constant;
pub use error::EvalError;
pub use expr::{Attr, BinOp, Expr, RingExpr, RingExprBody, UnOp};
pub use lint::{lint_project, Lint, LintKind};
pub use pure::{compile_cache_stats, compile_cached, CompiledStrategy, PureFn};
pub use ring::{Ring, RingBody};
pub use script::{BlockKind, CustomBlock, HatBlock, Script};
pub use sprite::{Project, SpriteDef};
pub use stmt::{Stmt, StopKind};
pub use value::{List, ListView, Value};
pub use xml::XmlError;
