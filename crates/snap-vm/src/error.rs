//! Runtime errors.
//!
//! Snap! reports script errors as a red halo around the offending block
//! and keeps the rest of the project running. The VM does the same: a
//! [`VmError`] kills only the process that raised it and is recorded in
//! the world's error log.

use std::fmt;

use snap_ast::EvalError;

/// An error raised by a running script.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// An expression failed to evaluate.
    Eval(EvalError),
    /// `create a clone of <name>` named a sprite that doesn't exist.
    UnknownSprite(String),
    /// A block that only makes sense on a sprite ran on the stage.
    StageCannot(&'static str),
    /// A `report` block ran outside a custom reporter or reporter ring.
    ReportOutsideReporter,
    /// A custom reporter finished without reporting.
    NoReport(String),
    /// The parallel backend failed.
    Backend(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Eval(e) => e.fmt(f),
            VmError::UnknownSprite(name) => write!(f, "no sprite named '{name}'"),
            VmError::StageCannot(what) => write!(f, "the stage cannot {what}"),
            VmError::ReportOutsideReporter => {
                write!(f, "'report' can only run inside a reporter")
            }
            VmError::NoReport(name) => {
                write!(f, "custom reporter '{name}' finished without reporting")
            }
            VmError::Backend(msg) => write!(f, "parallel backend error: {msg}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<EvalError> for VmError {
    fn from(e: EvalError) -> Self {
        VmError::Eval(e)
    }
}
