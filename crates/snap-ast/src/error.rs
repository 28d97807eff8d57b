//! Error types shared by the evaluators.

use std::fmt;

/// An error raised while evaluating blocks.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A variable reporter found no binding in any visible scope.
    UnboundVariable(String),
    /// A block needed a value of one type but got another.
    TypeMismatch {
        /// What the block expected (e.g. `"list"`).
        expected: &'static str,
        /// A rendering of what it got.
        got: String,
    },
    /// A 1-based index fell outside the list/text.
    IndexOutOfRange {
        /// The requested index.
        index: usize,
        /// The length of the collection.
        len: usize,
    },
    /// A block that requires the full VM was evaluated in a pure context
    /// (e.g. inside a worker function). Names the offending block.
    NotPure(&'static str),
    /// A ring was called with the wrong number of arguments.
    ArityMismatch {
        /// Declared parameter count.
        expected: usize,
        /// Supplied argument count.
        got: usize,
    },
    /// A command ring was used where a reporter was required.
    NotAReporter,
    /// A custom block was called but no definition is visible.
    UnknownCustomBlock(String),
    /// Ring applications (or custom-block calls) nested past the
    /// recursion limit, `snap_ast::pure::MAX_DEPTH`.
    TooMuchRecursion,
    /// A block would build a list of more items than the budget allows
    /// (`snap_ast::pure::MAX_LIST_ITEMS`), or of endlessly many.
    ListTooLong {
        /// The budget.
        limit: usize,
    },
    /// Anything else, with a message.
    Other(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(name) => {
                write!(
                    f,
                    "a variable of name '{name}' does not exist in this context"
                )
            }
            EvalError::TypeMismatch { expected, got } => {
                write!(f, "expected a {expected}, got {got}")
            }
            EvalError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} is out of range for length {len}")
            }
            EvalError::NotPure(block) => {
                write!(f, "the '{block}' block cannot run inside a worker function")
            }
            EvalError::ArityMismatch { expected, got } => {
                write!(f, "ring expects {expected} inputs but got {got}")
            }
            EvalError::NotAReporter => write!(f, "a reporter ring is required here"),
            EvalError::UnknownCustomBlock(name) => {
                write!(f, "no definition for custom block '{name}'")
            }
            EvalError::TooMuchRecursion => f.write_str("too much recursion"),
            EvalError::ListTooLong { limit } => {
                write!(f, "a list of more than {limit} items is too long to build")
            }
            EvalError::Other(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for EvalError {}
