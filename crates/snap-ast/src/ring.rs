//! First-class procedures — the **gray ring** of Snap!.
//!
//! Wrapping a block in a gray ring delays its evaluation and turns it into
//! a value (paper §3.1): the multiplication block inside `map (( ) × 10)`
//! is not evaluated to `0`; the *function itself* becomes the input to
//! `map`. A [`Ring`] carries the quoted expression or script, its formal
//! parameters, and — once "ringified" by the VM — a snapshot of the
//! variables it closes over.

use crate::expr::Expr;
use crate::stmt::Stmt;
use crate::value::Value;

/// What kind of block a ring quotes.
#[derive(Debug, Clone, PartialEq)]
pub enum RingBody {
    /// A reporter ring: evaluates to a value (e.g. `( ) × 10`).
    Reporter(Expr),
    /// A predicate ring: evaluates to a boolean.
    Predicate(Expr),
    /// A command ring: a script to run for its effects.
    Command(Vec<Stmt>),
}

/// A first-class procedure value.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Formal parameter names. When empty, arguments are bound to the
    /// ring's *empty slots* positionally, exactly like Snap!'s implicit
    /// parameters.
    pub params: Vec<String>,
    /// The quoted body.
    pub body: RingBody,
    /// Variables captured at ringification time (name, value), innermost
    /// last. Empty for rings built directly from the AST.
    pub captured: Vec<(String, Value)>,
}

impl Ring {
    /// A reporter ring with implicit (empty-slot) parameters.
    pub fn reporter(expr: Expr) -> Ring {
        Ring {
            params: Vec::new(),
            body: RingBody::Reporter(expr),
            captured: Vec::new(),
        }
    }

    /// A reporter ring with named formal parameters.
    pub fn reporter_with_params(params: Vec<String>, expr: Expr) -> Ring {
        Ring {
            params,
            body: RingBody::Reporter(expr),
            captured: Vec::new(),
        }
    }

    /// A predicate ring.
    pub fn predicate(expr: Expr) -> Ring {
        Ring {
            params: Vec::new(),
            body: RingBody::Predicate(expr),
            captured: Vec::new(),
        }
    }

    /// A command ring (quoted script).
    pub fn command(body: Vec<Stmt>) -> Ring {
        Ring {
            params: Vec::new(),
            body: RingBody::Command(body),
            captured: Vec::new(),
        }
    }

    /// A command ring with named formal parameters.
    pub fn command_with_params(params: Vec<String>, body: Vec<Stmt>) -> Ring {
        Ring {
            params,
            body: RingBody::Command(body),
            captured: Vec::new(),
        }
    }

    /// Attach a captured-environment snapshot (done by the VM when the
    /// ring literal is evaluated).
    pub fn with_captured(mut self, captured: Vec<(String, Value)>) -> Ring {
        self.captured = captured;
        self
    }

    /// Short human-readable description used by `Value::to_display_string`.
    pub fn describe(&self) -> String {
        let kind = match self.body {
            RingBody::Reporter(_) => "reporter",
            RingBody::Predicate(_) => "predicate",
            RingBody::Command(_) => "command",
        };
        if self.params.is_empty() {
            kind.to_owned()
        } else {
            format!("{kind}({})", self.params.join(", "))
        }
    }

    /// Look up a captured variable, innermost binding first.
    pub fn captured_var(&self, name: &str) -> Option<&Value> {
        self.captured
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn describe_mentions_params() {
        let r = Ring::reporter_with_params(vec!["n".into()], mul(var("n"), num(10.0)));
        assert_eq!(r.describe(), "reporter(n)");
        assert_eq!(Ring::command(vec![]).describe(), "command");
    }

    #[test]
    fn describe_names_each_ring_kind() {
        let predicate = Ring::predicate(gt(empty_slot(), num(0.0)));
        assert_eq!(predicate.describe(), "predicate");
        assert_eq!(Ring::reporter(empty_slot()).describe(), "reporter");
        let command = Ring::command_with_params(vec!["a".into(), "b".into()], vec![]);
        assert_eq!(command.describe(), "command(a, b)");
        assert_eq!(
            Value::Ring(std::sync::Arc::new(command)).to_display_string(),
            "<ring command(a, b)>"
        );
    }

    #[test]
    fn captured_lookup_prefers_innermost() {
        let r = Ring::reporter(empty_slot()).with_captured(vec![
            ("x".into(), Value::Number(1.0)),
            ("x".into(), Value::Number(2.0)),
        ]);
        assert_eq!(r.captured_var("x"), Some(&Value::Number(2.0)));
        assert_eq!(r.captured_var("y"), None);
    }
}
