//! Serializable literal values.
//!
//! The AST must be saveable as a project file, but runtime [`Value`]s
//! contain shared mutable lists (and rings capturing live environments)
//! that have no canonical serialized form. [`Constant`] is the
//! serializable subset used for literals in the AST and for initial
//! variable contents; it converts losslessly *into* a fresh [`Value`].

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// A literal as it appears in a saved project.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Constant {
    /// Empty slot contents.
    Nothing,
    /// A number literal.
    Number(f64),
    /// A text literal.
    Text(String),
    /// A boolean literal.
    Bool(bool),
    /// A list literal (e.g. the `list 3 7 8` block with constant inputs).
    List(Vec<Constant>),
}

impl Constant {
    /// Materialize a fresh runtime value. List constants produce *new*
    /// list storage every time, so two materializations never alias.
    pub fn to_value(&self) -> Value {
        match self {
            Constant::Nothing => Value::Nothing,
            Constant::Number(n) => Value::Number(*n),
            Constant::Text(s) => Value::Text(s.clone()),
            Constant::Bool(b) => Value::Bool(*b),
            Constant::List(items) => Value::list(items.iter().map(Constant::to_value).collect()),
        }
    }

    /// Best-effort reverse conversion (used when saving watcher state);
    /// rings cannot be represented and become `Nothing`.
    pub fn from_value(value: &Value) -> Constant {
        match value {
            Value::Nothing | Value::Ring(_) => Constant::Nothing,
            Value::Number(n) => Constant::Number(*n),
            Value::Text(s) => Constant::Text(s.clone()),
            Value::Bool(b) => Constant::Bool(*b),
            Value::List(l) => Constant::List(l.to_vec().iter().map(Constant::from_value).collect()),
        }
    }
}

impl From<f64> for Constant {
    fn from(n: f64) -> Self {
        Constant::Number(n)
    }
}

impl From<i32> for Constant {
    fn from(n: i32) -> Self {
        Constant::Number(n as f64)
    }
}

impl From<&str> for Constant {
    fn from(s: &str) -> Self {
        Constant::Text(s.to_owned())
    }
}

impl From<bool> for Constant {
    fn from(b: bool) -> Self {
        Constant::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_value() {
        let c = Constant::List(vec![3.into(), "x".into(), true.into(), Constant::Nothing]);
        let v = c.to_value();
        assert_eq!(Constant::from_value(&v), c);
    }

    #[test]
    fn list_constants_never_alias() {
        let c = Constant::List(vec![1.into()]);
        let a = c.to_value();
        let b = c.to_value();
        a.as_list().unwrap().add(2.into());
        assert_eq!(b.as_list().unwrap().len(), 1);
    }

    #[test]
    fn nested_lists_never_alias_and_rings_save_as_nothing() {
        let c = Constant::List(vec![Constant::List(vec![1.into()]), "x".into()]);
        let a = c.to_value();
        let b = c.to_value();
        let inner = |v: &Value| v.as_list().unwrap().item(1).unwrap();
        inner(&a).as_list().unwrap().add(2.into());
        assert_eq!(
            inner(&b).as_list().unwrap().len(),
            1,
            "inner lists are fresh too"
        );
        assert_eq!(
            Constant::from_value(&a),
            Constant::List(vec![Constant::List(vec![1.into(), 2.into()]), "x".into()])
        );
        let ring = Value::Ring(std::sync::Arc::new(crate::Ring::reporter(
            crate::Expr::EmptySlot,
        )));
        let list = Value::list(vec![ring.clone(), 7.into()]);
        assert_eq!(Constant::from_value(&ring), Constant::Nothing);
        assert_eq!(
            Constant::from_value(&list),
            Constant::List(vec![Constant::Nothing, 7.into()])
        );
    }

    #[test]
    fn serde_roundtrip() {
        let c = Constant::List(vec![Constant::Number(1.5), Constant::Text("hi".into())]);
        let json = serde_json::to_string(&c).unwrap();
        let back: Constant = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
