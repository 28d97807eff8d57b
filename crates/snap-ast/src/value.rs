//! Runtime values of the psnap language.
//!
//! Snap! distinguishes itself from Scratch by making **lists** and
//! **procedures (rings)** first-class: they can be stored in variables,
//! passed to blocks and returned from reporters (paper §2). [`Value`]
//! captures that: a value is a number, a piece of text, a boolean, a
//! *shared, mutable* list, or a ring.
//!
//! Lists have reference semantics exactly as in Snap!: two variables can
//! hold the *same* list, and a mutation through one is visible through the
//! other. Crossing a worker boundary instead performs a *structured clone*
//! ([`Value::deep_copy`]), mirroring how HTML5 Web Workers copy message
//! payloads (paper §4.1).

use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::ring::Ring;

/// Shared, mutable, 1-indexed list — Snap!'s first-class list type.
///
/// Cloning a `List` clones the *handle*, not the storage; use
/// [`List::deep_copy`] for a structural copy.
#[derive(Clone, Default)]
pub struct List(Arc<RwLock<Vec<Value>>>);

impl List {
    /// Create an empty list.
    pub fn new() -> Self {
        List(Arc::new(RwLock::new(Vec::new())))
    }

    /// Read-lock the storage. A poisoned lock (a panic while some other
    /// thread held the guard) is recovered: list operations never leave
    /// the `Vec` in a torn state, so the data is still coherent.
    fn read(&self) -> RwLockReadGuard<'_, Vec<Value>> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-lock the storage, recovering from poison (see [`List::read`]).
    fn write(&self) -> RwLockWriteGuard<'_, Vec<Value>> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Create a list from existing items.
    pub fn from_vec(items: Vec<Value>) -> Self {
        List(Arc::new(RwLock::new(items)))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// `true` when the list has no items.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// `item <index> of <list>` — **1-based**, like every Snap! list block.
    /// Returns `None` when the index is out of range.
    pub fn item(&self, index: usize) -> Option<Value> {
        if index == 0 {
            return None;
        }
        self.read().get(index - 1).cloned()
    }

    /// `replace item <index> of <list> with <value>` (1-based).
    /// Returns `false` when the index is out of range.
    pub fn set_item(&self, index: usize, value: Value) -> bool {
        if index == 0 {
            return false;
        }
        let mut guard = self.write();
        match guard.get_mut(index - 1) {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    /// `add <value> to <list>` — append.
    pub fn add(&self, value: Value) {
        self.write().push(value);
    }

    /// `insert <value> at <index> of <list>` (1-based). Index `len+1`
    /// appends; anything larger is clamped to append, matching Snap!'s
    /// forgiving semantics.
    pub fn insert(&self, index: usize, value: Value) {
        let mut guard = self.write();
        let idx = index.saturating_sub(1).min(guard.len());
        guard.insert(idx, value);
    }

    /// `delete <index> of <list>` (1-based). Returns the removed item.
    pub fn delete(&self, index: usize) -> Option<Value> {
        if index == 0 {
            return None;
        }
        let mut guard = self.write();
        if index <= guard.len() {
            Some(guard.remove(index - 1))
        } else {
            None
        }
    }

    /// Remove every item.
    pub fn clear(&self) {
        self.write().clear();
    }

    /// `<list> contains <value>` using Snap!'s loose equality.
    pub fn contains(&self, value: &Value) -> bool {
        self.read().iter().any(|v| v.loose_eq(value))
    }

    /// Snapshot of the current items (shallow copies: nested lists still
    /// share storage).
    pub fn to_vec(&self) -> Vec<Value> {
        self.read().clone()
    }

    /// Replace the entire contents.
    pub fn replace_all(&self, items: Vec<Value>) {
        *self.write() = items;
    }

    /// Structured clone: recursively copies nested lists so the result
    /// shares no storage with `self`.
    pub fn deep_copy(&self) -> List {
        List::from_vec(self.read().iter().map(Value::deep_copy).collect())
    }

    /// `true` when both handles point at the same storage.
    pub fn same_identity(&self, other: &List) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Run `f` over a read-locked view of the items without copying.
    pub fn with_items<R>(&self, f: impl FnOnce(&[Value]) -> R) -> R {
        f(&self.read())
    }

    /// Sort the list in place with Snap!'s default ordering
    /// (numeric when both sides are numeric, else textual).
    pub fn sort(&self) {
        self.write().sort_by(Value::snap_cmp);
    }
}

/// Stable sort by `cmp`, which is [`Value::snap_cmp`] on each item's
/// key (or a cached form of it). MapReduce's shuffles sort keys with
/// this.
///
/// `snap_cmp` is not transitive across its two rules: NaN compares equal
/// to every number, and numbers compare numerically with each other but
/// textually with text, so `9 < 10`, `"10" < "5a"` and `"5a" < "9"`. The
/// standard library's sorts may panic on such a comparator. This
/// bottom-up merge sort never does: on a total preorder it returns what
/// `slice::sort_by` would (a stable sort's result is unique), and
/// otherwise some permutation of `items`.
pub fn snap_sort_by<T>(items: Vec<T>, cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    let len = items.len();
    let mut order: Vec<usize> = (0..len).collect();
    let mut merged = order.clone();
    let mut width = 1;
    while width < len {
        for start in (0..len).step_by(2 * width) {
            let mid = (start + width).min(len);
            let end = (start + 2 * width).min(len);
            let (mut left, mut right) = (start, mid);
            for slot in &mut merged[start..end] {
                // The left run wins ties: that is what keeps it stable.
                let take_right = right < end
                    && (left >= mid || cmp(&items[order[right]], &items[order[left]]).is_lt());
                if take_right {
                    *slot = order[right];
                    right += 1;
                } else {
                    *slot = order[left];
                    left += 1;
                }
            }
        }
        std::mem::swap(&mut order, &mut merged);
        width *= 2;
    }
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("merging permutes the indices"))
        .collect()
}

impl fmt::Debug for List {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.read().iter()).finish()
    }
}

impl PartialEq for List {
    fn eq(&self, other: &Self) -> bool {
        if self.same_identity(other) {
            return true;
        }
        let a = self.read();
        let b = other.read();
        *a == *b
    }
}

impl FromIterator<Value> for List {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        List::from_vec(iter.into_iter().collect())
    }
}

/// A first-class psnap value.
#[derive(Clone, Default)]
pub enum Value {
    /// The value of an empty slot / a reporter that reported nothing.
    #[default]
    Nothing,
    /// IEEE-754 double, like every Snap! number.
    Number(f64),
    /// A piece of text.
    Text(String),
    /// A boolean.
    Bool(bool),
    /// A first-class shared list.
    List(List),
    /// A first-class procedure (gray ring).
    Ring(Arc<Ring>),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Convenience constructor for a list value from items.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(List::from_vec(items))
    }

    /// Convenience constructor for a list of numbers.
    pub fn number_list<I: IntoIterator<Item = f64>>(items: I) -> Value {
        Value::List(items.into_iter().map(Value::Number).collect())
    }

    /// `true` when this is [`Value::Nothing`].
    pub fn is_nothing(&self) -> bool {
        matches!(self, Value::Nothing)
    }

    /// Coerce to a number the way Snap! arithmetic blocks do:
    /// numbers pass through, numeric text parses, booleans map to 1/0,
    /// everything else (including unparsable text) is 0.
    pub fn to_number(&self) -> f64 {
        match self {
            Value::Number(n) => *n,
            Value::Text(s) => s.trim().parse::<f64>().unwrap_or(0.0),
            Value::Bool(b) => f64::from(*b),
            _ => 0.0,
        }
    }

    /// Coerce to a boolean: booleans pass through, `"true"`/`"false"`
    /// text parses (case-insensitively), non-zero numbers are true,
    /// everything else is false.
    pub fn to_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Number(n) => *n != 0.0,
            Value::Text(s) => s.eq_ignore_ascii_case("true"),
            _ => false,
        }
    }

    /// Borrow the list payload, if this value is a list.
    pub fn as_list(&self) -> Option<&List> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Borrow the ring payload, if this value is a ring.
    pub fn as_ring(&self) -> Option<&Arc<Ring>> {
        match self {
            Value::Ring(r) => Some(r),
            _ => None,
        }
    }

    /// Render a number the way Snap! displays it: integral values print
    /// without a decimal point.
    pub fn format_number(n: f64) -> String {
        if n.fract() == 0.0 && n.abs() < 1e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    /// Structured clone (recursive copy of nested lists). This is what a
    /// value undergoes when posted to a worker, mirroring the structured
    /// clone of `postMessage` in HTML5 Web Workers.
    pub fn deep_copy(&self) -> Value {
        match self {
            Value::List(l) => Value::List(l.deep_copy()),
            other => other.clone(),
        }
    }

    /// Snap!'s `=` block: loose equality. Numbers and numeric text compare
    /// numerically; text compares case-insensitively; lists compare
    /// element-wise loosely.
    pub fn loose_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Nothing, Nothing) => true,
            (Number(a), Number(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Text(a), Text(b)) => {
                if let (Ok(x), Ok(y)) = (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
                    x == y
                } else {
                    a.eq_ignore_ascii_case(b)
                }
            }
            (Number(a), Text(t)) | (Text(t), Number(a)) => {
                t.trim().parse::<f64>().map(|x| x == *a).unwrap_or(false)
            }
            (Bool(b), v) | (v, Bool(b)) => *b == v.to_bool(),
            (List(a), List(b)) => {
                a.same_identity(b) || {
                    let av = a.to_vec();
                    let bv = b.to_vec();
                    av.len() == bv.len() && av.iter().zip(&bv).all(|(x, y)| x.loose_eq(y))
                }
            }
            (Ring(a), Ring(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The number [`Value::snap_cmp`] compares this value as: numbers,
    /// numeric text (trimmed) and booleans have one; everything else
    /// compares as text.
    pub fn snap_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Text(s) => s.trim().parse::<f64>().ok(),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Ordering used by `<`/`>` blocks and list sorting: numeric when both
    /// sides coerce to numbers, otherwise case-insensitive textual.
    pub fn snap_cmp(&self, other: &Value) -> Ordering {
        match (self.snap_number(), other.snap_number()) {
            (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
            _ => self
                .to_display_string()
                .to_ascii_lowercase()
                .cmp(&other.to_display_string().to_ascii_lowercase()),
        }
    }

    /// The string a `say` bubble or a watcher would show.
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Nothing => String::new(),
            Value::Number(n) => Value::format_number(*n),
            Value::Text(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::List(l) => {
                let items: Vec<String> = l.to_vec().iter().map(Value::to_display_string).collect();
                format!("[{}]", items.join(", "))
            }
            Value::Ring(r) => format!("<ring {}>", r.describe()),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nothing => write!(f, "Nothing"),
            Value::Number(n) => write!(f, "Number({n})"),
            Value::Text(s) => write!(f, "Text({s:?})"),
            Value::Bool(b) => write!(f, "Bool({b})"),
            Value::List(l) => write!(f, "List({l:?})"),
            Value::Ring(r) => write!(f, "Ring({})", r.describe()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display_string())
    }
}

impl PartialEq for Value {
    /// Strict structural equality (used by tests); the `=` block uses
    /// [`Value::loose_eq`] instead.
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Nothing, Nothing) => true,
            (Number(a), Number(b)) => a == b,
            (Text(a), Text(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (List(a), List(b)) => a == b,
            (Ring(a), Ring(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::Number(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::list(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_one_indexed() {
        let l = List::from_vec(vec![1.into(), 2.into(), 3.into()]);
        assert_eq!(l.item(1), Some(Value::Number(1.0)));
        assert_eq!(l.item(3), Some(Value::Number(3.0)));
        assert_eq!(l.item(0), None);
        assert_eq!(l.item(4), None);
    }

    #[test]
    fn list_has_reference_semantics() {
        let a = List::from_vec(vec![1.into()]);
        let b = a.clone();
        b.add(2.into());
        assert_eq!(a.len(), 2);
        assert!(a.same_identity(&b));
    }

    #[test]
    fn deep_copy_shares_nothing() {
        let inner = List::from_vec(vec![1.into()]);
        let outer = List::from_vec(vec![Value::List(inner.clone())]);
        let copy = outer.deep_copy();
        inner.add(2.into());
        let copied_inner = copy.item(1).unwrap();
        assert_eq!(copied_inner.as_list().unwrap().len(), 1);
    }

    #[test]
    fn insert_and_delete_are_one_based() {
        let l = List::from_vec(vec![1.into(), 3.into()]);
        l.insert(2, 2.into());
        assert_eq!(l.to_vec(), vec![1.into(), 2.into(), 3.into()]);
        assert_eq!(l.delete(1), Some(Value::Number(1.0)));
        assert_eq!(l.to_vec(), vec![2.into(), 3.into()]);
        assert_eq!(l.delete(99), None);
    }

    #[test]
    fn insert_past_end_appends() {
        let l = List::from_vec(vec![1.into()]);
        l.insert(100, 2.into());
        assert_eq!(l.to_vec(), vec![1.into(), 2.into()]);
    }

    #[test]
    fn loose_equality_coerces() {
        assert!(Value::text("5").loose_eq(&Value::Number(5.0)));
        assert!(Value::text("Hello").loose_eq(&Value::text("hello")));
        assert!(!Value::text("hello").loose_eq(&Value::Number(0.0)));
        assert!(Value::Bool(true).loose_eq(&Value::Number(1.0)));
    }

    #[test]
    fn loose_equality_on_lists_is_elementwise() {
        let a = Value::list(vec!["5".into(), "x".into()]);
        let b = Value::list(vec![5.into(), "X".into()]);
        assert!(a.loose_eq(&b));
        let c = Value::list(vec![5.into()]);
        assert!(!a.loose_eq(&c));
    }

    #[test]
    fn number_formatting_matches_snap() {
        assert_eq!(Value::format_number(30.0), "30");
        assert_eq!(Value::format_number(1.5), "1.5");
        assert_eq!(Value::Number(70.0).to_display_string(), "70");
    }

    #[test]
    fn to_number_coercions() {
        assert_eq!(Value::text(" 42 ").to_number(), 42.0);
        assert_eq!(Value::text("nope").to_number(), 0.0);
        assert_eq!(Value::Bool(true).to_number(), 1.0);
        assert_eq!(Value::Nothing.to_number(), 0.0);
    }

    #[test]
    fn snap_cmp_sorts_numbers_then_text() {
        let mut v = [
            Value::text("banana"),
            Value::Number(10.0),
            Value::Number(2.0),
            Value::text("Apple"),
        ];
        v.sort_by(Value::snap_cmp);
        assert_eq!(v[0], Value::Number(2.0));
        assert_eq!(v[1], Value::Number(10.0));
        assert_eq!(v[2], Value::text("Apple"));
        assert_eq!(v[3], Value::text("banana"));
    }

    #[test]
    fn contains_uses_loose_equality() {
        let l = List::from_vec(vec!["Apple".into()]);
        assert!(l.contains(&Value::text("apple")));
        assert!(!l.contains(&Value::text("pear")));
    }

    #[test]
    fn snap_sort_matches_the_standard_sort_and_survives_snap_cmp() {
        // On a total preorder: the standard stable sort's result, ties in
        // input order.
        let pairs: Vec<(i32, usize)> = (0..200).map(|i| ((i * 37) % 11, i as usize)).collect();
        let mut want = pairs.clone();
        want.sort_by_key(|p| p.0);
        assert_eq!(snap_sort_by(pairs, |a, b| a.0.cmp(&b.0)), want);
        // On snap_cmp over NaN and mixed numbers and text, which the
        // standard sorts may panic on: a permutation, not a panic.
        let keys: Vec<Value> = (0..300)
            .map(|i| match i % 5 {
                0 => Value::Number(f64::NAN),
                1 => Value::Number((i % 13) as f64),
                2 => Value::text(format!("{}a", i % 7)),
                3 => Value::Bool(i % 2 == 0),
                _ => Value::text(" 3 "),
            })
            .collect();
        let sorted = snap_sort_by(keys.clone(), Value::snap_cmp);
        assert_eq!(sorted.len(), keys.len());
        for key in &keys {
            let count = |vs: &[Value]| {
                vs.iter()
                    .filter(|v| v.to_display_string() == key.to_display_string())
                    .count()
            };
            assert_eq!(count(&sorted), count(&keys));
        }
    }

    #[test]
    fn sort_is_numeric_for_numbers() {
        let l = List::from_vec(vec![10.into(), 2.into(), 33.into()]);
        l.sort();
        assert_eq!(l.to_vec(), vec![2.into(), 10.into(), 33.into()]);
    }
}
