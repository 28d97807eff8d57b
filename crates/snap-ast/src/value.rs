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
//!
//! A [`List`] stores its items in one of two forms behind the same
//! handle, as Snap!'s own `List` (lists.js) keeps an arrayed and a linked
//! form behind one interface: boxed [`Value`]s, or plain `f64`s when
//! every item is a number. The form is fixed where a list is built
//! ([`List::from_vec`] picks the numeric form for an all-number vector),
//! a number written into a numeric list keeps it numeric, and the first
//! non-number written promotes it to the boxed form for good. No block
//! can tell the forms apart; the parallel blocks read a numeric list's
//! `f64`s straight through [`List::with_view`], so numbers stay unboxed
//! from `numbers from` to the list `parallelMap` reports.

use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::ring::Ring;

/// A list's storage: one of the two forms (see the module docs).
#[derive(Clone)]
enum Items {
    /// Boxed values of any kind.
    Values(Vec<Value>),
    /// Numbers only, unboxed.
    Numbers(Vec<f64>),
}

impl Items {
    /// The storage of `items`: numeric when every item is a number. One
    /// pass, which stops at the first item that is not.
    fn of(items: Vec<Value>) -> Items {
        if !matches!(items.first(), None | Some(Value::Number(_))) {
            return Items::Values(items);
        }
        let mut numbers = Vec::with_capacity(items.len());
        for item in &items {
            match item {
                Value::Number(n) => numbers.push(*n),
                _ => return Items::Values(items),
            }
        }
        Items::Numbers(numbers)
    }

    fn view(&self) -> ListView<'_> {
        match self {
            Items::Values(items) => ListView::Values(items),
            Items::Numbers(numbers) => ListView::Numbers(numbers),
        }
    }

    /// The boxed items, promoting numeric storage in place. Only a write
    /// of a non-number promotes (see [`Items::store`]).
    fn promote(&mut self) -> &mut Vec<Value> {
        if let Items::Numbers(numbers) = self {
            *self = Items::Values(box_numbers(numbers));
        }
        match self {
            Items::Values(items) => items,
            Items::Numbers(_) => unreachable!("promoted above"),
        }
    }

    /// Store `value` through `numeric` while the storage is numeric and
    /// `value` is a number, else through `boxed` after promoting.
    fn store<R>(
        &mut self,
        value: Value,
        numeric: impl FnOnce(&mut Vec<f64>, f64) -> R,
        boxed: impl FnOnce(&mut Vec<Value>, Value) -> R,
    ) -> R {
        match (self, value) {
            (Items::Numbers(numbers), Value::Number(n)) => numeric(numbers, n),
            (items, value) => boxed(items.promote(), value),
        }
    }
}

/// `numbers` as boxed values.
fn box_numbers(numbers: &[f64]) -> Vec<Value> {
    numbers.iter().map(|&n| Value::Number(n)).collect()
}

/// A borrowed view of a list's items, in the form the list stores them.
#[derive(Debug, Clone, Copy)]
pub enum ListView<'a> {
    /// Boxed items.
    Values(&'a [Value]),
    /// Numeric items, unboxed: item `i` is `Value::Number(numbers[i])`.
    Numbers(&'a [f64]),
}

impl ListView<'_> {
    /// Number of items.
    pub fn len(&self) -> usize {
        match self {
            ListView::Values(items) => items.len(),
            ListView::Numbers(numbers) => numbers.len(),
        }
    }

    /// `true` when the view has no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The items as values, boxing numbers one at a time.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        let (values, numbers): (&[Value], &[f64]) = match *self {
            ListView::Values(items) => (items, &[]),
            ListView::Numbers(numbers) => (&[], numbers),
        };
        values
            .iter()
            .cloned()
            .chain(numbers.iter().map(|&n| Value::Number(n)))
    }
}

/// Shared, mutable, 1-indexed list — Snap!'s first-class list type.
///
/// Cloning a `List` clones the *handle*, not the storage; use
/// [`List::deep_copy`] for a structural copy.
#[derive(Clone)]
pub struct List(Arc<RwLock<Items>>);

impl Default for List {
    fn default() -> Self {
        List::new()
    }
}

impl List {
    /// Create an empty list.
    pub fn new() -> Self {
        List::from_numbers(Vec::new())
    }

    /// Read-lock the storage. A poisoned lock (a panic while some other
    /// thread held the guard) is recovered: list operations never leave
    /// the storage in a torn state, so the data is still coherent.
    fn read(&self) -> RwLockReadGuard<'_, Items> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-lock the storage, recovering from poison (see [`List::read`]).
    fn write(&self) -> RwLockWriteGuard<'_, Items> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn from_items(items: Items) -> Self {
        List(Arc::new(RwLock::new(items)))
    }

    /// Create a list from existing items. A vector of numbers only is
    /// stored in the numeric form.
    pub fn from_vec(items: Vec<Value>) -> Self {
        List::from_items(Items::of(items))
    }

    /// Create a list of numbers, stored unboxed.
    pub fn from_numbers(numbers: Vec<f64>) -> Self {
        List::from_items(Items::Numbers(numbers))
    }

    /// Create a list of `items` in the boxed form, whatever they are: for
    /// tests that run the same items in both forms.
    #[doc(hidden)]
    pub fn boxed(items: Vec<Value>) -> Self {
        List::from_items(Items::Values(items))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.read().view().len()
    }

    /// `true` when the list has no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `item <index> of <list>` — **1-based**, like every Snap! list block.
    /// Returns `None` when the index is out of range.
    pub fn item(&self, index: usize) -> Option<Value> {
        let i = index.checked_sub(1)?;
        match &*self.read() {
            Items::Values(items) => items.get(i).cloned(),
            Items::Numbers(numbers) => numbers.get(i).map(|&n| Value::Number(n)),
        }
    }

    /// `replace item <index> of <list> with <value>` (1-based).
    /// Returns `false` when the index is out of range.
    pub fn set_item(&self, index: usize, value: Value) -> bool {
        let mut guard = self.write();
        let Some(i) = index.checked_sub(1).filter(|&i| i < guard.view().len()) else {
            return false;
        };
        guard.store(value, |numbers, n| numbers[i] = n, |items, v| items[i] = v);
        true
    }

    /// `add <value> to <list>` — append.
    pub fn add(&self, value: Value) {
        self.write().store(value, Vec::push, Vec::push);
    }

    /// `insert <value> at <index> of <list>` (1-based). Index `len+1`
    /// appends; anything larger is clamped to append, matching Snap!'s
    /// forgiving semantics.
    pub fn insert(&self, index: usize, value: Value) {
        let mut guard = self.write();
        let i = index.saturating_sub(1).min(guard.view().len());
        guard.store(
            value,
            |numbers, n| numbers.insert(i, n),
            |items, v| items.insert(i, v),
        );
    }

    /// `delete <index> of <list>` (1-based). Returns the removed item.
    pub fn delete(&self, index: usize) -> Option<Value> {
        let i = index.checked_sub(1)?;
        let mut guard = self.write();
        if i >= guard.view().len() {
            return None;
        }
        Some(match &mut *guard {
            Items::Values(items) => items.remove(i),
            Items::Numbers(numbers) => Value::Number(numbers.remove(i)),
        })
    }

    /// Remove every item. The list keeps its form.
    pub fn clear(&self) {
        match &mut *self.write() {
            Items::Values(items) => items.clear(),
            Items::Numbers(numbers) => numbers.clear(),
        }
    }

    /// `<list> contains <value>` using Snap!'s loose equality.
    pub fn contains(&self, value: &Value) -> bool {
        match &*self.read() {
            Items::Values(items) => items.iter().any(|v| v.loose_eq(value)),
            Items::Numbers(numbers) => numbers.iter().any(|&n| Value::Number(n).loose_eq(value)),
        }
    }

    /// Snapshot of the current items (shallow copies: nested lists still
    /// share storage). A numeric list is boxed into the snapshot and
    /// stays numeric.
    pub fn to_vec(&self) -> Vec<Value> {
        match &*self.read() {
            Items::Values(items) => items.clone(),
            Items::Numbers(numbers) => box_numbers(numbers),
        }
    }

    /// The items of a list nothing else holds, without copying them;
    /// a [`List::to_vec`] snapshot when another handle shares it.
    pub fn into_vec(self) -> Vec<Value> {
        match Arc::try_unwrap(self.0) {
            Ok(lock) => match lock.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Items::Values(items) => items,
                Items::Numbers(numbers) => box_numbers(&numbers),
            },
            Err(shared) => List(shared).to_vec(),
        }
    }

    /// Replace the entire contents. A numeric list stays numeric when
    /// every new item is a number; a boxed list stays boxed.
    pub fn replace_all(&self, items: Vec<Value>) {
        let mut guard = self.write();
        *guard = match &*guard {
            Items::Numbers(_) => Items::of(items),
            Items::Values(_) => Items::Values(items),
        };
    }

    /// Structured clone: recursively copies nested lists so the result
    /// shares no storage with `self`.
    pub fn deep_copy(&self) -> List {
        match &*self.read() {
            Items::Values(items) => List::from_vec(items.iter().map(Value::deep_copy).collect()),
            Items::Numbers(numbers) => List::from_numbers(numbers.clone()),
        }
    }

    /// `true` when both handles point at the same storage.
    pub fn same_identity(&self, other: &List) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Run `f` over a read-locked view of the items as boxed values. A
    /// numeric list is boxed into a temporary for `f` and stays numeric.
    pub fn with_items<R>(&self, f: impl FnOnce(&[Value]) -> R) -> R {
        match &*self.read() {
            Items::Values(items) => f(items),
            Items::Numbers(numbers) => f(&box_numbers(numbers)),
        }
    }

    /// Run `f` over the items in the form the list stores them, under
    /// the list's read lock and without copying. A write to this list
    /// from inside `f`, or from another thread while `f` runs, waits
    /// for `f` to return.
    pub fn with_view<R>(&self, f: impl FnOnce(ListView<'_>) -> R) -> R {
        f(self.read().view())
    }

    /// `true` when the list stores its items unboxed (see the module
    /// docs); no block can observe this.
    #[doc(hidden)]
    pub fn is_numeric(&self) -> bool {
        matches!(*self.read(), Items::Numbers(_))
    }

    /// Sort the list in place with Snap!'s default ordering
    /// (numeric when both sides are numeric, else textual), stably. A
    /// numeric list is sorted as the boxed values it stands for and
    /// stays numeric.
    pub fn sort(&self) {
        match &mut *self.write() {
            Items::Values(items) => items.sort_by(Value::snap_cmp),
            Items::Numbers(numbers) => {
                let mut boxed = box_numbers(numbers);
                boxed.sort_by(Value::snap_cmp);
                for (n, v) in numbers.iter_mut().zip(&boxed) {
                    *n = v.to_number();
                }
            }
        }
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
        f.debug_list().entries(self.read().view().iter()).finish()
    }
}

impl PartialEq for List {
    /// Item by item, whatever form either list is in.
    fn eq(&self, other: &Self) -> bool {
        if self.same_identity(other) {
            return true;
        }
        let (a, b) = (self.read(), other.read());
        match (a.view(), b.view()) {
            (ListView::Values(x), ListView::Values(y)) => x == y,
            (ListView::Numbers(x), ListView::Numbers(y)) => x == y,
            (x, y) => x.len() == y.len() && x.iter().eq(y.iter()),
        }
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
        Value::List(List::from_numbers(items.into_iter().collect()))
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

    /// The bits of a list's items, NaN and the sign of zero included.
    fn bits(list: &List) -> Vec<u64> {
        list.to_vec()
            .iter()
            .map(|v| v.to_number().to_bits())
            .collect()
    }

    #[test]
    fn lists_of_numbers_only_are_built_numeric() {
        assert!(List::new().is_numeric());
        assert!(List::default().is_numeric());
        assert!(List::from_vec(vec![1.into(), f64::NAN.into(), (-0.0).into()]).is_numeric());
        assert!(List::from_numbers(vec![2.5]).is_numeric());
        assert!(Value::number_list([1.0, 2.0])
            .as_list()
            .unwrap()
            .is_numeric());
        assert!((1..=3).map(Value::from).collect::<List>().is_numeric());
        // One item that is not a number, wherever it is, keeps the list
        // boxed; so do numeric text and nested lists.
        assert!(!List::from_vec(vec!["a".into(), 1.into()]).is_numeric());
        assert!(!List::from_vec(vec![1.into(), 2.into(), "3".into()]).is_numeric());
        assert!(!List::from_vec(vec![1.into(), Value::number_list([2.0])]).is_numeric());
        assert!(!List::from_vec(vec![Value::Nothing]).is_numeric());
        assert!(!List::boxed(vec![1.into()]).is_numeric());
    }

    #[test]
    fn number_writes_keep_a_list_numeric() {
        let l = List::from_numbers(vec![1.0, 2.0]);
        l.add(3.into());
        l.insert(1, 0.into());
        assert!(l.set_item(2, (-1.0).into()));
        assert_eq!(l.delete(4), Some(Value::Number(3.0)));
        assert!(l.is_numeric());
        assert_eq!(l.to_vec(), vec![0.into(), (-1.0).into(), 2.into()]);
    }

    #[test]
    fn the_first_non_number_write_boxes_a_list_for_good() {
        let l = List::from_numbers(vec![1.0, 2.0]);
        l.add("x".into());
        assert!(!l.is_numeric());
        assert_eq!(l.to_vec(), vec![1.into(), 2.into(), "x".into()]);
        // Deleting the text leaves numbers only, still boxed.
        l.delete(3);
        assert!(!l.is_numeric());
        l.add(4.into());
        assert!(!l.is_numeric());
        assert_eq!(l.to_vec(), vec![1.into(), 2.into(), 4.into()]);
    }

    #[test]
    fn each_kind_of_write_promotes_in_place() {
        let inserted = List::from_numbers(vec![1.0, 3.0]);
        inserted.insert(2, Value::Bool(true));
        assert_eq!(inserted.to_vec(), vec![1.into(), true.into(), 3.into()]);
        let replaced = List::from_numbers(vec![1.0, 3.0]);
        assert!(replaced.set_item(1, "one".into()));
        assert_eq!(replaced.to_vec(), vec!["one".into(), 3.into()]);
        let nested = List::from_numbers(vec![1.0]);
        nested.add(Value::number_list([2.0]));
        assert_eq!(nested.item(2), Some(Value::number_list([2.0])));
        for l in [inserted, replaced, nested] {
            assert!(!l.is_numeric());
        }
    }

    #[test]
    fn an_out_of_range_replace_neither_writes_nor_promotes() {
        let l = List::from_numbers(vec![1.0, 2.0]);
        assert!(!l.set_item(0, "x".into()));
        assert!(!l.set_item(3, "x".into()));
        assert!(l.is_numeric());
        assert_eq!(bits(&l), vec![1.0f64.to_bits(), 2.0f64.to_bits()]);
    }

    #[test]
    fn delete_reports_the_number_and_ignores_bad_indices() {
        let l = List::from_numbers(vec![-0.0, 7.0]);
        assert_eq!(l.delete(0), None);
        assert_eq!(l.delete(3), None);
        let first = l.delete(1).unwrap();
        assert_eq!(first.to_number().to_bits(), (-0.0f64).to_bits());
        assert_eq!(l.to_vec(), vec![7.into()]);
        assert!(l.is_numeric());
    }

    #[test]
    fn clear_keeps_either_form() {
        let numeric = List::from_numbers(vec![1.0]);
        let boxed = List::from_vec(vec!["a".into()]);
        numeric.clear();
        boxed.clear();
        assert!(numeric.is_empty() && boxed.is_empty());
        assert!(numeric.is_numeric());
        assert!(!boxed.is_numeric());
        assert_eq!(numeric, boxed);
    }

    #[test]
    fn replace_all_keeps_a_boxed_list_boxed() {
        let numeric = List::from_numbers(vec![1.0]);
        numeric.replace_all(vec![5.into(), 6.into()]);
        assert!(numeric.is_numeric());
        numeric.replace_all(vec![5.into(), "six".into()]);
        assert!(!numeric.is_numeric());
        let boxed = List::from_vec(vec!["a".into()]);
        boxed.replace_all(vec![5.into(), 6.into()]);
        assert!(!boxed.is_numeric());
        assert_eq!(boxed.to_vec(), vec![5.into(), 6.into()]);
    }

    #[test]
    fn deep_copy_of_a_numeric_list_is_numeric_and_unshared() {
        let l = List::from_numbers(vec![1.0, f64::NAN]);
        let copy = l.deep_copy();
        assert!(copy.is_numeric());
        assert!(!copy.same_identity(&l));
        assert_eq!(bits(&copy), bits(&l));
        copy.set_item(1, "changed".into());
        assert!(l.is_numeric());
        assert_eq!(l.item(1), Some(Value::Number(1.0)));
        // A boxed list of numbers only comes back numeric: the copy is
        // built fresh, and no block can tell the forms apart.
        assert!(List::boxed(vec![1.into()]).deep_copy().is_numeric());
    }

    #[test]
    fn reading_a_list_never_changes_its_form() {
        let l = List::from_numbers(vec![3.0, 1.0]);
        let _ = l.to_vec();
        let _ = l.with_items(<[Value]>::len);
        let _ = l.item(1);
        let _ = l.contains(&"x".into());
        let _ = format!("{l:?} {}", Value::List(l.clone()));
        assert!(l.is_numeric());
    }

    #[test]
    fn into_vec_of_a_shared_list_leaves_the_other_handle_intact() {
        let l = List::from_numbers(vec![1.0, 2.0]);
        let other = l.clone();
        assert_eq!(l.into_vec(), vec![1.into(), 2.into()]);
        assert_eq!(other.len(), 2);
        assert!(other.is_numeric());
        // Unshared, either form hands its items over.
        assert_eq!(List::from_numbers(vec![4.0]).into_vec(), vec![4.into()]);
        assert_eq!(List::boxed(vec!["a".into()]).into_vec(), vec!["a".into()]);
    }

    #[test]
    fn equality_is_item_by_item_across_forms() {
        let numeric = List::from_numbers(vec![1.0, 0.0]);
        let boxed = List::boxed(vec![1.into(), (-0.0).into()]);
        // −0 == 0, as for the numbers themselves.
        assert_eq!(numeric, boxed);
        assert_eq!(boxed, numeric);
        assert_ne!(numeric, List::boxed(vec![1.into()]));
        assert_ne!(numeric, List::boxed(vec![1.into(), "0".into()]));
        // NaN is unequal to itself in both forms, except through one
        // handle, which is the same list.
        let nan = List::from_numbers(vec![f64::NAN]);
        assert_ne!(nan, List::boxed(vec![f64::NAN.into()]));
        assert_ne!(nan, List::from_numbers(vec![f64::NAN]));
        assert_eq!(nan, nan.clone());
    }

    #[test]
    fn contains_coerces_in_the_numeric_form() {
        let l = List::from_numbers(vec![5.0, -0.0, 1.0]);
        assert!(l.contains(&Value::text(" 5 ")));
        assert!(l.contains(&Value::text("0")));
        assert!(l.contains(&Value::Number(0.0)));
        assert!(l.contains(&Value::Bool(true)));
        assert!(!l.contains(&Value::text("five")));
        assert!(!List::from_numbers(vec![f64::NAN]).contains(&Value::Number(f64::NAN)));
    }

    #[test]
    fn numeric_sort_matches_the_boxed_sort_bit_for_bit() {
        let cases: [&[f64]; 4] = [
            &[3.0, -0.0, 0.0, -2.5, 0.0, -0.0],
            &[f64::NAN, 2.0, 1.0, f64::NAN, -1.0],
            &[f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e-300],
            &[],
        ];
        for numbers in cases {
            let numeric = List::from_numbers(numbers.to_vec());
            let boxed = List::boxed(numbers.iter().map(|&n| Value::Number(n)).collect());
            numeric.sort();
            boxed.sort();
            assert!(numeric.is_numeric());
            assert_eq!(bits(&numeric), bits(&boxed), "{numbers:?}");
        }
    }

    #[test]
    fn with_view_shows_the_stored_form() {
        let numeric = List::from_numbers(vec![1.0, 2.0]);
        numeric.with_view(|view| {
            assert!(matches!(view, ListView::Numbers(ns) if ns == [1.0, 2.0]));
            assert_eq!(view.len(), 2);
            assert!(!view.is_empty());
            assert_eq!(view.iter().collect::<Vec<_>>(), vec![1.into(), 2.into()]);
        });
        let boxed = List::from_vec(vec!["a".into()]);
        boxed.with_view(|view| {
            assert!(matches!(view, ListView::Values([Value::Text(_)])));
            assert_eq!(view.iter().collect::<Vec<_>>(), vec!["a".into()]);
        });
        List::new().with_view(|view| assert!(view.is_empty()));
    }

    #[test]
    fn a_write_from_another_thread_waits_for_a_reader() {
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        let l = List::from_numbers(vec![1.0]);
        let writer = l.clone();
        let written = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&written);
        let (started, wait_start) = std::sync::mpsc::channel();
        let handle = l.with_view(|view| {
            let handle = std::thread::spawn(move || {
                started.send(()).unwrap();
                writer.add("late".into());
                flag.store(true, SeqCst);
            });
            wait_start.recv().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
            // Still numeric and unwritten: the writer waits on this guard.
            assert!(!written.load(SeqCst));
            assert!(matches!(view, ListView::Numbers([_])));
            handle
        });
        handle.join().unwrap();
        assert!(written.load(SeqCst));
        assert_eq!(l.to_vec(), vec![1.into(), "late".into()]);
    }

    #[test]
    fn display_and_debug_do_not_depend_on_the_form() {
        let numbers = [1.5, -0.0, f64::NAN, 1e21];
        let numeric = Value::List(List::from_numbers(numbers.to_vec()));
        let boxed = Value::List(List::boxed(numbers.iter().map(|&n| n.into()).collect()));
        assert_eq!(numeric.to_display_string(), boxed.to_display_string());
        assert_eq!(format!("{numeric:?}"), format!("{boxed:?}"));
        assert_eq!(
            numeric.to_display_string(),
            "[1.5, 0, NaN, 1000000000000000000000]"
        );
    }
}
