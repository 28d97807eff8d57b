//! The keyed-columnar rung of `mapReduce`.
//!
//! A mapper whose body is `[key, value]` with a numeric value lowers to a
//! `PairProgram` (`snap_ast::bytecode::lower_pair`). On this rung its
//! pairs are never built as lists. [`ring_map_keyed`] runs the program as
//! a key column and an `f64` value column per pool chunk, reading a
//! numeric input list's `f64`s in place. Each chunk interns its keys and,
//! when the reducer is an associative fold, folds its values per key in
//! the same task. The calling thread then merges the chunks' few distinct
//! keys into canonical ids, sorts those, and groups the values by id.
//! Each group's `f64`s move into a numeric list, which is what the
//! reducer receives: no value is ever boxed.
//!
//! The groups are bit-identical to the boxed path's (`ring_map_pairs` →
//! [`crate::combine_pairs`] → [`crate::shuffle`]): in `snap_cmp` order,
//! each under its first key in input order with case preserved, values in
//! input order, and a combined run folds exactly `combine_pairs`'s
//! chunks. That holds because every key column the rung accepts lies in
//! one [`Regime`], where `snap_cmp` is a total order whose `Equal` is the
//! `loose_eq` that grouping uses, or holds a single distinct key. Any
//! other column (mixed regimes, numeric text, booleans, NaN, lists)
//! makes the rung decline, and the call takes the boxed path.

use std::collections::HashMap;

use snap_ast::bytecode::num_binop;
use snap_ast::{BinOp, List, ListView, PureFn, Value};
use snap_trace::well_known as metrics;
use snap_workers::{columnar_chunk_size, ring_map_keyed, ExecError, KeyColumn, RingMapOptions};

use crate::shuffle::CanonKey;

/// Groups as the reducer receives them: each key with its value list.
type Groups = Vec<(Value, List)>;

/// Which of `snap_cmp`'s two comparison rules a key follows. Within one
/// regime `snap_cmp` is a total order and its `Equal` is `loose_eq`;
/// across regimes it is not transitive (see the shuffle's
/// `canon_key_cmp_mirrors_snap_cmp_exactly`), so a column stays in one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// Text that does not parse as a number, compared case-insensitively.
    Text,
    /// Numbers other than NaN, compared numerically (−0 = 0).
    Number,
}

impl Regime {
    /// The regime of `key`, whose canonical form is `canon`; `None` when
    /// it is in neither.
    fn of(key: &Value, canon: &CanonKey) -> Option<Regime> {
        match (key, canon.num) {
            (Value::Text(_), None) => Some(Regime::Text),
            (Value::Number(_), Some(n)) if !n.is_nan() => Some(Regime::Number),
            _ => None,
        }
    }
}

/// A key by identity (exact text or bits), before canonical folding.
#[derive(PartialEq, Eq, Hash)]
enum RawKey<'a> {
    Text(&'a str),
    Number(u64),
    Bool(bool),
    Nothing,
}

impl<'a> RawKey<'a> {
    /// `None` for lists and rings, which never key this rung.
    fn of(key: &'a Value) -> Option<RawKey<'a>> {
        Some(match key {
            Value::Text(s) => RawKey::Text(s),
            Value::Number(n) => RawKey::Number(n.to_bits()),
            Value::Bool(b) => RawKey::Bool(*b),
            Value::Nothing => RawKey::Nothing,
            Value::List(_) | Value::Ring(_) => return None,
        })
    }
}

/// Distinct canonical keys in first-occurrence order, each under the
/// first key that had that canonical form. Meaningful within one regime,
/// where [`CanonKey::cmp_canon`]'s `Equal` is an equivalence.
#[derive(Default)]
struct CanonIndex {
    keys: Vec<(Value, CanonKey)>,
    by_hash: HashMap<u64, Vec<u32>>,
}

impl CanonIndex {
    /// The id of `canon`, added under `key` when it is new.
    fn intern(&mut self, key: Value, canon: CanonKey) -> u32 {
        let slots = self.by_hash.entry(canon.bucket_hash()).or_default();
        let keys = &mut self.keys;
        if let Some(&id) = slots
            .iter()
            .find(|&&id| keys[id as usize].1.cmp_canon(&canon).is_eq())
        {
            return id;
        }
        let id = keys.len() as u32;
        slots.push(id);
        keys.push((key, canon));
        id
    }
}

/// One chunk's key dictionary: raw keys map straight to chunk-local
/// canonical ids, so each distinct raw key pays for its [`CanonKey`]
/// once and every other item costs one hash lookup.
#[derive(Default)]
struct ChunkKeys<'a> {
    raw: HashMap<RawKey<'a>, u32>,
    canon: CanonIndex,
    /// The regime of every key so far; `None` after a first key in
    /// neither regime, which may then be the chunk's only key.
    regime: Option<Regime>,
}

impl<'a> ChunkKeys<'a> {
    /// The canonical id of the key `raw`, materialized by `key` when it
    /// is new; `None` when the key takes the chunk off the rung.
    fn id(&mut self, raw: RawKey<'a>, key: impl FnOnce() -> Value) -> Option<u32> {
        match self.raw.get(&raw) {
            Some(&id) => Some(id),
            None => self.insert(raw, key()),
        }
    }

    #[cold]
    fn insert(&mut self, raw: RawKey<'a>, key: Value) -> Option<u32> {
        let canon = CanonKey::new(&key);
        let regime = Regime::of(&key, &canon);
        if self.raw.is_empty() {
            self.regime = regime;
        } else if regime.is_none() || regime != self.regime {
            return None;
        }
        let id = self.canon.intern(key, canon);
        self.raw.insert(raw, id);
        Some(id)
    }
}

/// What one pool chunk hands the merge.
struct ChunkGroups {
    /// Distinct canonical keys, first occurrence first.
    keys: Vec<(Value, CanonKey)>,
    regime: Option<Regime>,
    /// Per value, its key's index in `keys`. Empty when the values were
    /// folded, one per key in `keys` order, or all belong to one key.
    ids: Vec<u32>,
    values: Vec<f64>,
}

/// Intern one chunk's keys and, under `op`, fold its values per key in
/// input order, seeded with each key's first value as `combine_pairs`
/// does. `None` when the chunk's keys take the call off the rung.
fn fold_chunk(keys: KeyColumn<'_>, values: Vec<f64>, op: Option<BinOp>) -> Option<ChunkGroups> {
    let mut dict = ChunkKeys::default();
    let per_item = op.is_none() && !matches!(keys, KeyColumn::Const(_));
    let mut ids = Vec::with_capacity(if per_item { values.len() } else { 0 });
    let mut partials: Vec<f64> = Vec::new();
    let mut take = |id: u32, value: f64| match op {
        None => ids.push(id),
        Some(_) if id as usize == partials.len() => partials.push(value),
        Some(op) => {
            let acc = &mut partials[id as usize];
            *acc = num_binop(op, *acc, value).expect("associative_fold_op is arithmetic");
        }
    };
    match keys {
        KeyColumn::Const(key) => {
            dict.id(RawKey::of(key)?, || key.clone())?;
            if op.is_some() {
                for &value in &values {
                    take(0, value);
                }
            }
        }
        KeyColumn::Items(items) => {
            for (item, &value) in items.iter().zip(&values) {
                take(dict.id(RawKey::of(item)?, || item.clone())?, value);
            }
        }
        KeyColumn::Numbers(numbers) => {
            for (&key, &value) in numbers.iter().zip(&values) {
                take(
                    dict.id(RawKey::Number(key.to_bits()), || Value::Number(key))?,
                    value,
                );
            }
        }
    }
    let keys = dict.canon.keys;
    if op.is_some() {
        return Some(ChunkGroups {
            keys,
            regime: dict.regime,
            ids: Vec::new(),
            values: partials,
        });
    }
    if keys.len() == 1 {
        ids.clear();
    }
    Some(ChunkGroups {
        keys,
        regime: dict.regime,
        ids,
        values,
    })
}

/// Merge the chunks' keys into canonical ids, sort those in `snap_cmp`
/// order and gather every chunk's values under them, chunk by chunk.
/// `None` when the chunks' regimes disagree, or a key outside both
/// regimes is not the column's single key.
fn merge(chunks: Vec<ChunkGroups>) -> Option<Vec<(Value, Vec<f64>)>> {
    let regime = chunks.first()?.regime;
    if chunks.iter().any(|c| c.regime != regime) {
        return None;
    }
    if regime.is_none() {
        // A key outside both regimes: fine as the column's one key, and
        // only if it equals itself (NaN and "nan" do not).
        let first = &chunks[0].keys[0].0;
        if !first.loose_eq(first) || chunks.iter().any(|c| c.keys[0].0 != *first) {
            return None;
        }
    }
    let mut index = CanonIndex::default();
    let mut located = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let global: Vec<u32> = chunk
            .keys
            .into_iter()
            .map(|(key, canon)| index.intern(key, canon))
            .collect();
        located.push((global, chunk.ids, chunk.values));
    }
    let mut order: Vec<usize> = (0..index.keys.len()).collect();
    order.sort_by(|&a, &b| index.keys[a].1.cmp_canon(&index.keys[b].1));
    let mut slots: Vec<(Value, Vec<f64>)> = index
        .keys
        .into_iter()
        .map(|(key, _)| (key, Vec::new()))
        .collect();
    if let [(_, only)] = slots.as_mut_slice() {
        only.reserve_exact(located.iter().map(|(_, _, values)| values.len()).sum());
    }
    for (global, ids, values) in located {
        if let ([], [only]) = (ids.as_slice(), global.as_slice()) {
            slots[*only as usize].1.extend_from_slice(&values);
        } else if ids.is_empty() {
            for (&id, value) in global.iter().zip(values) {
                slots[id as usize].1.push(value);
            }
        } else {
            for (&local, value) in ids.iter().zip(values) {
                slots[global[local as usize] as usize].1.push(value);
            }
        }
    }
    Some(
        order
            .into_iter()
            .map(|id| std::mem::take(&mut slots[id]))
            .collect(),
    )
}

/// The map phase and the grouping of `mapReduce` on the keyed-columnar
/// rung: `Ok(Some(groups))` ready for the reducer, or `Ok(None)` when the
/// rung does not apply and the call must take the boxed path. `fold` is
/// the reducer's associative operator when map-side combining applies;
/// the chunks are then exactly `combine_pairs`'s, one per worker.
pub(crate) fn map_groups(
    mapper: &PureFn,
    items: ListView<'_>,
    options: &RingMapOptions,
    fold: Option<BinOp>,
) -> Result<Option<Groups>, ExecError> {
    let Some(pair) = mapper.pair_program() else {
        return Ok(None);
    };
    let workers = options.workers.max(1);
    let chunk_len = match fold {
        Some(_) => items.len().div_ceil(workers),
        None => columnar_chunk_size(items.len(), workers),
    };
    let Some((chunks, tally)) = ring_map_keyed(pair, items, chunk_len, options, |keys, values| {
        fold_chunk(keys, values, fold)
    })?
    else {
        return Ok(None);
    };
    let _span = snap_trace::span!("keyed.group", "items" => items.len());
    let Some(groups) = chunks
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .and_then(merge)
    else {
        return Ok(None);
    };
    // Counted only now: a declined map is counted by the boxed path
    // that runs it again.
    tally.count();
    let pairs: usize = groups.iter().map(|(_, values)| values.len()).sum();
    metrics::SHUFFLE_PAIRS.add(pairs as u64);
    if fold.is_some() {
        metrics::SHUFFLE_COMBINE_RUNS.incr();
        metrics::SHUFFLE_PAIRS_COMBINED.add((items.len() - pairs) as u64);
    }
    Ok(Some(
        groups
            .into_iter()
            .map(|(key, values)| (key, List::from_numbers(values)))
            .collect(),
    ))
}
