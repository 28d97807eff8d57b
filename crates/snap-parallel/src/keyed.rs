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
//! The groups are bit-identical to the boxed path's (`ring_map_pairs_view` →
//! [`crate::combine_pairs`] → [`crate::shuffle`]): in `snap_cmp` order,
//! each under its first key in input order with case preserved, values in
//! input order, and a combined run folds exactly `combine_pairs`'s
//! chunks. That holds because every key column the rung accepts lies in
//! one [`Regime`], where `snap_cmp` is a total order whose `Equal` is the
//! `loose_eq` that grouping uses, or holds a single distinct key. Any
//! other column (mixed regimes, numeric text, booleans, NaN, lists)
//! makes the rung decline, and the call takes the boxed path. The first
//! key a call interns sets the regime for all its chunks, so a chunk in
//! another regime declines at its own first key.
//!
//! A chunk's dictionary looks each item's raw key up in a hash map keyed
//! by [`KeyHasher`], a multiply-rotate hash that reads 8 bytes at a time
//! (a word is a multiply or two, where SipHash runs its rounds). Its seed
//! is drawn once per process from [`RandomState`]; ids never depend on
//! it, since they are handed out in first-occurrence order.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use snap_ast::bytecode::num_binop;
use snap_ast::{BinOp, List, ListView, PureFn, Value};
use snap_trace::well_known as metrics;
use snap_workers::{columnar_chunk_size, ring_map_keyed, ExecError, KeyColumn};

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

/// The hasher of the rung's key dictionaries: each word of input is
/// xored into the state, which is then multiplied by an odd constant, so
/// every input bit reaches the state's high bits; `finish` rotates those
/// to the low bits a table indexes by.
struct KeyHasher(u64);

impl KeyHasher {
    /// 2^64 divided by the golden ratio, rounded to odd.
    const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::MULTIPLIER);
    }
}

impl Hasher for KeyHasher {
    /// Whole words 8 bytes at a time, then the last 0–7 bytes and the
    /// length as one more word. The tail is read as two overlapping
    /// 4-byte loads (or three single bytes), not byte by byte, so a short
    /// word costs no loop whose exit depends on its length.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.mix(u64::from_le_bytes(*word));
        }
        let n = tail.len();
        let last = match n {
            4.. => {
                let lo = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
                let hi = u32::from_le_bytes(tail[n - 4..].try_into().expect("4 bytes"));
                u64::from(lo) | u64::from(hi) << 32
            }
            1.. => u64::from(tail[0]) | u64::from(tail[n / 2]) << 8 | u64::from(tail[n - 1]) << 16,
            0 => 0,
        };
        self.mix(last ^ (bytes.len() as u64).rotate_right(8));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`KeyHasher`]s that start from the process's seed.
#[derive(Clone, Copy)]
struct KeyHash(u64);

impl Default for KeyHash {
    fn default() -> KeyHash {
        static SEED: OnceLock<u64> = OnceLock::new();
        KeyHash(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.0)
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
    by_hash: HashMap<u64, Vec<u32>, KeyHash>,
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

/// The regime of a call's first interned key, which all its chunks share
/// (`None` inside for a key in neither regime).
type CallRegime = OnceLock<Option<Regime>>;

/// One chunk's key dictionary: raw keys map straight to chunk-local
/// canonical ids, so each distinct raw key pays for its [`CanonKey`]
/// once and every other item costs one hash lookup.
struct ChunkKeys<'a, 'c> {
    raw: HashMap<RawKey<'a>, u32, KeyHash>,
    canon: CanonIndex,
    /// The regime of every key so far; `None` after a first key in
    /// neither regime, which may then be the chunk's only key.
    regime: Option<Regime>,
    call: &'c CallRegime,
}

impl<'a, 'c> ChunkKeys<'a, 'c> {
    fn new(call: &'c CallRegime) -> Self {
        ChunkKeys {
            raw: HashMap::default(),
            canon: CanonIndex::default(),
            regime: None,
            call,
        }
    }

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
            if *self.call.get_or_init(|| regime) != regime {
                return None;
            }
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
/// does. `None` when the chunk's keys take the call off the rung,
/// including a first key outside the regime `call` holds. A re-run of the
/// chunk gives the same answer, since `call` is set once.
fn fold_chunk(
    keys: KeyColumn<'_>,
    values: Vec<f64>,
    op: Option<BinOp>,
    call: &CallRegime,
) -> Option<ChunkGroups> {
    let mut dict = ChunkKeys::new(call);
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
/// order and gather every chunk's values under them, chunk by chunk. The
/// chunks share one regime ([`fold_chunk`] declines the others). `None`
/// when a key outside both regimes is not the column's single key.
fn merge(chunks: Vec<ChunkGroups>) -> Option<Vec<(Value, Vec<f64>)>> {
    let regime = chunks.first()?.regime;
    debug_assert!(chunks.iter().all(|c| c.regime == regime));
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
    workers: usize,
    fold: Option<BinOp>,
) -> Result<Option<Groups>, ExecError> {
    let Some(pair) = mapper.pair_program() else {
        return Ok(None);
    };
    let workers = workers.max(1);
    let chunk_len = match fold {
        Some(_) => items.len().div_ceil(workers),
        None => columnar_chunk_size(items.len(), workers),
    };
    let call = CallRegime::new();
    let Some((chunks, tally)) = ring_map_keyed(pair, items, chunk_len, workers, |keys, values| {
        fold_chunk(keys, values, fold, &call)
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

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use super::*;

    /// 20,000 distinct keys of one regime, each several times in a
    /// scrambled order: texts, some also in capitals (one canonical key,
    /// two raw keys), or numbers with both zeros (likewise).
    fn keys(texts: bool) -> Vec<Value> {
        let distinct: Vec<Value> = (0..20_000)
            .map(|i| match (texts, i) {
                (true, i) if i % 7 == 0 => Value::text(format!("Key{i}")),
                (true, i) => Value::text(format!("key{i}")),
                (false, 0) => Value::Number(-0.0),
                (false, i) => Value::Number(i as f64 * 0.75 - 7_000.0),
            })
            .collect();
        let mut items: Vec<Value> = (0..60_000)
            .map(|j| distinct[(j * 7_919) % distinct.len()].clone())
            .collect();
        // The same canonical keys under a second raw key, late.
        items.extend((0..20_000).step_by(7).map(|i| match texts {
            true => Value::text(format!("key{i}")),
            false if i == 0 => Value::Number(0.0),
            false => distinct[i].clone(),
        }));
        items
    }

    #[test]
    fn distinct_keys_get_first_occurrence_ids_and_group_as_the_shuffle_does() {
        for texts in [true, false] {
            let items = keys(texts);
            let call = CallRegime::new();
            let mut dict = ChunkKeys::new(&call);
            // Canonical forms in this test: lowercase text, or the
            // number's bits with −0 read as 0.
            let canonical = |key: &Value| match key {
                Value::Text(s) => s.to_lowercase(),
                other => (other.to_number() + 0.0).to_bits().to_string(),
            };
            let mut first: HashMap<String, usize> = HashMap::new();
            for item in &items {
                let id = dict
                    .id(RawKey::of(item).unwrap(), || item.clone())
                    .expect("one regime");
                let next = first.len();
                let want = *first.entry(canonical(item)).or_insert(next);
                assert_eq!(id as usize, want, "{item:?}");
            }
            assert_eq!(dict.canon.keys.len(), 20_000);
            let raw_keys = if texts {
                20_000 + 20_000 / 7 + 1
            } else {
                20_001
            };
            assert_eq!(dict.raw.len(), raw_keys);

            // The same items, as three chunks, group as the shuffle does.
            let values: Vec<f64> = (0..items.len()).map(|i| i as f64).collect();
            let call = CallRegime::new();
            let chunks: Vec<ChunkGroups> = (0..items.len())
                .step_by(30_000)
                .map(|start| {
                    let end = (start + 30_000).min(items.len());
                    let keys = match texts {
                        true => KeyColumn::Items(&items[start..end]),
                        false => KeyColumn::Numbers(Cow::Owned(
                            items[start..end].iter().map(Value::to_number).collect(),
                        )),
                    };
                    fold_chunk(keys, values[start..end].to_vec(), None, &call).unwrap()
                })
                .collect();
            let grouped = merge(chunks).unwrap();
            let pairs = items
                .iter()
                .zip(&values)
                .map(|(k, &v)| (k.clone(), Value::Number(v)))
                .collect();
            let shuffled = crate::shuffle(pairs);
            assert_eq!(grouped.len(), shuffled.len());
            for ((key, values), (want_key, want_values)) in grouped.iter().zip(&shuffled) {
                assert_eq!(format!("{key:?}"), format!("{want_key:?}"));
                let want: Vec<f64> = want_values.iter().map(Value::to_number).collect();
                assert_eq!(values, &want, "{key:?}");
            }
        }
    }

    #[test]
    fn a_chunk_whose_first_key_is_in_another_regime_declines_at_once() {
        let call = CallRegime::new();
        let words = [Value::text("fox"), Value::text("dog")];
        assert!(fold_chunk(KeyColumn::Items(&words), vec![1.0; 2], None, &call).is_some());
        let numbers = KeyColumn::Numbers(Cow::Owned(vec![1.0, 2.0]));
        assert!(fold_chunk(numbers, vec![1.0; 2], None, &call).is_none());
        // The regime is the call's: a fresh call takes numbers.
        let numbers = KeyColumn::Numbers(Cow::Owned(vec![1.0, 2.0]));
        assert!(fold_chunk(numbers, vec![1.0; 2], None, &CallRegime::new()).is_some());
    }

    #[test]
    fn the_key_hasher_reads_every_byte_and_the_length() {
        let hash = |bytes: &[u8]| {
            let mut h = KeyHash(7).build_hasher();
            h.write(bytes);
            h.finish()
        };
        let words: [&[u8]; 9] = [
            b"",
            b"a",
            b"ab",
            b"abb",
            b"abcd",
            b"abcde",
            b"abcdefg",
            b"abcdefgh",
            b"abcdefghi",
        ];
        for (i, a) in words.iter().enumerate() {
            for b in &words[i + 1..] {
                assert_ne!(hash(a), hash(b), "{a:?} {b:?}");
            }
        }
        assert_ne!(hash(b"abcdefgh-1"), hash(b"abcdefgh-2"));
        assert_eq!(hash(b"the"), hash(b"the"));
    }
}
