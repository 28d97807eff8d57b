//! The shuffle between MapReduce's phases.
//!
//! "The elements of the intermediate result are sorted by the value of
//! the key in between the map function and the reduce function, as
//! required by the semantics of MapReduce" (paper §3.4, footnote 6).
//!
//! Small inputs use the original sequential stable sort. Large inputs
//! are shuffled in parallel: pairs are hash-partitioned across workers
//! by a canonical key (chosen so `snap_cmp`-equal keys always share a
//! bucket), each bucket is stable-sorted with [`Value::snap_cmp`] on the
//! worker pool, and the sorted buckets are merged. Because equal keys
//! can never sit in different buckets, the merge reproduces the
//! sequential stable sort exactly, and the grouping pass is unchanged.

use snap_ast::pure::{eval_binop, group_sorted, sort_and_group};
use snap_ast::value::snap_sort_by;
use snap_ast::{BinOp, Value};
use snap_trace::well_known as metrics;
use snap_workers::{default_workers, map_slice_with, ExecMode, Strategy};

use std::collections::{BinaryHeap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Below this many pairs the partition/merge overhead outweighs the
/// parallel sort.
pub const PARALLEL_SHUFFLE_THRESHOLD: usize = 2048;

/// A pair tagged with its pre-computed canonical key.
type KeyedPair = (CanonKey, (Value, Value));

/// Sort `[key, value]` pairs by key (stable, so mapper output order is
/// preserved within a key) and group equal keys. Dispatches to the
/// parallel path for inputs of [`PARALLEL_SHUFFLE_THRESHOLD`] pairs or
/// more — with at least two buckets, so the threshold contract holds
/// even on single-core hosts (where `default_workers()` is 1 and the
/// pool simply oversubscribes).
pub fn shuffle(pairs: Vec<(Value, Value)>) -> Vec<(Value, Vec<Value>)> {
    if pairs.len() >= PARALLEL_SHUFFLE_THRESHOLD {
        shuffle_parallel(pairs, default_workers().max(2), ExecMode::Pooled)
    } else {
        shuffle_seq(pairs)
    }
}

/// The sequential shuffle: the one sort-and-group every sequential
/// `mapReduce` runs ([`sort_and_group`]), counted.
pub fn shuffle_seq(pairs: Vec<(Value, Value)>) -> Vec<(Value, Vec<Value>)> {
    metrics::SHUFFLE_SEQ_RUNS.incr();
    metrics::SHUFFLE_PAIRS.add(pairs.len() as u64);
    let _span = snap_trace::span!("shuffle.seq", "pairs" => pairs.len());
    sort_and_group(pairs)
}

/// The parallel shuffle, with explicit worker count and execution mode.
pub fn shuffle_parallel(
    pairs: Vec<(Value, Value)>,
    workers: usize,
    exec: ExecMode,
) -> Vec<(Value, Vec<Value>)> {
    let workers = workers.max(1);
    if workers == 1 || pairs.len() <= 1 {
        return shuffle_seq(pairs);
    }
    metrics::SHUFFLE_PARALLEL_RUNS.incr();
    metrics::SHUFFLE_PAIRS.add(pairs.len() as u64);
    // The innermost span open at entry — the map_reduce (or parallelMap)
    // that produced these pairs. The merge span links to it explicitly:
    // by merge time the map-phase spans are closed, so the link is the
    // durable causal edge from the merge back to its originating call.
    let origin = snap_trace::current_span_id();
    let _span = snap_trace::span!("shuffle.parallel", "pairs" => pairs.len());

    // Compute each pair's canonical key exactly once. The partition, the
    // bucket sorts, and the merge all compare/hash this cached digest —
    // previously every comparison re-derived the numeric coercion and
    // lowercased display string from the raw key.
    let bucket_count = workers;
    let mut buckets: Vec<Vec<KeyedPair>> = (0..bucket_count).map(|_| Vec::new()).collect();
    {
        let _span = snap_trace::span!("shuffle.partition", workers);
        for pair in pairs {
            let canon = CanonKey::new(&pair.0);
            let slot = (canon.bucket_hash() % bucket_count as u64) as usize;
            buckets[slot].push((canon, pair));
        }
    }
    for bucket in &buckets {
        metrics::SHUFFLE_PARTITION_SIZE.record(bucket.len() as u64);
    }

    // Stable-sort each bucket on the pool. Buckets are disjoint; the
    // per-bucket mutex is uncontended and only satisfies the shared-ref
    // signature of the parallel map.
    let buckets: Vec<Mutex<Vec<KeyedPair>>> = buckets.into_iter().map(Mutex::new).collect();
    {
        let _span = snap_trace::span!("shuffle.sort", workers);
        map_slice_with(&buckets, workers, Strategy::Dynamic, exec, |bucket| {
            let mut bucket = bucket.lock().unwrap_or_else(PoisonError::into_inner);
            *bucket = snap_sort_by(std::mem::take(&mut *bucket), |a, b| a.0.cmp_canon(&b.0));
        });
    }

    // K-way merge through a binary heap keyed by the cached canonical
    // key: each emitted pair costs O(log buckets) instead of the old
    // O(buckets) linear leader scan. Heads from different buckets are
    // never canon-equal (equal keys share a bucket), but the heap still
    // tie-breaks on the (impossible for well-behaved keys) tie by
    // preferring the earliest bucket — the same order the linear scan
    // produced — so the merge reproduces the stable sort exactly.
    let merge_started = Instant::now();
    let _merge_span =
        snap_trace::span_linked_with("shuffle.merge", "buckets", buckets.len() as u64, origin);
    let buckets: Vec<Vec<KeyedPair>> = buckets
        .into_iter()
        .map(|bucket| bucket.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let total: usize = buckets.iter().map(Vec::len).sum();
    let mut sorted = Vec::with_capacity(total);
    let mut tails: Vec<std::vec::IntoIter<KeyedPair>> =
        buckets.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<MergeHead> = tails
        .iter_mut()
        .enumerate()
        .filter_map(|(bucket, tail)| {
            tail.next().map(|(canon, pair)| MergeHead {
                canon,
                pair,
                bucket,
            })
        })
        .collect();
    while let Some(MergeHead { pair, bucket, .. }) = heap.pop() {
        sorted.push(pair);
        if let Some((canon, pair)) = tails[bucket].next() {
            heap.push(MergeHead {
                canon,
                pair,
                bucket,
            });
        }
    }
    metrics::SHUFFLE_MERGE_NS.record(merge_started.elapsed().as_nanos() as u64);
    group_sorted(sorted)
}

/// One bucket's current head pair inside the merge heap. Ordered so the
/// heap's maximum is the *smallest* `(key, bucket)` — `BinaryHeap` is a
/// max-heap, so the comparison is reversed — with the bucket index as
/// tie-break to preserve the earliest-bucket preference. Comparison uses
/// the pre-computed [`CanonKey`], never the raw key.
struct MergeHead {
    canon: CanonKey,
    pair: (Value, Value),
    bucket: usize,
}

impl Ord for MergeHead {
    fn cmp(&self, other: &MergeHead) -> std::cmp::Ordering {
        other
            .canon
            .cmp_canon(&self.canon)
            .then_with(|| other.bucket.cmp(&self.bucket))
    }
}

impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &MergeHead) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &MergeHead) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for MergeHead {}

/// A key's canonical comparison form, derived once per pair.
///
/// `Value::snap_cmp` re-derives the numeric coercion (trim + parse for
/// text) and the lowercased display string on *every* comparison — an
/// O(n log n) sort re-pays that per-key cost O(log n) times. `CanonKey`
/// pays it once and the sort/merge compare the cached digest. The
/// keyed-columnar rung of `mapReduce` interns its keys through it too.
pub(crate) struct CanonKey {
    /// The numeric coercion, when the key has one (the same rule
    /// `snap_cmp` uses: numbers, numeric text, booleans).
    pub(crate) num: Option<f64>,
    /// Lowercased display string — `snap_cmp`'s textual branch. Always
    /// stored, even for numeric keys: a numeric key still compares
    /// *textually* against a non-numeric one, using its original
    /// display form (e.g. `Text(" 5 ")` displays as `" 5 "`).
    text: String,
}

impl CanonKey {
    pub(crate) fn new(key: &Value) -> CanonKey {
        CanonKey {
            num: key.snap_number(),
            text: key.to_display_string().to_ascii_lowercase(),
        }
    }

    /// Mirrors [`Value::snap_cmp`] exactly: numeric when both sides
    /// coerce, case-insensitive textual otherwise.
    pub(crate) fn cmp_canon(&self, other: &CanonKey) -> std::cmp::Ordering {
        match (self.num, other.num) {
            (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal),
            _ => self.text.cmp(&other.text),
        }
    }

    /// Hash such that `cmp_canon == Equal` implies equal hashes: numeric
    /// keys hash their normalized value (`-0.0` folded to `0.0`, all
    /// NaNs coincide); all others hash the lowercased display string.
    pub(crate) fn bucket_hash(&self) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        match self.num {
            Some(n) => {
                let bits = if n == 0.0 {
                    0u64
                } else if n.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    n.to_bits()
                };
                (1u8, bits).hash(&mut hasher);
            }
            None => {
                (2u8, &self.text).hash(&mut hasher);
            }
        }
        hasher.finish()
    }
}

/// Hash a raw key's canonical form (see [`CanonKey::bucket_hash`]).
/// `snap_cmp`-equal keys hash alike; used by the combiner's key index.
fn canonical_key_hash(key: &Value) -> u64 {
    CanonKey::new(key).bucket_hash()
}

/// Map-side combiner: partially reduce `[key, value]` pairs by key with
/// the associative operator `op` *before* the shuffle, in parallel over
/// per-worker chunks. Output holds at most `workers × distinct-keys`
/// pairs, preserving first-occurrence pair order within each chunk — so
/// a subsequent [`shuffle`]'s stable sort groups keys in exactly the
/// order the uncombined pairs would have produced.
///
/// Each key's first value is kept as-is (matching `combine`'s
/// single-element semantics) and later values are folded in emission
/// order with [`eval_binop`], so for an associative, commutative `op`
/// the reduce phase sees the same fold it would have computed itself —
/// word count's integer `+` is bit-exact; float reassociation across
/// chunk boundaries is inherent to map-side combining.
pub fn combine_pairs(
    pairs: Vec<(Value, Value)>,
    op: BinOp,
    workers: usize,
    exec: ExecMode,
) -> Vec<(Value, Value)> {
    let workers = workers.max(1);
    let before = pairs.len();
    if before == 0 {
        return pairs;
    }
    let _span = snap_trace::span!("shuffle.combine", "pairs" => before);
    let chunk_len = before.div_ceil(workers).max(1);
    let chunks: Vec<&[(Value, Value)]> = pairs.chunks(chunk_len).collect();
    let combined = map_slice_with(&chunks, workers, Strategy::Dynamic, exec, |chunk| {
        combine_chunk(chunk, op)
    });
    let out: Vec<(Value, Value)> = combined.into_iter().flatten().collect();
    metrics::SHUFFLE_COMBINE_RUNS.incr();
    metrics::SHUFFLE_PAIRS_COMBINED.add((before - out.len()) as u64);
    out
}

/// Reduce one chunk's pairs by key, preserving first-occurrence order.
/// Keys match by `loose_eq` — the same predicate [`group_sorted`] uses —
/// looked up through a canonical-hash index instead of a linear scan.
fn combine_chunk(chunk: &[(Value, Value)], op: BinOp) -> Vec<(Value, Value)> {
    let mut order: Vec<(Value, Value)> = Vec::new();
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    for (key, value) in chunk {
        let slots = index.entry(canonical_key_hash(key)).or_default();
        match slots.iter().find(|&&i| order[i].0.loose_eq(key)) {
            Some(&i) => {
                let folded = eval_binop(op, &order[i].1, value);
                order[i].1 = folded;
            }
            None => {
                slots.push(order.len());
                order.push((key.clone(), value.clone()));
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_sorts_and_groups() {
        let pairs = vec![
            ("b".into(), 1.into()),
            ("a".into(), 2.into()),
            ("b".into(), 3.into()),
            ("a".into(), 4.into()),
        ];
        let groups = shuffle(pairs);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, Value::text("a"));
        assert_eq!(groups[0].1, vec![2.into(), 4.into()]); // stable order
        assert_eq!(groups[1].0, Value::text("b"));
        assert_eq!(groups[1].1, vec![1.into(), 3.into()]);
    }

    #[test]
    fn numeric_keys_sort_numerically() {
        let pairs = vec![(10.into(), "x".into()), (2.into(), "y".into())];
        let groups = shuffle(pairs);
        assert_eq!(groups[0].0, Value::Number(2.0));
    }

    #[test]
    fn keys_group_loosely() {
        // "The" and "the" are the same key under Snap! equality.
        let pairs = vec![("The".into(), 1.into()), ("the".into(), 1.into())];
        let groups = shuffle(pairs);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1.len(), 2);
    }

    #[test]
    fn empty_input_yields_no_groups() {
        assert!(shuffle(Vec::new()).is_empty());
    }

    /// Deterministic mixed-key workload: numeric text, numbers, and
    /// case-varied words, with plenty of collisions.
    fn mixed_pairs(n: usize) -> Vec<(Value, Value)> {
        let words = ["alpha", "Beta", "beta", "GAMMA", "delta"];
        (0..n)
            .map(|i| {
                let key = match i % 4 {
                    0 => Value::Number((i % 17) as f64),
                    1 => Value::text(format!("{}", i % 13)), // numeric text
                    2 => Value::text(words[i % words.len()]),
                    _ => Value::text(words[(i * 7) % words.len()].to_uppercase()),
                };
                (key, Value::Number(i as f64))
            })
            .collect()
    }

    #[test]
    fn parallel_shuffle_matches_sequential_exactly() {
        let pairs = mixed_pairs(5000);
        let seq = shuffle_seq(pairs.clone());
        for workers in [2, 3, 4, 8] {
            for exec in [ExecMode::Pooled, ExecMode::SpawnPerCall] {
                let par = shuffle_parallel(pairs.clone(), workers, exec);
                assert_eq!(par, seq, "workers={workers} exec={exec:?}");
            }
        }
    }

    #[test]
    fn auto_dispatch_crosses_threshold_consistently() {
        let pairs = mixed_pairs(PARALLEL_SHUFFLE_THRESHOLD + 100);
        assert_eq!(shuffle(pairs.clone()), shuffle_seq(pairs));
    }

    #[test]
    fn negative_zero_and_positive_zero_share_a_group() {
        let mut pairs = mixed_pairs(4096);
        pairs.push((Value::Number(0.0), Value::text("pos")));
        pairs.push((Value::Number(-0.0), Value::text("neg")));
        let par = shuffle_parallel(pairs.clone(), 4, ExecMode::Pooled);
        assert_eq!(par, shuffle_seq(pairs));
    }

    #[test]
    fn canon_key_cmp_mirrors_snap_cmp_exactly() {
        // Every ordering decision the sort/merge makes on the cached
        // digest must equal what snap_cmp would have said on the raw
        // keys — checked over a cross product of the awkward shapes.
        let keys: Vec<Value> = vec![
            Value::Number(2.0),
            Value::Number(10.0),
            Value::Number(0.0),
            Value::Number(-0.0),
            Value::Number(-3.5),
            Value::Number(f64::NAN),
            Value::text("2"),
            Value::text(" 10 "),
            Value::text("alpha"),
            Value::text("ALPHA"),
            Value::text("beta"),
            Value::text(""),
            Value::text("true"),
            Value::Bool(true),
            Value::Bool(false),
            Value::Nothing,
            Value::list(vec![1.into(), 2.into()]),
        ];
        for a in &keys {
            let ca = CanonKey::new(a);
            for b in &keys {
                let cb = CanonKey::new(b);
                assert_eq!(
                    ca.cmp_canon(&cb),
                    a.snap_cmp(b),
                    "CanonKey diverged from snap_cmp for {a:?} vs {b:?}"
                );
                // snap_cmp equality is not transitive across its two
                // branches — NaN is "equal" to every number (partial_cmp
                // falls back to Equal), and a numeric key can compare
                // textually-equal to a non-numeric one (Bool(true) vs
                // Text("true")) while being numerically-equal to others.
                // No hash can honor a non-equivalence, so the bucket
                // invariant is asserted where it is coherent: same-regime
                // pairs without NaN. (Cross-regime stragglers still sort
                // adjacent and group correctly after the merge.)
                let nan_edge = matches!(ca.num, Some(n) if n.is_nan())
                    != matches!(cb.num, Some(n) if n.is_nan());
                let same_regime = ca.num.is_some() == cb.num.is_some();
                if ca.cmp_canon(&cb) == std::cmp::Ordering::Equal && same_regime && !nan_edge {
                    assert_eq!(
                        ca.bucket_hash(),
                        cb.bucket_hash(),
                        "equal keys must share a bucket: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn combine_pairs_folds_keys_per_chunk() {
        // One worker → one chunk → each key appears exactly once, first
        // value kept as the fold seed, later values added.
        let pairs: Vec<(Value, Value)> = vec![
            ("the".into(), 1.into()),
            ("fox".into(), 1.into()),
            ("the".into(), 1.into()),
            ("The".into(), 1.into()), // loose_eq-same key, case-varied
        ];
        let out = combine_pairs(pairs, BinOp::Add, 1, ExecMode::Pooled);
        assert_eq!(
            out,
            vec![("the".into(), 3.into()), ("fox".into(), 1.into())],
            "first-occurrence key and order must be preserved"
        );
    }

    #[test]
    fn combine_pairs_single_value_kept_uncoerced() {
        // combine over a one-element list reports the element itself, so
        // a lone pair must pass through without numeric coercion.
        let pairs: Vec<(Value, Value)> = vec![("k".into(), "seven".into())];
        let out = combine_pairs(pairs, BinOp::Add, 4, ExecMode::Pooled);
        assert_eq!(out, vec![("k".into(), "seven".into())]);
    }

    #[test]
    fn combined_shuffle_reduces_to_same_groups() {
        // End to end: combining before the shuffle must leave group keys
        // and per-group sums identical — only the pair count shrinks.
        let pairs = mixed_pairs(5000);
        let plain = shuffle(pairs.clone());
        let combined = shuffle(combine_pairs(pairs, BinOp::Add, 4, ExecMode::Pooled));
        assert_eq!(plain.len(), combined.len(), "same group count");
        for ((k1, v1), (k2, v2)) in plain.iter().zip(&combined) {
            assert_eq!(k1, k2, "group keys must match in order");
            let sum = |vs: &[Value]| vs.iter().map(Value::to_number).sum::<f64>();
            assert_eq!(sum(v1), sum(v2), "per-key totals must match for {k1:?}");
            assert!(v2.len() <= v1.len());
        }
    }
}
