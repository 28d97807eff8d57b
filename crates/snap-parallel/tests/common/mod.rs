//! The reference more than one suite compares `mapReduce` with.

use std::sync::Arc;

use snap_ast::{EvalError, Ring, Value};
use snap_parallel::{associative_fold_op, combine_pairs, shuffle, COMBINE_MIN_PAIRS};
use snap_workers::{ring_map_pairs_faulted, ring_reduce_groups_faulted, ExecMode, RingMapOptions};

/// `mapReduce` composed from its public phases, as perfbench's traced
/// replay composes them: the boxed path, which builds every pair as a
/// list (`ring_map_pairs_faulted`), combines when the block would
/// combine (`combine_pairs`), shuffles (`shuffle`) and reduces
/// (`ring_reduce_groups_faulted`).
pub fn public_phases(
    mapper: Arc<Ring>,
    reducer: Arc<Ring>,
    items: &[Value],
    workers: usize,
) -> Result<Vec<Value>, EvalError> {
    let options = RingMapOptions { workers };
    let pairs = ring_map_pairs_faulted(mapper, items, options)?;
    let pairs = match associative_fold_op(&reducer) {
        Some(op) if pairs.len() >= COMBINE_MIN_PAIRS => {
            combine_pairs(pairs, op, workers, ExecMode::Pooled)
        }
        _ => pairs,
    };
    Ok(ring_reduce_groups_faulted(
        reducer,
        shuffle(pairs),
        options,
    )?)
}
