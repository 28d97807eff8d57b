//! # snap-parallel — the paper's parallel blocks
//!
//! The primary contribution of *"Parallel Programming with Pictures is a
//! Snap!"*: `parallelMap` (§3.2), `parallelForEach` (§3.3) and
//! `mapReduce` (§3.4), implemented with true parallelism on the
//! `snap-workers` substrate and pluggable into the `snap-vm` runtime via
//! [`WorkerBackend`].
//!
//! ```
//! use std::sync::Arc;
//! use snap_ast::builder::*;
//! use snap_ast::{Ring, Value};
//!
//! // parallelMap (( ) × 10) over [3, 7, 8] with 4 workers
//! let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
//! let out = snap_parallel::parallel_map(
//!     ring,
//!     vec![3.into(), 7.into(), 8.into()],
//!     4,
//! ).unwrap();
//! assert_eq!(out, vec![30.into(), 70.into(), 80.into()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod blocks;
pub mod distributed;
mod keyed;
pub mod shuffle;

pub use backend::{install, install_with, WorkerBackend};
pub use blocks::{
    associative_fold_op, map_reduce, map_reduce_list, map_reduce_with_combine,
    map_reduce_with_options, map_reduce_with_policy, parallel_for_each, parallel_map,
    parallel_map_list, parallel_map_with_options, parallel_map_with_policy, CombinePolicy,
    COMBINE_MIN_PAIRS,
};
pub use distributed::{distributed_map, strong_scaling_sweep, ClusterSpec, DistributedOutcome};
pub use shuffle::{
    combine_pairs, shuffle, shuffle_parallel, shuffle_seq, PARALLEL_SHUFFLE_THRESHOLD,
};
