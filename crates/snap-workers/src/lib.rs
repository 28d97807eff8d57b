//! # snap-workers — the Web Worker substrate
//!
//! The paper achieves true parallelism by pairing HTML5 Web Workers with
//! the Parallel.js library (§4.1). This crate is that layer, rebuilt on
//! OS threads:
//!
//! * [`Parallel`] — the Parallel.js-shaped builder API (Listing 1):
//!   results in input order, running on the shared pool.
//! * [`WorkerPool`] / [`executor`] — the persistent pooled execution
//!   engine (our extension): one lazily created process-wide pool and
//!   one chunk loop, in which tasks claim chunks dynamically and write
//!   each chunk's results through its own `&mut` output slice.
//! * [`ring_map`] / [`ring_map_pairs_faulted`] /
//!   [`ring_reduce_groups_faulted`] — apply compiled Snap! rings on
//!   workers with structured-clone isolation,
//!   the analogue of Listing 2's `mappedCode()` → `new Function` →
//!   `p.map(...)` pipeline; [`ring_map_keyed`] runs a `[key, value]`
//!   mapper as flat key and value columns for MapReduce.
//! * [`ExecError`] / [`FaultInjector`] — fault handling ([`fault`]): a
//!   panicked item is reported, not unwound, so the blocks can re-run
//!   its phase sequentially, and deterministic chaos injection tests
//!   that — the recovery a browser provides for free when a Web Worker
//!   dies mid-map.
//!
//! Everything here is deliberately independent of the VM: a worker sees
//! only the compiled ring and the values posted to it, exactly as a Web
//! Worker sees only the function source and the structured-cloned
//! message data.
//!
//! The crate's one `unsafe` block is the lifetime-erased job submission
//! in the executor; every other module forbids `unsafe` code.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod executor;
pub mod fault;
pub mod parallel;
pub mod pool;
pub mod ring_fn;

pub use executor::{
    columnar_chunk_size, global_pool, map_slice_with, try_map_slice_with, ExecMode,
    COLUMNAR_MIN_CHUNK,
};
pub use fault::{install_injector, panic_message, ExecError, FaultEnvError, FaultInjector};
pub use parallel::{default_workers, Parallel};
pub use pool::{PoolClosed, WorkerPool};
pub use ring_fn::{
    ring_map, ring_map_faulted, ring_map_keyed, ring_map_pairs_faulted, ring_map_pairs_view,
    ring_map_view, ring_reduce_groups_faulted, ring_reduce_lists_faulted, KeyColumn, KeyedTally,
    RingMapError, RingMapOptions, COLUMNAR_MIN_ITEMS,
};
