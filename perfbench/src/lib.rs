//! Whole-program benchmark of the paper's block programs — E2
//! `parallelMap`, E4 word count and E5 climate — with an outside-in,
//! layer-by-layer ledger. See `README.md` in this directory.

pub mod harness;
pub mod ledger;
pub mod traced;
pub mod workload;
