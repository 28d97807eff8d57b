//! # snap-build — from blocks to batch jobs
//!
//! The paper's §6.3 workflow automation, built out: a Makefile-shaped
//! [`BuildPipeline`] (write generated sources → compile through the
//! codegen harness → run → collect output) and a [`BatchScheduler`]
//! simulator standing in for a supercomputer's queueing system (submit,
//! wait, run, collect — with an EASY-backfill queue and walltime
//! enforcement).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod pipeline;
pub mod workflow;

pub use batch::{BatchScheduler, Job, JobId, JobSpec, JobState};
pub use pipeline::{parse_kv_output, BuildError, BuildPipeline};
pub use workflow::{batch_script, run_on_cluster, BatchRequest, WorkflowReport};
