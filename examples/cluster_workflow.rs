//! The supercomputer workflow (paper §6.3, Fig. 17).
//!
//! Blocks → OpenMP code mapping → compile & link → generated `#SBATCH`
//! submission script → simulated batch queue → collect results.
//!
//! ```sh
//! cargo run --release --example cluster_workflow
//! cargo run --release --example cluster_workflow -- --serve-metrics
//! ```
//!
//! With `--serve-metrics`, a `parallelMap` of `(( ) × 10)` over 4096
//! numbers keeps re-running on the worker pool while live `/metrics`,
//! `/report.json`, and `/profile` are served (see
//! `examples/util/cli.rs`); `--trace <path>` writes a Chrome trace on
//! exit.

use snap_core::build::{BatchRequest, BatchScheduler, BuildPipeline, JobSpec};
use snap_core::codegen::openmp::{averaging_reducer, climate_mapper, emit_mapreduce_openmp};
use snap_core::data::{generate_noaa, NoaaConfig};
use snap_core::prelude::*;
use std::sync::Arc;

#[path = "util/cli.rs"]
mod cli;

fn main() {
    let opts = cli::TraceOpts::from_args();
    // ---- Fig. 17: the full pipeline against a busy simulated cluster --
    println!("=== blocks -> OpenMP -> compile -> batch queue -> results ===");
    let dataset = generate_noaa(&NoaaConfig {
        stations: 8,
        years: 4,
        readings_per_year: 12,
        ..NoaaConfig::default()
    });
    let program = emit_mapreduce_openmp(
        &climate_mapper(),
        &averaging_reducer(),
        &dataset.station_temp_pairs(),
    )
    .expect("climate rings are recognizable");

    let dir = std::env::temp_dir().join("psnap-cluster-example");
    let pipeline = BuildPipeline::new(&dir).expect("build dir");

    let mut cluster = BatchScheduler::new(16);
    // Fill the machine with other people's jobs, like a real Monday.
    for i in 0..6 {
        cluster.submit(JobSpec {
            name: format!("someone-elses-job-{i}"),
            nodes: 8,
            walltime: 12,
            runtime: 8,
        });
    }
    cluster.tick();

    if pipeline.has_compiler() {
        let report = snap_core::build::run_on_cluster(
            &pipeline,
            &mut cluster,
            &program,
            &BatchRequest {
                name: "climate-mapreduce".into(),
                nodes: 4,
                threads_per_node: 8,
                walltime: 30,
            },
        )
        .expect("workflow runs");
        println!("generated submission script:");
        for line in report.script.lines() {
            println!("    {line}");
        }
        println!(
            "queued {} tick(s) behind the backlog; final state {:?}",
            report.queue_wait, report.state
        );
        for (key, value) in &report.results {
            println!("collected: {key} = {value:.3} C");
        }
        println!(
            "cluster utilization over the run: {:.0}%",
            cluster.utilization() * 100.0
        );
    } else {
        println!("(no C compiler on this machine; pipeline step skipped)");
    }

    let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
    opts.serve_and_rerun(|| {
        let items: Vec<Value> = (0..4096).map(|n| Value::Number(n as f64)).collect();
        let out = snap_core::parallel::parallel_map(ring.clone(), items, 4).expect("rerun");
        assert_eq!(out.len(), 4096);
    });
    opts.finish();
}
