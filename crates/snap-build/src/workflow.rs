//! The full scientific workflow of Fig. 17:
//! blocks → code mapping → compile & link → schedule → collect results.
//!
//! §6.3 sketches what Snap! needs to become an HPC front-end: automated
//! compilation ("the Makefile"), *"an outline of the batch submission
//! script, if not its entirety"*, job submission, queue monitoring, and
//! result collection. This module implements that loop end to end:
//! local execution through [`crate::BuildPipeline`], and cluster
//! execution against the [`crate::BatchScheduler`] simulator (the
//! documented stand-in for a real supercomputer).

use std::fmt::Write as _;

use snap_codegen::OpenMpProgram;

use crate::batch::{BatchScheduler, JobId, JobSpec, JobState};
use crate::pipeline::{BuildError, BuildPipeline};

/// Resource request for a cluster run.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Job name (shows up in the queue).
    pub name: String,
    /// Nodes to request.
    pub nodes: usize,
    /// OpenMP threads per node.
    pub threads_per_node: usize,
    /// Walltime limit, scheduler ticks.
    pub walltime: u64,
}

impl Default for BatchRequest {
    fn default() -> Self {
        BatchRequest {
            name: "psnap-mapreduce".to_owned(),
            nodes: 1,
            threads_per_node: 4,
            walltime: 60,
        }
    }
}

/// Generate the batch submission script the paper says Snap! should
/// outline (§6.3). Slurm-flavoured, since that is what the paper's
/// university clusters run.
pub fn batch_script(request: &BatchRequest, binary: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "#!/bin/bash");
    let _ = writeln!(s, "#SBATCH --job-name={}", request.name);
    let _ = writeln!(s, "#SBATCH --nodes={}", request.nodes);
    let _ = writeln!(s, "#SBATCH --ntasks-per-node=1");
    let _ = writeln!(s, "#SBATCH --cpus-per-task={}", request.threads_per_node);
    let _ = writeln!(s, "#SBATCH --time={}", format_walltime(request.walltime));
    let _ = writeln!(s, "#SBATCH --output={}.%j.out", request.name);
    let _ = writeln!(s);
    let _ = writeln!(s, "export OMP_NUM_THREADS={}", request.threads_per_node);
    let _ = writeln!(s, "srun ./{binary}");
    s
}

fn format_walltime(ticks: u64) -> String {
    // One scheduler tick ≙ one minute in the generated script.
    let hours = ticks / 60;
    let minutes = ticks % 60;
    format!("{hours:02}:{minutes:02}:00")
}

/// What happened to a workflow run.
#[derive(Debug)]
pub struct WorkflowReport {
    /// The generated submission script.
    pub script: String,
    /// The simulated job's id.
    pub job_id: JobId,
    /// Ticks spent waiting in the queue.
    pub queue_wait: u64,
    /// Final job state.
    pub state: JobState,
    /// Parsed `key value` results (empty unless completed).
    pub results: Vec<(String, f64)>,
}

/// Drive a generated MapReduce program through the whole Fig. 17 loop:
/// write sources, compile, generate the submission script, submit to the
/// (simulated) cluster, tick the queue until the job finishes, then run
/// the real binary locally to collect its output — the local run stands
/// in for the compute the simulated job performed.
pub fn run_on_cluster(
    pipeline: &BuildPipeline,
    scheduler: &mut BatchScheduler,
    program: &OpenMpProgram,
    request: &BatchRequest,
) -> Result<WorkflowReport, BuildError> {
    // 1. Code mapping output → build directory, compile + link.
    let binary = pipeline.compile_mapreduce(program)?;

    // 2. Batch submission script.
    let script = batch_script(request, "mapreduce");
    pipeline.write_source("submit.sh", &script)?;

    // 3. Submit and monitor until the queue drains this job.
    //    Estimated runtime: proportional to nodes' share of the walltime
    //    (the simulator only needs *a* runtime; correctness of results
    //    comes from the real binary below).
    let job_id = scheduler
        .submit(JobSpec {
            name: request.name.clone(),
            nodes: request.nodes,
            walltime: request.walltime,
            runtime: (request.walltime / 2).max(1),
        })
        .ok_or_else(|| BuildError::RunFailed {
            code: None,
            stderr: "job rejected: requested more nodes than the cluster has".into(),
        })?;
    let mut guard = 0u64;
    while scheduler
        .job(job_id)
        .map(|j| matches!(j.state, JobState::Pending | JobState::Running))
        .unwrap_or(false)
    {
        scheduler.tick();
        guard += 1;
        if guard > 1_000_000 {
            break;
        }
    }
    let job = scheduler.job(job_id).expect("submitted job exists");
    let state = job.state;
    let queue_wait = job.wait_time().unwrap_or(0);

    // 4. Collect results (the local execution stands in for the
    //    cluster's).
    let results = if state == JobState::Completed {
        crate::pipeline::parse_kv_output(&pipeline.run(&binary, &[])?)
    } else {
        Vec::new()
    };

    Ok(WorkflowReport {
        script,
        job_id,
        queue_wait,
        state,
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_codegen::openmp::{averaging_reducer, climate_mapper, emit_mapreduce_openmp};

    #[test]
    fn batch_script_has_the_slurm_outline() {
        let script = batch_script(
            &BatchRequest {
                name: "climate".into(),
                nodes: 2,
                threads_per_node: 8,
                walltime: 90,
            },
            "mapreduce",
        );
        for fragment in [
            "#!/bin/bash",
            "#SBATCH --job-name=climate",
            "#SBATCH --nodes=2",
            "#SBATCH --cpus-per-task=8",
            "#SBATCH --time=01:30:00",
            "export OMP_NUM_THREADS=8",
            "srun ./mapreduce",
        ] {
            assert!(script.contains(fragment), "missing {fragment}\n{script}");
        }
    }

    #[test]
    fn walltime_formatting() {
        assert_eq!(format_walltime(0), "00:00:00");
        assert_eq!(format_walltime(59), "00:59:00");
        assert_eq!(format_walltime(61), "01:01:00");
    }

    #[test]
    fn full_workflow_completes_and_collects_results() {
        let dir = std::env::temp_dir().join(format!("psnap-wf-{}", std::process::id()));
        let pipeline = BuildPipeline::new(dir).unwrap();
        if !pipeline.has_compiler() {
            eprintln!("skipping: no C compiler");
            return;
        }
        let program = emit_mapreduce_openmp(
            &climate_mapper(),
            &averaging_reducer(),
            &[("s".into(), 32.0), ("s".into(), 212.0)],
        )
        .unwrap();
        let mut cluster = BatchScheduler::new(4);
        let report =
            run_on_cluster(&pipeline, &mut cluster, &program, &BatchRequest::default()).unwrap();
        assert_eq!(report.state, JobState::Completed);
        assert_eq!(report.results.len(), 1);
        assert!((report.results[0].1 - 50.0).abs() < 1e-3);
        assert!(report.script.contains("#SBATCH"));
    }

    #[test]
    fn a_busy_cluster_queues_the_job_until_nodes_free_up() {
        let dir = std::env::temp_dir().join(format!("psnap-wf3-{}", std::process::id()));
        let pipeline = BuildPipeline::new(dir).unwrap();
        if !pipeline.has_compiler() {
            eprintln!("skipping: no C compiler");
            return;
        }
        let program = emit_mapreduce_openmp(
            &climate_mapper(),
            &averaging_reducer(),
            &[("s".into(), 212.0)],
        )
        .unwrap();
        let mut cluster = BatchScheduler::new(2);
        let blocker = cluster
            .submit(JobSpec {
                name: "blocker".into(),
                nodes: 2,
                walltime: 20,
                runtime: 10,
            })
            .unwrap();
        cluster.tick(); // the blocker takes both nodes at tick 0
        let request = BatchRequest {
            nodes: 2,
            ..BatchRequest::default()
        };
        let report = run_on_cluster(&pipeline, &mut cluster, &program, &request).unwrap();
        assert_eq!(cluster.job(blocker).unwrap().state, JobState::Completed);
        // Submitted at tick 1, started when the blocker retired at 10.
        assert_eq!(report.queue_wait, 9);
        assert_eq!(report.state, JobState::Completed);
        assert_eq!(report.results.len(), 1);
        assert!((report.results[0].1 - 100.0).abs() < 1e-3);
    }

    #[test]
    fn oversubscribed_requests_are_rejected() {
        let dir = std::env::temp_dir().join(format!("psnap-wf2-{}", std::process::id()));
        let pipeline = BuildPipeline::new(dir).unwrap();
        if !pipeline.has_compiler() {
            return;
        }
        let program = emit_mapreduce_openmp(
            &climate_mapper(),
            &averaging_reducer(),
            &[("s".into(), 50.0)],
        )
        .unwrap();
        let mut cluster = BatchScheduler::new(2);
        let err = run_on_cluster(
            &pipeline,
            &mut cluster,
            &program,
            &BatchRequest {
                nodes: 16,
                ..BatchRequest::default()
            },
        );
        assert!(err.is_err());
    }
}
