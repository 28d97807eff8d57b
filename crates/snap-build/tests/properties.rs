//! Property-based tests for the batch-scheduler simulator: whatever the
//! workload, the cluster's invariants must hold.

use std::collections::HashMap;

use proptest::prelude::*;

use snap_build::{BatchScheduler, JobId, JobSpec, JobState};

#[derive(Debug, Clone)]
struct WorkloadJob {
    nodes: usize,
    walltime: u64,
    runtime: u64,
}

fn workload_strategy() -> impl Strategy<Value = Vec<WorkloadJob>> {
    prop::collection::vec(
        (1usize..8, 1u64..20, 1u64..30).prop_map(|(nodes, walltime, runtime)| WorkloadJob {
            nodes,
            walltime,
            runtime,
        }),
        0..30,
    )
}

/// Submit `jobs` to an 8-node cluster and run it dry, showing `observe`
/// the cluster after every submission and every tick.
fn run_workload(jobs: &[WorkloadJob], mut observe: impl FnMut(&BatchScheduler)) -> BatchScheduler {
    let mut s = BatchScheduler::new(8);
    for (i, job) in jobs.iter().enumerate() {
        s.submit(JobSpec {
            name: format!("job{i}"),
            nodes: job.nodes,
            walltime: job.walltime,
            runtime: job.runtime,
        });
        observe(&s);
        // Interleave submission with progress so arrival order matters.
        if i % 3 == 0 {
            s.tick();
            observe(&s);
        }
    }
    let mut ticks = 0;
    while s.is_active() && ticks < 100_000 {
        s.tick();
        observe(&s);
        ticks += 1;
    }
    s
}

/// The reservation of the job at the head of the queue, if a job is
/// waiting there: the first tick by which enough nodes are free for it
/// when every running job holds its nodes for its whole walltime. Ids
/// past the last submitted job are skipped.
fn head_reservation(s: &BatchScheduler, max_id: JobId) -> Option<(JobId, u64)> {
    let jobs: Vec<_> = (1..=max_id).filter_map(|id| s.job(id)).collect();
    // The queue keeps submission order, so its head is the lowest
    // pending id.
    let head = jobs.iter().find(|job| job.state == JobState::Pending)?;
    let mut releases: Vec<(u64, usize)> = jobs
        .iter()
        .filter(|job| job.state == JobState::Running)
        .map(|job| (job.started_at.unwrap() + job.spec.walltime, job.spec.nodes))
        .collect();
    releases.sort_unstable();
    let (mut free, mut at) = (s.free_nodes(), s.clock());
    for (release, nodes) in releases {
        if free >= head.spec.nodes {
            break;
        }
        free += nodes;
        at = release;
    }
    Some((head.id, at))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_job_reaches_a_terminal_state(jobs in workload_strategy()) {
        let s = run_workload(&jobs, |_| {});
        prop_assert!(!s.is_active(), "queue must drain");
        for i in 0..jobs.len() {
            let job = s.job((i + 1) as u64).expect("job exists");
            prop_assert!(
                matches!(job.state, JobState::Completed | JobState::TimedOut),
                "job {i} ended {:?}",
                job.state
            );
        }
    }

    #[test]
    fn jobs_never_exceed_their_walltime(jobs in workload_strategy()) {
        let s = run_workload(&jobs, |_| {});
        for i in 0..jobs.len() {
            let job = s.job((i + 1) as u64).unwrap();
            if let (Some(start), Some(end)) = (job.started_at, job.ended_at) {
                prop_assert!(end - start <= job.spec.walltime.max(job.spec.runtime));
                if job.state == JobState::TimedOut {
                    prop_assert_eq!(end - start, job.spec.walltime);
                }
            }
        }
    }

    #[test]
    fn utilization_is_a_fraction(jobs in workload_strategy()) {
        let s = run_workload(&jobs, |_| {});
        let u = s.utilization();
        prop_assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }

    #[test]
    fn backfill_starts_each_head_by_its_reservation(jobs in workload_strategy()) {
        // EASY backfill's guarantee: a job that reaches the head of the
        // queue starts no later than the reservation it got there, however
        // many later jobs start before it.
        let mut reservations: HashMap<JobId, u64> = HashMap::new();
        let s = run_workload(&jobs, |s| {
            if let Some((head, at)) = head_reservation(s, jobs.len() as u64) {
                reservations.entry(head).or_insert(at);
            }
        });
        for (id, reservation) in reservations {
            let start = s.job(id).unwrap().started_at.unwrap();
            prop_assert!(
                start <= reservation,
                "job {id} reached the head with reservation {reservation} but started at {start}"
            );
        }
    }
}
