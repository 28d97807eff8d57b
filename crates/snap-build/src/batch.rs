//! A batch-scheduler simulator.
//!
//! §6.3: "Supercomputers … execute large, long-running jobs and use
//! sophisticated batch scheduling systems. The Snap! environment can be
//! extended to … submit the job, monitor waiting in the queue until
//! execution, then collect the results." We have no supercomputer, so
//! this is the substitution: a discrete-time cluster model with an
//! EASY-backfill queue, walltime enforcement, and the
//! submit → queue → run → collect lifecycle the paper sketches.

use std::collections::HashMap;

/// Job identifier.
pub type JobId = u64;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Pending,
    /// Executing on its nodes.
    Running,
    /// Finished within its walltime.
    Completed,
    /// Killed at its walltime limit.
    TimedOut,
    /// Removed before starting.
    Cancelled,
}

/// What the user submits.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display name (e.g. the generated binary).
    pub name: String,
    /// Nodes requested.
    pub nodes: usize,
    /// Declared walltime limit (ticks).
    pub walltime: u64,
    /// Actual runtime (ticks) — what the job *would* take; the scheduler
    /// does not see this, only the walltime.
    pub runtime: u64,
}

/// A job and its bookkeeping.
#[derive(Debug, Clone)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current state.
    pub state: JobState,
    /// Submission tick.
    pub submitted_at: u64,
    /// Start tick (once running).
    pub started_at: Option<u64>,
    /// End tick (once finished).
    pub ended_at: Option<u64>,
}

impl Job {
    /// Queue wait (ticks), once started.
    pub fn wait_time(&self) -> Option<u64> {
        self.started_at.map(|s| s - self.submitted_at)
    }
}

/// The simulated cluster. Its queue is EASY backfill: jobs start in
/// submission order while they fit, and a later job may start early if
/// it fits in the idle nodes *and* cannot delay the head job's
/// reservation, the tick by which enough nodes will be free for it.
pub struct BatchScheduler {
    total_nodes: usize,
    clock: u64,
    next_id: JobId,
    jobs: HashMap<JobId, Job>,
    queue: Vec<JobId>,
    running: Vec<JobId>,
    busy_node_ticks: u64,
}

impl BatchScheduler {
    /// A cluster with `total_nodes` nodes.
    pub fn new(total_nodes: usize) -> BatchScheduler {
        BatchScheduler {
            total_nodes: total_nodes.max(1),
            clock: 0,
            next_id: 1,
            jobs: HashMap::new(),
            queue: Vec::new(),
            running: Vec::new(),
            busy_node_ticks: 0,
        }
    }

    /// Current simulation tick.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Submit a job; returns its id. Jobs requesting more nodes than the
    /// cluster has are rejected (None).
    pub fn submit(&mut self, spec: JobSpec) -> Option<JobId> {
        if spec.nodes == 0 || spec.nodes > self.total_nodes {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                spec,
                state: JobState::Pending,
                submitted_at: self.clock,
                started_at: None,
                ended_at: None,
            },
        );
        self.queue.push(id);
        Some(id)
    }

    /// Cancel a pending job.
    pub fn cancel(&mut self, id: JobId) -> bool {
        if let Some(pos) = self.queue.iter().position(|&q| q == id) {
            self.queue.remove(pos);
            if let Some(job) = self.jobs.get_mut(&id) {
                job.state = JobState::Cancelled;
                job.ended_at = Some(self.clock);
            }
            return true;
        }
        false
    }

    /// Inspect a job.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// Nodes currently idle.
    pub fn free_nodes(&self) -> usize {
        let busy: usize = self.running.iter().map(|id| self.jobs[id].spec.nodes).sum();
        self.total_nodes - busy
    }

    /// Jobs still pending or running?
    pub fn is_active(&self) -> bool {
        !self.queue.is_empty() || !self.running.is_empty()
    }

    /// Advance one tick: finish jobs, enforce walltimes, start what the
    /// queue allows.
    pub fn tick(&mut self) {
        // 1. Retire running jobs that finished (or hit their walltime)
        //    by the current tick.
        let mut still_running = Vec::with_capacity(self.running.len());
        for id in std::mem::take(&mut self.running) {
            let job = self.jobs.get_mut(&id).expect("running job exists");
            let started = job.started_at.expect("running job started");
            let elapsed = self.clock - started;
            if elapsed >= job.spec.runtime {
                job.state = JobState::Completed;
                job.ended_at = Some(self.clock);
            } else if elapsed >= job.spec.walltime {
                job.state = JobState::TimedOut;
                job.ended_at = Some(self.clock);
            } else {
                still_running.push(id);
            }
        }
        self.running = still_running;

        // 2. Start jobs.
        self.schedule();

        // 3. Account utilization and advance.
        let busy: usize = self.running.iter().map(|id| self.jobs[id].spec.nodes).sum();
        self.busy_node_ticks += busy as u64;
        self.clock += 1;
    }

    /// Run until every job finishes (bounded by `max_ticks`). Returns
    /// the number of ticks executed.
    pub fn run_to_completion(&mut self, max_ticks: u64) -> u64 {
        let mut ticks = 0;
        while self.is_active() && ticks < max_ticks {
            self.tick();
            ticks += 1;
        }
        ticks
    }

    /// Node utilization so far: busy node-ticks / (nodes × ticks).
    pub fn utilization(&self) -> f64 {
        if self.clock == 0 {
            return 0.0;
        }
        self.busy_node_ticks as f64 / (self.total_nodes as f64 * self.clock as f64)
    }

    /// Mean queue wait over started jobs.
    pub fn mean_wait(&self) -> f64 {
        let waits: Vec<u64> = self.jobs.values().filter_map(Job::wait_time).collect();
        if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<u64>() as f64 / waits.len() as f64
        }
    }

    fn start(&mut self, id: JobId) {
        let job = self.jobs.get_mut(&id).expect("queued job exists");
        job.state = JobState::Running;
        job.started_at = Some(self.clock);
        self.running.push(id);
    }

    fn schedule(&mut self) {
        // Start queue-head jobs while they fit.
        while let Some(&head) = self.queue.first() {
            if self.jobs[&head].spec.nodes <= self.free_nodes() {
                self.queue.remove(0);
                self.start(head);
            } else {
                break;
            }
        }
        // EASY backfill: compute the head job's shadow time (when enough
        // nodes will be free, assuming running jobs hold their nodes for
        // their full walltime), then start any later job that fits the
        // idle nodes now and finishes (per walltime) before the shadow.
        let Some(&head) = self.queue.first() else {
            return;
        };
        let needed = self.jobs[&head].spec.nodes;
        let mut releases: Vec<(u64, usize)> = self
            .running
            .iter()
            .map(|id| {
                let job = &self.jobs[id];
                let release = job.started_at.expect("running") + job.spec.walltime;
                (release, job.spec.nodes)
            })
            .collect();
        releases.sort_unstable();
        let mut free = self.free_nodes();
        let mut shadow = self.clock;
        let mut extra_at_shadow = 0usize;
        for (release, nodes) in releases {
            if free >= needed {
                break;
            }
            free += nodes;
            shadow = release;
            if free >= needed {
                extra_at_shadow = free - needed;
                break;
            }
        }
        // Candidates: anything after the head that fits *now* and either
        // ends before the shadow or uses only nodes spare at the shadow.
        let mut i = 1;
        while i < self.queue.len() {
            let id = self.queue[i];
            let spec_nodes = self.jobs[&id].spec.nodes;
            let spec_wall = self.jobs[&id].spec.walltime;
            let fits_now = spec_nodes <= self.free_nodes();
            let ends_before_shadow = self.clock + spec_wall <= shadow;
            let within_spare = spec_nodes <= extra_at_shadow;
            if fits_now && (ends_before_shadow || within_spare) {
                self.queue.remove(i);
                if within_spare && !ends_before_shadow {
                    extra_at_shadow -= spec_nodes;
                }
                self.start(id);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, nodes: usize, walltime: u64, runtime: u64) -> JobSpec {
        JobSpec {
            name: name.into(),
            nodes,
            walltime,
            runtime,
        }
    }

    #[test]
    fn full_width_jobs_run_in_submission_order() {
        let mut s = BatchScheduler::new(4);
        let a = s.submit(spec("a", 4, 10, 5)).unwrap();
        let b = s.submit(spec("b", 4, 10, 5)).unwrap();
        s.run_to_completion(1000);
        let (a, b) = (s.job(a).unwrap(), s.job(b).unwrap());
        assert_eq!(a.state, JobState::Completed);
        assert_eq!(b.state, JobState::Completed);
        assert!(a.started_at.unwrap() < b.started_at.unwrap());
        assert!(b.started_at.unwrap() >= a.ended_at.unwrap());
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        let mut s = BatchScheduler::new(4);
        assert!(s.submit(spec("big", 5, 10, 5)).is_none());
        assert!(s.submit(spec("zero", 0, 10, 5)).is_none());
    }

    #[test]
    fn walltime_limit_kills_jobs() {
        let mut s = BatchScheduler::new(1);
        let id = s.submit(spec("long", 1, 3, 100)).unwrap();
        s.run_to_completion(1000);
        let job = s.job(id).unwrap();
        assert_eq!(job.state, JobState::TimedOut);
        assert_eq!(job.ended_at.unwrap() - job.started_at.unwrap(), 3);
    }

    #[test]
    fn backfill_lets_small_jobs_jump() {
        // 4 nodes. Running: 2-node job for 10. Head: needs 4 (waits).
        // Small 1-node job with walltime 5 can backfill.
        let mut s = BatchScheduler::new(4);
        let long = s.submit(spec("long", 2, 10, 10)).unwrap();
        s.tick(); // long starts
        let head = s.submit(spec("wide", 4, 10, 2)).unwrap();
        let small = s.submit(spec("small", 1, 5, 2)).unwrap();
        s.run_to_completion(1000);
        let (long, head, small) = (
            s.job(long).unwrap(),
            s.job(head).unwrap(),
            s.job(small).unwrap(),
        );
        assert!(small.started_at.unwrap() < head.started_at.unwrap());
        // Backfill must not delay the head beyond the long job's end.
        assert!(head.started_at.unwrap() >= long.ended_at.unwrap());
        assert_eq!(head.state, JobState::Completed);
    }

    #[test]
    fn cancel_removes_pending_jobs() {
        let mut s = BatchScheduler::new(1);
        let a = s.submit(spec("a", 1, 10, 10)).unwrap();
        let b = s.submit(spec("b", 1, 10, 10)).unwrap();
        s.tick();
        assert!(s.cancel(b));
        assert!(!s.cancel(a), "running jobs are not cancellable here");
        s.run_to_completion(1000);
        assert_eq!(s.job(b).unwrap().state, JobState::Cancelled);
        assert_eq!(s.job(a).unwrap().state, JobState::Completed);
    }

    #[test]
    fn utilization_and_wait_statistics() {
        let mut s = BatchScheduler::new(2);
        s.submit(spec("a", 1, 5, 5)).unwrap();
        s.submit(spec("b", 1, 5, 5)).unwrap();
        s.run_to_completion(1000);
        assert!(s.utilization() > 0.5, "both nodes busy most of the time");
        assert!(s.mean_wait() < 2.0);
    }

    #[test]
    fn backfill_fills_idle_nodes_without_delaying_the_head() {
        let mut s = BatchScheduler::new(4);
        let running = s.submit(spec("running", 3, 20, 20)).unwrap();
        s.tick();
        // The wide head needs all 4 nodes: its reservation is tick 20,
        // when the running job's walltime ends.
        let wide = s.submit(spec("wide", 4, 20, 5)).unwrap();
        let small: Vec<JobId> = (0..5)
            .map(|i| s.submit(spec(&format!("small{i}"), 1, 5, 3)).unwrap())
            .collect();
        s.run_to_completion(10_000);
        let reservation = s.job(running).unwrap().started_at.unwrap() + 20;
        let wide = s.job(wide).unwrap();
        assert!(wide.started_at.unwrap() <= reservation);
        // Each small job fits the one idle node and ends (by walltime)
        // before the reservation, so all run ahead of the head, one
        // after another.
        let starts: Vec<u64> = small
            .iter()
            .map(|&id| s.job(id).unwrap().started_at.unwrap())
            .collect();
        assert_eq!(starts, vec![1, 4, 7, 10, 13]);
        assert!(starts.iter().all(|&start| start < wide.started_at.unwrap()));
    }
}
