//! Set-up, the warm-run loops and the metrics they report.
//!
//! A workload runs as a closed loop with one client: one green-flag run
//! at a time, each started only after the previous one went idle, every
//! parallel block at `workers = nproc`. The benchmark itself starts no
//! threads; the program's worker pool is the only parallelism.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use snap_ast::pure::PureFn;
use snap_ast::{Project, Ring, Value};
use snap_core::Session;
use snap_trace::{well_known, Counter};
use snap_vm::ParallelBackend;

use crate::ledger::{median, tail_percentile, Counters, RunLedger};
use crate::traced::{
    LastCall, RunFacts, TracingBackend, BLOCK, COMBINE, MAP, REDUCE, RUN, SHUFFLE,
};
use crate::workload::Instance;

/// Set-ups per invocation; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Fewest untimed warm-up runs after set-up.
pub const MIN_WARMUP_RUNS: usize = 5;
/// Warm-up lasts at least this share of `--seconds`.
pub const WARMUP_SHARE: f64 = 0.1;
/// Fewest warm runs of an untraced invocation: p90 needs 100.
pub const MIN_WARM_RUNS: usize = 100;
/// Warm runs stop after this many seconds even below
/// [`MIN_WARM_RUNS`], so an invocation ends within 180 s.
pub const MAX_WARM_SECONDS: f64 = 120.0;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs whose output was checked (set-up and warm-up runs included).
    pub attempted: u64,
    /// Runs with a wrong output or a script error.
    pub failed: u64,
    /// Why runs failed (first few) and any broken host discipline.
    pub problems: Vec<String>,
    /// Doubts about the measurement that leave the outputs correct.
    pub warnings: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// The host's load during the untraced invocation's timed runs.
    pub host: Option<HostLoad>,
    /// The traced invocation's spans, as JSONL.
    pub spans_jsonl: Option<String>,
}

impl Outcome {
    /// Every output was right and the host discipline held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Runs that failed over runs attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result object:
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    fn tally(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.problems.len() < 5 {
                self.problems.push(why);
            }
        }
    }
}

/// The host's core count: the worker count of every parallel block.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Keep freed memory in the process heap: glibc serves large blocks
/// from the heap instead of `mmap` and never trims it. With glibc's
/// defaults every e2 run hands its 2M-item lists back to the kernel and
/// faults about 48,000 fresh pages in on the next run, and what a fault
/// costs on a shared virtual machine drifts with the host's load. With
/// the heap kept, warm runs time the program's own work. Call before
/// the program runs; other C libraries keep their defaults.
pub fn keep_freed_memory() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: glibc's `mallopt(int, int)` only changes allocation
        // thresholds, which it may do at any time.
        let ok = unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 };
        if !ok {
            return Err("mallopt refused to keep freed memory".into());
        }
    }
    Ok(())
}

/// snap-trace counters that must not move during a run. A degraded
/// block re-runs sequentially and a retried item re-runs on the pool:
/// both still give the right answer, only slower, so the output check
/// alone would let such a run into the timings.
static MUST_NOT_MOVE: [&Counter; 2] = [
    &well_known::FAULT_DEGRADED_RUNS,
    &well_known::FAULT_RETRIES_SCHEDULED,
];

/// Fail a run during which a [`MUST_NOT_MOVE`] counter moved.
fn fault_free(moved: &Counters) -> Result<(), String> {
    for counter in MUST_NOT_MOVE {
        let n = moved.get(counter.name());
        if n > 0 {
            return Err(format!("{} moved by {n} during the run", counter.name()));
        }
    }
    Ok(())
}

/// Timings of one set-up, in seconds.
struct SetUp {
    xml_s: f64,
    load_s: f64,
    total_s: f64,
}

/// Hand the program its project and run the first, cold green flag:
/// `Project::from_xml`, `Session::load`, and that first run.
fn set_up(
    inst: &Instance,
    backend: Option<&Arc<dyn ParallelBackend>>,
    out: &mut Outcome,
) -> Result<(Session, SetUp), String> {
    let before = Counters::snapshot();
    let start = Instant::now();
    let project = Project::from_xml(&inst.xml).map_err(|e| format!("project XML: {e}"))?;
    let parsed = Instant::now();
    let mut session = Session::load(project);
    session.vm.world.default_workers = nproc();
    if let Some(backend) = backend {
        session.vm.world.set_backend(backend.clone());
    }
    let loaded = Instant::now();
    session.run();
    let done = Instant::now();
    let moved = before.delta(&Counters::snapshot());
    out.tally(check(inst, &session, 0).and_then(|()| fault_free(&moved)));
    let timing = SetUp {
        xml_s: (parsed - start).as_secs_f64(),
        load_s: (loaded - parsed).as_secs_f64(),
        total_s: (done - start).as_secs_f64(),
    };
    Ok((session, timing))
}

/// Set up [`SETUPS`] times, keeping the last session.
fn set_up_repeatedly(
    inst: &Instance,
    backend: Option<&Arc<dyn ParallelBackend>>,
    out: &mut Outcome,
) -> Result<(Session, Vec<SetUp>), String> {
    let mut timings = Vec::new();
    let mut session = None;
    for _ in 0..SETUPS {
        // Free the previous program first so set-ups do not stack up.
        drop(session.take());
        let (s, timing) = set_up(inst, backend, out)?;
        timings.push(timing);
        session = Some(s);
    }
    Ok((session.expect("at least one set-up"), timings))
}

/// One warm green-flag run, timed from green flag to idle, in ms. The
/// previous run's say bubbles are cleared first, outside the window.
fn warm_run(session: &mut Session) -> f64 {
    session.vm.world.say_log.clear();
    let start = Instant::now();
    session.run();
    start.elapsed().as_secs_f64() * 1e3
}

/// One warm run, timed by [`warm_run`] and then checked outside its
/// window: its output, its script errors and its fault counters.
fn checked_warm_run(inst: &Instance, session: &mut Session, out: &mut Outcome) -> f64 {
    let errors_before = session.errors().len();
    let before = Counters::snapshot();
    let ms = warm_run(session);
    let moved = before.delta(&Counters::snapshot());
    out.tally(check(inst, session, errors_before).and_then(|()| fault_free(&moved)));
    ms
}

/// Checked warm runs that are not timed: at least [`MIN_WARMUP_RUNS`],
/// for at least [`WARMUP_SHARE`] of `seconds`, so the heap has grown to
/// its working size and lazy set-up has finished before timing starts.
fn warm_up(inst: &Instance, session: &mut Session, seconds: f64, out: &mut Outcome) {
    let start = Instant::now();
    let mut runs = 0;
    while runs < MIN_WARMUP_RUNS || start.elapsed().as_secs_f64() < WARMUP_SHARE * seconds {
        checked_warm_run(inst, session, out);
        runs += 1;
    }
}

/// Check the output of the run that just finished; a script error
/// beyond the first `errors_before` fails the run too.
fn check(inst: &Instance, session: &Session, errors_before: usize) -> Result<(), String> {
    if let Some((sprite, err)) = session.errors().get(errors_before) {
        return Err(format!("script error in {sprite}: {err}"));
    }
    let said = session.vm.world.say_log.last().map(|e| e.text.as_str());
    inst.check(said, session.vm.world.global("ys"))
}

/// The process's high-water resident set size, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Steps of the host probe: a fixed integer loop of about 4 ms.
const PROBE_STEPS: u64 = 2_000_000;
/// Probe loops per [`HostSample`]; the sample keeps their median.
const PROBES: usize = 5;

/// The host's state at one moment: a fixed single-thread probe loop,
/// timed, and the machine's CPU time so far (`/proc/stat`, in ticks).
struct HostSample {
    probe_ms: f64,
    cpu_ticks: Option<(u64, u64)>,
}

impl HostSample {
    fn take() -> HostSample {
        let probes: Vec<f64> = (0..PROBES)
            .map(|_| {
                let start = Instant::now();
                let mut x: u64 = 0x9E37_79B9;
                for i in 0..PROBE_STEPS {
                    x = black_box(x.rotate_left(5) ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D);
                }
                black_box(x);
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        HostSample {
            probe_ms: median(&probes),
            cpu_ticks: cpu_ticks(),
        }
    }

    /// What the host did between `self` and `later`.
    fn until(&self, later: &HostSample) -> HostLoad {
        let steal_share = match (self.cpu_ticks, later.cpu_ticks) {
            (Some((total0, steal0)), Some((total1, steal1))) if total1 > total0 => {
                Some(steal1.saturating_sub(steal0) as f64 / (total1 - total0) as f64)
            }
            _ => None,
        };
        HostLoad {
            probe_ms: (self.probe_ms, later.probe_ms),
            steal_share,
        }
    }
}

/// All CPUs' ticks (user to steal) and their stolen ticks so far
/// (Linux only).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().take(8).sum(), *ticks.get(7)?))
}

/// The host's load during the timed runs. A shared virtual machine's
/// speed drifts with other tenants' load; this tells a regression from
/// a host that slowed down. It is printed, never part of a metric.
#[derive(Debug, Clone, PartialEq)]
pub struct HostLoad {
    /// The probe loop's time before and after the timed runs, ms.
    pub probe_ms: (f64, f64),
    /// Share of all CPU time stolen by the hypervisor during the timed
    /// runs (`None` without `/proc/stat`).
    pub steal_share: Option<f64>,
}

impl std::fmt::Display for HostLoad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (before, after) = self.probe_ms;
        write!(
            f,
            "probe {before:.3} ms before, {after:.3} ms after the timed runs"
        )?;
        match self.steal_share {
            Some(share) => write!(f, "; {:.1}% of CPU time stolen", share * 100.0),
            None => Ok(()),
        }
    }
}

/// The pool must not have grown past one worker per core.
fn check_pool(out: &mut Outcome) {
    let workers = snap_workers::global_pool().workers();
    if workers > nproc() {
        out.problems
            .push(format!("worker pool grew to {workers} > nproc {}", nproc()));
    }
}

/// The untraced invocation: every end-to-end metric, over at least
/// `seconds` of warm runs. `backend` replaces the stock worker backend
/// (tests install a wrong one).
pub fn run_untraced(
    inst: &Instance,
    seconds: f64,
    backend: Option<Arc<dyn ParallelBackend>>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut session, setups) = set_up_repeatedly(inst, backend.as_ref(), &mut out)?;
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    warm_up(inst, &mut session, seconds, &mut out);

    let host_before = HostSample::take();
    let start = Instant::now();
    let mut run_ms = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = run_ms.len() >= MIN_WARM_RUNS && elapsed >= seconds;
        if enough || elapsed >= MAX_WARM_SECONDS {
            break;
        }
        run_ms.push(checked_warm_run(inst, &mut session, &mut out));
    }
    out.host = Some(host_before.until(&HostSample::take()));
    check_pool(&mut out);

    let n = run_ms.len();
    let missing = |p: &str| format!("{p} needs more warm runs than the {n} that fit");
    let p50 = tail_percentile(&run_ms, 0.5).ok_or_else(|| missing("p50"))?;
    let p90 = tail_percentile(&run_ms, 0.9).ok_or_else(|| missing("p90"))?;
    let busy_s: f64 = run_ms.iter().sum::<f64>() / 1e3;
    out.metric("setup_s", median(&setup_s), "s", setup_s.len());
    out.metric("run_ms_p50", p50, "ms", n);
    out.metric("run_ms_p90", p90, "ms", n);
    out.metric("items_per_s", (inst.items * n) as f64 / busy_s, "1/s", n);
    out.metric("peak_rss_mb", peak_rss_mb()?, "MiB", 1);
    Ok(out)
}

/// How far the layers may be off the wall time, as a share of it: the
/// layers add up to within 10% of the run.
const LEDGER_TOLERANCE: f64 = 0.10;

/// One traced run's findings.
struct TracedRun {
    ledger: RunLedger,
    counters: Counters,
    facts: RunFacts,
}

/// The traced invocation: every per-layer metric, over `seconds` of
/// runs. Untraced and traced runs alternate on one session (swapping
/// which goes first each pair) so `snap-trace.overhead_pct` compares
/// like with like.
pub fn run_traced(inst: &Instance, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut session, setups) = set_up_repeatedly(inst, None, &mut out)?;
    warm_up(inst, &mut session, seconds, &mut out);
    let stock = session.vm.world.backend.clone();
    let tracer = Arc::new(TracingBackend::default());
    let traced: Arc<dyn ParallelBackend> = tracer.clone();

    let start = Instant::now();
    let (mut plain_ms, mut runs) = (Vec::new(), Vec::new());
    while start.elapsed().as_secs_f64() < seconds || runs.len() < 3 {
        for traced_turn in [runs.len() % 2 == 1, runs.len() % 2 == 0] {
            if !traced_turn {
                session.vm.world.set_backend(stock.clone());
                plain_ms.push(checked_warm_run(inst, &mut session, &mut out));
                continue;
            }
            let errors_before = session.errors().len();
            session.vm.world.set_backend(traced.clone());
            session.vm.world.say_log.clear();
            let before = Counters::snapshot();
            snap_trace::set_enabled(true);
            tracer.begin_run(runs.len() as u32);
            session.run();
            let (root, facts) = tracer.end_run();
            snap_trace::set_enabled(false);
            drop(snap_trace::take_spans());
            let moved = before.delta(&Counters::snapshot());
            out.tally(
                check(inst, &session, errors_before)
                    .and_then(|()| fault_free(&moved))
                    .and_then(|()| match facts.mismatches {
                        0 => Ok(()),
                        _ => Err("a replayed block disagreed with the real one".into()),
                    }),
            );
            let counters = moved.minus(&facts.replay_counters);
            let ledger = tracer.with_recorder(|r| RunLedger::of_run(r.spans(), root));
            runs.push(TracedRun {
                ledger,
                counters,
                facts,
            });
        }
    }
    session.vm.world.set_backend(stock);
    check_pool(&mut out);

    let last = tracer.last_call().ok_or("no block call was traced")?;
    let (call_ns, batch_ns) = per_item_ns(&last);
    let setup_ms = |f: fn(&SetUp) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3;
    let med = |f: &dyn Fn(&TracedRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let count = |name: &str| med(&|r| r.counters.get(name) as f64);
    let worst = |name: &str| runs.iter().map(|r| r.counters.get(name)).max().unwrap_or(0) as f64;
    let self_ms = |span: &str| med(&|r| r.ledger.self_ms(span));
    let (k, n_setups) = (runs.len(), setups.len());
    let ledgers: Vec<RunLedger> = runs.iter().map(|r| r.ledger.clone()).collect();
    let medians_over_wall = RunLedger::medians_over_wall(&ledgers);
    if (medians_over_wall - 1.0).abs() > LEDGER_TOLERANCE {
        out.warnings.push(format!(
            "the per-layer medians add up to {medians_over_wall:.3} of the median wall time"
        ));
    }
    let overrun = |r: &&TracedRun| r.ledger.layers_over_wall() > 1.0 + LEDGER_TOLERANCE;
    let metrics = [
        (
            "snap-ast.xml_load_ms",
            setup_ms(|s| s.xml_s),
            "ms",
            n_setups,
        ),
        (
            "snap-ast.compile_us",
            compile_us(&last.rings),
            "us",
            COMPILE_BATCHES,
        ),
        (
            "snap-ast.compile_cache_misses",
            count("compile_cache.misses"),
            "count",
            k,
        ),
        ("snap-ast.call_ns_per_item", call_ns, "ns", PER_ITEM_REPEATS),
        (
            "snap-ast.batch_ns_per_item",
            batch_ns,
            "ns",
            PER_ITEM_REPEATS,
        ),
        ("snap-vm.load_ms", setup_ms(|s| s.load_s), "ms", n_setups),
        ("snap-vm.self_ms", self_ms(RUN), "ms", k),
        (
            "snap-parallel.block_ms",
            med(&|r| r.ledger.total_ms(BLOCK)),
            "ms",
            k,
        ),
        ("snap-parallel.block_self_ms", self_ms(BLOCK), "ms", k),
        ("snap-parallel.combine_ms", self_ms(COMBINE), "ms", k),
        ("snap-parallel.shuffle_ms", self_ms(SHUFFLE), "ms", k),
        ("snap-workers.map_ms", self_ms(MAP), "ms", k),
        ("snap-workers.reduce_ms", self_ms(REDUCE), "ms", k),
        (
            "snap-parallel.combine_keep_ratio",
            med(&|r| keep_ratio(&r.facts)),
            "ratio",
            k,
        ),
        (
            "snap-parallel.shuffle_pairs",
            med(&|r| r.facts.shuffle_pairs as f64),
            "count",
            k,
        ),
        (
            "snap-parallel.degraded_runs",
            worst(well_known::FAULT_DEGRADED_RUNS.name()),
            "count",
            k,
        ),
        (
            "snap-workers.pool_jobs",
            count("pool.jobs_executed"),
            "count",
            k,
        ),
        (
            "snap-workers.columnar_chunks",
            count("par.columnar_chunks"),
            "count",
            k,
        ),
        (
            "snap-workers.batch_fallbacks",
            count("ring.batch_fallbacks"),
            "count",
            k,
        ),
        (
            "snap-workers.retries",
            worst(well_known::FAULT_RETRIES_SCHEDULED.name()),
            "count",
            k,
        ),
        (
            "snap-trace.overhead_pct",
            (med(&|r| r.ledger.wall_ms) / median(&plain_ms) - 1.0) * 100.0,
            "%",
            k,
        ),
        ("ledger.medians_over_wall", medians_over_wall, "ratio", k),
        (
            "ledger.runs_over_tolerance",
            runs.iter().filter(overrun).count() as f64 / k as f64,
            "ratio",
            k,
        ),
    ];
    for (name, value, unit, samples) in metrics {
        out.metric(name, value, unit, samples);
    }

    let mut jsonl = Vec::new();
    tracer
        .with_recorder(|r| r.write_jsonl(&mut jsonl))
        .map_err(|e| format!("rendering spans: {e}"))?;
    out.spans_jsonl = Some(String::from_utf8(jsonl).expect("span JSONL is ASCII"));
    Ok(out)
}

/// Pairs reaching the shuffle over pairs the map emitted; 1 when
/// nothing was combined away (or there were no pairs).
fn keep_ratio(facts: &RunFacts) -> f64 {
    match facts.map_pairs {
        0 => 1.0,
        mapped => facts.shuffle_pairs as f64 / mapped as f64,
    }
}

const COMPILE_BATCHES: usize = 5;
const COMPILES_PER_BATCH: usize = 200;
const PER_ITEM_REPEATS: usize = 3;

/// Uncached `PureFn::compile` of all the workload's rings, µs per set:
/// the median of several batches.
fn compile_us(rings: &[Arc<Ring>]) -> f64 {
    let batches: Vec<f64> = (0..COMPILE_BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..COMPILES_PER_BATCH {
                for ring in rings {
                    drop(black_box(PureFn::compile(ring.clone())));
                }
            }
            start.elapsed().as_secs_f64() * 1e6 / COMPILES_PER_BATCH as f64
        })
        .collect();
    median(&batches)
}

/// One-thread cost per input item of the block's first ring: through
/// `PureFn::call1`, and through `PureFn::eval_batch` when the ring and
/// input are numeric (0 otherwise).
fn per_item_ns(last: &LastCall) -> (f64, f64) {
    let f = PureFn::compile(last.rings[0].clone()).expect("the block already compiled this ring");
    let n = last.input.len().max(1) as f64;
    let calls: Vec<f64> = (0..PER_ITEM_REPEATS)
        .map(|_| {
            let start = Instant::now();
            for item in &last.input {
                drop(black_box(f.call1(item.clone())));
            }
            start.elapsed().as_secs_f64() * 1e9 / n
        })
        .collect();
    let flat: Option<Vec<f64>> = last
        .input
        .iter()
        .map(|v| match v {
            Value::Number(x) => Some(*x),
            _ => None,
        })
        .collect();
    let batch = match flat {
        Some(flat) if f.is_batchable() => {
            let mut buf = Vec::with_capacity(flat.len());
            let runs: Vec<f64> = (0..PER_ITEM_REPEATS)
                .map(|_| {
                    buf.clear();
                    let start = Instant::now();
                    black_box(f.eval_batch(black_box(&flat), &mut buf));
                    start.elapsed().as_secs_f64() * 1e9 / n
                })
                .collect();
            median(&runs)
        }
        _ => 0.0,
    };
    (median(&calls), batch)
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use super::*;
    use crate::workload::Workload;
    use snap_ast::EvalError;
    use snap_vm::SequentialBackend;

    /// Runs read process-wide counters, so tests that run a workload
    /// take turns.
    fn one_at_a_time() -> MutexGuard<'static, ()> {
        static TURN: Mutex<()> = Mutex::new(());
        TURN.lock().unwrap_or_else(PoisonError::into_inner)
    }

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn field<'a>(value: &'a serde::json::Value, key: &str) -> &'a serde::json::Value {
        value.as_object().and_then(|o| o.get(key)).unwrap()
    }

    fn listed(section: &str) -> Vec<String> {
        let spec: serde::json::Value = serde::json::parse(BENCHMARK_JSON).unwrap();
        let serde::json::Value::Array(metrics) = field(&spec, section) else {
            panic!("{section} is not a list");
        };
        metrics
            .iter()
            .map(|m| field(m, "name").as_str().unwrap().to_owned())
            .collect()
    }

    fn names(out: &Outcome) -> Vec<String> {
        out.metrics.iter().map(|m| m.name.to_owned()).collect()
    }

    /// Computes every block correctly, then adds 1 to its last result.
    struct OffByOne;

    fn bump_last(mut out: Vec<Value>) -> Result<Vec<Value>, EvalError> {
        let last = out.pop().expect("a non-empty result");
        out.push(match last.as_list() {
            Some(pair) => {
                let (key, value) = (pair.item(1).unwrap(), pair.item(2).unwrap());
                Value::list(vec![key, Value::Number(value.to_number() + 1.0)])
            }
            None => Value::Number(last.to_number() + 1.0),
        });
        Ok(out)
    }

    impl ParallelBackend for OffByOne {
        fn parallel_map(
            &self,
            ring: Arc<Ring>,
            items: Vec<Value>,
            workers: usize,
        ) -> Result<Vec<Value>, EvalError> {
            bump_last(SequentialBackend.parallel_map(ring, items, workers)?)
        }

        fn map_reduce(
            &self,
            mapper: Arc<Ring>,
            reducer: Arc<Ring>,
            items: Vec<Value>,
            workers: usize,
        ) -> Result<Vec<Value>, EvalError> {
            bump_last(SequentialBackend.map_reduce(mapper, reducer, items, workers)?)
        }

        fn name(&self) -> &'static str {
            "off-by-one"
        }
    }

    /// Gives the right answer, but bumps a fault counter on the way, as
    /// a block does when it degrades to a sequential pass or retries.
    struct Faulty(&'static Counter);

    impl ParallelBackend for Faulty {
        fn parallel_map(
            &self,
            ring: Arc<Ring>,
            items: Vec<Value>,
            workers: usize,
        ) -> Result<Vec<Value>, EvalError> {
            self.0.incr();
            SequentialBackend.parallel_map(ring, items, workers)
        }

        fn map_reduce(
            &self,
            mapper: Arc<Ring>,
            reducer: Arc<Ring>,
            items: Vec<Value>,
            workers: usize,
        ) -> Result<Vec<Value>, EvalError> {
            self.0.incr();
            SequentialBackend.map_reduce(mapper, reducer, items, workers)
        }

        fn name(&self) -> &'static str {
            "faulty"
        }
    }

    #[test]
    fn degraded_or_retried_runs_count_as_failed() {
        let _turn = one_at_a_time();
        for counter in MUST_NOT_MOVE {
            for w in Workload::ALL {
                let inst = w.instance(1, 2_000);
                let out = run_untraced(&inst, 0.0, Some(Arc::new(Faulty(counter)))).unwrap();
                assert_eq!(out.fail_frac(), 1.0, "{} {}", w.name(), counter.name());
                assert!(
                    out.problems[0].contains(counter.name()),
                    "{:?}",
                    out.problems
                );
            }
        }
    }

    #[test]
    fn a_wrong_backend_is_reported_as_failed_runs() {
        let _turn = one_at_a_time();
        for w in Workload::ALL {
            let inst = w.instance(1, 2_000);
            let out = run_untraced(&inst, 0.0, Some(Arc::new(OffByOne))).unwrap();
            assert_eq!(out.fail_frac(), 1.0, "{}: every run is wrong", w.name());
            assert!(!out.correct());
            assert!(out.to_json().starts_with("{\"correct\": false, "));
        }
    }

    #[test]
    fn default_and_second_seed_pass_every_check() {
        let _turn = one_at_a_time();
        for seed in [1, 2] {
            for w in Workload::ALL {
                let out = run_untraced(&w.instance(seed, 2_000), 0.0, None).unwrap();
                assert!(
                    out.correct(),
                    "{} seed {seed}: {:?}",
                    w.name(),
                    out.problems
                );
                assert_eq!(
                    out.attempted,
                    (SETUPS + MIN_WARMUP_RUNS + MIN_WARM_RUNS) as u64
                );
                assert_eq!(names(&out), listed("end_to_end"));
            }
        }
    }

    #[test]
    fn traced_run_reports_every_layer_metric() {
        let _turn = one_at_a_time();
        for w in Workload::ALL {
            let out = run_traced(&w.instance(3, 2_000), 0.0).unwrap();
            assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
            assert_eq!(names(&out), listed("per_layer"));
            let metric = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
            assert!(metric("ledger.medians_over_wall") > 0.0);
            assert!((0.0..=1.0).contains(&metric("ledger.runs_over_tolerance")));
            assert_eq!(metric("snap-parallel.degraded_runs"), 0.0);
            assert!(out.spans_jsonl.as_deref().unwrap().contains(BLOCK));
        }
    }

    #[test]
    fn host_load_is_the_steal_between_two_samples() {
        let sample = |probe_ms, total, steal| HostSample {
            probe_ms,
            cpu_ticks: Some((total, steal)),
        };
        let load = sample(4.0, 1_000, 10).until(&sample(4.5, 1_400, 30));
        assert_eq!(load.probe_ms, (4.0, 4.5));
        assert_eq!(load.steal_share, Some(0.05));
        assert_eq!(
            load.to_string(),
            "probe 4.000 ms before, 4.500 ms after the timed runs; 5.0% of CPU time stolen"
        );
        let unknown = HostSample {
            probe_ms: 4.0,
            cpu_ticks: None,
        };
        assert_eq!(unknown.until(&sample(4.0, 10, 0)).steal_share, None);
        if cfg!(target_os = "linux") {
            let (total, steal) = cpu_ticks().expect("/proc/stat on Linux");
            assert!(steal <= total);
        }
    }

    #[test]
    fn result_json_has_exactly_the_four_keys() {
        let _turn = one_at_a_time();
        let out = run_untraced(&Workload::E4WordCount.instance(5, 500), 0.0, None).unwrap();
        let parsed: serde::json::Value = serde::json::parse(&out.to_json()).unwrap();
        let keys: Vec<&String> = parsed.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p90 = field(field(&parsed, "metrics"), "run_ms_p90");
        assert_eq!(field(p90, "unit").as_str(), Some("ms"));
    }
}
