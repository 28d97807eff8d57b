//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints one line per metric (name, value, unit,
//! sample count), then, as the last line, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the
//! per-layer ones, and writes the spans to `out/` in this package.

use std::process::ExitCode;

use perfbench::harness::{keep_freed_memory, nproc, run_traced, run_untraced, Outcome};
use perfbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 25.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    keep_freed_memory()?;
    let inst = args
        .workload
        .instance(args.seed, args.workload.full_items());
    println!(
        "perfbench {} seed={} nproc={} items={} trace={}",
        args.workload.name(),
        args.seed,
        nproc(),
        inst.items,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        run_traced(&inst, args.seconds)?
    } else {
        run_untraced(&inst, args.seconds, None)?
    };
    for m in &outcome.metrics {
        println!(
            "  {:<34} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<34} {:>14.4} {:<6} ({} of {} runs failed)",
        "fail_frac",
        outcome.fail_frac(),
        "ratio",
        outcome.failed,
        outcome.attempted
    );
    if let Some(host) = &outcome.host {
        println!("  host: {host}");
    }
    for problem in &outcome.problems {
        println!("  problem: {problem}");
    }
    for warning in &outcome.warnings {
        println!("  warning: {warning}");
    }
    if let Some(jsonl) = &outcome.spans_jsonl {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, jsonl))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
