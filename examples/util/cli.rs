//! Shared CLI plumbing for the traced examples.
//!
//! Every example used to hand-roll the same `--trace <path>` parsing and
//! trace-dump epilogue; this module is the one copy. Examples include it
//! with `#[path = "util/cli.rs"] mod cli;` (the workspace lists examples
//! explicitly, so `util/` is never compiled as an example itself).
//!
//! Flags:
//!
//! * `--trace <path>` — enable span recording; on exit write a Chrome
//!   `trace_event` JSON to `<path>` and the `ExecutionReport` JSON to
//!   `<path>.report.json`, printing the report table.
//! * `--serve-metrics [addr]` — start the live telemetry endpoint
//!   (default `127.0.0.1:9300`) and keep the process alive re-running
//!   the workload, so `curl /metrics` sees fresh windowed percentiles
//!   and `/profile?seconds=N` catches the pool mid-flight.
//! * `--serve-seconds <n>` — how long `--serve-metrics` keeps serving
//!   before exiting (default 30; `0` means serve forever).

// Each example compiles its own copy of this module and none uses every
// helper; dead-code analysis is per-example.
#![allow(dead_code)]

use std::time::{Duration, Instant};

/// Default bind address for `--serve-metrics` without an explicit one.
pub const DEFAULT_METRICS_ADDR: &str = "127.0.0.1:9300";

/// Parsed observability flags shared by the examples.
pub struct TraceOpts {
    /// `--trace <path>`: Chrome trace output path.
    pub trace: Option<String>,
    /// `--serve-metrics [addr]`: bind address for the live endpoint.
    pub serve: Option<String>,
    /// `--serve-seconds <n>`: serving duration (0 = forever).
    pub serve_seconds: u64,
}

impl TraceOpts {
    /// Parse the process arguments and enable span recording when a
    /// trace was requested. Unknown flags are ignored (examples keep
    /// their own extra arguments).
    pub fn from_args() -> TraceOpts {
        let args: Vec<String> = std::env::args().collect();
        let value_of = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1).cloned())
        };
        let trace = value_of("--trace");
        let serve = args.iter().position(|a| a == "--serve-metrics").map(|i| {
            args.get(i + 1)
                .filter(|next| !next.starts_with('-'))
                .cloned()
                .unwrap_or_else(|| DEFAULT_METRICS_ADDR.to_string())
        });
        let serve_seconds = value_of("--serve-seconds")
            .and_then(|v| v.parse().ok())
            .unwrap_or(30);
        if trace.is_some() {
            snap_core::trace::set_enabled(true);
        }
        TraceOpts {
            trace,
            serve,
            serve_seconds,
        }
    }

    /// The serving epilogue: when `--serve-metrics` is set, bind the
    /// endpoint and keep re-running `workload` until `--serve-seconds`
    /// elapse, so live scrapes always see populated windows. Runs the
    /// workload at least once more even with `--serve-seconds 1`.
    pub fn serve_and_rerun(&self, mut workload: impl FnMut()) {
        let Some(addr) = &self.serve else {
            return;
        };
        let server = snap_core::trace::serve(addr.as_str()).expect("bind metrics endpoint");
        let addr = server.addr();
        println!("\nserving live telemetry for {}s:", self.serve_seconds);
        println!("  curl http://{addr}/metrics");
        println!("  curl http://{addr}/report.json");
        println!("  curl 'http://{addr}/profile?seconds=2'");
        let started = Instant::now();
        let budget = Duration::from_secs(self.serve_seconds);
        loop {
            workload();
            if self.serve_seconds != 0 && started.elapsed() >= budget {
                break;
            }
            // Breathe between reruns: keeps the serve window responsive
            // without pinning a core on sub-millisecond workloads.
            std::thread::sleep(Duration::from_millis(100));
        }
        server.shutdown();
    }

    /// The trace epilogue: when `--trace <path>` is set, print the
    /// report table and write the Chrome trace + report JSON.
    pub fn finish(&self) {
        let Some(path) = &self.trace else {
            return;
        };
        let report = snap_core::trace::report();
        println!("\n{}", report.to_table());
        let spans = snap_core::trace::collect_spans();
        std::fs::write(path, snap_core::trace::chrome_trace_json(&spans)).expect("write trace");
        let report_path = format!("{path}.report.json");
        std::fs::write(&report_path, report.to_json()).expect("write report");
        println!(
            "wrote {} spans to {path} (report: {report_path})",
            spans.len()
        );
    }
}
