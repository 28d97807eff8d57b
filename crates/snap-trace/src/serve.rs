//! Live telemetry exposition: a tiny dependency-free HTTP/1.1 server.
//!
//! [`serve`]`("127.0.0.1:9184")` spawns one listener thread serving:
//!
//! * `GET /metrics` — Prometheus text format (v0.0.4): every counter,
//!   gauge, and histogram, with cumulative summary quantiles *and*
//!   windowed quantiles over the trailing minute
//!   (`…_window{quantile="0.99",window="60s"}`), plus per-worker job
//!   totals.
//! * `GET /report.json` — the [`crate::ExecutionReport`] JSON.
//! * `GET /profile?seconds=N&hz=H` — runs the sampling profiler for N
//!   seconds (default 2, capped at 30) and returns folded stacks.
//! * `GET /` — a plain-text index of the above.
//!
//! The server is deliberately single-threaded: one connection at a
//! time, `Connection: close`, no keep-alive, no TLS — a scrape target,
//! not a web framework. `/profile` blocks the accept loop while it
//! samples; concurrent scrapers queue in the listen backlog. A client
//! gets 2 s (`HEAD_DEADLINE`) for its whole request head, so one that
//! trickles bytes cannot hold the loop. Handler wall time is
//! self-audited into `trace.overhead_ns`.

use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::well_known::{TRACE_METRICS_SCRAPES, TRACE_OVERHEAD_NS};
use crate::metrics::{
    dynamic_counters, dynamic_histograms, global_workers, known_counters, known_gauges,
    known_histograms, HistogramSnapshot, Known,
};

/// Longest request head (request line + headers) we will read.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Time a client gets to send its whole request head.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Hard cap on `/profile?seconds=N`.
const MAX_PROFILE_SECS: u64 = 30;

/// The trailing range windowed quantiles are computed over.
const WINDOW_RANGE_SECS: u64 = 60;

/// A running metrics server; dropping (or [`MetricsServer::shutdown`])
/// stops the listener thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener and join its thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The accept loop blocks in accept(); a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.stop_and_join();
        }
    }
}

/// Start the telemetry server on `addr` (e.g. `"127.0.0.1:9184"`, or
/// port `0` to let the OS pick).
pub fn serve<A: ToSocketAddrs>(addr: A) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let join = std::thread::Builder::new()
        .name("snap-metrics".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let began = Instant::now();
                let _ = handle(stream);
                TRACE_OVERHEAD_NS.add(began.elapsed().as_nanos() as u64);
            }
        })?;
    Ok(MetricsServer {
        addr,
        stop,
        join: Some(join),
    })
}

fn handle(mut stream: TcpStream) -> io::Result<()> {
    // One deadline for the whole head, not per read: a client trickling
    // a byte at a time must not hold the single accept loop.
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    let head = String::from_utf8_lossy(&head);
    let Some(request_line) = head.lines().next() else {
        return respond(&mut stream, 400, "text/plain", "bad request\n");
    };
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return respond(&mut stream, 400, "text/plain", "bad request\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "GET only\n");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/" => respond(
            &mut stream,
            200,
            "text/plain; charset=utf-8",
            "snap-trace telemetry\n\n  /metrics          Prometheus text format\n  /report.json      ExecutionReport snapshot\n  /profile?seconds=N  folded-stack CPU profile (default 2s)\n",
        ),
        "/metrics" => {
            TRACE_METRICS_SCRAPES.incr();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &prometheus_text(),
            )
        }
        "/report.json" => respond(
            &mut stream,
            200,
            "application/json",
            &crate::report().to_json(),
        ),
        "/profile" => {
            let seconds = query_param(query, "seconds")
                .unwrap_or(2)
                .min(MAX_PROFILE_SECS);
            let hz = query_param(query, "hz").unwrap_or(99);
            let profile =
                crate::profile::profile_for(Duration::from_secs(seconds), hz);
            respond(
                &mut stream,
                200,
                "text/plain; charset=utf-8",
                &profile.to_folded(),
            )
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn query_param(query: &str, key: &str) -> Option<u64> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------
// Prometheus text rendering
// ---------------------------------------------------------------------

/// A metric name in Prometheus form: dots and other separators become
/// underscores, and everything carries the `snap_` prefix.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("snap_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// The `# HELP` (when the metric is a table row) and `# TYPE` lines
/// that open a metric family. Help text escapes backslashes and
/// newlines, as the exposition format requires.
fn push_head(out: &mut String, name: &str, help: Option<&str>, kind: &str) {
    if let Some(help) = help {
        let _ = writeln!(
            out,
            "# HELP {name} {}",
            help.replace('\\', "\\\\").replace('\n', "\\n")
        );
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn push_summary(out: &mut String, name: &str, help: Option<&str>, snap: &HistogramSnapshot) {
    push_head(out, name, help, "summary");
    for (label, p) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", snap.percentile(p));
    }
    let _ = writeln!(out, "{name}_sum {}", snap.sum);
    let _ = writeln!(out, "{name}_count {}", snap.count);
}

fn push_window(out: &mut String, name: &str, snap: &HistogramSnapshot) {
    // Windowed quantiles are gauges, not summaries: they move both ways
    // as load changes, and the extra `window` label would be illegal on
    // a native summary anyway.
    let _ = writeln!(out, "# TYPE {name}_window gauge");
    for (label, p) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
        let _ = writeln!(
            out,
            "{name}_window{{quantile=\"{label}\",window=\"{WINDOW_RANGE_SECS}s\"}} {}",
            snap.percentile(p)
        );
    }
    let _ = writeln!(
        out,
        "{name}_window_count{{window=\"{WINDOW_RANGE_SECS}s\"}} {}",
        snap.count
    );
}

/// The table's rows with their help text, then the interned metrics of
/// the same kind, which have none.
fn with_help<M>(
    known: &'static [Known<M>],
    interned: Vec<&'static M>,
) -> impl Iterator<Item = (&'static M, Option<&'static str>)> {
    let known = known.iter().map(|k| (k.metric, Some(k.help)));
    known.chain(interned.into_iter().map(|m| (m, None)))
}

/// Render every registered metric in the Prometheus text exposition
/// format, including windowed quantiles over the trailing minute.
pub fn prometheus_text() -> String {
    let mut out = String::with_capacity(16 * 1024);
    for (counter, help) in with_help(known_counters(), dynamic_counters()) {
        let name = prom_name(counter.name());
        push_head(&mut out, &name, help, "counter");
        let _ = writeln!(out, "{name} {}", counter.get());
    }
    for known in known_gauges() {
        let name = prom_name(known.metric.name());
        push_head(&mut out, &name, Some(known.help), "gauge");
        let _ = writeln!(out, "{name} {}", known.metric.get());
    }
    for (histogram, help) in with_help(known_histograms(), dynamic_histograms()) {
        let name = prom_name(histogram.name());
        push_summary(&mut out, &name, help, &histogram.snapshot());
        push_window(&mut out, &name, &histogram.windowed(WINDOW_RANGE_SECS));
    }
    if let Some(workers) = global_workers() {
        out.push_str("# TYPE snap_pool_worker_jobs gauge\n");
        for (id, jobs) in workers.snapshot().into_iter().enumerate() {
            let _ = writeln!(out, "snap_pool_worker_jobs{{worker=\"{id}\"}} {jobs}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let request = format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_report_and_404() {
        crate::metrics::well_known::SHUFFLE_MERGE_NS.record(1234);
        let server = serve("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE snap_pool_jobs_executed counter"));
        assert!(body.contains("snap_shuffle_merge_ns{quantile=\"0.99\"}"));
        assert!(body.contains("snap_shuffle_merge_ns_window{quantile=\"0.99\",window=\"60s\"}"));

        let (status, body) = get(addr, "/report.json");
        assert_eq!(status, 200);
        assert!(body.starts_with('{') && body.trim_end().ends_with('}'));
        assert!(body.contains("\"counters\""));

        let (status, body) = get(addr, "/");
        assert_eq!(status, 200);
        assert!(body.contains("/metrics"));

        let (status, _) = get(addr, "/no-such-page");
        assert_eq!(status, 404);

        server.shutdown();
    }

    #[test]
    fn profile_endpoint_returns_folded_stacks() {
        let server = serve("127.0.0.1:0").expect("bind");
        crate::profile::register_thread();
        // Hold a frame on this thread's stack while the profile runs.
        crate::profile::push_frame("test.serve.busy");
        let (status, body) = get(server.addr(), "/profile?seconds=1&hz=200");
        crate::profile::pop_frame();
        assert_eq!(status, 200);
        assert!(!body.is_empty(), "profile body empty");
        for line in body.lines() {
            assert!(line.rsplit_once(' ').is_some(), "bad folded line: {line}");
        }
        assert!(
            body.contains("test.serve.busy"),
            "busy frame missing from profile:\n{body}"
        );
        server.shutdown();
    }

    #[test]
    fn scrape_counter_and_overhead_advance() {
        let server = serve("127.0.0.1:0").expect("bind");
        let before = TRACE_METRICS_SCRAPES.get();
        let _ = get(server.addr(), "/metrics");
        assert!(TRACE_METRICS_SCRAPES.get() > before);
        server.shutdown();
    }

    #[test]
    fn trickling_client_cannot_hold_the_accept_loop() {
        let server = serve("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        // Connects first, so the accept loop (FIFO backlog) takes it
        // first, then sends one header byte every 200 ms for up to 8 s —
        // each read sees data well inside any per-read timeout.
        let mut slow = TcpStream::connect(addr).expect("connect");
        slow.write_all(b"GET /metrics HTTP/1.1\r\nX-Slow: ")
            .unwrap();
        let trickler = std::thread::spawn(move || {
            for _ in 0..40 {
                std::thread::sleep(Duration::from_millis(200));
                if slow.write_all(b"a").is_err() {
                    break;
                }
            }
        });
        let began = Instant::now();
        let (status, _) = get(addr, "/metrics");
        let waited = began.elapsed();
        assert_eq!(status, 200);
        assert!(
            waited < Duration::from_secs(4),
            "a trickling client held /metrics for {waited:?}"
        );
        trickler.join().unwrap();
        server.shutdown();
    }

    /// Send `request` verbatim and return the status code.
    fn raw_status(addr: SocketAddr, request: &[u8]) -> u16 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code")
    }

    #[test]
    fn non_get_and_malformed_requests_get_client_errors() {
        let server = serve("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        assert_eq!(raw_status(addr, b"POST /metrics HTTP/1.1\r\n\r\n"), 405);
        assert_eq!(raw_status(addr, b"DELETE / HTTP/1.1\r\n\r\n"), 405);
        assert_eq!(raw_status(addr, b"GET\r\n\r\n"), 400);
        assert_eq!(raw_status(addr, b"\r\n\r\n"), 400);
        // The listener survives the bad requests.
        assert_eq!(get(addr, "/").0, 200);
        server.shutdown();
    }

    #[test]
    fn summary_and_window_lines_follow_the_snapshot() {
        let mut buckets = [0u64; crate::metrics::HISTOGRAM_BUCKETS];
        buckets[2] = 3; // three samples in [4, 8)
        buckets[9] = 1; // one in [512, 1024)
        let snap = HistogramSnapshot {
            name: "test.latency",
            count: 4,
            sum: 615,
            min: 5,
            max: 600,
            buckets,
        };
        let mut out = String::new();
        push_summary(&mut out, "snap_test_latency", Some("how long"), &snap);
        push_window(&mut out, "snap_test_latency", &snap);
        assert_eq!(
            out,
            "# HELP snap_test_latency how long\n\
             # TYPE snap_test_latency summary\n\
             snap_test_latency{quantile=\"0.5\"} 7\n\
             snap_test_latency{quantile=\"0.95\"} 600\n\
             snap_test_latency{quantile=\"0.99\"} 600\n\
             snap_test_latency_sum 615\n\
             snap_test_latency_count 4\n\
             # TYPE snap_test_latency_window gauge\n\
             snap_test_latency_window{quantile=\"0.5\",window=\"60s\"} 7\n\
             snap_test_latency_window{quantile=\"0.95\",window=\"60s\"} 600\n\
             snap_test_latency_window{quantile=\"0.99\",window=\"60s\"} 600\n\
             snap_test_latency_window_count{window=\"60s\"} 4\n"
        );
    }

    #[test]
    fn help_text_is_escaped() {
        let mut out = String::new();
        push_head(&mut out, "snap_x", Some("a\\b\nc"), "counter");
        assert_eq!(out, "# HELP snap_x a\\\\b\\nc\n# TYPE snap_x counter\n");
    }

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(prom_name("shuffle.merge_ns"), "snap_shuffle_merge_ns");
        assert_eq!(prom_name("span.exec.chunk.ns"), "snap_span_exec_chunk_ns");
    }

    #[test]
    fn query_params_parse() {
        assert_eq!(query_param("seconds=3&hz=50", "seconds"), Some(3));
        assert_eq!(query_param("seconds=3&hz=50", "hz"), Some(50));
        assert_eq!(query_param("seconds=x", "seconds"), None);
        assert_eq!(query_param("", "seconds"), None);
    }
}
