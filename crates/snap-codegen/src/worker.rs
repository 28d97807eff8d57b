//! Persistent native workers: the compiled tier without the spawn tax.
//!
//! PR 9's harness spawns a fresh process per invocation and pays ~1.8 ms
//! of spawn + line-protocol cost for a 1200-element map — 58× the batch
//! tier. This module keeps the compiled binary **alive**: every emitted
//! program (map and MapReduce) grows a `--serve` mode — read a
//! length-prefixed binary frame from stdin, process it, write the
//! response frame, repeat until EOF — and a process-wide [`NativePool`]
//! keeps one warm [`NativeWorker`] per program, keyed by program name
//! and pinned to the content-addressed binary the compile cache
//! produced. The FastFlow/SkePU farm lineage in PAPERS.md does exactly
//! this: long-lived workers that stream blocks, never respawning.
//!
//! **Frame protocol** (native endianness — worker and host are the same
//! machine by construction):
//!
//! * map request/response: `[u64 n][n × f64]`
//! * MapReduce request/response: `[u64 npairs]` then per pair
//!   `[u32 klen][klen key bytes][f64 val]` (one frame is one complete
//!   MapReduce job — grouping never spans frames)
//! * `[u64::MAX]` is the **poison frame**: the worker exits abruptly.
//!   It exists so crash recovery is deterministically testable.
//!
//! Binary `f64` frames are not a convenience: the line protocol costs
//! ~450 ns/element in format/strtod/printf alone, which no amount of
//! spawn amortization recovers; raw bits cost a few ns/element of pipe
//! bandwidth and are trivially bit-exact, so the four-tier equivalence
//! contract (tree-walk ≡ scalar ≡ batch ≡ native) holds with no
//! round-trip argument needed.
//!
//! **Lifecycle & crash ladder.** On first use of a program the pool
//! spawns `binary --serve`, reads the text handshake line
//! (`snap-native-worker <version> <kind>`), and verifies version and
//! payload kind before any frame is sent. A frame failure (worker
//! crashed, pipe closed, short read) discards the worker, respawns it
//! **once** (`codegen.worker_restarts`) and retries the frame; a second
//! failure returns the error to the caller. Warm workers idle past the
//! pool's reap deadline ([`NATIVE_IDLE_REAP`] by default) are reaped
//! on the next pool access, and a recompile under a new cache key
//! retires the old worker instead of letting it serve stale code
//! (`codegen.worker_reaped` either way).
//!
//! The warm worker is a **test transport**, not a tier `ring_map` picks:
//! `codegen_check --persistent`, the `native_worker_diff` /
//! `native_worker_chaos` suites and the `a10_native_amortized` bench
//! compile a ring with [`compile_native_map`] and drive the returned
//! program through the pool themselves.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use snap_ast::Ring;
use snap_trace::well_known;

use crate::harness::{fnv1a, Harness, HarnessError};
use crate::openmp::emit_map_openmp;

/// Protocol version the host expects in the worker handshake line.
pub const NATIVE_WORKER_VERSION: u32 = 1;

/// The poison frame count: a worker that reads it exits abruptly
/// (exit code 86) without answering — the deterministic crash hook.
pub const POISON_FRAME: u64 = u64::MAX;

/// How long a warm worker may sit idle before the pool reaps it.
pub const NATIVE_IDLE_REAP: Duration = Duration::from_secs(30);

/// What payload a compiled `--serve` program processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerKind {
    /// `f64` lanes in, `f64` lanes out.
    Map,
    /// Key/value pairs in, reduced groups out.
    MapReduce,
}

impl WorkerKind {
    /// The kind token the worker announces in its handshake line.
    pub fn label(self) -> &'static str {
        match self {
            WorkerKind::Map => "map",
            WorkerKind::MapReduce => "mapreduce",
        }
    }
}

/// A compiled program a warm worker can serve: the pool key (`name`),
/// the content-addressed binary the compile cache published, and the
/// payload kind. The binary path doubles as the staleness check — a
/// recompile under a new cache key yields a new path, and the pool
/// retires any worker still holding the old one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeProgram {
    /// Stable program name (the pool key; one warm worker per name).
    pub name: String,
    /// Content-addressed binary path from [`Harness::compile`].
    pub binary: PathBuf,
    /// Payload kind the `--serve` loop speaks.
    pub kind: WorkerKind,
}

fn run_failed(name: &str, message: String) -> HarnessError {
    HarnessError::RunFailed {
        name: name.to_owned(),
        message,
    }
}

/// A `f64` slice viewed as its native-endian bytes, copy-free — the
/// map-frame payload IS the slice's memory. Kept over a safe
/// `to_ne_bytes` loop because the copy made `persistent_deep_120000`
/// about 3× slower.
fn f64_bytes(values: &[f64]) -> &[u8] {
    // SAFETY: the pointer comes from a live `&[f64]`, so it is non-null
    // and valid for reads of `size_of_val(values)` bytes (a size the
    // slice already occupies) for the borrowed lifetime; `u8` has
    // alignment 1 and every byte of an `f64` is initialized, so any
    // byte may be read as a `u8`.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

/// Mutable byte view of a `f64` slice, so a response frame can be read
/// straight into the output vector.
fn f64_bytes_mut(values: &mut [f64]) -> &mut [u8] {
    // SAFETY: as in `f64_bytes`, and the `&mut` borrow makes the view
    // the only access to that memory while it lives; every bit pattern
    // written through it is a valid `f64`, so the slice stays valid
    // afterwards.
    unsafe {
        std::slice::from_raw_parts_mut(
            values.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(values),
        )
    }
}

/// One live `--serve` process: spawned once, fed frames until it is
/// dropped (which kills and reaps the child). Frames are synchronous —
/// write request, read response — so a worker is driven from behind a
/// mutex in the pool.
#[derive(Debug)]
pub struct NativeWorker {
    name: String,
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl NativeWorker {
    /// Spawn `binary --serve` and verify the handshake line
    /// (`snap-native-worker <version> <kind>`). Bumps
    /// `codegen.worker_spawns` on success.
    pub fn spawn(program: &NativeProgram) -> Result<NativeWorker, HarnessError> {
        let mut child = Command::new(&program.binary)
            .arg("--serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| run_failed(&program.name, format!("spawning worker: {e}")))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let handshake = stdout.read_line(&mut line);
        let expected = format!(
            "snap-native-worker {NATIVE_WORKER_VERSION} {}",
            program.kind.label()
        );
        let ok = matches!(handshake, Ok(n) if n > 0) && line.trim_end() == expected;
        if !ok {
            let _ = child.kill();
            let _ = child.wait();
            return Err(run_failed(
                &program.name,
                format!("bad worker handshake: got {line:?}, want {expected:?}"),
            ));
        }
        well_known::CODEGEN_WORKER_SPAWNS.incr();
        Ok(NativeWorker {
            name: program.name.clone(),
            child,
            stdin,
            stdout,
        })
    }

    fn io_failed(&self, what: &str, e: std::io::Error) -> HarnessError {
        run_failed(&self.name, format!("{what}: {e}"))
    }

    fn read_header(&mut self) -> Result<u64, HarnessError> {
        let mut header = [0u8; 8];
        self.stdout
            .read_exact(&mut header)
            .map_err(|e| self.io_failed("reading frame header", e))?;
        Ok(u64::from_ne_bytes(header))
    }

    /// Send one map frame and read the response: `[u64 n][n × f64]`
    /// both ways, bit-exact. Bumps `codegen.worker_frames` and
    /// `codegen.native_elems`.
    ///
    /// Zero-copy on both legs: the request payload is the caller's
    /// slice viewed as bytes, and the response is read straight into
    /// the output vector. The per-element cost of a frame is therefore
    /// pure pipe bandwidth — this is what lets the warm worker undercut
    /// `eval_batch` instead of drowning the compiled tier in encode
    /// overhead.
    pub fn map_frame(&mut self, inputs: &[f64]) -> Result<Vec<f64>, HarnessError> {
        self.stdin
            .write_all(&(inputs.len() as u64).to_ne_bytes())
            .and_then(|()| self.stdin.write_all(f64_bytes(inputs)))
            .and_then(|()| self.stdin.flush())
            .map_err(|e| self.io_failed("writing map frame", e))?;
        let n = self.read_header()?;
        if n != inputs.len() as u64 {
            return Err(run_failed(
                &self.name,
                format!("map frame answered {n} elements for {}", inputs.len()),
            ));
        }
        let mut out = vec![0.0f64; inputs.len()];
        self.stdout
            .read_exact(f64_bytes_mut(&mut out))
            .map_err(|e| self.io_failed("reading map frame", e))?;
        well_known::CODEGEN_WORKER_FRAMES.incr();
        well_known::CODEGEN_NATIVE_ELEMS.add(inputs.len() as u64);
        Ok(out)
    }

    /// Send one MapReduce frame (a complete job: map, shuffle, reduce)
    /// and read the reduced groups back.
    pub fn mapreduce_frame(
        &mut self,
        pairs: &[(String, f64)],
    ) -> Result<Vec<(String, f64)>, HarnessError> {
        let mut frame = Vec::with_capacity(8 + pairs.len() * 24);
        frame.extend_from_slice(&(pairs.len() as u64).to_ne_bytes());
        for (key, val) in pairs {
            frame.extend_from_slice(&(key.len() as u32).to_ne_bytes());
            frame.extend_from_slice(key.as_bytes());
            frame.extend_from_slice(&val.to_ne_bytes());
        }
        self.stdin
            .write_all(&frame)
            .and_then(|()| self.stdin.flush())
            .map_err(|e| self.io_failed("writing mapreduce frame", e))?;
        let groups = self.read_header()?;
        if groups > pairs.len() as u64 {
            return Err(run_failed(
                &self.name,
                format!(
                    "mapreduce frame answered {groups} groups for {} pairs",
                    pairs.len()
                ),
            ));
        }
        let mut out = Vec::with_capacity(groups as usize);
        for _ in 0..groups {
            let mut klen = [0u8; 4];
            self.stdout
                .read_exact(&mut klen)
                .map_err(|e| self.io_failed("reading group key length", e))?;
            let mut key = vec![0u8; u32::from_ne_bytes(klen) as usize];
            self.stdout
                .read_exact(&mut key)
                .map_err(|e| self.io_failed("reading group key", e))?;
            let mut val = [0u8; 8];
            self.stdout
                .read_exact(&mut val)
                .map_err(|e| self.io_failed("reading group value", e))?;
            out.push((
                String::from_utf8_lossy(&key).into_owned(),
                f64::from_ne_bytes(val),
            ));
        }
        well_known::CODEGEN_WORKER_FRAMES.incr();
        well_known::CODEGEN_NATIVE_ELEMS.add(pairs.len() as u64);
        Ok(out)
    }

    /// Send the poison frame and wait for the worker to die. The dead
    /// worker is left in place so the next frame exercises the recovery
    /// ladder — this is a test/chaos hook, not part of normal operation.
    pub fn poison(&mut self) {
        let _ = self
            .stdin
            .write_all(&POISON_FRAME.to_ne_bytes())
            .and_then(|()| self.stdin.flush());
        let _ = self.child.wait();
    }

    /// Whether the serve process is still running.
    pub fn is_alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// The worker's OS process id (for tests asserting respawn).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for NativeWorker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct PoolEntry {
    binary: PathBuf,
    kind: WorkerKind,
    slot: Arc<Mutex<Option<NativeWorker>>>,
    last_used: Instant,
}

/// One warm worker per compiled program. Frames to the same program
/// serialize on the worker's mutex (the `--serve` protocol is
/// synchronous); different programs proceed concurrently. See the
/// module docs for the crash ladder and staleness rules.
pub struct NativePool {
    entries: Mutex<HashMap<String, PoolEntry>>,
    idle_after: Duration,
}

impl Default for NativePool {
    fn default() -> Self {
        NativePool::new(NATIVE_IDLE_REAP)
    }
}

impl NativePool {
    /// A pool reaping workers idle longer than `idle_after`.
    pub fn new(idle_after: Duration) -> NativePool {
        NativePool {
            entries: Mutex::new(HashMap::new()),
            idle_after,
        }
    }

    /// Find-or-create the worker slot for `program`, applying the two
    /// retirement rules: entries idle past the deadline are dropped,
    /// and an entry whose binary no longer matches the program's
    /// content-addressed path is replaced (the old worker dies with its
    /// last `Arc`, so an in-flight frame finishes before the kill).
    fn checkout(&self, program: &NativeProgram) -> Arc<Mutex<Option<NativeWorker>>> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        let idle_after = self.idle_after;
        entries.retain(|name, entry| {
            let keep = name == &program.name || now.duration_since(entry.last_used) < idle_after;
            if !keep {
                well_known::CODEGEN_WORKER_REAPED.incr();
            }
            keep
        });
        let entry = entries
            .entry(program.name.clone())
            .or_insert_with(|| PoolEntry {
                binary: program.binary.clone(),
                kind: program.kind,
                slot: Arc::new(Mutex::new(None)),
                last_used: now,
            });
        if entry.binary != program.binary || entry.kind != program.kind {
            well_known::CODEGEN_WORKER_REAPED.incr();
            entry.binary = program.binary.clone();
            entry.kind = program.kind;
            entry.slot = Arc::new(Mutex::new(None));
        }
        entry.last_used = now;
        Arc::clone(&entry.slot)
    }

    /// Run one frame through the warm worker with the crash ladder
    /// applied: spawn on first use, respawn exactly once on a frame
    /// failure (`codegen.worker_restarts`), propagate the error after a
    /// second failure.
    fn with_worker<T>(
        &self,
        program: &NativeProgram,
        frame: impl Fn(&mut NativeWorker) -> Result<T, HarnessError>,
    ) -> Result<T, HarnessError> {
        let slot = self.checkout(program);
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            *guard = Some(NativeWorker::spawn(program)?);
        }
        let first = frame(guard.as_mut().expect("worker just ensured"));
        match first {
            Ok(out) => Ok(out),
            Err(_) => {
                // The worker (or its protocol state) is gone; discard it,
                // respawn once, and retry the same frame.
                *guard = None;
                let mut worker = NativeWorker::spawn(program)?;
                well_known::CODEGEN_WORKER_RESTARTS.incr();
                match frame(&mut worker) {
                    Ok(out) => {
                        *guard = Some(worker);
                        Ok(out)
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// One map frame through the warm worker for `program`.
    pub fn map_frame(
        &self,
        program: &NativeProgram,
        inputs: &[f64],
    ) -> Result<Vec<f64>, HarnessError> {
        if program.kind != WorkerKind::Map {
            return Err(run_failed(&program.name, "not a map program".into()));
        }
        self.with_worker(program, |w| w.map_frame(inputs))
    }

    /// One MapReduce frame (a complete job) through the warm worker.
    pub fn mapreduce_frame(
        &self,
        program: &NativeProgram,
        pairs: &[(String, f64)],
    ) -> Result<Vec<(String, f64)>, HarnessError> {
        if program.kind != WorkerKind::MapReduce {
            return Err(run_failed(&program.name, "not a mapreduce program".into()));
        }
        self.with_worker(program, |w| w.mapreduce_frame(pairs))
    }

    /// Poison the named warm worker (send [`POISON_FRAME`], wait for
    /// death, leave the corpse in the slot). Returns false when no live
    /// worker exists under that name. Test/chaos hook.
    pub fn poison(&self, name: &str) -> bool {
        let slot = {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            entries.get(name).map(|e| Arc::clone(&e.slot))
        };
        let Some(slot) = slot else { return false };
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_mut() {
            Some(worker) => {
                worker.poison();
                true
            }
            None => false,
        }
    }

    /// Drop the named entry (killing its worker) regardless of age.
    pub fn retire(&self, name: &str) -> bool {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let removed = entries.remove(name).is_some();
        if removed {
            well_known::CODEGEN_WORKER_REAPED.incr();
        }
        removed
    }

    /// Number of entries currently warm (spawned or pending spawn).
    pub fn warm_entries(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// The OS pid of the named warm worker, if one is live.
    pub fn worker_pid(&self, name: &str) -> Option<u32> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let slot = Arc::clone(&entries.get(name)?.slot);
        drop(entries);
        let guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        guard.as_ref().map(NativeWorker::pid)
    }
}

/// The process-wide warm-worker pool (lazily created).
pub fn native_pool() -> &'static NativePool {
    static POOL: OnceLock<NativePool> = OnceLock::new();
    POOL.get_or_init(NativePool::default)
}

/// Emit and compile (content-addressed cache) the native map program
/// for `ring`, ready for [`NativePool::map_frame`]. Errors when the ring
/// does not translate to C, no toolchain exists, or the compile fails.
pub fn compile_native_map(ring: &Ring) -> Result<NativeProgram, HarnessError> {
    let source = emit_map_openmp(ring)
        .map_err(|e| HarnessError::Io(format!("ring does not translate to C: {e}")))?;
    let harness = Harness::detect()?;
    let name = format!("native_ring_{:016x}", fnv1a(source.as_bytes()));
    let compiled = harness.compile(&name, &[("map_program.c", &source)], true)?;
    Ok(NativeProgram {
        name,
        binary: compiled.binary,
        kind: WorkerKind::Map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_program(name: &str) -> NativeProgram {
        NativeProgram {
            name: name.to_owned(),
            binary: PathBuf::from(format!("/nonexistent/{name}")),
            kind: WorkerKind::Map,
        }
    }

    #[test]
    fn pool_rejects_mismatched_kinds() {
        let pool = NativePool::default();
        let mut program = fake_program("kind_test");
        program.kind = WorkerKind::MapReduce;
        assert!(pool.map_frame(&program, &[1.0]).is_err());
        let program = fake_program("kind_test2");
        assert!(pool.mapreduce_frame(&program, &[]).is_err());
    }

    #[test]
    fn spawn_of_missing_binary_is_an_error_not_a_panic() {
        let pool = NativePool::default();
        let err = pool.map_frame(&fake_program("missing"), &[1.0]);
        assert!(matches!(err, Err(HarnessError::RunFailed { .. })));
    }

    #[test]
    fn untranslatable_ring_is_an_error_before_any_compile() {
        // A command ring has no C expression: the emitter refuses it,
        // so the error is the same with or without a toolchain.
        let err = compile_native_map(&Ring::command(vec![]));
        assert!(matches!(err, Err(HarnessError::Io(_))), "got {err:?}");
    }

    #[test]
    fn equal_rings_compile_to_one_cached_program() {
        use snap_ast::builder::*;
        if Harness::detect().is_err() {
            eprintln!("codegen.toolchain_missing — skipping native compile test");
            return;
        }
        // The program is keyed on the emitted source, not on a ring's
        // identity: two separately built equal rings share one binary,
        // and a different ring gets its own.
        let ring = Ring::reporter(mul(empty_slot(), num(2.0)));
        let twin = Ring::reporter(mul(empty_slot(), num(2.0)));
        let program = compile_native_map(&ring).unwrap();
        assert_eq!(program, compile_native_map(&twin).unwrap());
        assert_eq!(program.kind, WorkerKind::Map);
        let tripler = compile_native_map(&Ring::reporter(mul(empty_slot(), num(3.0)))).unwrap();
        assert_ne!(program.binary, tripler.binary);

        let pool = NativePool::default();
        assert_eq!(
            pool.map_frame(&program, &[1.5, -2.0, 0.0]).unwrap(),
            vec![3.0, -4.0, 0.0]
        );
    }

    #[test]
    fn idle_entries_are_reaped_on_next_checkout() {
        let pool = NativePool::new(Duration::from_millis(1));
        // Entries are created even when the spawn later fails, so the
        // reaping path is observable without a toolchain.
        let _ = pool.map_frame(&fake_program("idle_a"), &[1.0]);
        assert_eq!(pool.warm_entries(), 1);
        std::thread::sleep(Duration::from_millis(5));
        let _ = pool.map_frame(&fake_program("idle_b"), &[1.0]);
        assert_eq!(pool.warm_entries(), 1, "stale idle_a must be gone");
        assert!(pool.retire("idle_b"));
        assert_eq!(pool.warm_entries(), 0);
    }
}
