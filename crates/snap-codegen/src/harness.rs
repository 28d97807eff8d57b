//! The native tier: compile emitted C/OpenMP with the system toolchain
//! and run it on the same inputs the VM uses.
//!
//! The paper's §6 claim is that the pictures are an IDE for *real*
//! parallel targets. This module closes that loop: a [`Toolchain`] probe
//! (`cc`/`gcc`/`clang`, `-fopenmp` detected at runtime with a
//! single-thread fallback), a content-addressed compile cache under
//! `target/codegen-cache/`, and compile/run plumbing that pipes datasets
//! into the generated `main` over a line/CSV protocol and reads results
//! back for differential comparison against the interpreted tiers
//! (tree-walk ≡ scalar ≡ batch ≡ native).
//!
//! Equivalence rules, in order of strictness:
//! - map programs are compared **bit-for-bit** ([`bits_eq`]): the
//!   emitted C computes the same IEEE-754 double operations in the same
//!   order as [`snap_ast::bytecode::num_binop`] (the harness compiles
//!   with `-ffp-contract=off` so GCC cannot fuse `a*b+c` into an FMA);
//! - any NaN matches any NaN (the PR 6 rule — payloads and sign are not
//!   observable in Snap!);
//! - MapReduce *reductions* are compared with a relative tolerance
//!   ([`MAPREDUCE_REL_TOL`]): the generated kvp.h keeps the paper's
//!   `float val`, and the OpenMP reduction loop may reassociate, so the
//!   native sum is allowed to differ in low-order bits.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use snap_ast::pure::PureFn;
use snap_ast::{Ring, Value};
use snap_trace::well_known;

/// Relative tolerance for reassociated / `float`-valued OpenMP
/// reductions (documented in DESIGN.md §Native tier). The kvp.h value
/// field is a `float` (paper fidelity), so ~7 significant digits
/// survive; 1e-4 leaves headroom for reassociation on top.
pub const MAPREDUCE_REL_TOL: f64 = 1e-4;

/// Errors from toolchain probing, compilation, or execution.
#[derive(Debug, Clone)]
pub enum HarnessError {
    /// No C compiler was found on this host.
    ToolchainMissing,
    /// The compiler rejected the emitted sources.
    CompileFailed {
        /// Program name (cache key prefix).
        name: String,
        /// Compiler stderr.
        stderr: String,
    },
    /// The compiled binary exited nonzero or could not be spawned.
    RunFailed {
        /// Program name.
        name: String,
        /// What happened.
        message: String,
    },
    /// Filesystem trouble (cache dir, temp files).
    Io(String),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::ToolchainMissing => {
                write!(f, "no C toolchain detected (tried $CC, cc, gcc, clang)")
            }
            HarnessError::CompileFailed { name, stderr } => {
                write!(f, "{name}: compilation failed:\n{stderr}")
            }
            HarnessError::RunFailed { name, message } => write!(f, "{name}: run failed: {message}"),
            HarnessError::Io(msg) => write!(f, "codegen harness I/O error: {msg}"),
        }
    }
}

impl std::error::Error for HarnessError {}

fn io_err(e: std::io::Error) -> HarnessError {
    HarnessError::Io(e.to_string())
}

/// A detected system C toolchain.
#[derive(Debug, Clone)]
pub struct Toolchain {
    /// Compiler command (`cc`, `gcc`, `clang`, or `$CC`).
    pub cc: String,
    /// First line of `--version` output.
    pub version: String,
    /// Whether `-fopenmp` compiles and links on this host. When false
    /// the harness still compiles every program — the pragmas are
    /// ignored and the binary runs single-threaded.
    pub openmp: bool,
    /// Whether the compiler accepts `-march=native`. Probed because
    /// clang on some targets (notably aarch64) rejects the spelling;
    /// when false the harness compiles for the baseline ISA.
    pub native_arch: bool,
}

/// Probe for a C compiler once per process; the result is cached.
///
/// Candidates, in order: `$CC`, `cc`, `gcc`, `clang`. A candidate is
/// accepted when `--version` succeeds. OpenMP support is probed by
/// actually compiling a one-line `#pragma omp parallel` program with
/// `-fopenmp`. Returns `None` (and bumps `codegen.toolchain_missing` on
/// every call, so skips stay visible in reports) when nothing works.
pub fn detect_toolchain() -> Option<&'static Toolchain> {
    static PROBE: OnceLock<Option<Toolchain>> = OnceLock::new();
    let found = PROBE.get_or_init(probe_toolchain).as_ref();
    if found.is_none() {
        well_known::CODEGEN_TOOLCHAIN_MISSING.incr();
    }
    found
}

fn probe_toolchain() -> Option<Toolchain> {
    let env_cc = std::env::var("CC").ok();
    let mut candidates: Vec<&str> = Vec::new();
    if let Some(cc) = env_cc.as_deref() {
        if !cc.is_empty() {
            candidates.push(cc);
        }
    }
    candidates.extend(["cc", "gcc", "clang"]);
    for cand in candidates {
        let out = Command::new(cand)
            .arg("--version")
            .stdin(Stdio::null())
            .output();
        let Ok(out) = out else { continue };
        if !out.status.success() {
            continue;
        }
        let version = String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_owned();
        let openmp = probe_openmp(cand);
        let native_arch = probe_native_arch(cand);
        return Some(Toolchain {
            cc: cand.to_owned(),
            version,
            openmp,
            native_arch,
        });
    }
    None
}

/// Compile a minimal OpenMP program to see whether `-fopenmp` links.
fn probe_openmp(cc: &str) -> bool {
    let dir = std::env::temp_dir().join(format!("snap-omp-probe-{}", std::process::id()));
    if fs::create_dir_all(&dir).is_err() {
        return false;
    }
    let src = dir.join("probe.c");
    let bin = dir.join("probe");
    let program = "#include <omp.h>\nint main(void) {\n    int n = 0;\n    #pragma omp parallel\n    { n = omp_get_thread_num(); }\n    return n >= 0 ? 0 : 1;\n}\n";
    let ok = fs::write(&src, program).is_ok()
        && Command::new(cc)
            .args(["-fopenmp", "-O1"])
            .arg(&src)
            .arg("-o")
            .arg(&bin)
            .stdin(Stdio::null())
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false);
    let _ = fs::remove_dir_all(&dir);
    ok
}

/// Compile a trivial program with `-march=native` to see whether the
/// compiler accepts the flag on this target.
fn probe_native_arch(cc: &str) -> bool {
    let dir = std::env::temp_dir().join(format!("snap-march-probe-{}", std::process::id()));
    if fs::create_dir_all(&dir).is_err() {
        return false;
    }
    let src = dir.join("probe.c");
    let bin = dir.join("probe");
    let ok = fs::write(&src, "int main(void) { return 0; }\n").is_ok()
        && Command::new(cc)
            .args(["-march=native", "-O1"])
            .arg(&src)
            .arg("-o")
            .arg(&bin)
            .stdin(Stdio::null())
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false);
    let _ = fs::remove_dir_all(&dir);
    ok
}

/// Where compiled codegen binaries are cached: `target/codegen-cache/`
/// when run from the repo root (CI, `codegen_check`), else a
/// per-user directory under the system temp dir (unit tests run with
/// the crate directory as CWD, where `./target` does not exist).
pub fn default_cache_dir() -> PathBuf {
    let target = Path::new("target");
    if target.is_dir() {
        target.join("codegen-cache")
    } else {
        std::env::temp_dir().join("snap-codegen-cache")
    }
}

/// FNV-1a 64-bit over bytes — the compile-cache content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A compiled program, ready to run.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Program name (for error messages).
    pub name: String,
    /// Path of the cached binary.
    pub binary: PathBuf,
    /// Whether this compile was served from the cache.
    pub cached: bool,
}

impl CompiledProgram {
    /// Run the binary feeding `stdin`; returns captured stdout. Bumps
    /// `codegen.runs`; a nonzero exit or spawn failure is an error.
    pub fn run(&self, stdin: &str) -> Result<String, HarnessError> {
        let mut child = Command::new(&self.binary)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| HarnessError::RunFailed {
                name: self.name.clone(),
                message: e.to_string(),
            })?;
        // The harness writes at most a few MB and the generated main
        // reads stdin to EOF before producing output, so a plain
        // write-then-wait cannot deadlock on pipe buffers at the sizes
        // the scenarios use. Keep it simple.
        if let Some(mut pipe) = child.stdin.take() {
            pipe.write_all(stdin.as_bytes())
                .map_err(|e| HarnessError::RunFailed {
                    name: self.name.clone(),
                    message: format!("writing stdin: {e}"),
                })?;
        }
        let out = child
            .wait_with_output()
            .map_err(|e| HarnessError::RunFailed {
                name: self.name.clone(),
                message: e.to_string(),
            })?;
        if !out.status.success() {
            return Err(HarnessError::RunFailed {
                name: self.name.clone(),
                message: format!(
                    "exit {:?}: {}",
                    out.status.code(),
                    String::from_utf8_lossy(&out.stderr)
                ),
            });
        }
        well_known::CODEGEN_RUNS.incr();
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    }
}

/// Compile-and-run front end over a detected [`Toolchain`].
#[derive(Debug)]
pub struct Harness {
    toolchain: Toolchain,
    cache_dir: PathBuf,
}

impl Harness {
    /// A harness over the probed system toolchain, caching binaries in
    /// [`default_cache_dir`]. `Err(ToolchainMissing)` on bare hosts.
    pub fn detect() -> Result<Harness, HarnessError> {
        match detect_toolchain() {
            Some(tc) => Ok(Harness::with_toolchain(tc.clone(), default_cache_dir())),
            None => Err(HarnessError::ToolchainMissing),
        }
    }

    /// A harness over an explicit toolchain and cache directory.
    pub fn with_toolchain(toolchain: Toolchain, cache_dir: PathBuf) -> Harness {
        Harness {
            toolchain,
            cache_dir,
        }
    }

    /// The toolchain this harness compiles with.
    pub fn toolchain(&self) -> &Toolchain {
        &self.toolchain
    }

    /// The flags a compile will use (also part of the cache key).
    fn flags(&self, openmp: bool) -> Vec<&'static str> {
        // -ffp-contract=off: keep double arithmetic bit-identical to the
        // interpreter (no FMA fusion, even at -O3 / -march=native — IEEE
        // ops are exactly rounded at any vector width, so vectorizing
        // the lane loop is still bit-exact); -std=c99 pins the dialect
        // every emitted program targets; -Wall -Werror is the PR 9 bar
        // that every emitted program must clear.
        let mut flags = vec!["-O3", "-std=c99", "-Wall", "-Werror", "-ffp-contract=off"];
        if self.toolchain.native_arch {
            flags.push("-march=native");
        }
        if openmp && self.toolchain.openmp {
            flags.push("-fopenmp");
        } else {
            // Without -fopenmp the `#pragma omp` lines are unknown
            // pragmas; don't let -Werror turn the fallback into a
            // failure.
            flags.push("-Wno-unknown-pragmas");
        }
        flags
    }

    /// Compile named sources into a cached binary. The cache key hashes
    /// the source text, the flags, and the compiler identity, so a
    /// changed emitter or toolchain recompiles while reruns and the
    /// bench job reuse bits (`codegen.cache_hits`/`codegen.cache_misses`).
    pub fn compile(
        &self,
        name: &str,
        sources: &[(&str, &str)],
        openmp: bool,
    ) -> Result<CompiledProgram, HarnessError> {
        let flags = self.flags(openmp);
        let mut keyed = String::new();
        keyed.push_str(&self.toolchain.cc);
        keyed.push('\n');
        keyed.push_str(&self.toolchain.version);
        keyed.push('\n');
        for flag in &flags {
            keyed.push_str(flag);
            keyed.push(' ');
        }
        for (file, text) in sources {
            keyed.push_str(file);
            keyed.push('\n');
            keyed.push_str(text);
        }
        let hash = fnv1a(keyed.as_bytes());
        let binary = self.cache_dir.join(format!("{name}-{hash:016x}"));

        if binary.is_file() {
            well_known::CODEGEN_CACHE_HITS.incr();
            return Ok(CompiledProgram {
                name: name.to_owned(),
                binary,
                cached: true,
            });
        }
        well_known::CODEGEN_CACHE_MISSES.incr();

        fs::create_dir_all(&self.cache_dir).map_err(io_err)?;
        // One work directory per compile, even for two threads of one
        // process compiling the same key.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let work = self.cache_dir.join(format!(
            "build-{name}-{hash:016x}-{}-{seq}",
            std::process::id()
        ));
        fs::create_dir_all(&work).map_err(io_err)?;
        let result = self.compile_in(&work, name, sources, &flags, &binary);
        let _ = fs::remove_dir_all(&work);
        result
    }

    fn compile_in(
        &self,
        work: &Path,
        name: &str,
        sources: &[(&str, &str)],
        flags: &[&str],
        binary: &Path,
    ) -> Result<CompiledProgram, HarnessError> {
        let mut c_files = Vec::new();
        for (file, text) in sources {
            let path = work.join(file);
            fs::write(&path, text).map_err(io_err)?;
            if file.ends_with(".c") {
                c_files.push(path);
            }
        }
        let tmp_bin = work.join("a.out");
        let out = Command::new(&self.toolchain.cc)
            .args(flags)
            .args(&c_files)
            .arg("-o")
            .arg(&tmp_bin)
            .arg("-lm")
            .stdin(Stdio::null())
            .output()
            .map_err(io_err)?;
        if !out.status.success() {
            return Err(HarnessError::CompileFailed {
                name: name.to_owned(),
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
            });
        }
        // rename() makes publication atomic: concurrent compiles of the
        // same key both succeed and one binary wins.
        fs::rename(&tmp_bin, binary).map_err(io_err)?;
        well_known::CODEGEN_COMPILES.incr();
        Ok(CompiledProgram {
            name: name.to_owned(),
            binary: binary.to_path_buf(),
            cached: false,
        })
    }

    /// Compile + run a generated *map* program: encode `inputs` one
    /// value per line, run, decode one value per line back. Bumps
    /// `codegen.native_elems` by the element count.
    pub fn run_map(
        &self,
        name: &str,
        source: &str,
        inputs: &[f64],
    ) -> Result<Vec<f64>, HarnessError> {
        let program = self.compile(name, &[("map_program.c", source)], true)?;
        let stdout = program.run(&encode_values(inputs))?;
        let outputs = decode_values(&stdout)?;
        well_known::CODEGEN_NATIVE_ELEMS.add(inputs.len() as u64);
        if outputs.len() != inputs.len() {
            return Err(HarnessError::RunFailed {
                name: name.to_owned(),
                message: format!(
                    "expected {} output lines, got {}",
                    inputs.len(),
                    outputs.len()
                ),
            });
        }
        Ok(outputs)
    }

    /// Compile + run a generated *MapReduce* program (kvp.h + mapred.c +
    /// driver.c): encode `pairs` as `key,value` CSV lines, run, decode
    /// sorted `key value` result lines back.
    pub fn run_mapreduce(
        &self,
        name: &str,
        program: &crate::openmp::OpenMpProgram,
        pairs: &[(String, f64)],
    ) -> Result<Vec<(String, f64)>, HarnessError> {
        let compiled = self.compile(
            name,
            &[
                ("kvp.h", &program.kvp_h),
                ("mapred.c", &program.mapred_c),
                ("driver.c", &program.driver_c),
            ],
            true,
        )?;
        let stdout = compiled.run(&encode_pairs(pairs))?;
        well_known::CODEGEN_NATIVE_ELEMS.add(pairs.len() as u64);
        decode_pairs(&stdout)
    }
}

// ---------------------------------------------------------------------
// Line/CSV protocol
// ---------------------------------------------------------------------

/// Encode doubles for the generated map `main`: one value per line.
/// `{:e}` is Rust's shortest round-trip exponential form — C `strtod`
/// reads it back to the identical bits, and subnormals stay short
/// (plain `{}` of 5e-324 is ~770 characters, overflowing the generated
/// reader's line buffer).
pub fn encode_values(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * 16);
    for v in values {
        out.push_str(&format!("{v:e}"));
        out.push('\n');
    }
    out
}

/// Decode one double per non-empty line (C prints `%.17g`, which
/// round-trips; `inf`/`nan` spellings parse case-insensitively).
pub fn decode_values(text: &str) -> Result<Vec<f64>, HarnessError> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v: f64 = line
            .parse()
            .map_err(|e| HarnessError::Io(format!("bad protocol line {line:?}: {e}")))?;
        out.push(v);
    }
    Ok(out)
}

/// Encode `(key, value)` pairs as `key,value` CSV lines. The generated
/// reader splits on the *last* comma, so keys containing commas survive.
pub fn encode_pairs(pairs: &[(String, f64)]) -> String {
    let mut out = String::with_capacity(pairs.len() * 24);
    for (key, val) in pairs {
        out.push_str(key);
        out.push(',');
        out.push_str(&format!("{val:e}"));
        out.push('\n');
    }
    out
}

/// Decode the driver's `key value` output lines (split on last space).
pub fn decode_pairs(text: &str) -> Result<Vec<(String, f64)>, HarnessError> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let Some(idx) = line.rfind(' ') else {
            return Err(HarnessError::Io(format!("bad result line {line:?}")));
        };
        let key = line[..idx].to_owned();
        let val: f64 = line[idx + 1..]
            .parse()
            .map_err(|e| HarnessError::Io(format!("bad result line {line:?}: {e}")))?;
        out.push((key, val));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Equivalence rules
// ---------------------------------------------------------------------

/// Bit-for-bit equality with the PR 6 any-NaN rule.
pub fn bits_eq(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
}

/// Tolerant equality for reassociated / `float`-valued reductions: any
/// NaN matches any NaN, exact bits always match, otherwise the relative
/// error must be within `rel_tol` (absolute near zero).
pub fn approx_eq(a: f64, b: f64, rel_tol: f64) -> bool {
    if bits_eq(a, b) || (a.is_nan() && b.is_nan()) {
        return true;
    }
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= rel_tol * scale
}

/// Compare a native map result against an oracle tier bit-for-bit.
/// `Err` carries the first mismatch, for diff reports.
pub fn compare_values(label: &str, native: &[f64], oracle: &[f64]) -> Result<(), String> {
    if native.len() != oracle.len() {
        return Err(format!(
            "{label}: length mismatch: native {} vs oracle {}",
            native.len(),
            oracle.len()
        ));
    }
    for (i, (n, o)) in native.iter().zip(oracle).enumerate() {
        if !bits_eq(*n, *o) {
            return Err(format!(
                "{label}: element {i}: native {n:?} ({:#018x}) != oracle {o:?} ({:#018x})",
                n.to_bits(),
                o.to_bits()
            ));
        }
    }
    Ok(())
}

/// Compare native MapReduce groups against an oracle, keys exact and
/// values within `rel_tol`. Both sides are sorted by key first (the
/// driver sorts with `strncmp`; the VM shuffle has its own order).
pub fn compare_pairs(
    label: &str,
    native: &[(String, f64)],
    oracle: &[(String, f64)],
    rel_tol: f64,
) -> Result<(), String> {
    let mut native = native.to_vec();
    let mut oracle = oracle.to_vec();
    native.sort_by(|a, b| a.0.cmp(&b.0));
    oracle.sort_by(|a, b| a.0.cmp(&b.0));
    if native.len() != oracle.len() {
        return Err(format!(
            "{label}: group count mismatch: native {} vs oracle {}",
            native.len(),
            oracle.len()
        ));
    }
    for ((nk, nv), (ok, ov)) in native.iter().zip(&oracle) {
        if nk != ok {
            return Err(format!(
                "{label}: key mismatch: native {nk:?} vs oracle {ok:?}"
            ));
        }
        if !approx_eq(*nv, *ov, rel_tol) {
            return Err(format!(
                "{label}: value mismatch for key {nk:?}: native {nv:?} vs oracle {ov:?} \
                 (rel tol {rel_tol:e})"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Interpreted oracle tiers (snap-ast only; the pooled tiers live in
// codegen_check, which can see snap-parallel)
// ---------------------------------------------------------------------

/// One map input evaluated by every interpreted tier.
#[derive(Debug, Clone)]
pub struct TierOutputs {
    /// Tree-walk evaluator (the semantics oracle).
    pub treewalk: Vec<f64>,
    /// Scalar numeric program (`PureFn::call`).
    pub scalar: Vec<f64>,
    /// Columnar batch lanes (`eval_batch`), when the ring is batchable.
    pub batch: Option<Vec<f64>>,
}

/// Evaluate `ring` over `inputs` on the tree-walk, scalar, and batch
/// tiers. The three must already agree with each other (PR 5/6 gates);
/// the native tier is compared against all of them.
pub fn oracle_map_tiers(ring: &Arc<Ring>, inputs: &[f64]) -> Result<TierOutputs, HarnessError> {
    let compiled = PureFn::compile(Arc::clone(ring))
        .map_err(|e| HarnessError::Io(format!("ring does not compile: {e:?}")))?;
    let mut treewalk = Vec::with_capacity(inputs.len());
    let mut scalar = Vec::with_capacity(inputs.len());
    for &x in inputs {
        let args = [Value::Number(x)];
        let tw = compiled
            .call_treewalk(&args)
            .map_err(|e| HarnessError::Io(format!("tree-walk eval failed: {e:?}")))?;
        let sc = compiled
            .call(&args)
            .map_err(|e| HarnessError::Io(format!("scalar eval failed: {e:?}")))?;
        treewalk.push(tw.to_number());
        scalar.push(sc.to_number());
    }
    let mut lanes = Vec::new();
    let batch = compiled.eval_batch(inputs, &mut lanes).then_some(lanes);
    Ok(TierOutputs {
        treewalk,
        scalar,
        batch,
    })
}

// ---------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------

/// What a registered scenario compiles and runs.
pub enum ScenarioKind {
    /// A fixed source with no inputs: compile, run, expect exit 0.
    Run {
        /// `main.c` text.
        source: String,
        /// Whether to compile with `-fopenmp` when available.
        openmp: bool,
    },
    /// A numeric map ring: native vs tree-walk/scalar/batch,
    /// bit-for-bit.
    Map {
        /// The mapper ring.
        ring: Arc<Ring>,
    },
    /// A MapReduce pair: native vs the VM pipeline, keys exact, values
    /// within `rel_tol`.
    MapReduce {
        /// The mapper ring (`[key, value]` reporter).
        mapper: Box<Ring>,
        /// The reducer ring.
        reducer: Box<Ring>,
        /// Value tolerance (see [`MAPREDUCE_REL_TOL`]).
        rel_tol: f64,
    },
}

/// A named, runnable artifact derived from the paper's listings.
pub struct Scenario {
    /// Stable name (used for cache keys, artifacts, diff reports).
    pub name: &'static str,
    /// What to do.
    pub kind: ScenarioKind,
}

/// Every Listing-3–7 scenario plus the word_count and climate rings —
/// the registry `codegen_check` and the tests iterate.
pub fn scenarios() -> Vec<Scenario> {
    use snap_ast::builder::*;
    let fig5_x10 = Arc::new(Ring::reporter_with_params(
        vec!["n".into()],
        mul(var("n"), num(10.0)),
    ));
    let climate_f_to_c = Arc::new(Ring::reporter_with_params(
        vec!["t".into()],
        div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
    ));
    vec![
        Scenario {
            name: "listing3_hello",
            kind: ScenarioKind::Run {
                source: crate::openmp::SEQUENTIAL_HELLO_RUNNABLE.to_owned(),
                openmp: false,
            },
        },
        Scenario {
            name: "listing4_omp_hello",
            kind: ScenarioKind::Run {
                source: crate::openmp::OPENMP_HELLO_RUNNABLE.to_owned(),
                openmp: true,
            },
        },
        Scenario {
            name: "listing5_map_example",
            kind: ScenarioKind::Run {
                source: crate::c_program::emit_listing5_runnable(),
                openmp: false,
            },
        },
        Scenario {
            name: "fig5_map_x10",
            kind: ScenarioKind::Map { ring: fig5_x10 },
        },
        Scenario {
            name: "climate_map_f_to_c",
            kind: ScenarioKind::Map {
                ring: climate_f_to_c,
            },
        },
        Scenario {
            name: "climate_mapreduce_avg",
            kind: ScenarioKind::MapReduce {
                mapper: Box::new(crate::openmp::climate_mapper()),
                reducer: Box::new(crate::openmp::averaging_reducer()),
                rel_tol: MAPREDUCE_REL_TOL,
            },
        },
        Scenario {
            name: "word_count_mapreduce",
            kind: ScenarioKind::MapReduce {
                mapper: Box::new(crate::openmp::word_count_mapper()),
                reducer: Box::new(crate::openmp::summing_reducer()),
                rel_tol: MAPREDUCE_REL_TOL,
            },
        },
    ]
}

/// Reference MapReduce semantics for the oracle side of the
/// [`ScenarioKind::MapReduce`] comparison, computed in f64 (group by
/// mapped key, then Sum / Count / Average per group).
pub fn reference_mapreduce(
    mapper: &Ring,
    reducer: &Ring,
    pairs: &[(String, f64)],
) -> Result<Vec<(String, f64)>, HarnessError> {
    let spec = crate::openmp::recognize(mapper, reducer)
        .map_err(|e| HarnessError::Io(format!("unrecognized mapreduce: {e}")))?;
    let mapped = PureFn::compile(Arc::new(mapper.clone()))
        .map_err(|e| HarnessError::Io(format!("mapper does not compile: {e:?}")))?;
    let mut groups: HashMap<String, Vec<f64>> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for (key, val) in pairs {
        // The recognized mappers are unary: word count's `[w, 1]` takes
        // the input key, the climate averager's `["avg", f(t)]` takes
        // the input value — mirror the KVP the C `map` would see.
        let arg = match &spec.key {
            crate::openmp::KeySource::FromInput => Value::Text(key.clone()),
            crate::openmp::KeySource::Constant(_) => Value::Number(*val),
        };
        let out = mapped
            .call(&[arg])
            .map_err(|e| HarnessError::Io(format!("mapper eval failed: {e:?}")))?;
        let Some(list) = out.as_list() else {
            return Err(HarnessError::Io("mapper did not report a pair".into()));
        };
        let items = list.to_vec();
        if items.len() != 2 {
            return Err(HarnessError::Io("mapper did not report a pair".into()));
        }
        let out_key = match &items[0] {
            Value::Text(s) => s.clone(),
            Value::Number(n) => Value::format_number(*n),
            other => format!("{other:?}"),
        };
        let out_val = items[1].to_number();
        groups.entry(out_key.clone()).or_insert_with(|| {
            order.push(out_key.clone());
            Vec::new()
        });
        groups
            .get_mut(&out_key)
            .expect("just inserted")
            .push(out_val);
    }
    let mut result = Vec::with_capacity(order.len());
    for key in order {
        let vals = &groups[&key];
        let sum: f64 = vals.iter().sum();
        let reduced = match spec.reducer {
            crate::openmp::ReducerKind::Sum => sum,
            crate::openmp::ReducerKind::Count => vals.len() as f64,
            crate::openmp::ReducerKind::Average => sum / vals.len() as f64,
        };
        result.push((key, reduced));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_content_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"int main"), fnv1a(b"int mair"));
    }

    #[test]
    fn protocol_round_trips_ieee_specials() {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE, // smallest normal
            5e-324,            // smallest subnormal
            -5e-324,
            f64::MAX,
            f64::EPSILON,
            1.0 / 3.0,
        ];
        let encoded = encode_values(&specials);
        let decoded = decode_values(&encoded).unwrap();
        assert_eq!(decoded.len(), specials.len());
        for (a, b) in specials.iter().zip(&decoded) {
            assert!(bits_eq(*a, *b), "{a:?} != {b:?}");
        }
        // NaN round-trips under the any-NaN rule.
        let nans = decode_values(&encode_values(&[f64::NAN])).unwrap();
        assert!(nans[0].is_nan());
    }

    #[test]
    fn pair_protocol_survives_commas_in_keys() {
        let pairs = vec![("a,b".to_owned(), 1.5), ("plain".to_owned(), -2.0)];
        let text = encode_pairs(&pairs);
        assert_eq!(text, "a,b,1.5e0\nplain,-2e0\n");
    }

    #[test]
    fn malformed_protocol_lines_are_errors() {
        assert_eq!(decode_values("1.5\n\n  -2e0  \n").unwrap(), vec![1.5, -2.0]);
        let err = decode_values("1\nabc\n").unwrap_err();
        assert!(err.to_string().contains("\"abc\""), "{err}");
        // Result keys may hold spaces: the value follows the last one.
        assert_eq!(
            decode_pairs("new york 2.5\nx 1\n\n").unwrap(),
            vec![("new york".to_owned(), 2.5), ("x".to_owned(), 1.0)]
        );
        assert!(matches!(
            decode_pairs("nospace\n"),
            Err(HarnessError::Io(_))
        ));
        assert!(matches!(
            decode_pairs("k notanumber\n"),
            Err(HarnessError::Io(_))
        ));
    }

    #[test]
    fn compare_pairs_ignores_order_but_not_keys_or_values() {
        let pairs = |rows: &[(&str, f64)]| -> Vec<(String, f64)> {
            rows.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        };
        let native = pairs(&[("b", 2.0), ("a", 1.0)]);
        let tol = MAPREDUCE_REL_TOL;
        assert!(compare_pairs("t", &native, &pairs(&[("a", 1.0), ("b", 2.0 + 1e-6)]), tol).is_ok());
        let err = compare_pairs("t", &native, &pairs(&[("a", 1.0)]), tol).unwrap_err();
        assert!(
            err.contains("group count mismatch: native 2 vs oracle 1"),
            "{err}"
        );
        let err = compare_pairs("t", &native, &pairs(&[("a", 1.0), ("c", 2.0)]), tol).unwrap_err();
        assert!(
            err.contains("key mismatch: native \"b\" vs oracle \"c\""),
            "{err}"
        );
        let err = compare_pairs("t", &native, &pairs(&[("a", 1.0), ("b", 2.5)]), tol).unwrap_err();
        assert!(err.contains("value mismatch for key \"b\""), "{err}");
    }

    #[test]
    fn reference_word_count_sums_each_word_in_first_seen_order() {
        let pairs: Vec<(String, f64)> = ["to", "be", "or", "not", "to", "be"]
            .iter()
            .map(|w| (w.to_string(), 0.0))
            .collect();
        let mapper = crate::openmp::word_count_mapper();
        let out = reference_mapreduce(&mapper, &crate::openmp::summing_reducer(), &pairs).unwrap();
        let want: Vec<(String, f64)> = [("to", 2.0), ("be", 2.0), ("or", 1.0), ("not", 1.0)]
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        assert_eq!(out, want);
        // A reducer the emitter cannot translate has no reference either.
        use snap_ast::builder::*;
        let weird = Ring::reporter_with_params(vec!["vals".into()], num(42.0));
        assert!(matches!(
            reference_mapreduce(&mapper, &weird, &pairs),
            Err(HarnessError::Io(m)) if m.contains("unrecognized mapreduce")
        ));
    }

    #[test]
    fn compile_and_run_failures_are_typed_errors() {
        let Ok(harness) = Harness::detect() else {
            eprintln!("codegen.toolchain_missing — skipping native compile test");
            return;
        };
        let broken = "int main(void) { return undefined_name; }\n";
        match harness.compile("broken", &[("main.c", broken)], false) {
            Err(HarnessError::CompileFailed { name, stderr }) => {
                assert_eq!(name, "broken");
                assert!(stderr.contains("undefined_name"), "{stderr}");
            }
            other => panic!("expected CompileFailed, got {other:?}"),
        }
        let exits_3 = "#include <stdio.h>\n\
                       int main(void) { fputs(\"bad input\\n\", stderr); return 3; }\n";
        let program = harness
            .compile("exits_3", &[("main.c", exits_3)], false)
            .unwrap();
        match program.run("") {
            Err(HarnessError::RunFailed { name, message }) => {
                assert_eq!(name, "exits_3");
                assert!(message.starts_with("exit Some(3)"), "{message}");
                assert!(message.contains("bad input"), "{message}");
            }
            other => panic!("expected RunFailed, got {other:?}"),
        }
        // A map program that answers fewer lines than it was sent.
        let echoes_one = "#include <stdio.h>\n\
                          int main(void) {\n\
                          char line[64];\n\
                          if (fgets(line, sizeof line, stdin) != NULL) printf(\"%s\", line);\n\
                          return 0;\n\
                          }\n";
        match harness.run_map("echoes_one", echoes_one, &[1.0, 2.0]) {
            Err(HarnessError::RunFailed { message, .. }) => {
                assert_eq!(message, "expected 2 output lines, got 1")
            }
            other => panic!("expected RunFailed, got {other:?}"),
        }
    }

    #[test]
    fn nan_rule_and_tolerance() {
        assert!(bits_eq(f64::NAN, -f64::NAN));
        assert!(!bits_eq(0.0, -0.0) || 0.0_f64.to_bits() == (-0.0_f64).to_bits());
        assert!(approx_eq(100.0, 100.0 + 100.0 * 1e-5, MAPREDUCE_REL_TOL));
        assert!(!approx_eq(100.0, 101.0, MAPREDUCE_REL_TOL));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, MAPREDUCE_REL_TOL));
        assert!(!approx_eq(f64::INFINITY, 1.0, MAPREDUCE_REL_TOL));
    }

    #[test]
    fn compare_values_reports_first_mismatch() {
        let err = compare_values("t", &[1.0, 2.0], &[1.0, 3.0]).unwrap_err();
        assert!(err.contains("element 1"), "{err}");
        assert!(compare_values("t", &[f64::NAN], &[-f64::NAN]).is_ok());
    }

    #[test]
    fn oracle_tiers_agree_on_the_climate_ring() {
        use snap_ast::builder::*;
        let ring = Arc::new(Ring::reporter_with_params(
            vec!["t".into()],
            div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
        ));
        let inputs = [32.0, 212.0, -40.0, 98.6];
        let tiers = oracle_map_tiers(&ring, &inputs).unwrap();
        assert_eq!(tiers.treewalk, tiers.scalar);
        let batch = tiers.batch.expect("climate ring is batchable");
        assert_eq!(tiers.treewalk, batch);
        assert_eq!(tiers.treewalk[0], 0.0);
        assert_eq!(tiers.treewalk[1], 100.0);
    }

    #[test]
    fn reference_mapreduce_groups_and_averages() {
        let pairs = vec![("s1".to_owned(), 32.0), ("s2".to_owned(), 212.0)];
        let out = reference_mapreduce(
            &crate::openmp::climate_mapper(),
            &crate::openmp::averaging_reducer(),
            &pairs,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, "avg");
        assert!((out[0].1 - 50.0).abs() < 1e-12);
    }

    #[test]
    fn scenario_registry_covers_the_listings() {
        let names: Vec<_> = scenarios().iter().map(|s| s.name).collect();
        for expected in [
            "listing3_hello",
            "listing4_omp_hello",
            "listing5_map_example",
            "fig5_map_x10",
            "climate_map_f_to_c",
            "climate_mapreduce_avg",
            "word_count_mapreduce",
        ] {
            assert!(names.contains(&expected), "missing scenario {expected}");
        }
    }

    #[test]
    fn equal_rings_compile_to_one_cached_program() {
        use snap_ast::builder::*;
        let Ok(harness) = Harness::detect() else {
            eprintln!("codegen.toolchain_missing — skipping native compile test");
            return;
        };
        // The cache is keyed on the emitted source, not on a ring's
        // identity: two separately built equal rings share one binary,
        // and a different ring gets its own.
        let source = |k: f64| {
            crate::openmp::emit_map_openmp(&Ring::reporter(mul(empty_slot(), num(k)))).unwrap()
        };
        let compile = |source: &str| {
            harness
                .compile("cache_key", &[("map_program.c", source)], true)
                .unwrap()
        };
        let doubler = compile(&source(2.0));
        let twin = compile(&source(2.0));
        assert_eq!(twin.binary, doubler.binary);
        assert!(twin.cached, "the second equal ring must hit the cache");
        assert_ne!(compile(&source(3.0)).binary, doubler.binary);
        assert_eq!(
            harness
                .run_map("cache_key", &source(2.0), &[1.5, -2.0, 0.0])
                .unwrap(),
            vec![3.0, -4.0, 0.0]
        );
    }

    #[test]
    fn toolchain_probe_is_consistent() {
        // Whatever the host has, the probe must be stable across calls
        // (OnceLock) and the harness must agree with it.
        let first = detect_toolchain().map(|t| t.cc.clone());
        let second = detect_toolchain().map(|t| t.cc.clone());
        assert_eq!(first, second);
        match (first, Harness::detect()) {
            (Some(cc), Ok(h)) => assert_eq!(h.toolchain().cc, cc),
            (None, Err(HarnessError::ToolchainMissing)) => {}
            (probe, harness) => {
                panic!("probe {probe:?} and harness {harness:?} disagree")
            }
        }
    }
}
