//! Generate → compile → link → run.
//!
//! §6.3: "the Snap! environment needs to incorporate the means for
//! automating the compilation and linking of the textual output from the
//! code mapping process in order to fulfill the same requirements as are
//! currently filled by the Makefile." This module is that Makefile: it
//! writes generated sources to a build directory, compiles them through
//! the codegen [`Harness`] — the same toolchain probe, content-addressed
//! compile cache and flag set (`-O3 -std=c99 -Wall -Werror
//! -ffp-contract=off`) under which `codegen_check` proves native ≡ VM —
//! and runs the produced binary, capturing its output. Everything
//! degrades gracefully on machines without a compiler — generation is
//! still validated textually.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use snap_codegen::{Harness, HarnessError, OpenMpProgram};

/// A build failure.
#[derive(Debug)]
pub enum BuildError {
    /// Filesystem trouble.
    Io(io::Error),
    /// No C compiler on this machine.
    NoCompiler,
    /// The compiler rejected the generated code.
    CompileFailed {
        /// Compiler diagnostics.
        stderr: String,
    },
    /// The produced binary exited non-zero.
    RunFailed {
        /// Exit code (if any).
        code: Option<i32>,
        /// Its stderr.
        stderr: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Io(e) => write!(f, "i/o error: {e}"),
            BuildError::NoCompiler => write!(f, "no C compiler found on this machine"),
            BuildError::CompileFailed { stderr } => write!(f, "compilation failed:\n{stderr}"),
            BuildError::RunFailed { code, stderr } => {
                write!(f, "binary exited with {code:?}:\n{stderr}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<io::Error> for BuildError {
    fn from(e: io::Error) -> Self {
        BuildError::Io(e)
    }
}

impl From<HarnessError> for BuildError {
    fn from(e: HarnessError) -> Self {
        match e {
            HarnessError::ToolchainMissing => BuildError::NoCompiler,
            HarnessError::CompileFailed { stderr, .. } => BuildError::CompileFailed { stderr },
            HarnessError::RunFailed { message, .. } => BuildError::RunFailed {
                code: None,
                stderr: message,
            },
            HarnessError::Io(message) => BuildError::Io(io::Error::other(message)),
        }
    }
}

/// A build directory plus the harness compiling into it.
pub struct BuildPipeline {
    dir: PathBuf,
    harness: Option<Harness>,
}

impl BuildPipeline {
    /// Create (or reuse) a build directory; probes the toolchain.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<BuildPipeline> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(BuildPipeline {
            dir,
            harness: Harness::detect().ok(),
        })
    }

    /// The build directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether a compiler is available.
    pub fn has_compiler(&self) -> bool {
        self.harness.is_some()
    }

    /// Write one generated source file into the build directory.
    pub fn write_source(&self, name: &str, content: &str) -> io::Result<PathBuf> {
        let path = self.dir.join(name);
        std::fs::write(&path, content)?;
        Ok(path)
    }

    /// Compile + link sources written to the build directory. List
    /// headers (`kvp.h`) too: every listed file takes part in the compile
    /// and its cache key, and the `.c` files are compiled. The binary,
    /// named after `output`, lands in the harness's content-addressed
    /// cache; the build directory keeps the sources.
    pub fn compile(
        &self,
        sources: &[&str],
        output: &str,
        openmp: bool,
    ) -> Result<PathBuf, BuildError> {
        let harness = self.harness.as_ref().ok_or(BuildError::NoCompiler)?;
        let texts = sources
            .iter()
            .map(|name| std::fs::read_to_string(self.dir.join(name)))
            .collect::<io::Result<Vec<String>>>()?;
        let named: Vec<(&str, &str)> = sources
            .iter()
            .copied()
            .zip(texts.iter().map(String::as_str))
            .collect();
        let compiled = harness.compile(output, &named, openmp)?;
        // `run` starts the binary inside the build directory, so a cache
        // path relative to this process's directory would not resolve.
        Ok(std::path::absolute(compiled.binary)?)
    }

    /// Run a produced binary, returning its stdout.
    pub fn run(&self, binary: &Path, args: &[&str]) -> Result<String, BuildError> {
        let out = Command::new(binary)
            .args(args)
            .current_dir(&self.dir)
            .output()?;
        if !out.status.success() {
            return Err(BuildError::RunFailed {
                code: out.status.code(),
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
            });
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    }

    /// The full §6 workflow for a generated MapReduce program: write
    /// `kvp.h` + `mapred.c` + `driver.c`, compile with OpenMP, run, and
    /// parse the `key value` output lines.
    pub fn build_and_run_mapreduce(
        &self,
        program: &OpenMpProgram,
    ) -> Result<Vec<(String, f64)>, BuildError> {
        let binary = self.compile_mapreduce(program)?;
        let stdout = self.run(&binary, &[])?;
        Ok(parse_kv_output(&stdout))
    }

    /// Write a MapReduce program's `kvp.h` + `mapred.c` + `driver.c`
    /// into the build directory and compile them with OpenMP.
    pub(crate) fn compile_mapreduce(&self, program: &OpenMpProgram) -> Result<PathBuf, BuildError> {
        self.write_source("kvp.h", &program.kvp_h)?;
        self.write_source("mapred.c", &program.mapred_c)?;
        self.write_source("driver.c", &program.driver_c)?;
        self.compile(&["kvp.h", "mapred.c", "driver.c"], "mapreduce", true)
    }
}

/// Parse `key value` lines as printed by the generated driver.
pub fn parse_kv_output(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let (key, val) = line.rsplit_once(' ')?;
            Some((key.to_owned(), val.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_codegen::openmp::{
        averaging_reducer, climate_mapper, emit_mapreduce_openmp, summing_reducer,
        word_count_mapper, OPENMP_HELLO_RUNNABLE,
    };

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psnap-build-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn parse_kv_output_handles_spaces_in_keys() {
        let parsed = parse_kv_output("a 1\nhello world 2.5\nbad line x\n");
        assert_eq!(
            parsed,
            vec![("a".to_owned(), 1.0), ("hello world".to_owned(), 2.5)]
        );
    }

    #[test]
    fn harness_errors_map_to_build_errors() {
        assert!(matches!(
            BuildError::from(HarnessError::ToolchainMissing),
            BuildError::NoCompiler
        ));
        let failed = BuildError::from(HarnessError::CompileFailed {
            name: "prog".to_owned(),
            stderr: "error: boom".to_owned(),
        });
        assert!(
            matches!(&failed, BuildError::CompileFailed { stderr } if stderr == "error: boom"),
            "got {failed}"
        );
        let run = BuildError::from(HarnessError::RunFailed {
            name: "prog".to_owned(),
            message: "exited 3".to_owned(),
        });
        assert!(
            matches!(&run, BuildError::RunFailed { code: None, stderr } if stderr == "exited 3"),
            "got {run}"
        );
        assert!(matches!(
            BuildError::from(HarnessError::Io("disk full".to_owned())),
            BuildError::Io(_)
        ));
    }

    #[test]
    fn listed_headers_take_part_in_the_compile() {
        let pipeline = BuildPipeline::new(temp_dir("header")).unwrap();
        if !pipeline.has_compiler() {
            return;
        }
        pipeline
            .write_source(
                "main.c",
                "#include <stdio.h>\n#include \"value.h\"\nint main(void) {\n    printf(\"%d\\n\", VALUE);\n    return 0;\n}\n",
            )
            .unwrap();
        // A changed header must yield a new binary, not a cache hit on
        // the old one.
        for value in [1, 2] {
            pipeline
                .write_source("value.h", &format!("#define VALUE {value}\n"))
                .unwrap();
            let binary = pipeline
                .compile(&["value.h", "main.c"], "header", false)
                .unwrap();
            assert!(binary.is_absolute());
            assert!(
                !binary.starts_with(pipeline.dir()),
                "the binary belongs in the harness cache, not the build dir"
            );
            assert_eq!(
                pipeline.run(&binary, &[]).unwrap().trim(),
                value.to_string()
            );
        }
        assert!(pipeline.dir().join("value.h").is_file());
        assert!(pipeline.dir().join("main.c").is_file());
    }

    #[test]
    fn openmp_hello_compiles_and_runs() {
        let pipeline = BuildPipeline::new(temp_dir("hello")).unwrap();
        if !pipeline.has_compiler() {
            eprintln!("no C compiler; skipping compile test");
            return;
        }
        pipeline
            .write_source("hello.c", OPENMP_HELLO_RUNNABLE)
            .unwrap();
        let binary = pipeline.compile(&["hello.c"], "hello", true).unwrap();
        let out = pipeline.run(&binary, &[]).unwrap();
        assert!(out.contains("hello("), "unexpected output: {out}");
        assert!(out.contains("world("));
    }

    #[test]
    fn listing5_compiles_cleanly() {
        let pipeline = BuildPipeline::new(temp_dir("listing5")).unwrap();
        if !pipeline.has_compiler() {
            return;
        }
        pipeline
            .write_source("listing5.c", &snap_codegen::emit_listing5())
            .unwrap();
        let binary = pipeline
            .compile(&["listing5.c"], "listing5", false)
            .unwrap();
        // Listing 5 produces no output; success is exit code 0.
        assert_eq!(pipeline.run(&binary, &[]).unwrap(), "");
    }

    #[test]
    fn warnings_fail_the_build() {
        // The harness flag set includes -Wall -Werror: an unused
        // variable is a compile failure, not a warning.
        let pipeline = BuildPipeline::new(temp_dir("werror")).unwrap();
        if !pipeline.has_compiler() {
            return;
        }
        pipeline
            .write_source(
                "unused.c",
                "int main(void) {\n    int unused = 1;\n    return 0;\n}\n",
            )
            .unwrap();
        let err = pipeline
            .compile(&["unused.c"], "unused", false)
            .unwrap_err();
        match err {
            BuildError::CompileFailed { stderr } => {
                assert!(
                    stderr.contains("unused"),
                    "unexpected diagnostics: {stderr}"
                )
            }
            other => panic!("expected CompileFailed, got {other}"),
        }
    }

    #[test]
    fn generated_climate_mapreduce_computes_the_average() {
        let pipeline = BuildPipeline::new(temp_dir("climate")).unwrap();
        if !pipeline.has_compiler() {
            return;
        }
        // 32 °F → 0 °C and 212 °F → 100 °C: average 50 °C.
        let program = emit_mapreduce_openmp(
            &climate_mapper(),
            &averaging_reducer(),
            &[("s1".into(), 32.0), ("s2".into(), 212.0)],
        )
        .unwrap();
        let results = pipeline.build_and_run_mapreduce(&program).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, "avg");
        assert!((results[0].1 - 50.0).abs() < 1e-3, "got {}", results[0].1);
    }

    #[test]
    fn generated_word_count_mapreduce_counts() {
        let pipeline = BuildPipeline::new(temp_dir("wordcount")).unwrap();
        if !pipeline.has_compiler() {
            return;
        }
        let data: Vec<(String, f64)> = ["the", "cat", "the", "dog", "the"]
            .iter()
            .map(|w| (w.to_string(), 1.0))
            .collect();
        let program =
            emit_mapreduce_openmp(&word_count_mapper(), &summing_reducer(), &data).unwrap();
        let results = pipeline.build_and_run_mapreduce(&program).unwrap();
        assert_eq!(
            results,
            vec![
                ("cat".to_owned(), 1.0),
                ("dog".to_owned(), 1.0),
                ("the".to_owned(), 3.0),
            ]
        );
    }
}
