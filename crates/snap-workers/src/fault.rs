//! Fault handling: what a pooled call reports when an item panics, and
//! deterministic fault injection.
//!
//! A browser tab running the paper's Web Workers loses workers all the
//! time — tab throttling, OOM kills, a worker script that throws. Here a
//! panicking item never takes the caller down:
//!
//! * [`ExecError`] — what a fault-aware call reports instead of
//!   unwinding: an item panicked on the pool. Every item still ran once,
//!   and the blocks in `snap-parallel` then re-run that phase
//!   sequentially, so a fault changes counters, never results.
//! * [`FaultInjector`] — deterministic chaos: every injection decision
//!   is a pure hash of `(seed, item)`, so a run under a fixed seed
//!   injects the same panics at the same items regardless of how the
//!   scheduler interleaves threads. Installed programmatically
//!   ([`install_injector`]) or from `SNAP_FAULT_*` environment
//!   variables, which is how the CI chaos job drives it.
//!
//! Every panicked item increments both `pool.jobs_panicked` and
//! `fault.failures_final`: nothing is retried, so every panic is final.

#![forbid(unsafe_code)]

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Failure reported by a fault-aware parallel call. Unlike a panic, an
/// `ExecError` leaves the pool and the caller intact; the blocks in
/// `snap-parallel` fall back to a sequential run of the phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// One or more items panicked on the pool.
    ItemPanicked {
        /// How many items panicked.
        failed_items: usize,
        /// The message of the last panic recorded.
        last_message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ItemPanicked {
                failed_items,
                last_message,
            } => write!(
                f,
                "{failed_items} item(s) panicked on the pool; last panic: {last_message}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// A `SNAP_FAULT_*` variable whose value cannot configure an injector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEnvError {
    /// The variable's name.
    pub var: &'static str,
    /// The value as read, quoted and cut after 32 characters.
    pub value: String,
    /// What the variable takes.
    pub expected: &'static str,
}

/// How many characters of a bad value a [`FaultEnvError`] quotes.
const PREVIEW_CHARS: usize = 32;

impl FaultEnvError {
    fn new(var: &'static str, value: &str, expected: &'static str) -> FaultEnvError {
        let value = match value.char_indices().nth(PREVIEW_CHARS) {
            Some((cut, _)) => format!("{:?}…", &value[..cut]),
            None => format!("{value:?}"),
        };
        FaultEnvError {
            var,
            value,
            expected,
        }
    }
}

impl fmt::Display for FaultEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}: expected {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for FaultEnvError {}

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` payloads cover `panic!` in practice).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// splitmix64 finalizer — mixes the injector seed with an item key into
/// a uniform u64. Pure, so injection decisions are independent of thread
/// interleaving.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic fault injector: decides per item whether to panic or
/// sleep, by hashing against a fixed seed. Probabilities are in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    /// Seed shared by every decision this injector makes.
    pub seed: u64,
    /// Probability an item panics (before it runs).
    pub panic_p: f64,
    /// Probability an item is delayed by `delay` first.
    pub delay_p: f64,
    /// Injected delay duration.
    pub delay: Duration,
}

impl FaultInjector {
    /// An injector with the given seed and no faults configured.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            seed,
            panic_p: 0.0,
            delay_p: 0.0,
            delay: Duration::from_millis(1),
        }
    }

    /// Builder: probability an item panics.
    pub fn panic_probability(mut self, p: f64) -> FaultInjector {
        self.panic_p = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: probability an item is delayed, and by how much.
    pub fn delay_probability(mut self, p: f64, delay: Duration) -> FaultInjector {
        self.delay_p = p.clamp(0.0, 1.0);
        self.delay = delay;
        self
    }

    /// Uniform `[0, 1)` draw for `(key, salt)` under this seed.
    fn draw(&self, key: u64, salt: u64) -> f64 {
        let h = mix(self.seed.wrapping_add(mix(key.wrapping_add(salt))));
        // 53 mantissa bits → exact double in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should item `key` panic? Deterministic per seed.
    pub fn should_panic(&self, key: u64) -> bool {
        self.panic_p > 0.0 && self.draw(key, 0x70616e69) < self.panic_p
    }

    /// Should item `key` be delayed? Deterministic per seed.
    pub fn should_delay(&self, key: u64) -> bool {
        self.delay_p > 0.0 && self.draw(key, 0x64656c61) < self.delay_p
    }

    /// Run the injection for one item: maybe sleep, maybe panic (in that
    /// order, so a delayed item can still fail). Counts what it injects.
    pub fn inject(&self, key: u64) {
        if self.should_delay(key) {
            snap_trace::well_known::FAULT_INJECTED_DELAYS.incr();
            // The span makes injected stalls visible in the trace (nested
            // under the chunk that suffered them, so the parent chain
            // attributes the delay without an explicit link).
            let _delay = snap_trace::span_with("fault.injected_delay", "item", key);
            std::thread::sleep(self.delay);
        }
        if self.should_panic(key) {
            snap_trace::well_known::FAULT_INJECTED_PANICS.incr();
            panic!("injected fault: item {key}");
        }
    }

    /// Build an injector from the process environment; see
    /// [`FaultInjector::from_vars`].
    pub fn from_env() -> Result<Option<FaultInjector>, FaultEnvError> {
        FaultInjector::from_vars(|name| {
            std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
        })
    }

    /// Build an injector from `SNAP_FAULT_SEED` (a decimal `u64`),
    /// `SNAP_FAULT_PANIC_P` / `SNAP_FAULT_DELAY_P` (probabilities in
    /// `[0, 1]`) and `SNAP_FAULT_DELAY_MS` (whole milliseconds, default
    /// 1), as `lookup` reads them. Every variable that is set must
    /// parse, or the first bad one is the error. `Ok(None)` unless the
    /// seed is set and at least one probability is positive.
    pub fn from_vars(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<Option<FaultInjector>, FaultEnvError> {
        fn read<T>(
            lookup: &impl Fn(&str) -> Option<String>,
            var: &'static str,
            expected: &'static str,
            parse: impl Fn(&str) -> Option<T>,
        ) -> Result<Option<T>, FaultEnvError> {
            let Some(value) = lookup(var) else {
                return Ok(None);
            };
            match parse(value.trim()) {
                Some(parsed) => Ok(Some(parsed)),
                None => Err(FaultEnvError::new(var, &value, expected)),
            }
        }
        const PROBABILITY: &str = "a probability in [0, 1]";
        let probability = |v: &str| v.parse::<f64>().ok().filter(|p| (0.0..=1.0).contains(p));
        let seed = read(
            &lookup,
            "SNAP_FAULT_SEED",
            "an unsigned decimal integer",
            |v| v.parse::<u64>().ok(),
        )?;
        let panic_p = read(&lookup, "SNAP_FAULT_PANIC_P", PROBABILITY, probability)?.unwrap_or(0.0);
        let delay_p = read(&lookup, "SNAP_FAULT_DELAY_P", PROBABILITY, probability)?.unwrap_or(0.0);
        let delay_ms = read(&lookup, "SNAP_FAULT_DELAY_MS", "whole milliseconds", |v| {
            v.parse::<u64>().ok()
        })?
        .unwrap_or(1);
        match seed {
            Some(seed) if panic_p > 0.0 || delay_p > 0.0 => Ok(Some(
                FaultInjector::new(seed)
                    .panic_probability(panic_p)
                    .delay_probability(delay_p, Duration::from_millis(delay_ms)),
            )),
            _ => Ok(None),
        }
    }
}

/// `true` once any injector (installed or env) may be active; lets the
/// per-item hot path skip the state lock entirely in fault-free runs.
static INJECTOR_ACTIVE: AtomicBool = AtomicBool::new(false);
static INJECTOR: Mutex<Option<FaultInjector>> = Mutex::new(None);
static ENV_INIT: OnceLock<()> = OnceLock::new();

/// Install (or, with `None`, clear) the process-wide fault injector.
/// Overrides any `SNAP_FAULT_*` environment configuration.
pub fn install_injector(injector: Option<FaultInjector>) {
    ENV_INIT.get_or_init(|| ()); // claim env init so it cannot overwrite us
    *INJECTOR.lock().unwrap_or_else(PoisonError::into_inner) = injector;
    INJECTOR_ACTIVE.store(injector.is_some(), Ordering::SeqCst);
}

/// The currently active injector, if any. First call consults the
/// `SNAP_FAULT_*` environment unless [`install_injector`] ran first; a
/// bad value there is reported on stderr once and leaves injection off.
pub fn injector() -> Option<FaultInjector> {
    ENV_INIT.get_or_init(|| match FaultInjector::from_env() {
        Ok(Some(env)) => {
            *INJECTOR.lock().unwrap_or_else(PoisonError::into_inner) = Some(env);
            INJECTOR_ACTIVE.store(true, Ordering::SeqCst);
        }
        Ok(None) => {}
        Err(err) => eprintln!("snap-workers: fault injection off: {err}"),
    });
    if !INJECTOR_ACTIVE.load(Ordering::SeqCst) {
        return None;
    }
    *INJECTOR.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_decisions_are_deterministic_per_seed() {
        let a = FaultInjector::new(42).panic_probability(0.2);
        let b = FaultInjector::new(42).panic_probability(0.2);
        for key in 0..1000u64 {
            assert_eq!(a.should_panic(key), b.should_panic(key));
        }
    }

    #[test]
    fn injector_rate_is_near_the_configured_probability() {
        let inj = FaultInjector::new(7).panic_probability(0.2);
        let hits = (0..10_000u64).filter(|&k| inj.should_panic(k)).count();
        // 10k draws at p=0.2 → ~2000 ± a few hundred.
        assert!((1600..2400).contains(&hits), "hit rate off: {hits}");
    }

    #[test]
    fn zero_probability_never_fires() {
        let inj = FaultInjector::new(9);
        assert!((0..100u64).all(|k| !inj.should_panic(k) && !inj.should_delay(k)));
    }

    #[test]
    fn fault_env_values_parse_or_name_the_bad_variable() {
        type Vars<'a> = &'a [(&'a str, &'a str)];
        let from = |vars: Vars| {
            FaultInjector::from_vars(|name| {
                vars.iter()
                    .find(|(var, _)| *var == name)
                    .map(|(_, value)| value.to_string())
            })
        };
        let ms = Duration::from_millis;
        let good: &[(Vars, Option<FaultInjector>)] = &[
            (&[], None),
            (&[("SNAP_FAULT_SEED", "42")], None),
            (&[("SNAP_FAULT_PANIC_P", "0.5")], None),
            (
                &[("SNAP_FAULT_SEED", "42"), ("SNAP_FAULT_PANIC_P", "0")],
                None,
            ),
            (
                &[("SNAP_FAULT_SEED", "42"), ("SNAP_FAULT_PANIC_P", "0.2")],
                Some(FaultInjector::new(42).panic_probability(0.2)),
            ),
            (
                &[
                    ("SNAP_FAULT_SEED", " 7 "),
                    ("SNAP_FAULT_DELAY_P", "1"),
                    ("SNAP_FAULT_DELAY_MS", "5"),
                ],
                Some(FaultInjector::new(7).delay_probability(1.0, ms(5))),
            ),
        ];
        for (vars, want) in good {
            assert_eq!(from(vars), Ok(*want), "{vars:?}");
        }
        let bad: &[(&str, &str)] = &[
            ("SNAP_FAULT_SEED", "0x2a"),
            ("SNAP_FAULT_SEED", "-1"),
            ("SNAP_FAULT_SEED", ""),
            ("SNAP_FAULT_PANIC_P", "nan"),
            ("SNAP_FAULT_PANIC_P", "5"),
            ("SNAP_FAULT_PANIC_P", "inf"),
            ("SNAP_FAULT_PANIC_P", "0.2x"),
            ("SNAP_FAULT_PANIC_P", "-0.1"),
            ("SNAP_FAULT_DELAY_P", "1.5"),
            ("SNAP_FAULT_DELAY_MS", "2.5"),
            ("SNAP_FAULT_DELAY_MS", "-3"),
        ];
        for &(var, value) in bad {
            // Listed first, the bad value hides the good one behind it.
            let vars = [
                (var, value),
                ("SNAP_FAULT_SEED", "42"),
                ("SNAP_FAULT_PANIC_P", "0.2"),
            ];
            let err = from(&vars).unwrap_err();
            assert_eq!(err.var, var, "{var}={value:?}");
            assert_eq!(err.value, format!("{value:?}"));
            assert!(err
                .to_string()
                .starts_with(&format!("{var}={value:?}: expected ")));
        }
        let long = "9".repeat(10_000);
        let err = from(&[("SNAP_FAULT_SEED", &long)]).unwrap_err();
        assert_eq!(err.value, format!("{:?}…", &long[..PREVIEW_CHARS]));
    }

    #[test]
    fn bad_value_preview_cuts_between_characters() {
        // Three-byte characters: the preview keeps 32 characters, and
        // byte 32 would fall inside one.
        let value = "€".repeat(100);
        let err =
            FaultInjector::from_vars(|name| (name == "SNAP_FAULT_DELAY_MS").then(|| value.clone()))
                .unwrap_err();
        let preview: String = "€".repeat(PREVIEW_CHARS);
        assert_eq!(err.value, format!("{preview:?}…"));
        assert_eq!(err.expected, "whole milliseconds");
        // Exactly the preview length is quoted whole, with no ellipsis.
        let err = FaultInjector::from_vars(|name| {
            (name == "SNAP_FAULT_DELAY_MS").then(|| preview.clone())
        })
        .unwrap_err();
        assert_eq!(err.value, format!("{preview:?}"));
    }

    #[test]
    fn builders_clamp_probabilities_into_the_unit_range() {
        let always = FaultInjector::new(3)
            .panic_probability(5.0)
            .delay_probability(f64::INFINITY, Duration::ZERO);
        assert_eq!((always.panic_p, always.delay_p), (1.0, 1.0));
        let never = FaultInjector::new(3)
            .panic_probability(-0.5)
            .delay_probability(-1.0, Duration::ZERO);
        assert_eq!((never.panic_p, never.delay_p), (0.0, 0.0));
        for key in 0..500 {
            assert!(always.should_panic(key) && always.should_delay(key));
            assert!(!never.should_panic(key) && !never.should_delay(key));
        }
    }

    #[test]
    fn inject_panics_exactly_where_should_panic_says() {
        let injector = FaultInjector::new(11)
            .panic_probability(0.5)
            .delay_probability(0.5, Duration::ZERO);
        let mut fired = 0;
        for key in 0..128 {
            let outcome = std::panic::catch_unwind(|| injector.inject(key));
            assert_eq!(outcome.is_err(), injector.should_panic(key));
            if let Err(payload) = outcome {
                fired += 1;
                assert_eq!(
                    panic_message(payload.as_ref()),
                    format!("injected fault: item {key}")
                );
            }
        }
        assert!((40..=88).contains(&fired), "{fired} of 128 items fired");
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let s: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let owned: Box<dyn Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(owned.as_ref()), "owned");
        let other: Box<dyn Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }

    #[test]
    fn exec_error_names_the_panicked_items() {
        let err = ExecError::ItemPanicked {
            failed_items: 3,
            last_message: "boom".into(),
        };
        assert_eq!(
            err.to_string(),
            "3 item(s) panicked on the pool; last panic: boom"
        );
    }
}
