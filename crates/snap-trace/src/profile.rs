//! Sampling profiler: per-thread span stacks plus a timer thread that
//! snapshots them at ~99Hz into flamegraph-compatible folded stacks.
//!
//! Every thread that opens spans (or calls [`register_thread`], as pool
//! workers do at spawn) owns a fixed-depth stack of interned span-name
//! ids stored in atomics. Opening a span pushes its name id; dropping
//! the guard pops it. The stack is maintained whenever span recording
//! *or* profiling is active, so a profile can be pulled from a process
//! that never enabled full span recording.
//!
//! The sampler walks the global stack registry, reads each thread's
//! `depth` with `Acquire`, and folds `label;outer;inner` keys into a
//! count map. Reads race with pushes and pops by design: a torn sample
//! can attribute one tick to a stack that existed a microsecond ago —
//! harmless at 99Hz, and the price of keeping span open/close at a
//! couple of relaxed stores. Threads with an empty stack contribute a
//! bare `label` sample, so the folded output doubles as a utilization
//! view (ticks in spans vs ticks idle).
//!
//! The profiler audits itself: every sample's cost is added to the
//! `trace.overhead_ns` counter and counted in `trace.profile_samples`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::metrics::well_known::{TRACE_OVERHEAD_NS, TRACE_PROFILE_SAMPLES};

/// Deepest span nesting the sampler can see; frames beyond it are
/// tracked in depth only (they pop correctly but don't appear in
/// samples).
pub const MAX_STACK_DEPTH: usize = 48;

// ---------------------------------------------------------------------
// Span-name interning: &'static str -> dense u32 id
// ---------------------------------------------------------------------

fn names() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    // Span names are 'static literals, so the pointer identifies the
    // name; a tiny per-thread linear cache keeps the global lock off
    // the span hot path after each name's first use on a thread.
    static NAME_CACHE: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
}

fn intern(name: &'static str) -> u32 {
    let key = name.as_ptr() as usize;
    NAME_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some((_, id)) = cache.iter().find(|(k, _)| *k == key) {
            return *id;
        }
        let mut names = names().lock().unwrap_or_else(PoisonError::into_inner);
        let id = match names.iter().position(|n| *n == name) {
            Some(i) => i as u32,
            None => {
                names.push(name);
                (names.len() - 1) as u32
            }
        };
        cache.push((key, id));
        id
    })
}

// ---------------------------------------------------------------------
// Per-thread stacks and their global registry
// ---------------------------------------------------------------------

struct ThreadStack {
    label: String,
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_STACK_DEPTH],
}

fn stacks() -> &'static Mutex<Vec<Arc<ThreadStack>>> {
    static STACKS: OnceLock<Mutex<Vec<Arc<ThreadStack>>>> = OnceLock::new();
    STACKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Holds the thread's stack and deregisters it on thread exit, so dead
/// threads stop contributing idle samples.
struct LocalStack(Arc<ThreadStack>);

impl Drop for LocalStack {
    fn drop(&mut self) {
        let mut stacks = stacks().lock().unwrap_or_else(PoisonError::into_inner);
        stacks.retain(|s| !Arc::ptr_eq(s, &self.0));
    }
}

thread_local! {
    static LOCAL_STACK: RefCell<Option<LocalStack>> = const { RefCell::new(None) };
}

fn with_stack(f: impl FnOnce(&ThreadStack)) {
    LOCAL_STACK.with(|slot| {
        let mut slot = slot.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let label = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
            let stack = Arc::new(ThreadStack {
                label,
                depth: AtomicUsize::new(0),
                frames: [const { AtomicU32::new(0) }; MAX_STACK_DEPTH],
            });
            stacks()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(stack.clone());
            LocalStack(stack)
        });
        f(&local.0);
    });
}

/// Register the calling thread with the profiler immediately (named
/// after the OS thread), so it appears in folded output even before —
/// or without ever — opening a span. Pool workers call this at spawn.
pub fn register_thread() {
    with_stack(|_| {});
}

pub(crate) fn push_frame(name: &'static str) {
    with_stack(|stack| {
        let depth = stack.depth.load(Ordering::Relaxed);
        if depth < MAX_STACK_DEPTH {
            stack.frames[depth].store(intern(name), Ordering::Relaxed);
        }
        // Release publishes the frame store above to the sampler's
        // Acquire load of depth.
        stack.depth.store(depth + 1, Ordering::Release);
    });
}

pub(crate) fn pop_frame() {
    with_stack(|stack| {
        let depth = stack.depth.load(Ordering::Relaxed);
        stack
            .depth
            .store(depth.saturating_sub(1), Ordering::Release);
    });
}

// ---------------------------------------------------------------------
// The sampler
// ---------------------------------------------------------------------

static ACTIVE_PROFILERS: AtomicUsize = AtomicUsize::new(0);

/// Is at least one sampling profiler currently running? While true,
/// spans maintain their per-thread stacks even when full span recording
/// is off.
#[inline]
pub fn profiling() -> bool {
    ACTIVE_PROFILERS.load(Ordering::Relaxed) > 0
}

/// Take one sample of every registered thread's span stack, folding
/// `label;outer;…;inner` keys into `folded`.
pub fn sample_once(folded: &mut BTreeMap<String, u64>) {
    let stacks: Vec<Arc<ThreadStack>> = stacks()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let names = names().lock().unwrap_or_else(PoisonError::into_inner);
    for stack in stacks {
        let depth = stack.depth.load(Ordering::Acquire).min(MAX_STACK_DEPTH);
        let mut key = stack.label.clone();
        for frame in &stack.frames[..depth] {
            let id = frame.load(Ordering::Relaxed) as usize;
            key.push(';');
            key.push_str(names.get(id).copied().unwrap_or("?"));
        }
        *folded.entry(key).or_insert(0) += 1;
    }
}

/// A completed profile: folded stack counts plus sampling metadata.
#[derive(Debug, Clone)]
pub struct Profile {
    /// `label;outer;…;inner` → number of samples observed there.
    pub folded: BTreeMap<String, u64>,
    /// Total sampling ticks taken.
    pub samples: u64,
    /// Wall time the profiler ran for.
    pub duration: Duration,
}

impl Profile {
    /// Render in the folded-stack format `inferno` / `flamegraph.pl`
    /// consume: one `stack count` line per distinct stack.
    pub fn to_folded(&self) -> String {
        let mut out = String::with_capacity(self.folded.len() * 48);
        for (stack, count) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// True when no thread was ever observed.
    pub fn is_empty(&self) -> bool {
        self.folded.is_empty()
    }
}

/// A running sampler thread; [`ProfilerHandle::stop`] joins it and
/// returns the [`Profile`].
#[must_use = "the profiler keeps sampling until stop() is called"]
pub struct ProfilerHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<Profile>>,
}

impl ProfilerHandle {
    /// Stop sampling and collect the profile.
    pub fn stop(mut self) -> Profile {
        self.stop.store(true, Ordering::Relaxed);
        match self.join.take() {
            Some(join) => join.join().unwrap_or_else(|_| Profile {
                folded: BTreeMap::new(),
                samples: 0,
                duration: Duration::ZERO,
            }),
            None => Profile {
                folded: BTreeMap::new(),
                samples: 0,
                duration: Duration::ZERO,
            },
        }
    }
}

impl Drop for ProfilerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Start a background sampler at `hz` samples/sec (clamped to 1..=1000).
/// While it runs, span guards maintain thread stacks even if span
/// recording is disabled.
pub fn start(hz: u64) -> ProfilerHandle {
    let interval = Duration::from_nanos(1_000_000_000 / hz.clamp(1, 1000));
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    ACTIVE_PROFILERS.fetch_add(1, Ordering::Relaxed);
    let join = std::thread::Builder::new()
        .name("snap-profiler".into())
        .spawn(move || {
            let begin = Instant::now();
            let mut folded = BTreeMap::new();
            let mut samples = 0u64;
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                let tick = Instant::now();
                sample_once(&mut folded);
                samples += 1;
                TRACE_PROFILE_SAMPLES.incr();
                TRACE_OVERHEAD_NS.add(tick.elapsed().as_nanos() as u64);
            }
            ACTIVE_PROFILERS.fetch_sub(1, Ordering::Relaxed);
            Profile {
                folded,
                samples,
                duration: begin.elapsed(),
            }
        })
        .expect("spawn snap-profiler thread");
    ProfilerHandle {
        stop,
        join: Some(join),
    }
}

/// Sample for `duration` at `hz` and return the profile — the blocking
/// form behind the `/profile?seconds=N` endpoint.
pub fn profile_for(duration: Duration, hz: u64) -> Profile {
    let handle = start(hz);
    std::thread::sleep(duration);
    handle.stop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_shared() {
        let a = intern("test.profile.intern");
        let b = intern("test.profile.intern");
        assert_eq!(a, b);
        let names = names().lock().unwrap();
        assert_eq!(names[a as usize], "test.profile.intern");
    }

    #[test]
    fn push_pop_maintains_the_sampled_stack() {
        register_thread();
        push_frame("test.profile.outer");
        push_frame("test.profile.inner");
        let mut folded = BTreeMap::new();
        sample_once(&mut folded);
        let ours = folded
            .keys()
            .find(|k| k.ends_with("test.profile.outer;test.profile.inner"))
            .cloned();
        pop_frame();
        pop_frame();
        assert!(ours.is_some(), "own stack missing from sample: {folded:?}");
        // After the pops a fresh sample sees this thread idle again.
        let mut after = BTreeMap::new();
        sample_once(&mut after);
        assert!(!after.keys().any(|k| k.contains("test.profile.inner")));
    }

    #[test]
    fn profiler_collects_samples_and_counts_overhead() {
        let before = TRACE_PROFILE_SAMPLES.get();
        register_thread();
        push_frame("test.profile.busy");
        let profile = profile_for(Duration::from_millis(60), 200);
        pop_frame();
        assert!(profile.samples >= 2, "got {} samples", profile.samples);
        assert!(!profile.is_empty());
        assert!(TRACE_PROFILE_SAMPLES.get() > before);
        let folded = profile.to_folded();
        assert!(
            folded.contains("test.profile.busy"),
            "folded output missing busy frame:\n{folded}"
        );
        for line in folded.lines() {
            let (_, count) = line.rsplit_once(' ').expect("stack<space>count");
            count.parse::<u64>().expect("count parses");
        }
    }

    #[test]
    fn profiling_flag_tracks_running_samplers() {
        assert!(!profiling() || ACTIVE_PROFILERS.load(Ordering::Relaxed) > 0);
        let handle = start(500);
        assert!(profiling());
        let _ = handle.stop();
    }
}
