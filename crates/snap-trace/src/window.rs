//! Windowed histogram aggregation: a lock-free ring of time-bucketed
//! windows that answers "p50/p95/p99 over the last minute" while the
//! run is still going.
//!
//! Every [`crate::Histogram`] embeds a [`WindowRing`] of
//! [`WINDOW_SLOTS`] slots, each covering [`WINDOW_SECS`] seconds of
//! wall time. A recorded sample lands in the slot for its wall-clock
//! window (`elapsed / WINDOW_SECS % WINDOW_SLOTS`); when the ring wraps
//! onto a stale slot, the first recorder to notice CAS-claims the slot
//! for the new window and zeroes it. All fields are relaxed atomics, so
//! recording stays a handful of RMWs with no lock — the price is that a
//! reader (or a racing recorder at a window boundary) can observe a
//! slot mid-reset and miscount a few samples. Windows feed live
//! percentile *estimates*, not audited totals; the cumulative histogram
//! fields remain exact.
//!
//! [`crate::HistogramSnapshot::percentile`] estimates quantiles from
//! the power-of-two buckets: the answer is the upper bound of the
//! bucket holding the requested rank, clamped into the observed
//! `[min, max]`, so the estimate is at worst one bucket (2×) coarse.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::HISTOGRAM_BUCKETS;

/// Number of slots in the window ring.
pub const WINDOW_SLOTS: usize = 12;

/// Wall-time covered by one slot, seconds.
pub const WINDOW_SECS: u64 = 5;

const SLOT_NS: u64 = WINDOW_SECS * 1_000_000_000;

/// One time-bucketed window of histogram samples. `epoch` stores the
/// slot's window number plus one (zero = never written), so a reader
/// can tell live slots from stale ones without a separate flag.
#[derive(Debug)]
struct WindowSlot {
    epoch: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl WindowSlot {
    const fn new() -> WindowSlot {
        WindowSlot {
            epoch: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// The per-histogram ring of [`WINDOW_SLOTS`] windows.
#[derive(Debug)]
pub struct WindowRing {
    slots: [WindowSlot; WINDOW_SLOTS],
}

/// Merged view of the windows covering a trailing time range.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Samples in the merged windows.
    pub count: u64,
    /// Sum of those samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Merged power-of-two bucket counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl WindowRing {
    /// An empty ring (const, so histograms stay `static`-constructible).
    pub const fn new() -> WindowRing {
        WindowRing {
            slots: [const { WindowSlot::new() }; WINDOW_SLOTS],
        }
    }

    /// Record one sample at `now_ns` (nanoseconds since the trace
    /// epoch). Called from [`crate::Histogram::record`]; call sites of
    /// the histogram API never see windows.
    pub fn record(&self, sample: u64, now_ns: u64) {
        let window = now_ns / SLOT_NS;
        let slot = &self.slots[(window % WINDOW_SLOTS as u64) as usize];
        let epoch = window + 1;
        let seen = slot.epoch.load(Ordering::Relaxed);
        if seen != epoch {
            // The ring wrapped onto a stale window: one recorder wins
            // the CAS and zeroes the slot. A racing recorder that lands
            // between the CAS and the reset can lose its sample — a
            // benign boundary race, documented at module level.
            if slot
                .epoch
                .compare_exchange(seen, epoch, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                slot.reset();
            } else if slot.epoch.load(Ordering::Relaxed) != epoch {
                // A different window won the slot concurrently; drop
                // the sample rather than pollute a foreign window.
                return;
            }
        }
        let bucket = (64 - sample.leading_zeros() as usize).saturating_sub(1);
        slot.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(sample, Ordering::Relaxed);
        slot.min.fetch_min(sample, Ordering::Relaxed);
        slot.max.fetch_max(sample, Ordering::Relaxed);
    }

    /// Merge every slot whose window falls within the trailing
    /// `range_secs` seconds before `now_ns` (the current partial window
    /// included).
    pub fn merged(&self, range_secs: u64, now_ns: u64) -> WindowStats {
        let current = now_ns / SLOT_NS;
        let span = (range_secs.div_ceil(WINDOW_SECS)).clamp(1, WINDOW_SLOTS as u64);
        let oldest = (current + 1).saturating_sub(span);
        let mut stats = WindowStats {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        for slot in &self.slots {
            let epoch = slot.epoch.load(Ordering::Relaxed);
            if epoch == 0 {
                continue;
            }
            let window = epoch - 1;
            if window < oldest || window > current {
                continue;
            }
            stats.count += slot.count.load(Ordering::Relaxed);
            stats.sum += slot.sum.load(Ordering::Relaxed);
            stats.min = stats.min.min(slot.min.load(Ordering::Relaxed));
            stats.max = stats.max.max(slot.max.load(Ordering::Relaxed));
            for (merged, bucket) in stats.buckets.iter_mut().zip(&slot.buckets) {
                *merged += bucket.load(Ordering::Relaxed);
            }
        }
        if stats.count == 0 {
            stats.min = 0;
        }
        stats
    }
}

impl Default for WindowRing {
    fn default() -> WindowRing {
        WindowRing::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    #[test]
    fn samples_land_in_their_window() {
        let ring = WindowRing::new();
        ring.record(100, 0);
        ring.record(200, S);
        ring.record(400, 6 * S); // second window
        let last_minute = ring.merged(60, 7 * S);
        assert_eq!(last_minute.count, 3);
        assert_eq!(last_minute.sum, 700);
        assert_eq!(last_minute.min, 100);
        assert_eq!(last_minute.max, 400);
        let last_window = ring.merged(WINDOW_SECS, 7 * S);
        assert_eq!(last_window.count, 1);
        assert_eq!(last_window.sum, 400);
    }

    #[test]
    fn stale_windows_age_out_of_the_merge() {
        let ring = WindowRing::new();
        ring.record(100, 0);
        // 2 minutes later the sample is outside every merge range even
        // though its slot has not been overwritten yet.
        let stats = ring.merged(60, 120 * S);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.min, 0);
    }

    #[test]
    fn ring_wrap_resets_the_reused_slot() {
        let ring = WindowRing::new();
        ring.record(100, 0);
        // One full ring later the same slot serves a new window; the
        // old contents must not leak into it.
        let wrap_ns = WINDOW_SLOTS as u64 * WINDOW_SECS * S;
        ring.record(900, wrap_ns);
        let stats = ring.merged(WINDOW_SECS, wrap_ns);
        assert_eq!(stats.count, 1);
        assert_eq!(stats.sum, 900);
        assert_eq!(stats.min, 900);
    }

    #[test]
    fn merge_range_is_clamped_to_the_ring() {
        let ring = WindowRing::new();
        ring.record(7, 0);
        let stats = ring.merged(10_000, 1);
        assert_eq!(stats.count, 1);
    }

    #[test]
    fn windows_newer_than_the_reader_are_left_out() {
        let ring = WindowRing::new();
        ring.record(5, S);
        ring.record(50, 3 * WINDOW_SECS * S);
        // A reader whose clock is still in window 0 (it read the time
        // before a racing recorder moved on) sees only window 0.
        let stats = ring.merged(60, 2 * S);
        assert_eq!(stats.count, 1);
        assert_eq!(stats.sum, 5);
        assert_eq!(stats.max, 5);
    }

    #[test]
    fn extreme_samples_fill_the_first_and_last_buckets() {
        let ring = WindowRing::new();
        ring.record(0, 0);
        ring.record(1, 0);
        ring.record(u64::MAX, 0);
        let stats = ring.merged(WINDOW_SECS, 0);
        assert_eq!(stats.count, 3);
        assert_eq!(stats.buckets[0], 2, "0 and 1 share bucket 0");
        assert_eq!(stats.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(stats.buckets.iter().sum::<u64>(), 3);
        assert_eq!((stats.min, stats.max), (0, u64::MAX));
    }
}
