//! Measurement primitives: the wall clock, process peak RSS, and
//! allocator-traffic brackets around a timed call.

use std::fs;
use std::io;
use std::time::Instant;

use segugio_alloc_probe::PhaseCounts;

/// A wall-clock stopwatch. This module holds the benchmark's only clock
/// read; the readings are reported and never feed the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn started() -> Self {
        // segugio-lint: allow(D2, the benchmark reports wall time; readings never reach the detector)
        Stopwatch(Instant::now())
    }

    /// Seconds since [`started`](Self::started).
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One timed call into a layer: wall seconds plus the allocator traffic it
/// generated (all threads; the probe's counters are process-global).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Wall seconds.
    pub s: f64,
    /// Heap allocations performed during the call.
    pub allocs: u64,
    /// Peak live heap bytes during the call.
    pub peak_bytes: u64,
}

/// Runs `f`, timing it and counting its allocations.
pub fn span<T>(f: impl FnOnce() -> T) -> (T, Span) {
    let clock = Stopwatch::started();
    let (out, counts): (T, PhaseCounts) = segugio_alloc_probe::measure(f);
    let s = clock.seconds();
    (
        out,
        Span {
            s,
            allocs: counts.allocs,
            peak_bytes: counts.peak_bytes,
        },
    )
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next [`peak_rss_bytes`] reads the peak since this call.
pub fn reset_peak_rss() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak resident set (`VmHWM`) in bytes.
pub fn peak_rss_bytes() -> io::Result<u64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kib| kib * 1024)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// The median of `values` (the mean of the middle two for an even count);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
