//! Pass timings, scaled to a reference machine speed.
//!
//! On a shared machine the program's speed drifts with its neighbours'
//! load, by a tenth or more between runs minutes apart. Every pass (or
//! window) is therefore bracketed by a short calibration kernel — fixed
//! work from the benchmark's own code, identical on every commit — and
//! its times are scaled by how fast that kernel ran around it. A scaled
//! time reads as "seconds on a machine where the kernel takes
//! [`REFERENCE_S`]": the same-run ratio against a fixed reference, in
//! units a user recognises. The run reports the median pass.

use crate::report::Report;
use crate::stats::{median, percentile};
use std::hint::black_box;
use std::time::Instant;

/// Seconds the calibration kernel takes at the reference speed.
pub const REFERENCE_S: f64 = 0.0005;
/// Kernel iterations: about half a millisecond on a current server core.
const KERNEL_ITERS: u64 = 200_000;
/// Kernel runs per calibration; the fastest counts.
const KERNEL_RUNS: usize = 5;
/// Kernel table entries: 256 KiB, cache-resident like the solver's
/// working set.
const KERNEL_TABLE: usize = 1 << 15;

/// Branchy integer work with scattered reads and writes.
fn kernel(seed: u64) -> u64 {
    let mut table = vec![0u64; KERNEL_TABLE];
    let mut x = seed | 1;
    for i in 0..KERNEL_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (KERNEL_TABLE - 1);
        table[j] = table[j].wrapping_add(if x & 1 == 0 { i } else { x });
    }
    table.iter().fold(0, |a, &b| a ^ b)
}

/// Seconds `threads` concurrent copies of the kernel take now: the
/// fastest of a few runs, so a momentary interruption does not count
/// but a sustained slowdown does. A parallel workload calibrates on as
/// many threads as it keeps busy, so a core lost to a neighbour shows;
/// short-lived threads sometimes share a core for their first
/// milliseconds, and taking the fastest run also discards those.
pub fn calibrate(threads: usize) -> f64 {
    (0..KERNEL_RUNS)
        .map(|_| {
            let t0 = Instant::now();
            if threads <= 1 {
                black_box(kernel(black_box(1)));
            } else {
                std::thread::scope(|s| {
                    for i in 0..threads {
                        s.spawn(move || black_box(kernel(black_box(i as u64 + 1))));
                    }
                });
            }
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The factor that scales times measured between two calibrations to
/// the reference speed.
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    2.0 * REFERENCE_S / (before_s + after_s)
}

/// The scaled timings of one run, pass by pass (or window by window, or
/// slice by slice).
#[derive(Debug, Default)]
pub struct Passes {
    /// Scaled seconds per operation, one entry per pass.
    op_s: Vec<f64>,
    /// Scaled per-pass p50 of call latency, seconds.
    p50: Vec<f64>,
    /// Scaled per-pass p90 of call latency, seconds.
    p90: Vec<f64>,
}

impl Passes {
    /// Record a pass of `ops` operations in `seconds`, under `scale`.
    pub fn add_rate(&mut self, scale: f64, ops: usize, seconds: f64) {
        self.op_s.push(seconds * scale / ops.max(1) as f64);
    }

    /// Record one pass's call latencies (ns) under `scale`; sorts them.
    pub fn add_latencies(&mut self, scale: f64, ns: &mut [u64]) {
        ns.sort_unstable();
        self.p50.push(percentile(ns, 0.5) as f64 * 1e-9 * scale);
        self.p90.push(percentile(ns, 0.9) as f64 * 1e-9 * scale);
    }

    /// Scaled seconds per operation of the median pass.
    pub fn op_s(&self) -> f64 {
        median(&self.op_s)
    }

    /// Set `ops_per_s`, `p50_us` and `p90_us` from the median passes.
    pub fn report(&self, rep: &mut Report) {
        rep.set("ops_per_s", 1.0 / self.op_s());
        rep.set("p50_us", median(&self.p50) * 1e6);
        rep.set("p90_us", median(&self.p90) * 1e6);
    }

    /// Tracing overhead: traced passes against untraced ones,
    /// interleaved in the same run.
    pub fn overhead_frac(untraced: &Passes, traced: &Passes) -> f64 {
        traced.op_s() / untraced.op_s() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_report_scaled_medians() {
        let mut p = Passes::default();
        // Three passes of 100 operations; the middle one ran while the
        // calibration kernel took twice the reference time.
        p.add_rate(1.0, 100, 1.0);
        p.add_rate(scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 100, 2.2);
        p.add_rate(1.0, 100, 3.0);
        p.add_latencies(1.0, &mut [40, 10, 30, 20, 50, 60, 70, 80, 90, 100]);
        let mut rep = Report::default();
        p.report(&mut rep);
        assert!((rep.metrics["ops_per_s"] - 100.0 / 1.1).abs() < 1e-9);
        assert!((rep.metrics["p50_us"] - 0.05).abs() < 1e-12);
        assert!((rep.metrics["p90_us"] - 0.09).abs() < 1e-12);
        let mut traced = Passes::default();
        traced.add_rate(1.0, 100, 1.1 * 1.1);
        assert!((Passes::overhead_frac(&p, &traced) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn calibration_takes_positive_time() {
        assert!(calibrate(1) > 0.0);
        assert!(calibrate(2) > 0.0);
    }
}
