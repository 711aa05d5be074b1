//! Minimal wall-clock micro-benchmark harness.
//!
//! The build environment has no access to crates.io, so criterion is not
//! available; this provides the subset the repo needs: warmup, repeated
//! timed batches, and a median-of-batches estimate that is robust to the
//! occasional scheduler hiccup. Results are deterministic in *work* (the
//! closures run fixed workloads off fixed seeds); only the timings vary
//! run to run.

use std::time::Instant;

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Scenario name, e.g. `dss_lc_decision/500`.
    pub name: String,
    /// Iterations actually timed (across all batches).
    pub iters: u64,
    /// Total wall time across all timed batches, in nanoseconds.
    pub total_ns: u128,
    /// Median-of-batches estimate of ns per iteration.
    pub ns_per_iter: f64,
    /// Set for non-timing samples: the measured value and its unit
    /// (e.g. a snapshot size in `"bytes"`). Timing fields are zero for
    /// these rows and the JSON emitter writes `value`/`unit` instead of
    /// `wall_ns`/`rate_per_sec`.
    pub metric: Option<(f64, &'static str)>,
}

impl Sample {
    /// Iterations per second implied by the per-iteration estimate.
    pub fn iters_per_sec(&self) -> f64 {
        if self.ns_per_iter > 0.0 {
            1e9 / self.ns_per_iter
        } else {
            0.0
        }
    }

    /// A non-timing measurement: a named value with a unit, carried in
    /// the same sample stream as the timings so it lands in the same
    /// committed JSON.
    pub fn metric(name: &str, value: f64, unit: &'static str) -> Sample {
        Sample {
            name: name.to_string(),
            iters: 1,
            total_ns: 0,
            ns_per_iter: 0.0,
            metric: Some((value, unit)),
        }
    }
}

/// Run `f` repeatedly for roughly `min_time_ms` of timed batches (after a
/// short warmup) and return the measurement. `std::hint::black_box` the
/// closure's result inside `f` when the compiler could otherwise discard
/// the work.
pub fn run<T>(name: &str, min_time_ms: u64, mut f: impl FnMut() -> T) -> Sample {
    // Warmup: one untimed call, then size the batch so each batch takes
    // roughly 10% of the measurement budget.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once_ns = t0.elapsed().as_nanos().max(1);
    let batch_budget_ns = (min_time_ms as u128) * 1_000_000 / 10;
    let batch_iters = (batch_budget_ns / once_ns).clamp(1, 1_000_000) as u64;

    let mut batch_estimates: Vec<f64> = Vec::new();
    let mut total_ns: u128 = 0;
    let mut iters: u64 = 0;
    let budget_ns = (min_time_ms as u128) * 1_000_000;
    while total_ns < budget_ns || batch_estimates.len() < 3 {
        let t = Instant::now();
        for _ in 0..batch_iters {
            std::hint::black_box(f());
        }
        let ns = t.elapsed().as_nanos();
        total_ns += ns;
        iters += batch_iters;
        batch_estimates.push(ns as f64 / batch_iters as f64);
        if batch_estimates.len() >= 200 {
            break;
        }
    }
    batch_estimates.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timings"));
    let ns_per_iter = batch_estimates[batch_estimates.len() / 2];
    Sample {
        name: name.to_string(),
        iters,
        total_ns,
        ns_per_iter,
        metric: None,
    }
}

/// Print one sample in the fixed-width table format the bench binaries use.
pub fn report(s: &Sample) {
    if let Some((value, unit)) = s.metric {
        println!("{:<44} {value:>12.0} {unit}", s.name);
        return;
    }
    println!(
        "{:<44} {:>12.0} ns/iter {:>14.1} iters/s  ({} iters)",
        s.name,
        s.ns_per_iter,
        s.iters_per_sec(),
        s.iters
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let s = run("noop_sum", 5, || (0..100u64).sum::<u64>());
        assert!(s.ns_per_iter > 0.0);
        assert!(s.iters >= 3);
        assert!(s.iters_per_sec() > 0.0);
    }
}
