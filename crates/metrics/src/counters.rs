//! Experiment accounting.
//!
//! §6.2: "each period in figures represents 800 ms, which is the frequency
//! at which we collect data". [`ExperimentCounters`] buckets every request
//! outcome and utilization sample into such periods and yields one
//! [`PeriodRecord`] per period — the rows behind every §7 figure — plus the
//! cumulative objectives of Eq. 1: the QoS-guarantee satisfaction rate φ
//! for LC and the long-term throughput φ′ for BE.

use crate::percentile::percentile;
use tango_types::SimTime;

/// Aggregates for one reporting period.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeriodRecord {
    /// Period index (time / period length).
    pub index: u64,
    /// LC requests that arrived in this period (Q_{b,t} summed over b).
    pub lc_arrived: u64,
    /// LC requests completed in this period.
    pub lc_completed: u64,
    /// LC requests completed within their QoS target (q_{b,t}).
    pub lc_satisfied: u64,
    /// BE requests completed in this period (q'_{b,t}).
    pub be_completed: u64,
    /// Requests abandoned in this period.
    pub abandoned: u64,
    /// Mean overall resource utilization sampled in this period, [0, 1].
    pub util_overall: f64,
    /// Mean utilization attributable to LC containers.
    pub util_lc: f64,
    /// Mean utilization attributable to BE containers.
    pub util_be: f64,
    /// p95 latency of LC completions in this period, ms (0 when none).
    pub lc_p95_ms: f64,
    /// LC completions that missed their QoS target while a fault (node
    /// down, link degraded, partition) was active in this period.
    pub fault_qos_violations: u64,
    /// Mean keep-alive detection lag (fault injection → detector trip)
    /// over the crashes detected in this period, in ms (0 when none).
    pub detection_lag_ms: f64,
    /// Dispatch rounds a delegated decision source answered but the
    /// reply was discarded (malformed, inconsistent, or over its
    /// sim-time deadline) and the local policy planned instead.
    pub proxy_fallbacks: u64,
    /// Migrations initiated in this period (pod detached, transfer
    /// started).
    pub migrations_started: u64,
    /// Migrations that landed in this period (pod resumed on its
    /// destination).
    pub migrations_completed: u64,
    /// KiB sent toward the cloud tier in this period: BE forward
    /// payloads of cloud placements plus migration state transfers.
    pub cloud_egress_kib: u64,
}

/// Nearest-rank p95 of `latencies` in ms (0 when empty).
fn p95_ms(latencies: &[SimTime]) -> f64 {
    percentile(latencies, 95.0).map_or(0.0, |t| t.as_micros() as f64 / 1_000.0)
}

#[derive(Debug, Clone, Default)]
pub(crate) struct Accum {
    pub(crate) lc_arrived: u64,
    pub(crate) lc_completed: u64,
    pub(crate) lc_satisfied: u64,
    pub(crate) be_completed: u64,
    pub(crate) abandoned: u64,
    pub(crate) util_sum: (f64, f64, f64),
    pub(crate) util_samples: u64,
    pub(crate) lc_latencies: Vec<SimTime>,
    pub(crate) fault_qos_violations: u64,
    pub(crate) detection_lag_us_sum: u64,
    pub(crate) detections: u64,
    pub(crate) proxy_fallbacks: u64,
    pub(crate) migrations_started: u64,
    pub(crate) migrations_completed: u64,
    pub(crate) cloud_egress_kib: u64,
}

/// Period-bucketed experiment counters.
#[derive(Debug)]
pub struct ExperimentCounters {
    pub(crate) period: SimTime,
    pub(crate) buckets: Vec<Accum>,
}

impl ExperimentCounters {
    /// Create counters with the given period length.
    pub fn new(period: SimTime) -> Self {
        assert!(period > SimTime::ZERO, "period must be positive");
        ExperimentCounters {
            period,
            buckets: Vec::new(),
        }
    }

    /// The paper's 800 ms reporting period.
    pub fn paper_default() -> Self {
        ExperimentCounters::new(SimTime::from_millis(800))
    }

    fn bucket(&mut self, at: SimTime) -> &mut Accum {
        let idx = (at.as_micros() / self.period.as_micros()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, Accum::default());
        }
        &mut self.buckets[idx]
    }

    /// An LC request arrived.
    pub fn on_lc_arrival(&mut self, at: SimTime) {
        self.bucket(at).lc_arrived += 1;
    }

    /// An LC request completed; `within_qos` per its service target.
    pub fn on_lc_complete(&mut self, at: SimTime, latency: SimTime, within_qos: bool) {
        let b = self.bucket(at);
        b.lc_completed += 1;
        if within_qos {
            b.lc_satisfied += 1;
        }
        b.lc_latencies.push(latency);
    }

    /// A BE request completed.
    pub fn on_be_complete(&mut self, at: SimTime) {
        self.bucket(at).be_completed += 1;
    }

    /// A request was abandoned.
    pub fn on_abandon(&mut self, at: SimTime) {
        self.bucket(at).abandoned += 1;
    }

    /// An LC completion missed its QoS target inside a fault window.
    pub fn on_fault_qos_violation(&mut self, at: SimTime) {
        self.bucket(at).fault_qos_violations += 1;
    }

    /// Total QoS violations attributable to fault windows.
    pub fn total_fault_qos_violations(&self) -> u64 {
        self.buckets.iter().map(|b| b.fault_qos_violations).sum()
    }

    /// The keep-alive detector tripped on a crash: record the lag from
    /// physical fault injection to detection, in sim time.
    pub fn on_detection(&mut self, at: SimTime, lag: SimTime) {
        let b = self.bucket(at);
        b.detection_lag_us_sum += lag.as_micros();
        b.detections += 1;
    }

    /// `n` dispatch rounds fell back from a delegated decision to the
    /// local policy since the last sample.
    pub fn on_proxy_fallbacks(&mut self, at: SimTime, n: u64) {
        self.bucket(at).proxy_fallbacks += n;
    }

    /// A migration was initiated (pod detached, transfer in flight).
    pub fn on_migration_started(&mut self, at: SimTime) {
        self.bucket(at).migrations_started += 1;
    }

    /// A migration landed (pod resumed on its destination).
    pub fn on_migration_completed(&mut self, at: SimTime) {
        self.bucket(at).migrations_completed += 1;
    }

    /// `kib` KiB crossed the edge→cloud boundary (placement payload or
    /// migration state transfer).
    pub fn on_cloud_egress(&mut self, at: SimTime, kib: u64) {
        self.bucket(at).cloud_egress_kib += kib;
    }

    /// (started, completed) migrations over the whole run.
    pub fn migration_totals(&self) -> (u64, u64) {
        self.buckets.iter().fold((0, 0), |(s, c), b| {
            (s + b.migrations_started, c + b.migrations_completed)
        })
    }

    /// Total KiB of cloud egress over the whole run.
    pub fn total_cloud_egress_kib(&self) -> u64 {
        self.buckets.iter().map(|b| b.cloud_egress_kib).sum()
    }

    /// (detected crashes, mean detection lag in ms) over the whole run.
    pub fn detection_lag_summary(&self) -> (u64, f64) {
        let (sum, n) = self.buckets.iter().fold((0u64, 0u64), |(s, n), b| {
            (s + b.detection_lag_us_sum, n + b.detections)
        });
        if n == 0 {
            (0, 0.0)
        } else {
            (n, sum as f64 / n as f64 / 1_000.0)
        }
    }

    /// Total proxy fallbacks over the whole run.
    pub fn total_proxy_fallbacks(&self) -> u64 {
        self.buckets.iter().map(|b| b.proxy_fallbacks).sum()
    }

    /// Record a utilization sample (overall, LC share, BE share), each in
    /// [0, 1].
    pub fn sample_utilization(&mut self, at: SimTime, overall: f64, lc: f64, be: f64) {
        let b = self.bucket(at);
        b.util_sum.0 += overall;
        b.util_sum.1 += lc;
        b.util_sum.2 += be;
        b.util_samples += 1;
    }

    /// Cumulative QoS-guarantee satisfaction rate φ = Σq / ΣQ over all
    /// periods. `None` when no LC requests arrived.
    pub fn qos_satisfaction_rate(&self) -> Option<f64> {
        let arrived: u64 = self.buckets.iter().map(|b| b.lc_arrived).sum();
        if arrived == 0 {
            return None;
        }
        let sat: u64 = self.buckets.iter().map(|b| b.lc_satisfied).sum();
        Some(sat as f64 / arrived as f64)
    }

    /// Satisfaction rate against *completed* LC requests (used when a run
    /// is truncated and late arrivals never finished).
    pub fn qos_satisfaction_of_completed(&self) -> Option<f64> {
        let done: u64 = self.buckets.iter().map(|b| b.lc_completed).sum();
        if done == 0 {
            return None;
        }
        let sat: u64 = self.buckets.iter().map(|b| b.lc_satisfied).sum();
        Some(sat as f64 / done as f64)
    }

    /// Cumulative BE throughput φ′ = Σ q′.
    pub fn be_throughput(&self) -> u64 {
        self.buckets.iter().map(|b| b.be_completed).sum()
    }

    /// Total abandoned requests.
    pub fn total_abandoned(&self) -> u64 {
        self.buckets.iter().map(|b| b.abandoned).sum()
    }

    /// Mean overall utilization across all samples.
    pub fn mean_utilization(&self) -> f64 {
        let (sum, n) = self.buckets.iter().fold((0.0, 0u64), |(s, n), b| {
            (s + b.util_sum.0, n + b.util_samples)
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// p95 of all LC completion latencies, in ms.
    pub fn overall_lc_p95_ms(&self) -> f64 {
        let all: Vec<SimTime> = self
            .buckets
            .iter()
            .flat_map(|b| b.lc_latencies.iter().copied())
            .collect();
        p95_ms(&all)
    }

    /// Materialize the per-period rows.
    pub fn periods(&self) -> Vec<PeriodRecord> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let n = b.util_samples.max(1) as f64;
                PeriodRecord {
                    index: i as u64,
                    lc_arrived: b.lc_arrived,
                    lc_completed: b.lc_completed,
                    lc_satisfied: b.lc_satisfied,
                    be_completed: b.be_completed,
                    abandoned: b.abandoned,
                    util_overall: b.util_sum.0 / n,
                    util_lc: b.util_sum.1 / n,
                    util_be: b.util_sum.2 / n,
                    lc_p95_ms: p95_ms(&b.lc_latencies),
                    fault_qos_violations: b.fault_qos_violations,
                    detection_lag_ms: if b.detections == 0 {
                        0.0
                    } else {
                        b.detection_lag_us_sum as f64 / b.detections as f64 / 1_000.0
                    },
                    proxy_fallbacks: b.proxy_fallbacks,
                    migrations_started: b.migrations_started,
                    migrations_completed: b.migrations_completed,
                    cloud_egress_kib: b.cloud_egress_kib,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn events_land_in_the_right_period() {
        let mut c = ExperimentCounters::paper_default();
        c.on_lc_arrival(ms(100)); // period 0
        c.on_lc_arrival(ms(799)); // period 0
        c.on_lc_arrival(ms(800)); // period 1
        c.on_lc_complete(ms(900), ms(50), true); // period 1
        c.on_be_complete(ms(1_700)); // period 2
        c.on_abandon(ms(2_500)); // period 3
        let p = c.periods();
        assert_eq!(p.len(), 4);
        assert_eq!(p[0].lc_arrived, 2);
        assert_eq!(p[1].lc_arrived, 1);
        assert_eq!(p[1].lc_completed, 1);
        assert_eq!(p[1].lc_satisfied, 1);
        assert_eq!(p[2].be_completed, 1);
        assert_eq!(p[3].abandoned, 1);
    }

    #[test]
    fn satisfaction_rate_is_sat_over_arrived() {
        let mut c = ExperimentCounters::paper_default();
        assert_eq!(c.qos_satisfaction_rate(), None);
        for i in 0..10 {
            c.on_lc_arrival(ms(i * 10));
        }
        for i in 0..8 {
            c.on_lc_complete(ms(500 + i), ms(100), i < 6);
        }
        assert!((c.qos_satisfaction_rate().unwrap() - 0.6).abs() < 1e-12);
        assert!((c.qos_satisfaction_of_completed().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn throughput_and_abandoned_accumulate() {
        let mut c = ExperimentCounters::paper_default();
        for i in 0..25 {
            c.on_be_complete(ms(i * 100));
        }
        c.on_abandon(ms(5));
        c.on_abandon(ms(5_000));
        assert_eq!(c.be_throughput(), 25);
        assert_eq!(c.total_abandoned(), 2);
    }

    #[test]
    fn utilization_averages_within_period() {
        let mut c = ExperimentCounters::paper_default();
        c.sample_utilization(ms(0), 0.2, 0.1, 0.1);
        c.sample_utilization(ms(400), 0.6, 0.4, 0.2);
        let p = c.periods();
        assert!((p[0].util_overall - 0.4).abs() < 1e-12);
        assert!((p[0].util_lc - 0.25).abs() < 1e-12);
        assert!((c.mean_utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn p95_per_period_and_overall() {
        let mut c = ExperimentCounters::paper_default();
        for i in 1..=100u64 {
            c.on_lc_complete(ms(10), ms(i), true);
        }
        let p = c.periods();
        assert!((p[0].lc_p95_ms - 95.0).abs() < 1e-9);
        assert!((c.overall_lc_p95_ms() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn fault_qos_violations_bucket_and_sum() {
        let mut c = ExperimentCounters::paper_default();
        c.on_fault_qos_violation(ms(100)); // period 0
        c.on_fault_qos_violation(ms(900)); // period 1
        c.on_fault_qos_violation(ms(950)); // period 1
        let p = c.periods();
        assert_eq!(p[0].fault_qos_violations, 1);
        assert_eq!(p[1].fault_qos_violations, 2);
        assert_eq!(c.total_fault_qos_violations(), 3);
    }

    #[test]
    fn detection_lag_and_proxy_fallbacks_bucket_and_summarize() {
        let mut c = ExperimentCounters::paper_default();
        c.on_detection(ms(300), ms(200)); // period 0
        c.on_detection(ms(900), ms(100)); // period 1
        c.on_detection(ms(1_000), ms(300)); // period 1
        c.on_proxy_fallbacks(ms(100), 2); // period 0
        c.on_proxy_fallbacks(ms(900), 1); // period 1
        let p = c.periods();
        assert!((p[0].detection_lag_ms - 200.0).abs() < 1e-9);
        assert!((p[1].detection_lag_ms - 200.0).abs() < 1e-9);
        assert_eq!(p[0].proxy_fallbacks, 2);
        assert_eq!(p[1].proxy_fallbacks, 1);
        let (n, mean) = c.detection_lag_summary();
        assert_eq!(n, 3);
        assert!((mean - 200.0).abs() < 1e-9);
        assert_eq!(c.total_proxy_fallbacks(), 3);
    }

    #[test]
    fn migration_counters_bucket_and_total() {
        let mut c = ExperimentCounters::paper_default();
        c.on_migration_started(ms(100)); // period 0
        c.on_cloud_egress(ms(100), 64); // period 0
        c.on_migration_started(ms(900)); // period 1
        c.on_cloud_egress(ms(900), 128); // period 1
        c.on_migration_completed(ms(1_000)); // period 1
        let p = c.periods();
        assert_eq!(p[0].migrations_started, 1);
        assert_eq!(p[0].migrations_completed, 0);
        assert_eq!(p[0].cloud_egress_kib, 64);
        assert_eq!(p[1].migrations_started, 1);
        assert_eq!(p[1].migrations_completed, 1);
        assert_eq!(p[1].cloud_egress_kib, 128);
        assert_eq!(c.migration_totals(), (2, 1));
        assert_eq!(c.total_cloud_egress_kib(), 192);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = ExperimentCounters::new(SimTime::ZERO);
    }
}
