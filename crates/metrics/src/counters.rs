//! Experiment accounting.
//!
//! §6.2: "each period in figures represents 800 ms, which is the frequency
//! at which we collect data". [`ExperimentCounters`] buckets every request
//! outcome and utilization sample into such periods and yields one
//! [`PeriodRecord`] per period — the rows behind every §7 figure — plus the
//! cumulative objectives of Eq. 1: the QoS-guarantee satisfaction rate φ
//! for LC and the long-term throughput φ′ for BE.

use crate::percentile::percentile;
use std::fmt::Write;
use tango_types::SimTime;

/// A per-period count: code bumps it with [`ExperimentCounters::add`]
/// and reads the run total back with [`ExperimentCounters::total`].
/// Declaration order is the checkpoint codec's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// LC requests that arrived (Q_{b,t} summed over b).
    LcArrived,
    /// LC requests completed.
    LcCompleted,
    /// LC requests completed within their QoS target (q_{b,t}).
    LcSatisfied,
    /// BE requests completed (q'_{b,t}).
    BeCompleted,
    /// Requests abandoned.
    Abandoned,
    /// LC completions that missed their QoS target while a fault was
    /// active.
    FaultQosViolations,
    /// Summed keep-alive detection lag (fault injection → detector
    /// trip), in µs.
    DetectionLagUs,
    /// Crashes the keep-alive detector tripped on.
    Detections,
    /// Dispatch rounds that fell back from a delegated decision to the
    /// local policy.
    ProxyFallbacks,
    /// Migrations initiated (pod detached, transfer in flight).
    MigrationsStarted,
    /// Migrations that landed (pod resumed on its destination).
    MigrationsCompleted,
    /// KiB sent across the edge→cloud boundary: BE placement payloads
    /// plus migration state transfers.
    CloudEgressKib,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = Counter::CloudEgressKib as usize + 1;
    /// Counters the codec writes before the utilization sums and
    /// latencies; the rest follow them.
    pub(crate) const LEADING: usize = Counter::Abandoned as usize + 1;
}

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

/// How one period column reads its value out of a [`PeriodRecord`].
#[derive(Debug, Clone, Copy)]
enum Field {
    /// A count, printed in full.
    Count(fn(&PeriodRecord) -> u64),
    /// A real, printed with the given number of decimals.
    Real(fn(&PeriodRecord) -> f64, usize),
}

/// One column of the per-period series.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// CSV header name.
    pub name: &'static str,
    /// The value and its CSV format.
    field: Field,
    /// Whether the run digest folds this column. Observational columns
    /// stay out, so instrumentation never moves a pinned digest.
    pub in_digest: bool,
}

impl Column {
    const fn count(name: &'static str, get: fn(&PeriodRecord) -> u64, in_digest: bool) -> Self {
        Column {
            name,
            field: Field::Count(get),
            in_digest,
        }
    }

    const fn real(
        name: &'static str,
        get: fn(&PeriodRecord) -> f64,
        decimals: usize,
        in_digest: bool,
    ) -> Self {
        Column {
            name,
            field: Field::Real(get, decimals),
            in_digest,
        }
    }

    /// The column's value as the digest folds it (reals bitwise).
    pub fn bits(&self, p: &PeriodRecord) -> u64 {
        match self.field {
            Field::Count(get) => get(p),
            Field::Real(get, _) => get(p).to_bits(),
        }
    }

    /// Append the column's CSV cell for `p` to `out`.
    pub fn write_cell(&self, p: &PeriodRecord, out: &mut String) {
        let _ = match self.field {
            Field::Count(get) => write!(out, "{}", get(p)),
            Field::Real(get, decimals) => write!(out, "{:.*}", decimals, get(p)),
        };
    }
}

impl PeriodRecord {
    /// Every column of the period series, in CSV order.
    pub const COLUMNS: [Column; 16] = [
        Column::count("period", |p| p.index, true),
        Column::count("lc_arrived", |p| p.lc_arrived, true),
        Column::count("lc_completed", |p| p.lc_completed, true),
        Column::count("lc_satisfied", |p| p.lc_satisfied, true),
        Column::count("be_completed", |p| p.be_completed, true),
        Column::count("abandoned", |p| p.abandoned, true),
        Column::real("util_overall", |p| p.util_overall, 4, true),
        Column::real("util_lc", |p| p.util_lc, 4, true),
        Column::real("util_be", |p| p.util_be, 4, true),
        Column::real("lc_p95_ms", |p| p.lc_p95_ms, 2, true),
        Column::count("fault_qos_violations", |p| p.fault_qos_violations, true),
        Column::real("detection_lag_ms", |p| p.detection_lag_ms, 2, false),
        Column::count("proxy_fallbacks", |p| p.proxy_fallbacks, false),
        Column::count("migrations_started", |p| p.migrations_started, false),
        Column::count("migrations_completed", |p| p.migrations_completed, false),
        Column::count("cloud_egress_kib", |p| p.cloud_egress_kib, false),
    ];
}

/// Nearest-rank p95 of `latencies` in ms (0 when empty).
fn p95_ms(latencies: &[SimTime]) -> f64 {
    percentile(latencies, 95.0).map_or(0.0, |t| t.as_micros() as f64 / 1_000.0)
}

#[derive(Debug, Clone, Default)]
pub(crate) struct Accum {
    pub(crate) counts: [u64; Counter::COUNT],
    pub(crate) util_sum: (f64, f64, f64),
    pub(crate) util_samples: u64,
    pub(crate) lc_latencies: Vec<SimTime>,
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

    /// Add `n` to `counter` in the period containing `at`.
    pub fn add(&mut self, at: SimTime, counter: Counter, n: u64) {
        self.bucket(at).counts[counter as usize] += n;
    }

    /// `counter` summed over the whole run.
    pub fn total(&self, counter: Counter) -> u64 {
        self.buckets
            .iter()
            .map(|b| b.counts[counter as usize])
            .sum()
    }

    /// An LC request completed; `within_qos` per its service target.
    pub fn on_lc_complete(&mut self, at: SimTime, latency: SimTime, within_qos: bool) {
        let b = self.bucket(at);
        b.counts[Counter::LcCompleted as usize] += 1;
        b.counts[Counter::LcSatisfied as usize] += u64::from(within_qos);
        b.lc_latencies.push(latency);
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
        let arrived = self.total(Counter::LcArrived);
        if arrived == 0 {
            return None;
        }
        Some(self.total(Counter::LcSatisfied) as f64 / arrived as f64)
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
                let count = |c: Counter| b.counts[c as usize];
                let n = b.util_samples.max(1) as f64;
                let detections = count(Counter::Detections);
                PeriodRecord {
                    index: i as u64,
                    lc_arrived: count(Counter::LcArrived),
                    lc_completed: count(Counter::LcCompleted),
                    lc_satisfied: count(Counter::LcSatisfied),
                    be_completed: count(Counter::BeCompleted),
                    abandoned: count(Counter::Abandoned),
                    util_overall: b.util_sum.0 / n,
                    util_lc: b.util_sum.1 / n,
                    util_be: b.util_sum.2 / n,
                    lc_p95_ms: p95_ms(&b.lc_latencies),
                    fault_qos_violations: count(Counter::FaultQosViolations),
                    detection_lag_ms: if detections == 0 {
                        0.0
                    } else {
                        count(Counter::DetectionLagUs) as f64 / detections as f64 / 1_000.0
                    },
                    proxy_fallbacks: count(Counter::ProxyFallbacks),
                    migrations_started: count(Counter::MigrationsStarted),
                    migrations_completed: count(Counter::MigrationsCompleted),
                    cloud_egress_kib: count(Counter::CloudEgressKib),
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
        c.add(ms(100), Counter::LcArrived, 1); // period 0
        c.add(ms(799), Counter::LcArrived, 1); // period 0
        c.add(ms(800), Counter::LcArrived, 1); // period 1
        c.on_lc_complete(ms(900), ms(50), true); // period 1
        c.add(ms(1_700), Counter::BeCompleted, 1); // period 2
        c.add(ms(2_500), Counter::Abandoned, 1); // period 3
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
            c.add(ms(i * 10), Counter::LcArrived, 1);
        }
        for i in 0..8 {
            c.on_lc_complete(ms(500 + i), ms(100), i < 6);
        }
        assert!((c.qos_satisfaction_rate().unwrap() - 0.6).abs() < 1e-12);
        assert_eq!(c.total(Counter::LcCompleted), 8);
        assert_eq!(c.total(Counter::LcSatisfied), 6);
    }

    #[test]
    fn throughput_and_abandoned_accumulate() {
        let mut c = ExperimentCounters::paper_default();
        for i in 0..25 {
            c.add(ms(i * 100), Counter::BeCompleted, 1);
        }
        c.add(ms(5), Counter::Abandoned, 1);
        c.add(ms(5_000), Counter::Abandoned, 1);
        assert_eq!(c.total(Counter::BeCompleted), 25);
        assert_eq!(c.total(Counter::Abandoned), 2);
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
        c.add(ms(100), Counter::FaultQosViolations, 1); // period 0
        c.add(ms(900), Counter::FaultQosViolations, 1); // period 1
        c.add(ms(950), Counter::FaultQosViolations, 1); // period 1
        let p = c.periods();
        assert_eq!(p[0].fault_qos_violations, 1);
        assert_eq!(p[1].fault_qos_violations, 2);
        assert_eq!(c.total(Counter::FaultQosViolations), 3);
    }

    #[test]
    fn detection_lag_and_proxy_fallbacks_bucket_and_summarize() {
        let mut c = ExperimentCounters::paper_default();
        // (at, lag): one detection in period 0, two in period 1
        for (at, lag) in [(300, 200), (900, 100), (1_000, 300)] {
            c.add(ms(at), Counter::DetectionLagUs, ms(lag).as_micros());
            c.add(ms(at), Counter::Detections, 1);
        }
        c.add(ms(100), Counter::ProxyFallbacks, 2); // period 0
        c.add(ms(900), Counter::ProxyFallbacks, 1); // period 1
        let p = c.periods();
        assert!((p[0].detection_lag_ms - 200.0).abs() < 1e-9);
        assert!((p[1].detection_lag_ms - 200.0).abs() < 1e-9);
        assert_eq!(p[0].proxy_fallbacks, 2);
        assert_eq!(p[1].proxy_fallbacks, 1);
        assert_eq!(c.total(Counter::Detections), 3);
        assert_eq!(c.total(Counter::DetectionLagUs), ms(600).as_micros());
        assert_eq!(c.total(Counter::ProxyFallbacks), 3);
    }

    #[test]
    fn migration_counters_bucket_and_total() {
        let mut c = ExperimentCounters::paper_default();
        c.add(ms(100), Counter::MigrationsStarted, 1); // period 0
        c.add(ms(100), Counter::CloudEgressKib, 64); // period 0
        c.add(ms(900), Counter::MigrationsStarted, 1); // period 1
        c.add(ms(900), Counter::CloudEgressKib, 128); // period 1
        c.add(ms(1_000), Counter::MigrationsCompleted, 1); // period 1
        let p = c.periods();
        assert_eq!(p[0].migrations_started, 1);
        assert_eq!(p[0].migrations_completed, 0);
        assert_eq!(p[0].cloud_egress_kib, 64);
        assert_eq!(p[1].migrations_started, 1);
        assert_eq!(p[1].migrations_completed, 1);
        assert_eq!(p[1].cloud_egress_kib, 128);
        assert_eq!(c.total(Counter::MigrationsStarted), 2);
        assert_eq!(c.total(Counter::MigrationsCompleted), 1);
        assert_eq!(c.total(Counter::CloudEgressKib), 192);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = ExperimentCounters::new(SimTime::ZERO);
    }
}
