//! Run reports: the numbers every §7 figure is drawn from.

use tango_faults::FaultSummary;
use tango_metrics::PeriodRecord;
use tango_snap::{fnv1a_extend, FNV_OFFSET};

/// Summary of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Label (policy pairing / system name).
    pub label: String,
    /// Per-800ms-period rows.
    pub periods: Vec<PeriodRecord>,
    /// QoS-guarantee satisfaction rate φ (Eq. 1), against arrivals.
    pub qos_satisfaction: f64,
    /// BE long-term throughput φ′ (completed BE requests).
    pub be_throughput: u64,
    /// Total abandoned requests.
    pub abandoned: u64,
    /// Mean overall resource utilization across sampled periods.
    pub mean_utilization: f64,
    /// p95 latency over all completed LC requests, ms.
    pub lc_p95_ms: f64,
    /// Total LC requests that arrived.
    pub lc_arrived: u64,
    /// Total LC requests completed.
    pub lc_completed: u64,
    /// D-VPA scaling operations performed (0 under the static allocator).
    pub dvpa_ops: u64,
    /// BE containers evicted by LC preemption.
    pub be_evictions: u64,
    /// Fault accounting: crashes, recoveries, downtime, rescheduled work,
    /// fault-window QoS violations. All zero on a calm-weather run.
    pub faults: FaultSummary,
    /// Pod migrations started by the defragmentation pass. Observational
    /// (excluded from the digest); zero whenever defrag is off.
    pub migrations_started: u64,
    /// Pod migrations that landed and resumed at their destination.
    pub migrations_completed: u64,
    /// Total KiB shipped across the edge→cloud boundary (placement
    /// payloads + migration checkpoints); zero without a cloud tier.
    pub cloud_egress_kib: u64,
}

/// Conservation audit over every request a run injected: each `Arrival`
/// must land in exactly one bucket. The terminal buckets are the
/// runtime's retired counts, `pending` its live requests. Produced by
/// `EdgeCloudSystem::run_audited`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunAudit {
    /// Requests injected by the trace.
    pub total: u64,
    /// Terminal: completed.
    pub completed: u64,
    /// Terminal: abandoned (queue deadline / patience).
    pub abandoned: u64,
    /// Terminal: failed (requeue budget exhausted).
    pub failed: u64,
    /// Non-terminal at the horizon (still queued, in flight or running).
    pub pending: u64,
    /// Requests whose state says "running on node X" while X is down —
    /// must be zero: crashes interrupt everything on the node.
    pub running_on_down_nodes: u64,
    /// Requests mid-migration at the horizon (subset of `pending`): their
    /// residual work rides the in-flight checkpoint, attached to neither
    /// endpoint, so crashes on either side can't lose or duplicate them.
    pub in_migration: u64,
    /// Queue, wait-list, fault-limbo and in-flight migration entries that
    /// name no live request — must be zero: a finished request leaves
    /// every queue before it is retired.
    pub dangling: u64,
}

impl RunAudit {
    /// Every request is in exactly one bucket.
    pub fn conserved(&self) -> bool {
        self.total == self.completed + self.abandoned + self.failed + self.pending
    }
}

impl RunReport {
    /// Deterministic 64-bit FNV-1a digest over the report's behavioral
    /// fields: the headline numbers, the fault ledger, and every period
    /// column flagged `in_digest` in [`PeriodRecord::COLUMNS`], floats
    /// folded bitwise. Two reports digest equal iff those fields are
    /// bit-identical; the refactor-equivalence golden tests pin this
    /// value for seeded runs, so any behavioral drift is caught exactly.
    /// Left out: the label (the digest pins behavior, not naming), the
    /// run's migration and egress totals, and the observational period
    /// columns, so pinned goldens survive control-plane and migration
    /// instrumentation; the ctrl-plane and migration tests assert those
    /// on their own.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut put = |v: u64| h = fnv1a_extend(h, &v.to_le_bytes());
        put(self.qos_satisfaction.to_bits());
        put(self.be_throughput);
        put(self.abandoned);
        put(self.mean_utilization.to_bits());
        put(self.lc_p95_ms.to_bits());
        put(self.lc_arrived);
        put(self.lc_completed);
        put(self.dvpa_ops);
        put(self.be_evictions);
        let f = &self.faults;
        for v in [
            f.node_crashes,
            f.node_recoveries,
            f.master_failovers,
            f.links_degraded,
            f.links_restored,
            f.partitions,
            f.heals,
            f.lc_interrupted,
            f.be_interrupted,
            f.wait_drained,
            f.bounced_deliveries,
            f.rescheduled,
            f.down_node_dispatches,
            f.total_downtime.as_micros(),
            f.fault_qos_violations,
        ] {
            put(v);
        }
        put(self.periods.len() as u64);
        for p in &self.periods {
            for col in PeriodRecord::COLUMNS.iter().filter(|c| c.in_digest) {
                put(col.bits(p));
            }
        }
        h
    }

    /// Per-period series as CSV (header + one row per 800 ms period),
    /// ready for external plotting.
    pub fn periods_csv(&self) -> String {
        let cols = &PeriodRecord::COLUMNS;
        let mut out = cols.map(|c| c.name).join(",");
        out.push('\n');
        for p in &self.periods {
            for (i, col) in cols.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                col.write_cell(p, &mut out);
            }
            out.push('\n');
        }
        out
    }

    /// Write the per-period CSV to a file.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.periods_csv())
    }

    /// Render a compact one-line summary. Fault metrics are appended only
    /// when the run actually saw faults.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}: qos={:.3} thpt={} util={:.3} p95={:.1}ms abandoned={} (lc {}/{} done)",
            self.label,
            self.qos_satisfaction,
            self.be_throughput,
            self.mean_utilization,
            self.lc_p95_ms,
            self.abandoned,
            self.lc_completed,
            self.lc_arrived,
        );
        let f = &self.faults;
        if f.node_crashes > 0 || f.links_degraded > 0 || f.partitions > 0 {
            s.push_str(&format!(
                " [faults: crashes={} downtime={:.0}ms rescheduled={} fault_qos_viol={}]",
                f.node_crashes,
                f.total_downtime.as_millis_f64(),
                f.rescheduled,
                f.fault_qos_violations,
            ));
        }
        if self.migrations_started > 0 {
            s.push_str(&format!(
                " [migrations: {}/{} landed egress={}KiB]",
                self.migrations_completed, self.migrations_started, self.cloud_egress_kib,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_types::SimTime;

    fn base_report() -> RunReport {
        RunReport {
            label: "tango".into(),
            periods: vec![],
            qos_satisfaction: 0.95,
            be_throughput: 1234,
            abandoned: 5,
            mean_utilization: 0.61,
            lc_p95_ms: 212.5,
            lc_arrived: 1000,
            lc_completed: 990,
            dvpa_ops: 10,
            be_evictions: 2,
            faults: FaultSummary::default(),
            migrations_started: 0,
            migrations_completed: 0,
            cloud_egress_kib: 0,
        }
    }

    #[test]
    fn summary_contains_key_fields() {
        let s = base_report().summary();
        assert!(s.contains("tango"));
        assert!(s.contains("0.950"));
        assert!(s.contains("1234"));
        // calm-weather run: no fault block
        assert!(!s.contains("faults:"));
    }

    #[test]
    fn summary_surfaces_recovery_metrics_when_faults_happened() {
        let mut r = base_report();
        r.faults.node_crashes = 3;
        r.faults.rescheduled = 17;
        r.faults.total_downtime = SimTime::from_millis(2_500);
        r.faults.fault_qos_violations = 4;
        let s = r.summary();
        assert!(s.contains("crashes=3"));
        assert!(s.contains("downtime=2500ms"));
        assert!(s.contains("rescheduled=17"));
        assert!(s.contains("fault_qos_viol=4"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = RunReport {
            label: "x".into(),
            periods: vec![
                PeriodRecord {
                    index: 0,
                    lc_arrived: 10,
                    lc_completed: 9,
                    lc_satisfied: 8,
                    be_completed: 3,
                    abandoned: 1,
                    util_overall: 0.5,
                    util_lc: 0.2,
                    util_be: 0.3,
                    lc_p95_ms: 123.45,
                    fault_qos_violations: 2,
                    detection_lag_ms: 150.0,
                    proxy_fallbacks: 4,
                    migrations_started: 2,
                    migrations_completed: 1,
                    cloud_egress_kib: 64,
                },
                PeriodRecord::default(),
            ],
            qos_satisfaction: 0.8,
            be_throughput: 3,
            abandoned: 1,
            mean_utilization: 0.5,
            lc_p95_ms: 123.45,
            lc_arrived: 10,
            lc_completed: 9,
            dvpa_ops: 0,
            be_evictions: 0,
            faults: FaultSummary::default(),
            migrations_started: 2,
            migrations_completed: 1,
            cloud_egress_kib: 64,
        };
        let csv = r.periods_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("period,lc_arrived"));
        assert!(lines[0]
            .ends_with("proxy_fallbacks,migrations_started,migrations_completed,cloud_egress_kib"));
        assert!(lines[1].starts_with("0,10,9,8,3,1,0.5000"));
        assert!(lines[1].ends_with(",2,150.00,4,2,1,64"));
    }

    #[test]
    fn digest_moves_iff_the_changed_column_is_in_digest() {
        // one change per PeriodRecord field, named by its CSV column
        type Change = fn(&mut PeriodRecord);
        let changes: [(&str, Change); 16] = [
            ("period", |p| p.index += 1),
            ("lc_arrived", |p| p.lc_arrived += 1),
            ("lc_completed", |p| p.lc_completed += 1),
            ("lc_satisfied", |p| p.lc_satisfied += 1),
            ("be_completed", |p| p.be_completed += 1),
            ("abandoned", |p| p.abandoned += 1),
            ("util_overall", |p| p.util_overall += 0.5),
            ("util_lc", |p| p.util_lc += 0.5),
            ("util_be", |p| p.util_be += 0.5),
            ("lc_p95_ms", |p| p.lc_p95_ms += 0.5),
            ("fault_qos_violations", |p| p.fault_qos_violations += 1),
            ("detection_lag_ms", |p| p.detection_lag_ms += 0.5),
            ("proxy_fallbacks", |p| p.proxy_fallbacks += 1),
            ("migrations_started", |p| p.migrations_started += 1),
            ("migrations_completed", |p| p.migrations_completed += 1),
            ("cloud_egress_kib", |p| p.cloud_egress_kib += 1),
        ];
        assert_eq!(
            changes.map(|(name, _)| name),
            PeriodRecord::COLUMNS.map(|c| c.name)
        );
        let mut base = base_report();
        base.periods = vec![PeriodRecord::default()];
        let row = |r: &RunReport| r.periods_csv().lines().nth(1).unwrap().to_string();
        for (i, ((name, change), col)) in changes.iter().zip(PeriodRecord::COLUMNS).enumerate() {
            let mut r = base.clone();
            change(&mut r.periods[0]);
            assert_eq!(r.digest() != base.digest(), col.in_digest, "{name}");
            // the change shows in this column's CSV cell and no other
            let cells = row(&r);
            let base_cells = row(&base);
            let moved: Vec<usize> = cells
                .split(',')
                .zip(base_cells.split(','))
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(j, _)| j)
                .collect();
            assert_eq!(moved, vec![i], "{name}");
        }
    }

    #[test]
    fn audit_conservation_accounts_every_bucket() {
        let mut a = RunAudit {
            total: 10,
            completed: 6,
            abandoned: 2,
            failed: 1,
            pending: 1,
            running_on_down_nodes: 0,
            in_migration: 0,
            dangling: 0,
        };
        assert!(a.conserved());
        a.pending = 0;
        assert!(!a.conserved());
    }
}
