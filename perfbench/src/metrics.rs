//! Every metric the benchmark prints, declared once. `BENCHMARK.json`
//! mirrors these tables; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before it counts as a regression. Per-layer metrics have
    /// none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("sim_speed", "sim-s/wall-s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.1),
    e2e("qos_satisfaction", "fraction", Higher, 0.015),
    e2e("be_done_per_sim_s", "req/sim-s", Higher, 0.25),
    e2e("lc_p95_ms", "sim-ms", Lower, 0.05),
    e2e("completion_ratio", "fraction", Higher, 0.015),
];

/// Single layers, measured in the traced run and the layer replays.
pub const PER_LAYER: &[Metric] = &[
    layer("core.window_ms_p50", "ms", Lower),
    layer("core.window_ms_p95", "ms", Lower),
    layer("core.ns_per_event", "ns", Lower),
    layer("core.arrivals", "count", Higher),
    layer("core.lc_decisions", "count", Lower),
    layer("core.be_decisions", "count", Lower),
    layer("core.deliveries", "count", Lower),
    layer("core.bounced", "count", Lower),
    layer("core.admissions", "count", Lower),
    layer("core.admit_ratio", "ratio", Higher),
    layer("core.redispatch_ratio", "ratio", Lower),
    layer("core.completions", "count", Higher),
    layer("core.abandoned", "count", Lower),
    layer("core.trace_overhead", "ratio", Lower),
    layer("workload.trace_gen_ms", "ms", Lower),
    layer("workload.trace_events", "count", Higher),
    layer("workload.trace_mib", "MiB", Lower),
    layer("workload.trace_gen_share", "ratio", Lower),
    layer("simcore.queue_ns_per_op", "ns", Lower),
    layer("sched.lc_plan_us", "us", Lower),
    layer("sched.be_pick_us", "us", Lower),
    layer("sched.build_graph_us", "us", Lower),
    layer("sched.be_pick_share", "ratio", Lower),
    layer("gnn.forward_us", "us", Lower),
    layer("hrm.admit_cycle_us", "us", Lower),
    layer("hrm.reassure_tick_us", "us", Lower),
    layer("hrm.dvpa_ops", "count", Lower),
    layer("hrm.be_evictions", "count", Lower),
    layer("faults.crashes", "count", Lower),
    layer("faults.rescheduled", "count", Lower),
    layer("faults.bounced_deliveries", "count", Lower),
    layer("faults.down_node_dispatches", "count", Lower),
    layer("faults.running_on_down", "count", Lower),
    layer("ctrl.detection_lag_ms", "sim-ms", Lower),
    layer("ctrl.mirror_full_frames", "count", Lower),
    layer("ctrl.mirror_delta_frames", "count", Lower),
    layer("ctrl.mirror_rows", "count", Lower),
    layer("migration.started", "count", Lower),
    layer("migration.completed", "count", Higher),
    layer("migration.landed_ratio", "ratio", Higher),
    layer("migration.egress_kib", "KiB", Lower),
    layer("snap.checkpoints", "count", Lower),
    layer("snap.bytes", "B", Lower),
    layer("snap.encode_ms", "ms", Lower),
    layer("snap.restore_ms", "ms", Lower),
    layer("snap.share", "ratio", Lower),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_in_the_contract_charset() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` lists exactly the declared workloads and metrics,
    /// one per line in the layout below.
    #[test]
    fn benchmark_json_mirrors_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let has = |line: String| assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        for w in crate::workloads::Workload::ALL {
            has(format!("{{\"name\": \"{}\", \"why\": \"", w.name()));
        }
        for m in END_TO_END {
            has(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.unwrap()
            ));
        }
        for m in PER_LAYER {
            has(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            ));
        }
        let names = json.matches("\"name\": ").count();
        assert_eq!(names, 4 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn end_to_end_bounds_are_within_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // set-up time gets the largest bound
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
