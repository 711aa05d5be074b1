//! The measuring side: what one fresh child process runs and reports.
//!
//! A child prints one `key value` line per result (`key value num den`
//! for a ratio, `key 0x…` for a digest); [`Record::parse`] reads them
//! back in the parent.

use crate::replay::{self, Scale};
use crate::sink::{TraceCounts, WindowSink};
use crate::stats::{percentile, ratio};
use crate::workloads::{drive, Workload, CHECKPOINTS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use tango::{EdgeCloudSystem, RunAudit, RunReport};
use tango_types::SimTime;

/// Builds timed by a set-up child.
const SETUP_REPS: usize = 5;

/// Worker threads of every measured child. Parallelism does not pay on a
/// 2-core host, and one thread keeps the load to one process and core.
pub const THREADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Build the system `SETUP_REPS` times; report each build time.
    Setup,
    /// One untraced run the way the workload runs (checkpointed or not).
    Run,
    /// One untraced audited run.
    Audit,
    /// One traced audited run, then (for `spill_ckpt`) a checkpointed
    /// run with restore and re-encode, then the layer replays.
    Trace,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Setup, Kind::Run, Kind::Audit, Kind::Trace];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Run => "run",
            Kind::Audit => "audit",
            Kind::Trace => "trace",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// What a child simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub workload: Workload,
    pub seed: u64,
    pub horizon: SimTime,
    /// Worker threads: [`THREADS`] in every child the runner starts.
    pub threads: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Numerator and denominator, for ratios.
    pub base: Option<(f64, f64)>,
}

/// Everything one child reported.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    pub values: BTreeMap<String, Value>,
    pub digests: BTreeMap<String, u64>,
}

impl Record {
    pub fn parse(text: &str) -> Record {
        let mut rec = Record::default();
        for line in text.lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            let Some((&key, rest)) = parts.split_first() else {
                continue;
            };
            let nums: Vec<f64> = rest.iter().filter_map(|s| s.parse().ok()).collect();
            match (rest, nums.as_slice()) {
                ([hex], _) if hex.starts_with("0x") => {
                    if let Ok(d) = u64::from_str_radix(&hex[2..], 16) {
                        rec.digests.insert(key.to_string(), d);
                    }
                }
                ([_], [value]) => {
                    rec.put(key, *value, None);
                }
                ([_, _, _], [value, num, den]) => {
                    rec.put(key, *value, Some((*num, *den)));
                }
                _ => {}
            }
        }
        rec
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).map(|v| v.value)
    }

    fn put(&mut self, key: &str, value: f64, base: Option<(f64, f64)>) {
        self.values.insert(key.to_string(), Value { value, base });
    }

    fn ratio(&mut self, key: &str, num: f64, den: f64) {
        self.put(key, ratio(num, den), Some((num, den)));
    }

    /// The `key value` lines [`Record::parse`] reads back.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.values {
            match v.base {
                Some((num, den)) => writeln!(out, "{k} {} {num} {den}", v.value),
                None => writeln!(out, "{k} {}", v.value),
            }
            .expect("writing to a String cannot fail");
        }
        for (k, d) in &self.digests {
            writeln!(out, "{k} {d:#018x}").expect("writing to a String cannot fail");
        }
        out
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Run one child's measurement. `Err` means the run could not complete.
pub fn run(kind: Kind, job: Job) -> Result<Record, String> {
    let wl = job.workload;
    let cfg = wl.config(job.seed, job.threads);
    let mut rec = Record::default();
    if kind == Kind::Setup {
        for i in 0..SETUP_REPS {
            let t = Instant::now();
            let built = wl.build(cfg.clone());
            rec.put(&format!("setup_s.{i}"), t.elapsed().as_secs_f64(), None);
            drop(built);
        }
        return Ok(rec);
    }

    let (mut sys, mirror) = wl.build(cfg.clone());
    let workers = sys.worker_count();
    let central = sys.central();
    let slot = (kind == Kind::Trace).then(|| {
        let (sink, slot) = WindowSink::new();
        sys.set_trace(Box::new(sink));
        slot
    });
    let checkpointed = kind == Kind::Run && wl.checkpointed();
    let t = Instant::now();
    let (report, audit) = drive(sys, job.horizon, checkpointed).map_err(|e| format!("run: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    rec.put("wall_s", wall, None);
    if let Some(rss) = peak_rss_mib() {
        rec.put("rss_mib", rss, None);
    }
    put_outcome(&mut rec, &report, audit.as_ref(), job.horizon);
    let mirror = mirror.map(|m| m.stats()).unwrap_or_default();
    rec.put("ctrl.mirror_full_frames", mirror.full_frames as f64, None);
    rec.put("ctrl.mirror_delta_frames", mirror.delta_frames as f64, None);
    rec.put("ctrl.mirror_rows", mirror.rows_published as f64, None);

    if let Some(slot) = slot {
        let counts = slot
            .lock()
            .map_err(|_| "trace sink poisoned".to_string())?
            .take()
            .ok_or("trace sink published nothing")?;
        put_trace(&mut rec, &counts, wall);
        if wl.checkpointed() {
            put_checkpoint_cycle(&mut rec, job)?;
        } else {
            for k in [
                "snap.checkpoints",
                "snap.bytes",
                "snap.encode_ms",
                "snap.restore_ms",
            ] {
                rec.put(k, 0.0, None);
            }
            rec.ratio("snap.share", 0.0, wall);
        }
        let replays = replay::run(&Scale {
            cfg: &cfg,
            horizon: job.horizon,
            workers,
            lc_decisions: counts.lc_decisions,
        });
        // the replays regenerate the topology with the seed the system
        // derives for it; a different central cluster means they no
        // longer measure the geo sets the run used
        if replays.central != central {
            return Err(format!(
                "the replayed topology centres on {:?}, the system on {central:?}",
                replays.central
            ));
        }
        put_replays(&mut rec, &replays, &counts, wall);
    }
    Ok(rec)
}

fn put_outcome(rec: &mut Record, r: &RunReport, audit: Option<&RunAudit>, horizon: SimTime) {
    rec.digests.insert("digest".into(), r.digest());
    rec.put("qos_satisfaction", r.qos_satisfaction, None);
    rec.put(
        "be_done_per_sim_s",
        r.be_throughput as f64 / horizon.as_secs_f64(),
        None,
    );
    rec.put("lc_p95_ms", r.lc_p95_ms, None);
    rec.put("lc_arrived", r.lc_arrived as f64, None);
    rec.put("lc_completed", r.lc_completed as f64, None);
    rec.put("hrm.dvpa_ops", r.dvpa_ops as f64, None);
    rec.put("hrm.be_evictions", r.be_evictions as f64, None);
    let f = &r.faults;
    rec.put("faults.crashes", f.node_crashes as f64, None);
    rec.put("faults.rescheduled", f.rescheduled as f64, None);
    rec.put(
        "faults.bounced_deliveries",
        f.bounced_deliveries as f64,
        None,
    );
    rec.put(
        "faults.down_node_dispatches",
        f.down_node_dispatches as f64,
        None,
    );
    // mean over the periods that saw a detection
    let lags: Vec<f64> = r
        .periods
        .iter()
        .map(|p| p.detection_lag_ms)
        .filter(|&l| l > 0.0)
        .collect();
    let lag_sum = lags.iter().fold(0.0, |a, b| a + b);
    rec.ratio("ctrl.detection_lag_ms", lag_sum, lags.len() as f64);
    rec.put("migration.started", r.migrations_started as f64, None);
    rec.put("migration.completed", r.migrations_completed as f64, None);
    rec.ratio(
        "migration.landed_ratio",
        r.migrations_completed as f64,
        r.migrations_started as f64,
    );
    rec.put("migration.egress_kib", r.cloud_egress_kib as f64, None);
    if let Some(a) = audit {
        for (k, v) in [
            ("audit.total", a.total),
            ("audit.conserved", a.conserved() as u64),
            ("faults.running_on_down", a.running_on_down_nodes),
        ] {
            rec.put(k, v as f64, None);
        }
    }
}

fn put_trace(rec: &mut Record, c: &TraceCounts, wall: f64) {
    for (k, v) in [
        ("core.arrivals", c.arrivals),
        ("core.lc_decisions", c.lc_decisions),
        ("core.be_decisions", c.be_decisions),
        ("core.deliveries", c.deliveries),
        ("core.bounced", c.bounced),
        ("core.admissions", c.admissions),
        ("core.completions", c.completions),
        ("core.abandoned", c.abandoned),
    ] {
        rec.put(k, v as f64, None);
    }
    rec.ratio("core.admit_ratio", c.admitted as f64, c.admissions as f64);
    rec.ratio(
        "core.redispatch_ratio",
        (c.lc_decisions + c.be_decisions) as f64,
        c.arrivals as f64,
    );
    rec.ratio("core.ns_per_event", wall * 1e9, c.events() as f64);
    if let Some(p50) = percentile(&c.window_ms, 50.0) {
        rec.put("core.window_ms_p50", p50, None);
    }
    if let Some(p95) = percentile(&c.window_ms, 95.0) {
        rec.put("core.window_ms_p95", p95, None);
    }
}

/// `spill_ckpt`'s snapshot cycle: a checkpointed run, then a restore of
/// its last checkpoint, a re-encode and the resumed run to the horizon.
fn put_checkpoint_cycle(rec: &mut Record, job: Job) -> Result<(), String> {
    let wl = job.workload;
    let cfg = wl.config(job.seed, job.threads);
    let sync_us = cfg.sync_interval.as_micros();
    let (sys, _mirror) = wl.build(cfg.clone());
    let t = Instant::now();
    let (report, checkpoints) = sys
        .run_checkpointed(job.horizon, "bench", CHECKPOINTS)
        .map_err(|e| format!("checkpointed run: {e}"))?;
    let ckpt_wall = t.elapsed().as_secs_f64();
    rec.digests
        .insert("checkpointed_digest".into(), report.digest());
    let last = checkpoints.last().ok_or("no checkpoint taken")?;
    let t = Instant::now();
    let resumed =
        EdgeCloudSystem::restore(cfg, &last.bytes).map_err(|e| format!("restore: {e}"))?;
    let restore_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let bytes = resumed.snapshot().map_err(|e| format!("re-encode: {e}"))?;
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    rec.digests
        .insert("resumed_digest".into(), resumed.finish("bench").digest());
    // only the last few are kept: count every sync-tick boundary strictly
    // inside the horizon that the policy's cadence lands on
    let step = sync_us * u64::from(CHECKPOINTS.every_n_ticks.max(1));
    let taken = (job.horizon.as_micros().saturating_sub(1) / step) as f64;
    rec.put("snap.checkpoints", taken, None);
    rec.put("snap.bytes", bytes.len() as f64, None);
    rec.put("snap.encode_ms", encode_ms, None);
    rec.put("snap.restore_ms", restore_ms, None);
    rec.ratio("snap.share", taken * encode_ms / 1e3, ckpt_wall);
    Ok(())
}

fn put_replays(rec: &mut Record, r: &replay::Replays, c: &TraceCounts, wall: f64) {
    rec.put("workload.trace_gen_ms", r.trace_gen_ms, None);
    rec.put("workload.trace_events", r.trace_events as f64, None);
    rec.put("workload.trace_mib", r.trace_mib, None);
    rec.ratio("workload.trace_gen_share", r.trace_gen_ms / 1e3, wall);
    rec.put("simcore.queue_ns_per_op", r.queue_ns_per_op, None);
    rec.put("sched.lc_plan_us", r.lc_plan_us, None);
    rec.put("sched.be_pick_us", r.be_pick_us, None);
    rec.put("sched.build_graph_us", r.build_graph_us, None);
    rec.ratio(
        "sched.be_pick_share",
        c.be_decisions as f64 * r.be_pick_us / 1e6,
        wall,
    );
    rec.put("gnn.forward_us", r.gnn_forward_us, None);
    rec.put("hrm.admit_cycle_us", r.admit_cycle_us, None);
    rec.put("hrm.reassure_tick_us", r.reassure_tick_us, None);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_text() {
        let mut rec = Record::default();
        rec.put("wall_s", 1.234_567_890_123, None);
        rec.ratio("core.admit_ratio", 3.0, 4.0);
        rec.digests.insert("digest".into(), 0xeb7c094ffd83ce86);
        let back = Record::parse(&rec.render());
        assert_eq!(back, rec);
        assert_eq!(back.get("core.admit_ratio"), Some(0.75));
    }

    /// The digest of each workload is the same at 1 and 2 worker threads
    /// (an exported `TANGO_THREADS` overrides both).
    #[test]
    fn results_do_not_depend_on_the_thread_count() {
        for workload in [Workload::PaperCalm, Workload::TangoFull] {
            let digest = |threads| {
                let job = Job {
                    workload,
                    seed: 7,
                    horizon: SimTime::from_millis(300),
                    threads,
                };
                run(Kind::Audit, job).unwrap().digests["digest"]
            };
            assert_eq!(digest(1), digest(2), "{}", workload.name());
        }
    }

    #[test]
    fn parse_skips_noise() {
        let rec = Record::parse("thread 'main' panicked\n\nwall_s 2\n");
        assert_eq!(rec.get("wall_s"), Some(2.0));
        assert_eq!(rec.values.len(), 1);
    }
}
