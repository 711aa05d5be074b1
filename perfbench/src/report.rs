//! Printing: one `workload metric value unit` line per metric, the
//! summary JSON object that ends standard output, and the `--json` file.

use crate::child::THREADS;
use crate::runner::{Reported, WorkloadResult};
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// Where and how a result set was measured.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub git_rev: String,
    pub host_cores: usize,
    pub seed: u64,
    /// Time budget of each phase of each workload.
    pub seconds: f64,
}

/// `TANGO_GIT_REV`, else the revision of the `.git` in the working
/// directory, else `unknown` (for instance in an exported source tree).
fn git_rev() -> String {
    let from_git = || {
        let out = Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            // no search of parent directories
            .env("GIT_DIR", ".git")
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())?;
        String::from_utf8(out.stdout).ok()
    };
    std::env::var("TANGO_GIT_REV")
        .ok()
        .or_else(from_git)
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl Stamp {
    pub fn new(seed: u64, seconds: f64) -> Stamp {
        Stamp {
            git_rev: git_rev(),
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed,
            seconds,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "# git_rev={} host_cores={} threads={THREADS} seed={} seconds={}",
            self.git_rev, self.host_cores, self.seed, self.seconds
        )
    }
}

/// The human-readable line of one metric.
pub fn metric_line(workload: Workload, r: &Reported) -> String {
    let mut line = format!(
        "{} {} {} {}",
        workload.name(),
        r.metric.name,
        r.value,
        r.metric.unit
    );
    if let Some((num, den)) = r.base {
        write!(line, "  ({num} / {den})").expect("writing to a String cannot fail");
    }
    if let Some(s) = r.summary {
        write!(line, "  [median of n={} min={} max={}]", s.n, s.min, s.max)
            .expect("writing to a String cannot fail");
    }
    line
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn key(results: &[(Workload, WorkloadResult)], wl: Workload, metric: &str) -> String {
    if results.len() == 1 {
        metric.to_string()
    } else {
        format!("{}/{metric}", wl.name())
    }
}

/// The one-line summary object that ends standard output. Metric keys
/// are bare names for a single workload and `workload/name` otherwise.
pub fn summary_json(results: &[(Workload, WorkloadResult)]) -> String {
    let correct = results.iter().all(|(_, r)| r.correct());
    let attempted: usize = results.iter().map(|(_, r)| r.runs).sum();
    let failed: usize = results.iter().map(|(_, r)| r.failed).sum();
    let metrics: Vec<String> = results
        .iter()
        .flat_map(|(wl, r)| {
            r.metrics.iter().map(move |m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&key(results, *wl, m.metric.name)),
                    json_num(m.value),
                    json_str(m.metric.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

/// The process exit code: 0 only when every run finished and passed the
/// correctness gate.
pub fn exit_code(results: &[(Workload, WorkloadResult)]) -> u8 {
    u8::from(!results.iter().all(|(_, r)| r.correct()))
}

/// The `--json` document: the stamp plus every metric with its spread.
pub fn full_json(stamp: &Stamp, results: &[(Workload, WorkloadResult)]) -> String {
    let mut s = format!(
        "{{\n  \"git_rev\": {},\n  \"host_cores\": {},\n  \"threads\": {THREADS},\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n",
        json_str(&stamp.git_rev),
        stamp.host_cores,
        stamp.seed,
        json_num(stamp.seconds),
    );
    for (i, (wl, r)) in results.iter().enumerate() {
        let digest = r
            .digest
            .map_or("null".into(), |d| json_str(&format!("{d:#018x}")));
        write!(
            s,
            "    {}: {{\"correct\": {}, \"runs\": {}, \"digest\": {digest}, \"metrics\": {{",
            json_str(wl.name()),
            r.correct(),
            r.runs
        )
        .expect("writing to a String cannot fail");
        let rows: Vec<String> = r
            .metrics
            .iter()
            .map(|m| {
                let mut row = format!(
                    "{}: {{\"value\": {}, \"unit\": {}",
                    json_str(m.metric.name),
                    json_num(m.value),
                    json_str(m.metric.unit)
                );
                if let Some(sm) = m.summary {
                    write!(
                        row,
                        ", \"n\": {}, \"min\": {}, \"max\": {}",
                        sm.n,
                        json_num(sm.min),
                        json_num(sm.max)
                    )
                    .expect("writing to a String cannot fail");
                }
                if let Some((num, den)) = m.base {
                    write!(
                        row,
                        ", \"num\": {}, \"den\": {}",
                        json_num(num),
                        json_num(den)
                    )
                    .expect("writing to a String cannot fail");
                }
                row + "}"
            })
            .collect();
        s.push_str(&rows.join(", "));
        s.push_str(if i + 1 < results.len() {
            "}},\n"
        } else {
            "}}\n"
        });
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::stats::Summary;

    fn result() -> WorkloadResult {
        WorkloadResult {
            metrics: vec![Reported {
                metric: metrics::find("sim_speed").unwrap(),
                value: 2.5,
                summary: Summary::of(&[2.0, 2.5, 3.0]),
                base: None,
            }],
            runs: 10,
            ..WorkloadResult::default()
        }
    }

    #[test]
    fn summary_keys_by_name_for_one_workload_and_prefixes_for_several() {
        let one = summary_json(&[(Workload::PaperCalm, result())]);
        assert_eq!(
            one,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"sim_speed\": {\"value\": 2.5, \"unit\": \"sim-s/wall-s\"}}}"
        );
        let two = summary_json(&[
            (Workload::PaperCalm, result()),
            (Workload::Churn1k, result()),
        ]);
        assert!(two.contains("\"paper_calm/sim_speed\""));
        assert!(two.contains("\"churn_1k/sim_speed\""));
        assert!(two.contains("\"attempted\": 20"));
    }

    #[test]
    fn metric_lines_lead_with_workload_metric_value_unit() {
        let r = result();
        let line = metric_line(Workload::PaperCalm, &r.metrics[0]);
        assert!(line.starts_with("paper_calm sim_speed 2.5 sim-s/wall-s"));
        assert!(line.contains("n=3 min=2 max=3"));
    }
}
