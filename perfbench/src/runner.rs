//! The parent side: fresh child processes, one at a time, then the
//! correctness gate and the metrics built from what the children saw.

use crate::child::{Job, Kind, Record, THREADS};
use crate::metrics::{self, Metric};
use crate::stats::{median, ratio, Summary};
use crate::workloads::sub_seeds;
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Default time budget of one phase of one workload, in seconds: the
/// `run_seconds` that `BENCHMARK.json` gives each run.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// Most rounds one phase starts, however short they are.
const MAX_ROUNDS: usize = 40;

/// Whether a phase that started at `phase` and has finished `done` rounds
/// starts another: the first round always runs, later ones while one
/// more (at the mean round time so far) still fits in `seconds`. A timed
/// round runs every pooled seed once; a traced round is one untraced and
/// one traced run of the first seed.
fn more(seconds: f64, done: usize, phase: Instant) -> bool {
    let spent = phase.elapsed().as_secs_f64();
    done == 0 || (done < MAX_ROUNDS && spent + spent / done as f64 <= seconds)
}

/// Which phases to run: the timed runs (end-to-end metrics), the traced
/// runs with layer replays (per-layer metrics), or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phases {
    pub timed: bool,
    pub traced: bool,
}

/// Run one child to completion and read its record.
fn spawn(kind: Kind, job: Job) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the bench binary: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--child",
            kind.name(),
            "--workload",
            job.workload.name(),
            "--seed",
            &job.seed.to_string(),
            "--horizon-ms",
            &(job.horizon.as_micros() / 1_000).to_string(),
        ])
        // the env var beats `cfg.parallelism`, so pin it as well
        .env("TANGO_THREADS", THREADS.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting a {} child: {e}", kind.name()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let deadline = Instant::now() + CHILD_TIMEOUT;
    std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut text = String::new();
            stdout.read_to_string(&mut text).map(|_| text)
        });
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                // children time themselves, so a coarse poll costs
                // nothing but keeps this process off the CPU they use
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Ok(None) => break Err(format!("{} child timed out", kind.name())),
                Err(e) => break Err(format!("waiting for a {} child: {e}", kind.name())),
            }
        };
        if status.is_err() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let text = reader
            .join()
            .expect("the stdout reader does not panic")
            .map_err(|e| format!("reading a {} child: {e}", kind.name()))?;
        match status? {
            st if st.success() => Ok(Record::parse(&text)),
            st => Err(format!("{} child failed: {st}", kind.name())),
        }
    })
}

/// One child's result, with the seed it simulated.
type Outcome = (u64, Result<Record, String>);

/// One traced round: an untraced and a traced run of the first seed.
type Pair = (Result<Record, String>, Result<Record, String>);

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub metric: &'static Metric,
    pub value: f64,
    /// Spread over the runs it was taken from, when there were several.
    pub summary: Option<Summary>,
    pub base: Option<(f64, f64)>,
}

/// Everything measured for one workload.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    pub metrics: Vec<Reported>,
    /// Digest of the first pooled seed.
    pub digest: Option<u64>,
    /// Simulation runs started (set-up children not counted).
    pub runs: usize,
    /// Runs that failed, or at least one when the gate failed.
    pub failed: usize,
    pub errors: Vec<String>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    fn push(&mut self, name: &str, value: f64, summary: Option<Summary>, base: Option<(f64, f64)>) {
        let metric = metrics::find(name).unwrap_or_else(|| panic!("{name} is not declared"));
        self.metrics.push(Reported {
            metric,
            value,
            summary,
            base,
        });
    }
}

/// Measure one workload.
pub fn measure(job: Job, phases: Phases, seconds: f64) -> WorkloadResult {
    let wl = job.workload;
    let seeds = sub_seeds(job.seed, wl.pool());
    let mut out = WorkloadResult::default();
    let mut all: Vec<Outcome> = Vec::new();

    if phases.timed {
        let phase = Instant::now();
        // a set-up child of the same seed before every run, so that the
        // set-up figure pools the seeds and spans the phase like the runs
        let mut setups: Vec<Outcome> = Vec::new();
        let mut runs: Vec<Outcome> = Vec::new();
        let mut rounds = 0;
        while more(seconds, rounds, phase) {
            for &seed in &seeds {
                setups.push((seed, spawn(Kind::Setup, Job { seed, ..job })));
                runs.push((seed, spawn(Kind::Run, Job { seed, ..job })));
            }
            rounds += 1;
        }
        // checkpointed runs carry no audit: take one from a plain run
        if wl.checkpointed() {
            all.push((job.seed, spawn(Kind::Audit, job)));
        }
        set_up(&mut out, &seeds, &setups);
        end_to_end(&mut out, job, &seeds, &runs);
        all.extend(runs);
    }
    if phases.traced {
        let phase = Instant::now();
        let mut pairs = Vec::new();
        while more(seconds, pairs.len(), phase) {
            pairs.push((spawn(Kind::Audit, job), spawn(Kind::Trace, job)));
        }
        per_layer(&mut out, &pairs);
        for (untraced, traced) in pairs {
            all.push((job.seed, untraced));
            all.push((job.seed, traced));
        }
    }

    out.errors.extend(gate(&all));
    let good = || all.iter().filter_map(|(s, r)| Some((*s, r.as_ref().ok()?)));
    out.digest = good()
        .find(|(s, _)| *s == job.seed)
        .and_then(|(_, r)| r.digests.get("digest").copied());
    out.runs = all.len();
    out.failed = if out.correct() {
        0
    } else {
        // a gate failure with every child finished still fails a run
        all.iter().filter(|(_, r)| r.is_err()).count().max(1)
    };
    out
}

/// `setup_s`, pooled over the seeds like `sim_speed`: the mean over the
/// seeds of the median build time of each. Build time follows the node
/// count, which the seed draws.
fn set_up(out: &mut WorkloadResult, seeds: &[u64], setups: &[Outcome]) {
    let builds = |seed: u64| -> Vec<f64> {
        setups
            .iter()
            .filter(|(s, _)| *s == seed)
            .filter_map(|(_, r)| r.as_ref().ok())
            .flat_map(|r| r.values.iter())
            .filter(|(k, _)| k.starts_with("setup_s."))
            .map(|(_, v)| v.value)
            .collect()
    };
    let medians: Option<Vec<f64>> = seeds.iter().map(|&s| median(&builds(s))).collect();
    let all: Vec<f64> = seeds.iter().flat_map(|&s| builds(s)).collect();
    if let Some(m) = medians {
        let pooled = m.iter().sum::<f64>() / m.len() as f64;
        out.push("setup_s", pooled, Summary::of(&all), None);
    }
    out.errors
        .extend(setups.iter().filter_map(|(_, r)| r.clone().err()));
}

/// The end-to-end metrics, pooled over the seeds: speed as total
/// simulated time over the sum of each seed's median wall time, memory as
/// the median over every run, and the simulated outcomes (which repeat
/// exactly for a seed, as the gate checks) averaged over the seeds.
fn end_to_end(out: &mut WorkloadResult, job: Job, seeds: &[u64], runs: &[Outcome]) {
    let horizon = job.horizon.as_secs_f64();
    let of_seed = |seed: u64| -> Vec<&Record> {
        runs.iter()
            .filter(|(s, _)| *s == seed)
            .filter_map(|(_, r)| r.as_ref().ok())
            .collect()
    };
    let per_seed: Vec<Vec<&Record>> = seeds.iter().map(|&s| of_seed(s)).collect();
    if per_seed.iter().any(|rs| rs.is_empty()) {
        return; // a seed has no successful run; the gate reports why
    }
    let all: Vec<&Record> = per_seed.iter().flatten().copied().collect();
    let values =
        |rs: &[&Record], key: &str| -> Vec<f64> { rs.iter().filter_map(|r| r.get(key)).collect() };

    let walls: Option<f64> = per_seed
        .iter()
        .map(|rs| median(&values(rs, "wall_s")))
        .sum();
    let speeds: Vec<f64> = values(&all, "wall_s").iter().map(|w| horizon / w).collect();
    if let Some(total) = walls {
        let pooled = seeds.len() as f64 * horizon / total;
        out.push("sim_speed", pooled, Summary::of(&speeds), None);
    }
    if let Some(s) = Summary::of(&values(&all, "rss_mib")) {
        out.push("peak_rss_mib", s.median, Some(s), None);
    }
    let firsts: Vec<&Record> = per_seed.iter().map(|rs| rs[0]).collect();
    let mean =
        |key: &str| -> f64 { values(&firsts, key).iter().sum::<f64>() / firsts.len() as f64 };
    for name in ["qos_satisfaction", "be_done_per_sim_s", "lc_p95_ms"] {
        out.push(name, mean(name), None, None);
    }
    let sum = |key: &str| -> f64 { values(&firsts, key).iter().sum() };
    let (done, arrived) = (sum("lc_completed"), sum("lc_arrived"));
    out.push(
        "completion_ratio",
        ratio(done, arrived),
        None,
        Some((done, arrived)),
    );
}

/// The per-layer metrics: medians over the traced runs, plus the tracing
/// overhead from the traced and untraced wall times.
fn per_layer(out: &mut WorkloadResult, pairs: &[Pair]) {
    let untraced: Vec<&Record> = pairs.iter().filter_map(|p| p.0.as_ref().ok()).collect();
    let traced: Vec<&Record> = pairs.iter().filter_map(|p| p.1.as_ref().ok()).collect();
    for m in metrics::PER_LAYER {
        let values: Vec<f64> = traced.iter().filter_map(|r| r.get(m.name)).collect();
        let Some(s) = Summary::of(&values) else {
            continue;
        };
        let base = traced
            .iter()
            .find_map(|r| r.values.get(m.name).and_then(|v| v.base));
        let summary = (s.min != s.max).then_some(s);
        out.push(m.name, s.median, summary, base);
    }
    let wall = |rs: &[&Record]| {
        median(
            &rs.iter()
                .filter_map(|r| r.get("wall_s"))
                .collect::<Vec<_>>(),
        )
    };
    if let (Some(t), Some(u)) = (wall(&traced), wall(&untraced)) {
        out.push("core.trace_overhead", t / u - 1.0, None, Some((t, u)));
    }
}

/// The correctness gate: every child finished; all runs of a seed
/// simulated the same thing (so tracing, the mirror and checkpointing are
/// inert, and a resumed run matches the uninterrupted one); every request
/// is accounted for; traced runs count the same events, and the replayed
/// trace is the one the run consumed.
///
/// Requests the audit finds running on a down node are reported as
/// `faults.running_on_down` rather than failing the run: under heavy
/// churn a few seeds leave some at the horizon (they are gone again once
/// the node recovers), which is a defect of the runtime, not of a run.
fn gate(outcomes: &[Outcome]) -> Vec<String> {
    let mut errors: Vec<String> = outcomes
        .iter()
        .filter_map(|(_, r)| r.clone().err())
        .collect();
    let good: Vec<(u64, &Record)> = outcomes
        .iter()
        .filter_map(|(s, r)| Some((*s, r.as_ref().ok()?)))
        .collect();
    let mut first_digest: Vec<(u64, u64)> = Vec::new();
    for &(seed, r) in &good {
        for (k, &d) in &r.digests {
            match first_digest.iter().find(|(s, _)| *s == seed) {
                Some(&(_, first)) if first != d => errors.push(format!(
                    "seed {seed}: {k} {d:#018x} differs from {first:#018x}"
                )),
                Some(_) => {}
                None => first_digest.push((seed, d)),
            }
        }
        if r.get("audit.conserved") == Some(0.0) {
            errors.push(format!(
                "seed {seed}: an audited run lost or duplicated requests"
            ));
        }
        if r.get("lc_completed") == Some(0.0) {
            errors.push(format!("seed {seed}: a run completed no LC request"));
        }
        if let (Some(gen), Some(seen)) = (r.get("workload.trace_events"), r.get("core.arrivals")) {
            if gen != seen {
                errors.push(format!(
                    "seed {seed}: the trace replay built {gen} arrivals, the run saw {seen}"
                ));
            }
        }
    }
    let counts = |r: &Record| -> Vec<(String, f64)> {
        r.values
            .iter()
            .filter(|(k, _)| metrics::find(k).is_some_and(|m| m.unit == "count"))
            .map(|(k, v)| (k.clone(), v.value))
            .collect()
    };
    let traced: Vec<_> = good
        .iter()
        .filter(|(_, r)| r.get("core.arrivals").is_some())
        .map(|(_, r)| counts(r))
        .collect();
    if traced.windows(2).any(|w| w[0] != w[1]) {
        errors.push("traced runs counted different events".into());
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(digest: u64) -> Record {
        let mut r = Record::parse("audit.conserved 1\n");
        r.digests.insert("digest".into(), digest);
        r
    }

    #[test]
    fn gate_passes_repeated_runs_of_each_seed() {
        let runs = [
            (1, Ok(rec(7))),
            (2, Ok(rec(9))),
            (1, Ok(rec(7))),
            (2, Ok(rec(9))),
        ];
        assert!(gate(&runs).is_empty());
    }

    #[test]
    fn an_injected_digest_mismatch_makes_the_run_exit_non_zero() {
        use crate::report::{exit_code, summary_json};
        use crate::workloads::Workload;
        let result = |runs: &[Outcome]| {
            vec![(
                Workload::PaperCalm,
                WorkloadResult {
                    errors: gate(runs),
                    ..WorkloadResult::default()
                },
            )]
        };
        let same = result(&[(1, Ok(rec(7))), (1, Ok(rec(7)))]);
        assert_eq!(exit_code(&same), 0);
        let mismatch = result(&[(1, Ok(rec(7))), (1, Ok(rec(8)))]);
        assert_eq!(exit_code(&mismatch), 1);
        assert!(summary_json(&mismatch).starts_with("{\"correct\": false"));
    }

    #[test]
    fn gate_reports_a_failed_child_and_broken_conservation() {
        let runs = [(1, Ok(rec(7))), (1, Err("run child timed out".to_string()))];
        assert_eq!(gate(&runs), vec!["run child timed out".to_string()]);
        let broken = Record::parse(&rec(7).render().replace("conserved 1", "conserved 0"));
        assert_eq!(gate(&[(1, Ok(broken))]).len(), 1);
    }

    #[test]
    fn a_time_budget_always_runs_the_first_round() {
        let now = Instant::now();
        assert!(more(0.0, 0, now));
        assert!(!more(0.0, 1, now));
        assert!(more(60.0, 1, now));
        assert!(!more(60.0, MAX_ROUNDS, now));
    }
}
