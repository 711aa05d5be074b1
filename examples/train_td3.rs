//! Seeded training sweep: the TD3 continuous-action BE scheduler vs
//! DCG-BE (discrete A2C) on QoS violations and utilization.
//!
//! Each arm runs the `tango-train` harness — fresh scenario per episode,
//! learner state threaded across episodes — over a handful of seeds at a
//! dual-space deployment scale, then reports the mean QoS-violation rate
//! and node utilization of the final (most-trained) episode per seed.
//!
//! ```sh
//! cargo run --release --example train_td3 -- 8 3
//! cargo run --release --example train_td3 -- 8 3 --json > train_td3.json
//! ```
//!
//! First argument: cluster count (default 8). Second: episodes per seed
//! (default 3). With `--json`, bench-style stamped JSON replaces the
//! table — the same `{threads, git_rev, samples[]}` shape the bench
//! binaries commit, one sample per (policy, seed) with the training
//! wall time, plus the eval digest so sweeps can be diffed for
//! determinism across machines.

use tango_repro::tango::{BePolicy, TangoConfig};
use tango_repro::train::{TrainConfig, TrainHarness, TrainOutcome};
use tango_repro::types::SimTime;

const SEEDS: [u64; 3] = [7, 47, 1701];

/// Resolve the revision to stamp JSON output with, mirroring the bench
/// harness: `TANGO_GIT_REV` first, then `git rev-parse --short HEAD`,
/// and a panic (not a placeholder) when neither resolves.
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("TANGO_GIT_REV") {
        let rev = rev.trim().to_string();
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| {
            panic!(
                "JSON stamping could not resolve a git revision: run inside a \
                 git checkout or set TANGO_GIT_REV=<rev>"
            )
        })
}

fn train_cfg(clusters: usize, episodes: usize, policy: BePolicy, seed: u64) -> TrainConfig {
    let mut base = TangoConfig::dual_space(clusters).as_tango();
    base.be_policy = policy;
    TrainConfig {
        episodes,
        episode_duration: SimTime::from_secs(2),
        checkpoint_every: 0,
        seed,
        ..TrainConfig::new(base)
    }
}

struct Arm {
    policy: &'static str,
    seed: u64,
    outcome: TrainOutcome,
    wall: std::time::Duration,
}

fn violation_rate(o: &TrainOutcome) -> f64 {
    // QoS-violation rate of the final (most-trained) episode
    o.records.last().map(|r| 1.0 - r.qos).unwrap_or(1.0)
}

fn utilization(o: &TrainOutcome) -> f64 {
    o.records.last().map(|r| r.utilization).unwrap_or(0.0)
}

fn main() {
    let mut json = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else {
            positional.push(arg);
        }
    }
    let mut args = positional.into_iter();
    let clusters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let episodes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);

    let arms: Vec<(&'static str, BePolicy)> = vec![
        ("td3-be", BePolicy::Td3),
        (
            "dcg-be",
            BePolicy::DcgBe(tango_repro::gnn::EncoderKind::Sage { p: 3 }),
        ),
    ];

    let mut results: Vec<Arm> = Vec::new();
    for (name, policy) in &arms {
        for seed in SEEDS {
            let start = std::time::Instant::now();
            let outcome = TrainHarness::new(train_cfg(clusters, episodes, *policy, seed))
                .run()
                .expect("training run succeeds");
            results.push(Arm {
                policy: name,
                seed,
                outcome,
                wall: start.elapsed(),
            });
        }
    }

    if json {
        let rev = git_rev();
        let mut samples = Vec::new();
        for a in &results {
            let done: u64 = a.outcome.records.iter().map(|r| r.be_throughput).sum();
            let rate = done as f64 / a.wall.as_secs_f64().max(1e-9);
            samples.push(format!(
                "{{\"scenario\": \"train_td3/{}/seed{}\", \"wall_ns\": {}, \"rate_per_sec\": {:.2}, \
                 \"qos_violation_rate\": {:.4}, \"utilization\": {:.4}, \"eval_digest\": \"{:#018x}\"}}",
                a.policy,
                a.seed,
                a.wall.as_nanos(),
                rate,
                violation_rate(&a.outcome),
                utilization(&a.outcome),
                a.outcome.eval_digest
            ));
        }
        // every sample ran on this one thread
        let mut out =
            format!("{{\n  \"threads\": 1,\n  \"git_rev\": \"{rev}\",\n  \"samples\": [\n");
        for (i, s) in samples.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                s,
                if i + 1 < samples.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        println!("{out}");
        return;
    }

    println!(
        "trained {episodes} episodes x {} seeds on {clusters} clusters per policy\n",
        SEEDS.len()
    );
    println!("policy  seed  qos-violations  utilization  eval-digest");
    for a in &results {
        println!(
            "{:<6}  {:>4}  {:>14.3}  {:>11.3}  {:#018x}",
            a.policy,
            a.seed,
            violation_rate(&a.outcome),
            utilization(&a.outcome),
            a.outcome.eval_digest
        );
    }
    for (name, _) in &arms {
        let arm: Vec<&Arm> = results.iter().filter(|a| a.policy == *name).collect();
        let n = arm.len() as f64;
        let viol = arm.iter().map(|a| violation_rate(&a.outcome)).sum::<f64>() / n;
        let util = arm.iter().map(|a| utilization(&a.outcome)).sum::<f64>() / n;
        println!("\n{name}: mean qos-violations {viol:.3}, mean utilization {util:.3}");
    }
}
