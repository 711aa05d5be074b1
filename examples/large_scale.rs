//! Large-scale hybrid-cluster comparison (Fig. 13 in miniature): Tango vs
//! CERES (elastic local allocation, no cross-cluster scheduling) vs DSACO
//! (intelligent distributed offloading, no mixed-workload allocation) on
//! a dual-space deployment, driven through the paper-scale runtime.
//!
//! The paper runs 104 clusters / ~1000 nodes for many minutes; this
//! example defaults to 12 clusters × 20 s so it completes in seconds.
//! Pass a cluster count — and optionally a total node-count target, which
//! tunes the per-cluster worker draw — to scale it up to the paper's
//! shape. The three systems run side by side, one thread each, up to
//! `TANGO_THREADS` (default: the host's core count) at once:
//!
//! ```sh
//! cargo run --release --example large_scale -- 30
//! cargo run --release --example large_scale -- 104 1000
//! ```
//!
//! With `--json` the comparison table is replaced by bench-style stamped
//! JSON on stdout — the same `{threads, git_rev, samples[]}` shape the
//! bench binaries commit, with one timed sample per system and
//! `rate_per_sec` counting completed requests per wall-clock second —
//! so scripted sweeps can archive example runs next to bench results:
//!
//! ```sh
//! cargo run --release --example large_scale -- 30 --json > large_scale.json
//! ```

use tango_repro::tango::runtime::{run_parallel, RunSpec};
use tango_repro::tango::TangoConfig;
use tango_repro::types::SimTime;

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
    let clusters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);
    let node_target: Option<usize> = args.next().and_then(|a| a.parse().ok());
    let duration = SimTime::from_secs(20);
    let mut base = TangoConfig::dual_space(clusters);
    if let Some(nodes) = node_target {
        // aim the uniform worker draw's mean at (nodes/clusters - 1)
        // workers per cluster, ±4 for the paper's heterogeneity
        let mean = (nodes / clusters.max(1)).saturating_sub(1).max(1);
        base.workers_per_cluster = (mean.saturating_sub(4).max(1), mean + 4);
    }

    let specs = vec![
        RunSpec {
            label: "Tango".into(),
            config: base.clone().as_tango(),
            duration,
        },
        RunSpec {
            label: "CERES".into(),
            config: base.clone().as_ceres(),
            duration,
        },
        RunSpec {
            label: "DSACO".into(),
            config: base.as_dsaco(),
            duration,
        },
    ];

    if json {
        // One timed sample per system, emitted in the bench harness's
        // stamped shape (hand-rolled: serde is unavailable offline).
        let rev = git_rev();
        let mut samples = Vec::new();
        for spec in specs {
            let label = spec.label.clone();
            let start = std::time::Instant::now();
            let report = run_parallel(vec![spec]).remove(0);
            let wall = start.elapsed();
            let completed = report.lc_completed + report.be_throughput;
            let rate = completed as f64 / wall.as_secs_f64().max(1e-9);
            samples.push(format!(
                "{{\"scenario\": \"large_scale/{}/{}\", \"wall_ns\": {}, \"rate_per_sec\": {:.2}}}",
                label,
                clusters,
                wall.as_nanos(),
                rate
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

    match node_target {
        Some(n) => {
            println!("comparing on {clusters} clusters (~{n} nodes), {duration} simulated ...")
        }
        None => println!("comparing on {clusters} clusters, {duration} simulated ..."),
    }
    let reports = run_parallel(specs);

    println!("\nsystem  utilization  qos-satisfaction  be-throughput  abandoned  req/sim-min");
    let sim_minutes = duration.as_micros() as f64 / 60_000_000.0;
    for r in &reports {
        // end-of-run throughput: completed requests (LC + BE) per
        // simulated minute — the ROADMAP's scale yardstick
        let done_per_min = (r.lc_completed + r.be_throughput) as f64 / sim_minutes;
        println!(
            "{:<6}  {:>11.3}  {:>16.3}  {:>13}  {:>9}  {:>11.0}",
            r.label,
            r.mean_utilization,
            r.qos_satisfaction,
            r.be_throughput,
            r.abandoned,
            done_per_min
        );
    }

    let tango = &reports[0];
    let ceres = &reports[1];
    let dsaco = &reports[2];
    println!(
        "\nTango vs CERES:  utilization {:+.1}%,  throughput {:+.1}%",
        (tango.mean_utilization / ceres.mean_utilization.max(1e-9) - 1.0) * 100.0,
        (tango.be_throughput as f64 / ceres.be_throughput.max(1) as f64 - 1.0) * 100.0,
    );
    println!(
        "Tango vs DSACO:  QoS satisfaction {:+.1}%",
        (tango.qos_satisfaction / dsaco.qos_satisfaction.max(1e-9) - 1.0) * 100.0,
    );
    println!(
        "Tango arrivals: {} LC in {:.2} sim-min ({:.0} arrivals/sim-min)",
        tango.lc_arrived,
        sim_minutes,
        tango.lc_arrived as f64 / sim_minutes
    );
}
