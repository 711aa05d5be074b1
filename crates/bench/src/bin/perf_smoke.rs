//! CI perf-smoke driver: scaled-down versions of the paper-scale bench
//! scenarios, run once each in release mode. The job's contract is
//! liveness, not latency — it fails on panic (and CI wraps it in a
//! timeout), so the 104-cluster / 1000-node code paths cannot silently
//! rot between full bench runs.
//!
//! Usage: `perf_smoke` (no arguments). Prints one line per scenario with
//! wall time and a few sanity counters, exits non-zero on any violation.
//!
//! Besides liveness, the job carries latency assertions: scaled-down
//! `system_tick/104` runs (plain and mirror-attached) and a cloud-spill
//! `edge_spill/16` run must each finish within 1.25× the committed
//! `BENCH_baseline.json` figure (pro-rated to the smoke horizon), and
//! the `td3_update`/`replay_sample`/`dcg_be_decision` learner
//! microbenches must stay within 1.25× their committed ns/iter. Set `TANGO_PERF_GUARD=off` to
//! demote the guard to a warning on hosts that are not comparable to
//! the baseline machine.

use std::time::Instant;
use tango::{BePolicy, EdgeCloudSystem, FaultPlan, LcPolicy, RunReport, TangoConfig};
use tango_types::SimTime;

fn run_scenario(name: &str, cfg: TangoConfig, horizon: SimTime) -> RunReport {
    let t = Instant::now();
    let sys = EdgeCloudSystem::new(cfg);
    let nodes = sys.node_count();
    let report = sys.run(horizon, name);
    let wall = t.elapsed();
    assert!(report.lc_arrived > 0, "{name}: no LC traffic arrived");
    assert!(
        report.lc_completed > 0,
        "{name}: no LC request completed — the dispatch path is dead"
    );
    println!(
        "{name:<28} {nodes:>5} nodes  {:>7} lc arrived  {:>6} lc done  {:>8.1} ms wall",
        report.lc_arrived,
        report.lc_completed,
        wall.as_secs_f64() * 1e3
    );
    report
}

fn main() {
    // Learner microbenches first, while the process still looks like a
    // fresh bench_baseline run: the committed figures were measured
    // before any multi-threaded system scenario touched the allocator
    // or spun up the worker pool, and running them after the heavy
    // scenarios below skews them well past real regressions.
    microbench_guard(&baseline_json());

    // 104 clusters, short horizon: two sync ticks + a dozen dispatch
    // rounds at every master.
    let mut cfg = TangoConfig::dual_space(104);
    cfg.be_policy = BePolicy::LoadGreedy;
    run_scenario("smoke/system_tick/104", cfg, SimTime::from_millis(250));

    // ~1000-node preset, same short horizon.
    run_scenario(
        "smoke/system_tick/1000node",
        TangoConfig::paper_scale(),
        SimTime::from_millis(250),
    );

    // thread-count invariance at scale: the same short 104-cluster run
    // must digest identically at 1 and 4 workers
    let digest = |threads: usize| {
        let mut cfg = TangoConfig::dual_space(104);
        cfg.be_policy = BePolicy::LoadGreedy;
        cfg.parallelism = Some(threads);
        EdgeCloudSystem::new(cfg)
            .run(SimTime::from_millis(250), "smoke-digest")
            .digest()
    };
    let (d1, d4) = (digest(1), digest(4));
    assert_eq!(
        d1, d4,
        "104-cluster digest differs across thread counts: {d1:#x} vs {d4:#x}"
    );
    println!("smoke/digest/104             0x{d1:016x} at 1 and 4 threads");

    // ~1000-node preset under keep-alive detection and node churn, the
    // perfbench `churn_1k` shape: detections and recoveries re-derive
    // single clusters' candidate-view segments at full scale. Liveness,
    // then the same digest at 1 and 4 workers.
    let churn = |threads: usize| {
        let mut cfg = TangoConfig::paper_scale();
        cfg.detection = Some(Default::default());
        cfg.faults = FaultPlan::default().node_churn(
            SimTime::from_secs(2),
            SimTime::from_millis(500),
            cfg.seed ^ 0xC4012,
        );
        cfg.parallelism = Some(threads);
        cfg
    };
    const CHURN_MS: u64 = 500;
    let d1 = run_scenario(
        "smoke/churn/1000node",
        churn(1),
        SimTime::from_millis(CHURN_MS),
    )
    .digest();
    let d4 = EdgeCloudSystem::new(churn(4))
        .run(SimTime::from_millis(CHURN_MS), "smoke/churn/1000node")
        .digest();
    assert_eq!(
        d1, d4,
        "1000-node churn digest differs across thread counts: {d1:#x} vs {d4:#x}"
    );
    println!("smoke/churn/1000node         0x{d1:016x} at 1 and 4 threads");

    // Dispatch-heavy smoke: high arrival rate over a metro region keeps
    // every master's queue non-empty, so every dispatch round plans and
    // commits LC work.
    let mut heavy = TangoConfig::physical_testbed();
    heavy.clusters = 6;
    heavy.topology.clusters = 6;
    heavy.workload.lc_rps = 900.0;
    heavy.workload.be_rps = 90.0;
    heavy.lc_policy = LcPolicy::DssLc;
    heavy.be_policy = BePolicy::LoadGreedy;
    run_scenario("smoke/dispatch_heavy/6", heavy, SimTime::from_millis(500));

    regression_guard();
}

/// Extract `wall_ns` for one scenario from the committed baseline JSON
/// (flat hand-rolled schema; serde is unavailable offline).
fn baseline_wall_ns(json: &str, scenario: &str) -> Option<f64> {
    let needle = format!("\"scenario\": \"{scenario}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let tail = line.split("\"wall_ns\":").nth(1)?;
    tail.split(',').next()?.trim().parse::<f64>().ok()
}

/// Fail (or warn, under `TANGO_PERF_GUARD=off`) when a scaled-down
/// scenario runs slower than 1.25× the committed baseline, pro-rated
/// from the baseline's 1 s horizon to the smoke horizon. Uses the best
/// of three runs so one scheduling hiccup cannot fail CI.
fn baseline_json() -> String {
    match std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_baseline.json"
    )) {
        Ok(j) => j,
        Err(e) => panic!("regression guard: cannot read BENCH_baseline.json: {e}"),
    }
}

fn regression_guard() {
    let json = baseline_json();
    let budget_ms = |scenario: &str, smoke_ms: u64| {
        let base_ns = baseline_wall_ns(&json, scenario)
            .unwrap_or_else(|| panic!("BENCH_baseline.json carries a {scenario} sample"));
        base_ns / 1e6 * (smoke_ms as f64 / 1_000.0) * 1.25
    };

    // 104-cluster tick, 250 ms horizon: a plain run, and a
    // mirror-attached run under the same budget — the state mirror
    // publishes a frame per sync tick and must stay cheap enough to
    // disappear inside the 1.25x envelope.
    const SMOKE_MS: u64 = 250;
    let budget_104 = budget_ms("system_tick/104", SMOKE_MS);
    for (label, mirrored) in [
        ("smoke/regression_guard/104", false),
        ("smoke/regression_guard/104+mirror", true),
    ] {
        let mut best_ms = f64::INFINITY;
        for _ in 0..3 {
            let mut cfg = TangoConfig::dual_space(104);
            cfg.be_policy = BePolicy::LoadGreedy;
            let mut sys = EdgeCloudSystem::new(cfg); // build excluded, like the pro-rating
            let mirror = mirrored.then(|| sys.attach_mirror());
            let t = Instant::now();
            std::hint::black_box(sys.run(SimTime::from_millis(SMOKE_MS), "smoke-guard"));
            best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
            if let Some(m) = mirror {
                assert!(
                    m.stats().full_frames >= 1,
                    "mirrored guard run published nothing"
                );
            }
        }
        enforce(label, best_ms, budget_104, SMOKE_MS);
    }

    // Cloud-spill tick, 500 ms horizon (the defrag pass first fires at
    // the second sync tick, so the shorter smoke window would never
    // migrate): migration + egress accounting must stay inside the same
    // 1.25x envelope, and pods must actually spill.
    const SPILL_MS: u64 = 500;
    let budget_spill = budget_ms("edge_spill/16", SPILL_MS);
    let mut best_ms = f64::INFINITY;
    for _ in 0..3 {
        let sys = EdgeCloudSystem::new(tango_bench::scenarios::edge_spill_cfg(16));
        let t = Instant::now();
        let report = sys.run(SimTime::from_millis(SPILL_MS), "smoke-spill");
        best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert!(
            report.migrations_started > 0,
            "edge_spill smoke never migrated — the scenario is dead weight"
        );
    }
    enforce(
        "smoke/regression_guard/spill16",
        best_ms,
        budget_spill,
        SPILL_MS,
    );
}

/// Learner microbenches: per-iteration cost is horizon-independent
/// (the committed wall_ns for a microbench row is median ns/iter), so
/// compare ns/iter directly — no pro-rating. Best of three short reruns
/// of the exact bench_baseline workloads, same 1.25x envelope and
/// guard-off escape as [`enforce`].
fn microbench_guard(json: &str) {
    type BenchFn = fn(u64) -> tango_bench::microbench::Sample;
    let benches: [BenchFn; 3] = [
        tango_bench::scenarios::td3_update_bench,
        tango_bench::scenarios::replay_sample_bench,
        tango_bench::scenarios::dcg_be_decision_bench,
    ];
    for bench in benches {
        let mut best: Option<tango_bench::microbench::Sample> = None;
        for _ in 0..3 {
            let s = bench(200);
            if best.as_ref().is_none_or(|b| s.ns_per_iter < b.ns_per_iter) {
                best = Some(s);
            }
        }
        let sample = best.expect("three runs produced a sample");
        let base_ns = baseline_wall_ns(json, &sample.name)
            .unwrap_or_else(|| panic!("BENCH_baseline.json carries a {} sample", sample.name));
        let budget_ns = base_ns * 1.25;
        let label = format!("smoke/regression_guard/{}", sample.name);
        println!(
            "{label:<34} {:>8.0} ns/iter (budget {budget_ns:.0} ns = 1.25x baseline)",
            sample.ns_per_iter
        );
        if sample.ns_per_iter > budget_ns {
            let msg = format!(
                "{label} took {:.0} ns/iter, over the {budget_ns:.0} ns budget (1.25x the \
                 committed BENCH_baseline.json figure) — either fix the regression or \
                 re-stamp the baseline",
                sample.ns_per_iter
            );
            if std::env::var("TANGO_PERF_GUARD").as_deref() == Ok("off") {
                eprintln!("warning (guard off): {msg}");
            } else {
                panic!("{msg}");
            }
        }
    }
}

/// Shared budget check: print the measurement, then fail (or warn under
/// `TANGO_PERF_GUARD=off`) when it exceeds the pro-rated budget.
fn enforce(label: &str, best_ms: f64, budget_ms: f64, smoke_ms: u64) {
    println!(
        "{label:<34} {best_ms:>8.1} ms wall (budget {budget_ms:.1} ms = \
         1.25x baseline pro-rated to {smoke_ms} ms)"
    );
    if best_ms > budget_ms {
        let msg = format!(
            "scaled-down {label} took {best_ms:.1} ms, over the {budget_ms:.1} ms \
             budget (1.25x the committed BENCH_baseline.json figure) — either fix the \
             regression or re-stamp the baseline"
        );
        if std::env::var("TANGO_PERF_GUARD").as_deref() == Ok("off") {
            eprintln!("warning (guard off): {msg}");
        } else {
            panic!("{msg}");
        }
    }
}
