//! Regenerate every table and figure of the Tango paper's evaluation.
//!
//! ```sh
//! cargo run --release -p tango-bench --bin figures -- all
//! cargo run --release -p tango-bench --bin figures -- fig9
//! TANGO_SCALE=4 cargo run --release -p tango-bench --bin figures -- fig13
//! ```
//!
//! Subcommands: `fig1 fig9 dvpa fig10 fig11ab dss_scaling fig11c fig11d
//! fig12 fig13 all`. `TANGO_SCALE` multiplies durations/cluster counts
//! toward paper scale.

use std::time::Instant;
use tango::runtime::{run_parallel, RunSpec};
use tango::{AllocatorKind, BePolicy, LcPolicy, TangoConfig};
use tango_bench::{improvement_pct, print_normalized_series, print_summaries, scale};
use tango_gnn::EncoderKind;
use tango_types::{Resources, SimTime};
use tango_workload::PatternKind;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s * scale())
}

/// Fig. 1: the motivation measurement — LC-only provisioning over a
/// diurnal day: resource utilization stays low, latency sits near 300 ms.
fn fig1() {
    println!("\n### Figure 1: motivation — LC-only edge clouds over a day ###");
    let mut specs = Vec::new();
    for hour in (0..24).step_by(3) {
        let mut cfg = TangoConfig::physical_testbed().as_k8s_native();
        cfg.workload.be_rps = 0.0; // individually hosted LC services
        cfg.workload.lc_rps = 900.0; // provisioned for the diurnal peak
        cfg.workload.diurnal = true;
        cfg.seed = 42 + hour;
        // the trace generator maps sim time to hour-of-day from the seeded
        // start hour; emulate each sampling point with a short run.
        specs.push(RunSpec {
            label: format!("{hour:02}:00"),
            config: with_start_hour(cfg, hour as f64),
            duration: secs(10),
        });
    }
    let reports = run_parallel(specs);
    println!("hour   utilization   lc p95 (ms)");
    for r in &reports {
        println!(
            "{}   {:>11.3}   {:>10.1}",
            r.label, r.mean_utilization, r.lc_p95_ms
        );
    }
    let max_util = reports
        .iter()
        .map(|r| r.mean_utilization)
        .fold(0.0f64, f64::max);
    println!(
        "\npeak utilization {:.1}% — the paper's measurement reports <20% on average",
        max_util * 100.0
    );
}

/// The workload generator reads the start hour from the trace spec; we
/// emulate Fig. 1's day-long sweep by sweeping the diurnal phase through
/// the seed-adjacent field (kept out of TangoConfig to avoid a knob no
/// other experiment uses). Implemented by scaling rates directly.
fn with_start_hour(mut cfg: TangoConfig, hour: f64) -> TangoConfig {
    let profile = tango_workload::DiurnalProfile::default();
    let m = profile.multiplier(hour);
    cfg.workload.diurnal = false;
    cfg.workload.lc_rps *= m;
    cfg.workload.be_rps *= m;
    cfg
}

/// Fig. 9: HRM vs K8s-native under the three §7.1 patterns.
fn fig9() {
    println!("\n### Figure 9: HRM vs K8s-native under patterns P1/P2/P3 ###");
    let duration = secs(20);
    let mut specs = Vec::new();
    for pattern in PatternKind::ALL {
        for hrm in [true, false] {
            let mut cfg = TangoConfig::physical_testbed();
            cfg.workload.pattern = pattern;
            cfg.workload.lc_rps = 300.0;
            cfg.workload.be_rps = 40.0;
            cfg.lc_policy = LcPolicy::KsNative;
            cfg.be_policy = BePolicy::KsNative;
            if hrm {
                cfg.allocator = AllocatorKind::Hrm;
            } else {
                cfg.allocator = AllocatorKind::Static;
                cfg.reassurance = None;
            }
            specs.push(RunSpec {
                label: format!("{pattern:?}+{}", if hrm { "HRM" } else { "native" }),
                config: cfg,
                duration,
            });
        }
    }
    let reports = run_parallel(specs);
    println!("\n(b,c) per-class utilization averaged over the run:");
    println!("config            util_lc  util_be  util_overall");
    for r in &reports {
        let n = r.periods.len().max(1) as f64;
        let (lc, be) = r
            .periods
            .iter()
            .fold((0.0, 0.0), |(a, b), p| (a + p.util_lc, b + p.util_be));
        println!(
            "{:<16}  {:>7.3}  {:>7.3}  {:>12.3}",
            r.label,
            lc / n,
            be / n,
            r.mean_utilization
        );
    }
    print_normalized_series("(d) overall utilization per period", &reports, |p| {
        p.util_overall
    });
    let hrm: f64 = reports
        .iter()
        .filter(|r| r.label.contains("HRM"))
        .map(|r| r.mean_utilization)
        .sum::<f64>()
        / 3.0;
    let nat: f64 = reports
        .iter()
        .filter(|r| r.label.contains("native"))
        .map(|r| r.mean_utilization)
        .sum::<f64>()
        / 3.0;
    println!(
        "\nHRM improves mean utilization by {:+.1}% over K8s-native",
        improvement_pct(hrm, nat)
    );
}

/// §7.1 text: D-VPA single-op scaling vs delete-and-rebuild.
fn dvpa() {
    println!("\n### D-VPA scaling-operation cost (§7.1 text) ###");
    use tango_hrm::Dvpa;
    use tango_kube::{NativeVpa, Node};
    use tango_types::{ClusterId, NodeId, ServiceClass, ServiceId, ServiceSpec};

    let spec = ServiceSpec {
        id: ServiceId(0),
        name: "svc".into(),
        class: ServiceClass::Lc,
        min_request: Resources::cpu_mem(500, 256),
        work_milli_ms: 50_000,
        qos_target: SimTime::from_millis(300),
        payload_kib: 64,
    };
    let cap = Resources::new(8_000, 16_384, 1_000, 100_000);
    let mut node = Node::new(NodeId(1), ClusterId(0), false, cap);
    node.deploy_service(
        &spec,
        Resources::new(1_000, 1_024, 100, 1_000),
        SimTime::ZERO,
    )
    .unwrap();

    // modeled latencies
    let mut dvpa = Dvpa::default();
    let native = NativeVpa::default();
    let up = Resources::new(2_000, 2_048, 200, 2_000);
    let out = dvpa.scale(&mut node, spec.id, up, SimTime::ZERO).unwrap();
    println!(
        "D-VPA modeled op latency: {} ({} cgroup writes, no interruption)",
        SimTime::from_millis(23),
        out.writes
    );
    println!(
        "native VPA modeled rebuild: {} (pod deleted and recreated)",
        native.rebuild_delay
    );
    println!(
        "speedup factor: ~{}x (paper reports ~100x)",
        native.rebuild_delay.as_millis() / 23
    );

    // wall-clock of the in-memory control-flow itself
    let iters = 10_000;
    let t0 = Instant::now();
    for i in 0..iters {
        let target = if i % 2 == 0 {
            Resources::new(1_000, 1_024, 100, 1_000)
        } else {
            up
        };
        dvpa.scale(&mut node, spec.id, target, SimTime::ZERO)
            .unwrap();
    }
    println!(
        "in-memory control-flow cost: {:.2} µs/op over {iters} ops",
        t0.elapsed().as_secs_f64() * 1e6 / iters as f64
    );
}

fn pattern_cfg(pattern: PatternKind, reassure: bool) -> TangoConfig {
    // heavy LC load: QoS violations exist, so Algorithm 1's grow
    // direction has something to re-assure (§7.1's fluctuating regime)
    let mut cfg = TangoConfig::physical_testbed();
    cfg.workload.pattern = pattern;
    cfg.workload.lc_rps = 1_350.0;
    cfg.workload.be_rps = 16.0;
    if !reassure {
        cfg.reassurance = None;
    }
    cfg.be_policy = BePolicy::LoadGreedy; // isolate re-assurance, cheap BE side
    cfg
}

/// Fig. 10: QoS re-assurance on/off across P1/P2/P3.
fn fig10() {
    println!("\n### Figure 10: QoS re-assurance mechanism ###");
    let duration = secs(20);
    let mut specs = Vec::new();
    for pattern in PatternKind::ALL {
        for reassure in [true, false] {
            specs.push(RunSpec {
                label: format!("{pattern:?}+{}", if reassure { "reassure" } else { "off" }),
                config: pattern_cfg(pattern, reassure),
                duration,
            });
        }
    }
    let reports = run_parallel(specs);
    println!("\npattern        reassurance   qos      throughput");
    for r in &reports {
        println!(
            "{:<24}  {:>6.3}  {:>10}",
            r.label, r.qos_satisfaction, r.be_throughput
        );
    }
    for pattern in PatternKind::ALL {
        let with = reports
            .iter()
            .find(|r| r.label == format!("{pattern:?}+reassure"))
            .unwrap();
        let without = reports
            .iter()
            .find(|r| r.label == format!("{pattern:?}+off"))
            .unwrap();
        println!(
            "{pattern:?}: re-assurance moves QoS satisfaction {:+.1}% and throughput {:+.1}%",
            improvement_pct(with.qos_satisfaction, without.qos_satisfaction),
            improvement_pct(with.be_throughput as f64, without.be_throughput as f64),
        );
    }
}

fn lc_comparison_cfg(policy: LcPolicy) -> TangoConfig {
    // bursty LC around the testbed's ~1.3k req/s capacity: scheduling
    // quality only separates when spikes overload the preferred nodes
    let mut cfg = TangoConfig::physical_testbed();
    cfg.lc_policy = policy;
    cfg.be_policy = BePolicy::KsNative; // §7.2 fixes the BE side
    cfg.workload.pattern = PatternKind::P1;
    cfg.workload.lc_rps = 1_100.0;
    cfg.workload.be_rps = 20.0;
    cfg
}

/// Fig. 11(a,b): DSS-LC vs load-greedy / K8s-native / scoring.
/// Averaged over three trace seeds (the paper runs each experiment five
/// times).
fn fig11ab() {
    println!("\n### Figure 11(a,b): LC scheduling algorithms ###");
    let duration = secs(20);
    let policies = [
        LcPolicy::DssLc,
        LcPolicy::Scoring,
        LcPolicy::LoadGreedy,
        LcPolicy::KsNative,
    ];
    let seeds = [42u64, 1042, 2042];
    let mut specs = Vec::new();
    for &p in &policies {
        for &seed in &seeds {
            let mut cfg = lc_comparison_cfg(p);
            cfg.seed = seed;
            specs.push(RunSpec {
                label: format!("{}#{}", p.name(), seed),
                config: cfg,
                duration,
            });
        }
    }
    let all = run_parallel(specs);
    // aggregate means per policy; keep the first seed's series for plots
    let mut reports = Vec::new();
    for (i, &p) in policies.iter().enumerate() {
        let runs = &all[i * seeds.len()..(i + 1) * seeds.len()];
        let n = runs.len() as f64;
        let mut agg = runs[0].clone();
        agg.label = p.name().to_string();
        agg.qos_satisfaction = runs.iter().map(|r| r.qos_satisfaction).sum::<f64>() / n;
        agg.be_throughput = (runs.iter().map(|r| r.be_throughput).sum::<u64>() as f64 / n) as u64;
        agg.mean_utilization = runs.iter().map(|r| r.mean_utilization).sum::<f64>() / n;
        agg.lc_p95_ms = runs.iter().map(|r| r.lc_p95_ms).sum::<f64>() / n;
        agg.abandoned = (runs.iter().map(|r| r.abandoned).sum::<u64>() as f64 / n) as u64;
        reports.push(agg);
    }
    print_summaries("LC algorithm comparison (mean of 3 seeds)", &reports);
    print_normalized_series(
        "(a) per-period QoS-guarantee satisfaction rate",
        &reports,
        |p| {
            if p.lc_arrived == 0 {
                0.0
            } else {
                p.lc_satisfied as f64 / p.lc_arrived as f64
            }
        },
    );
    println!("\n(b) tail latency and abandoned requests:");
    for r in &reports {
        println!(
            "{:<12} p95 {:>7.1} ms, abandoned {:>5}",
            r.label, r.lc_p95_ms, r.abandoned
        );
    }
}

/// §7.2 text: DSS-LC decision time at 500 and 1000 nodes. A decision
/// here starts from a fresh candidate set, as the paper's does: each
/// timed iteration builds the batch (sorting its delay order) and plans
/// it. The runtime's views keep that order across rounds, so a dispatch
/// round pays only the plan.
fn dss_scaling() {
    println!("\n### DSS-LC decision-time scaling (§7.2 text) ###");
    use tango_bench::scenarios::make_batch;
    use tango_sched::{delay_order, DssLc, LcBatch};
    use tango_types::{RequestId, ServiceId};

    for &n_nodes in &[100usize, 250, 500, 1000] {
        let nodes = make_batch(n_nodes, 0).nodes;
        let requests: Vec<RequestId> = (0..(n_nodes as u64 * 2)).map(RequestId).collect();
        let decide = |sched: &mut DssLc| {
            let by_delay = delay_order(&nodes);
            let batch = LcBatch {
                service: ServiceId(0),
                requests: &requests,
                rows: &nodes,
                by_delay: &by_delay,
            };
            sched.plan_many(&[batch])
        };
        let mut sched = DssLc::new(7);
        // warm up
        let _ = decide(&mut sched);
        let iters = 2_000;
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = decide(&mut sched);
        }
        let per = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
        println!("{n_nodes:>5} nodes: {per:>8.1} µs per decision round  (paper: 1.99 ms @500, 3.98 ms @1000)");
    }
}

fn be_comparison_cfg(policy: BePolicy) -> TangoConfig {
    // LC pressure + BE saturation: a wrong BE placement lands on an
    // LC-throttled node and drags throughput, so placement quality shows
    let mut cfg = TangoConfig::physical_testbed();
    cfg.lc_policy = LcPolicy::KsNative; // §7.2 fixes the LC side
    cfg.be_policy = policy;
    cfg.workload.pattern = PatternKind::P2; // periodic BE, random LC
    cfg.workload.lc_rps = 700.0;
    cfg.workload.be_rps = 70.0;
    cfg
}

/// Fig. 11(c): DCG-BE vs GNN-SAC / load-greedy / K8s-native.
/// Averaged over three trace seeds.
fn fig11c() {
    println!("\n### Figure 11(c): BE scheduling algorithms ###");
    let duration = secs(30);
    let policies = [
        BePolicy::DcgBe(EncoderKind::Sage { p: 3 }),
        BePolicy::GnnSac,
        BePolicy::LoadGreedy,
        BePolicy::KsNative,
    ];
    let seeds = [42u64, 1042, 2042];
    let mut specs = Vec::new();
    for &p in &policies {
        for &seed in &seeds {
            let mut cfg = be_comparison_cfg(p);
            cfg.seed = seed;
            specs.push(RunSpec {
                label: format!("{}#{}", p.name(), seed),
                config: cfg,
                duration,
            });
        }
    }
    let all = run_parallel(specs);
    let mut reports = Vec::new();
    for (i, &p) in policies.iter().enumerate() {
        let runs = &all[i * seeds.len()..(i + 1) * seeds.len()];
        let n = runs.len() as f64;
        let mut agg = runs[0].clone();
        agg.label = p.name().to_string();
        agg.qos_satisfaction = runs.iter().map(|r| r.qos_satisfaction).sum::<f64>() / n;
        agg.be_throughput = (runs.iter().map(|r| r.be_throughput).sum::<u64>() as f64 / n) as u64;
        agg.mean_utilization = runs.iter().map(|r| r.mean_utilization).sum::<f64>() / n;
        reports.push(agg);
    }
    print_summaries("BE algorithm comparison (mean of 3 seeds)", &reports);
    print_normalized_series("per-period BE throughput (first seed)", &reports, |p| {
        p.be_completed as f64
    });
}

/// Fig. 11(d): GNN structures inside DCG-BE.
fn fig11d() {
    println!("\n### Figure 11(d): GNN structure ablation ###");
    let duration = secs(30);
    let kinds = [
        ("GraphSAGE-A2C", EncoderKind::Sage { p: 3 }),
        ("GCN-A2C", EncoderKind::Gcn),
        ("GAT-A2C", EncoderKind::Gat),
        ("Native-A2C", EncoderKind::Native),
    ];
    let specs = kinds
        .iter()
        .map(|&(name, kind)| RunSpec {
            label: name.to_string(),
            config: be_comparison_cfg(BePolicy::DcgBe(kind)),
            duration,
        })
        .collect();
    let reports = run_parallel(specs);
    print_summaries("GNN ablation", &reports);
}

/// Fig. 12: the 4×4 LC × BE pairing grid.
fn fig12() {
    println!("\n### Figure 12: algorithm pairing analysis ###");
    let duration = secs(20);
    let lc_policies = [
        LcPolicy::DssLc,
        LcPolicy::Scoring,
        LcPolicy::LoadGreedy,
        LcPolicy::KsNative,
    ];
    let be_policies = [
        BePolicy::DcgBe(EncoderKind::Sage { p: 3 }),
        BePolicy::GnnSac,
        BePolicy::LoadGreedy,
        BePolicy::KsNative,
    ];
    let mut specs = Vec::new();
    for &lc in &lc_policies {
        for &be in &be_policies {
            let mut cfg = TangoConfig::physical_testbed();
            cfg.lc_policy = lc;
            cfg.be_policy = be;
            cfg.workload.pattern = PatternKind::P1;
            cfg.workload.lc_rps = 1_100.0;
            cfg.workload.be_rps = 40.0;
            specs.push(RunSpec {
                label: format!("{}+{}", lc.name(), be.name()),
                config: cfg,
                duration,
            });
        }
    }
    let reports = run_parallel(specs);
    println!("\n(a) QoS-guarantee satisfaction rate:");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8}",
        "LC \\ BE", "dcg-be", "gnn-sac", "greedy", "k8s"
    );
    for (i, &lc) in lc_policies.iter().enumerate() {
        print!("{:<12}", lc.name());
        for j in 0..4 {
            print!(" {:>8.3}", reports[i * 4 + j].qos_satisfaction);
        }
        println!();
    }
    println!("\n(b) BE throughput:");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8}",
        "LC \\ BE", "dcg-be", "gnn-sac", "greedy", "k8s"
    );
    for (i, &lc) in lc_policies.iter().enumerate() {
        print!("{:<12}", lc.name());
        for j in 0..4 {
            print!(" {:>8}", reports[i * 4 + j].be_throughput);
        }
        println!();
    }
    // headline claims
    let dss_qos: f64 = (0..4).map(|j| reports[j].qos_satisfaction).sum::<f64>() / 4.0;
    let others_qos: f64 = (4..16).map(|k| reports[k].qos_satisfaction).sum::<f64>() / 12.0;
    println!(
        "\nDSS-LC mean QoS vs other LC policies: {:+.1}% (paper: ≈+8.2%)",
        improvement_pct(dss_qos, others_qos)
    );
}

/// Fig. 13: Tango vs CERES vs DSACO at dual-space scale.
fn fig13() {
    println!("\n### Figure 13: large-scale hybrid-cluster validation ###");
    let clusters = (8 * scale() as usize).min(104);
    let duration = secs(20);
    let base = TangoConfig::dual_space(clusters);
    println!("({} clusters, {} simulated)", clusters, duration);
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
    let reports = run_parallel(specs);
    print_summaries("large-scale comparison", &reports);
    print_normalized_series("(e) per-period QoS satisfaction", &reports, |p| {
        if p.lc_arrived == 0 {
            0.0
        } else {
            p.lc_satisfied as f64 / p.lc_arrived as f64
        }
    });
    let (tango, ceres, dsaco) = (&reports[0], &reports[1], &reports[2]);
    println!(
        "\nTango vs CERES utilization: {:+.1}% (paper: +36.9%)",
        improvement_pct(tango.mean_utilization, ceres.mean_utilization)
    );
    println!(
        "Tango vs DSACO QoS satisfaction: {:+.1}% (paper: +11.3%)",
        improvement_pct(tango.qos_satisfaction, dsaco.qos_satisfaction)
    );
    println!(
        "Tango vs CERES throughput: {:+.1}% (paper: +47.6%)",
        improvement_pct(tango.be_throughput as f64, ceres.be_throughput as f64)
    );
}

/// Ablations beyond the paper (DESIGN.md §7): each design choice toggled
/// in isolation.
fn ablations() {
    println!("\n### Ablations: Tango's design choices in isolation ###");
    let duration = secs(20);

    // (1) DSS-LC λ-overflow routing on/off, under bursty overload.
    let mut specs = Vec::new();
    for on in [true, false] {
        let mut cfg = lc_comparison_cfg(LcPolicy::DssLc);
        cfg.ablations.dss_overflow_routing = on;
        specs.push(RunSpec {
            label: format!("overflow-routing={on}"),
            config: cfg,
            duration,
        });
    }
    // Lighter BE regime for the learning-agent ablations: without the
    // context filter every infeasible pick bounces and re-trains, so the
    // decision count (and wall time) balloons at full load.
    let be_ablation_cfg = || {
        let mut cfg = TangoConfig::physical_testbed();
        cfg.lc_policy = LcPolicy::KsNative;
        cfg.be_policy = BePolicy::DcgBe(EncoderKind::Sage { p: 3 });
        cfg.workload.lc_rps = 200.0;
        cfg.workload.be_rps = 25.0;
        cfg
    };
    // (2) DCG-BE policy-context filter on/off.
    for on in [true, false] {
        let mut cfg = be_ablation_cfg();
        cfg.ablations.dcg_context_filter = on;
        specs.push(RunSpec {
            label: format!("context-filter={on}"),
            config: cfg,
            duration: secs(10),
        });
    }
    // (3) η sweep in the DCG-BE reward.
    for eta in [0.0f32, 1.0, 4.0] {
        let mut cfg = be_ablation_cfg();
        cfg.ablations.dcg_eta = eta;
        specs.push(RunSpec {
            label: format!("eta={eta}"),
            config: cfg,
            duration: secs(10),
        });
    }
    // (4) re-assurance thresholds (α, β) sweep.
    for (alpha, beta) in [(0.05, 0.7), (0.2, 0.4), (0.01, 0.95)] {
        let mut cfg = pattern_cfg(PatternKind::P1, true);
        if let Some(r) = cfg.reassurance.as_mut() {
            r.alpha = alpha;
            r.beta = beta;
        }
        specs.push(RunSpec {
            label: format!("alpha={alpha},beta={beta}"),
            config: cfg,
            duration,
        });
    }
    let reports = run_parallel(specs);
    print_summaries("ablation runs", &reports);
    println!("\nreading guide: overflow routing should cut abandonment; the");
    println!("context filter should protect throughput; large η biases toward");
    println!("long-term throughput; a narrow (α, β) band reduces adjustment churn.");
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let t0 = Instant::now();
    match cmd.as_str() {
        "fig1" => fig1(),
        "fig9" => fig9(),
        "dvpa" => dvpa(),
        "fig10" => fig10(),
        "fig11ab" => fig11ab(),
        "dss_scaling" => dss_scaling(),
        "fig11c" => fig11c(),
        "fig11d" => fig11d(),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "ablations" => ablations(),
        "all" => {
            fig1();
            fig9();
            dvpa();
            fig10();
            fig11ab();
            dss_scaling();
            fig11c();
            fig11d();
            fig12();
            fig13();
            ablations();
        }
        other => {
            eprintln!("unknown figure '{other}'; try: fig1 fig9 dvpa fig10 fig11ab dss_scaling fig11c fig11d fig12 fig13 ablations all");
            std::process::exit(2);
        }
    }
    eprintln!("\n[done in {:.1}s]", t0.elapsed().as_secs_f64());
}
