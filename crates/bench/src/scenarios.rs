//! Shared fixed-seed scenario generators and the stamped JSON emitter
//! used by the bench binaries.
//!
//! Every generator is deterministic (fixed xorshift seeds, fixed
//! shapes), so two runs of any bench binary measure identical work and
//! the committed JSON files are comparable across revisions.

use crate::microbench::Sample;
use tango::{BePolicy, CloudConfig, DefragConfig, TangoConfig};
use tango_gnn::FeatureGraph;
use tango_nn::Matrix;
use tango_rl::{ReplayBuffer, Td3Agent, Td3Config};
use tango_sched::{BeScheduler, CandidateNode, DcgBe, DcgBeConfig, TypeBatch};
use tango_simcore::SimRng;
use tango_types::{ClusterId, NodeId, RequestId, Resources, ServiceId, SimTime};

/// Paper-like DSS-LC batch, shared by `bench_baseline` and the
/// `dss_latency` bench.
pub fn make_batch(n_nodes: usize, n_requests: u64) -> TypeBatch {
    let nodes: Vec<CandidateNode> = (0..n_nodes)
        .map(|i| CandidateNode {
            node: NodeId(i as u32),
            cluster: ClusterId((i / 10) as u32),
            total: Resources::cpu_mem(8_000, 16_384),
            available_lc: Resources::cpu_mem(2_000 + (i as u64 % 7) * 500, 4_096),
            available_be: Resources::cpu_mem(2_000, 4_096),
            min_request: Resources::cpu_mem(500, 256),
            delay: SimTime::from_micros(300 + (i as u64 % 50) * 997),
            link_capacity: 64,
            slack: 1.0,
            alive: true,
        })
        .collect();
    TypeBatch::new(
        ServiceId(0),
        (0..n_requests).map(RequestId).collect(),
        nodes,
    )
}

/// Star-cluster feature graph (same generator as the gnn_forward bench).
pub fn make_graph(n: usize, f: usize) -> FeatureGraph {
    let data: Vec<f32> = (0..n * f)
        .map(|i| ((i * 37) % 101) as f32 / 101.0)
        .collect();
    let mut g = FeatureGraph::new(Matrix::from_vec(n, f, data).unwrap());
    for head in (0..n).step_by(10) {
        for i in head + 1..(head + 10).min(n) {
            g.add_edge(head, i);
        }
        if head + 10 < n {
            g.add_edge(head, head + 10);
        }
    }
    g
}

/// Flash-crowd edge-overload scenario: a BE-heavy dual-space run with
/// the elastic cloud tier attached and an aggressive defrag cadence, so
/// the KubeDSM batch-migration pass fires on every other sync tick and
/// pods actually spill to the cloud. Shared by `bench_baseline` (which
/// stamps its wall time) and `perf_smoke` (which guards against it
/// regressing), so both price the same work.
pub fn edge_spill_cfg(clusters: usize) -> TangoConfig {
    let mut cfg = TangoConfig::dual_space(clusters);
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg.workload.be_rps = cfg.workload.be_rps.max(12.0 * clusters as f64);
    cfg.cloud = Some(CloudConfig::default());
    cfg.defrag = Some(DefragConfig {
        every_n_ticks: 2,
        max_moves: 16,
        hot_threshold: 0.5,
        cold_threshold: 0.35,
    });
    cfg
}

/// TD3 learner update microbench: one act/observe step with
/// `train_interval: 1`, so every iteration pays a full update round
/// (both critic regressions, the delayed actor/target rounds amortized
/// in) on a 64-node graph. The agent is primed past one batch before
/// timing starts. Shared by `bench_baseline` (which stamps the figure)
/// and `perf_smoke` (which guards it), so both price the same work.
pub fn td3_update_bench(min_time_ms: u64) -> Sample {
    let graph = make_graph(64, 8);
    let mask = vec![true; 64];
    let mut agent = Td3Agent::new(Td3Config {
        feature_dim: 8,
        train_interval: 1,
        seed: 11,
        ..Td3Config::default()
    });
    for _ in 0..40 {
        agent.act(&graph, &mask);
        agent.observe(0.5, &graph, &mask, false);
    }
    crate::microbench::run("td3_update/64x32", min_time_ms, || {
        agent.act(std::hint::black_box(&graph), &mask);
        agent.observe(std::hint::black_box(0.5), &graph, &mask, false);
        std::hint::black_box(agent.train_rounds)
    })
}

/// A `tango_full`-shaped BE pick: 183 candidate rows in 16 clusters,
/// 40% of them lacking the free CPU the 500 m / 256 MiB request needs.
fn dcg_be_rows() -> (Resources, Vec<CandidateNode>) {
    let demand = Resources::cpu_mem(500, 256);
    let mut rows = make_batch(183, 1).nodes.to_vec();
    for (i, c) in rows.iter_mut().enumerate() {
        c.cluster = ClusterId((i * 16 / 183) as u32);
        if i % 5 < 2 {
            c.available_be = Resources::cpu_mem(300, 4_096);
        }
    }
    (demand, rows)
}

/// DCG-BE decision microbench: `schedule` plus `feedback` over 183
/// candidate rows in 16 clusters, 40% of them infeasible (the shape of
/// a `tango_full` BE pick). One iteration is one whole `train_interval`
/// of decisions, so every iteration pays exactly one training round;
/// the agent is primed past its first round before timing starts.
/// Shared by `bench_baseline` and `perf_smoke` like
/// [`td3_update_bench`].
pub fn dcg_be_decision_bench(min_time_ms: u64) -> Sample {
    let (demand, rows) = dcg_be_rows();
    let cfg = DcgBeConfig::default();
    let interval = cfg.train_interval;
    let mut be = DcgBe::new(cfg);
    let mut decisions = || {
        for _ in 0..interval {
            std::hint::black_box(be.schedule(std::hint::black_box(&demand), &rows));
            be.feedback(0.5, &demand, &rows);
        }
    };
    decisions();
    crate::microbench::run(
        &format!("dcg_be_decision/183x{interval}"),
        min_time_ms,
        decisions,
    )
}

/// Replay-ring sampling microbench: a uniform 32-draw from a full
/// 4096-slot ring — the index-drawing and slot-copy machinery every
/// `td3_update` round pays before its batch. Fixed-size elements on
/// purpose: graph-bearing transitions would turn the row into an
/// allocator benchmark whose figure tracks process malloc state instead
/// of the sampling path (the full clone cost is already priced inside
/// `td3_update`). Shared by `bench_baseline` and `perf_smoke` like
/// [`td3_update_bench`].
pub fn replay_sample_bench(min_time_ms: u64) -> Sample {
    let mut ring: ReplayBuffer<[f32; 8]> = ReplayBuffer::new(4096);
    for i in 0..4096u32 {
        ring.push([i as f32; 8]);
    }
    let mut rng = SimRng::new(23);
    crate::microbench::run("replay_sample/4096x32", min_time_ms, || {
        std::hint::black_box(ring.sample(32, &mut rng))
    })
}

/// Short git revision stamped into bench JSON, resolved at bench
/// *runtime* (never baked into the binary — a stale build must not
/// re-stamp an old rev). Resolution order:
///
/// 1. `TANGO_GIT_REV` — explicit override, for stamping the rev the
///    result will be committed under (re-stamp workflows run the bench
///    before the commit exists) and for checkouts without `git`.
/// 2. `git rev-parse --short HEAD` of the current directory.
///
/// If neither resolves, this panics with instructions instead of
/// silently emitting a reusable placeholder: committed bench JSON that
/// does not say what it measured is worse than no JSON.
pub fn git_rev() -> String {
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
                "bench stamping could not resolve a git revision: run inside a \
                 git checkout or set TANGO_GIT_REV=<rev>"
            )
        })
}

/// Render one sample as a JSON object (no trailing delimiter).
/// Timing samples carry `wall_ns` (median ns per iteration) and
/// `rate_per_sec` (iterations of the scenario per second — ticks for the
/// system scenarios, solves/forwards for the micro ones); non-timing
/// samples carry `value` and `unit` instead, so a byte count never
/// masquerades as a latency.
pub fn sample_json(s: &Sample) -> String {
    if let Some((value, unit)) = s.metric {
        return format!(
            "{{\"scenario\": \"{}\", \"value\": {value:.0}, \"unit\": \"{unit}\"}}",
            s.name
        );
    }
    format!(
        "{{\"scenario\": \"{}\", \"wall_ns\": {:.0}, \"rate_per_sec\": {:.2}}}",
        s.name,
        s.ns_per_iter,
        s.iters_per_sec()
    )
}

/// Render a stamped result set: `threads` + `git_rev` + the samples.
/// (serde is unavailable offline; the schema is flat so hand-rolled
/// emission is adequate.)
pub fn to_json(samples: &[Sample]) -> String {
    // every sample is timed on the calling thread, one run at a time
    let mut s = format!(
        "{{\n  \"threads\": 1,\n  \"git_rev\": \"{}\",\n  \"samples\": [\n",
        git_rev()
    );
    for (i, smp) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {}{}\n",
            sample_json(smp),
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}");
    s
}

/// Write `json` to `out_path`, or print it when no path is given — the
/// shared tail of every bench binary's `main`.
pub fn emit(json: &str, out_path: Option<String>) {
    use std::io::Write as _;
    match out_path {
        Some(p) => {
            let mut f = std::fs::File::create(&p).expect("create output file");
            writeln!(f, "{json}").expect("write output file");
            eprintln!("wrote {p}");
        }
        None => println!("{json}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbench;

    #[test]
    fn generators_are_deterministic() {
        let ba = make_batch(10, 20);
        assert_eq!(ba.nodes.len(), 10);
        assert_eq!(ba.requests.len(), 20);
        let g = make_graph(50, 4);
        assert_eq!(g.features.rows, 50);
    }

    #[test]
    fn json_is_stamped() {
        let s = microbench::run("probe", 1, || 1 + 1);
        let j = to_json(std::slice::from_ref(&s));
        assert!(j.contains("\"threads\": 1"));
        assert!(j.contains("\"git_rev\""));
        assert!(j.contains("\"scenario\": \"probe\""));
        assert!(j.contains("\"rate_per_sec\""));
    }

    #[test]
    fn metric_samples_emit_value_and_unit_not_timings() {
        let m = Sample::metric("snap_size_bytes/16", 46809.0, "bytes");
        let j = sample_json(&m);
        assert_eq!(
            j,
            "{\"scenario\": \"snap_size_bytes/16\", \"value\": 46809, \"unit\": \"bytes\"}"
        );
        assert!(!j.contains("wall_ns"), "byte count stamped as a latency");
        assert!(!j.contains("rate_per_sec"));
    }

    #[test]
    fn dcg_be_rows_are_forty_percent_infeasible() {
        let (demand, rows) = dcg_be_rows();
        let masked = tango_sched::dcg_be::context_mask(&demand, &rows)
            .iter()
            .filter(|&&ok| !ok)
            .count();
        assert_eq!((rows.len(), masked), (183, 74));
    }

    #[test]
    fn edge_spill_cfg_attaches_cloud_and_defrag() {
        let cfg = edge_spill_cfg(16);
        assert!(cfg.cloud.is_some());
        assert!(cfg.defrag.is_some());
        assert!(cfg.workload.be_rps >= 12.0 * 16.0);
    }
}
