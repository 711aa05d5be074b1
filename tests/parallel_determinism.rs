//! Regression tests for the tango-par determinism contract: every
//! parallel code path must produce bit-identical results at any thread
//! count. Each test runs the same seeded workload single-threaded and at
//! four workers and asserts exact equality — floats compared bitwise,
//! not approximately.

use std::sync::Mutex;
use tango::{BePolicy, EdgeCloudSystem, LcPolicy, RunReport, TangoConfig};
use tango_gnn::{Encoder, EncoderKind, FeatureGraph, GnnEncoder};
use tango_nn::Matrix;
use tango_types::SimTime;

/// Serializes tests that flip the process-global thread count.
static GLOBAL_THREADS: Mutex<()> = Mutex::new(());

#[test]
fn gnn_forward_is_bitwise_identical_across_thread_counts() {
    let _guard = GLOBAL_THREADS.lock().unwrap();
    let saved = tango_par::threads();

    let n = 600;
    let f = 8;
    let data: Vec<f32> = (0..n * f).map(|i| ((i * 53) % 97) as f32 / 97.0).collect();
    let mut graph = FeatureGraph::new(Matrix::from_vec(n, f, data).unwrap());
    for i in 0..n - 1 {
        graph.add_edge(i, i + 1);
        if i % 7 == 0 && i + 9 < n {
            graph.add_edge(i, i + 9);
        }
    }

    for kind in [
        EncoderKind::Sage { p: 3 },
        EncoderKind::Gcn,
        EncoderKind::Gat,
        EncoderKind::Native,
    ] {
        let run = |threads: usize| {
            tango_par::set_threads(threads);
            GnnEncoder::paper_shape(kind, f, 32, 16, 5).forward(&graph)
        };
        let out_1 = run(1);
        let out_4 = run(4);
        assert_eq!(out_1.rows, out_4.rows);
        assert_eq!(out_1.cols, out_4.cols);
        // bitwise equality, not approximate: determinism is exact
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out_1), bits(&out_4), "{kind:?} diverged");
    }

    tango_par::set_threads(saved);
}

fn run_system(threads: usize) -> RunReport {
    let mut cfg = TangoConfig::dual_space(3);
    cfg.lc_policy = LcPolicy::DssLc;
    cfg.be_policy = BePolicy::LoadGreedy;
    cfg.workload.lc_rps = 120.0;
    cfg.workload.be_rps = 15.0;
    cfg.parallelism = Some(threads);
    EdgeCloudSystem::new(cfg).run(SimTime::from_secs(5), "determinism")
}

#[test]
fn end_to_end_metrics_are_identical_across_thread_counts() {
    let a = run_system(1);
    let b = run_system(4);
    assert!(a.lc_arrived > 100, "workload too small to be meaningful");
    assert_eq!(a.lc_arrived, b.lc_arrived);
    assert_eq!(a.lc_completed, b.lc_completed);
    assert_eq!(a.be_throughput, b.be_throughput);
    assert_eq!(a.abandoned, b.abandoned);
    assert_eq!(a.dvpa_ops, b.dvpa_ops);
    assert_eq!(a.be_evictions, b.be_evictions);
    // float metrics must also agree exactly — same arithmetic, same order
    assert_eq!(a.qos_satisfaction.to_bits(), b.qos_satisfaction.to_bits());
    assert_eq!(a.mean_utilization.to_bits(), b.mean_utilization.to_bits());
    assert_eq!(a.lc_p95_ms.to_bits(), b.lc_p95_ms.to_bits());
    assert_eq!(a.periods.len(), b.periods.len());
}
