//! Thread-count sweep over the parallel-sensitive scenarios.
//!
//! Runs `gnn_forward/sage/4000`, `system_tick/16` and
//! `dispatch_heavy/6` at 1, 2, 4 and 8 worker threads and writes the whole
//! sweep as one JSON document (`BENCH_parallel.json` in CI usage). The
//! work is bit-identical at every thread count — the deterministic-
//! parallelism contract of `tango-par` — so the sweep measures pure
//! scheduling overhead and speedup.
//!
//! Usage: `bench_parallel [out.json]`. Note: setting `TANGO_THREADS`
//! wins over the per-sweep thread count for the system scenario (env
//! beats config in `tango_par::resolve`), so leave it unset when
//! sweeping.

use std::hint::black_box;
use tango::{BePolicy, EdgeCloudSystem, TangoConfig};
use tango_bench::microbench::{self, Sample};
use tango_bench::scenarios::{emit, make_graph, sweep_json};
use tango_gnn::{Encoder, EncoderKind, GnnEncoder};
use tango_types::SimTime;

fn sweep(threads: usize) -> Vec<Sample> {
    tango_par::set_threads(threads);
    let mut out = Vec::new();

    let graph = make_graph(4000, 8);
    let mut enc = GnnEncoder::paper_shape(EncoderKind::Sage { p: 3 }, 8, 32, 16, 5);
    out.push(microbench::run("gnn_forward/sage/4000", 300, || {
        black_box(enc.forward(black_box(&graph)))
    }));

    out.push(microbench::run("system_tick/16", 1_000, || {
        let mut cfg = TangoConfig::dual_space(16);
        cfg.be_policy = BePolicy::LoadGreedy;
        cfg.parallelism = Some(threads);
        let report = EdgeCloudSystem::new(cfg).run(SimTime::from_secs(1), "bench");
        black_box(report.lc_arrived)
    }));

    // Dispatch-heavy: high arrival rate over a 6-cluster metro region, so
    // most of the tick is the two-phase dispatch plane (wave formation +
    // parallel plan + sequential commit) — the scenario where dispatch-
    // phase threading shows up, as opposed to the sync-loop-dominated
    // scaled ticks above.
    out.push(microbench::run("dispatch_heavy/6", 1_000, || {
        let mut cfg = TangoConfig::physical_testbed();
        cfg.clusters = 6;
        cfg.topology.clusters = 6;
        cfg.workload.lc_rps = 900.0;
        cfg.workload.be_rps = 90.0;
        cfg.be_policy = BePolicy::LoadGreedy;
        cfg.parallelism = Some(threads);
        let report = EdgeCloudSystem::new(cfg).run(SimTime::from_secs(1), "bench");
        black_box(report.lc_arrived)
    }));

    out
}

fn main() {
    let out_path = std::env::args().nth(1);
    let mut sweeps: Vec<(usize, Vec<Sample>)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        eprintln!("-- threads = {threads} --");
        let samples = sweep(threads);
        for s in &samples {
            microbench::report(s);
        }
        sweeps.push((threads, samples));
    }
    let json = sweep_json(
        &sweeps,
        "work is bit-identical at every thread count; speedup over threads=1 requires host_cores > 1, otherwise the sweep measures pure spawn/join overhead",
    );
    emit(&json, out_path);
}
