//! DSS-LC planning bench (§7.2 text: "1.99 ms for a node size of 500
//! and 3.98 ms for a node size of 1000").
//!
//! It times `plan` over a batch whose delay order is already built, as a
//! dispatch round's batch arrives from the candidate-view cache. The
//! paper's figure prices a decision from a fresh candidate set, which
//! also sorts that order: `figures dss_scaling` times that one.

use std::hint::black_box;
use tango_bench::microbench;
use tango_bench::scenarios::make_batch;
use tango_sched::DssLc;

fn main() {
    for &n in &[100usize, 500, 1000] {
        // paper-like regime: pending ≈ 2× instantaneous capacity, so both
        // the immediate and the λ-augmented overflow phases run
        let batch = make_batch(n, n as u64 * 2);
        let mut sched = DssLc::new(7);
        let s = microbench::run(&format!("dss_lc_decision/{n}"), 300, || {
            black_box(sched.plan(black_box(&batch)))
        });
        microbench::report(&s);
    }
}
