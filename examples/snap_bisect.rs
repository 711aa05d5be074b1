//! Record/replay divergence bisection over per-tick snapshots.
//!
//! Two runs of the same configuration must be bit-identical — that is the
//! determinism contract every scheduler and substrate in this repo keeps.
//! When the contract breaks (a nondeterministic map iteration, an
//! unseeded RNG, a dependence on hash order), the final `RunReport::digest`
//! tells you *that* the runs diverged but not *when*. This tool finds the
//! first tick at which they diverge:
//!
//! 1. **Record**: run scenario A, snapshotting at every sync tick, and
//!    keep an FNV-1a digest of each snapshot's bytes.
//! 2. **Replay**: run B — a second run of the same config — the same
//!    way, then restore B's mid-run checkpoint and re-snapshot tick by
//!    tick from there (the record/replay path).
//! 3. **Bisect**: compare the per-tick digest streams and report the
//!    first tick where they disagree, or confirm bit-identity.
//!
//! Usage: `cargo run --release --example snap_bisect [calm|churn]`
//! (default: `calm`).

use tango::{
    BePolicy, Checkpoint, CheckpointPolicy, EdgeCloudSystem, FaultPlan, LcPolicy, NodeRef,
    TangoConfig,
};
use tango_snap::fnv1a;
use tango_types::{ClusterId, SimTime};

const DURATION: SimTime = SimTime::from_secs(5);

fn scenario(name: &str) -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed();
    cfg.clusters = 2;
    cfg.topology.clusters = 2;
    cfg.workload.lc_rps = 30.0;
    cfg.workload.be_rps = 4.0;
    cfg.lc_policy = LcPolicy::DssLc;
    cfg.be_policy = BePolicy::LoadGreedy;
    if name == "churn" {
        cfg.faults = FaultPlan::new()
            .crash_for(
                SimTime::from_millis(900),
                NodeRef::Worker {
                    cluster: ClusterId(0),
                    index: 1,
                },
                SimTime::from_millis(1_400),
            )
            .degrade_link_for(
                SimTime::from_millis(1_200),
                ClusterId(0),
                ClusterId(1),
                3.0,
                4.0,
                SimTime::from_millis(1_400),
            );
    }
    cfg
}

/// Run with a snapshot at every sync tick; return the final report digest
/// and the per-tick checkpoints.
fn record(cfg: TangoConfig, label: &str) -> (u64, Vec<Checkpoint>) {
    let policy = CheckpointPolicy {
        every_n_ticks: 1,
        keep_last_k: 0,
    };
    let (report, checkpoints) = EdgeCloudSystem::new(cfg)
        .run_checkpointed(DURATION, label, policy)
        .expect("scenario policies are snapshottable");
    (report.digest(), checkpoints)
}

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "calm".to_string());
    let cfg = scenario(&name);

    println!("scenario {name}: runs A and B of one config");
    let (digest_a, ticks_a) = record(cfg.clone(), "bisect-a");
    let (digest_b, ticks_b) = record(cfg.clone(), "bisect-b");
    println!(
        "run A final digest: {digest_a:#018x} ({} ticks)",
        ticks_a.len()
    );
    println!(
        "run B final digest: {digest_b:#018x} ({} ticks)",
        ticks_b.len()
    );

    // bisect: first tick whose snapshot bytes disagree
    let mut diverged_at = None;
    for (a, b) in ticks_a.iter().zip(&ticks_b) {
        assert_eq!(a.at, b.at, "tick grids must line up");
        if fnv1a(&a.bytes) != fnv1a(&b.bytes) {
            diverged_at = Some(a.at);
            break;
        }
    }
    match diverged_at {
        Some(at) => {
            println!("state diverges at tick t={at} — the regression is in the events of the tick ending there");
            std::process::exit(1);
        }
        None => println!(
            "all {} per-tick snapshots are bit-identical across the two runs",
            ticks_a.len().min(ticks_b.len())
        ),
    }

    // replay: restore B's mid-run checkpoint and re-snapshot tick by
    // tick; every digest must rejoin the recorded stream
    let mid = ticks_b.len() / 2;
    let mut resumed =
        EdgeCloudSystem::restore(cfg, &ticks_b[mid].bytes).expect("restore mid-run checkpoint");
    let mut replay_divergence = None;
    for original in &ticks_b[mid + 1..] {
        resumed.run_to(original.at);
        let replayed = resumed.snapshot().expect("re-snapshot");
        if fnv1a(&replayed) != fnv1a(&original.bytes) {
            replay_divergence = Some(original.at);
            break;
        }
    }
    match replay_divergence {
        Some(at) => {
            println!("replay diverges from the recording at tick t={at}");
            std::process::exit(1);
        }
        None => {
            let final_digest = resumed.finish("bisect-b").digest();
            println!(
                "replay from t={} is bit-identical through every remaining tick; \
                 final digest {final_digest:#018x} matches: {}",
                ticks_b[mid].at,
                final_digest == digest_b
            );
        }
    }
}
