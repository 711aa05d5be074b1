//! The four benchmark workloads: configuration, horizon, and how a run is
//! carried out.
//!
//! Every input derives from one seed: `cfg.seed` seeds the topology, the
//! worker draw and the open-loop Poisson trace (arrivals are scheduled in
//! simulated time, so host speed never feeds back into the load), and the
//! churn plan's seed is derived from it.

use tango::{
    CheckpointPolicy, EdgeCloudSystem, FaultPlan, RunAudit, RunReport, SnapError, TangoConfig,
};
use tango_ctrl::MirrorHandle;
use tango_types::SimTime;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The ~1000-node paper-scale preset in calm weather.
    PaperCalm,
    /// The paper's own system: DSS-LC + DCG-BE (GraphSAGE + A2C) + HRM.
    TangoFull,
    /// `PaperCalm`'s layout and trace plus keep-alive detection and churn.
    Churn1k,
    /// Cloud spill with KubeDSM defrag, a state mirror and checkpoints.
    SpillCkpt,
}

/// Checkpoint cadence of `spill_ckpt`: every 5 sync ticks, last 2 kept.
pub const CHECKPOINTS: CheckpointPolicy = CheckpointPolicy {
    every_n_ticks: 5,
    keep_last_k: 2,
};

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperCalm,
        Workload::TangoFull,
        Workload::Churn1k,
        Workload::SpillCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCalm => "paper_calm",
            Workload::TangoFull => "tango_full",
            Workload::Churn1k => "churn_1k",
            Workload::SpillCkpt => "spill_ckpt",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated horizon of one run.
    pub fn horizon(self) -> SimTime {
        match self {
            Workload::PaperCalm => SimTime::from_secs(2),
            // BE work takes seconds to finish: a shorter horizon would
            // leave BE throughput resting on a few dozen completions
            Workload::TangoFull => SimTime::from_secs(2),
            Workload::Churn1k => SimTime::from_secs(2),
            Workload::SpillCkpt => SimTime::from_secs(10),
        }
    }

    /// Seeds pooled into one measurement (see [`sub_seeds`]): as many as
    /// a 25 s budget holds, so that the pooled figures move little from
    /// one `--seed` to the next. `paper_calm` and `spill_ckpt` run each
    /// seed about 3 times in that budget, `churn_1k` and `tango_full` once.
    pub fn pool(self) -> usize {
        match self {
            Workload::PaperCalm => 8,
            Workload::TangoFull => 3,
            Workload::Churn1k => 10,
            Workload::SpillCkpt => 12,
        }
    }

    /// `spill_ckpt` attaches a state mirror and runs checkpointed; every
    /// other workload runs audited with nothing attached.
    pub fn checkpointed(self) -> bool {
        self == Workload::SpillCkpt
    }

    /// The workload's configuration for `seed`, pinned to `threads`
    /// worker threads.
    pub fn config(self, seed: u64, threads: usize) -> TangoConfig {
        let mut cfg = match self {
            Workload::PaperCalm => TangoConfig::paper_scale(),
            Workload::TangoFull => TangoConfig::dual_space(16),
            Workload::Churn1k => {
                let mut cfg = TangoConfig::paper_scale();
                cfg.detection = Some(Default::default());
                cfg.faults = FaultPlan::default().node_churn(
                    SimTime::from_secs(2),
                    SimTime::from_millis(500),
                    seed ^ 0xC4012,
                );
                cfg
            }
            Workload::SpillCkpt => tango_bench::scenarios::edge_spill_cfg(16),
        };
        cfg.seed = seed;
        cfg.parallelism = Some(threads);
        cfg
    }

    /// Build the system, attaching a mirror where the workload has one.
    pub fn build(self, cfg: TangoConfig) -> (EdgeCloudSystem, Option<MirrorHandle>) {
        let mut sys = EdgeCloudSystem::new(cfg);
        let mirror = self.checkpointed().then(|| sys.attach_mirror());
        (sys, mirror)
    }
}

/// The `k` seeds one measurement pools: `seed` itself first, then seeds
/// spread by the golden-ratio increment, so neighbouring `--seed` values
/// share none.
pub fn sub_seeds(seed: u64, k: usize) -> Vec<u64> {
    (0..k as u64)
        .map(|i| seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// Run `sys` to `horizon`, checkpointed (no audit) or audited.
pub fn drive(
    sys: EdgeCloudSystem,
    horizon: SimTime,
    checkpointed: bool,
) -> Result<(RunReport, Option<RunAudit>), SnapError> {
    if checkpointed {
        let (report, _checkpoints) = sys.run_checkpointed(horizon, "bench", CHECKPOINTS)?;
        Ok((report, None))
    } else {
        let (report, audit) = sys.run_audited(horizon, "bench");
        Ok((report, Some(audit)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_pooled_seed_is_the_seed_and_neighbours_share_none() {
        let a = sub_seeds(7, 4);
        let b = sub_seeds(8, 4);
        assert_eq!(a[0], 7);
        assert!(a.iter().all(|s| !b.contains(s)));
    }
}
