//! Train-mode episode hooks: run the system as one episode of an RL
//! training loop, carrying the learned BE policy across episodes.
//!
//! The training harness (`tango-train`) rebuilds a fresh
//! [`EdgeCloudSystem`] per episode from a generated scenario config —
//! queues empty, nodes clean, trace re-seeded — and threads exactly one
//! thing through: the BE scheduler's learner blob (network weights,
//! optimizer moments, RNG streams, replay ring). These hooks are that
//! thread: inject a blob before the episode, extract it after, and
//! variants of the run/finish drivers that hand the blob back alongside
//! the report.

use crate::report::RunReport;
use crate::snapshot::{Checkpoint, CheckpointPolicy, Resumed};
use crate::system::EdgeCloudSystem;
use tango_snap::SnapError;
use tango_types::SimTime;

impl EdgeCloudSystem {
    /// Overlay a BE policy blob captured by
    /// [`snapshot_be_policy`](Self::snapshot_be_policy) onto the freshly
    /// built scheduler — the episode-reset hook: everything else about the
    /// system starts clean, the learner continues where it left off.
    pub fn restore_be_policy(&mut self, blob: &[u8]) -> Result<(), SnapError> {
        self.dispatch
            .be
            .restore_state(blob)
            .map_err(SnapError::Unsupported)
    }

    /// The BE policy's complete learner state.
    pub fn snapshot_be_policy(&self) -> Result<Vec<u8>, SnapError> {
        self.dispatch
            .be
            .snapshot_state()
            .map_err(SnapError::Unsupported)
    }

    /// Run one training episode: like [`run`](Self::run), but hand back
    /// the BE policy blob as trained by this episode's traffic.
    pub fn run_episode(
        mut self,
        duration: SimTime,
        label: &str,
    ) -> Result<(RunReport, Vec<u8>), SnapError> {
        self.run_inner(duration);
        let blob = self.snapshot_be_policy()?;
        Ok((self.finish(label), blob))
    }

    /// Run one training episode with mid-episode whole-world checkpoints
    /// (same cadence contract as
    /// [`run_checkpointed`](Self::run_checkpointed)): returns the report,
    /// the trained BE policy blob, and the retained checkpoints. Each
    /// checkpoint embeds the policy blob via the dispatch section, so
    /// restoring one resumes training mid-episode bit-identically.
    pub fn run_episode_checkpointed(
        mut self,
        duration: SimTime,
        label: &str,
        policy: CheckpointPolicy,
    ) -> Result<(RunReport, Vec<u8>, Vec<Checkpoint>), SnapError> {
        let checkpoints = self.run_inner_checkpointed(duration, policy)?;
        let blob = self.snapshot_be_policy()?;
        Ok((self.finish(label), blob, checkpoints))
    }
}

impl Resumed {
    /// Finish a restored episode and hand back the BE policy blob along
    /// with the report — the resume path of
    /// [`EdgeCloudSystem::run_episode_checkpointed`].
    pub fn finish_episode(mut self, label: &str) -> Result<(RunReport, Vec<u8>), SnapError> {
        self.run_to(self.horizon());
        let blob = self.sys.snapshot_be_policy()?;
        Ok((self.finish(label), blob))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{testutil::small_cfg, BePolicy};

    fn train_cfg() -> crate::config::TangoConfig {
        let mut cfg = small_cfg();
        cfg.be_policy = BePolicy::Td3;
        cfg.workload.be_rps = 8.0;
        cfg
    }

    #[test]
    fn blob_thread_reproduces_continuous_run() {
        // two half-duration episodes threading the blob must leave the
        // learner in a deterministic state: repeating the same pair of
        // episodes yields byte-identical blobs
        let d = SimTime::from_secs(1);
        let run_pair = || {
            let (_, blob1) = EdgeCloudSystem::new(train_cfg())
                .run_episode(d, "ep1")
                .unwrap();
            let mut sys2 = EdgeCloudSystem::new(train_cfg());
            sys2.restore_be_policy(&blob1).unwrap();
            let (report, blob2) = sys2.run_episode(d, "ep2").unwrap();
            (report.digest(), blob2)
        };
        let (da, ba) = run_pair();
        let (db, bb) = run_pair();
        assert_eq!(da, db);
        assert_eq!(ba, bb);
    }

    #[test]
    fn mid_episode_checkpoint_resumes_to_same_blob() {
        let d = SimTime::from_secs(2);
        let (report, blob, checkpoints) = EdgeCloudSystem::new(train_cfg())
            .run_episode_checkpointed(d, "ep", CheckpointPolicy::default())
            .unwrap();
        assert!(!checkpoints.is_empty());
        let mid = &checkpoints[checkpoints.len() / 2];
        let resumed = EdgeCloudSystem::restore(train_cfg(), &mid.bytes).unwrap();
        let (r2, blob2) = resumed.finish_episode("ep").unwrap();
        assert_eq!(r2.digest(), report.digest());
        assert_eq!(blob2, blob);
    }
}
