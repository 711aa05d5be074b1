//! Deterministic, resumable RL training harness (the "tango-train"
//! subsystem).
//!
//! [`TrainHarness`] drives [`EdgeCloudSystem`] episodes through a seeded
//! scenario generator: each episode rebuilds the world from a perturbed
//! config (fresh trace seed, jittered arrival rates) while the BE
//! scheduler's learner state — network weights, Adam moments, RNG
//! streams, the replay ring — threads through via the policy blob, so
//! the agent trains *across* episodes. Gradient updates happen inside
//! the agent on its own fixed cadence (`train_interval` transitions);
//! the harness's job is episode orchestration, evaluation folding and
//! checkpointing.
//!
//! # Checkpoint layout
//!
//! A train checkpoint is a sealed `tango-snap` container (the same
//! magic/version/fingerprint/checksum framing as a system snapshot)
//! holding:
//!
//! | section | contents |
//! |---|---|
//! | meta    | next episode index, eval digest, per-episode records |
//! | rng     | the scenario generator's RNG state |
//! | agent   | the BE policy blob at the episode boundary |
//! | world   | (mid-episode only) a full system snapshot |
//!
//! Episode-boundary checkpoints restore by reloading the harness state.
//! Mid-episode checkpoints additionally embed the whole simulator
//! snapshot; [`TrainHarness::resume`] regenerates the in-flight
//! episode's scenario from the stored RNG state, restores the world onto
//! it and finishes the episode on the next [`step`](TrainHarness::step).
//! Either way a killed run resumes **bit-identically**: the final agent
//! blob and the eval digest match the uninterrupted run at any thread
//! count.

use tango::{
    config_fingerprint, CheckpointPolicy, EdgeCloudSystem, Resumed, RunReport, SnapError,
    TangoConfig,
};
use tango_simcore::SimRng;
use tango_snap::{
    fnv1a, fnv1a_extend, snap_record, SnapDecode, SnapEncode, SnapFile, SnapFileBuilder,
};
use tango_types::SimTime;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Base system config; `be_policy` should be a learning policy
    /// (Td3, GnnSac, DcgBe) for training to mean anything.
    pub base: TangoConfig,
    /// Total episodes to run.
    pub episodes: usize,
    /// Simulated duration of one episode.
    pub episode_duration: SimTime,
    /// Emit an episode-boundary checkpoint every N completed episodes
    /// (0 = none).
    pub checkpoint_every: usize,
    /// Also take whole-world checkpoints *inside* each episode at this
    /// sync-tick cadence (None = episode boundaries only).
    pub mid_episode: Option<CheckpointPolicy>,
    /// Scenario-generator seed (independent of `base.seed`).
    pub seed: u64,
    /// Per-episode arrival-rate jitter: rates scale uniformly in
    /// `[1-j, 1+j]`. Zero = identical traffic shape, fresh trace seed.
    pub rate_jitter: f64,
}

impl TrainConfig {
    /// A harness over `base` with paper-ish defaults: 4 episodes of 2 s,
    /// boundary checkpoints each episode, ±20% rate jitter.
    pub fn new(base: TangoConfig) -> Self {
        TrainConfig {
            base,
            episodes: 4,
            episode_duration: SimTime::from_secs(2),
            checkpoint_every: 1,
            mid_episode: None,
            seed: 1701,
            rate_jitter: 0.2,
        }
    }
}

/// Outcome of one completed episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeRecord {
    /// Episode index (0-based).
    pub episode: u64,
    /// The episode's [`RunReport::digest`].
    pub digest: u64,
    /// QoS satisfaction rate.
    pub qos: f64,
    /// BE throughput (completed requests).
    pub be_throughput: u64,
    /// Mean node utilization.
    pub utilization: f64,
}

snap_record!(EpisodeRecord {
    episode,
    digest,
    qos,
    be_throughput,
    utilization,
});

/// Final result of a training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Episodes completed.
    pub episodes: usize,
    /// FNV-1a fold over every episode's report digest — the whole run's
    /// behavioral fingerprint.
    pub eval_digest: u64,
    /// Per-episode records, in order.
    pub records: Vec<EpisodeRecord>,
    /// The trained BE policy blob (empty if no episode ran).
    pub agent_blob: Vec<u8>,
}

// Train-checkpoint section tags (independent of the system snapshot's).
const SEC_T_META: u32 = 101;
const SEC_T_RNG: u32 = 102;
const SEC_T_AGENT: u32 = 103;
const SEC_T_WORLD: u32 = 104;

fn harness_fingerprint(cfg: &TrainConfig) -> u64 {
    let mut h = config_fingerprint(&cfg.base);
    h = fnv1a_extend(h, &(cfg.episodes as u64).to_le_bytes());
    h = fnv1a_extend(h, &cfg.episode_duration.as_micros().to_le_bytes());
    h = fnv1a_extend(h, &cfg.seed.to_le_bytes());
    h = fnv1a_extend(h, &cfg.rate_jitter.to_bits().to_le_bytes());
    h
}

/// An episode restored mid-flight from a world-bearing checkpoint.
struct PendingEpisode {
    resumed: Resumed,
}

/// The training loop. See the crate docs for the contract.
pub struct TrainHarness {
    cfg: TrainConfig,
    rng: SimRng,
    next_episode: usize,
    agent_blob: Option<Vec<u8>>,
    eval_digest: u64,
    records: Vec<EpisodeRecord>,
    pending: Option<PendingEpisode>,
}

impl TrainHarness {
    /// Fresh harness at episode 0.
    pub fn new(cfg: TrainConfig) -> Self {
        let rng = SimRng::new(cfg.seed);
        TrainHarness {
            cfg,
            rng,
            next_episode: 0,
            agent_blob: None,
            eval_digest: fnv1a(b"tango-train"),
            records: Vec::new(),
            pending: None,
        }
    }

    /// Episodes completed so far.
    pub fn episodes_completed(&self) -> usize {
        self.next_episode
    }

    /// Running FNV fold over episode report digests.
    pub fn eval_digest(&self) -> u64 {
        self.eval_digest
    }

    /// The current agent blob (None before the first episode completes).
    pub fn agent_blob(&self) -> Option<&[u8]> {
        self.agent_blob.as_deref()
    }

    /// Per-episode records, in order.
    pub fn records(&self) -> &[EpisodeRecord] {
        &self.records
    }

    /// Generate the next episode's scenario, advancing the generator
    /// stream: a fresh trace seed and (optionally) jittered rates on top
    /// of the base config.
    fn scenario(&mut self) -> TangoConfig {
        let mut cfg = self.cfg.base.clone();
        cfg.seed = self.rng.next_u64();
        let j = self.cfg.rate_jitter;
        if j > 0.0 {
            cfg.workload.lc_rps *= self.rng.range_f64(1.0 - j, 1.0 + j);
            cfg.workload.be_rps *= self.rng.range_f64(1.0 - j, 1.0 + j);
        }
        cfg
    }

    fn fold(&mut self, report: &RunReport) {
        let episode = self.next_episode as u64;
        let rec = EpisodeRecord {
            episode,
            digest: report.digest(),
            qos: report.qos_satisfaction,
            be_throughput: report.be_throughput,
            utilization: report.mean_utilization,
        };
        self.eval_digest = fnv1a_extend(self.eval_digest, &rec.digest.to_le_bytes());
        self.records.push(rec);
        self.next_episode += 1;
    }

    /// Run one episode, emitting any produced checkpoints through
    /// `on_checkpoint` (mid-episode world checkpoints when configured,
    /// plus the boundary checkpoint on the `checkpoint_every` cadence).
    /// Returns the completed episode's record.
    pub fn step<F: FnMut(&[u8])>(
        &mut self,
        on_checkpoint: &mut F,
    ) -> Result<EpisodeRecord, SnapError> {
        assert!(
            self.next_episode < self.cfg.episodes,
            "all {} episodes already ran",
            self.cfg.episodes
        );
        let label = "train";
        let (report, blob) = if let Some(p) = self.pending.take() {
            p.resumed.finish_episode(label)?
        } else {
            let pre_rng = self.rng.state();
            let scen = self.scenario();
            let mut sys = EdgeCloudSystem::new(scen);
            if let Some(blob) = &self.agent_blob {
                sys.restore_be_policy(blob)?;
            }
            match self.cfg.mid_episode {
                Some(policy) => {
                    let (report, blob, cps) =
                        sys.run_episode_checkpointed(self.cfg.episode_duration, label, policy)?;
                    for cp in &cps {
                        on_checkpoint(&self.encode_checkpoint(pre_rng, Some(&cp.bytes)));
                    }
                    (report, blob)
                }
                None => sys.run_episode(self.cfg.episode_duration, label)?,
            }
        };
        self.agent_blob = Some(blob);
        self.fold(&report);
        let every = self.cfg.checkpoint_every;
        if every > 0 && self.next_episode.is_multiple_of(every) {
            on_checkpoint(&self.checkpoint());
        }
        Ok(self.records.last().expect("just pushed").clone())
    }

    /// Run all remaining episodes, discarding checkpoint bytes (the
    /// caller keeps determinism: re-running from any emitted checkpoint
    /// reproduces this outcome).
    pub fn run(&mut self) -> Result<TrainOutcome, SnapError> {
        self.run_with(|_| {})
    }

    /// Run all remaining episodes, streaming every checkpoint to `f`.
    pub fn run_with<F: FnMut(&[u8])>(&mut self, mut f: F) -> Result<TrainOutcome, SnapError> {
        while self.next_episode < self.cfg.episodes {
            self.step(&mut f)?;
        }
        Ok(self.outcome())
    }

    /// The outcome so far.
    pub fn outcome(&self) -> TrainOutcome {
        TrainOutcome {
            episodes: self.next_episode,
            eval_digest: self.eval_digest,
            records: self.records.clone(),
            agent_blob: self.agent_blob.clone().unwrap_or_default(),
        }
    }

    /// Sealed episode-boundary checkpoint of the harness state.
    pub fn checkpoint(&self) -> Vec<u8> {
        self.encode_checkpoint(self.rng.state(), None)
    }

    /// Encode a checkpoint. `rng_state` is the scenario stream position
    /// the restore should start from: the current state at a boundary,
    /// the *pre-draw* state when `world` carries an in-flight episode
    /// (so resume can regenerate the same scenario).
    fn encode_checkpoint(&self, rng_state: [u64; 4], world: Option<&[u8]>) -> Vec<u8> {
        let mut b = SnapFileBuilder::new(harness_fingerprint(&self.cfg));
        // a world checkpoint describes the state *before* the in-flight
        // episode folded its record
        b.section(SEC_T_META, |w| {
            w.put_u64(self.next_episode as u64);
            w.put_u64(self.eval_digest);
            self.records.encode(w);
        });
        b.section(SEC_T_RNG, |w| rng_state.encode(w));
        b.section(SEC_T_AGENT, |w| self.agent_blob.encode(w));
        b.section(SEC_T_WORLD, |w| world.encode(w));
        b.seal()
    }

    /// Restore a harness from checkpoint bytes. `cfg` must match the
    /// configuration the checkpoint was taken under (fingerprint-checked,
    /// thread count masked). Continue with [`step`](Self::step) /
    /// [`run`](Self::run).
    pub fn resume(cfg: TrainConfig, bytes: &[u8]) -> Result<Self, SnapError> {
        let file = SnapFile::parse(bytes)?;
        let expected = harness_fingerprint(&cfg);
        if file.fingerprint != expected {
            return Err(SnapError::ConfigMismatch {
                found: file.fingerprint,
                expected,
            });
        }

        let mut r = file.section(SEC_T_META, "train meta section")?;
        let next_episode = r.u64()? as usize;
        let eval_digest = r.u64()?;
        let records = Vec::<EpisodeRecord>::decode(&mut r)?;
        if records.len() != next_episode {
            return Err(SnapError::Corrupt("train record count"));
        }

        let mut r = file.section(SEC_T_RNG, "train rng section")?;
        let state = SnapDecode::decode(&mut r)?;

        let mut r = file.section(SEC_T_AGENT, "train agent section")?;
        let agent_blob = Option::<Vec<u8>>::decode(&mut r)?;

        let mut r = file.section(SEC_T_WORLD, "train world section")?;
        let world = Option::<Vec<u8>>::decode(&mut r)?;

        let mut harness = TrainHarness {
            cfg,
            rng: SimRng::from_state(state),
            next_episode,
            agent_blob,
            eval_digest,
            records,
            pending: None,
        };
        if let Some(world) = world {
            // the stored RNG state is pre-draw: regenerate the in-flight
            // episode's scenario, then overlay the world snapshot
            let scen = harness.scenario();
            let resumed = EdgeCloudSystem::restore(scen, &world)?;
            harness.pending = Some(PendingEpisode { resumed });
        }
        Ok(harness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango::BePolicy;

    fn small_base() -> TangoConfig {
        let mut cfg = TangoConfig::physical_testbed();
        cfg.clusters = 2;
        cfg.topology.clusters = 2;
        cfg.workload.lc_rps = 20.0;
        cfg.workload.be_rps = 8.0;
        cfg.be_policy = BePolicy::Td3;
        cfg
    }

    fn small_train() -> TrainConfig {
        TrainConfig {
            episodes: 3,
            episode_duration: SimTime::from_secs(1),
            ..TrainConfig::new(small_base())
        }
    }

    #[test]
    fn training_is_deterministic() {
        let a = TrainHarness::new(small_train()).run().unwrap();
        let b = TrainHarness::new(small_train()).run().unwrap();
        assert_eq!(a.eval_digest, b.eval_digest);
        assert_eq!(a.agent_blob, b.agent_blob);
        assert_eq!(a.records, b.records);
        assert_eq!(a.episodes, 3);
        assert!(!a.agent_blob.is_empty());
    }

    #[test]
    fn scenarios_differ_across_episodes() {
        let out = TrainHarness::new(small_train()).run().unwrap();
        // jittered traffic ⇒ distinct per-episode digests
        assert_ne!(out.records[0].digest, out.records[1].digest);
    }

    #[test]
    fn boundary_resume_is_bit_identical() {
        let full = TrainHarness::new(small_train()).run().unwrap();
        // run one episode, checkpoint, resume, run the rest
        let mut h = TrainHarness::new(small_train());
        h.step(&mut |_| {}).unwrap();
        let cp = h.checkpoint();
        let mut resumed = TrainHarness::resume(small_train(), &cp).unwrap();
        assert_eq!(resumed.episodes_completed(), 1);
        let out = resumed.run().unwrap();
        assert_eq!(out.eval_digest, full.eval_digest);
        assert_eq!(out.agent_blob, full.agent_blob);
    }

    #[test]
    fn mid_episode_resume_is_bit_identical() {
        let mut cfg = small_train();
        cfg.mid_episode = Some(CheckpointPolicy {
            every_n_ticks: 4,
            keep_last_k: 0,
        });
        let full = TrainHarness::new(cfg.clone()).run().unwrap();
        // capture a checkpoint from inside episode 1
        let mut h = TrainHarness::new(cfg.clone());
        let mut seen: Vec<Vec<u8>> = Vec::new();
        h.step(&mut |_| {}).unwrap();
        h.step(&mut |cp| seen.push(cp.to_vec())).unwrap();
        assert!(seen.len() >= 2, "expected mid-episode checkpoints");
        // second-to-last world checkpoint: genuinely mid-episode
        let mid = &seen[seen.len() - 2];
        let mut resumed = TrainHarness::resume(cfg, mid).unwrap();
        assert_eq!(
            resumed.episodes_completed(),
            1,
            "world checkpoint is pre-fold"
        );
        let out = resumed.run().unwrap();
        assert_eq!(out.eval_digest, full.eval_digest);
        assert_eq!(out.agent_blob, full.agent_blob);
    }

    #[test]
    fn wrong_config_and_corruption_are_rejected() {
        let mut h = TrainHarness::new(small_train());
        h.step(&mut |_| {}).unwrap();
        let cp = h.checkpoint();
        let mut other = small_train();
        other.seed ^= 1;
        assert!(matches!(
            TrainHarness::resume(other, &cp),
            Err(SnapError::ConfigMismatch { .. })
        ));
        assert!(TrainHarness::resume(small_train(), &cp[..cp.len() - 2]).is_err());
        let mut flipped = cp.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x04;
        assert!(TrainHarness::resume(small_train(), &flipped).is_err());
    }
}
