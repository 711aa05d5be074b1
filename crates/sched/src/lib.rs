//! Traffic scheduling algorithms (§5).
//!
//! The paper has two dispatcher roles, and each has exactly one trait:
//!
//! * [`LcScheduler`] — per-master LC dispatch: plan a whole round of
//!   per-type batches at once (Alg. 2), reading candidate rows through
//!   [`CandidateRows`]. The system holds one per cluster.
//! * [`BeScheduler`] — central BE dispatch: pick one node, and the
//!   resources to grant, per request, and learn from a delayed reward
//!   (Alg. 3). The system holds one.
//!
//! The policies behind them:
//!
//! * [`dss_lc`] — the **Distributed Service request Scheduling algorithm
//!   for LC requests** (Alg. 2): per request type k, route the batch over
//!   the geo-nearby candidate nodes at minimum total dispatch delay. The
//!   §5.2.1 graph is bipartite, so the min-cost max-flow optimum has a
//!   closed form (fill nodes in delay order); the general `tango-flow`
//!   solver stays as the test oracle for it. Overload splits requests
//!   with the random sorting function ρ(·) into an immediate set R_k and
//!   a queued set R′_k routed over *total* resources scaled by the
//!   augmentation factor λ (Eq. 7–8).
//! * [`dcg_be`] — the **DRL Customized algorithm based on GNN for
//!   centralized BE request scheduling** (Alg. 3): GraphSAGE encoding +
//!   A2C with policy-context filtering, plus the GNN-SAC baseline and the
//!   paper's reward shaping (§5.3.1).
//! * [`baselines`] — load-greedy, K8s-native round-robin, and the
//!   history-based weighted `scoring` policy \[42\], all behind the same
//!   [`LcScheduler`] interface; plus the KubeDSM-style batch-migration
//!   planner behind [`migrate::MigrationPlanner`].
//! * [`migrate`] — the defragmentation-pass decision surface: a
//!   [`migrate::MigrationCandidate`] view of every worker's BE pods and
//!   batch [`migrate::MigrationDecision`]s back.
//! * [`td3_be`] — a TD3-style continuous-action BE scheduler: the agent
//!   emits per-candidate CPU/memory grant fractions, so its
//!   [`BeScheduler::schedule`] grant can be smaller than the demand.
//!
//! The schedulers are pure decision engines: they consume [`view`]
//! snapshots prepared by the system layer and return placements; they
//! never touch nodes directly. That is exactly the paper's architecture —
//! dispatchers read the state storage, not the cluster.

pub mod baselines;
pub mod dcg_be;
pub mod dss_lc;
pub mod migrate;
pub mod snap_impls;
pub mod td3_be;
pub mod view;

pub use baselines::{KsNative, KubeDsm, LoadGreedy, Scoring};
pub use dcg_be::{BeScheduler, DcgBe, DcgBeConfig, GnnSacBe, GreedyBe, RoundRobinBe};
pub use dss_lc::{DssLc, LcPlan};
pub use migrate::{MigratablePod, MigrationCandidate, MigrationDecision, MigrationPlanner};
pub use td3_be::{Td3Be, Td3BeConfig};
pub use view::{
    delay_order, CandidateNode, CandidateRows, LcBatch, LcScheduler, LinkObservation,
    NodeObservation, TypeBatch,
};
