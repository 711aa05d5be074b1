//! System configuration and the paper's experiment presets.

pub use tango_ctrl::KeepAliveConfig;
use tango_faults::FaultPlan;
use tango_gnn::EncoderKind;
use tango_hrm::ReassuranceConfig;
use tango_net::TopologyConfig;
use tango_types::{Resources, SimTime};
use tango_workload::{Pattern, PatternKind};

/// Which LC traffic-dispatch policy to run (Fig. 11(a,b), Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LcPolicy {
    /// The paper's DSS-LC (Alg. 2).
    DssLc,
    /// Lowest-load greedy.
    LoadGreedy,
    /// K8s default round-robin.
    KsNative,
    /// Weighted scoring \[42\].
    Scoring,
    /// DSACO-style distributed SAC offloading \[34\].
    Dsaco,
}

impl LcPolicy {
    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            LcPolicy::DssLc => "dss-lc",
            LcPolicy::LoadGreedy => "load-greedy",
            LcPolicy::KsNative => "k8s-native",
            LcPolicy::Scoring => "scoring",
            LcPolicy::Dsaco => "dsaco",
        }
    }
}

/// Which BE traffic-dispatch policy to run (Fig. 11(c,d), Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BePolicy {
    /// The paper's DCG-BE (Alg. 3) with a chosen GNN structure.
    DcgBe(EncoderKind),
    /// GNN-SAC baseline.
    GnnSac,
    /// TD3 continuous-action scheduler: placement plus per-request
    /// CPU/memory grant sizing in one action.
    Td3,
    /// Lowest-load greedy.
    LoadGreedy,
    /// K8s default round-robin.
    KsNative,
}

impl BePolicy {
    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            BePolicy::DcgBe(_) => "dcg-be",
            BePolicy::GnnSac => "gnn-sac",
            BePolicy::Td3 => "td3-be",
            BePolicy::LoadGreedy => "load-greedy",
            BePolicy::KsNative => "k8s-native",
        }
    }
}

/// Node-level resource allocation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocatorKind {
    /// HRM: regulations + D-VPA elastic limits (§4).
    Hrm,
    /// K8s-native fixed limits ("turbulent allocation").
    Static,
}

/// Workload shape for a run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Which §7.1 pattern.
    pub pattern: PatternKind,
    /// Mean LC requests/second across the system.
    pub lc_rps: f64,
    /// Mean BE requests/second across the system.
    pub be_rps: f64,
    /// Apply the Fig. 1 diurnal modulation.
    pub diurnal: bool,
}

impl WorkloadSpec {
    /// Build the trace [`Pattern`].
    pub fn pattern(&self) -> Pattern {
        Pattern::new(self.pattern, self.lc_rps, self.be_rps)
    }
}

/// Ablation switches for the design choices DESIGN.md calls out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ablations {
    /// DSS-LC routes its overload set over the λ-augmented graph
    /// (Eq. 7–8). Off = overflow stays queued at the master.
    pub dss_overflow_routing: bool,
    /// DCG-BE's policy-context filter c_t. Off = the agent may pick
    /// infeasible nodes and eat the bounce.
    pub dcg_context_filter: bool,
    /// η weight between short- and long-term BE reward (paper: 1.0).
    pub dcg_eta: f32,
}

impl Default for Ablations {
    fn default() -> Self {
        Ablations {
            dss_overflow_routing: true,
            dcg_context_filter: true,
            dcg_eta: 1.0,
        }
    }
}

/// The elastic cloud tier: one extra cluster of high-capacity,
/// high-RTT workers appended after the edge clusters. Cloud nodes are
/// schedulable BE targets (with distance-honest latency) and the
/// spill destination of the defragmentation pass; LC dispatch never
/// routes to them — an LC request's QoS budget cannot absorb the WAN
/// round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudConfig {
    /// Cloud worker count (one datacenter cluster).
    pub workers: usize,
    /// Per-cloud-worker capacity. Uniform — no heterogeneity jitter;
    /// datacenter fleets are homogeneous.
    pub worker_capacity: Resources,
    /// Base one-way edge→cloud latency before the distance term.
    pub one_way_base: SimTime,
    /// Extra one-way latency per km of edge-to-centroid distance (µs/km).
    pub us_per_km: f64,
    /// Uniform edge↔cloud link bandwidth, Mbps.
    pub bandwidth_mbps: u64,
    /// Optional egress-cost budget in KiB. Every BE payload placed on the
    /// cloud and every migration transfer into it is charged; once the
    /// budget is exhausted, cloud nodes stop appearing as scheduling
    /// targets (work already there finishes). `None` = unmetered.
    pub egress_budget_kib: Option<u64>,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            workers: 8,
            worker_capacity: Resources::new(16_000, 32_768, 10_000, 1_000_000),
            one_way_base: SimTime::from_millis(40),
            us_per_km: 5.0,
            bandwidth_mbps: 1_000,
            egress_budget_kib: None,
        }
    }
}

/// The migration-aware defragmentation pass: every `every_n_ticks` sync
/// ticks the configured [`tango_sched::MigrationPlanner`] sees all
/// workers and plans batch BE migrations — evacuating hot edge nodes
/// into cold edge nodes first and spilling the remainder to the cloud
/// tier when one is attached.
#[derive(Debug, Clone, PartialEq)]
pub struct DefragConfig {
    /// Run the pass every N sync ticks (values below 1 behave as 1).
    pub every_n_ticks: u32,
    /// Migration batch limit per pass.
    pub max_moves: usize,
    /// Workers at or above this demand utilization are evacuation
    /// sources.
    pub hot_threshold: f64,
    /// Workers below this demand utilization are repack receivers.
    pub cold_threshold: f64,
}

impl Default for DefragConfig {
    fn default() -> Self {
        DefragConfig {
            every_n_ticks: 4,
            max_moves: 16,
            hot_threshold: 0.85,
            cold_threshold: 0.6,
        }
    }
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct TangoConfig {
    /// Number of edge-cloud clusters.
    pub clusters: usize,
    /// Worker count range per cluster (min, max) — the paper's virtual
    /// clusters have 3–20 workers to reflect edge heterogeneity.
    pub workers_per_cluster: (usize, usize),
    /// Worker node capacity (jittered ±25% per node for heterogeneity).
    pub worker_capacity: Resources,
    /// Master node capacity.
    pub master_capacity: Resources,
    /// Network topology parameters.
    pub topology: TopologyConfig,
    /// LC dispatch policy.
    pub lc_policy: LcPolicy,
    /// BE dispatch policy.
    pub be_policy: BePolicy,
    /// Allocation mode.
    pub allocator: AllocatorKind,
    /// QoS re-assurance (None disables Algorithm 1 — the Fig. 10
    /// ablation).
    pub reassurance: Option<ReassuranceConfig>,
    /// Workload shape.
    pub workload: WorkloadSpec,
    /// Geo-nearby radius for LC dispatch (paper: 500 km).
    pub geo_radius_km: f64,
    /// Dispatch round interval per master.
    pub dispatch_interval: SimTime,
    /// Re-assurance tick interval (the 100 ms window cadence).
    pub reassure_interval: SimTime,
    /// State-storage sync / metrics sampling interval.
    pub sync_interval: SimTime,
    /// Reporting period (paper: 800 ms).
    pub period: SimTime,
    /// Queued LC requests older than this are abandoned.
    pub lc_patience: SimTime,
    /// Queued BE requests older than this are abandoned.
    pub be_patience: SimTime,
    /// Evicted/requeued more than this → failed.
    pub max_requeues: u32,
    /// Restrict dispatch to the local cluster (the CERES baseline's
    /// "local resource management only").
    pub local_only: bool,
    /// Ablation switches (all on by default).
    pub ablations: Ablations,
    /// Fault scenario (empty by default — a calm-weather run). Compiled
    /// into timed crash/recover/degrade events when the run starts.
    pub faults: FaultPlan,
    /// Elastic cloud tier. `None` (the default) keeps the pure edge
    /// system: no extra cluster, golden digests unchanged.
    pub cloud: Option<CloudConfig>,
    /// Migration-aware defragmentation pass. `None` (the default)
    /// disables batch migration entirely.
    pub defrag: Option<DefragConfig>,
    /// Keep-alive failure detection. `None` (the default) keeps the
    /// oracle model: the control plane learns of a crash the instant the
    /// fault plan fires it. `Some` makes crashes *physical* first — the
    /// control plane keeps scheduling onto the dead node until the
    /// detector accumulates enough missed sync-tick probes, and only the
    /// detector trip triggers rescheduling and reservation teardown.
    pub detection: Option<KeepAliveConfig>,
    /// Master seed.
    pub seed: u64,
    /// No run reads this field: each run's event loop is single-threaded,
    /// and `run_parallel`'s budget across runs comes from `TANGO_THREADS`
    /// or `available_parallelism()`. It stays only because `perfbench`
    /// still writes it, and [`config_fingerprint`] masks it.
    ///
    /// [`config_fingerprint`]: crate::config_fingerprint
    pub parallelism: Option<usize>,
}

impl TangoConfig {
    /// The physical-testbed preset (§6.1): 4 clusters × (1 master with
    /// 8 CPU/16 GB + 4 workers with 4 CPU/8 GB).
    pub fn physical_testbed() -> Self {
        TangoConfig {
            clusters: 4,
            workers_per_cluster: (4, 4),
            worker_capacity: Resources::new(4_000, 8_192, 1_000, 100_000),
            master_capacity: Resources::new(8_000, 16_384, 1_000, 200_000),
            topology: TopologyConfig {
                clusters: 4,
                // physical clusters sit in one metro region
                lat_range: (30.0, 33.0),
                lon_range: (118.0, 122.0),
                ..TopologyConfig::default()
            },
            lc_policy: LcPolicy::DssLc,
            be_policy: BePolicy::DcgBe(EncoderKind::Sage { p: 3 }),
            allocator: AllocatorKind::Hrm,
            reassurance: Some(ReassuranceConfig::default()),
            workload: WorkloadSpec {
                pattern: PatternKind::P3,
                lc_rps: 60.0,
                be_rps: 12.0,
                diurnal: false,
            },
            geo_radius_km: 500.0,
            dispatch_interval: SimTime::from_millis(10),
            reassure_interval: SimTime::from_millis(100),
            sync_interval: SimTime::from_millis(100),
            period: SimTime::from_millis(800),
            lc_patience: SimTime::from_millis(1_000),
            be_patience: SimTime::from_secs(60),
            max_requeues: 3,
            local_only: false,
            ablations: Ablations::default(),
            faults: FaultPlan::default(),
            cloud: None,
            defrag: None,
            detection: None,
            seed: 42,
            parallelism: None,
        }
    }

    /// The dual-space preset (§6.1): `clusters` clusters of 3–20 workers
    /// spread over a country-scale region. The paper runs 104 (4 physical
    /// plus 100 virtual); that is expensive in a unit-test context, so
    /// the cluster count is a parameter and the benches use the full
    /// scale.
    pub fn dual_space(clusters: usize) -> Self {
        let mut cfg = TangoConfig::physical_testbed();
        cfg.clusters = clusters;
        cfg.workers_per_cluster = (3, 20);
        cfg.topology = TopologyConfig {
            clusters,
            ..TopologyConfig::default()
        };
        // Sized so that the busiest (Zipf-skewed) clusters saturate: the
        // regime where cross-cluster scheduling matters.
        cfg.workload.lc_rps = 150.0 * clusters as f64;
        cfg.workload.be_rps = 20.0 * clusters as f64;
        cfg
    }

    /// The full §6.1 evaluation scale: 104 clusters with the worker draw
    /// narrowed to (5, 13) so the whole system lands at the paper's
    /// ~1000 nodes. BE dispatch runs load-greedy here — the learning
    /// policy is orthogonal to runtime scale, and the non-learning preset
    /// keeps the scale snapshottable for the checkpoint/restore tests.
    pub fn paper_scale() -> Self {
        let mut cfg = TangoConfig::dual_space(104);
        cfg.workers_per_cluster = (5, 13);
        cfg.be_policy = BePolicy::LoadGreedy;
        cfg
    }

    /// The Tango system proper: DSS-LC + DCG-BE + HRM + re-assurance.
    pub fn as_tango(mut self) -> Self {
        self.lc_policy = LcPolicy::DssLc;
        self.be_policy = BePolicy::DcgBe(EncoderKind::Sage { p: 3 });
        self.allocator = AllocatorKind::Hrm;
        self.reassurance = Some(ReassuranceConfig::default());
        self.local_only = false;
        self
    }

    /// The CERES comparison point \[40\]: elastic *local* resource
    /// management, no cross-cluster traffic scheduling.
    pub fn as_ceres(mut self) -> Self {
        self.lc_policy = LcPolicy::KsNative;
        self.be_policy = BePolicy::KsNative;
        self.allocator = AllocatorKind::Hrm;
        self.reassurance = None;
        self.local_only = true;
        self
    }

    /// The DSACO comparison point \[34\]: intelligent distributed
    /// offloading, no mixed-workload resource management.
    pub fn as_dsaco(mut self) -> Self {
        self.lc_policy = LcPolicy::Dsaco;
        self.be_policy = BePolicy::LoadGreedy;
        self.allocator = AllocatorKind::Static;
        self.reassurance = None;
        self.local_only = false;
        self
    }

    /// Plain K8s: round-robin everything, static limits.
    pub fn as_k8s_native(mut self) -> Self {
        self.lc_policy = LcPolicy::KsNative;
        self.be_policy = BePolicy::KsNative;
        self.allocator = AllocatorKind::Static;
        self.reassurance = None;
        self
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// The small two-cluster configuration the core unit tests share:
    /// fast, deterministic, non-learning policies.
    pub(crate) fn small_cfg() -> TangoConfig {
        let mut cfg = TangoConfig::physical_testbed();
        cfg.clusters = 2;
        cfg.topology.clusters = 2;
        cfg.workload.lc_rps = 30.0;
        cfg.workload.be_rps = 4.0;
        // keep unit tests fast: non-learning policies by default
        cfg.lc_policy = LcPolicy::DssLc;
        cfg.be_policy = BePolicy::LoadGreedy;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_testbed_matches_paper() {
        let cfg = TangoConfig::physical_testbed();
        assert_eq!(cfg.clusters, 4);
        assert_eq!(cfg.workers_per_cluster, (4, 4));
        assert_eq!(cfg.worker_capacity.cpu_milli, 4_000);
        assert_eq!(cfg.master_capacity.memory_mib, 16_384);
        assert_eq!(cfg.period, SimTime::from_millis(800));
        assert_eq!(cfg.geo_radius_km, 500.0);
    }

    #[test]
    fn dual_space_is_heterogeneous() {
        let cfg = TangoConfig::dual_space(104);
        assert_eq!(cfg.clusters, 104);
        assert_eq!(cfg.workers_per_cluster, (3, 20));
        assert_eq!(cfg.topology.clusters, 104);
    }

    #[test]
    fn paper_scale_lands_near_a_thousand_nodes() {
        let cfg = TangoConfig::paper_scale();
        assert_eq!(cfg.clusters, 104);
        let sys = crate::EdgeCloudSystem::new(cfg);
        let n = sys.node_count();
        assert!(
            (950..=1050).contains(&n),
            "paper_scale built {n} nodes, wanted ~1000"
        );
    }

    #[test]
    fn baseline_presets_toggle_the_right_knobs() {
        let base = TangoConfig::physical_testbed();
        let tango = base.clone().as_tango();
        assert_eq!(tango.lc_policy, LcPolicy::DssLc);
        assert!(tango.reassurance.is_some());

        let ceres = base.clone().as_ceres();
        assert!(ceres.local_only);
        assert_eq!(ceres.allocator, AllocatorKind::Hrm);

        let dsaco = base.clone().as_dsaco();
        assert_eq!(dsaco.lc_policy, LcPolicy::Dsaco);
        assert_eq!(dsaco.allocator, AllocatorKind::Static);
        assert!(!dsaco.local_only);

        let k8s = base.as_k8s_native();
        assert_eq!(k8s.lc_policy, LcPolicy::KsNative);
        assert_eq!(k8s.allocator, AllocatorKind::Static);
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(LcPolicy::DssLc.name(), "dss-lc");
        assert_eq!(BePolicy::GnnSac.name(), "gnn-sac");
        assert_eq!(BePolicy::Td3.name(), "td3-be");
        assert_eq!(BePolicy::DcgBe(EncoderKind::Gcn).name(), "dcg-be");
    }
}
