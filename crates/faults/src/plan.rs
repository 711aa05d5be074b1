//! Fault plans: declarative fault scenarios compiled into timed events.

use tango_simcore::SimRng;
use tango_types::{ClusterId, NodeId, SimTime};

/// A node selector that survives not knowing the concrete layout: presets
/// draw worker counts from the seeded RNG, so scenarios address nodes by
/// role and position instead of raw [`NodeId`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// A concrete node id (when the layout is known).
    Node(NodeId),
    /// The `index`-th worker of a cluster; `index` wraps modulo the
    /// cluster's worker count, so plans stay valid across layouts with
    /// jittered worker counts.
    Worker {
        /// Cluster whose worker list is indexed.
        cluster: ClusterId,
        /// Worker position (modulo the cluster's worker count).
        index: usize,
    },
    /// A cluster's master node.
    Master(ClusterId),
}

/// A concrete fault at a concrete sim time — what [`FaultPlan::compile`]
/// produces and the system's event loop consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// A node fails abruptly: running work is interrupted, queues drain.
    NodeCrash {
        /// The failing node.
        node: NodeId,
    },
    /// A crashed node rejoins (cold: containers restart, history resets).
    NodeRecover {
        /// The rejoining node.
        node: NodeId,
    },
    /// Inflate latency and deflate bandwidth on one cluster pair.
    LinkDegrade {
        /// One endpoint.
        a: ClusterId,
        /// Other endpoint.
        b: ClusterId,
        /// One-way latency multiplier (≥ 1 inflates).
        latency_factor: f64,
        /// Bandwidth divisor (≥ 1 deflates).
        bandwidth_factor: f64,
    },
    /// Remove the degradation on a cluster pair.
    LinkRestore {
        /// One endpoint.
        a: ClusterId,
        /// Other endpoint.
        b: ClusterId,
    },
    /// Split the WAN into two sides that cannot reach each other.
    Partition {
        /// Clusters on the minority side (everything else stays on the
        /// majority side together with any unlisted cluster).
        side: Vec<ClusterId>,
    },
    /// Heal the active partition.
    Heal,
}

#[derive(Debug, Clone)]
enum TimedSpec {
    Crash(NodeRef),
    Recover(NodeRef),
    Degrade {
        a: ClusterId,
        b: ClusterId,
        latency_factor: f64,
        bandwidth_factor: f64,
    },
    Restore {
        a: ClusterId,
        b: ClusterId,
    },
    Partition {
        side: Vec<ClusterId>,
    },
    Heal,
}

/// A seeded stochastic churn generator: every worker independently
/// alternates up/down with exponential time-to-failure and time-to-repair.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeChurn {
    /// Mean time to failure while up.
    pub mttf: SimTime,
    /// Mean time to repair while down.
    pub mttr: SimTime,
    /// Seed of the generator's RNG stream (forked per node, in layout
    /// order, before any event executes — thread-count invariant).
    pub seed: u64,
}

/// The node layout a plan is compiled against: per-cluster master and
/// worker ids, in cluster order.
#[derive(Debug, Clone, Default)]
pub struct SystemLayout {
    /// Master node of each cluster.
    pub masters: Vec<NodeId>,
    /// Worker nodes of each cluster.
    pub workers: Vec<Vec<NodeId>>,
}

impl SystemLayout {
    /// Resolve a [`NodeRef`] against this layout. `None` when the cluster
    /// does not exist or has no workers.
    pub fn resolve(&self, r: NodeRef) -> Option<NodeId> {
        match r {
            NodeRef::Node(n) => Some(n),
            NodeRef::Master(c) => self.masters.get(c.index()).copied(),
            NodeRef::Worker { cluster, index } => {
                let ws = self.workers.get(cluster.index())?;
                if ws.is_empty() {
                    None
                } else {
                    Some(ws[index % ws.len()])
                }
            }
        }
    }
}

/// A declarative fault scenario: timed faults plus churn generators.
///
/// Build with the chainable methods, hand it to the system via
/// `TangoConfig::faults`, and it compiles into simulation events when the
/// run starts. An empty (default) plan costs nothing on the hot path.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    timed: Vec<(SimTime, TimedSpec)>,
    churn: Vec<NodeChurn>,
    /// Cold-start delay before a recovered node's containers accept work
    /// again (the kube restart, image-warm path).
    pub restart_delay: SimTime,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            timed: Vec::new(),
            churn: Vec::new(),
            restart_delay: SimTime::from_millis(200),
        }
    }
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.timed.is_empty() && self.churn.is_empty()
    }

    /// Crash a node at `at`.
    pub fn crash_at(mut self, at: SimTime, node: NodeRef) -> Self {
        self.timed.push((at, TimedSpec::Crash(node)));
        self
    }

    /// Recover a node at `at`.
    pub fn recover_at(mut self, at: SimTime, node: NodeRef) -> Self {
        self.timed.push((at, TimedSpec::Recover(node)));
        self
    }

    /// Crash a node at `at` and recover it `duration` later.
    pub fn crash_for(self, at: SimTime, node: NodeRef, duration: SimTime) -> Self {
        self.crash_at(at, node).recover_at(at + duration, node)
    }

    /// Take a cluster's master down at `at` for `duration` — the
    /// §"master failover" scenario: dispatch for that cluster is taken
    /// over by the nearest reachable live master until recovery.
    pub fn master_failover(self, at: SimTime, cluster: ClusterId, duration: SimTime) -> Self {
        self.crash_for(at, NodeRef::Master(cluster), duration)
    }

    /// Degrade the `a`–`b` link at `at`: one-way latency × `latency_factor`,
    /// bandwidth ÷ `bandwidth_factor`.
    pub fn degrade_link_at(
        mut self,
        at: SimTime,
        a: ClusterId,
        b: ClusterId,
        latency_factor: f64,
        bandwidth_factor: f64,
    ) -> Self {
        self.timed.push((
            at,
            TimedSpec::Degrade {
                a,
                b,
                latency_factor,
                bandwidth_factor,
            },
        ));
        self
    }

    /// Restore the `a`–`b` link at `at`.
    pub fn restore_link_at(mut self, at: SimTime, a: ClusterId, b: ClusterId) -> Self {
        self.timed.push((at, TimedSpec::Restore { a, b }));
        self
    }

    /// Degrade a link at `at` and restore it `duration` later.
    pub fn degrade_link_for(
        self,
        at: SimTime,
        a: ClusterId,
        b: ClusterId,
        latency_factor: f64,
        bandwidth_factor: f64,
        duration: SimTime,
    ) -> Self {
        self.degrade_link_at(at, a, b, latency_factor, bandwidth_factor)
            .restore_link_at(at + duration, a, b)
    }

    /// Partition the WAN at `at`: clusters in `side` lose connectivity to
    /// everything else (intra-side and intra-cluster traffic still flows).
    pub fn partition_at(mut self, at: SimTime, side: &[ClusterId]) -> Self {
        self.timed.push((
            at,
            TimedSpec::Partition {
                side: side.to_vec(),
            },
        ));
        self
    }

    /// Heal the active partition at `at`.
    pub fn heal_at(mut self, at: SimTime) -> Self {
        self.timed.push((at, TimedSpec::Heal));
        self
    }

    /// Add a seeded churn generator over all workers (masters churn only
    /// via [`FaultPlan::master_failover`], keeping the control plane's
    /// failure mode explicit).
    pub fn node_churn(mut self, mttf: SimTime, mttr: SimTime, seed: u64) -> Self {
        self.churn.push(NodeChurn { mttf, mttr, seed });
        self
    }

    /// Compile the plan against a layout into a time-sorted event
    /// schedule over `[0, horizon]`. Purely sequential and seeded: the
    /// same (plan, layout, horizon) always yields the same schedule,
    /// regardless of thread count. Events past the horizon are dropped; a
    /// node whose churn repair falls past the horizon simply stays down
    /// (its downtime is settled at the end of the run).
    pub fn compile(&self, layout: &SystemLayout, horizon: SimTime) -> Vec<(SimTime, FaultEvent)> {
        let mut out: Vec<(SimTime, FaultEvent)> = Vec::new();
        for (at, spec) in &self.timed {
            if *at > horizon {
                continue;
            }
            let ev = match spec {
                TimedSpec::Crash(r) => layout
                    .resolve(*r)
                    .map(|node| FaultEvent::NodeCrash { node }),
                TimedSpec::Recover(r) => layout
                    .resolve(*r)
                    .map(|node| FaultEvent::NodeRecover { node }),
                TimedSpec::Degrade {
                    a,
                    b,
                    latency_factor,
                    bandwidth_factor,
                } => Some(FaultEvent::LinkDegrade {
                    a: *a,
                    b: *b,
                    latency_factor: *latency_factor,
                    bandwidth_factor: *bandwidth_factor,
                }),
                TimedSpec::Restore { a, b } => Some(FaultEvent::LinkRestore { a: *a, b: *b }),
                TimedSpec::Partition { side } => Some(FaultEvent::Partition { side: side.clone() }),
                TimedSpec::Heal => Some(FaultEvent::Heal),
            };
            if let Some(ev) = ev {
                out.push((*at, ev));
            }
        }
        for churn in &self.churn {
            let mut master_rng = SimRng::new(churn.seed);
            for workers in &layout.workers {
                for &node in workers {
                    // fork order = layout order: deterministic per-node streams
                    let mut rng = master_rng.fork();
                    let mut t = SimTime::ZERO;
                    loop {
                        t += Self::exp_draw(&mut rng, churn.mttf);
                        if t > horizon {
                            break;
                        }
                        out.push((t, FaultEvent::NodeCrash { node }));
                        t += Self::exp_draw(&mut rng, churn.mttr);
                        if t > horizon {
                            break; // stays down through the horizon
                        }
                        out.push((t, FaultEvent::NodeRecover { node }));
                    }
                }
            }
        }
        // stable sort: ties keep insertion order (timed before churn)
        out.sort_by_key(|(t, _)| *t);
        out
    }

    fn exp_draw(rng: &mut SimRng, mean: SimTime) -> SimTime {
        let us = rng.exponential(mean.as_micros() as f64);
        SimTime::from_micros((us.round() as u64).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> SystemLayout {
        SystemLayout {
            masters: vec![NodeId(0), NodeId(4)],
            workers: vec![
                vec![NodeId(1), NodeId(2), NodeId(3)],
                vec![NodeId(5), NodeId(6)],
            ],
        }
    }

    #[test]
    fn node_refs_resolve_against_the_layout() {
        let l = layout();
        assert_eq!(l.resolve(NodeRef::Master(ClusterId(1))), Some(NodeId(4)));
        assert_eq!(
            l.resolve(NodeRef::Worker {
                cluster: ClusterId(0),
                index: 1
            }),
            Some(NodeId(2))
        );
        // index wraps modulo the worker count
        assert_eq!(
            l.resolve(NodeRef::Worker {
                cluster: ClusterId(1),
                index: 5
            }),
            Some(NodeId(6))
        );
        assert_eq!(l.resolve(NodeRef::Master(ClusterId(9))), None);
    }

    #[test]
    fn timed_events_compile_sorted_and_clamped_to_horizon() {
        let plan = FaultPlan::new()
            .crash_for(
                SimTime::from_secs(2),
                NodeRef::Node(NodeId(1)),
                SimTime::from_secs(1),
            )
            .degrade_link_at(SimTime::from_secs(1), ClusterId(0), ClusterId(1), 4.0, 2.0)
            .recover_at(SimTime::from_secs(99), NodeRef::Node(NodeId(1)));
        let events = plan.compile(&layout(), SimTime::from_secs(10));
        assert_eq!(events.len(), 3); // the t=99s recover is past the horizon
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(matches!(events[0].1, FaultEvent::LinkDegrade { .. }));
    }

    #[test]
    fn master_failover_compiles_to_crash_and_recover_of_the_master() {
        let plan = FaultPlan::new().master_failover(
            SimTime::from_secs(1),
            ClusterId(0),
            SimTime::from_secs(2),
        );
        let events = plan.compile(&layout(), SimTime::from_secs(10));
        assert_eq!(
            events,
            vec![
                (
                    SimTime::from_secs(1),
                    FaultEvent::NodeCrash { node: NodeId(0) }
                ),
                (
                    SimTime::from_secs(3),
                    FaultEvent::NodeRecover { node: NodeId(0) }
                ),
            ]
        );
    }

    #[test]
    fn churn_is_deterministic_per_seed_and_alternates_per_node() {
        let plan =
            FaultPlan::new().node_churn(SimTime::from_secs(3), SimTime::from_secs(1), 0xC0FFEE);
        let a = plan.compile(&layout(), SimTime::from_secs(60));
        let b = plan.compile(&layout(), SimTime::from_secs(60));
        assert_eq!(a, b);
        assert!(!a.is_empty(), "60s horizon at 3s MTTF must produce churn");
        // per node: strict crash/recover alternation starting with a crash
        for workers in &layout().workers {
            for &node in workers {
                let mut expect_crash = true;
                for (_, ev) in a.iter() {
                    match ev {
                        FaultEvent::NodeCrash { node: n } if *n == node => {
                            assert!(expect_crash, "double crash on {node:?}");
                            expect_crash = false;
                        }
                        FaultEvent::NodeRecover { node: n } if *n == node => {
                            assert!(!expect_crash, "recover before crash on {node:?}");
                            expect_crash = true;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn different_churn_seeds_differ() {
        let horizon = SimTime::from_secs(60);
        let mk = |seed| {
            FaultPlan::new()
                .node_churn(SimTime::from_secs(5), SimTime::from_secs(1), seed)
                .compile(&layout(), horizon)
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn empty_plan_compiles_to_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.compile(&layout(), SimTime::from_secs(100)).is_empty());
    }
}
