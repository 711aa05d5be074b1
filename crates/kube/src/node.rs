//! Nodes and the processor-sharing execution model.
//!
//! A node owns a CGroup tree and one [`Container`] record per
//! continuously-running service pod. Request execution follows the model
//! the paper's twin space is calibrated with: a request of service k
//! carries `work` millicore-milliseconds of CPU work; the requests inside
//! a container share its *effective* CPU limit equally, each capped by its
//! own CPU demand (a request cannot exploit more parallelism than it asked
//! for). Memory and disk are charged to the container's cgroup for the
//! request's whole residency — that is what makes them incompressible.
//!
//! The node is advanced lazily: [`Node::advance`] integrates progress
//! since the last call at the *current* rates, so any limit change (D-VPA)
//! or admission simply requires advancing first. A generation counter lets
//! the event loop discard stale completion projections.

use tango_cgroup::{CgroupFs, CgroupId, QosLevel};
use tango_types::{
    ClusterId, ContainerId, NodeId, RequestId, Resources, ServiceClass, ServiceId, ServiceSpec,
    SimTime, TangoError,
};

/// A request currently executing in a container.
#[derive(Debug, Clone)]
pub struct RunningRequest {
    /// The request.
    pub request: RequestId,
    /// Its resource demand (CPU share cap + incompressible charges).
    pub demand: Resources,
    /// Remaining CPU work, millicore-milliseconds.
    pub remaining_work: f64,
    /// When it was admitted to the container.
    pub admitted_at: SimTime,
}

/// A finished request as reported by [`Node::take_completions`].
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    /// The request.
    pub request: RequestId,
    /// Its service type.
    pub service: ServiceId,
    /// LC or BE.
    pub class: ServiceClass,
    /// When it was admitted.
    pub admitted_at: SimTime,
}

/// The K8s QoS class Tango assigns a service (§4.1: LC services get a
/// higher priority class than BE).
pub fn qos_level_for(class: ServiceClass) -> QosLevel {
    match class {
        // Burstable so D-VPA can stretch limits above requests.
        ServiceClass::Lc => QosLevel::Burstable,
        // Lowest priority: first to be evicted under memory pressure.
        ServiceClass::Be => QosLevel::BestEffort,
    }
}

/// One deployed service: its pod and the single container inside it.
/// Each application runs in one container in a pod of its own (§6.2), and
/// the pod serves requests of its service type continuously (footnote 3:
/// "fixed types of containerized applications … run continuously on the
/// edge-clouds"), so one record holds both.
#[derive(Debug)]
pub struct Container {
    /// Container id: the label of its cgroups and its checkpoint overlay.
    pub id: ContainerId,
    /// The service it hosts.
    pub service: ServiceId,
    /// LC or BE.
    pub class: ServiceClass,
    /// Pod-level cgroup, under the QoS class's group.
    pub(crate) pod_cgroup: CgroupId,
    /// Container-level cgroup, under the pod's.
    pub cgroup: CgroupId,
    /// Times this container has been killed and restarted (evictions +
    /// native-VPA rebuilds).
    pub restarts: u32,
    /// Until when a native-VPA rebuild (or eviction restart) keeps it from
    /// accepting requests.
    pub(crate) unavailable_until: SimTime,
    /// The requests running in it.
    pub running: Vec<RunningRequest>,
    /// Cached effective limit, valid while `eff_epoch` matches the cgroup
    /// tree's limit epoch. The execution integrator reads the effective
    /// limit on every advance/projection; limits only move on D-VPA or
    /// rebuild events, so this hits almost always.
    eff: Resources,
    eff_epoch: u64,
}

impl Container {
    /// Whether the container can accept requests at `now` (not
    /// mid-rebuild).
    pub fn is_available(&self, now: SimTime) -> bool {
        self.unavailable_until <= now
    }

    /// Its pod-level and container-level cgroups — the two write targets
    /// of a D-VPA scaling operation (Fig. 5).
    pub fn scaling_cgroups(&self) -> (CgroupId, CgroupId) {
        (self.pod_cgroup, self.cgroup)
    }
}

/// A master or worker node.
#[derive(Debug)]
pub struct Node {
    /// Global node id.
    pub id: NodeId,
    /// Owning cluster.
    pub cluster: ClusterId,
    /// Masters receive requests; workers execute them.
    pub is_master: bool,
    capacity: Resources,
    /// The node's CGroup tree (public: D-VPA writes it directly).
    pub cgroups: CgroupFs,
    /// The deployed containers in deployment order (== ascending id order,
    /// since local ids are allocated sequentially). A node deploys about
    /// ten services, so finding one by service is a short scan; the
    /// execution integrator walks them all on every advance/projection.
    pub(crate) containers: Vec<Container>,
    /// Requests currently running across all containers — the early-out
    /// for advance/projection on idle nodes.
    pub(crate) running_total: usize,
    pub(crate) last_advance: SimTime,
    pub(crate) generation: u64,
    pub(crate) next_local_id: u64,
    pub(crate) finished: Vec<CompletedRequest>,
    /// Last sync tick at which this node answered its keep-alive probe.
    /// Observational only (read by the control-plane mirror); it is not
    /// part of the node's snapshot codec, so a restored run re-learns
    /// heartbeats from its first sync tick.
    last_heartbeat: SimTime,
}

/// The container's effective limit through the per-container cache.
fn cached_eff(cgroups: &CgroupFs, c: &mut Container) -> Resources {
    let epoch = cgroups.limit_epoch();
    if c.eff_epoch != epoch {
        c.eff = cgroups.effective_limit(c.cgroup);
        c.eff_epoch = epoch;
    }
    c.eff
}

/// Remaining work below this is "done" (guards float dust).
const WORK_EPSILON: f64 = 1e-6;

impl Node {
    /// Create a node with the given allocatable capacity.
    pub fn new(id: NodeId, cluster: ClusterId, is_master: bool, capacity: Resources) -> Self {
        Node {
            id,
            cluster,
            is_master,
            capacity,
            cgroups: CgroupFs::new(capacity),
            containers: Vec::new(),
            running_total: 0,
            last_advance: SimTime::ZERO,
            generation: 0,
            next_local_id: 0,
            finished: Vec::new(),
            last_heartbeat: SimTime::ZERO,
        }
    }

    /// Record that the node answered a keep-alive probe at `now`.
    pub fn record_heartbeat(&mut self, now: SimTime) {
        self.last_heartbeat = now;
    }

    /// Last sync tick at which the node answered a keep-alive probe.
    pub fn last_heartbeat(&self) -> SimTime {
        self.last_heartbeat
    }

    /// Allocatable capacity.
    pub fn capacity(&self) -> Resources {
        self.capacity
    }

    /// Monotone counter bumped whenever completion projections may have
    /// changed (admission, completion, limit writes go through
    /// [`Node::touch`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Record that something changed that invalidates projections.
    pub fn touch(&mut self) {
        self.generation += 1;
    }

    /// Deploy a continuously-running service pod with an initial resource
    /// limit. LC services land in the Burstable QoS group, BE in
    /// BestEffort. The deployment time is not recorded: the cgroup model
    /// keeps no history.
    pub fn deploy_service(
        &mut self,
        spec: &ServiceSpec,
        initial_limit: Resources,
        _now: SimTime,
    ) -> Result<ContainerId, TangoError> {
        if self.container(spec.id).is_some() {
            return Err(TangoError::Config(format!(
                "service {} already deployed on {}",
                spec.id, self.id
            )));
        }
        // The pod and its container share the node-local sequence number.
        let id = ContainerId((self.id.raw() as u64) << 32 | self.next_local_id);
        self.next_local_id += 1;
        let (pod_cgroup, cgroup) =
            self.cgroups
                .create_pod(qos_level_for(spec.class), id, initial_limit)?;
        self.containers.push(Container {
            id,
            service: spec.id,
            class: spec.class,
            pod_cgroup,
            cgroup,
            restarts: 0,
            unavailable_until: SimTime::ZERO,
            running: Vec::new(),
            eff: Resources::ZERO,
            eff_epoch: 0,
        });
        self.touch();
        Ok(id)
    }

    /// The container hosting `service`, if deployed.
    pub fn container(&self, service: ServiceId) -> Option<&Container> {
        self.containers.iter().find(|c| c.service == service)
    }

    /// Every deployed container, in deployment order.
    pub fn containers(&self) -> &[Container] {
        &self.containers
    }

    /// Whether `service` is deployed and its container can accept requests
    /// at `now` (not mid-rebuild).
    pub fn is_available(&self, service: ServiceId, now: SimTime) -> bool {
        self.container(service).is_some_and(|c| c.is_available(now))
    }

    /// Effective CPU limit of `service`'s container (min over its cgroup
    /// path); 0 when it is not deployed.
    pub fn effective_cpu(&self, service: ServiceId) -> u64 {
        self.container(service)
            .map_or(0, |c| self.cgroups.effective_limit(c.cgroup).cpu_milli)
    }

    /// Per-request execution rate (millicores) inside a container with `m`
    /// occupants: equal share of the effective limit, capped by the
    /// request's own CPU demand.
    fn rate(eff_cpu: u64, m: usize, demand_cpu: u64) -> f64 {
        if m == 0 || eff_cpu == 0 {
            return 0.0;
        }
        let share = eff_cpu as f64 / m as f64;
        share.min(demand_cpu.max(1) as f64)
    }

    /// Integrate execution progress from `last_advance` to `now` at the
    /// current limits, moving finished requests to the completion buffer.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_advance {
            return;
        }
        let dt_ms = (now - self.last_advance).as_micros() as f64 / 1_000.0;
        self.last_advance = now;
        if self.running_total == 0 {
            return;
        }
        let mut any_done = false;
        let cgroups = &self.cgroups;
        for c in &mut self.containers {
            let m = c.running.len();
            if m == 0 {
                continue;
            }
            let eff = cached_eff(cgroups, c).cpu_milli;
            for r in &mut c.running {
                let rate = Self::rate(eff, m, r.demand.cpu_milli);
                r.remaining_work -= rate * dt_ms;
                if r.remaining_work <= WORK_EPSILON {
                    any_done = true;
                }
            }
        }
        if any_done {
            // collect completions: remove, uncharge incompressibles
            let Node {
                containers,
                cgroups,
                finished,
                running_total,
                ..
            } = self;
            for c in containers.iter_mut() {
                let mut i = 0;
                while i < c.running.len() {
                    if c.running[i].remaining_work <= WORK_EPSILON {
                        let r = c.running.swap_remove(i);
                        *running_total -= 1;
                        let (_, incompressible) = r.demand.split_compressible();
                        cgroups.uncharge(c.cgroup, incompressible);
                        finished.push(CompletedRequest {
                            request: r.request,
                            service: c.service,
                            class: c.class,
                            admitted_at: r.admitted_at,
                        });
                    } else {
                        i += 1;
                    }
                }
            }
            self.generation += 1;
        }
    }

    /// Drain the completion buffer (requests that finished during
    /// [`Node::advance`]).
    pub fn take_completions(&mut self) -> Vec<CompletedRequest> {
        std::mem::take(&mut self.finished)
    }

    /// Admit a request into its service container with `work` millicore-
    /// milliseconds left to run: a fresh request's nominal work, or the
    /// residue a migration carried over from the node it detached from.
    /// Charges the incompressible part of the demand to the container
    /// cgroup; fails if the service is not deployed, the container is
    /// rebuilding, or the memory/disk charge does not fit.
    pub fn admit(
        &mut self,
        request: RequestId,
        service: ServiceId,
        demand: Resources,
        work: f64,
        now: SimTime,
    ) -> Result<(), TangoError> {
        self.advance(now);
        let Some(c) = self.containers.iter_mut().find(|c| c.service == service) else {
            return Err(TangoError::Unschedulable(format!(
                "{service} not deployed on {}",
                self.id
            )));
        };
        if c.unavailable_until > now {
            return Err(TangoError::Unschedulable(format!(
                "container {} rebuilding until {}",
                c.id, c.unavailable_until
            )));
        }
        let (_, incompressible) = demand.split_compressible();
        self.cgroups.charge(c.cgroup, incompressible)?;
        c.running.push(RunningRequest {
            request,
            demand,
            remaining_work: work.max(WORK_EPSILON),
            admitted_at: now,
        });
        self.running_total += 1;
        self.generation += 1;
        Ok(())
    }

    /// Detach one running request for migration: integrate progress to
    /// `now`, remove it from its container, uncharge its incompressibles,
    /// and hand back the [`RunningRequest`] with its residual work. The
    /// request is gone from this node the instant this returns — a later
    /// crash of this node cannot touch it. `None` if the request is not
    /// running here.
    pub fn detach_request(&mut self, request: RequestId, now: SimTime) -> Option<RunningRequest> {
        self.advance(now);
        for c in &mut self.containers {
            if let Some(i) = c.running.iter().position(|r| r.request == request) {
                let r = c.running.remove(i);
                self.running_total -= 1;
                let (_, incompressible) = r.demand.split_compressible();
                self.cgroups.uncharge(c.cgroup, incompressible);
                self.generation += 1;
                return Some(r);
            }
        }
        None
    }

    /// Earliest projected completion time across all containers at current
    /// rates (call after [`Node::advance`]). `None` when nothing is
    /// running or every runnable rate is zero.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        if self.running_total == 0 {
            return None;
        }
        let mut best: Option<SimTime> = None;
        let cgroups = &self.cgroups;
        for c in &mut self.containers {
            let m = c.running.len();
            if m == 0 {
                continue;
            }
            let eff = cached_eff(cgroups, c).cpu_milli;
            for r in &c.running {
                let rate = Self::rate(eff, m, r.demand.cpu_milli);
                if rate <= 0.0 {
                    continue;
                }
                let ms = (r.remaining_work / rate).max(0.0);
                let t = now + SimTime::from_micros((ms * 1_000.0).ceil() as u64);
                best = Some(best.map_or(t, |b: SimTime| b.min(t)));
            }
        }
        best
    }

    /// Kill `service`'s container: interrupt all running requests
    /// (uncharging them) and mark the container unavailable until
    /// `ready_at`. Returns the interrupted requests — the caller decides
    /// whether to requeue or fail them. Used by the native VPA's
    /// delete-and-rebuild and by BE eviction under the §4.1 regulations.
    pub fn kill_container(
        &mut self,
        service: ServiceId,
        now: SimTime,
        ready_at: SimTime,
    ) -> Result<Vec<RunningRequest>, TangoError> {
        self.advance(now);
        let slot = self
            .containers
            .iter()
            .position(|c| c.service == service)
            .ok_or_else(|| {
                TangoError::Unschedulable(format!("{service} not deployed on {}", self.id))
            })?;
        Ok(self.kill_slot(slot, ready_at))
    }

    /// Kill the container at `slot` (see [`Node::kill_container`]); the
    /// caller has advanced the node.
    fn kill_slot(&mut self, slot: usize, ready_at: SimTime) -> Vec<RunningRequest> {
        let c = &mut self.containers[slot];
        let interrupted = std::mem::take(&mut c.running);
        self.running_total -= interrupted.len();
        c.restarts += 1;
        c.unavailable_until = ready_at;
        for r in &interrupted {
            let (_, incompressible) = r.demand.split_compressible();
            self.cgroups.uncharge(c.cgroup, incompressible);
        }
        self.generation += 1;
        interrupted
    }

    /// Crash the node: every container is killed (interrupting all
    /// running requests, uncharging their incompressibles, bumping
    /// restart counts) and left unavailable until recovery re-arms it.
    /// Returns the interrupted requests with their service class — the
    /// system decides whether each one fails or is rescheduled.
    pub fn crash(&mut self, now: SimTime) -> Vec<(ServiceClass, RunningRequest)> {
        self.advance(now);
        let mut out = Vec::new();
        for slot in 0..self.containers.len() {
            let class = self.containers[slot].class;
            let interrupted = self.kill_slot(slot, SimTime::MAX);
            out.extend(interrupted.into_iter().map(|r| (class, r)));
        }
        out
    }

    /// Bring a crashed node back: every container restarts cold and
    /// starts accepting work `restart_delay` after `now` (the eviction-
    /// restart interplay — a recovering node looks exactly like one whose
    /// containers were all just rebuilt).
    pub fn recover(&mut self, now: SimTime, restart_delay: SimTime) {
        self.advance(now);
        let ready = now + restart_delay;
        for c in &mut self.containers {
            c.unavailable_until = ready;
            self.generation += 1;
        }
    }

    /// Demand-based usage: (LC-held, BE-held) resources summed over
    /// running requests. This is what the c storage reports and the
    /// §4.1 regulations reason over.
    pub fn demand_usage(&self) -> (Resources, Resources) {
        let mut lc = Resources::ZERO;
        let mut be = Resources::ZERO;
        for c in &self.containers {
            for r in &c.running {
                match c.class {
                    ServiceClass::Lc => lc += r.demand,
                    ServiceClass::Be => be += r.demand,
                }
            }
        }
        (lc, be)
    }

    /// Actual resource consumption: per container, CPU is the sum of the
    /// processor-sharing *rates* (so a throttled container reports its
    /// limit, not its queued demand), bandwidth is capped by the effective
    /// limit, and memory/disk are the charged cgroup usage. This is what a
    /// Prometheus scrape of the node would see, and what utilization
    /// figures must report — demand-based accounting would count
    /// congestion as usage.
    pub fn actual_usage(&self) -> (Resources, Resources) {
        let mut lc = Resources::ZERO;
        let mut be = Resources::ZERO;
        for c in &self.containers {
            let m = c.running.len();
            if m == 0 {
                continue;
            }
            let eff = self.cgroups.effective_limit(c.cgroup);
            let cpu_used: f64 = c
                .running
                .iter()
                .map(|r| Self::rate(eff.cpu_milli, m, r.demand.cpu_milli))
                .sum();
            let bw_demand: u64 = c.running.iter().map(|r| r.demand.bandwidth_mbps).sum();
            let charged = self.cgroups.usage(c.cgroup);
            let used = Resources {
                cpu_milli: (cpu_used.round() as u64).min(eff.cpu_milli),
                memory_mib: charged.memory_mib,
                bandwidth_mbps: bw_demand.min(eff.bandwidth_mbps),
                disk_mib: charged.disk_mib,
            };
            match c.class {
                ServiceClass::Lc => lc += used,
                ServiceClass::Be => be += used,
            }
        }
        (lc, be)
    }

    /// Idle resources: capacity − LC-held − BE-held (saturating).
    pub fn idle(&self) -> Resources {
        let (lc, be) = self.demand_usage();
        self.capacity.saturating_sub(&lc).saturating_sub(&be)
    }

    /// Overall utilization in [0, 1] (demand-based, averaged over CPU and
    /// memory).
    pub fn utilization(&self) -> f64 {
        let (lc, be) = self.demand_usage();
        (lc + be).utilization_against(&self.capacity)
    }

    /// Number of requests currently running on the node.
    pub fn running_count(&self) -> usize {
        self.running_total
    }

    /// The BE requests currently running on the node, in container
    /// deployment order then admission order — the deterministic pod list
    /// the defragmentation planner consumes.
    pub fn running_be_pods(&self) -> impl Iterator<Item = (RequestId, ServiceId, Resources)> + '_ {
        self.containers
            .iter()
            .filter(|s| s.class == ServiceClass::Be)
            .flat_map(|s| s.running.iter().map(|r| (r.request, s.service, r.demand)))
    }

    /// The pod-level and container-level cgroups for a service — the two
    /// write targets of a D-VPA scaling operation (Fig. 5).
    pub fn scaling_cgroups(&self, service: ServiceId) -> Option<(CgroupId, CgroupId)> {
        self.container(service).map(Container::scaling_cgroups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u16, class: ServiceClass, cpu: u64, mem: u64, work: u64) -> ServiceSpec {
        ServiceSpec {
            id: ServiceId(id),
            name: format!("svc{id}"),
            class,
            min_request: Resources::cpu_mem(cpu, mem),
            work_milli_ms: work,
            qos_target: SimTime::from_millis(300),
            payload_kib: 64,
        }
    }

    fn node_with_service() -> (Node, ContainerId, ServiceSpec) {
        let mut n = Node::new(
            NodeId(1),
            ClusterId(0),
            false,
            Resources::new(4_000, 8_192, 1_000, 50_000),
        );
        let s = spec(0, ServiceClass::Lc, 500, 256, 50_000); // 100ms at 500m
        let ctr = n
            .deploy_service(&s, Resources::new(1_000, 1_024, 100, 1_000), SimTime::ZERO)
            .unwrap();
        (n, ctr, s)
    }

    #[test]
    fn qos_mapping_matches_regulations() {
        assert_eq!(qos_level_for(ServiceClass::Lc), QosLevel::Burstable);
        assert_eq!(qos_level_for(ServiceClass::Be), QosLevel::BestEffort);
    }

    #[test]
    fn deploy_creates_pod_and_container_cgroups() {
        let (mut n, ctr, s) = node_with_service();
        assert_eq!(n.container(s.id).map(|c| c.id), Some(ctr));
        let be = spec(1, ServiceClass::Be, 500, 256, 50_000);
        n.deploy_service(&be, Resources::new(1_000, 1_024, 100, 1_000), SimTime::ZERO)
            .unwrap();
        let (_, first) = n.scaling_cgroups(s.id).unwrap();
        assert_eq!(
            n.cgroups.path(first),
            "kubepods/burstable/pod100000000/ctr100000000"
        );
        for c in n.containers() {
            let qos = match c.class {
                ServiceClass::Lc => "burstable",
                ServiceClass::Be => "besteffort",
            };
            let pod = format!("kubepods/{qos}/pod{:x}", c.id.raw());
            let (pod_cg, ctr_cg) = n.scaling_cgroups(c.service).unwrap();
            assert_eq!(n.cgroups.path(pod_cg), pod);
            assert_eq!(n.cgroups.path(ctr_cg), format!("{pod}/ctr{:x}", c.id.raw()));
        }
    }

    #[test]
    fn duplicate_deploy_rejected() {
        let (mut n, _ctr, s) = node_with_service();
        assert!(n
            .deploy_service(&s, Resources::cpu_mem(100, 100), SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn crash_interrupts_everything_and_recover_rearms_after_delay() {
        let (mut n, _ctr, s) = node_with_service();
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        let gen_before = n.generation();
        let interrupted = n.crash(SimTime::from_millis(10));
        assert_eq!(interrupted.len(), 1);
        assert_eq!(interrupted[0].0, ServiceClass::Lc);
        assert_eq!(interrupted[0].1.request, RequestId(1));
        assert!(n.generation() > gen_before);
        // down: no container accepts work, nothing completes
        assert!(!n.is_available(s.id, SimTime::from_secs(1_000)));
        assert_eq!(n.next_completion(SimTime::from_secs(1)), None);
        // recover: cold restart, ready after the delay
        n.recover(SimTime::from_secs(2), SimTime::from_millis(200));
        assert!(!n.is_available(s.id, SimTime::from_secs(2)));
        assert!(n.is_available(s.id, SimTime::from_secs(2) + SimTime::from_millis(200)));
    }

    #[test]
    fn single_request_completes_at_nominal_time() {
        let (mut n, _ctr, s) = node_with_service();
        // demand 500m; container limit 1000m; share=1000 capped at 500
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        let proj = n.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(proj, SimTime::from_millis(100));
        n.advance(SimTime::from_millis(100));
        let done = n.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].request, RequestId(1));
    }

    #[test]
    fn work_running_out_at_the_crash_instant_is_a_completion_not_an_interruption() {
        let (mut n, _ctr, s) = node_with_service();
        for (id, at) in [(1, SimTime::ZERO), (2, SimTime::from_millis(40))] {
            n.admit(
                RequestId(id),
                s.id,
                s.min_request,
                s.work_milli_ms as f64,
                at,
            )
            .unwrap();
        }
        // request 1's work runs out at exactly 100 ms, when the node dies
        let crash_at = SimTime::from_millis(100);
        n.advance(crash_at);
        let done = n.take_completions();
        assert_eq!(
            done.iter().map(|c| c.request).collect::<Vec<_>>(),
            vec![RequestId(1)]
        );
        let interrupted = n.crash(crash_at);
        assert_eq!(
            interrupted
                .iter()
                .map(|(_, r)| r.request)
                .collect::<Vec<_>>(),
            vec![RequestId(2)]
        );
        assert!(n.take_completions().is_empty());
    }

    #[test]
    fn two_requests_share_the_limit() {
        let (mut n, _ctr, s) = node_with_service();
        // shrink container (and pod) to 500m so two requests contend:
        let (pod_cg, ctr_cg) = n.scaling_cgroups(s.id).unwrap();
        let lim = Resources::new(500, 1_024, 100, 1_000);
        n.cgroups.set_limit(ctr_cg, lim).unwrap();
        n.cgroups.set_limit(pod_cg, lim).unwrap();
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        n.admit(
            RequestId(2),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        // each gets 250m -> 200ms
        assert_eq!(
            n.next_completion(SimTime::ZERO).unwrap(),
            SimTime::from_millis(200)
        );
        assert_eq!(n.container(s.id).unwrap().running.len(), 2);
    }

    #[test]
    fn rate_is_capped_by_demand() {
        let (mut n, _ctr, s) = node_with_service();
        // limit 1000m, single request demanding 500m: rate stays 500m
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(
            n.next_completion(SimTime::ZERO).unwrap(),
            SimTime::from_millis(100)
        );
    }

    #[test]
    fn dvpa_style_expansion_speeds_up_in_flight_requests() {
        let (mut n, _ctr, s) = node_with_service();
        let lim = Resources::new(500, 1_024, 100, 1_000);
        let (pod_cg, ctr_cg) = n.scaling_cgroups(s.id).unwrap();
        n.cgroups.set_limit(ctr_cg, lim).unwrap();
        n.cgroups.set_limit(pod_cg, lim).unwrap();
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        n.admit(
            RequestId(2),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        // run 100ms at 250m each: half the work left
        n.advance(SimTime::from_millis(100));
        assert!(n.take_completions().is_empty());
        // expand pod then container to 1000m (ordered like D-VPA)
        let big = Resources::new(1_000, 1_024, 100, 1_000);
        n.cgroups.set_limit(pod_cg, big).unwrap();
        n.cgroups.set_limit(ctr_cg, big).unwrap();
        n.touch();
        // each now runs at 500m: remaining 25_000 mcore·ms -> 50ms
        assert_eq!(
            n.next_completion(SimTime::from_millis(100)).unwrap(),
            SimTime::from_millis(150)
        );
        n.advance(SimTime::from_millis(150));
        assert_eq!(n.take_completions().len(), 2);
    }

    #[test]
    fn memory_admission_is_enforced() {
        let (mut n, _ctr, s) = node_with_service();
        // container mem limit 1024 MiB; each request charges 256 MiB
        for i in 0..4 {
            n.admit(
                RequestId(i),
                s.id,
                s.min_request,
                s.work_milli_ms as f64,
                SimTime::ZERO,
            )
            .unwrap();
        }
        let err = n
            .admit(
                RequestId(9),
                s.id,
                s.min_request,
                s.work_milli_ms as f64,
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, TangoError::InsufficientResources { .. }));
    }

    #[test]
    fn kill_container_interrupts_and_blocks_admission() {
        let (mut n, _ctr, s) = node_with_service();
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        let ready = SimTime::from_millis(2_300);
        let interrupted = n
            .kill_container(s.id, SimTime::from_millis(10), ready)
            .unwrap();
        assert_eq!(interrupted.len(), 1);
        assert_eq!(n.running_count(), 0);
        assert!(!n.is_available(s.id, SimTime::from_millis(100)));
        assert!(n
            .admit(
                RequestId(2),
                s.id,
                s.min_request,
                s.work_milli_ms as f64,
                SimTime::from_millis(100)
            )
            .is_err());
        // after rebuild completes, admission works again
        assert!(n.is_available(s.id, ready));
        n.admit(
            RequestId(3),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            ready,
        )
        .unwrap();
        assert_eq!(n.container(s.id).unwrap().restarts, 1);
        // memory was uncharged on kill: still admissible to the limit
        assert_eq!(n.running_count(), 1);
    }

    #[test]
    fn demand_usage_splits_classes_and_idle_subtracts() {
        let (mut n, _ctr, s) = node_with_service();
        let be = spec(1, ServiceClass::Be, 400, 512, 1_000_000);
        n.deploy_service(
            &be,
            Resources::new(2_000, 4_096, 100, 10_000),
            SimTime::ZERO,
        )
        .unwrap();
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        n.admit(
            RequestId(2),
            be.id,
            be.min_request,
            be.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        let (lc, beu) = n.demand_usage();
        assert_eq!(lc.cpu_milli, 500);
        assert_eq!(beu.cpu_milli, 400);
        assert_eq!(n.idle().cpu_milli, 4_000 - 900);
        assert!(n.utilization() > 0.0);
    }

    #[test]
    fn detach_carries_residual_work_and_admit_resumes_it() {
        let (mut n, _ctr, s) = node_with_service();
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        // half the 100 ms nominal runtime elapses before the detach
        let r = n
            .detach_request(RequestId(1), SimTime::from_millis(50))
            .expect("running request detaches");
        assert_eq!(r.request, RequestId(1));
        assert!(
            (r.remaining_work - 25_000.0).abs() < 1.0,
            "{}",
            r.remaining_work
        );
        assert_eq!(n.running_count(), 0);
        assert_eq!(n.container(s.id).unwrap().running.len(), 0);
        // incompressibles were uncharged: the container can fill up again
        for i in 0..4 {
            n.admit(
                RequestId(10 + i),
                s.id,
                s.min_request,
                s.work_milli_ms as f64,
                SimTime::from_millis(50),
            )
            .unwrap();
        }
        // a second detach of the same id finds nothing
        assert!(n
            .detach_request(RequestId(1), SimTime::from_millis(51))
            .is_none());

        // the destination resumes from the residue, not the nominal work
        let (mut dst, _ctr2, s2) = node_with_service();
        dst.admit(
            r.request,
            s2.id,
            r.demand,
            r.remaining_work,
            SimTime::from_millis(60),
        )
        .unwrap();
        // 25_000 mcore·ms at 500 m -> 50 ms
        assert_eq!(
            dst.next_completion(SimTime::from_millis(60)).unwrap(),
            SimTime::from_millis(110)
        );
    }

    #[test]
    fn unknown_service_admission_fails() {
        let (mut n, _ctr, _s) = node_with_service();
        assert!(matches!(
            n.admit(
                RequestId(1),
                ServiceId(42),
                Resources::cpu_mem(1, 1),
                10.0,
                SimTime::ZERO
            ),
            Err(TangoError::Unschedulable(_))
        ));
    }

    #[test]
    fn generation_bumps_on_changes() {
        let (mut n, _ctr, s) = node_with_service();
        let g0 = n.generation();
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(n.generation() > g0);
        let g1 = n.generation();
        n.advance(SimTime::from_millis(100)); // completion occurs
        assert!(n.generation() > g1);
    }

    #[test]
    fn zero_cpu_limit_stalls_but_does_not_panic() {
        let (mut n, _ctr, s) = node_with_service();
        let (pod_cg, ctr_cg) = n.scaling_cgroups(s.id).unwrap();
        n.admit(
            RequestId(1),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            SimTime::ZERO,
        )
        .unwrap();
        let zero = Resources::new(0, 1_024, 100, 1_000);
        n.cgroups.set_limit(ctr_cg, zero).unwrap();
        n.cgroups.set_limit(pod_cg, zero).unwrap();
        assert_eq!(n.next_completion(SimTime::ZERO), None);
        n.advance(SimTime::from_secs(10));
        assert!(n.take_completions().is_empty());
    }
}
