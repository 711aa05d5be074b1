//! Nodes and the processor-sharing execution model.
//!
//! A node owns a CGroup tree and a set of continuously-running service
//! pods. Request execution follows the model the paper's twin space is
//! calibrated with: a request of service k carries `work` millicore-
//! milliseconds of CPU work; the requests inside a container share its
//! *effective* CPU limit equally, each capped by its own CPU demand
//! (a request cannot exploit more parallelism than it asked for). Memory
//! and disk are charged to the container's cgroup for the request's whole
//! residency — that is what makes them incompressible.
//!
//! The node is advanced lazily: [`Node::advance`] integrates progress
//! since the last call at the *current* rates, so any limit change (D-VPA)
//! or admission simply requires advancing first. A generation counter lets
//! the event loop discard stale completion projections.

use crate::pod::{qos_level_for, Container, Pod};
use tango_cgroup::{CgroupFs, CgroupId, QosLevel};
use tango_types::FxHashMap;
use tango_types::{
    ClusterId, ContainerId, NodeId, PodId, RequestId, Resources, ServiceClass, ServiceId,
    ServiceSpec, SimTime, TangoError,
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

#[derive(Debug)]
struct ContainerState {
    meta: Container,
    running: Vec<RunningRequest>,
    /// Set while a native-VPA rebuild (or eviction restart) is in flight.
    unavailable_until: SimTime,
    /// Cached effective limit, valid while `eff_epoch` matches the cgroup
    /// tree's limit epoch. The execution integrator reads the effective
    /// limit on every advance/projection; limits only move on D-VPA or
    /// rebuild events, so this hits almost always.
    eff: Resources,
    eff_epoch: u64,
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
    pods: FxHashMap<PodId, Pod>,
    /// Container states, dense in deployment order (== ascending id order,
    /// since local ids are allocated sequentially). The execution
    /// integrator walks this on every advance/projection, so it must be a
    /// flat scan, not a hash-map iteration.
    containers: Vec<ContainerState>,
    index: FxHashMap<ContainerId, usize>,
    by_service: FxHashMap<ServiceId, usize>,
    /// Requests currently running across all containers — the early-out
    /// for advance/projection on idle nodes.
    running_total: usize,
    last_advance: SimTime,
    generation: u64,
    next_local_id: u64,
    finished: Vec<CompletedRequest>,
    /// Last sync tick at which this node answered its keep-alive probe.
    /// Observational only (read by the control-plane mirror); it is not
    /// part of the node's snapshot codec, so a restored run re-learns
    /// heartbeats from its first sync tick.
    last_heartbeat: SimTime,
}

/// The container's effective limit through the per-container cache.
fn cached_eff(cgroups: &CgroupFs, state: &mut ContainerState) -> Resources {
    let epoch = cgroups.limit_epoch();
    if state.eff_epoch != epoch {
        state.eff = cgroups.effective_limit(state.meta.cgroup);
        state.eff_epoch = epoch;
    }
    state.eff
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
            pods: FxHashMap::default(),
            containers: Vec::new(),
            index: FxHashMap::default(),
            by_service: FxHashMap::default(),
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

    fn alloc_ids(&mut self) -> (PodId, ContainerId) {
        let seq = self.next_local_id;
        self.next_local_id += 1;
        let base = (self.id.raw() as u64) << 32 | seq;
        (PodId(base), ContainerId(base))
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
        if self.by_service.contains_key(&spec.id) {
            return Err(TangoError::Config(format!(
                "service {} already deployed on {}",
                spec.id, self.id
            )));
        }
        let qos = qos_level_for(spec.class);
        let (pod_id, ctr_id) = self.alloc_ids();
        let qos_group = self.cgroups.qos_group(qos);
        let pod_cg =
            self.cgroups
                .create(qos_group, &format!("pod{:x}", pod_id.raw()), initial_limit)?;
        let ctr_cg =
            self.cgroups
                .create(pod_cg, &format!("ctr{:x}", ctr_id.raw()), initial_limit)?;
        let pod = Pod {
            id: pod_id,
            service: spec.id,
            qos,
            cgroup: pod_cg,
            container: ctr_id,
        };
        let meta = Container {
            id: ctr_id,
            pod: pod_id,
            service: spec.id,
            class: spec.class,
            cgroup: ctr_cg,
            restarts: 0,
        };
        self.pods.insert(pod_id, pod);
        let slot = self.containers.len();
        self.containers.push(ContainerState {
            meta,
            running: Vec::new(),
            unavailable_until: SimTime::ZERO,
            eff: Resources::ZERO,
            eff_epoch: 0,
        });
        self.index.insert(ctr_id, slot);
        self.by_service.insert(spec.id, slot);
        self.touch();
        Ok(ctr_id)
    }

    fn state(&self, id: ContainerId) -> Option<&ContainerState> {
        self.index.get(&id).map(|&i| &self.containers[i])
    }

    fn state_mut(&mut self, id: ContainerId) -> Option<&mut ContainerState> {
        self.index.get(&id).map(|&i| &mut self.containers[i])
    }

    /// Container hosting a service, if deployed.
    pub fn container_for(&self, service: ServiceId) -> Option<ContainerId> {
        self.by_service
            .get(&service)
            .map(|&i| self.containers[i].meta.id)
    }

    /// Container metadata.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.state(id).map(|c| &c.meta)
    }

    /// The pod owning a container.
    pub fn pod_of(&self, ctr: ContainerId) -> Option<&Pod> {
        self.state(ctr).and_then(|c| self.pods.get(&c.meta.pod))
    }

    /// All deployed containers (deterministic order by id — local ids are
    /// allocated sequentially, so deployment order is id order).
    pub fn container_ids(&self) -> Vec<ContainerId> {
        self.containers.iter().map(|c| c.meta.id).collect()
    }

    /// Requests running in a container.
    pub fn running_in(&self, ctr: ContainerId) -> &[RunningRequest] {
        self.state(ctr).map(|c| c.running.as_slice()).unwrap_or(&[])
    }

    /// Whether the container can accept requests at `now` (not mid-rebuild).
    pub fn is_available(&self, ctr: ContainerId, now: SimTime) -> bool {
        self.state(ctr)
            .map(|c| c.unavailable_until <= now)
            .unwrap_or(false)
    }

    /// Mark a container unavailable until `until` (rebuild in progress).
    pub fn set_unavailable_until(&mut self, ctr: ContainerId, until: SimTime) {
        if let Some(c) = self.state_mut(ctr) {
            c.unavailable_until = until;
            self.generation += 1;
        }
    }

    /// Effective CPU limit of a container (min over its cgroup path).
    pub fn effective_cpu(&self, ctr: ContainerId) -> u64 {
        self.state(ctr)
            .map(|c| self.cgroups.effective_limit(c.meta.cgroup).cpu_milli)
            .unwrap_or(0)
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
        for state in &mut self.containers {
            let m = state.running.len();
            if m == 0 {
                continue;
            }
            let eff = cached_eff(cgroups, state).cpu_milli;
            for r in &mut state.running {
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
            for state in containers.iter_mut() {
                let mut i = 0;
                while i < state.running.len() {
                    if state.running[i].remaining_work <= WORK_EPSILON {
                        let r = state.running.swap_remove(i);
                        *running_total -= 1;
                        let (_, incompressible) = r.demand.split_compressible();
                        cgroups.uncharge(state.meta.cgroup, incompressible);
                        finished.push(CompletedRequest {
                            request: r.request,
                            service: state.meta.service,
                            class: state.meta.class,
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
        let slot = self.by_service.get(&service).copied().ok_or_else(|| {
            TangoError::Unschedulable(format!("{service} not deployed on {}", self.id))
        })?;
        let state = &self.containers[slot];
        if state.unavailable_until > now {
            return Err(TangoError::Unschedulable(format!(
                "container {} rebuilding until {}",
                state.meta.id, state.unavailable_until
            )));
        }
        let (_, incompressible) = demand.split_compressible();
        self.cgroups.charge(state.meta.cgroup, incompressible)?;
        self.containers[slot].running.push(RunningRequest {
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
        for state in &mut self.containers {
            if let Some(i) = state.running.iter().position(|r| r.request == request) {
                let r = state.running.remove(i);
                self.running_total -= 1;
                let (_, incompressible) = r.demand.split_compressible();
                self.cgroups.uncharge(state.meta.cgroup, incompressible);
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
        for state in &mut self.containers {
            let m = state.running.len();
            if m == 0 {
                continue;
            }
            let eff = cached_eff(cgroups, state).cpu_milli;
            for r in &state.running {
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

    /// Kill a container: interrupt all running requests (uncharging them)
    /// and mark the container unavailable until `ready_at`. Returns the
    /// interrupted requests — the caller decides whether to requeue or
    /// fail them. Used by the native VPA's delete-and-rebuild and by BE
    /// eviction under the §4.1 regulations.
    pub fn kill_container(
        &mut self,
        ctr: ContainerId,
        now: SimTime,
        ready_at: SimTime,
    ) -> Result<Vec<RunningRequest>, TangoError> {
        self.advance(now);
        let slot = self
            .index
            .get(&ctr)
            .copied()
            .ok_or(TangoError::UnknownContainer(ctr))?;
        let state = &mut self.containers[slot];
        let interrupted = std::mem::take(&mut state.running);
        self.running_total -= interrupted.len();
        let state = &mut self.containers[slot];
        let cg = state.meta.cgroup;
        state.meta.restarts += 1;
        state.unavailable_until = ready_at;
        for r in &interrupted {
            let (_, incompressible) = r.demand.split_compressible();
            self.cgroups.uncharge(cg, incompressible);
        }
        self.generation += 1;
        Ok(interrupted)
    }

    /// Crash the node: every container is killed (interrupting all
    /// running requests, uncharging their incompressibles, bumping
    /// restart counts) and left unavailable until recovery re-arms it.
    /// Returns the interrupted requests with their service class — the
    /// system decides whether each one fails or is rescheduled.
    pub fn crash(&mut self, now: SimTime) -> Vec<(ServiceClass, RunningRequest)> {
        let mut out = Vec::new();
        for ctr in self.container_ids() {
            let class = self
                .container(ctr)
                .map(|c| c.class)
                .unwrap_or(ServiceClass::Be);
            if let Ok(interrupted) = self.kill_container(ctr, now, SimTime::MAX) {
                out.extend(interrupted.into_iter().map(|r| (class, r)));
            }
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
        for ctr in self.container_ids() {
            self.set_unavailable_until(ctr, ready);
        }
    }

    /// Demand-based usage: (LC-held, BE-held) resources summed over
    /// running requests. This is what the state storage reports and the
    /// §4.1 regulations reason over.
    pub fn demand_usage(&self) -> (Resources, Resources) {
        let mut lc = Resources::ZERO;
        let mut be = Resources::ZERO;
        for state in &self.containers {
            for r in &state.running {
                match state.meta.class {
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
        for state in &self.containers {
            let m = state.running.len();
            if m == 0 {
                continue;
            }
            let eff = self.cgroups.effective_limit(state.meta.cgroup);
            let cpu_used: f64 = state
                .running
                .iter()
                .map(|r| Self::rate(eff.cpu_milli, m, r.demand.cpu_milli))
                .sum();
            let bw_demand: u64 = state.running.iter().map(|r| r.demand.bandwidth_mbps).sum();
            let charged = self.cgroups.usage(state.meta.cgroup);
            let used = Resources {
                cpu_milli: (cpu_used.round() as u64).min(eff.cpu_milli),
                memory_mib: charged.memory_mib,
                bandwidth_mbps: bw_demand.min(eff.bandwidth_mbps),
                disk_mib: charged.disk_mib,
            };
            match state.meta.class {
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
            .filter(|s| s.meta.class == ServiceClass::Be)
            .flat_map(|s| {
                s.running
                    .iter()
                    .map(|r| (r.request, s.meta.service, r.demand))
            })
    }

    /// QoS level of a container's pod.
    pub fn qos_of(&self, ctr: ContainerId) -> Option<QosLevel> {
        self.pod_of(ctr).map(|p| p.qos)
    }

    // --- checkpoint plumbing (see the `snapshot` module) ---

    pub(crate) fn snap_last_advance(&self) -> SimTime {
        self.last_advance
    }

    pub(crate) fn snap_next_local_id(&self) -> u64 {
        self.next_local_id
    }

    pub(crate) fn snap_finished(&self) -> &[CompletedRequest] {
        &self.finished
    }

    pub(crate) fn snap_unavailable_until(&self, ctr: ContainerId) -> SimTime {
        self.state(ctr)
            .map(|c| c.unavailable_until)
            .unwrap_or(SimTime::ZERO)
    }

    pub(crate) fn snap_apply(
        &mut self,
        last_advance: SimTime,
        generation: u64,
        next_local_id: u64,
        finished: Vec<CompletedRequest>,
    ) {
        self.last_advance = last_advance;
        self.generation = generation;
        self.next_local_id = next_local_id;
        self.finished = finished;
    }

    pub(crate) fn snap_apply_container(
        &mut self,
        ctr: ContainerId,
        restarts: u32,
        unavailable_until: SimTime,
        running: Vec<RunningRequest>,
    ) -> Result<(), tango_snap::SnapError> {
        let slot = self
            .index
            .get(&ctr)
            .copied()
            .ok_or(tango_snap::SnapError::Corrupt("unknown container id"))?;
        let state = &mut self.containers[slot];
        self.running_total -= state.running.len();
        self.running_total += running.len();
        state.meta.restarts = restarts;
        state.unavailable_until = unavailable_until;
        state.running = running;
        Ok(())
    }

    /// The pod-level and container-level cgroups for a service — the two
    /// write targets of a D-VPA scaling operation (Fig. 5).
    pub fn scaling_cgroups(&self, service: ServiceId) -> Option<(CgroupId, CgroupId)> {
        let ctr = self.container_for(service)?;
        let pod = self.pod_of(ctr)?;
        let c = self.state(ctr)?;
        Some((pod.cgroup, c.meta.cgroup))
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
    fn deploy_creates_pod_and_container_cgroups() {
        let (n, ctr, s) = node_with_service();
        assert_eq!(n.container_for(s.id), Some(ctr));
        let (pod_cg, ctr_cg) = n.scaling_cgroups(s.id).unwrap();
        assert_ne!(pod_cg, ctr_cg);
        assert!(n.cgroups.path(ctr_cg).starts_with("kubepods/burstable/pod"));
        assert_eq!(n.qos_of(ctr), Some(QosLevel::Burstable));
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
        let (mut n, ctr, s) = node_with_service();
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
        assert!(!n.is_available(ctr, SimTime::from_secs(1_000)));
        assert_eq!(n.next_completion(SimTime::from_secs(1)), None);
        // recover: cold restart, ready after the delay
        n.recover(SimTime::from_secs(2), SimTime::from_millis(200));
        assert!(!n.is_available(ctr, SimTime::from_secs(2)));
        assert!(n.is_available(ctr, SimTime::from_secs(2) + SimTime::from_millis(200)));
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
        let (mut n, ctr, s) = node_with_service();
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
        assert_eq!(n.running_in(ctr).len(), 2);
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
        let (mut n, ctr, s) = node_with_service();
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
            .kill_container(ctr, SimTime::from_millis(10), ready)
            .unwrap();
        assert_eq!(interrupted.len(), 1);
        assert_eq!(n.running_count(), 0);
        assert!(!n.is_available(ctr, SimTime::from_millis(100)));
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
        assert!(n.is_available(ctr, ready));
        n.admit(
            RequestId(3),
            s.id,
            s.min_request,
            s.work_milli_ms as f64,
            ready,
        )
        .unwrap();
        assert_eq!(n.container(ctr).unwrap().restarts, 1);
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
        let (mut n, ctr, s) = node_with_service();
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
        assert_eq!(n.running_in(ctr).len(), 0);
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
