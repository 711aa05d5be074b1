//! The cgroup tree model.

use tango_types::{ContainerId, ResourceKind, Resources, TangoError};

/// Index of a cgroup within a [`CgroupFs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CgroupId(usize);

/// The K8s QoS level directories under `kubepods`.
///
/// K8s derives these from the pod spec: Guaranteed (requests == limits),
/// Burstable (requests < limits), BestEffort (no requests). Tango maps LC
/// services to Burstable (so D-VPA can stretch them) and BE services to
/// BestEffort (lowest eviction priority, §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosLevel {
    /// `kubepods/guaranteed`
    Guaranteed,
    /// `kubepods/burstable`
    Burstable,
    /// `kubepods/besteffort`
    BestEffort,
}

impl QosLevel {
    /// Path of the level's group.
    pub const fn path(self) -> &'static str {
        match self {
            QosLevel::Guaranteed => "kubepods/guaranteed",
            QosLevel::Burstable => "kubepods/burstable",
            QosLevel::BestEffort => "kubepods/besteffort",
        }
    }

    /// All levels, in K8s eviction priority order (evicted last → first).
    pub const ALL: [QosLevel; 3] = [
        QosLevel::Guaranteed,
        QosLevel::Burstable,
        QosLevel::BestEffort,
    ];
}

/// Where a group sits in the tree; its name is formatted from this.
#[derive(Debug, Clone, Copy)]
enum Place {
    Root,
    Qos(QosLevel),
    /// A pod, labelled by the id of the one container it holds.
    Pod(ContainerId),
    Container(ContainerId),
}

#[derive(Debug)]
pub(crate) struct Group {
    place: Place,
    pub(crate) parent: Option<usize>,
    pub(crate) limit: Resources,
    pub(crate) usage: Resources,
}

/// A node's cgroup tree rooted at `kubepods`, fixed at deployment.
///
/// The root's limit is the node's allocatable capacity; the three QoS-level
/// groups sit directly below it, then one pod per deployed service under
/// its QoS group, and the pod's one container below that. Tango's pods run
/// continuously and D-VPA resizes them in place, so no group is ever
/// removed or renamed: a group's index is its identity, and only limits
/// and usage change.
#[derive(Debug)]
pub struct CgroupFs {
    /// The root, the QoS groups in [`QosLevel::ALL`] order, then each
    /// pod followed by its container.
    pub(crate) groups: Vec<Group>,
    /// Bumped on every create and limit write — anything that can move
    /// an effective limit. Lets callers cache `effective_limit` results
    /// and revalidate with one integer compare.
    pub(crate) limit_epoch: u64,
}

/// Root path constant.
const ROOT: &str = "kubepods";

/// Index of a QoS-level group.
fn qos_index(level: QosLevel) -> usize {
    1 + level as usize
}

/// Append `label` and `id` in lower-case hex, as `{label}{id:x}` would,
/// without the formatter: a checkpoint writes the path of every group of
/// every node.
fn push_label(out: &mut String, label: &str, id: ContainerId) {
    let mut hex = [0; 16];
    let mut start = hex.len();
    let mut rest = id.raw();
    loop {
        start -= 1;
        hex[start] = b"0123456789abcdef"[(rest & 0xf) as usize];
        rest >>= 4;
        if rest == 0 {
            break;
        }
    }
    out.push_str(label);
    out.push_str(std::str::from_utf8(&hex[start..]).expect("hex digits are ASCII"));
}

impl CgroupFs {
    /// Create a tree whose root (`kubepods`) is limited to `capacity` and
    /// with the three QoS-level groups pre-created (each initially allowed
    /// the full node capacity, as K8s does — the QoS groups are priority
    /// bands, not static partitions).
    pub fn new(capacity: Resources) -> Self {
        let group = |place, parent| Group {
            place,
            parent,
            limit: capacity,
            usage: Resources::ZERO,
        };
        let mut groups = Vec::with_capacity(8);
        groups.push(group(Place::Root, None));
        groups.extend(QosLevel::ALL.map(|level| group(Place::Qos(level), Some(0))));
        CgroupFs {
            groups,
            limit_epoch: 1,
        }
    }

    /// Create a pod under `level`'s group and its one container under the
    /// pod, both labelled `id` and limited to `limit`; returns the pod and
    /// the container. Fails if `limit` exceeds the QoS group's.
    pub fn create_pod(
        &mut self,
        level: QosLevel,
        id: ContainerId,
        limit: Resources,
    ) -> Result<(CgroupId, CgroupId), TangoError> {
        let qos = qos_index(level);
        if !limit.fits_within(&self.groups[qos].limit) {
            return Err(TangoError::CgroupViolation(format!(
                "initial limit for pod{:x} exceeds {} limit",
                id.raw(),
                self.path(CgroupId(qos))
            )));
        }
        let pod = self.groups.len();
        for (place, parent) in [(Place::Pod(id), qos), (Place::Container(id), pod)] {
            self.groups.push(Group {
                place,
                parent: Some(parent),
                limit,
                usage: Resources::ZERO,
            });
        }
        self.limit_epoch += 1;
        Ok((CgroupId(pod), CgroupId(pod + 1)))
    }

    /// Full path of a group, e.g. `kubepods/burstable/pod1/ctr1`. Formatted
    /// on each call, for display and error text.
    pub fn path(&self, id: CgroupId) -> String {
        let mut out = String::new();
        if let (Place::Container(_), Some(pod)) =
            (self.groups[id.0].place, self.groups[id.0].parent)
        {
            self.step_path(pod, &mut out);
        }
        self.step_path(id.0, &mut out);
        out
    }

    /// Turn `path` from group `idx - 1`'s path into group `idx`'s. Table
    /// walks go in index order, and each container directly follows its
    /// pod, so a container's path only extends the one before it.
    pub(crate) fn step_path(&self, idx: usize, path: &mut String) {
        let g = &self.groups[idx];
        match g.place {
            Place::Root | Place::Qos(_) => path.clear(),
            Place::Pod(_) => self.step_path(g.parent.expect("a pod has a QoS group"), path),
            Place::Container(_) => {}
        }
        match g.place {
            Place::Root => path.push_str(ROOT),
            Place::Qos(level) => path.push_str(level.path()),
            Place::Pod(id) => push_label(path, "/pod", id),
            Place::Container(id) => push_label(path, "/ctr", id),
        }
    }

    /// Group `idx`'s children, in creation order. A child is always
    /// created after its parent: the QoS groups with the tree, pods after
    /// them, and each container right after its pod; so only that range is
    /// searched.
    pub(crate) fn children(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        let range = match self.groups[idx].place {
            Place::Root => 1..1 + QosLevel::ALL.len(),
            Place::Qos(_) => idx + 1..self.groups.len(),
            Place::Pod(_) => idx + 1..idx + 2,
            Place::Container(_) => idx..idx,
        };
        range.filter(move |&c| self.groups[c].parent == Some(idx))
    }

    /// Write a new limit to a cgroup's control files.
    ///
    /// Kernel-faithful rejection rules (the reason D-VPA's write order
    /// matters):
    /// 1. the new limit may not exceed the parent's current limit;
    /// 2. the new limit may not be below any child's current limit;
    /// 3. incompressible dimensions (memory, disk) may not shrink below
    ///    current usage — compressible ones (CPU, bandwidth) may (that is
    ///    throttling).
    pub fn set_limit(&mut self, id: CgroupId, new_limit: Resources) -> Result<(), TangoError> {
        let g = &self.groups[id.0];
        if let Some(p) = g.parent {
            if !new_limit.fits_within(&self.groups[p].limit) {
                return Err(TangoError::CgroupViolation(format!(
                    "limit for {} would exceed parent {} limit",
                    self.path(id),
                    self.path(CgroupId(p))
                )));
            }
        }
        if let Some(c) = self
            .children(id.0)
            .find(|&c| !self.groups[c].limit.fits_within(&new_limit))
        {
            return Err(TangoError::CgroupViolation(format!(
                "limit for {} would fall below child {} limit",
                self.path(id),
                self.path(CgroupId(c))
            )));
        }
        for kind in [ResourceKind::Memory, ResourceKind::Disk] {
            if new_limit.get(kind) < g.usage.get(kind) {
                return Err(TangoError::CgroupViolation(format!(
                    "cannot shrink incompressible {kind:?} of {} below usage",
                    self.path(id)
                )));
            }
        }
        self.groups[id.0].limit = new_limit;
        self.limit_epoch += 1;
        Ok(())
    }

    /// Epoch of the last create or limit write (see field docs).
    pub fn limit_epoch(&self) -> u64 {
        self.limit_epoch
    }

    /// The limit written on this cgroup itself.
    pub fn limit(&self, id: CgroupId) -> Resources {
        self.groups[id.0].limit
    }

    /// The *effective* limit: the element-wise minimum over this cgroup and
    /// all its ancestors. This is what the kernel actually enforces.
    pub fn effective_limit(&self, id: CgroupId) -> Resources {
        let mut eff = self.groups[id.0].limit;
        let mut cur = self.groups[id.0].parent;
        while let Some(p) = cur {
            eff = eff.min(&self.groups[p].limit);
            cur = self.groups[p].parent;
        }
        eff
    }

    /// Current charged usage of this cgroup (includes descendants' charges).
    pub fn usage(&self, id: CgroupId) -> Resources {
        self.groups[id.0].usage
    }

    /// Charge `amount` of usage to a cgroup and every ancestor. Fails (with
    /// no partial effect) if any group on the path would exceed its own
    /// limit — the moral equivalent of the kernel's OOM/throttle boundary.
    pub fn charge(&mut self, id: CgroupId, amount: Resources) -> Result<(), TangoError> {
        // validate the whole path first
        let mut cur = Some(id.0);
        while let Some(i) = cur {
            let g = &self.groups[i];
            let after = g.usage + amount;
            if !after.fits_within(&g.limit) {
                return Err(TangoError::InsufficientResources {
                    requested: amount,
                    available: g.limit.saturating_sub(&g.usage),
                });
            }
            cur = g.parent;
        }
        let mut cur = Some(id.0);
        while let Some(i) = cur {
            self.groups[i].usage += amount;
            cur = self.groups[i].parent;
        }
        Ok(())
    }

    /// Release previously charged usage along the ancestor path.
    /// Saturates rather than underflowing if accounting drifted.
    pub fn uncharge(&mut self, id: CgroupId, amount: Resources) {
        let mut cur = Some(id.0);
        while let Some(i) = cur {
            self.groups[i].usage = self.groups[i].usage.saturating_sub(&amount);
            cur = self.groups[i].parent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT_ID: CgroupId = CgroupId(0);

    fn cap() -> Resources {
        Resources::new(4_000, 8_192, 1_000, 50_000)
    }

    /// A Burstable pod limited to 1000m, its container to 500m.
    fn fs_with_pod() -> (CgroupFs, CgroupId, CgroupId) {
        let mut fs = CgroupFs::new(cap());
        let (pod, ctr) = fs
            .create_pod(
                QosLevel::Burstable,
                ContainerId(0x67f7df),
                Resources::new(1_000, 1_024, 100, 1_000),
            )
            .unwrap();
        fs.set_limit(ctr, Resources::new(500, 512, 50, 500))
            .unwrap();
        (fs, pod, ctr)
    }

    #[test]
    fn layout_matches_kubepods_hierarchy() {
        let (mut fs, pod, ctr) = fs_with_pod();
        let (pod2, ctr2) = fs
            .create_pod(QosLevel::BestEffort, ContainerId(0xa), Resources::ZERO)
            .unwrap();
        assert_eq!(fs.path(ROOT_ID), "kubepods");
        for level in QosLevel::ALL {
            let qos = CgroupId(qos_index(level));
            assert_eq!(fs.path(qos), level.path());
        }
        assert_eq!(fs.path(pod), "kubepods/burstable/pod67f7df");
        assert_eq!(fs.path(ctr), "kubepods/burstable/pod67f7df/ctr67f7df");
        assert_eq!(fs.path(pod2), "kubepods/besteffort/poda");
        assert_eq!(fs.path(ctr2), "kubepods/besteffort/poda/ctra");

        let children = |id: CgroupId| fs.children(id.0).collect::<Vec<_>>();
        assert_eq!(children(ROOT_ID), [1, 2, 3]);
        assert!(children(CgroupId(qos_index(QosLevel::Guaranteed))).is_empty());
        assert_eq!(children(CgroupId(qos_index(QosLevel::Burstable))), [pod.0]);
        assert_eq!(
            children(CgroupId(qos_index(QosLevel::BestEffort))),
            [pod2.0]
        );
        assert_eq!(children(pod), [ctr.0]);
        assert!(children(ctr).is_empty());
    }

    #[test]
    fn expand_container_before_pod_fails_but_pod_first_succeeds() {
        let (mut fs, pod, ctr) = fs_with_pod();
        let bigger = Resources::new(2_000, 2_048, 200, 2_000);

        // Wrong order: container first — exceeds the pod limit -> rejected.
        let err = fs.set_limit(ctr, bigger).unwrap_err();
        assert!(matches!(err, TangoError::CgroupViolation(_)));

        // Right order (Fig. 5): pod level first, then container level.
        fs.set_limit(pod, bigger).unwrap();
        fs.set_limit(ctr, bigger).unwrap();
        assert_eq!(fs.limit(ctr), bigger);
    }

    #[test]
    fn shrink_pod_before_container_fails_but_container_first_succeeds() {
        let (mut fs, pod, ctr) = fs_with_pod();
        let smaller = Resources::new(250, 256, 25, 250);

        // Wrong order: pod first would fall below the container's limit.
        let err = fs.set_limit(pod, smaller).unwrap_err();
        assert!(matches!(err, TangoError::CgroupViolation(_)));

        // Right order: container level first, then pod level.
        fs.set_limit(ctr, smaller).unwrap();
        fs.set_limit(pod, smaller).unwrap();
        assert_eq!(fs.effective_limit(ctr), smaller);
    }

    #[test]
    fn incompressible_cannot_shrink_below_usage() {
        let (mut fs, _pod, ctr) = fs_with_pod();
        fs.charge(ctr, Resources::cpu_mem(400, 400)).unwrap();

        // CPU (compressible) may shrink below usage: that's throttling.
        fs.set_limit(ctr, Resources::new(100, 512, 50, 500))
            .unwrap();

        // Memory (incompressible) may not.
        let err = fs
            .set_limit(ctr, Resources::new(100, 100, 50, 500))
            .unwrap_err();
        assert!(matches!(err, TangoError::CgroupViolation(_)));
    }

    #[test]
    fn charge_propagates_to_ancestors_and_is_atomic() {
        let (mut fs, pod, ctr) = fs_with_pod();
        let burst = CgroupId(qos_index(QosLevel::Burstable));
        fs.charge(ctr, Resources::cpu_mem(300, 300)).unwrap();
        assert_eq!(fs.usage(ctr).cpu_milli, 300);
        assert_eq!(fs.usage(pod).cpu_milli, 300);
        assert_eq!(fs.usage(burst).cpu_milli, 300);
        assert_eq!(fs.usage(ROOT_ID).memory_mib, 300);

        // A charge that would blow the container limit fails with NO
        // partial effect anywhere on the path.
        let before_root = fs.usage(ROOT_ID);
        assert!(fs.charge(ctr, Resources::cpu_mem(400, 0)).is_err());
        assert_eq!(fs.usage(ROOT_ID), before_root);

        fs.uncharge(ctr, Resources::cpu_mem(300, 300));
        assert!(fs.usage(ROOT_ID).is_zero());
    }

    #[test]
    fn effective_limit_is_min_over_path() {
        let (mut fs, pod, ctr) = fs_with_pod();
        // Shrink only the pod's CPU (allowed: child cpu 500 <= 600).
        fs.set_limit(pod, Resources::new(600, 1_024, 100, 1_000))
            .unwrap();
        // Container keeps its own 500m limit; effective min(500, 600) = 500.
        assert_eq!(fs.effective_limit(ctr).cpu_milli, 500);
        // Now raise the container... rejected above parent.
        assert!(fs
            .set_limit(ctr, Resources::new(700, 512, 50, 500))
            .is_err());
    }

    #[test]
    fn create_over_parent_limit_rejected() {
        let mut fs = CgroupFs::new(cap());
        let huge = Resources::new(100_000, 1, 1, 1);
        assert!(fs
            .create_pod(QosLevel::Burstable, ContainerId(1), huge)
            .is_err());
        assert_eq!(fs.groups.len(), 4);
    }

    #[test]
    fn creates_and_limit_writes_bump_the_epoch() {
        let (mut fs, pod, _ctr) = fs_with_pod();
        let epoch = fs.limit_epoch();
        fs.set_limit(pod, Resources::new(900, 1_024, 100, 1_000))
            .unwrap();
        assert!(fs.limit_epoch() > epoch);
        let epoch = fs.limit_epoch();
        fs.create_pod(QosLevel::BestEffort, ContainerId(2), Resources::ZERO)
            .unwrap();
        assert!(fs.limit_epoch() > epoch);
    }
}
