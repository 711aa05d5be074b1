//! The cgroup filesystem model.

use tango_types::FxHashMap;
use tango_types::{ResourceKind, Resources, TangoError};

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
    /// Directory name under `kubepods`.
    pub const fn dir(self) -> &'static str {
        match self {
            QosLevel::Guaranteed => "guaranteed",
            QosLevel::Burstable => "burstable",
            QosLevel::BestEffort => "besteffort",
        }
    }

    /// All levels, in K8s eviction priority order (evicted last → first).
    pub const ALL: [QosLevel; 3] = [
        QosLevel::Guaranteed,
        QosLevel::Burstable,
        QosLevel::BestEffort,
    ];
}

#[derive(Debug)]
pub(crate) struct Group {
    pub(crate) path: String,
    pub(crate) parent: Option<usize>,
    pub(crate) children: Vec<usize>,
    pub(crate) limit: Resources,
    pub(crate) usage: Resources,
    pub(crate) alive: bool,
}

/// An in-memory cgroup tree rooted at `kubepods`.
///
/// The root's limit is the node's allocatable capacity; QoS-level groups sit
/// directly below; pods below those; containers below pods.
#[derive(Debug)]
pub struct CgroupFs {
    groups: Vec<Group>,
    by_path: FxHashMap<String, usize>,
    /// Bumped on every create/remove/limit write — anything that can move
    /// an effective limit. Lets callers cache `effective_limit` results
    /// and revalidate with one integer compare.
    limit_epoch: u64,
}

/// Root path constant.
pub const ROOT: &str = "kubepods";

impl CgroupFs {
    /// Create a tree whose root (`kubepods`) is limited to `capacity` and
    /// with the three QoS-level groups pre-created (each initially allowed
    /// the full node capacity, as K8s does — the QoS groups are priority
    /// bands, not static partitions).
    pub fn new(capacity: Resources) -> Self {
        let mut fs = CgroupFs {
            groups: Vec::with_capacity(8),
            by_path: FxHashMap::default(),
            limit_epoch: 1,
        };
        let root = fs.insert(ROOT.to_string(), None, capacity);
        for level in QosLevel::ALL {
            let path = format!("{ROOT}/{}", level.dir());
            fs.insert_child(path, root, capacity);
        }
        fs
    }

    fn insert(&mut self, path: String, parent: Option<usize>, limit: Resources) -> usize {
        let idx = self.groups.len();
        self.groups.push(Group {
            path: path.clone(),
            parent,
            children: Vec::new(),
            limit,
            usage: Resources::ZERO,
            alive: true,
        });
        self.by_path.insert(path, idx);
        self.limit_epoch += 1;
        idx
    }

    fn insert_child(&mut self, path: String, parent: usize, limit: Resources) -> usize {
        let idx = self.insert(path, Some(parent), limit);
        self.groups[parent].children.push(idx);
        idx
    }

    /// Resolve a path to an id.
    pub fn lookup(&self, path: &str) -> Option<CgroupId> {
        self.by_path
            .get(path)
            .copied()
            .filter(|&i| self.groups[i].alive)
            .map(CgroupId)
    }

    /// Id of a QoS-level group.
    pub fn qos_group(&self, level: QosLevel) -> CgroupId {
        self.lookup(&format!("{ROOT}/{}", level.dir()))
            .expect("qos groups exist from construction")
    }

    /// Id of the root group.
    pub fn root(&self) -> CgroupId {
        self.lookup(ROOT).expect("root exists")
    }

    /// Full path of a group.
    pub fn path(&self, id: CgroupId) -> &str {
        &self.groups[id.0].path
    }

    /// Create a child cgroup (a pod under a QoS group, or a container under
    /// a pod) with an initial limit. Fails if the name collides or the limit
    /// exceeds the parent's.
    pub fn create(
        &mut self,
        parent: CgroupId,
        name: &str,
        limit: Resources,
    ) -> Result<CgroupId, TangoError> {
        if !self.groups[parent.0].alive {
            return Err(TangoError::CgroupViolation(format!(
                "parent {} is removed",
                self.groups[parent.0].path
            )));
        }
        let path = format!("{}/{}", self.groups[parent.0].path, name);
        if self.by_path.contains_key(&path) && self.lookup(&path).is_some() {
            return Err(TangoError::CgroupViolation(format!(
                "cgroup {path} already exists"
            )));
        }
        if !limit.fits_within(&self.groups[parent.0].limit) {
            return Err(TangoError::CgroupViolation(format!(
                "initial limit for {path} exceeds parent limit"
            )));
        }
        Ok(CgroupId(self.insert_child(path, parent.0, limit)))
    }

    /// Remove a cgroup. Fails if it still has live children or charged
    /// usage (`rmdir` on a busy cgroup returns `EBUSY`).
    pub fn remove(&mut self, id: CgroupId) -> Result<(), TangoError> {
        let g = &self.groups[id.0];
        if !g.alive {
            return Err(TangoError::CgroupViolation(format!(
                "{} already removed",
                g.path
            )));
        }
        if g.children.iter().any(|&c| self.groups[c].alive) {
            return Err(TangoError::CgroupViolation(format!(
                "{} still has live children",
                g.path
            )));
        }
        if !g.usage.is_zero() {
            return Err(TangoError::CgroupViolation(format!(
                "{} is busy (usage nonzero)",
                g.path
            )));
        }
        self.by_path.remove(&g.path);
        self.groups[id.0].alive = false;
        if let Some(p) = self.groups[id.0].parent {
            self.groups[p].children.retain(|&c| c != id.0);
        }
        self.limit_epoch += 1;
        Ok(())
    }

    /// Write a new limit to a cgroup's control files.
    ///
    /// Kernel-faithful rejection rules (the reason D-VPA's write order
    /// matters):
    /// 1. the new limit may not exceed the parent's current limit;
    /// 2. the new limit may not be below any live child's current limit;
    /// 3. incompressible dimensions (memory, disk) may not shrink below
    ///    current usage — compressible ones (CPU, bandwidth) may (that is
    ///    throttling).
    pub fn set_limit(&mut self, id: CgroupId, new_limit: Resources) -> Result<(), TangoError> {
        let g = &self.groups[id.0];
        if !g.alive {
            return Err(TangoError::CgroupViolation(format!(
                "{} is removed",
                g.path
            )));
        }
        if let Some(p) = g.parent {
            if !new_limit.fits_within(&self.groups[p].limit) {
                return Err(TangoError::CgroupViolation(format!(
                    "limit for {} would exceed parent {} limit",
                    g.path, self.groups[p].path
                )));
            }
        }
        for &c in &g.children {
            let child = &self.groups[c];
            if child.alive && !child.limit.fits_within(&new_limit) {
                return Err(TangoError::CgroupViolation(format!(
                    "limit for {} would fall below child {} limit",
                    g.path, child.path
                )));
            }
        }
        for kind in [ResourceKind::Memory, ResourceKind::Disk] {
            if new_limit.get(kind) < g.usage.get(kind) {
                return Err(TangoError::CgroupViolation(format!(
                    "cannot shrink incompressible {kind:?} of {} below usage",
                    g.path
                )));
            }
        }
        self.groups[id.0].limit = new_limit;
        self.limit_epoch += 1;
        Ok(())
    }

    /// Epoch of the last structural or limit write (see field docs).
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

    /// Headroom = effective limit − usage (saturating).
    pub fn headroom(&self, id: CgroupId) -> Resources {
        self.effective_limit(id)
            .saturating_sub(&self.groups[id.0].usage)
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

    /// The raw group table, for checkpoint encoding.
    pub(crate) fn raw_groups(&self) -> &[Group] {
        &self.groups
    }

    /// Swap in a restored group table (see `snapshot` module).
    pub(crate) fn replace_table(&mut self, groups: Vec<Group>, by_path: FxHashMap<String, usize>) {
        self.groups = groups;
        self.by_path = by_path;
    }

    /// Live children of a group.
    pub fn children(&self, id: CgroupId) -> Vec<CgroupId> {
        self.groups[id.0]
            .children
            .iter()
            .filter(|&&c| self.groups[c].alive)
            .map(|&c| CgroupId(c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap() -> Resources {
        Resources::new(4_000, 8_192, 1_000, 50_000)
    }

    fn fs_with_pod() -> (CgroupFs, CgroupId, CgroupId) {
        let mut fs = CgroupFs::new(cap());
        let burst = fs.qos_group(QosLevel::Burstable);
        let pod = fs
            .create(burst, "pod67f7df", Resources::new(1_000, 1_024, 100, 1_000))
            .unwrap();
        let ctr = fs
            .create(pod, "cc13fc77c", Resources::new(500, 512, 50, 500))
            .unwrap();
        (fs, pod, ctr)
    }

    #[test]
    fn layout_matches_kubepods_hierarchy() {
        let (fs, pod, ctr) = fs_with_pod();
        assert_eq!(fs.path(pod), "kubepods/burstable/pod67f7df");
        assert_eq!(fs.path(ctr), "kubepods/burstable/pod67f7df/cc13fc77c");
        assert!(fs.lookup("kubepods/guaranteed").is_some());
        assert!(fs.lookup("kubepods/besteffort").is_some());
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
        let burst = fs.qos_group(QosLevel::Burstable);
        fs.charge(ctr, Resources::cpu_mem(300, 300)).unwrap();
        assert_eq!(fs.usage(ctr).cpu_milli, 300);
        assert_eq!(fs.usage(pod).cpu_milli, 300);
        assert_eq!(fs.usage(burst).cpu_milli, 300);
        assert_eq!(fs.usage(fs.root()).memory_mib, 300);

        // A charge that would blow the container limit fails with NO
        // partial effect anywhere on the path.
        let before_root = fs.usage(fs.root());
        assert!(fs.charge(ctr, Resources::cpu_mem(400, 0)).is_err());
        assert_eq!(fs.usage(fs.root()), before_root);

        fs.uncharge(ctr, Resources::cpu_mem(300, 300));
        assert!(fs.usage(fs.root()).is_zero());
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
    fn remove_requires_empty_and_idle() {
        let (mut fs, pod, ctr) = fs_with_pod();
        // busy child
        fs.charge(ctr, Resources::cpu_mem(10, 10)).unwrap();
        assert!(fs.remove(ctr).is_err());
        fs.uncharge(ctr, Resources::cpu_mem(10, 10));
        // parent with live child
        assert!(fs.remove(pod).is_err());
        fs.remove(ctr).unwrap();
        fs.remove(pod).unwrap();
        assert!(fs.lookup("kubepods/burstable/pod67f7df").is_none());
    }

    #[test]
    fn recreate_after_remove_is_allowed() {
        let (mut fs, pod, ctr) = fs_with_pod();
        fs.remove(ctr).unwrap();
        fs.remove(pod).unwrap();
        let burst = fs.qos_group(QosLevel::Burstable);
        let pod2 = fs
            .create(burst, "pod67f7df", Resources::cpu_mem(100, 100))
            .unwrap();
        assert_eq!(fs.path(pod2), "kubepods/burstable/pod67f7df");
    }

    #[test]
    fn duplicate_create_rejected() {
        let (mut fs, _pod, _ctr) = fs_with_pod();
        let burst = fs.qos_group(QosLevel::Burstable);
        assert!(fs.create(burst, "pod67f7df", Resources::ZERO).is_err());
    }

    #[test]
    fn create_over_parent_limit_rejected() {
        let mut fs = CgroupFs::new(cap());
        let burst = fs.qos_group(QosLevel::Burstable);
        let huge = Resources::new(100_000, 1, 1, 1);
        assert!(fs.create(burst, "p", huge).is_err());
    }

    #[test]
    fn headroom_subtracts_usage_from_effective() {
        let (mut fs, _pod, ctr) = fs_with_pod();
        fs.charge(ctr, Resources::cpu_mem(200, 100)).unwrap();
        let hr = fs.headroom(ctr);
        assert_eq!(hr.cpu_milli, 300);
        assert_eq!(hr.memory_mib, 412);
    }

    #[test]
    fn children_lists_only_live() {
        let (mut fs, pod, ctr) = fs_with_pod();
        assert_eq!(fs.children(pod), vec![ctr]);
        fs.remove(ctr).unwrap();
        assert!(fs.children(pod).is_empty());
    }
}
