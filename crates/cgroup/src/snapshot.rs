//! Checkpoint encoding for the cgroup tree.
//!
//! The group table is snapshotted *structurally* (paths, parent links,
//! limits, usage, liveness) because pods and containers can be created or
//! removed mid-run — the tree at tick T is not derivable from the config.

use crate::fs::{CgroupFs, Group};
use tango_snap::{snap_record, SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};
use tango_types::FxHashMap;

snap_record!(Group {
    path,
    parent,
    children,
    limit,
    usage,
    alive,
});

impl CgroupFs {
    /// Encode the full group table (structure + dynamic state).
    pub fn snapshot(&self, w: &mut SnapWriter) {
        self.raw_groups().encode(w);
    }

    /// Rebuild a tree from [`CgroupFs::snapshot`] bytes. Replaces the whole
    /// group table; a parent or child index outside it is
    /// [`SnapError::Corrupt`].
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let groups = Vec::<Group>::decode(r)?;
        let count = groups.len();
        let mut by_path = FxHashMap::default();
        for (idx, g) in groups.iter().enumerate() {
            if g.parent.is_some_and(|p| p >= count) {
                return Err(SnapError::Corrupt("cgroup parent index"));
            }
            if g.children.iter().any(|&c| c >= count) {
                return Err(SnapError::Corrupt("cgroup child index"));
            }
            if g.alive {
                by_path.insert(g.path.clone(), idx);
            }
        }
        self.replace_table(groups, by_path);
        Ok(())
    }
}
