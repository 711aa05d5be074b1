//! Checkpoint encoding for the cgroup tree.
//!
//! The group table is snapshotted *structurally* (paths, parent links,
//! limits, usage, liveness) because pods and containers can be created or
//! removed mid-run — the tree at tick T is not derivable from the config.

use crate::fs::CgroupFs;
use tango_snap::{SnapError, SnapReader, SnapWriter};
use tango_types::FxHashMap;

impl CgroupFs {
    /// Encode the full group table (structure + dynamic state).
    pub fn snapshot(&self, w: &mut SnapWriter) {
        let groups = self.raw_groups();
        w.put_u64(groups.len() as u64);
        for g in groups {
            w.put_str(&g.path);
            match g.parent {
                None => w.put_u8(0),
                Some(p) => {
                    w.put_u8(1);
                    w.put_u64(p as u64);
                }
            }
            w.put_u64(g.children.len() as u64);
            for &c in &g.children {
                w.put_u64(c as u64);
            }
            use tango_snap::SnapEncode;
            g.limit.encode(w);
            g.usage.encode(w);
            w.put_bool(g.alive);
        }
    }

    /// Rebuild a tree from [`CgroupFs::snapshot`] bytes. Replaces the whole
    /// group table.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        use tango_snap::SnapDecode;
        let count = r.u64()? as usize;
        if count > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut groups = r.capped_vec(count);
        let mut by_path = FxHashMap::default();
        for idx in 0..count {
            let path = r.str()?.to_string();
            let parent = match r.u8()? {
                0 => None,
                1 => {
                    let p = r.u64()? as usize;
                    if p >= count {
                        return Err(SnapError::Corrupt("cgroup parent index"));
                    }
                    Some(p)
                }
                _ => return Err(SnapError::Corrupt("cgroup parent tag")),
            };
            let n_children = r.u64()? as usize;
            if n_children > r.remaining() {
                return Err(SnapError::Truncated);
            }
            let mut children = r.capped_vec(n_children);
            for _ in 0..n_children {
                let c = r.u64()? as usize;
                if c >= count {
                    return Err(SnapError::Corrupt("cgroup child index"));
                }
                children.push(c);
            }
            let limit = tango_types::Resources::decode(r)?;
            let usage = tango_types::Resources::decode(r)?;
            let alive = r.bool()?;
            if alive {
                by_path.insert(path.clone(), idx);
            }
            groups.push(crate::fs::Group {
                path,
                parent,
                children,
                limit,
                usage,
                alive,
            });
        }
        self.replace_table(groups, by_path);
        Ok(())
    }
}
