//! Checkpoint encoding for the cgroup tree.
//!
//! A run changes only the groups' limits and usage; the tree is rebuilt
//! from the config. The table still writes format 5's shape (each group's
//! path, parent, children and an always-`true` liveness flag), since a
//! migration is sized by its node's encoded bytes, and a restore checks
//! that shape against the rebuilt tree.

use crate::fs::CgroupFs;
use tango_snap::{SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};
use tango_types::{ResourceKind, Resources};

impl CgroupFs {
    /// Encode the group table: per group its path, parent, children,
    /// limit, usage and liveness.
    pub fn snapshot(&self, w: &mut SnapWriter) {
        w.put_u64(self.groups.len() as u64);
        let (mut path, mut children) = (String::with_capacity(64), Vec::new());
        for (idx, g) in self.groups.iter().enumerate() {
            self.step_path(idx, &mut path);
            w.put_str(&path);
            g.parent.encode(w);
            children.clear();
            children.extend(self.children(idx));
            children.encode(w);
            g.limit.encode(w);
            g.usage.encode(w);
            w.put_bool(true);
        }
    }

    /// Overlay [`CgroupFs::snapshot`] bytes onto this tree. A table that
    /// is not this tree (another group count, or any path, parent, child
    /// list or liveness flag that differs) is [`SnapError::Corrupt`], and
    /// so are values that break a rule the writers keep: a limit above
    /// its parent's, memory or disk usage above its own limit, or usage
    /// below a child's.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.u64()? != self.groups.len() as u64 {
            return Err(SnapError::Corrupt("cgroup count"));
        }
        let mut path = String::with_capacity(64);
        for idx in 0..self.groups.len() {
            self.step_path(idx, &mut path);
            if r.bytes()? != path.as_bytes() {
                return Err(SnapError::Corrupt("cgroup path"));
            }
            if Option::<usize>::decode(r)? != self.groups[idx].parent {
                return Err(SnapError::Corrupt("cgroup parent"));
            }
            if !Vec::<usize>::decode(r)?.into_iter().eq(self.children(idx)) {
                return Err(SnapError::Corrupt("cgroup children"));
            }
            let limit = Resources::decode(r)?;
            let usage = Resources::decode(r)?;
            if !r.bool()? {
                return Err(SnapError::Corrupt("cgroup liveness"));
            }
            let g = &mut self.groups[idx];
            g.limit = limit;
            g.usage = usage;
        }
        self.limit_epoch += 1;
        for g in &self.groups {
            if [ResourceKind::Memory, ResourceKind::Disk]
                .into_iter()
                .any(|kind| g.usage.get(kind) > g.limit.get(kind))
            {
                return Err(SnapError::Corrupt("cgroup usage above its limit"));
            }
            let Some(parent) = g.parent.map(|p| &self.groups[p]) else {
                continue;
            };
            if !g.limit.fits_within(&parent.limit) {
                return Err(SnapError::Corrupt("cgroup limit above its parent's"));
            }
            if !g.usage.fits_within(&parent.usage) {
                return Err(SnapError::Corrupt("cgroup usage below a child's"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QosLevel;
    use tango_snap::snap_record;
    use tango_types::ContainerId;

    /// One group as the table holds it.
    #[derive(Debug)]
    struct Row {
        path: String,
        parent: Option<usize>,
        children: Vec<usize>,
        limit: Resources,
        usage: Resources,
        alive: bool,
    }

    snap_record!(Row {
        path,
        parent,
        children,
        limit,
        usage,
        alive,
    });

    /// A tree with two Burstable pods and one BestEffort pod between them.
    fn tree() -> CgroupFs {
        let mut fs = CgroupFs::new(Resources::new(4_000, 8_192, 1_000, 50_000));
        for (k, level) in [
            QosLevel::Burstable,
            QosLevel::BestEffort,
            QosLevel::Burstable,
        ]
        .into_iter()
        .enumerate()
        {
            fs.create_pod(
                level,
                ContainerId(k as u64),
                Resources::cpu_mem(1_000, 1_024),
            )
            .unwrap();
        }
        fs
    }

    fn bytes(fs: &CgroupFs) -> Vec<u8> {
        let mut w = SnapWriter::new();
        fs.snapshot(&mut w);
        w.into_bytes()
    }

    /// Restore `bytes` onto a fresh [`tree`], which must consume them all.
    fn restore(bytes: &[u8]) -> Result<CgroupFs, SnapError> {
        let mut fs = tree();
        let mut r = SnapReader::new(bytes);
        fs.restore(&mut r)?;
        assert!(r.is_empty());
        Ok(fs)
    }

    #[test]
    fn the_table_lists_the_tree_and_round_trips() {
        let mut src = tree();
        let (pod, ctr) = src
            .create_pod(
                QosLevel::Burstable,
                ContainerId(3),
                Resources::cpu_mem(500, 512),
            )
            .unwrap();
        src.charge(ctr, Resources::cpu_mem(200, 100)).unwrap();
        src.set_limit(pod, Resources::cpu_mem(800, 512)).unwrap();
        let table: Vec<Row> = tango_snap::from_bytes(&bytes(&src)).unwrap();
        let shape: Vec<_> = table
            .iter()
            .map(|g| (g.path.as_str(), g.parent, g.children.as_slice(), g.alive))
            .collect();
        #[rustfmt::skip]
        assert_eq!(shape, [
            ("kubepods", None, &[1, 2, 3][..], true),
            ("kubepods/guaranteed", Some(0), &[][..], true),
            ("kubepods/burstable", Some(0), &[4, 8, 10][..], true),
            ("kubepods/besteffort", Some(0), &[6][..], true),
            ("kubepods/burstable/pod0", Some(2), &[5][..], true),
            ("kubepods/burstable/pod0/ctr0", Some(4), &[][..], true),
            ("kubepods/besteffort/pod1", Some(3), &[7][..], true),
            ("kubepods/besteffort/pod1/ctr1", Some(6), &[][..], true),
            ("kubepods/burstable/pod2", Some(2), &[9][..], true),
            ("kubepods/burstable/pod2/ctr2", Some(8), &[][..], true),
            ("kubepods/burstable/pod3", Some(2), &[11][..], true),
            ("kubepods/burstable/pod3/ctr3", Some(10), &[][..], true),
        ]);

        // Limits and usage are overlaid onto the rebuilt tree, and the
        // restored tree encodes to the same bytes.
        let mut dst = tree();
        dst.create_pod(
            QosLevel::Burstable,
            ContainerId(3),
            Resources::cpu_mem(500, 512),
        )
        .unwrap();
        let epoch = dst.limit_epoch();
        dst.restore(&mut SnapReader::new(&bytes(&src))).unwrap();
        assert!(dst.limit_epoch() > epoch);
        assert_eq!(dst.limit(pod), Resources::cpu_mem(800, 512));
        assert_eq!(dst.usage(ctr), Resources::cpu_mem(200, 100));
        assert_eq!(bytes(&dst), bytes(&src));
    }

    #[test]
    fn restore_rejects_any_table_but_the_rebuilt_tree() {
        let edited = |edit: fn(&mut Vec<Row>)| {
            let mut table: Vec<Row> = tango_snap::from_bytes(&bytes(&tree())).unwrap();
            edit(&mut table);
            restore(&tango_snap::to_bytes(&table))
        };
        let rejects = |edit: fn(&mut Vec<Row>), what: &str| match edited(edit) {
            Err(SnapError::Corrupt(found)) => assert_eq!(found, what),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        };
        assert!(edited(|_| {}).is_ok());
        // the last container dropped, and from its pod's children
        rejects(
            |t| {
                t.pop();
                t[8].children.clear();
            },
            "cgroup count",
        );
        rejects(|t| t[4].path.push('0'), "cgroup path");
        // a pod made the child of its own container: a cycle
        rejects(|t| t[4].parent = Some(5), "cgroup parent");
        rejects(|t| t[0].parent = Some(0), "cgroup parent");
        rejects(|t| t[2].children.reverse(), "cgroup children");
        rejects(|t| t[2].children.push(99), "cgroup children");
        rejects(|t| t[7].alive = false, "cgroup liveness");
        // values the writers never leave: a container limited to 9000m
        // under its 1000m pod, memory used past a limit, and a pod using
        // less than its container
        rejects(
            |t| t[5].limit.cpu_milli = 9_000,
            "cgroup limit above its parent's",
        );
        rejects(
            |t| t[2].limit.disk_mib += 1,
            "cgroup limit above its parent's",
        );
        rejects(
            |t| t[7].usage.memory_mib = 2_048,
            "cgroup usage above its limit",
        );
        rejects(
            |t| t[0].usage.disk_mib = 60_000,
            "cgroup usage above its limit",
        );
        rejects(
            |t| t[9].usage.bandwidth_mbps = 5,
            "cgroup usage below a child's",
        );
        // CPU usage past the limit is throttling, which `set_limit` allows
        assert!(edited(|t| {
            for g in &mut t[..6] {
                g.usage.cpu_milli = 1_200;
            }
        })
        .is_ok());
    }
}
