//! Identifier newtypes.
//!
//! Every entity in the system gets a small, `Copy`, totally-ordered id so
//! that cross-crate references never require pointers or lifetimes. Nodes
//! are identified *globally* (not per-cluster) because the schedulers build
//! system-wide graphs over them.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,

        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw integer value of this id.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// Value as a `usize`, for indexing into dense tables.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            #[inline]
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Identifies an edge-cloud cluster (the set `B` in §5.1.1).
    ClusterId, u32, "cluster-"
);
id_type!(
    /// Globally identifies a node (master or worker) across all clusters.
    NodeId, u32, "node-"
);
id_type!(
    /// Identifies a container within the whole system.
    ContainerId, u64, "ctr-"
);
id_type!(
    /// Identifies a single service request.
    RequestId, u64, "req-"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(ClusterId(3).to_string(), "cluster-3");
        assert_eq!(NodeId(17).to_string(), "node-17");
        assert_eq!(ContainerId(9).to_string(), "ctr-9");
        assert_eq!(RequestId(101).to_string(), "req-101");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(NodeId(1));
        set.insert(NodeId(1));
        set.insert(NodeId(2));
        assert_eq!(set.len(), 2);
        assert!(NodeId(1) < NodeId(2));
    }

    #[test]
    fn index_matches_raw() {
        assert_eq!(NodeId(42).index(), 42);
        assert_eq!(RequestId(7).raw(), 7);
    }
}
