//! `SnapEncode`/`SnapDecode` for the shared domain types, so every
//! state-bearing crate can serialize them into checkpoints without
//! re-deriving the framing.
//!
//! Each codec is generated from the one list below: a record's fields
//! encode little-endian in the listed order, and an enum writes its
//! listed tag byte, then its fields. Any change here is a snapshot
//! format change and must bump `tango_snap::FORMAT_VERSION`.

use crate::ids::{ClusterId, ContainerId, NodeId, RequestId};
use crate::request::{Request, RequestOutcome, RequestState};
use crate::resources::Resources;
use crate::service::{ServiceClass, ServiceId};
use crate::time::SimTime;
use tango_snap::{snap_enum, snap_record};

snap_record!(ClusterId(_));
snap_record!(NodeId(_));
snap_record!(ContainerId(_));
snap_record!(RequestId(_));
snap_record!(ServiceId(_));
snap_record!(SimTime(_));

snap_record!(Resources {
    cpu_milli,
    memory_mib,
    bandwidth_mbps,
    disk_mib,
});

snap_enum!(ServiceClass, "service class tag" {
    0 => Lc,
    1 => Be,
});

snap_enum!(RequestOutcome, "request outcome tag" {
    0 => Completed,
    1 => Abandoned,
    2 => Failed,
});

snap_enum!(RequestState, "request state tag" {
    0 => Queued,
    1 => Dispatched { target },
    2 => Running { target },
    4 => Migrating { src, dst, done_at },
});

snap_record!(Request {
    id,
    service,
    class,
    origin,
    arrival,
    demand,
    state,
    started,
    requeues,
});
