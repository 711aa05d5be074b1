//! `SnapEncode`/`SnapDecode` for the scheduler-facing view types, so the
//! control plane can put candidate views on the wire (decision request
//! frames) with the same codec discipline as checkpoints.
//!
//! Fields encode in the order of the list below; any change here is a
//! wire-format change for the delegated-orchestration frames and must
//! bump `tango_ctrl`'s decision format version.

use crate::view::CandidateNode;
use tango_snap::snap_record;

snap_record!(CandidateNode {
    node,
    cluster,
    total,
    available_lc,
    available_be,
    min_request,
    delay,
    link_capacity,
    slack,
    alive,
});
