//! ClusterStateMirror: a serializable, versioned view of cluster state.
//!
//! The mirror is the outbound half of the delegated-orchestration seam:
//! after every sync tick the runtime assembles one [`MirrorNode`] row per
//! worker (capacity, availability, QoS slack, reservations, liveness,
//! last heartbeat) and hands the batch to a [`MirrorHandle`]. The handle
//! versions the state and publishes framed updates an external store
//! could consume:
//!
//! * a **full frame** (`TGMR`) whenever the candidate-view *structure
//!   clock* changed since the last publication (topology-shaped events:
//!   crash, recovery, partition) or on first publication;
//! * a **delta frame** (`TGMD`) carrying only the rows whose encoded
//!   bytes changed, keyed by row index against the base version;
//! * **nothing at all** on a calm tick where no row changed — the common
//!   case, counted in [`MirrorStats::calm_ticks`].
//!
//! Frames are self-validating: magic word, format version, and a
//! trailing FNV-1a checksum, decoded through the same [`SnapError`]
//! taxonomy as system snapshots. [`apply_frame`] is the consumer half:
//! folding the frame stream over `Option<MirrorSnapshot>` reproduces the
//! publisher's latest state exactly.

use std::sync::{Arc, Mutex};

use crate::frame;
use tango_snap::{fnv1a, snap_record, to_bytes, SnapDecode, SnapEncode, SnapError};
use tango_types::{ClusterId, NodeId, Resources, ServiceId, SimTime};

/// Wire magic for a full mirror frame.
pub const MIRROR_FULL_MAGIC: u32 = u32::from_le_bytes(*b"TGMR");
/// Wire magic for a delta mirror frame.
pub const MIRROR_DELTA_MAGIC: u32 = u32::from_le_bytes(*b"TGMD");
/// Mirror wire-format version, bumped on any layout change.
pub const MIRROR_FORMAT_VERSION: u16 = 1;

/// One worker node as the mirror exposes it: the state-storage row plus
/// the control-plane facts an external orchestrator needs (reservations,
/// liveness, heartbeat age).
#[derive(Debug, Clone, PartialEq)]
pub struct MirrorNode {
    /// Node id.
    pub node: NodeId,
    /// Its cluster.
    pub cluster: ClusterId,
    /// Whether this node is the cluster master.
    pub is_master: bool,
    /// Total resources.
    pub total: Resources,
    /// Resources currently available.
    pub available: Resources,
    /// Resources held by running BE work (preemptible for LC).
    pub be_held: Resources,
    /// Dispatcher in-flight reservations against the node.
    pub reserved: Resources,
    /// Per-service QoS slack δ.
    pub slack: Vec<(ServiceId, f64)>,
    /// Per-service pending-container counts.
    pub pending: Vec<(ServiceId, u32)>,
    /// Sim-time of the state-storage row this was built from.
    pub updated_at: SimTime,
    /// Liveness as the control plane believes it (detected, not
    /// physical — an undetected crash still shows `true` here until the
    /// keep-alive detector trips).
    pub alive: bool,
    /// Last sync tick at which the node answered its keep-alive probe.
    pub last_heartbeat: SimTime,
}

snap_record!(MirrorNode {
    node,
    cluster,
    is_master,
    total,
    available,
    be_held,
    reserved,
    slack,
    pending,
    updated_at,
    alive,
    last_heartbeat,
});

/// A complete versioned mirror state: what an external store holds after
/// applying the frame stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MirrorSnapshot {
    /// Monotone publication version (first publication is 1).
    pub version: u64,
    /// Sim-time of the sync tick that produced this state.
    pub at: SimTime,
    /// Candidate-view structure clock at publication — full frames are
    /// keyed on changes of this clock.
    pub structure_clock: u64,
    /// Candidate-view value clock at publication.
    pub value_clock: u64,
    /// One row per worker, in node-id order.
    pub nodes: Vec<MirrorNode>,
}

snap_record!(MirrorSnapshot {
    version,
    at,
    structure_clock,
    value_clock,
    nodes,
});

/// One published mirror update, as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum MirrorFrame {
    /// Full republication of the whole state.
    Full(MirrorSnapshot),
    /// Row-level delta against a base version.
    Delta {
        /// Version the receiver must hold for the delta to apply.
        base_version: u64,
        /// Version after applying.
        version: u64,
        /// Sim-time of the producing sync tick.
        at: SimTime,
        /// Value clock after applying.
        value_clock: u64,
        /// Changed rows, as `(row index, new row)` in index order.
        rows: Vec<(u32, MirrorNode)>,
    },
}

/// Encode a frame: magic, format version, body, FNV-1a checksum trailer.
pub fn encode_frame(frame: &MirrorFrame) -> Vec<u8> {
    match frame {
        MirrorFrame::Full(snap) => {
            frame::seal(MIRROR_FULL_MAGIC, MIRROR_FORMAT_VERSION, |w| snap.encode(w))
        }
        MirrorFrame::Delta {
            base_version,
            version,
            at,
            value_clock,
            rows,
        } => frame::seal(MIRROR_DELTA_MAGIC, MIRROR_FORMAT_VERSION, |w| {
            (base_version, version, at, value_clock).encode(w);
            rows.encode(w);
        }),
    }
}

/// Decode and validate one frame. Every malformed input maps onto the
/// snapshot error taxonomy; decoding never panics.
pub fn decode_frame(bytes: &[u8]) -> Result<MirrorFrame, SnapError> {
    let (magic, mut r) = frame::open(
        bytes,
        &[MIRROR_FULL_MAGIC, MIRROR_DELTA_MAGIC],
        MIRROR_FORMAT_VERSION,
    )?;
    let frame = if magic == MIRROR_FULL_MAGIC {
        MirrorFrame::Full(MirrorSnapshot::decode(&mut r)?)
    } else {
        let (base_version, version, at, value_clock) = SnapDecode::decode(&mut r)?;
        let rows = Vec::<(u32, MirrorNode)>::decode(&mut r)?;
        MirrorFrame::Delta {
            base_version,
            version,
            at,
            value_clock,
            rows,
        }
    };
    r.expect_end("mirror frame")?;
    Ok(frame)
}

/// Consumer half: fold one frame into a receiver-side state. A full
/// frame replaces the state; a delta requires the receiver to hold
/// exactly the base version and patches rows in place.
pub fn apply_frame(
    state: &mut Option<MirrorSnapshot>,
    frame: &MirrorFrame,
) -> Result<(), SnapError> {
    match frame {
        MirrorFrame::Full(snap) => {
            *state = Some(snap.clone());
            Ok(())
        }
        MirrorFrame::Delta {
            base_version,
            version,
            at,
            value_clock,
            rows,
        } => {
            let cur = state
                .as_mut()
                .ok_or(SnapError::Corrupt("mirror delta with no base state"))?;
            if cur.version != *base_version {
                return Err(SnapError::Corrupt("mirror delta base version mismatch"));
            }
            for (idx, row) in rows {
                let slot = cur
                    .nodes
                    .get_mut(*idx as usize)
                    .ok_or(SnapError::Corrupt("mirror delta row index out of range"))?;
                *slot = row.clone();
            }
            cur.version = *version;
            cur.at = *at;
            cur.value_clock = *value_clock;
            Ok(())
        }
    }
}

/// Publication counters for one mirror.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MirrorStats {
    /// Full frames published.
    pub full_frames: u64,
    /// Delta frames published.
    pub delta_frames: u64,
    /// Total rows carried across all frames.
    pub rows_published: u64,
    /// Sync ticks where nothing changed and no frame was emitted.
    pub calm_ticks: u64,
}

#[derive(Default)]
struct MirrorInner {
    latest: Option<MirrorSnapshot>,
    row_hashes: Vec<u64>,
    structure_clock: u64,
    next_version: u64,
    last_frame: Option<Vec<u8>>,
    retained: Option<Vec<Vec<u8>>>,
    stats: MirrorStats,
}

/// Change-detection hash of one row: its encoding with the pure
/// observation timestamps (`updated_at`, `last_heartbeat`) zeroed.
/// Timestamps advance on every sync tick even when nothing else moved;
/// hashing them would make every delta carry the whole cluster. A row
/// publishes only when its substance changes, and keeps its last
/// published timestamps in the meantime. The hash never leaves the
/// process.
fn change_hash(n: &MirrorNode) -> u64 {
    fnv1a(&to_bytes(&MirrorNode {
        updated_at: SimTime::ZERO,
        last_heartbeat: SimTime::ZERO,
        ..n.clone()
    }))
}

/// Shared, cloneable handle to one published mirror — the runtime's
/// publisher end and any consumer's read end. Cloning shares the state
/// (the `TraceRecorder` pattern).
#[derive(Clone, Default)]
pub struct MirrorHandle {
    inner: Arc<Mutex<MirrorInner>>,
}

impl MirrorHandle {
    /// A fresh mirror with nothing published yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep every published frame in memory (for tests and replay
    /// consumers). Off by default so long runs stay bounded.
    pub fn retain_frames(&self, on: bool) {
        let mut inner = self.inner.lock().unwrap();
        inner.retained = if on { Some(Vec::new()) } else { None };
    }

    /// Publish one sync tick's state. Decides full vs delta vs nothing
    /// and returns the number of rows actually carried on the wire.
    pub fn publish(
        &self,
        at: SimTime,
        structure_clock: u64,
        value_clock: u64,
        nodes: Vec<MirrorNode>,
    ) -> usize {
        let hashes: Vec<u64> = nodes.iter().map(change_hash).collect();
        let mut inner = self.inner.lock().unwrap();
        let needs_full = match &inner.latest {
            None => true,
            Some(last) => {
                last.nodes.len() != nodes.len() || inner.structure_clock != structure_clock
            }
        };
        if needs_full {
            let version = inner.next_version + 1;
            inner.next_version = version;
            let snap = MirrorSnapshot {
                version,
                at,
                structure_clock,
                value_clock,
                nodes,
            };
            let frame = encode_frame(&MirrorFrame::Full(snap.clone()));
            let carried = snap.nodes.len();
            inner.stats.full_frames += 1;
            inner.stats.rows_published += carried as u64;
            inner.structure_clock = structure_clock;
            inner.row_hashes = hashes;
            inner.latest = Some(snap);
            if let Some(kept) = inner.retained.as_mut() {
                kept.push(frame.clone());
            }
            inner.last_frame = Some(frame);
            return carried;
        }
        let changed: Vec<u32> = hashes
            .iter()
            .zip(inner.row_hashes.iter())
            .enumerate()
            .filter(|(_, (new, old))| new != old)
            .map(|(i, _)| i as u32)
            .collect();
        if changed.is_empty() {
            inner.stats.calm_ticks += 1;
            return 0;
        }
        let base_version = inner.latest.as_ref().unwrap().version;
        let version = inner.next_version + 1;
        inner.next_version = version;
        let rows: Vec<(u32, MirrorNode)> = changed
            .iter()
            .map(|&i| (i, nodes[i as usize].clone()))
            .collect();
        let frame = encode_frame(&MirrorFrame::Delta {
            base_version,
            version,
            at,
            value_clock,
            rows,
        });
        let carried = changed.len();
        inner.stats.delta_frames += 1;
        inner.stats.rows_published += carried as u64;
        inner.row_hashes = hashes;
        let latest = inner.latest.as_mut().unwrap();
        latest.version = version;
        latest.at = at;
        latest.value_clock = value_clock;
        // Only the published rows move; unpublished rows keep their last
        // published contents (including timestamps), so replaying the
        // frame stream lands on exactly this snapshot.
        for &i in &changed {
            latest.nodes[i as usize] = nodes[i as usize].clone();
        }
        if let Some(kept) = inner.retained.as_mut() {
            kept.push(frame.clone());
        }
        inner.last_frame = Some(frame);
        carried
    }

    /// The latest published state, if anything has been published.
    pub fn latest(&self) -> Option<MirrorSnapshot> {
        self.inner.lock().unwrap().latest.clone()
    }

    /// The most recently published frame's bytes.
    pub fn last_frame(&self) -> Option<Vec<u8>> {
        self.inner.lock().unwrap().last_frame.clone()
    }

    /// Take all retained frames (empties the retention buffer). Empty
    /// unless [`MirrorHandle::retain_frames`] was switched on.
    pub fn take_retained(&self) -> Vec<Vec<u8>> {
        self.inner
            .lock()
            .unwrap()
            .retained
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Publication counters so far.
    pub fn stats(&self) -> MirrorStats {
        self.inner.lock().unwrap().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(node: u32, avail_cpu: u64) -> MirrorNode {
        MirrorNode {
            node: NodeId(node),
            cluster: ClusterId(0),
            is_master: node == 0,
            total: Resources::cpu_mem(4000, 8192),
            available: Resources::cpu_mem(avail_cpu, 4096),
            be_held: Resources::ZERO,
            reserved: Resources::ZERO,
            slack: vec![(ServiceId(0), 1.0)],
            pending: vec![(ServiceId(0), 2)],
            updated_at: SimTime::from_millis(100),
            alive: true,
            last_heartbeat: SimTime::from_millis(100),
        }
    }

    #[test]
    fn first_publish_is_full_then_calm_ticks_publish_nothing() {
        let m = MirrorHandle::new();
        let nodes = vec![row(0, 1000), row(1, 2000)];
        assert_eq!(m.publish(SimTime::from_millis(100), 1, 1, nodes.clone()), 2);
        assert_eq!(m.publish(SimTime::from_millis(200), 1, 2, nodes), 0);
        let s = m.stats();
        assert_eq!(s.full_frames, 1);
        assert_eq!(s.delta_frames, 0);
        assert_eq!(s.calm_ticks, 1);
        assert_eq!(m.latest().unwrap().version, 1);
    }

    #[test]
    fn value_change_publishes_a_single_row_delta() {
        let m = MirrorHandle::new();
        m.publish(
            SimTime::from_millis(100),
            1,
            1,
            vec![row(0, 1000), row(1, 2000)],
        );
        let carried = m.publish(
            SimTime::from_millis(200),
            1,
            2,
            vec![row(0, 1000), row(1, 500)],
        );
        assert_eq!(carried, 1);
        let s = m.stats();
        assert_eq!((s.full_frames, s.delta_frames), (1, 1));
        let latest = m.latest().unwrap();
        assert_eq!(latest.version, 2);
        assert_eq!(latest.nodes[1].available.cpu_milli, 500);
    }

    #[test]
    fn structure_clock_change_forces_a_full_frame() {
        let m = MirrorHandle::new();
        let nodes = vec![row(0, 1000)];
        m.publish(SimTime::from_millis(100), 1, 1, nodes.clone());
        m.publish(SimTime::from_millis(200), 2, 2, nodes);
        assert_eq!(m.stats().full_frames, 2);
    }

    #[test]
    fn frame_stream_reconstructs_publisher_state() {
        let m = MirrorHandle::new();
        m.retain_frames(true);
        m.publish(
            SimTime::from_millis(100),
            1,
            1,
            vec![row(0, 1000), row(1, 2000)],
        );
        m.publish(
            SimTime::from_millis(200),
            1,
            2,
            vec![row(0, 900), row(1, 2000)],
        );
        m.publish(
            SimTime::from_millis(300),
            2,
            3,
            vec![row(0, 900), row(1, 0)],
        );
        let mut state = None;
        for bytes in m.take_retained() {
            let frame = decode_frame(&bytes).unwrap();
            apply_frame(&mut state, &frame).unwrap();
        }
        assert_eq!(state.unwrap(), m.latest().unwrap());
    }

    #[test]
    fn delta_against_wrong_base_is_rejected() {
        let m = MirrorHandle::new();
        m.retain_frames(true);
        m.publish(SimTime::from_millis(100), 1, 1, vec![row(0, 1000)]);
        m.publish(SimTime::from_millis(200), 1, 2, vec![row(0, 500)]);
        let frames = m.take_retained();
        let delta = decode_frame(&frames[1]).unwrap();
        let mut state = None;
        assert!(matches!(
            apply_frame(&mut state, &delta),
            Err(SnapError::Corrupt("mirror delta with no base state"))
        ));
    }

    #[test]
    fn truncation_and_bitflips_are_rejected_not_panicking() {
        let m = MirrorHandle::new();
        m.publish(SimTime::from_millis(100), 1, 1, vec![row(0, 1000)]);
        let frame = m.last_frame().unwrap();
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x40;
            assert!(decode_frame(&bad).is_err(), "flip at byte {byte}");
        }
    }
}
