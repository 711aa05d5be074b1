//! A bounded uniform replay buffer for off-policy learners (SAC, TD3).

use tango_gnn::FeatureGraph;
use tango_simcore::SimRng;
use tango_snap::{snap_record, SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};

/// One stored transition (discrete action).
#[derive(Clone)]
pub struct Stored {
    /// State at decision time.
    pub graph: FeatureGraph,
    /// Validity mask at decision time.
    pub mask: Vec<bool>,
    /// Action taken.
    pub action: usize,
    /// Reward received.
    pub reward: f32,
    /// Next state.
    pub next_graph: FeatureGraph,
    /// Next validity mask.
    pub next_mask: Vec<bool>,
    /// Episode terminated after this transition.
    pub done: bool,
}

snap_record!(Stored {
    graph,
    mask,
    action,
    reward,
    next_graph,
    next_mask,
    done,
});

/// Fixed-capacity ring buffer with uniform sampling.
///
/// Generic over the transition type: SAC stores discrete-action
/// [`Stored`] entries (the default), TD3 stores continuous-action
/// transitions.
pub struct ReplayBuffer<T = Stored> {
    items: Vec<T>,
    capacity: usize,
    /// Next slot to overwrite once the ring is full. Stays 0 while
    /// filling (appends go to the tail), then walks the ring.
    write: usize,
}

impl<T> ReplayBuffer<T> {
    /// Buffer holding up to `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ReplayBuffer {
            items: Vec::with_capacity(capacity.min(4096)),
            capacity,
            write: 0,
        }
    }

    /// Current number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` once the ring has reached capacity — every further push
    /// overwrites the oldest entry.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Append, overwriting the oldest entry when full.
    pub fn push(&mut self, t: T) {
        if self.items.len() < self.capacity {
            self.items.push(t);
        } else {
            self.items[self.write] = t;
            self.write = (self.write + 1) % self.capacity;
        }
    }

    /// Stored entries in slot order (ring layout, not insertion order) —
    /// for tests and diagnostics.
    pub fn slots(&self) -> &[T] {
        &self.items
    }
}

impl<T: Clone> ReplayBuffer<T> {
    /// Sample `n` transitions uniformly with replacement (clones).
    pub fn sample(&self, n: usize, rng: &mut SimRng) -> Vec<T> {
        (0..n)
            .filter_map(|_| {
                if self.items.is_empty() {
                    None
                } else {
                    let i = rng.next_below(self.items.len() as u64) as usize;
                    Some(self.items[i].clone())
                }
            })
            .collect()
    }
}

impl<T: SnapEncode> ReplayBuffer<T> {
    /// Write the ring contents and the overwrite cursor. Capacity is
    /// construction-time configuration and is not encoded.
    pub fn snap_write(&self, w: &mut SnapWriter) {
        self.write.encode(w);
        self.items.encode(w);
    }
}

impl<T: SnapDecode> ReplayBuffer<T> {
    /// Overwrite the ring from a [`ReplayBuffer::snap_write`] encoding.
    /// The target's capacity must admit the stored contents.
    pub fn snap_read(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let write = usize::decode(r)?;
        let items = Vec::<T>::decode(r)?;
        let cursor_ok = if items.len() < self.capacity {
            write == 0
        } else {
            items.len() == self.capacity && write < self.capacity
        };
        if items.len() > self.capacity || !cursor_ok {
            return Err(SnapError::Corrupt("replay ring cursor/occupancy"));
        }
        self.items = items;
        self.write = write;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_nn::Matrix;

    fn t(r: f32) -> Stored {
        let g = FeatureGraph::new(Matrix::zeros(2, 2));
        Stored {
            graph: g.clone(),
            mask: vec![true, true],
            action: 0,
            reward: r,
            next_graph: g,
            next_mask: vec![true, true],
            done: false,
        }
    }

    #[test]
    fn push_caps_at_capacity_and_overwrites_oldest() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i as f32));
        }
        assert_eq!(b.len(), 3);
        let rewards: Vec<f32> = b.items.iter().map(|s| s.reward).collect();
        // ring: slots overwritten in order; 0 and 1 replaced by 3 and 4
        assert_eq!(rewards, vec![3.0, 4.0, 2.0]);
    }

    #[test]
    fn sampling_returns_requested_count() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..4 {
            b.push(t(i as f32));
        }
        let mut rng = SimRng::new(1);
        assert_eq!(b.sample(7, &mut rng).len(), 7);
        let empty: ReplayBuffer<Stored> = ReplayBuffer::new(5);
        assert!(empty.sample(3, &mut rng).is_empty());
    }

    #[test]
    fn fullness_is_reported() {
        let mut b = ReplayBuffer::new(2);
        assert!(!b.is_full() && b.is_empty());
        b.push(t(0.0));
        assert!(!b.is_full());
        b.push(t(1.0));
        assert!(b.is_full());
        b.push(t(2.0));
        assert!(b.is_full());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn snapshot_round_trips_ring_cursor() {
        let mut b: ReplayBuffer<Stored> = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(t(i as f32));
        }
        let mut w = SnapWriter::new();
        b.snap_write(&mut w);
        let bytes = w.into_bytes();
        let mut c: ReplayBuffer<Stored> = ReplayBuffer::new(3);
        c.snap_read(&mut SnapReader::new(&bytes)).unwrap();
        // restored ring must continue overwriting exactly where the
        // original would
        b.push(t(9.0));
        c.push(t(9.0));
        let rb: Vec<f32> = b.items.iter().map(|s| s.reward).collect();
        let rc: Vec<f32> = c.items.iter().map(|s| s.reward).collect();
        assert_eq!(rb, rc);
        // and a smaller-capacity target rejects the contents
        let mut small: ReplayBuffer<Stored> = ReplayBuffer::new(2);
        assert!(small.snap_read(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: ReplayBuffer<Stored> = ReplayBuffer::new(0);
    }
}
