//! `tango-snap` codecs for network parameters and optimizer state.
//!
//! Checkpointing a trained agent needs bit-exact round trips of the
//! weights *and* the Adam moments: resuming with fresh moments would
//! change every subsequent update and break resume-equivalence. Shapes
//! are a function of construction (layer dims come from config), so the
//! restore paths validate against the live structure instead of
//! re-encoding dimensions redundantly — a shape mismatch is a config
//! error and surfaces as [`SnapError::Corrupt`].

use crate::linear::Linear;
use crate::tensor::Matrix;
use tango_snap::{SnapDecode, SnapEncode, SnapError, SnapReader, SnapWriter};

/// Write each layer's weights and bias, count-prefixed: the parameter
/// list an [`Mlp`](crate::Mlp) and a GNN encoder each checkpoint.
pub fn write_layers(layers: &[Linear], w: &mut SnapWriter) {
    let params: Vec<(&Matrix, &Vec<f32>)> = layers.iter().map(|l| (l.w(), &l.b)).collect();
    params.encode(w);
}

/// Overwrite `layers`' weights and biases from a [`write_layers`]
/// encoding and zero their gradients. The layer count and every shape
/// must match `layers`; otherwise nothing is overwritten and the result
/// is [`SnapError::Corrupt`].
pub fn read_layers(layers: &mut [Linear], r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    let params = Vec::<(Matrix, Vec<f32>)>::decode(r)?;
    if params.len() != layers.len() {
        return Err(SnapError::Corrupt("layer count mismatch"));
    }
    let same_shape = |l: &Linear, (w, b): &(Matrix, Vec<f32>)| {
        (w.rows, w.cols, b.len()) == (l.in_dim(), l.out_dim(), l.b.len())
    };
    if !layers.iter().zip(&params).all(|(l, p)| same_shape(l, p)) {
        return Err(SnapError::Corrupt("layer shape mismatch"));
    }
    for (layer, (w, b)) in layers.iter_mut().zip(params) {
        *layer.w_mut() = w;
        layer.b = b;
        layer.zero_grad();
    }
    Ok(())
}

impl SnapEncode for Matrix {
    fn encode(&self, w: &mut SnapWriter) {
        self.rows.encode(w);
        self.cols.encode(w);
        for &v in self.as_slice() {
            w.put_f32(v);
        }
    }
}

impl SnapDecode for Matrix {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let rows = usize::decode(r)?;
        let cols = usize::decode(r)?;
        let n = rows
            .checked_mul(cols)
            .ok_or(SnapError::Corrupt("matrix element count overflows"))?;
        if n.saturating_mul(4) > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(r.f32()?);
        }
        Matrix::from_vec(rows, cols, data).map_err(|_| SnapError::Corrupt("matrix shape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Adam;
    use crate::mlp::Mlp;
    use tango_simcore::SimRng;

    fn bytes_of(m: &Mlp) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.snap_write(&mut w);
        w.into_bytes()
    }

    #[test]
    fn matrix_round_trips_bit_exactly() {
        let m =
            Matrix::from_vec(2, 3, vec![0.1, -2.5e-8, f32::MIN_POSITIVE, 4.0, -0.0, 9.9]).unwrap();
        let mut w = SnapWriter::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = Matrix::decode(&mut r).unwrap();
        assert_eq!(back, m);
        assert!(r.is_empty());
    }

    /// Restored weights + moments must continue training exactly like
    /// the original: take two networks, sync via snapshot, train both on
    /// the same batch, and compare bytes again.
    #[test]
    fn mlp_resume_reproduces_updates() {
        let mut rng = SimRng::new(41);
        let mut a = Mlp::new(&[3, 8, 2], 1e-3, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.4, -0.1, 1.2, 0.0, 0.9, -0.7]).unwrap();
        // accumulate some Adam history so t/m/v are non-trivial
        for _ in 0..3 {
            let y = a.forward(&x);
            a.backward(&y);
            a.step();
        }
        let snap = bytes_of(&a);
        let mut b = Mlp::new(&[3, 8, 2], 1e-3, &mut SimRng::new(999));
        b.snap_read(&mut SnapReader::new(&snap)).unwrap();
        assert_eq!(bytes_of(&b), snap, "restore is byte-stable");
        for m in [&mut a, &mut b] {
            let y = m.forward(&x);
            m.backward(&y);
            m.step();
        }
        assert_eq!(bytes_of(&a), bytes_of(&b), "post-restore updates diverged");
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut rng = SimRng::new(1);
        let a = Mlp::new(&[3, 8, 2], 1e-3, &mut rng);
        let snap = bytes_of(&a);
        let mut wrong = Mlp::new(&[3, 4, 2], 1e-3, &mut rng);
        assert!(matches!(
            wrong.snap_read(&mut SnapReader::new(&snap)),
            Err(SnapError::Corrupt(_))
        ));
        let mut fewer = Mlp::new(&[3, 2], 1e-3, &mut rng);
        assert!(matches!(
            fewer.snap_read(&mut SnapReader::new(&snap)),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// Adam's step counter must leave room for `begin_step`'s increment
    /// and be positive after it, as `update` asserts: a restore rejects
    /// anything outside `0..i32::MAX` instead of admitting a state that
    /// panics at the next training step.
    #[test]
    fn adam_step_counter_outside_its_range_is_rejected() {
        let snapshot = |t: i64| {
            let mut w = SnapWriter::new();
            w.put_i64(t);
            vec![vec![0.5f32; 2]].encode(&mut w);
            vec![vec![0.25f32; 2]].encode(&mut w);
            w.into_bytes()
        };
        let restored = |t: i64| {
            let mut opt = Adam::new(0.1);
            let slot = opt.register(2);
            opt.snap_read(&mut SnapReader::new(&snapshot(t)))
                .map(|()| (opt, slot))
        };
        for t in [-1, i64::from(i32::MIN), i64::from(i32::MAX), i64::MAX] {
            assert!(
                matches!(restored(t), Err(SnapError::Corrupt("adam step counter"))),
                "t = {t}"
            );
        }
        for t in [0, 1, i64::from(i32::MAX) - 1] {
            let (mut opt, slot) = restored(t).expect("a step counter in range restores");
            let mut x = [1.0f32, -1.0];
            opt.begin_step();
            opt.update(slot, &mut x, &[0.5, 0.5]);
            assert!(x.iter().all(|v| v.is_finite()), "t = {t}: {x:?}");
        }
    }

    #[test]
    fn truncated_mlp_snapshot_is_rejected() {
        let mut rng = SimRng::new(2);
        let a = Mlp::new(&[3, 8, 2], 1e-3, &mut rng);
        let snap = bytes_of(&a);
        let mut b = Mlp::new(&[3, 8, 2], 1e-3, &mut rng);
        assert!(b
            .snap_read(&mut SnapReader::new(&snap[..snap.len() / 2]))
            .is_err());
    }
}
