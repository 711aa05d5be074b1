//! The Adam optimizer.
//!
//! §5.3.2: "The Adam optimizer with a fixed learning rate of 2 × 10⁻⁴ is
//! used." State (first/second moment) is kept per registered parameter
//! slot; the step count is shared, as in the reference algorithm.

/// Adam with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with standard betas (0.9 / 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The paper's optimizer: lr = 2e-4.
    pub fn paper_default() -> Self {
        Adam::new(2e-4)
    }

    /// Register a parameter tensor of `len` values; returns its slot id.
    pub fn register(&mut self, len: usize) -> usize {
        self.m.push(vec![0.0; len]);
        self.v.push(vec![0.0; len]);
        self.m.len() - 1
    }

    /// Advance the shared step counter. Call once per optimization step,
    /// before updating the slots of that step.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Write the step counter and both moment vectors to a snapshot.
    ///
    /// `lr`/betas/eps are construction-time configuration and are *not*
    /// encoded; the restore target supplies them.
    pub fn snap_write(&self, w: &mut tango_snap::SnapWriter) {
        use tango_snap::SnapEncode;
        w.put_i64(self.t as i64);
        self.m.encode(w);
        self.v.encode(w);
    }

    /// Overwrite the optimizer moments from an encoding produced by
    /// [`Adam::snap_write`]. The registered slot layout (count and
    /// per-slot length) must match this optimizer's.
    pub fn snap_read(
        &mut self,
        r: &mut tango_snap::SnapReader<'_>,
    ) -> Result<(), tango_snap::SnapError> {
        use tango_snap::{SnapDecode, SnapError};
        // `begin_step` must be able to advance the counter, and `update`
        // needs it positive after that.
        let t = i32::try_from(r.i64()?)
            .ok()
            .filter(|t| (0..i32::MAX).contains(t))
            .ok_or(SnapError::Corrupt("adam step counter"))?;
        let m = Vec::<Vec<f32>>::decode(r)?;
        let v = Vec::<Vec<f32>>::decode(r)?;
        let shape_ok = m.len() == self.m.len()
            && v.len() == self.v.len()
            && m.iter().zip(&self.m).all(|(a, b)| a.len() == b.len())
            && v.iter().zip(&self.v).all(|(a, b)| a.len() == b.len());
        if !shape_ok {
            return Err(SnapError::Corrupt("adam slot layout mismatch"));
        }
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }

    /// Apply one Adam update to `param` from `grad` using slot state.
    pub fn update(&mut self, slot: usize, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        assert_eq!(param.len(), self.m[slot].len(), "slot length mismatch");
        assert!(self.t > 0, "call begin_step before update");
        let b1t = 1.0 - self.beta1.powi(self.t);
        let b2t = 1.0 - self.beta2.powi(self.t);
        let m = &mut self.m[slot];
        let v = &mut self.v[slot];
        for i in 0..param.len() {
            let g = grad[i];
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = m[i] / b1t;
            let v_hat = v[i] / b2t;
            param[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x-3)^2; Adam should converge to 3.
    #[test]
    fn converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let slot = opt.register(1);
        let mut x = [0.0f32];
        for _ in 0..500 {
            let grad = [2.0 * (x[0] - 3.0)];
            opt.begin_step();
            opt.update(slot, &mut x, &grad);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    /// First step moves by ~lr regardless of gradient scale (Adam's
    /// signature behaviour).
    #[test]
    fn first_step_magnitude_is_lr() {
        for g in [1e-3f32, 1.0, 1e3] {
            let mut opt = Adam::new(0.01);
            let slot = opt.register(1);
            let mut x = [0.0f32];
            opt.begin_step();
            opt.update(slot, &mut x, &[g]);
            assert!((x[0].abs() - 0.01).abs() < 1e-3, "grad {g}: step {}", x[0]);
        }
    }

    #[test]
    fn slots_are_independent() {
        let mut opt = Adam::new(0.1);
        let a = opt.register(1);
        let b = opt.register(1);
        let mut xa = [0.0f32];
        let mut xb = [0.0f32];
        opt.begin_step();
        opt.update(a, &mut xa, &[1.0]);
        // slot b untouched: its moments are still zero
        opt.begin_step();
        opt.update(b, &mut xb, &[1.0]);
        assert!(xa[0] != 0.0 && xb[0] != 0.0);
    }

    #[test]
    #[should_panic(expected = "param/grad length mismatch")]
    fn length_mismatch_panics() {
        let mut opt = Adam::new(0.1);
        let slot = opt.register(2);
        let mut x = [0.0f32, 0.0];
        opt.begin_step();
        opt.update(slot, &mut x, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn update_before_begin_step_panics() {
        let mut opt = Adam::new(0.1);
        let slot = opt.register(1);
        let mut x = [0.0f32];
        opt.update(slot, &mut x, &[1.0]);
    }
}
