//! The sparse-aware Adam optimizer.
//!
//! The sparse-aware Adam mirrors "lazy Adam": for embedding tables whose
//! gradients arrive as sparse rows, only the touched rows' moment estimates
//! and values are updated. This matches how the paper's PyTorch
//! implementation would treat `sparse=True` embedding gradients and keeps an
//! epoch over a 100k-node table tractable on CPU.

use std::collections::BTreeMap;

use mhg_tensor::Tensor;

use crate::store::{Grad, GradStore, ParamId, ParamStore};

/// Common optimizer interface.
pub trait Optimizer {
    /// Applies one update step from accumulated gradients.
    fn step(&mut self, params: &mut ParamStore, grads: &GradStore);
}

/// Per-parameter Adam state.
struct AdamState {
    m: Tensor,
    v: Tensor,
    /// Per-row step counts for sparse (lazy) bias correction.
    row_steps: Vec<u32>,
    /// Global step count for dense updates.
    step: u32,
}

/// Adam's first-moment decay β₁ (the paper's default).
const BETA1: f32 = 0.9;
/// Adam's second-moment decay β₂ (the paper's default).
const BETA2: f32 = 0.999;
/// Adam's denominator guard ε (the paper's default).
const EPS: f32 = 1e-8;

/// Adam optimizer with lazy (sparse-aware) updates for row gradients.
pub struct Adam {
    lr: f32,
    states: BTreeMap<ParamId, AdamState>,
}

impl Adam {
    /// Creates Adam with the paper's defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            states: BTreeMap::new(),
        }
    }

    fn state_for(&mut self, id: ParamId, shape: (usize, usize)) -> &mut AdamState {
        self.states.entry(id).or_insert_with(|| AdamState {
            m: Tensor::zeros(shape.0, shape.1),
            v: Tensor::zeros(shape.0, shape.1),
            row_steps: vec![0; shape.0],
            step: 0,
        })
    }

    /// Serialises every per-parameter moment estimate into `dict` under
    /// `prefix` (the state map is ordered by id, so the encoding is
    /// deterministic).
    pub fn export_state(&self, prefix: &str, dict: &mut mhg_ckpt::StateDict) {
        let ids: Vec<u32> = self.states.keys().map(|id| id.0).collect();
        dict.put_u64s(
            format!("{prefix}/ids"),
            ids.iter().map(|&i| u64::from(i)).collect(),
        );
        for raw in ids {
            let state = &self.states[&ParamId(raw)];
            dict.put_tensor(format!("{prefix}/{raw}/m"), state.m.clone());
            dict.put_tensor(format!("{prefix}/{raw}/v"), state.v.clone());
            dict.put_u64s(
                format!("{prefix}/{raw}/rows"),
                state.row_steps.iter().map(|&s| u64::from(s)).collect(),
            );
            dict.put_u64(format!("{prefix}/{raw}/step"), u64::from(state.step));
        }
    }

    /// Restores the moment estimates exported by [`Adam::export_state`],
    /// replacing any current state.
    pub fn import_state(
        &mut self,
        prefix: &str,
        dict: &mhg_ckpt::StateDict,
    ) -> Result<(), mhg_ckpt::CkptError> {
        let ids_key = format!("{prefix}/ids");
        let ids = dict.u64s(&ids_key)?.to_vec();
        let mut states = BTreeMap::new();
        for raw64 in ids {
            let raw = narrow(raw64, &ids_key)?;
            let m = dict.tensor(&format!("{prefix}/{raw}/m"))?.clone();
            let v = dict.tensor(&format!("{prefix}/{raw}/v"))?.clone();
            let rows_key = format!("{prefix}/{raw}/rows");
            let rows = dict.u64s(&rows_key)?;
            if v.rows() != m.rows() || v.cols() != m.cols() || rows.len() != m.rows() {
                return Err(mhg_ckpt::CkptError::ShapeMismatch(format!(
                    "adam state for parameter {raw}"
                )));
            }
            let row_steps = rows
                .iter()
                .map(|&s| narrow(s, &rows_key))
                .collect::<Result<_, _>>()?;
            let step_key = format!("{prefix}/{raw}/step");
            let step = narrow(dict.u64(&step_key)?, &step_key)?;
            states.insert(
                ParamId(raw),
                AdamState {
                    m,
                    v,
                    row_steps,
                    step,
                },
            );
        }
        self.states = states;
        Ok(())
    }
}

/// Narrows a checkpointed `u64` to the `u32` it was exported from.
fn narrow(value: u64, key: &str) -> Result<u32, mhg_ckpt::CkptError> {
    u32::try_from(value)
        .map_err(|_| mhg_ckpt::CkptError::WrongType(format!("{key}: {value} does not fit in u32")))
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamStore, grads: &GradStore) {
        for (id, grad) in grads.iter() {
            let shape = {
                let v = params.value(id);
                (v.rows(), v.cols())
            };
            let (lr, b1, b2, eps) = (self.lr, BETA1, BETA2, EPS);
            let state = self.state_for(id, shape);
            let value = params.value_mut(id);
            match grad {
                Grad::Dense(g) => {
                    state.step += 1;
                    let t = state.step as f32;
                    let bc1 = 1.0 - b1.powf(t);
                    let bc2 = 1.0 - b2.powf(t);
                    let (m, v) = (state.m.as_mut_slice(), state.v.as_mut_slice());
                    for (((p, gv), mv), vv) in value
                        .as_mut_slice()
                        .iter_mut()
                        .zip(g.as_slice())
                        .zip(m.iter_mut())
                        .zip(v.iter_mut())
                    {
                        *mv = b1 * *mv + (1.0 - b1) * gv;
                        *vv = b2 * *vv + (1.0 - b2) * gv * gv;
                        let m_hat = *mv / bc1;
                        let v_hat = *vv / bc2;
                        *p -= lr * m_hat / (v_hat.sqrt() + eps);
                    }
                }
                Grad::Rows { rows } => {
                    for (r, g) in rows.iter() {
                        state.row_steps[r] += 1;
                        let t = state.row_steps[r] as f32;
                        let bc1 = 1.0 - b1.powf(t);
                        let bc2 = 1.0 - b2.powf(t);
                        let m_row = state.m.row_mut(r);
                        for (mv, gv) in m_row.iter_mut().zip(g) {
                            *mv = b1 * *mv + (1.0 - b1) * gv;
                        }
                        let v_row = state.v.row_mut(r);
                        for (vv, gv) in v_row.iter_mut().zip(g) {
                            *vv = b2 * *vv + (1.0 - b2) * gv * gv;
                        }
                        for ((p, mv), vv) in value
                            .row_mut(r)
                            .iter_mut()
                            .zip(state.m.row(r))
                            .zip(state.v.row(r))
                        {
                            let m_hat = mv / bc1;
                            let v_hat = vv / bc2;
                            *p -= lr * m_hat / (v_hat.sqrt() + eps);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// Minimises f(w) = (w − 3)² over a 1×1 parameter.
    fn converges_to_three(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut params = ParamStore::new();
        let w = params.register("w", Tensor::from_vec(1, 1, vec![0.0]));
        for _ in 0..steps {
            let mut g = Graph::new(&params);
            let wv = g.param(w);
            let target = g.constant(Tensor::from_vec(1, 1, vec![3.0]));
            let diff = g.sub(wv, target);
            let sq = g.mul(diff, diff);
            let loss = g.sum_all(sq);
            let grads = g.backward(loss);
            opt.step(&mut params, &grads);
        }
        params.value(w)[(0, 0)]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = converges_to_three(&mut opt, 500);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn sparse_adam_only_touches_gathered_rows() {
        let mut params = ParamStore::new();
        let table = params.register("emb", Tensor::zeros(4, 2));
        let mut opt = Adam::new(0.05);
        // Pull row 2 toward (1, 1); rows 0, 1, 3 must stay exactly zero.
        for _ in 0..100 {
            let mut g = Graph::new(&params);
            let rows = g.gather(table, &[2]);
            let target = g.constant(Tensor::from_rows(&[&[1.0, 1.0]]));
            let diff = g.sub(rows, target);
            let sq = g.mul(diff, diff);
            let loss = g.sum_all(sq);
            let grads = g.backward(loss);
            opt.step(&mut params, &grads);
        }
        let t = params.value(table);
        assert!(t.row(0).iter().all(|&v| v == 0.0));
        assert!(t.row(1).iter().all(|&v| v == 0.0));
        assert!(t.row(3).iter().all(|&v| v == 0.0));
        assert!(t.row(2).iter().all(|&v| (v - 1.0).abs() < 0.05), "{t:?}");
    }

    #[test]
    fn import_rejects_counts_that_overflow_u32() {
        use mhg_ckpt::{CkptError, StateDict};
        let too_big = u64::from(u32::MAX) + 1;
        let mut params = ParamStore::new();
        let table = params.register("emb", Tensor::zeros(2, 1));
        let mut grads = GradStore::new();
        grads.accumulate_row(table, 0, &[1.0]);
        let mut adam = Adam::new(0.1);
        adam.step(&mut params, &grads);
        let mut dict = StateDict::new();
        adam.export_state("adam", &mut dict);
        assert!(Adam::new(0.1).import_state("adam", &dict).is_ok());
        let mut bad_rows = dict.clone();
        bad_rows.put_u64s("adam/0/rows", vec![too_big, 0]);
        let mut bad_step = dict;
        bad_step.put_u64("adam/0/step", too_big);
        for bad in [bad_rows, bad_step] {
            assert!(matches!(
                Adam::new(0.1).import_state("adam", &bad),
                Err(CkptError::WrongType(_))
            ));
        }
    }
}
