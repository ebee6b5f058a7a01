//! Negative tests for the `checked`-mode sanitizer: malformed tapes and
//! poisoned values must be rejected with a diagnostic, not a slice panic or
//! a silent NaN. Compiled only under `--features checked`.

#![cfg(feature = "checked")]

use mhg_autograd::{Graph, ParamId, ParamStore, Towers};
use mhg_tensor::Tensor;

#[test]
#[should_panic(expected = "dangling Var")]
fn dangling_var_in_op_is_rejected() {
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let a = g.constant(Tensor::zeros(1, 2));
    // A Var forged out of thin air — e.g. one kept from a previous step's
    // graph — must be diagnosed, not read out of bounds.
    let ghost = Graph::forge_var(41);
    let _ = g.add(a, ghost);
}

#[test]
#[should_panic(expected = "dangling Var")]
fn dangling_loss_var_is_rejected_by_backward() {
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let _ = g.constant(Tensor::zeros(1, 1));
    let ghost = Graph::forge_var(9);
    let _ = g.backward(ghost);
}

#[test]
#[should_panic(expected = "non-finite element")]
fn nan_poisoned_parameter_is_rejected_when_recorded() {
    let mut params = ParamStore::new();
    let w = params.register("w", Tensor::from_vec(1, 2, vec![1.0, f32::NAN]));
    let mut g = Graph::new(&params);
    let _ = g.param(w);
}

#[test]
#[should_panic(expected = "non-finite element")]
fn nan_poisoned_embedding_row_is_rejected_by_gather() {
    let mut params = ParamStore::new();
    let mut table = Tensor::zeros(4, 3);
    table[(2, 1)] = f32::INFINITY;
    let emb = params.register("emb", table);
    let mut g = Graph::new(&params);
    let _ = g.gather(emb, &[0, 2]);
}

#[test]
#[should_panic(expected = "out of bounds for parameter table")]
fn gather_index_out_of_bounds_is_rejected() {
    let mut params = ParamStore::new();
    let emb = params.register("emb", Tensor::zeros(4, 3));
    let mut g = Graph::new(&params);
    let _ = g.gather(emb, &[0, 4]);
}

#[test]
#[should_panic(expected = "segment offsets decrease at segment 1 (3 > 2)")]
fn non_monotone_segment_offsets_are_rejected() {
    let mut params = ParamStore::new();
    let emb = params.register("emb", Tensor::zeros(4, 3));
    let mut g = Graph::new(&params);
    let _ = g.gather_segment_mean(emb, vec![0, 1, 2, 3], vec![0, 3, 2, 4], vec![0, 1, 2]);
}

#[test]
#[should_panic(expected = "row index 4 out of bounds for parameter table `emb`")]
fn segment_id_out_of_bounds_is_rejected() {
    let mut params = ParamStore::new();
    let emb = params.register("emb", Tensor::zeros(4, 3));
    let mut g = Graph::new(&params);
    let _ = g.gather_segment_mean(emb, vec![0, 4], vec![0, 1, 2], vec![0, 1]);
}

/// A 4-row flow table and a 3 × 3 tower weight.
fn tower_params() -> (ParamStore, ParamId, ParamId) {
    let mut params = ParamStore::new();
    let flow = params.register("flow", Tensor::zeros(4, 3));
    let w = params.register("w", Tensor::zeros(3, 3));
    (params, flow, w)
}

#[test]
#[should_panic(expected = "mean_towers: step offsets decrease at step 1 (3 > 2)")]
fn non_monotone_tower_step_offsets_are_rejected() {
    let (params, flow, w) = tower_params();
    let mut g = Graph::new(&params);
    let towers = Towers {
        step_offsets: vec![0, 3, 2, 4],
        tower_offsets: vec![0, 3],
        weights: vec![w],
    };
    let _ = g.mean_towers(flow, vec![0, 1, 2, 3], towers);
}

#[test]
#[should_panic(expected = "mean_towers: tower 1 is empty")]
fn a_tower_without_steps_is_rejected() {
    let (params, flow, w) = tower_params();
    let mut g = Graph::new(&params);
    let towers = Towers {
        step_offsets: vec![0, 1, 2],
        tower_offsets: vec![0, 2, 2],
        weights: vec![w, w],
    };
    let _ = g.mean_towers(flow, vec![0, 1], towers);
}

#[test]
#[should_panic(expected = "mean_towers: row index 4 out of bounds for parameter table `flow`")]
fn tower_id_out_of_bounds_is_rejected() {
    let (params, flow, w) = tower_params();
    let mut g = Graph::new(&params);
    let mut towers = Towers::new();
    towers.end_step(1);
    towers.end_step(3);
    towers.end_tower(w);
    let _ = g.mean_towers(flow, vec![0, 2, 4], towers);
}

#[test]
#[should_panic(expected = "segment_mean_rows: segment offsets end at Some(4), not at the 3 rows")]
fn segment_offsets_past_the_input_are_rejected() {
    let mut params = ParamStore::new();
    let x = params.register("x", Tensor::zeros(3, 2));
    let mut g = Graph::new(&params);
    let xv = g.param(x);
    let _ = g.segment_mean_rows(xv, vec![0, 2, 4], None);
}

#[test]
#[should_panic(expected = "project_residual: row index 9 out of bounds for parameter table `base`")]
fn projection_centre_out_of_bounds_is_rejected() {
    let mut params = ParamStore::new();
    let base = params.register("base", Tensor::zeros(4, 3));
    let w = params.register("w_out", Tensor::zeros(2, 3));
    let x = params.register("x", Tensor::zeros(2, 2));
    let mut g = Graph::new(&params);
    let xv = g.param(x);
    let _ = g.project_residual(xv, base, vec![1, 9], vec![w], vec![0, 1]);
}

#[test]
#[should_panic(expected = "non-finite")]
fn overflowing_forward_op_is_rejected() {
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let big = g.constant(Tensor::full(1, 1, f32::MAX));
    // f32::MAX * f32::MAX overflows to +inf; the sanitizer must catch the
    // poisoned product at the op that produced it.
    let _ = g.mul(big, big);
}

#[test]
fn well_formed_tape_passes_validation() {
    let mut params = ParamStore::new();
    let w = params.register("w", Tensor::from_vec(2, 2, vec![0.5, -0.25, 1.0, 0.75]));
    let emb = params.register("emb", Tensor::from_vec(3, 2, vec![0.1; 6]));
    let mut g = Graph::new(&params);
    let x = g.gather(emb, &[0, 2]);
    let pooled = g.gather_segment_mean(emb, vec![1, 2, 2], vec![0, 0, 3], vec![1, 0]);
    let x = g.add(x, pooled);
    let wv = g.param(w);
    let h = g.matmul(x, wv);
    let a = g.tanh(h);
    let s = g.row_dot(a, a);
    let loss = g.logistic_loss(s, &[1.0, -1.0]);
    g.validate_tape();
    let grads = g.backward(loss);
    g.validate_grads(&grads);
    assert!(grads.get(w).is_some());
    assert!(grads.get(emb).is_some());
}

#[test]
fn well_formed_batched_tape_passes_validation() {
    // HybridGNN's step in miniature: towers, attention and mean, attention,
    // projection; `backward` validates the tape and the gradients.
    let mut params = ParamStore::new();
    let flow = params.register(
        "flow",
        Tensor::from_vec(3, 2, vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6]),
    );
    let w = params.register("w", Tensor::from_vec(2, 2, vec![0.5, -0.25, 1.0, 0.75]));
    let base = params.register("base", Tensor::from_vec(3, 3, vec![0.1; 9]));
    let w_out = params.register(
        "w_out",
        Tensor::from_vec(2, 3, vec![0.2, -0.1, 0.3, 0.0, 0.4, -0.6]),
    );
    let mut g = Graph::new(&params);
    let mut towers = Towers::new();
    for (end, weight) in [
        (1, None),
        (3, Some(w)),
        (4, Some(w)),
        (5, None),
        (6, Some(w)),
    ] {
        towers.end_step(end);
        if let Some(weight) = weight {
            towers.end_tower(weight);
        }
    }
    let flows = g.mean_towers(flow, vec![0, 1, 2, 1, 2, 0], towers);
    let h = g.segment_mean_rows(flows, vec![0, 2, 3], Some([w, w, w]));
    let u = g.segment_attention(h, vec![0, 1, 2], [w, w, w]);
    let e = g.project_residual(u, base, vec![0, 2], vec![w_out], vec![0, 1, 1]);
    let s = g.row_dot(e, e);
    let loss = g.logistic_loss(s, &[1.0, -1.0, -1.0]);
    g.validate_tape();
    let grads = g.backward(loss);
    g.validate_grads(&grads);
    for p in [flow, w, base, w_out] {
        assert!(grads.get(p).is_some());
    }
}
