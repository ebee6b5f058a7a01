//! Behavioural tests for the tape beyond raw gradient correctness:
//! parameter sharing, branch accumulation, clipping, optimizer contracts.

use mhg_autograd::{Adam, Graph, Optimizer, ParamStore};
use mhg_tensor::{InitKind, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn shared_parameter_accumulates_gradient() {
    // w used twice: L = sum(w ⊙ w) ⇒ dL/dw = 2w.
    let mut params = ParamStore::new();
    let w = params.register("w", Tensor::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]));
    let mut g = Graph::new(&params);
    let w1 = g.param(w);
    let w2 = g.param(w);
    let prod = g.mul(w1, w2);
    let loss = g.sum_all(prod);
    let grads = g.backward(loss);
    let d = grads.to_dense(w, 2, 2);
    let expected = params.value(w).scale(2.0);
    assert!(d.max_abs_diff(&expected) < 1e-6);
}

#[test]
fn gather_same_row_twice_accumulates() {
    let mut params = ParamStore::new();
    let table = params.register("t", Tensor::from_rows(&[&[1.0], &[2.0]]));
    let mut g = Graph::new(&params);
    let rows = g.gather(table, &[1, 1, 0]);
    let loss = g.sum_all(rows);
    let grads = g.backward(loss);
    let d = grads.to_dense(table, 2, 1);
    assert_eq!(d[(0, 0)], 1.0);
    assert_eq!(d[(1, 0)], 2.0); // row 1 gathered twice
}

#[test]
fn diamond_graph_accumulates_through_branches() {
    // x → (a = 2x, b = 3x) → loss = sum(a + b) ⇒ dx = 5.
    let mut params = ParamStore::new();
    let x = params.register("x", Tensor::from_rows(&[&[1.0, 1.0]]));
    let mut g = Graph::new(&params);
    let xv = g.param(x);
    let a = g.scale(xv, 2.0);
    let b = g.scale(xv, 3.0);
    let sum = g.add(a, b);
    let loss = g.sum_all(sum);
    let grads = g.backward(loss);
    let d = grads.to_dense(x, 1, 2);
    assert!(d.as_slice().iter().all(|&v| (v - 5.0).abs() < 1e-6));
}

#[test]
fn untouched_parameter_has_no_gradient() {
    let mut params = ParamStore::new();
    let used = params.register("used", Tensor::full(1, 2, 1.0));
    let unused = params.register("unused", Tensor::full(1, 2, 1.0));
    let mut g = Graph::new(&params);
    let u = g.param(used);
    let loss = g.sum_all(u);
    let grads = g.backward(loss);
    assert!(grads.get(used).is_some());
    assert!(grads.get(unused).is_none());
}

#[test]
fn constants_receive_no_gradient_but_propagate() {
    let mut params = ParamStore::new();
    let w = params.register("w", Tensor::full(1, 2, 2.0));
    let mut g = Graph::new(&params);
    let wv = g.param(w);
    let c = g.constant(Tensor::full(1, 2, 10.0));
    let prod = g.mul(wv, c);
    let loss = g.sum_all(prod);
    let grads = g.backward(loss);
    // dL/dw = c = 10.
    let d = grads.to_dense(w, 1, 2);
    assert!(d.as_slice().iter().all(|&v| (v - 10.0).abs() < 1e-6));
    assert_eq!(grads.len(), 1);
}

#[test]
fn adam_reduces_a_dense_loss() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut params = ParamStore::new();
    let w = params.register("w", InitKind::Uniform { limit: 1.0 }.init(3, 3, &mut rng));
    let target = InitKind::Uniform { limit: 1.0 }.init(3, 3, &mut rng);
    let mut opt = Adam::new(0.05);
    let mut last = 0.0;
    for _ in 0..150 {
        let mut g = Graph::new(&params);
        let wv = g.param(w);
        let t = g.constant(target.clone());
        let diff = g.sub(wv, t);
        let sq = g.mul(diff, diff);
        let loss = g.sum_all(sq);
        last = g.scalar(loss);
        let grads = g.backward(loss);
        opt.step(&mut params, &grads);
    }
    assert!(last < 1e-3, "Adam loss {last}");
}

#[test]
fn tape_reuse_across_steps_is_safe() {
    // Parameters persist across tapes; each tape sees the updated values.
    let mut params = ParamStore::new();
    let w = params.register("w", Tensor::from_vec(1, 1, vec![4.0]));
    let mut opt = Adam::new(0.25);
    let mut read = Vec::new();
    let mut written = Vec::new();
    for _ in 0..3 {
        let mut g = Graph::new(&params);
        let wv = g.param(w);
        read.push(g.value(wv)[(0, 0)]);
        let loss = g.sum_all(wv); // dL/dw = 1
        let grads = g.backward(loss);
        opt.step(&mut params, &grads);
        written.push(params.value(w)[(0, 0)]);
    }
    assert_eq!(read[0], 4.0);
    assert_eq!(read[1..], written[..2], "a tape read a stale value");
    // A constant unit gradient moves Adam by ≈ lr every step.
    for (before, after) in read.iter().zip(&written) {
        assert!((before - after - 0.25).abs() < 1e-4, "{before} -> {after}");
    }
}

#[test]
fn empty_gather_is_valid() {
    // Zero-row gathers appear when a node has no neighbors; the tape must
    // handle them without panicking.
    let mut params = ParamStore::new();
    let table = params.register("t", Tensor::full(3, 2, 1.0));
    let mut g = Graph::new(&params);
    let empty = g.gather(table, &[]);
    assert_eq!(g.value(empty).rows(), 0);
    let mean = g.mean_rows(empty); // zeros 1×2 by convention
    assert_eq!(g.value(mean).as_slice(), &[0.0, 0.0]);
}

#[test]
#[should_panic(expected = "scalar loss")]
fn backward_rejects_non_scalar() {
    let mut params = ParamStore::new();
    let w = params.register("w", Tensor::full(2, 2, 1.0));
    let mut g = Graph::new(&params);
    let wv = g.param(w);
    let _ = g.backward(wv);
}

#[test]
fn sum_rows_is_the_zero_seeded_column_sum() {
    // `Graph::mean_rows` scales this sum, so it must stay the zero-seeded
    // row-order fold. `mean · n` rounds twice and lands one ulp away:
    // 0.53899026.
    let xs = [
        0.904_934_76_f32,
        0.155_589_61,
        -0.081_736_53,
        -0.461_441_04,
        0.095_992_62,
        0.914_232_55,
        -0.988_581_7,
    ];
    let s = Tensor::from_vec(xs.len(), 1, xs.to_vec()).sum_rows();
    let direct = xs.iter().fold(0.0f32, |acc, v| acc + v);
    assert_eq!(s[(0, 0)].to_bits(), direct.to_bits());
    assert_eq!(s[(0, 0)], 0.538_990_2);
}
