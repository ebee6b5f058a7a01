//! Finite-difference gradient checks for every tape operation.
//!
//! Each test builds a small computation ending in a scalar loss, then
//! verifies the analytic backward pass against central differences. The
//! property tests randomise shapes and seeds.

use mhg_autograd::gradcheck::assert_gradients_close;
use mhg_autograd::{Graph, ParamStore, Towers, Var};
use mhg_tensor::{InitKind, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f32 = 2e-2;

fn store_with(shapes: &[(usize, usize)], seed: u64) -> ParamStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = ParamStore::new();
    for (i, &(r, c)) in shapes.iter().enumerate() {
        let t = InitKind::Uniform { limit: 0.8 }.init(r, c, &mut rng);
        params.register(format!("p{i}"), t);
    }
    params
}

fn pid(params: &ParamStore, i: usize) -> mhg_autograd::ParamId {
    params.iter().nth(i).map(|(id, _, _)| id).unwrap()
}

/// Reduces any matrix to a well-conditioned scalar via sum of sigmoids.
fn to_scalar(g: &mut Graph<'_>, v: Var) -> Var {
    let s = g.sigmoid(v);
    g.sum_all(s)
}

#[test]
fn grad_add_sub_mul() {
    let mut params = store_with(&[(3, 4), (3, 4)], 11);
    let (a, b) = (pid(&params, 0), pid(&params, 1));
    assert_gradients_close(
        &mut params,
        |g| {
            let av = g.param(a);
            let bv = g.param(b);
            let sum = g.add(av, bv);
            let diff = g.sub(sum, bv);
            let prod = g.mul(diff, av);
            to_scalar(g, prod)
        },
        TOL,
    );
}

#[test]
fn grad_matmul() {
    let mut params = store_with(&[(3, 4), (4, 2)], 12);
    let (a, b) = (pid(&params, 0), pid(&params, 1));
    assert_gradients_close(
        &mut params,
        |g| {
            let av = g.param(a);
            let bv = g.param(b);
            let prod = g.matmul(av, bv);
            to_scalar(g, prod)
        },
        TOL,
    );
}

#[test]
fn grad_transpose_chain() {
    let mut params = store_with(&[(2, 5)], 13);
    let a = pid(&params, 0);
    assert_gradients_close(
        &mut params,
        |g| {
            let av = g.param(a);
            let t = g.transpose(av);
            let sq = g.matmul(t, av); // 5×5
            to_scalar(g, sq)
        },
        TOL,
    );
}

#[test]
fn grad_nonlinearities() {
    let mut params = store_with(&[(3, 3)], 14);
    let a = pid(&params, 0);
    assert_gradients_close(
        &mut params,
        |g| {
            let av = g.param(a);
            let s = g.sigmoid(av);
            let t = g.tanh(s);
            // relu around values bounded away from zero to avoid kink noise.
            let shifted = g.add(t, av);
            let r = g.relu(shifted);
            g.sum_all(r)
        },
        5e-2, // relu kink tolerance
    );
}

#[test]
fn grad_softmax_rows() {
    let mut params = store_with(&[(4, 5)], 15);
    let a = pid(&params, 0);
    assert_gradients_close(
        &mut params,
        |g| {
            let av = g.param(a);
            let sm = g.softmax_rows(av);
            // Weight the softmax so the gradient is non-trivial.
            let w = g.constant(Tensor::from_vec(
                4,
                5,
                (0..20).map(|i| (i as f32 * 0.37).sin()).collect(),
            ));
            let weighted = g.mul(sm, w);
            g.sum_all(weighted)
        },
        TOL,
    );
}

#[test]
fn grad_mean_rows_and_concat() {
    let mut params = store_with(&[(3, 4), (2, 4)], 16);
    let (a, b) = (pid(&params, 0), pid(&params, 1));
    assert_gradients_close(
        &mut params,
        |g| {
            let av = g.param(a);
            let bv = g.param(b);
            let cat = g.concat_rows(&[av, bv]); // 5×4
            let mean = g.mean_rows(cat); // 1×4
            to_scalar(g, mean)
        },
        TOL,
    );
}

#[test]
fn grad_slice_rows() {
    let mut params = store_with(&[(5, 3)], 17);
    let a = pid(&params, 0);
    assert_gradients_close(
        &mut params,
        |g| {
            let av = g.param(a);
            let mid = g.slice_rows(av, 1, 4);
            to_scalar(g, mid)
        },
        TOL,
    );
}

#[test]
fn grad_row_dot() {
    let mut params = store_with(&[(4, 3), (4, 3)], 18);
    let (a, b) = (pid(&params, 0), pid(&params, 1));
    assert_gradients_close(
        &mut params,
        |g| {
            let av = g.param(a);
            let bv = g.param(b);
            let scores = g.row_dot(av, bv);
            to_scalar(g, scores)
        },
        TOL,
    );
}

#[test]
fn grad_broadcast_row() {
    let mut params = store_with(&[(4, 3), (1, 3)], 19);
    let (a, bias) = (pid(&params, 0), pid(&params, 1));
    assert_gradients_close(
        &mut params,
        |g| {
            let av = g.param(a);
            let bv = g.param(bias);
            let shifted = g.add_broadcast_row(av, bv);
            to_scalar(g, shifted)
        },
        TOL,
    );
}

#[test]
fn grad_logistic_loss() {
    let mut params = store_with(&[(6, 4), (6, 4)], 20);
    let (a, b) = (pid(&params, 0), pid(&params, 1));
    let labels = [1.0, -1.0, 1.0, 1.0, -1.0, -1.0];
    assert_gradients_close(
        &mut params,
        |g| {
            let av = g.param(a);
            let bv = g.param(b);
            let scores = g.row_dot(av, bv);
            g.logistic_loss(scores, &labels)
        },
        TOL,
    );
}

#[test]
fn grad_gather_scatter() {
    let mut params = store_with(&[(6, 3)], 21);
    let table = pid(&params, 0);
    assert_gradients_close(
        &mut params,
        |g| {
            // Gather with repeats: row 2 twice checks gradient accumulation.
            let rows = g.gather(table, &[2, 0, 2, 5]);
            to_scalar(g, rows)
        },
        TOL,
    );
}

#[test]
fn grad_attention_block() {
    // The paper's Eq. 6: softmax(H·W_Q · (H·W_K)ᵀ / sqrt(d_k)) · H·W_V —
    // the exact composition HybridGNN uses for both attention levels.
    let mut params = store_with(&[(4, 5), (5, 3), (5, 3), (5, 3)], 23);
    let (h, wq, wk, wv) = (
        pid(&params, 0),
        pid(&params, 1),
        pid(&params, 2),
        pid(&params, 3),
    );
    assert_gradients_close(
        &mut params,
        |g| {
            let hv = g.param(h);
            let q = {
                let w = g.param(wq);
                g.matmul(hv, w)
            };
            let k = {
                let w = g.param(wk);
                g.matmul(hv, w)
            };
            let v = {
                let w = g.param(wv);
                g.matmul(hv, w)
            };
            let kt = g.transpose(k);
            let logits = g.matmul(q, kt);
            let scaled = g.scale(logits, 1.0 / (3.0f32).sqrt());
            let attn = g.softmax_rows(scaled);
            let out = g.matmul(attn, v);
            to_scalar(g, out)
        },
        5e-2,
    );
}

#[test]
fn grad_gather_segment_mean() {
    // Segments: empty (centre 4), length 1, a repeated id, empty again
    // (centre 0, also a member of other segments), and one spanning the
    // whole table; row 2 appears in three segments.
    let mut params = store_with(&[(5, 3)], 21);
    let emb = pid(&params, 0);
    assert_gradients_close(
        &mut params,
        |g| {
            let ids = vec![2, 1, 1, 3, 0, 1, 2, 3, 4, 2];
            let offsets = vec![0, 0, 1, 4, 4, 10];
            let m = g.gather_segment_mean(emb, ids, offsets, vec![4, 2, 1, 0, 3]);
            to_scalar(g, m)
        },
        TOL,
    );
}

#[test]
fn grad_gather_segment_mean_feeds_a_shared_table() {
    // The table is also gathered directly, so segment rows accumulate onto
    // rows the other gather touched.
    let mut params = store_with(&[(4, 2), (2, 2)], 22);
    let (emb, w) = (pid(&params, 0), pid(&params, 1));
    assert_gradients_close(
        &mut params,
        |g| {
            let m = g.gather_segment_mean(emb, vec![3, 3, 0, 1], vec![0, 2, 2, 4], vec![0, 2, 1]);
            let wv = g.param(w);
            let h = g.matmul(m, wv);
            let direct = g.gather(emb, &[3, 2, 2]);
            let sum = g.add(h, direct);
            to_scalar(g, sum)
        },
        TOL,
    );
}

#[test]
fn grad_mean_towers() {
    // Three towers over a 5-row table: two steps (the leaf repeats row 2),
    // the centre alone, and three steps with an empty middle step. Towers
    // 0 and 2 share a weight.
    let mut params = store_with(&[(5, 3), (3, 3), (3, 3)], 24);
    let (table, w0, w1) = (pid(&params, 0), pid(&params, 1), pid(&params, 2));
    assert_gradients_close(
        &mut params,
        |g| {
            let mut towers = Towers::new();
            for end in [1, 4] {
                towers.end_step(end);
            }
            towers.end_tower(w0);
            towers.end_step(5);
            towers.end_tower(w1);
            for end in [6, 6, 8] {
                towers.end_step(end);
            }
            towers.end_tower(w0);
            let ids = vec![0, 2, 2, 4, 1, 3, 0, 4];
            let out = g.mean_towers(table, ids, towers);
            to_scalar(g, out)
        },
        TOL,
    );
}

#[test]
fn grad_segment_attention() {
    // Eq. 9 per segment: a 3-row segment, a 1-row one and a 2-row one.
    let mut params = store_with(&[(6, 4), (4, 3), (4, 3), (4, 2)], 25);
    let (x, wq, wk, wv) = (
        pid(&params, 0),
        pid(&params, 1),
        pid(&params, 2),
        pid(&params, 3),
    );
    assert_gradients_close(
        &mut params,
        |g| {
            let xv = g.param(x);
            let out = g.segment_attention(xv, vec![0, 3, 4, 6], [wq, wk, wv]);
            to_scalar(g, out)
        },
        5e-2,
    );
}

#[test]
fn grad_segment_mean_rows() {
    // Eqs. 6–7 (attention, then the mean) and the plain mean of their
    // ablation, over the same segments.
    let mut params = store_with(&[(5, 3), (3, 3), (3, 3), (3, 3)], 26);
    let (x, wq, wk, wv) = (
        pid(&params, 0),
        pid(&params, 1),
        pid(&params, 2),
        pid(&params, 3),
    );
    assert_gradients_close(
        &mut params,
        |g| {
            let xv = g.param(x);
            let attended = g.segment_mean_rows(xv, vec![0, 2, 3, 5], Some([wq, wk, wv]));
            let plain = g.segment_mean_rows(xv, vec![0, 2, 3, 5], None);
            let sum = g.add(attended, plain);
            to_scalar(g, sum)
        },
        5e-2,
    );
}

#[test]
fn grad_project_residual() {
    // Two centres of two rows each, sharing table row 1 once; centre 0's
    // row 1 is picked twice, centre 1's row 0 once.
    let mut params = store_with(&[(4, 3), (4, 2), (2, 3), (2, 3)], 27);
    let (table, x, w0, w1) = (
        pid(&params, 0),
        pid(&params, 1),
        pid(&params, 2),
        pid(&params, 3),
    );
    assert_gradients_close(
        &mut params,
        |g| {
            let xv = g.param(x);
            let out = g.project_residual(xv, table, vec![1, 3], vec![w0, w1], vec![1, 2, 1]);
            to_scalar(g, out)
        },
        TOL,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grad_random_matmul_chain(seed in 0u64..500, m in 1usize..4, k in 1usize..4, n in 1usize..4) {
        let mut params = store_with(&[(m, k), (k, n)], seed);
        let (a, b) = (pid(&params, 0), pid(&params, 1));
        assert_gradients_close(
            &mut params,
            |g| {
                let av = g.param(a);
                let bv = g.param(b);
                let prod = g.matmul(av, bv);
                let sm = g.sigmoid(prod);
                g.sum_all(sm)
            },
            TOL,
        );
    }

    #[test]
    fn grad_random_gather_loss(seed in 0u64..500, rows in 2usize..6, picks in 1usize..5) {
        let mut params = store_with(&[(rows, 3), (rows, 3)], seed);
        let (ta, tb) = (pid(&params, 0), pid(&params, 1));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        use rand::Rng;
        let idx: Vec<u32> = (0..picks).map(|_| rng.gen_range(0..rows as u32)).collect();
        let labels: Vec<f32> = (0..picks).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        assert_gradients_close(
            &mut params,
            move |g| {
                let av = g.gather(ta, &idx);
                let bv = g.gather(tb, &idx);
                let scores = g.row_dot(av, bv);
                g.logistic_loss(scores, &labels)
            },
            TOL,
        );
    }
}
