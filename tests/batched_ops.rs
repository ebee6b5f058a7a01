//! The batched tape ops HybridGNN's step records — `Graph::mean_towers`,
//! `Graph::segment_attention`, `Graph::segment_mean_rows` and
//! `Graph::project_residual` — against the per-node compositions of public
//! ops they replace. The forward value, every gradient row and the
//! parameters after an Adam step must agree to the bit, signs of zeros
//! included.

mod common;

use common::{bits, grad_bits};
use mhg_autograd::{Adam, GradStore, Graph, Optimizer, ParamId, ParamStore, Towers, Var};
use mhg_tensor::{InitKind, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Which gradients the parameters already hold when the op's calls arrive.
#[derive(Clone, Copy, Debug)]
enum Before {
    /// None: every call starts a fresh gradient.
    Nothing,
    /// A later `gather` touched table rows 0 and 1, and a later use of
    /// each listed weight gave it a dense gradient.
    Touched,
    /// A later whole-table leaf made the table's gradient dense too.
    Dense,
}

const BEFORE: [Before; 3] = [Before::Nothing, Before::Touched, Before::Dense];

/// Records `record`, then the loss `Σ out ⊙ weights` plus the terms of
/// `before` over `table` and `dense`, recorded after the op so the reverse
/// pass visits them first. Returns the op's value and the gradients.
fn run(
    params: &ParamStore,
    weights: &Tensor,
    before: Before,
    table: Option<ParamId>,
    dense: &[ParamId],
    record: impl FnOnce(&mut Graph<'_>) -> Var,
) -> (Tensor, GradStore) {
    let mut g = Graph::new(params);
    let out = record(&mut g);
    let w = g.constant(weights.clone());
    let weighted = g.mul(out, w);
    let mut loss = g.sum_all(weighted);
    let mut later = Vec::new();
    if !matches!(before, Before::Nothing) {
        later.extend(dense.iter().map(|&p| g.param(p)));
        match (before, table) {
            (Before::Touched, Some(t)) => later.push(g.gather(t, &[1, 0, 1])),
            (Before::Dense, Some(t)) => later.push(g.param(t)),
            _ => {}
        }
    }
    for v in later {
        let t = g.tanh(v);
        let s = g.sum_all(t);
        loss = g.add(loss, s);
    }
    let value = g.value(out).clone();
    (value, g.backward(loss))
}

/// Loss weights in `[-2, 2]`, about a sixth of them `0.0` or `-0.0`, so
/// zero gradients of both signs reach the op.
fn loss_weights(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let mut w = InitKind::Uniform { limit: 2.0 }.init(rows, cols, rng);
    for v in w.as_mut_slice() {
        match rng.gen_range(0..12) {
            0 => *v = 0.0,
            1 => *v = -0.0,
            _ => {}
        }
    }
    w
}

fn copy_store(params: &ParamStore) -> ParamStore {
    let mut out = ParamStore::new();
    for (_, name, value) in params.iter() {
        out.register(name, value.clone());
    }
    out
}

/// Asserts the two runs agree: forward bits, gradient bits, and every
/// parameter after one Adam step on each.
fn assert_same(
    params: &ParamStore,
    want: (Tensor, GradStore),
    got: (Tensor, GradStore),
    case: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(bits(&got.0), bits(&want.0), "forward, {}", case);
    prop_assert_eq!(grad_bits(&got.1), grad_bits(&want.1), "gradients, {}", case);
    let (mut want_params, mut got_params) = (copy_store(params), copy_store(params));
    Adam::new(0.05).step(&mut want_params, &want.1);
    Adam::new(0.05).step(&mut got_params, &got.1);
    for ((id, name, w), (_, _, g)) in want_params.iter().zip(got_params.iter()) {
        prop_assert_eq!(
            bits(g),
            bits(w),
            "parameter {} (#{}) after one Adam step, {}",
            name,
            id.index(),
            case
        );
    }
    Ok(())
}

/// A tower: its weight and its steps' ids, root first.
type Tower = (ParamId, Vec<Vec<u32>>);

/// Random towers over a `rows`-row table: weights drawn from `weights` (so
/// towers share them), one to four steps, roots of one id (a quarter of
/// them of zero to two), deeper steps of zero to four ids, repeats common.
/// A one-step tower of one id is the centre's own flow.
fn random_towers(rng: &mut StdRng, count: usize, rows: u32, weights: &[ParamId]) -> Vec<Tower> {
    (0..count)
        .map(|_| {
            let w = weights[rng.gen_range(0..weights.len())];
            let depth = rng.gen_range(1..5);
            let steps = (0..depth)
                .map(|k| {
                    let len = match (k, rng.gen_range(0..4)) {
                        (0, 0) => rng.gen_range(0..3),
                        (0, _) => 1,
                        _ => rng.gen_range(0..5),
                    };
                    (0..len).map(|_| rng.gen_range(0..rows)).collect()
                })
                .collect();
            (w, steps)
        })
        .collect()
}

fn flatten(towers: &[Tower]) -> (Vec<u32>, Towers) {
    let mut ids = Vec::new();
    let mut layout = Towers::new();
    for (w, steps) in towers {
        for step in steps {
            ids.extend(step);
            layout.end_step(ids.len());
        }
        layout.end_tower(*w);
    }
    (ids, layout)
}

/// The per-flow composition HybridGNN recorded before `mean_towers`.
fn towers_composed(g: &mut Graph<'_>, table: ParamId, towers: &[Tower]) -> Var {
    let rows: Vec<Var> = towers
        .iter()
        .map(|(w, steps)| {
            let wv = g.param(*w);
            let mut carried: Option<Var> = None;
            for step in steps.iter().rev() {
                let gathered = g.gather(table, step);
                let stack = match carried {
                    Some(c) => g.concat_rows(&[gathered, c]),
                    None => gathered,
                };
                let pooled = g.mean_rows(stack);
                let lin = g.matmul(pooled, wv);
                carried = Some(g.tanh(lin));
            }
            carried.expect("every tower has a step")
        })
        .collect();
    g.concat_rows(&rows)
}

/// The per-segment self-attention HybridGNN recorded before
/// `segment_attention`.
fn attention_composed(g: &mut Graph<'_>, x: Var, [wq, wk, wv]: [ParamId; 3]) -> Var {
    let d_k = g.param_shape(wq).cols as f32;
    let q = {
        let w = g.param(wq);
        g.matmul(x, w)
    };
    let k = {
        let w = g.param(wk);
        g.matmul(x, w)
    };
    let v = {
        let w = g.param(wv);
        g.matmul(x, w)
    };
    let kt = g.transpose(k);
    let logits = g.matmul(q, kt);
    let scaled = g.scale(logits, 1.0 / d_k.sqrt());
    let attn = g.softmax_rows(scaled);
    g.matmul(attn, v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mean_towers_matches_the_per_flow_composition_bit_for_bit(
        seed in 0u64..1_000_000,
        count in 1usize..8,
        rows in 2u32..7,
        cols in 1usize..5,
        num_weights in 1usize..4,
        before in 0usize..3,
    ) {
        let before = BEFORE[before];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamStore::new();
        let table = params.register(
            "flow",
            InitKind::Uniform { limit: 1.0 }.init(rows as usize, cols, &mut rng),
        );
        let weights: Vec<ParamId> = (0..num_weights)
            .map(|i| {
                params.register(format!("w{i}"), InitKind::XavierUniform.init(cols, cols, &mut rng))
            })
            .collect();
        let towers = random_towers(&mut rng, count, rows, &weights);
        let loss_w = loss_weights(&mut rng, count, cols);
        let dense = [weights[0]];

        let want = run(&params, &loss_w, before, Some(table), &dense, |g| {
            towers_composed(g, table, &towers)
        });
        let got = run(&params, &loss_w, before, Some(table), &dense, |g| {
            let (ids, layout) = flatten(&towers);
            g.mean_towers(table, ids, layout)
        });
        assert_same(&params, want, got, &format!("{before:?}, towers {towers:?}"))?;
    }

    #[test]
    fn segment_attention_matches_the_per_segment_composition_bit_for_bit(
        seed in 0u64..1_000_000,
        lens in proptest::collection::vec(1usize..5, 1..5),
        d in 1usize..5,
        mode in 0usize..3,
        before in 0usize..3,
    ) {
        // 0: attention, one row per input row (Eq. 9); 1: attention and
        // mean (Eqs. 6–7); 2: the mean alone (their ablation).
        let before = BEFORE[before];
        let mut rng = StdRng::seed_from_u64(seed);
        let (d_k, d_v) = (rng.gen_range(1..4), rng.gen_range(1..4));
        let shared_qk = rng.gen_range(0..2) == 0;
        let mut params = ParamStore::new();
        let sources: Vec<ParamId> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                params.register(format!("x{i}"), InitKind::Uniform { limit: 1.5 }.init(n, d, &mut rng))
            })
            .collect();
        let wq = params.register("wq", InitKind::XavierUniform.init(d, d_k, &mut rng));
        let wk = if shared_qk {
            wq
        } else {
            params.register("wk", InitKind::XavierUniform.init(d, d_k, &mut rng))
        };
        let wv = params.register("wv", InitKind::XavierUniform.init(d, d_v, &mut rng));
        let qkv = [wq, wk, wv];
        let (out_rows, out_cols) = match mode {
            0 => (lens.iter().sum(), d_v),
            1 => (lens.len(), d_v),
            _ => (lens.len(), d),
        };
        let loss_w = loss_weights(&mut rng, out_rows, out_cols);
        let dense = [wq, wv];
        let mut offsets = vec![0];
        for &n in &lens {
            offsets.push(offsets[offsets.len() - 1] + n);
        }

        let want = run(&params, &loss_w, before, None, &dense, |g| {
            let rows: Vec<Var> = sources
                .iter()
                .map(|&src| {
                    let x = g.param(src);
                    match mode {
                        0 => attention_composed(g, x, qkv),
                        1 => {
                            let h = attention_composed(g, x, qkv);
                            g.mean_rows(h)
                        }
                        _ => g.mean_rows(x),
                    }
                })
                .collect();
            g.concat_rows(&rows)
        });
        let got = run(&params, &loss_w, before, None, &dense, |g| {
            let xs: Vec<Var> = sources.iter().map(|&src| g.param(src)).collect();
            let x = g.concat_rows(&xs);
            match mode {
                0 => g.segment_attention(x, offsets.clone(), qkv),
                1 => g.segment_mean_rows(x, offsets.clone(), Some(qkv)),
                _ => g.segment_mean_rows(x, offsets.clone(), None),
            }
        });
        assert_same(&params, want, got, &format!("{before:?}, mode {mode}, segments {lens:?}"))?;
    }

    #[test]
    fn project_residual_matches_the_per_centre_composition_bit_for_bit(
        seed in 0u64..1_000_000,
        centres in 1usize..6,
        per in 1usize..4,
        d in 1usize..5,
        before in 0usize..3,
    ) {
        let before = BEFORE[before];
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, d_x) = (rng.gen_range(2u32..6), rng.gen_range(1..4));
        let extra_picks = rng.gen_range(0..10);
        let shared_weight = rng.gen_range(0..2) == 0;
        let mut params = ParamStore::new();
        let table = params.register(
            "base",
            InitKind::Uniform { limit: 1.0 }.init(rows as usize, d, &mut rng),
        );
        let sources: Vec<ParamId> = (0..centres)
            .map(|c| {
                params.register(format!("u{c}"), InitKind::Uniform { limit: 1.0 }.init(per, d_x, &mut rng))
            })
            .collect();
        let mut weights: Vec<ParamId> = (0..per)
            .map(|r| {
                params.register(format!("w_out{r}"), InitKind::XavierUniform.init(d_x, d, &mut rng))
            })
            .collect();
        if shared_weight && per > 1 {
            weights[1] = weights[0];
        }
        // Table rows may repeat across centres.
        let centre_rows: Vec<u32> = (0..centres).map(|_| rng.gen_range(0..rows)).collect();
        // Every centre at least once, then repeats, in random order.
        let mut picks: Vec<u32> = (0..centres)
            .map(|c| (c * per + rng.gen_range(0..per)) as u32)
            .collect();
        for _ in 0..extra_picks {
            picks.push(rng.gen_range(0..centres * per) as u32);
        }
        picks.shuffle(&mut rng);
        let loss_w = loss_weights(&mut rng, picks.len(), d);
        let dense = [weights[0]];

        let want = run(&params, &loss_w, before, Some(table), &dense, |g| {
            let mut e = Vec::new();
            for (c, &src) in sources.iter().enumerate() {
                let u = g.param(src);
                let base = g.gather(table, &[centre_rows[c]]);
                for (r, &w) in weights.iter().enumerate() {
                    let row = g.slice_rows(u, r, r + 1);
                    let wv = g.param(w);
                    let proj = g.matmul(row, wv);
                    e.push(g.add(base, proj));
                }
            }
            let parts: Vec<Var> = picks.iter().map(|&k| e[k as usize]).collect();
            g.concat_rows(&parts)
        });
        let got = run(&params, &loss_w, before, Some(table), &dense, |g| {
            let us: Vec<Var> = sources.iter().map(|&src| g.param(src)).collect();
            let u = g.concat_rows(&us);
            g.project_residual(u, table, centre_rows.clone(), weights.clone(), picks.clone())
        });
        assert_same(&params, want, got, &format!("{before:?}, picks {picks:?}"))?;
    }
}

#[test]
fn a_tower_carries_its_leaf_up_to_its_root() {
    // One tower of two steps over a 2-wide table with the identity weight:
    // leaf = tanh(mean(rows 1, 2)), root = tanh(mean(row 0, leaf)).
    let mut params = ParamStore::new();
    let table = params.register(
        "flow",
        Tensor::from_rows(&[&[0.5, -1.0], &[1.0, 0.0], &[0.0, 2.0]]),
    );
    let w = params.register("w", Tensor::eye(2));
    let mut layout = Towers::new();
    layout.end_step(1);
    layout.end_step(3);
    layout.end_tower(w);
    let mut g = Graph::new(&params);
    let out = g.mean_towers(table, vec![0, 1, 2], layout);
    let leaf = [(0.5f32).tanh(), (1.0f32).tanh()];
    let root = [
        ((0.5 + leaf[0]) * 0.5f32).tanh(),
        ((-1.0 + leaf[1]) * 0.5f32).tanh(),
    ];
    // The bits are the proptests' business; this pins the recursion.
    for (got, want) in g.value(out).as_slice().iter().zip(root) {
        assert!((got - want).abs() < 1e-6, "{got} vs {want}");
    }
}
