//! `Graph::gather_segment_mean` against the composition it replaces: a
//! `gather` plus a `mean_rows` per segment (a `gather` of the centre and a
//! `scale(·, 0.0)` for an empty segment), stacked by `concat_rows`. The
//! forward value, every gradient row and the parameters after an Adam step
//! must agree to the bit.

mod common;

use common::{bits, grad_bits};
use mhg_autograd::{Adam, Grad, GradStore, Graph, Optimizer, ParamId, ParamStore, Var};
use mhg_tensor::{InitKind, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random segmented batch over a `rows`-row table: ids drawn from a small
/// table repeat within and across segments, and about a third of the
/// segments are empty.
struct Segments {
    ids: Vec<u32>,
    offsets: Vec<usize>,
    centers: Vec<u32>,
}

fn segments(rng: &mut StdRng, count: usize, rows: u32) -> Segments {
    let mut ids = Vec::new();
    let mut offsets = vec![0];
    let mut centers = Vec::new();
    for _ in 0..count {
        let len = if rng.gen_range(0..3) == 0 {
            0
        } else {
            rng.gen_range(1..6)
        };
        ids.extend((0..len).map(|_| rng.gen_range(0..rows)));
        offsets.push(ids.len());
        centers.push(rng.gen_range(0..rows));
    }
    Segments {
        ids,
        offsets,
        centers,
    }
}

/// How the table's gradient stands when the aggregation's rows arrive.
#[derive(Clone, Copy, Debug)]
enum Before {
    /// No gradient yet: every row starts fresh.
    Nothing,
    /// A later gather already touched some rows.
    SparseRows,
    /// A whole-table leaf already made the gradient dense.
    Dense,
}

/// Records the aggregation with `record`, then a loss that weights its
/// rows by `weights`, plus the touching term of `before`. Returns the
/// aggregation's value and the gradients.
fn run(
    params: &ParamStore,
    emb: ParamId,
    weights: &Tensor,
    before: Before,
    record: impl FnOnce(&mut Graph<'_>) -> Var,
) -> (Tensor, GradStore) {
    let mut g = Graph::new(params);
    let agg = record(&mut g);
    let w = g.constant(weights.clone());
    let weighted = g.mul(agg, w);
    let mut loss = g.sum_all(weighted);
    // Recorded after the aggregation, so the reverse pass visits it first.
    let other = match before {
        Before::Nothing => None,
        Before::SparseRows => Some(g.gather(emb, &[1, 0, 1])),
        Before::Dense => Some(g.param(emb)),
    };
    if let Some(other) = other {
        let t = g.tanh(other);
        let s = g.sum_all(t);
        loss = g.add(loss, s);
    }
    let value = g.value(agg).clone();
    (value, g.backward(loss))
}

fn composed(g: &mut Graph<'_>, emb: ParamId, s: &Segments) -> Var {
    let rows: Vec<Var> = s
        .centers
        .iter()
        .enumerate()
        .map(|(i, &center)| {
            let segment = &s.ids[s.offsets[i]..s.offsets[i + 1]];
            if segment.is_empty() {
                let row = g.gather(emb, &[center]);
                g.scale(row, 0.0)
            } else {
                let gathered = g.gather(emb, segment);
                g.mean_rows(gathered)
            }
        })
        .collect();
    g.concat_rows(&rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_segment_mean_matches_the_composition_bit_for_bit(
        seed in 0u64..1_000_000,
        count in 1usize..12,
        rows in 1u32..7,
        cols in 1usize..5,
        before in 0usize..3,
    ) {
        let before = [Before::Nothing, Before::SparseRows, Before::Dense][before];
        let mut rng = StdRng::seed_from_u64(seed);
        // At least two rows, so `Before::SparseRows` has rows 0 and 1.
        let rows = rows.max(2);
        let mut params = ParamStore::new();
        let emb = params.register(
            "emb",
            InitKind::Uniform { limit: 1.0 }.init(rows as usize, cols, &mut rng),
        );
        let s = segments(&mut rng, count, rows);
        let weights = InitKind::Uniform { limit: 2.0 }.init(count, cols, &mut rng);

        let (want_value, want_grads) =
            run(&params, emb, &weights, before, |g| composed(g, emb, &s));
        let (got_value, got_grads) = run(&params, emb, &weights, before, |g| {
            g.gather_segment_mean(emb, s.ids.clone(), s.offsets.clone(), s.centers.clone())
        });
        prop_assert_eq!(bits(&got_value), bits(&want_value), "forward, {:?}", before);
        prop_assert_eq!(grad_bits(&got_grads), grad_bits(&want_grads), "gradients, {:?}", before);

        let mut want_params = params;
        let mut got_params = ParamStore::new();
        got_params.register("emb", want_params.value(emb).clone());
        Adam::new(0.05).step(&mut want_params, &want_grads);
        Adam::new(0.05).step(&mut got_params, &got_grads);
        prop_assert_eq!(
            bits(got_params.value(emb)),
            bits(want_params.value(emb)),
            "after one Adam step, {:?}",
            before
        );
    }
}

#[test]
fn an_isolated_centre_is_a_signed_zero_row_and_still_touched() {
    let mut params = ParamStore::new();
    let emb = params.register(
        "emb",
        Tensor::from_rows(&[&[-1.5, 2.0], &[0.5, -0.25], &[-3.0, 4.0]]),
    );
    let mut g = Graph::new(&params);
    // Segment 0 is empty with centre 2, which no segment gathers.
    let m = g.gather_segment_mean(emb, vec![0, 0, 1], vec![0, 0, 3], vec![2, 1]);
    let third = 1.0f32 / 3.0;
    let want = [
        -0.0f32,
        0.0,
        (0.0 - 1.5 - 1.5 + 0.5) * third,
        (0.0 + 2.0 + 2.0 - 0.25) * third,
    ];
    let got: Vec<u32> = bits(g.value(m));
    assert_eq!(got, want.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    let loss = g.sum_all(m);
    let grads = g.backward(loss);
    let Some(Grad::Rows { rows }) = grads.get(emb) else {
        panic!("a gathered table has a sparse gradient");
    };
    let touched: Vec<(usize, Vec<f32>)> = rows.iter().map(|(r, row)| (r, row.to_vec())).collect();
    assert_eq!(
        touched,
        [
            (0, vec![2.0 * third, 2.0 * third]),
            (1, vec![third, third]),
            (2, vec![0.0, 0.0]),
        ]
    );
}
