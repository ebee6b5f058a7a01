//! Bit-level semantics of sparse gradient accumulation.
//!
//! Random interleavings of `accumulate_gather`, `accumulate_row` and
//! `accumulate_dense` run against a reference model written with a
//! `BTreeMap` of rows. Its float association is the contract the goldens
//! depend on:
//!
//! * within one gather call, each distinct row sums a partial
//!   `0.0 + g₁ + g₂ + …` in input order; a row already present becomes
//!   `existing + partial`, a new row stores the partial itself;
//! * `accumulate_row` adds `g` directly (and a parameter's first row
//!   stores `g` verbatim);
//! * a dense gradient arriving on a sparse one folds into every row as
//!   `existing + g` (new rows `0.0 + g`).
//!
//! Every check compares `to_bits()`, so `-0.0` versus `+0.0` counts.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use mhg_autograd::{Grad, GradStore, ParamId, ParamStore};
use mhg_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One gradient row of the reference model.
type Row = Vec<f32>;

/// Reference gradient of one parameter.
enum RefGrad {
    Dense(Tensor),
    Rows(BTreeMap<usize, Row>),
}

fn add_into(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[derive(Default)]
struct Reference(BTreeMap<usize, RefGrad>);

impl Reference {
    fn dense(&mut self, p: usize, grad: Tensor) {
        match self.0.get_mut(&p) {
            None => {
                self.0.insert(p, RefGrad::Dense(grad));
            }
            Some(RefGrad::Dense(existing)) => existing.axpy(1.0, &grad),
            Some(RefGrad::Rows(rows)) => {
                for r in 0..grad.rows() {
                    let entry = rows.entry(r).or_insert_with(|| vec![0.0; grad.cols()]);
                    add_into(entry, grad.row(r));
                }
            }
        }
    }

    fn row(&mut self, p: usize, row: usize, g: &[f32]) {
        match self.0.get_mut(&p) {
            None => {
                self.0
                    .insert(p, RefGrad::Rows(BTreeMap::from([(row, g.to_vec())])));
            }
            Some(RefGrad::Dense(existing)) => add_into(existing.row_mut(row), g),
            Some(RefGrad::Rows(rows)) => {
                let entry = rows.entry(row).or_insert_with(|| vec![0.0; g.len()]);
                add_into(entry, g);
            }
        }
    }

    fn gather(&mut self, p: usize, indices: &[u32], grad: &Tensor) {
        if indices.is_empty() {
            return;
        }
        let mut partials: BTreeMap<usize, Row> = BTreeMap::new();
        for (r, &idx) in indices.iter().enumerate() {
            let entry = partials
                .entry(idx as usize)
                .or_insert_with(|| vec![0.0; grad.cols()]);
            add_into(entry, grad.row(r));
        }
        match self
            .0
            .entry(p)
            .or_insert_with(|| RefGrad::Rows(BTreeMap::new()))
        {
            RefGrad::Dense(existing) => existing.scatter_add_rows(indices, grad),
            RefGrad::Rows(rows) => {
                for (row, partial) in partials {
                    match rows.get_mut(&row) {
                        Some(existing) => add_into(existing, &partial),
                        None => {
                            rows.insert(row, partial);
                        }
                    }
                }
            }
        }
    }

    fn to_dense(&self, p: usize, rows: usize, cols: usize) -> Tensor {
        match self.0.get(&p) {
            None => Tensor::zeros(rows, cols),
            Some(RefGrad::Dense(t)) => t.clone(),
            Some(RefGrad::Rows(map)) => {
                let mut out = Tensor::zeros(rows, cols);
                for (&r, g) in map {
                    add_into(out.row_mut(r), g);
                }
                out
            }
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `(row, bits)` pairs in iteration order, for any `(row, values)` iterator.
fn row_bits<R: Borrow<usize>, G: AsRef<[f32]>>(
    rows: impl Iterator<Item = (R, G)>,
) -> Vec<(usize, Vec<u32>)> {
    rows.map(|(r, g)| (*r.borrow(), bits(g.as_ref()))).collect()
}

/// Asserts that `store` matches `reference` bit for bit on every parameter.
fn assert_same(store: &GradStore, reference: &Reference, ids: &[ParamId], params: &ParamStore) {
    for (p, &id) in ids.iter().enumerate() {
        let shape = params.value(id).shape();
        match (store.get(id), reference.0.get(&p)) {
            (None, None) => {}
            (Some(Grad::Dense(t)), Some(RefGrad::Dense(want))) => {
                assert_eq!(bits(t.as_slice()), bits(want.as_slice()), "param {p}");
            }
            (Some(Grad::Rows { rows, .. }), Some(RefGrad::Rows(want))) => {
                assert_eq!(row_bits(rows.iter()), row_bits(want.iter()), "param {p}");
            }
            _ => panic!("param {p}: dense/sparse kind differs from the reference"),
        }
        let got = store.to_dense(id, shape.rows, shape.cols);
        let want = reference.to_dense(p, shape.rows, shape.cols);
        assert_eq!(
            bits(got.as_slice()),
            bits(want.as_slice()),
            "param {p} to_dense"
        );
    }
}

/// Values whose sums depend on association, plus both zeros.
const VALUES: [f32; 10] = [0.0, -0.0, 1.0, -1.0, 0.1, 3.0, 1e8, -1e8, 1e-3, -7.25];

fn value(rng: &mut StdRng) -> f32 {
    if rng.gen_bool(0.7) {
        VALUES[rng.gen_range(0..VALUES.len())]
    } else {
        rng.gen_range(-2.0f32..2.0)
    }
}

fn tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| value(rng)).collect())
}

#[test]
fn random_interleavings_match_the_reference_bit_for_bit() {
    for seed in 0..1500u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamStore::new();
        let ids: Vec<ParamId> = (0..3)
            .map(|p| {
                let (rows, cols) = (rng.gen_range(1..7usize), rng.gen_range(1..4usize));
                params.register(format!("p{p}"), Tensor::zeros(rows, cols))
            })
            .collect();
        let mut store = GradStore::new();
        let mut reference = Reference::default();
        for _ in 0..rng.gen_range(1..13usize) {
            let p = rng.gen_range(0..ids.len());
            let shape = params.value(ids[p]).shape();
            match rng.gen_range(0..10u32) {
                0..=5 => {
                    // Few rows, so indices repeat within and across calls.
                    let k = rng.gen_range(0..7usize);
                    let indices: Vec<u32> = (0..k)
                        .map(|_| rng.gen_range(0..shape.rows as u32))
                        .collect();
                    let grad = tensor(&mut rng, k, shape.cols);
                    store.accumulate_gather(ids[p], &indices, &grad);
                    reference.gather(p, &indices, &grad);
                }
                6..=8 => {
                    let row = rng.gen_range(0..shape.rows);
                    let g: Vec<f32> = (0..shape.cols).map(|_| value(&mut rng)).collect();
                    store.accumulate_row(ids[p], row, &g);
                    reference.row(p, row, &g);
                }
                _ => {
                    let grad = tensor(&mut rng, shape.rows, shape.cols);
                    store.accumulate_dense(ids[p], grad.clone());
                    reference.dense(p, grad);
                }
            }
            assert_same(&store, &reference, &ids, &params);
        }
    }
}

fn one_param(rows: usize, cols: usize) -> (ParamStore, ParamId) {
    let mut params = ParamStore::new();
    let id = params.register("emb", Tensor::zeros(rows, cols));
    (params, id)
}

fn sparse_row(store: &GradStore, id: ParamId, row: usize) -> Vec<u32> {
    match store.get(id) {
        Some(Grad::Rows { rows, .. }) => row_bits(rows.iter())
            .into_iter()
            .find(|&(r, _)| r == row)
            .map(|(_, b)| b)
            .unwrap_or_else(|| panic!("row {row} is untouched")),
        _ => panic!("expected a sparse gradient"),
    }
}

#[test]
fn existing_negative_zero_plus_a_single_negative_zero_is_positive_zero() {
    let (_params, id) = one_param(2, 1);
    let mut store = GradStore::new();
    store.accumulate_row(id, 0, &[-0.0]);
    assert_eq!(sparse_row(&store, id, 0), [(-0.0f32).to_bits()]);
    // −0.0 + (0.0 + −0.0) = −0.0 + 0.0 = +0.0; adding `g` directly would
    // have kept −0.0.
    store.accumulate_gather(id, &[0], &Tensor::from_vec(1, 1, vec![-0.0]));
    assert_eq!(sparse_row(&store, id, 0), [0.0f32.to_bits()]);
    // A new row stores its partial: 0.0 + −0.0 = +0.0.
    store.accumulate_gather(id, &[1], &Tensor::from_vec(1, 1, vec![-0.0]));
    assert_eq!(sparse_row(&store, id, 1), [0.0f32.to_bits()]);
}

#[test]
fn repeated_rows_sum_their_partial_before_the_existing_value() {
    let (_params, id) = one_param(1, 1);
    let mut store = GradStore::new();
    store.accumulate_row(id, 0, &[1e8]);
    // 1e8 + (0.0 − 1e8 + 3.0) = 1e8 − 1e8 = 0.0: the 3.0 is lost inside
    // the partial. Adding each contribution to the existing row in turn
    // would give (1e8 − 1e8) + 3.0 = 3.0.
    store.accumulate_gather(id, &[0, 0], &Tensor::from_vec(2, 1, vec![-1e8, 3.0]));
    let partial = 0.0f32 + -1e8 + 3.0;
    assert_eq!(sparse_row(&store, id, 0), [0.0f32.to_bits()]);
    assert_eq!(sparse_row(&store, id, 0), [(1e8f32 + partial).to_bits()]);
}

#[test]
fn dense_gradient_folds_into_existing_rows() {
    let (params, id) = one_param(3, 2);
    let mut store = GradStore::new();
    let mut reference = Reference::default();
    let gathered = Tensor::from_vec(2, 2, vec![-0.0, 1.0, 2.0, -0.0]);
    store.accumulate_gather(id, &[2, 2], &gathered);
    reference.gather(0, &[2, 2], &gathered);
    let dense = Tensor::from_vec(3, 2, vec![-0.0, 0.5, 1e8, -1e8, -0.0, 3.0]);
    store.accumulate_dense(id, dense.clone());
    reference.dense(0, dense);
    assert_same(&store, &reference, &[id], &params);
    match store.get(id) {
        Some(Grad::Rows { rows, .. }) => {
            let order: Vec<usize> = row_bits(rows.iter()).into_iter().map(|(r, _)| r).collect();
            assert_eq!(order, [0, 1, 2]);
        }
        _ => panic!("expected a sparse gradient"),
    }
}
