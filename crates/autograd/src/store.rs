//! Parameter storage and gradient accumulation.
//!
//! Parameters (embedding tables, weight matrices) live outside the per-step
//! tape in a [`ParamStore`], so that large embedding tables are never copied
//! onto the tape: the tape only ever *gathers* the rows a batch touches.
//! Gradients accumulate into a [`GradStore`], which keeps embedding-table
//! gradients sparse (per-row) — the optimizer then only updates touched rows.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use mhg_tensor::Tensor;

/// Identifier of a parameter tensor inside a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ParamId(pub(crate) u32);

impl ParamId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Owns all trainable tensors of a model.
#[derive(Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its id.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len() as u32);
        self.names.push(name.into());
        self.values.push(value);
        id
    }

    /// Immutable access to a parameter's value.
    #[inline]
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.index()]
    }

    /// Mutable access to a parameter's value (used by optimizers).
    #[inline]
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.index()]
    }

    /// The parameter's registered name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.index()]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ParamId(i as u32), self.names[i].as_str(), v))
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Serialises every parameter tensor into `dict` under
    /// `"<prefix>/<index>"` (plus a `"<prefix>/n"` count), for
    /// checkpointing. Registration order is the identity of a parameter, so
    /// indices — not names — key the entries.
    pub fn export_state(&self, prefix: &str, dict: &mut mhg_ckpt::StateDict) {
        dict.put_u64(format!("{prefix}/n"), self.len() as u64);
        for (id, _name, value) in self.iter() {
            dict.put_tensor(format!("{prefix}/{}", id.index()), value.clone());
        }
    }

    /// Restores parameter values exported by [`ParamStore::export_state`]
    /// into an already-registered store. The checkpoint must describe the
    /// same architecture: same parameter count, same shapes.
    pub fn import_state(
        &mut self,
        prefix: &str,
        dict: &mhg_ckpt::StateDict,
    ) -> Result<(), mhg_ckpt::CkptError> {
        let n = dict.u64(&format!("{prefix}/n"))? as usize;
        if n != self.len() {
            return Err(mhg_ckpt::CkptError::ShapeMismatch(format!(
                "store has {} parameters, checkpoint has {n}",
                self.len()
            )));
        }
        for i in 0..n {
            let src = dict.tensor(&format!("{prefix}/{i}"))?;
            let dst = &mut self.values[i];
            if src.rows() != dst.rows() || src.cols() != dst.cols() {
                return Err(mhg_ckpt::CkptError::ShapeMismatch(format!(
                    "parameter `{}` is {}x{}, checkpoint entry is {}x{}",
                    self.names[i],
                    dst.rows(),
                    dst.cols(),
                    src.rows(),
                    src.cols()
                )));
            }
            *dst = src.clone();
        }
        Ok(())
    }
}

impl fmt::Debug for ParamStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("ParamStore");
        for (id, name, v) in self.iter() {
            d.field(name, &format_args!("#{} {}", id.index(), v.shape()));
        }
        d.finish()
    }
}

/// Gradient of one parameter: dense, or sparse rows for embedding tables.
#[derive(Debug, Clone)]
pub enum Grad {
    /// Dense gradient with the parameter's full shape.
    Dense(Tensor),
    /// Sparse per-row gradients.
    Rows {
        /// The touched rows and their accumulated gradients.
        rows: RowGrad,
    },
}

/// Slot-table entry of a row with no gradient.
const UNTOUCHED: u32 = u32::MAX;

/// Sparse gradient of an embedding table, stored as a row-slot table.
///
/// `slots[r]` is the slot of row `r` (or [`UNTOUCHED`]); slot `s` holds the
/// row's gradient in `data[s * cols..(s + 1) * cols]`. Slots are handed out
/// in first-touch order, while [`RowGrad::iter`] walks the table, so every
/// reader — and anything reduced from it — sees the rows in ascending row
/// order.
#[derive(Debug, Clone)]
pub struct RowGrad {
    cols: usize,
    slots: Vec<u32>,
    data: Vec<f32>,
    /// Number of touched rows, which is also the next free slot.
    touched: usize,
    /// Call scratch of [`RowGrad::add_gather`], kept to reuse its capacity:
    /// the call's `(row, input position)` pairs, and one row of partial sums.
    order: Vec<(u32, usize)>,
    partial: Vec<f32>,
}

impl RowGrad {
    fn new(cols: usize) -> Self {
        Self {
            cols,
            slots: Vec::new(),
            data: Vec::new(),
            touched: 0,
            order: Vec::new(),
            partial: Vec::new(),
        }
    }

    /// Width of every gradient row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Iterates over `(row, gradient row)` pairs in ascending row order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f32])> {
        let cols = self.cols;
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != UNTOUCHED)
            .map(move |(r, &s)| {
                let at = s as usize * cols;
                (r, &self.data[at..at + cols])
            })
    }

    /// The gradient row of `row`, and whether it was untouched until now:
    /// an untouched row gets a fresh zero-filled slot.
    fn row_mut(&mut self, row: usize) -> (&mut [f32], bool) {
        if row >= self.slots.len() {
            self.slots.resize(row + 1, UNTOUCHED);
        }
        let fresh = self.slots[row] == UNTOUCHED;
        if fresh {
            assert!(self.touched < UNTOUCHED as usize, "row-slot table is full");
            self.slots[row] = self.touched as u32;
            self.touched += 1;
            self.data.resize(self.data.len() + self.cols, 0.0);
        }
        let at = self.slots[row] as usize * self.cols;
        (&mut self.data[at..at + self.cols], fresh)
    }

    /// Grows `data` once for the new rows among `order` (sorted by row).
    /// Capacity doubles, but never past `slots.len()` rows: the buffer
    /// stays within the size of the dense gradient.
    fn reserve_for(&mut self, order: &[(u32, usize)]) {
        let Some(&(max_row, _)) = order.last() else {
            return;
        };
        if max_row as usize >= self.slots.len() {
            self.slots.resize(max_row as usize + 1, UNTOUCHED);
        }
        let fresh = order
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|group| self.slots[group[0].0 as usize] == UNTOUCHED)
            .count();
        let need = (self.touched + fresh) * self.cols;
        if need > self.data.capacity() {
            let cap = (2 * self.data.capacity()).clamp(need, self.slots.len() * self.cols);
            self.data.reserve_exact(cap - self.data.len());
        }
    }

    /// Adds row `r` of `grad` (`indices.len()` rows of `cols`, back to
    /// back) into row `indices[r]` for every `r`. Each distinct row's
    /// contributions first sum into a partial `0.0 + g₁ + g₂ + …` in input
    /// order; a new row stores the partial, an existing one becomes
    /// `existing + partial`.
    fn add_gather(&mut self, indices: &[u32], grad: &[f32]) {
        assert_eq!(
            grad.len(),
            indices.len() * self.cols,
            "gradient width mismatch"
        );
        let cols = self.cols;
        let grad_row = |r: usize| &grad[r * cols..(r + 1) * cols];
        let mut order = std::mem::take(&mut self.order);
        let mut partial = std::mem::take(&mut self.partial);
        order.clear();
        order.extend(indices.iter().enumerate().map(|(r, &idx)| (idx, r)));
        // Unique keys; within one row the positions keep input order.
        order.sort_unstable();
        self.reserve_for(&order);
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let (dst, fresh) = self.row_mut(group[0].0 as usize);
            if fresh {
                for &(_, r) in group {
                    add_into(dst, grad_row(r));
                }
            } else {
                partial.clear();
                partial.resize(dst.len(), 0.0);
                for &(_, r) in group {
                    add_into(&mut partial, grad_row(r));
                }
                add_into(dst, &partial);
            }
        }
        self.order = order;
        self.partial = partial;
    }
}

/// `dst += src`, element by element.
fn add_into(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Accumulated gradients for a training step, keyed by [`ParamId`].
#[derive(Default, Debug)]
pub struct GradStore {
    grads: BTreeMap<ParamId, Grad>,
}

impl GradStore {
    /// Creates an empty gradient store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates a dense gradient for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` already has a sparse gradient of mismatched width, or a
    /// dense gradient of a different shape.
    pub fn accumulate_dense(&mut self, id: ParamId, grad: Tensor) {
        if let Entry::Vacant(slot) = self.grads.entry(id) {
            slot.insert(Grad::Dense(grad));
            return;
        }
        self.accumulate_dense_rows(id, grad.rows(), grad.cols(), grad.as_slice());
    }

    /// [`GradStore::accumulate_dense`] over a borrowed row-major block of
    /// `rows × cols`, so a caller can reuse one buffer across calls. Adding
    /// into an existing dense gradient is `Tensor::axpy` with `1.0`.
    pub(crate) fn accumulate_dense_rows(
        &mut self,
        id: ParamId,
        rows: usize,
        cols: usize,
        grad: &[f32],
    ) {
        assert_eq!(grad.len(), rows * cols, "gradient block size mismatch");
        match self.grads.get_mut(&id) {
            None => {
                let grad = Tensor::from_vec(rows, cols, grad.to_vec());
                self.grads.insert(id, Grad::Dense(grad));
            }
            Some(Grad::Dense(existing)) => {
                assert_eq!(
                    existing.shape(),
                    mhg_tensor::Shape::new(rows, cols),
                    "axpy shape mismatch"
                );
                add_into(existing.as_mut_slice(), grad);
                #[cfg(feature = "checked")]
                existing.assert_finite("axpy");
            }
            Some(Grad::Rows { rows: sparse }) => {
                // Fold the dense grad into rows: every row becomes touched.
                assert_eq!(sparse.cols, cols, "gradient width mismatch");
                for (r, row) in grad.chunks_exact(cols.max(1)).enumerate() {
                    add_into(sparse.row_mut(r).0, row);
                }
            }
        }
    }

    /// Accumulates a gradient for a single row of parameter `id`.
    pub fn accumulate_row(&mut self, id: ParamId, row: usize, grad_row: &[f32]) {
        match self.grads.get_mut(&id) {
            Some(Grad::Dense(existing)) => {
                assert_eq!(existing.cols(), grad_row.len(), "gradient width mismatch");
                add_into(existing.row_mut(row), grad_row);
            }
            Some(Grad::Rows { rows }) => {
                assert_eq!(rows.cols, grad_row.len(), "gradient width mismatch");
                add_into(rows.row_mut(row).0, grad_row);
            }
            None => {
                let mut rows = RowGrad::new(grad_row.len());
                rows.row_mut(row).0.copy_from_slice(grad_row);
                self.grads.insert(id, Grad::Rows { rows });
            }
        }
    }

    /// Accumulates the gradient of a whole gathered batch at once:
    /// `grad.row(r)` is added into row `indices[r]` of parameter `id`.
    ///
    /// Runs serially: a batch is a few hundred rows, far below what a worker
    /// thread costs to start. See [`RowGrad`] for the layout.
    ///
    /// # Panics
    ///
    /// Panics if `indices.len() != grad.rows()` or the width mismatches an
    /// existing gradient for `id`.
    pub fn accumulate_gather(&mut self, id: ParamId, indices: &[u32], grad: &Tensor) {
        assert_eq!(
            indices.len(),
            grad.rows(),
            "accumulate_gather: {} indices for {} gradient rows",
            indices.len(),
            grad.rows()
        );
        if indices.is_empty() {
            return;
        }
        self.accumulate_gather_rows(id, indices, grad.cols(), grad.as_slice());
    }

    /// [`GradStore::accumulate_gather`] over a borrowed row-major block of
    /// `indices.len()` rows of `cols`, so a caller can reuse one buffer
    /// across calls. `indices` must not be empty.
    pub(crate) fn accumulate_gather_rows(
        &mut self,
        id: ParamId,
        indices: &[u32],
        cols: usize,
        grad: &[f32],
    ) {
        match self.grads.entry(id).or_insert_with(|| Grad::Rows {
            rows: RowGrad::new(cols),
        }) {
            // Only a table also recorded as a whole-parameter leaf lands
            // here; it pays one copy of the block.
            Grad::Dense(existing) => existing.scatter_add_rows(
                indices,
                &Tensor::from_vec(indices.len(), cols, grad.to_vec()),
            ),
            Grad::Rows { rows } => rows.add_gather(indices, grad),
        }
    }

    /// The gradient for `id`, if any part of the model touched it.
    pub fn get(&self, id: ParamId) -> Option<&Grad> {
        self.grads.get(&id)
    }

    /// Iterates over `(id, grad)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Grad)> {
        self.grads.iter().map(|(&id, g)| (id, g))
    }

    /// Mutable iteration (used by clipping).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ParamId, &mut Grad)> {
        self.grads.iter_mut().map(|(&id, g)| (id, g))
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Whether no gradients were recorded.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Converts the gradient of `id` to a dense tensor of shape `shape`
    /// (zeros where untouched). Test helper.
    pub fn to_dense(&self, id: ParamId, rows: usize, cols: usize) -> Tensor {
        let mut out = Tensor::zeros(rows, cols);
        match self.grads.get(&id) {
            None => {}
            Some(Grad::Dense(t)) => out = t.clone(),
            Some(Grad::Rows { rows }) => {
                for (r, g) in rows.iter() {
                    add_into(out.row_mut(r), g);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(2, 3));
        assert_eq!(store.name(id), "w");
        assert_eq!(store.value(id).shape().rows, 2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 6);
    }

    #[test]
    fn dense_accumulation_adds() {
        let mut gs = GradStore::new();
        let id = ParamId(0);
        gs.accumulate_dense(id, Tensor::full(2, 2, 1.0));
        gs.accumulate_dense(id, Tensor::full(2, 2, 2.0));
        let d = gs.to_dense(id, 2, 2);
        assert_eq!(d, Tensor::full(2, 2, 3.0));
    }

    #[test]
    fn row_accumulation_is_sparse() {
        let mut gs = GradStore::new();
        let id = ParamId(1);
        gs.accumulate_row(id, 5, &[1.0, 2.0]);
        gs.accumulate_row(id, 5, &[1.0, 2.0]);
        gs.accumulate_row(id, 0, &[3.0, 0.0]);
        match gs.get(id).unwrap() {
            Grad::Rows { rows } => {
                assert_eq!(rows.cols(), 2);
                let got: Vec<(usize, &[f32])> = rows.iter().collect();
                assert_eq!(got, [(0, &[3.0, 0.0][..]), (5, &[2.0, 4.0][..])]);
            }
            _ => panic!("expected sparse grad"),
        }
    }

    #[test]
    fn mixed_dense_and_rows() {
        let mut gs = GradStore::new();
        let id = ParamId(0);
        gs.accumulate_row(id, 1, &[1.0, 1.0]);
        gs.accumulate_dense(id, Tensor::full(3, 2, 0.5));
        let d = gs.to_dense(id, 3, 2);
        assert_eq!(d.row(0), &[0.5, 0.5]);
        assert_eq!(d.row(1), &[1.5, 1.5]);
    }
}
