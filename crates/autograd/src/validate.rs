//! Tape well-formedness and gradient sanitization.
//!
//! [`Graph::validate_tape`] and [`Graph::validate_grads`] can always be
//! called explicitly; under `--features checked` the [`Graph::backward`]
//! pass invokes both automatically, so a malformed tape (dangling [`Var`],
//! out-of-range parameter, non-finite node value, inconsistent shapes) or a
//! corrupt gradient store is rejected with a diagnostic naming the node and
//! invariant instead of surfacing as a slice panic or silent NaN later.

use mhg_tensor::Shape;

use crate::batched::{ProjectResidual, Towers};
use crate::graph::{Graph, Op, SegmentMean, Var};
use crate::store::{Grad, GradStore, ParamId, ParamStore};

/// Checks that `offsets` starts at 0, never decreases (strictly increases
/// when `nonempty`) and ends at `end`: the boundaries of `what`s over
/// `end` `of`.
///
/// # Panics
///
/// Panics on the first violation, with a diagnostic prefixed by `ctx`.
fn check_offsets(offsets: &[usize], end: usize, what: &str, of: &str, nonempty: bool, ctx: &str) {
    assert!(
        offsets.first() == Some(&0),
        "{ctx}: {what} offsets must start at 0, got {:?}",
        offsets.first(),
    );
    for (i, w) in offsets.windows(2).enumerate() {
        assert!(
            w[0] <= w[1],
            "{ctx}: {what} offsets decrease at {what} {i} ({} > {})",
            w[0],
            w[1],
        );
        assert!(!nonempty || w[0] < w[1], "{ctx}: {what} {i} is empty");
    }
    assert!(
        offsets.last() == Some(&end),
        "{ctx}: {what} offsets end at {:?}, not at the {end} {of}",
        offsets.last(),
    );
}

/// Checks that every id is a row of a table of `rows` rows named `name`.
fn check_rows(ids: &[u32], rows: usize, name: &str, ctx: &str) {
    for &idx in ids {
        assert!(
            (idx as usize) < rows,
            "{ctx}: row index {idx} out of bounds for parameter table `{name}` \
             with {rows} rows",
        );
    }
}

/// The shape of parameter `id`, which must be registered in `store`.
fn param_shape(store: &ParamStore, id: ParamId, ctx: &str) -> Shape {
    assert!(
        id.index() < store.len(),
        "{ctx}: parameter #{} is not registered in the store ({} parameters)",
        id.index(),
        store.len(),
    );
    store.value(id).shape()
}

/// Checks the layout of a segment-mean node over a `table`-shaped
/// parameter named `name`: `offsets` starts at 0, never decreases and ends
/// at `ids.len()`, there is one centre per segment, and every id and centre
/// is a row of the table.
///
/// # Panics
///
/// Panics on the first violation, with a diagnostic prefixed by `ctx`.
pub(crate) fn check_segments(op: &SegmentMean, table: Shape, ctx: &str, name: &str) {
    check_offsets(&op.offsets, op.ids.len(), "segment", "ids", false, ctx);
    assert_eq!(
        op.centers.len(),
        op.offsets.len() - 1,
        "{ctx}: {} centres for {} segments",
        op.centers.len(),
        op.offsets.len() - 1,
    );
    check_rows(&op.ids, table.rows, name, ctx);
    check_rows(&op.centers, table.rows, name, ctx);
}

/// Checks a [`Graph::mean_towers`] layout over parameter `table`: both
/// offset lists are well formed, every tower has a step, there is one
/// `d × d` weight per tower for the table's width `d`, and every id is a
/// row of the table.
///
/// # Panics
///
/// Panics on the first violation, with a diagnostic prefixed by `ctx`.
pub(crate) fn check_towers(
    store: &ParamStore,
    table: ParamId,
    ids: &[u32],
    towers: &Towers,
    ctx: &str,
) {
    let shape = param_shape(store, table, ctx);
    check_offsets(&towers.step_offsets, ids.len(), "step", "ids", false, ctx);
    check_offsets(
        &towers.tower_offsets,
        towers.num_steps(),
        "tower",
        "steps",
        true,
        ctx,
    );
    assert_eq!(
        towers.weights.len(),
        towers.tower_offsets.len() - 1,
        "{ctx}: {} weights for {} towers",
        towers.weights.len(),
        towers.tower_offsets.len() - 1,
    );
    let square = Shape::new(shape.cols, shape.cols);
    for (t, &w) in towers.weights.iter().enumerate() {
        let ws = param_shape(store, w, ctx);
        assert_eq!(
            ws,
            square,
            "{ctx}: tower {t}'s weight `{}` is {ws}, not {square}",
            store.name(w),
        );
    }
    check_rows(ids, shape.rows, store.name(table), ctx);
}

/// Checks a segment-attention layout over an `x`-shaped input: `offsets`
/// splits its rows into non-empty segments, and `Wq`, `Wk` are `d × d_k`
/// and `Wv` is `d × d_v` for `x`'s width `d`.
///
/// # Panics
///
/// Panics on the first violation, with a diagnostic prefixed by `ctx`.
pub(crate) fn check_segment_attention(
    store: &ParamStore,
    x: Shape,
    offsets: &[usize],
    qkv: Option<[ParamId; 3]>,
    ctx: &str,
) {
    check_offsets(offsets, x.rows, "segment", "rows", true, ctx);
    let Some([wq, wk, wv]) = qkv else { return };
    let (sq, sk, sv) = (
        param_shape(store, wq, ctx),
        param_shape(store, wk, ctx),
        param_shape(store, wv, ctx),
    );
    assert!(
        sq.rows == x.cols && sk == sq && sv.rows == x.cols,
        "{ctx}: attention weights {sq}, {sk}, {sv} do not fit {x} rows",
    );
}

/// Checks an Eq. 10 projection over an `x`-shaped input: `x` has one row
/// per (centre, weight), every weight is `d_x × d` for the table's width
/// `d`, and every centre and pick is in range, each centre picked at
/// least once.
///
/// # Panics
///
/// Panics on the first violation, with a diagnostic prefixed by `ctx`.
pub(crate) fn check_projection(store: &ParamStore, x: Shape, op: &ProjectResidual, ctx: &str) {
    let table = param_shape(store, op.table, ctx);
    let per = op.weights.len();
    assert!(per > 0, "{ctx}: no projection weights");
    assert_eq!(
        x.rows,
        op.centres.len() * per,
        "{ctx}: {x} rows for {} centres of {per} rows",
        op.centres.len(),
    );
    let want = Shape::new(x.cols, table.cols);
    for &w in &op.weights {
        let ws = param_shape(store, w, ctx);
        assert_eq!(
            ws,
            want,
            "{ctx}: weight `{}` is {ws}, not {want}",
            store.name(w)
        );
    }
    check_rows(&op.centres, table.rows, store.name(op.table), ctx);
    let mut picked = vec![false; op.centres.len()];
    for &k in &op.picks {
        assert!(
            (k as usize) < x.rows,
            "{ctx}: pick {k} is not one of the {} rows",
            x.rows
        );
        picked[k as usize / per] = true;
    }
    let unpicked = picked.iter().position(|&p| !p);
    assert!(
        unpicked.is_none(),
        "{ctx}: centre {} has no picked row",
        unpicked.unwrap_or_default(),
    );
}

impl Graph<'_> {
    /// Checks every structural invariant of the tape, panicking with a
    /// node-level diagnostic on the first violation.
    ///
    /// Invariants:
    ///
    /// 1. **Topological order** — every operand [`Var`] of node `i` refers to
    ///    a node `< i` (the tape is append-only, so a forward-referencing or
    ///    out-of-range operand can only come from a `Var` forged on another
    ///    graph).
    /// 2. **Parameter range** — every parameter id of a node is registered
    ///    in the backing [`ParamStore`](crate::ParamStore), and gather
    ///    indices lie inside the table. Segment, step and tower offsets
    ///    start at 0, never decrease and end at the count they split; the
    ///    batched ops' weights have the shapes their inputs imply.
    /// 3. **Finite values** — no node holds NaN/Inf.
    /// 4. **Shape consistency** — each node's value has the shape implied by
    ///    its operation and operands.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn validate_tape(&self) {
        for (i, node) in self.nodes.iter().enumerate() {
            let operand = |v: Var, role: &str| -> Shape {
                assert!(
                    v.index() < i,
                    "tape node #{i} ({op:?}): {role} operand Var #{idx} is not an \
                     earlier tape node — dangling Var from another Graph?",
                    op = node.op,
                    idx = v.index(),
                );
                self.nodes[v.index()].value.shape()
            };
            let param = |pid: ParamId| -> Shape {
                assert!(
                    pid.index() < self.store.len(),
                    "tape node #{i} ({op:?}): parameter #{pid} is not registered \
                     in the store ({n} parameters)",
                    op = node.op,
                    pid = pid.index(),
                    n = self.store.len(),
                );
                self.store.value(pid).shape()
            };
            let got = node.value.shape();
            let expect = |want: Shape| {
                assert_eq!(
                    got,
                    want,
                    "tape node #{i} ({op:?}): value shape {got} does not match \
                     the shape {want} implied by its operands",
                    op = node.op,
                );
            };

            match &node.op {
                Op::Leaf => {}
                Op::Param(pid) => expect(param(*pid)),
                Op::Gather { pid, indices } => {
                    let table = param(*pid);
                    for &idx in indices {
                        assert!(
                            (idx as usize) < table.rows,
                            "tape node #{i} (Gather): row index {idx} out of \
                             bounds for parameter table with {} rows",
                            table.rows,
                        );
                    }
                    expect(Shape::new(indices.len(), table.cols));
                }
                Op::GatherSegmentMean(op) => {
                    let table = param(op.pid);
                    check_segments(
                        op,
                        table,
                        &format!("tape node #{i} (GatherSegmentMean)"),
                        self.store.name(op.pid),
                    );
                    expect(Shape::new(op.centers.len(), table.cols));
                }
                Op::MeanTowers(op) => {
                    let ctx = format!("tape node #{i} (MeanTowers)");
                    let table = param(op.table);
                    check_towers(self.store, op.table, &op.ids, &op.towers, &ctx);
                    expect(Shape::new(op.towers.len(), table.cols));
                }
                Op::SegmentAttention(op) => {
                    let ctx = format!("tape node #{i} (SegmentAttention)");
                    let sx = operand(op.x, "input");
                    check_segment_attention(self.store, sx, &op.offsets, op.qkv, &ctx);
                    let cols = op.qkv.map_or(sx.cols, |[_, _, wv]| param(wv).cols);
                    let rows = if op.pool {
                        op.offsets.len() - 1
                    } else {
                        sx.rows
                    };
                    expect(Shape::new(rows, cols));
                }
                Op::ProjectResidual(op) => {
                    let ctx = format!("tape node #{i} (ProjectResidual)");
                    let sx = operand(op.x, "input");
                    check_projection(self.store, sx, op, &ctx);
                    expect(Shape::new(op.picks.len(), param(op.table).cols));
                }
                Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => {
                    let (sa, sb) = (operand(*a, "left"), operand(*b, "right"));
                    assert_eq!(
                        sa,
                        sb,
                        "tape node #{i} ({op:?}): operand shapes differ ({sa} vs {sb})",
                        op = node.op,
                    );
                    expect(sa);
                }
                Op::Scale(a, _) => expect(operand(*a, "input")),
                Op::MatMul(a, b) => {
                    let (sa, sb) = (operand(*a, "left"), operand(*b, "right"));
                    assert_eq!(
                        sa.cols, sb.rows,
                        "tape node #{i} (MatMul): inner dimensions differ ({sa} · {sb})",
                    );
                    expect(Shape::new(sa.rows, sb.cols));
                }
                Op::Transpose(a) => {
                    let sa = operand(*a, "input");
                    expect(Shape::new(sa.cols, sa.rows));
                }
                Op::Sigmoid(a) | Op::Tanh(a) | Op::Relu(a) | Op::SoftmaxRows(a) => {
                    expect(operand(*a, "input"));
                }
                Op::MeanRows(a) => {
                    let sa = operand(*a, "input");
                    expect(Shape::new(1, sa.cols));
                }
                Op::ConcatRows(parts) => {
                    let mut rows = 0;
                    let mut cols = got.cols;
                    for &p in parts {
                        let sp = operand(p, "part");
                        rows += sp.rows;
                        cols = sp.cols;
                    }
                    expect(Shape::new(rows, cols));
                }
                Op::RowDot(a, b) => {
                    let (sa, sb) = (operand(*a, "left"), operand(*b, "right"));
                    assert_eq!(
                        sa, sb,
                        "tape node #{i} (RowDot): operand shapes differ ({sa} vs {sb})",
                    );
                    expect(Shape::new(sa.rows, 1));
                }
                Op::AddBroadcastRow(a, bias) => {
                    let (sa, sbias) = (operand(*a, "matrix"), operand(*bias, "bias"));
                    assert_eq!(
                        sbias,
                        Shape::new(1, sa.cols),
                        "tape node #{i} (AddBroadcastRow): bias shape {sbias} is \
                         not a 1 × {} row",
                        sa.cols,
                    );
                    expect(sa);
                }
                Op::SliceRows(a, start, end) => {
                    let sa = operand(*a, "input");
                    assert!(
                        start < end && *end <= sa.rows,
                        "tape node #{i} (SliceRows): range {start}..{end} out of \
                         bounds for {} rows",
                        sa.rows,
                    );
                    expect(Shape::new(end - start, sa.cols));
                }
                Op::LogisticLoss { scores, labels } => {
                    let ss = operand(*scores, "scores");
                    assert_eq!(
                        ss,
                        Shape::new(labels.len(), 1),
                        "tape node #{i} (LogisticLoss): scores shape {ss} does not \
                         match {} labels",
                        labels.len(),
                    );
                    expect(Shape::new(1, 1));
                }
                Op::SumAll(a) => {
                    operand(*a, "input");
                    expect(Shape::new(1, 1));
                }
            }

            node.value
                .assert_finite(&format!("tape node #{i} ({:?})", node.op));
        }
    }

    /// Checks that a [`GradStore`] produced against this graph's parameter
    /// store is well formed: every gradient key refers to a registered
    /// parameter, gradient shapes match the parameter shapes, sparse row
    /// indices are in bounds, and all entries are finite.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn validate_grads(&self, grads: &GradStore) {
        for (id, grad) in grads.iter() {
            assert!(
                id.index() < self.store.len(),
                "gradient for unregistered parameter #{} (store holds {})",
                id.index(),
                self.store.len(),
            );
            let pshape = self.store.value(id).shape();
            let name = self.store.name(id);
            match grad {
                Grad::Dense(t) => {
                    assert_eq!(
                        t.shape(),
                        pshape,
                        "dense gradient shape {} does not match parameter \
                         `{name}` {pshape}",
                        t.shape(),
                    );
                    t.assert_finite(&format!("gradient of `{name}`"));
                }
                Grad::Rows { rows } => {
                    assert_eq!(
                        rows.cols(),
                        pshape.cols,
                        "sparse gradient width for `{name}` does not match \
                         parameter width {}",
                        pshape.cols,
                    );
                    for (r, row) in rows.iter() {
                        assert!(
                            r < pshape.rows,
                            "sparse gradient row {r} out of bounds for `{name}` \
                             with {} rows",
                            pshape.rows,
                        );
                        assert!(
                            row.iter().all(|v| v.is_finite()),
                            "non-finite entry in sparse gradient row {r} of `{name}`",
                        );
                    }
                }
            }
        }
    }

    /// Forges a raw [`Var`] without recording a tape node.
    ///
    /// Only available under `--features checked`, and only meant for negative
    /// tests that exercise the dangling-`Var` diagnostics; a forged `Var` is
    /// by construction *not* a valid handle into any graph.
    #[cfg(feature = "checked")]
    #[doc(hidden)]
    pub fn forge_var(index: u32) -> Var {
        Var(index)
    }
}
