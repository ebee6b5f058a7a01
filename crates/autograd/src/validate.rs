//! Tape well-formedness and gradient sanitization.
//!
//! [`Graph::validate_tape`] and [`Graph::validate_grads`] can always be
//! called explicitly; under `--features checked` the [`Graph::backward`]
//! pass invokes both automatically, so a malformed tape (dangling [`Var`],
//! out-of-range parameter, non-finite node value, inconsistent shapes) or a
//! corrupt gradient store is rejected with a diagnostic naming the node and
//! invariant instead of surfacing as a slice panic or silent NaN later.

use mhg_tensor::Shape;

use crate::graph::{Graph, Op, Var};
use crate::store::{Grad, GradStore, ParamId};

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
    /// 2. **Parameter range** — every `Param`/`Gather` id is registered in
    ///    the backing [`ParamStore`](crate::ParamStore), and gather indices
    ///    lie inside the table.
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
