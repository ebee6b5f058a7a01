//! Serial-vs-parallel bit-identity for every kernel on the `mhg-par` pool.
//!
//! The pool's contract is that the thread count never changes any f32
//! result. These properties drive each ported kernel across random shapes
//! (sized to straddle the pool's inline-work threshold, so the parallel
//! path genuinely runs) and assert `to_bits()` equality between 1 thread
//! and `MHG_THREADS` ∈ {2, 7}, plus a fixed paper-scale case for 1 vs 4.
//! The three dense products are held instead to a naive scalar reference,
//! bit for bit at each of those thread counts, at shapes straddling the
//! GEMM register tile.

use mhg_tensor::{InitKind, Tensor, GEMM_MR, GEMM_NR};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exact bit pattern of a tensor, shape included.
fn bits(t: &Tensor) -> (usize, usize, Vec<u32>) {
    (
        t.rows(),
        t.cols(),
        t.as_slice().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Asserts `compute()` is bit-identical at 1, 2 and 7 threads.
fn assert_parity(compute: impl Fn() -> Tensor) -> Result<(), proptest::test_runner::TestCaseError> {
    let serial = mhg_par::with_threads(1, &compute);
    for threads in [2usize, 7] {
        let parallel = mhg_par::with_threads(threads, &compute);
        prop_assert_eq!(
            bits(&serial),
            bits(&parallel),
            "kernel diverged at {} threads",
            threads
        );
    }
    Ok(())
}

fn random(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    InitKind::Uniform { limit: 2.0 }.init(rows, cols, rng)
}

/// Output rows around the register tile's edges, up to a size that runs
/// the tiled path on several workers.
const ROWS: [usize; 8] = [
    1,
    GEMM_MR - 1,
    GEMM_MR,
    GEMM_MR + 1,
    2 * GEMM_MR + 1,
    4 * GEMM_MR - 1,
    4 * GEMM_MR + 1,
    67,
];
/// Output columns on both sides of the panel width.
const COLS: [usize; 7] = [
    1,
    GEMM_NR - 1,
    GEMM_NR,
    GEMM_NR + 1,
    2 * GEMM_NR + 3,
    37,
    64,
];
/// Reduction lengths, empty included, on both sides of the tiled path's
/// minimum.
const DEPTHS: [usize; 7] = [0, 1, 7, 15, 16, 33, 64];

/// The naive product: every output is `0.0 + Σ_p a(i, p) · b(p, j)`,
/// summed in ascending `p`.
fn reference(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Tensor {
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a(i, p) * b(p, j);
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Asserts `compute()` equals `expected` bit for bit at 1, 2 and 7
/// threads.
fn assert_bits_eq(
    expected: &Tensor,
    compute: impl Fn() -> Tensor,
) -> Result<(), proptest::test_runner::TestCaseError> {
    for threads in [1usize, 2, 7] {
        let got = mhg_par::with_threads(threads, &compute);
        prop_assert_eq!(
            bits(&got),
            bits(expected),
            "product diverged from the reference at {} threads",
            threads
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn matmul_matches_reference(mi in 0usize..ROWS.len(), ki in 0usize..DEPTHS.len(),
                                ni in 0usize..COLS.len(), seed in 0u64..1000) {
        let (m, k, n) = (ROWS[mi], DEPTHS[ki], COLS[ni]);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(m, k, &mut rng);
        let b = random(k, n, &mut rng);
        let expected = reference((m, k, n), |i, p| a[(i, p)], |p, j| b[(p, j)]);
        assert_bits_eq(&expected, || a.matmul(&b))?;
    }

    #[test]
    fn matmul_transposed_matches_reference(mi in 0usize..ROWS.len(), ki in 0usize..DEPTHS.len(),
                                           ni in 0usize..COLS.len(), seed in 0u64..1000) {
        let (m, k, n) = (ROWS[mi], DEPTHS[ki], COLS[ni]);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(m, k, &mut rng);
        let b = random(n, k, &mut rng);
        let expected = reference((m, k, n), |i, p| a[(i, p)], |p, j| b[(j, p)]);
        assert_bits_eq(&expected, || a.matmul_transposed(&b))?;
    }

    #[test]
    fn transposed_matmul_matches_reference(mi in 0usize..ROWS.len(), ki in 0usize..DEPTHS.len(),
                                           ni in 0usize..COLS.len(), seed in 0u64..1000) {
        let (m, k, n) = (ROWS[mi], DEPTHS[ki], COLS[ni]);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(k, m, &mut rng);
        let b = random(k, n, &mut rng);
        let expected = reference((m, k, n), |i, p| a[(p, i)], |p, j| b[(p, j)]);
        assert_bits_eq(&expected, || a.transposed_matmul(&b))?;
    }

    #[test]
    fn transpose_parity((m, n) in (1usize..200, 1usize..120), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(m, n, &mut rng);
        assert_parity(|| a.transpose())?;
        // And the tiled kernel must still be a correct transpose.
        let t = a.transpose();
        for i in 0..m.min(8) {
            for j in 0..n.min(8) {
                prop_assert_eq!(t[(j, i)].to_bits(), a[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn elementwise_parity((m, n) in (1usize..200, 1usize..120), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(m, n, &mut rng);
        let b = random(m, n, &mut rng);
        assert_parity(|| a.zip_map(&b, |x, y| x * y + 0.5))?;
        assert_parity(|| a.map(|x| (x * 1.7).tanh()))?;
        assert_parity(|| a.sigmoid())?;
    }

    #[test]
    fn softmax_rows_parity((m, n) in (1usize..200, 1usize..64), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(m, n, &mut rng);
        assert_parity(|| a.softmax_rows())?;
    }

    #[test]
    fn gather_scatter_parity((rows, n_idx, cols) in (1usize..100, 1usize..400, 1usize..48),
                             seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random(rows, cols, &mut rng);
        let indices: Vec<usize> = (0..n_idx).map(|i| (i * 7 + seed as usize) % rows).collect();
        assert_parity(|| table.gather_rows(&indices))?;

        let grad = random(n_idx, cols, &mut rng);
        let idx32: Vec<u32> = indices.iter().map(|&i| i as u32).collect();
        assert_parity(|| {
            let mut acc = table.clone();
            acc.scatter_add_rows(&idx32, &grad);
            acc
        })?;
    }
}

/// Paper-scale matmul (batch 2048 walks × hidden 128 · 128×128), 1 vs 4
/// threads — the exact pairing the CI determinism matrix exercises.
#[test]
fn paper_scale_matmul_is_bit_identical_at_4_threads() {
    let mut rng = StdRng::seed_from_u64(2022);
    let a = random(2048, 128, &mut rng);
    let b = random(128, 128, &mut rng);
    let serial = mhg_par::with_threads(1, || a.matmul(&b));
    let parallel = mhg_par::with_threads(4, || a.matmul(&b));
    assert_eq!(bits(&serial), bits(&parallel));
}

/// A gather large enough to fan out (`gather_rows` splits only past 2^20
/// gathered elements), 1 vs 2 vs 7 threads.
#[test]
fn large_gather_is_bit_identical_across_threads() {
    let mut rng = StdRng::seed_from_u64(2022);
    let table = random(1000, 128, &mut rng);
    let indices: Vec<usize> = (0..9000).map(|i| (i * 7919) % 1000).collect();
    let serial = mhg_par::with_threads(1, || table.gather_rows(&indices));
    for threads in [2, 7] {
        let parallel = mhg_par::with_threads(threads, || table.gather_rows(&indices));
        assert_eq!(
            bits(&serial),
            bits(&parallel),
            "gather diverged at {threads} threads"
        );
    }
}
