//! Property tests pinning the packed register-blocked GEMM to the naive
//! triple-loop reference, for all three layouts, across shapes that
//! straddle every microkernel/blocking boundary (MR = 8, the per-tier
//! NR ∈ {16, 32, 48}, MC = 64, KC = 256), plus thread-count invariance
//! (mirroring `prop/kernels.rs`'s `thread_count_invariance`) and
//! microkernel-tier equivalence: every tier the CPU can run must agree
//! with the scalar reference tier on every layout, shape and pool size.
//! One property repeats the layout and thread-count checks on
//! subnormal-heavy operands under the training step's flush guard
//! (`gsgcn_tensor::fpmode`).

use gsgcn_tensor::fpmode::FlushDenormals;
use gsgcn_tensor::{gemm, DMatrix};
use proptest::prelude::*;

/// Dimension values straddling the blocking boundaries (every tier's NR
/// — 16, 32, 48 — plus MR and MC edges), indexed by a proptest-chosen
/// selector so cases cover edges densely rather than uniformly.
const EDGE_DIMS: [usize; 14] = [1, 2, 7, 8, 9, 15, 17, 31, 32, 33, 47, 49, 65, 80];

/// `(m, k, n)` with every dimension drawn from the edge set.
fn edge_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        0usize..EDGE_DIMS.len(),
        0usize..EDGE_DIMS.len(),
        0usize..EDGE_DIMS.len(),
    )
        .prop_map(|(mi, ki, ni)| (EDGE_DIMS[mi], EDGE_DIMS[ki], EDGE_DIMS[ni]))
}

/// `(A m×k, B k×n)` with every dimension drawn from the edge set.
fn edge_pair() -> impl Strategy<Value = (DMatrix, DMatrix)> {
    edge_dims().prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-2.0f32..2.0, m * k)
                .prop_map(move |d| DMatrix::from_vec(m, k, d)),
            proptest::collection::vec(-2.0f32..2.0, k * n)
                .prop_map(move |d| DMatrix::from_vec(k, n, d)),
        )
    })
}

/// `rows × cols`, a third subnormal, a third tiny normals whose products
/// underflow, a third in `[-2, 2)`; every third row (0, 3, 6, …) is
/// wholly subnormal.
fn subnormal_heavy(rows: usize, cols: usize) -> impl Strategy<Value = DMatrix> {
    proptest::collection::vec((0u8..3, -1.0f32..1.0), rows * cols).prop_map(move |cells| {
        DMatrix::from_fn(rows, cols, |i, j| {
            let (kind, u) = cells[i * cols + j];
            match if i % 3 == 0 { 0 } else { kind } {
                0 => u * 1e-39,
                1 => u * 1e-20,
                _ => 2.0 * u,
            }
        })
    })
}

/// [`edge_pair`]'s shapes with [`subnormal_heavy`] operands.
fn subnormal_pair() -> impl Strategy<Value = (DMatrix, DMatrix)> {
    edge_dims().prop_flat_map(|(m, k, n)| (subnormal_heavy(m, k), subnormal_heavy(k, n)))
}

/// Run `f` on a `threads`-sized pool with subnormals flushed on the
/// calling thread only; the pool must carry the mode to its workers.
fn flushed<R: Send>(threads: usize, f: impl Fn() -> R + Sync) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| {
            let _flush = FlushDenormals::enter();
            f()
        })
}

fn bits(m: &DMatrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// nn layout ≡ reference at blocking edges.
    #[test]
    fn packed_nn_matches_reference((a, b) in edge_pair()) {
        let c = gemm::matmul(&a, &b);
        let r = gemm::matmul_reference(&a, &b);
        prop_assert!(c.max_abs_diff(&r) < 5e-3, "shape {:?}·{:?}", a.shape(), b.shape());
    }

    /// tn layout ≡ explicit transpose then reference.
    #[test]
    fn packed_tn_matches_reference((a, b) in edge_pair()) {
        // A is k×m here: Aᵀ·B with the shared k dimension.
        let c = gemm::matmul_tn(&a, &a);
        let r = gemm::matmul_reference(&a.transpose(), &a);
        prop_assert!(c.max_abs_diff(&r) < 5e-3);
        let _ = b;
    }

    /// nt layout ≡ reference against the explicit transpose.
    #[test]
    fn packed_nt_matches_reference((a, b) in edge_pair()) {
        // A·Bᵀ needs B stored n×k: reuse b's transpose for a valid pair.
        let bt = b.transpose(); // n×k with n = b.cols()
        let c = gemm::matmul_nt(&a, &bt);
        let r = gemm::matmul_reference(&a, &b);
        prop_assert!(c.max_abs_diff(&r) < 5e-3);
    }

    /// α/β accumulation against a hand-computed model.
    #[test]
    fn alpha_beta_model((a, b) in edge_pair(), alpha in -2.0f32..2.0, beta in -2.0f32..2.0) {
        let mut c = DMatrix::filled(a.rows(), b.cols(), 1.0);
        gemm::gemm_nn(alpha, &a, &b, beta, &mut c);
        let r = gemm::matmul_reference(&a, &b);
        for i in 0..c.rows() {
            for j in 0..c.cols() {
                let want = alpha * r.get(i, j) + beta;
                prop_assert!((c.get(i, j) - want).abs() < 2e-2,
                    "({i},{j}): {} vs {want}", c.get(i, j));
            }
        }
    }

    /// Results are bit-identical across pool sizes — the property the
    /// trainer's `deterministic_given_seed_and_parallelism` relies on.
    #[test]
    fn thread_count_invariance((a, b) in edge_pair()) {
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| gemm::matmul(&a, &b))
        };
        let one = run(1);
        let eight = run(8);
        prop_assert_eq!(one, eight);
    }

    /// Microkernel-tier equivalence: every tier available on this CPU
    /// produces results within 1e-4 of the scalar reference tier, for all
    /// three layouts (nn/nt/tn), at blocking-boundary shapes, under
    /// 1/2/4-thread pools. `GSGCN_KERNEL` CI runs force one process-wide
    /// tier; this property forces each in turn inside one process.
    #[test]
    fn tier_equivalence_all_layouts((a, b) in edge_pair(), ti in 0..3usize) {
        let threads = [1usize, 2, 4][ti];
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let at = a.transpose();
        let bt = b.transpose();
        // `with_tier` wraps the GEMM calls *inside* the pool so the
        // override is visible on the thread the driver runs on.
        let run = |tier: gemm::Tier| {
            pool.install(|| {
                gemm::with_tier(tier, || {
                    (
                        gemm::matmul(&a, &b),
                        gemm::matmul_nt(&a, &bt),
                        gemm::matmul_tn(&at, &b),
                    )
                })
            })
        };
        let (r_nn, r_nt, r_tn) = run(gemm::Tier::Scalar);
        // Scalar is the reference itself — only the SIMD tiers need checking.
        for tier in gemm::available_tiers()
            .into_iter()
            .filter(|&t| t != gemm::Tier::Scalar)
        {
            let (c_nn, c_nt, c_tn) = run(tier);
            prop_assert!(
                c_nn.max_abs_diff(&r_nn) < 1e-4,
                "nn: tier {} vs scalar, shape {:?}·{:?}, {threads} threads",
                tier.name(), a.shape(), b.shape()
            );
            prop_assert!(
                c_nt.max_abs_diff(&r_nt) < 1e-4,
                "nt: tier {} vs scalar, {threads} threads", tier.name()
            );
            prop_assert!(
                c_tn.max_abs_diff(&r_tn) < 1e-4,
                "tn: tier {} vs scalar, {threads} threads", tier.name()
            );
        }
    }

    /// Under the flush guard, all three layouts on subnormal-heavy
    /// operands match the reference run under the same guard, every
    /// wholly-subnormal row of A gives an output row of exact ±0 bits (a
    /// subnormal would compare `== 0.0` under DAZ), and the bits are the
    /// same on 1, 2 and 4 threads, so pieces that workers claim flush too.
    #[test]
    fn packed_gemm_flushes_like_the_reference((a, b) in subnormal_pair()) {
        let reference = flushed(1, || gemm::matmul_reference(&a, &b));
        let (at, bt) = (a.transpose(), b.transpose());
        let layouts: [(&str, &(dyn Fn() -> DMatrix + Sync)); 3] = [
            ("nn", &|| gemm::matmul(&a, &b)),
            ("tn", &|| gemm::matmul_tn(&at, &b)),
            ("nt", &|| gemm::matmul_nt(&a, &bt)),
        ];
        for (name, product) in layouts {
            let one = flushed(1, product);
            prop_assert!(
                one.max_abs_diff(&reference) < 5e-3,
                "{name} {:?}·{:?}", a.shape(), b.shape()
            );
            for i in (0..one.rows()).step_by(3) {
                prop_assert!(
                    (0..one.cols()).all(|j| one.get(i, j).to_bits() << 1 == 0),
                    "{name}: subnormal row {i} did not flush"
                );
            }
            for threads in [2, 4] {
                prop_assert!(
                    bits(&flushed(threads, product)) == bits(&one),
                    "{name} {:?}·{:?}: {threads} threads differ from 1", a.shape(), b.shape()
                );
            }
        }
    }

    /// Strided column-half outputs equal the dense per-half products —
    /// the GCN forward's write pattern.
    #[test]
    fn strided_halves_match_dense((h, w1) in edge_pair(), seed in any::<u64>()) {
        let half = w1.cols();
        let w2 = DMatrix::from_fn(w1.rows(), half, |i, j| {
            ((i * 31 + j * 7 + seed as usize % 13) % 11) as f32 * 0.1 - 0.5
        });
        let mut out = DMatrix::filled(h.rows(), 2 * half, f32::NAN);
        gemm::gemm_nn_v(1.0, h.view(), w1.view(), 0.0, out.view_cols_mut(0, half));
        gemm::gemm_nn_v(1.0, h.view(), w2.view(), 0.0, out.view_cols_mut(half, 2 * half));
        let left = gemm::matmul(&h, &w1);
        let right = gemm::matmul(&h, &w2);
        for i in 0..h.rows() {
            for j in 0..half {
                prop_assert!((out.get(i, j) - left.get(i, j)).abs() < 1e-4);
                prop_assert!((out.get(i, j + half) - right.get(i, j)).abs() < 1e-4);
            }
        }
    }
}
