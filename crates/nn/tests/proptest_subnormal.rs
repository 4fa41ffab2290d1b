//! Property tests of the flush-to-zero training contract
//! (`gsgcn_tensor::fpmode`) on subnormal-heavy operands: the regime a
//! converged model's gradients and Adam moments live in.
//!
//! Under a [`FlushDenormals`] guard:
//! * the fused aggregation→GEMM agrees with the unfused composition and
//!   `matmul_reference` run under the same guard, bit-identically across
//!   1, 2 and 4 threads;
//! * whole `train_step`s on subnormal-heavy features and targets give
//!   bit-identical losses and weights across pool sizes 1, 2 and 4.
//!
//! Packed GEMM on subnormal-heavy operands is covered next to the other
//! GEMM properties, in `gsgcn-tensor`'s `proptest_packed_gemm.rs`. The
//! `GSGCN_KERNEL` and `GSGCN_PRECISION=bf16` CI legs run both files per
//! microkernel tier and at bf16 storage. Set `PROPTEST_SEED` to explore
//! cases beyond the fixed stream.

use gsgcn_graph::{CsrGraph, GraphBuilder};
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_prop::fused::AggregatedRows;
use gsgcn_prop::kernels;
use gsgcn_prop::propagator::scale_rows_by_inv_degree;
use gsgcn_tensor::fpmode::FlushDenormals;
use gsgcn_tensor::{gemm, DMatrix};
use proptest::prelude::*;

/// One value of a subnormal-heavy operand, by `kind`: a subnormal, a
/// tiny normal whose products with other tiny values underflow, or an
/// ordinary value in `[-2, 2)`.
fn value(kind: u8, u: f32) -> f32 {
    match kind {
        0 => u * 1e-39,
        1 => u * 1e-20,
        _ => 2.0 * u,
    }
}

/// `rows × cols`, a third subnormal, a third tiny, a third ordinary, with
/// every third row (0, 3, 6, …) wholly subnormal.
fn mixed(rows: usize, cols: usize) -> impl Strategy<Value = DMatrix> {
    proptest::collection::vec((0u8..3, -1.0f32..1.0), rows * cols).prop_map(move |cells| {
        DMatrix::from_fn(rows, cols, |i, j| {
            let (kind, u) = cells[i * cols + j];
            value(if i % 3 == 0 { 0 } else { kind }, u)
        })
    })
}

/// `rows × cols`, every entry subnormal.
fn subnormals(rows: usize, cols: usize) -> impl Strategy<Value = DMatrix> {
    proptest::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |u| DMatrix::from_fn(rows, cols, |i, j| value(0, u[i * cols + j])))
}

/// `(A m×k, B k×n)`, both [`mixed`]. Most `m` span several MC = 64 row
/// blocks, so pool workers claim pieces; `k` reaches past the KC = 256
/// panel edge.
fn subnormal_pair() -> impl Strategy<Value = (DMatrix, DMatrix)> {
    (1usize..200, 1usize..300, 1usize..81).prop_flat_map(|(m, k, n)| (mixed(m, k), mixed(k, n)))
}

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// Run `f` on a `threads`-sized pool with subnormals flushed on the
/// calling thread only; the pool must carry the mode to its workers.
fn flushed<R: Send>(threads: usize, f: impl Fn() -> R + Sync) -> R {
    in_pool(threads, || {
        let _flush = FlushDenormals::enter();
        f()
    })
}

fn bits(m: &DMatrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

fn rand_graph(n: usize, extra: usize, seed: u64) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    let mut s = seed | 1;
    for _ in 0..extra {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = ((s >> 33) as usize) % n;
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let b = ((s >> 33) as usize) % n;
        if a != b {
            edges.push((a as u32, b as u32));
        }
    }
    GraphBuilder::new(n).add_edges(edges).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fused mean-aggregation→GEMM under the guard matches the
    /// flushed unfused composition, bit-identically across thread counts.
    #[test]
    fn fused_aggregation_gemm_flushes_like_the_reference(
        (h, w) in subnormal_pair(), seed in any::<u64>(),
    ) {
        let n = h.rows();
        let g = rand_graph(n, 2 * n, seed);
        let reference = flushed(1, || {
            let mut agg = DMatrix::zeros(n, h.cols());
            kernels::aggregate_feature_partitioned_into(&g, &h, 4096, &mut agg);
            scale_rows_by_inv_degree(&g, &mut agg);
            gemm::matmul_reference(&agg, &w)
        });
        let fused = || {
            let mut c = DMatrix::filled(n, w.cols(), f32::NAN);
            gemm::gemm_source_nn_v(
                1.0, &AggregatedRows::mean(&g, h.view()), w.view(), 0.0, c.view_mut(),
            );
            c
        };
        let one = flushed(1, fused);
        prop_assert!(one.max_abs_diff(&reference) < 5e-3, "n={n} {:?}", w.shape());
        for threads in [2, 4] {
            prop_assert!(bits(&flushed(threads, fused)) == bits(&one), "{threads} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Training steps on subnormal features and subnormal-heavy targets:
    /// losses and every weight are bit-identical across pool sizes 1, 2
    /// and 4.
    ///
    /// The first layer's weights are scaled by 1e30, so a piece that
    /// skipped the flush would lift the subnormal features to ~1e-10
    /// activations where a flushed piece computes zero. Adam normalises
    /// the gradients that follow into visible weight steps, so the
    /// check fails if any piece of any step ran unflushed.
    #[test]
    fn train_step_on_subnormals_is_pool_size_invariant(
        (n, x, y) in (40usize..120).prop_flat_map(|n| (Just(n), subnormals(n, 33), mixed(n, 5))),
        seed in any::<u64>(),
    ) {
        let g = rand_graph(n, 3 * n, seed);
        // Soft targets in [0, 1]: the ordinary entries mapped to {0, 1},
        // the subnormal and tiny ones kept as magnitudes.
        let y = DMatrix::from_fn(n, y.cols(), |i, j| {
            let v = y.get(i, j).abs();
            if v >= 1e-10 { (v >= 1.0) as u8 as f32 } else { v }
        });
        let cfg = GcnConfig {
            in_dim: x.cols(),
            hidden_dims: vec![32, 32],
            num_classes: y.cols(),
            loss: LossKind::SigmoidBce,
            ..GcnConfig::default()
        };
        let model = || {
            let mut m = GcnModel::new(cfg.clone(), seed ^ 0x5AB);
            let mut w = m.export_weights();
            let (wn, ws) = &mut w.layers[0];
            for v in wn.data_mut().iter_mut().chain(ws.data_mut()) {
                *v *= 1e30;
            }
            m.import_weights(&w).unwrap();
            m
        };
        let run = |threads: usize| {
            let mut m = model();
            let losses: Vec<u32> = in_pool(threads, || {
                (0..4).map(|_| m.train_step(&g, &x, &y).loss.to_bits()).collect()
            });
            (losses, m.export_weights())
        };
        let (losses, trained) = run(1);
        prop_assert!(losses.iter().all(|&l| f32::from_bits(l).is_finite()));
        for threads in [2, 4] {
            let (l, w) = run(threads);
            prop_assert!(l == losses, "losses differ at {threads} threads");
            prop_assert!(w.to_bytes() == trained.to_bytes(), "weights differ at {threads} threads");
        }

        // Flushed, the features read as zero, so no gradient reaches a
        // GCN layer or the head's weight: only the head's bias moves.
        let init = model().export_weights();
        prop_assert!(bits(&trained.head_b) != bits(&init.head_b));
        prop_assert!(bits(&trained.head_w) == bits(&init.head_w), "head weight moved");
        for (i, (t, s)) in trained.layers.iter().zip(&init.layers).enumerate() {
            prop_assert!(
                bits(&t.0) == bits(&s.0) && bits(&t.1) == bits(&s.1),
                "layer {i} moved: train_step did not flush"
            );
        }
    }
}
