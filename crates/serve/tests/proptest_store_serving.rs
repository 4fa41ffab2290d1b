//! Serving-side mem-vs-mmap equivalence: the probabilities a classifier
//! reports must not depend on which `GraphStore` backend sits under it.
//! The forward is floating-point over identical inputs (the mmap store
//! round-trips rows bit-exactly), so the tolerance is the serving
//! contract's 1e-4 — and the shard-aware request validation must reject
//! the same out-of-range ids either way.

use gsgcn_graph::{CsrGraph, GraphBuilder, GraphStore, StoreBackend};
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_serve::{ClassifyWorkspace, NodeClassifier};
use gsgcn_tensor::DMatrix;
use proptest::prelude::*;
use std::sync::Arc;

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

fn both_backends(
    n: usize,
    depth: usize,
    loss: LossKind,
    seed: u64,
) -> (NodeClassifier, NodeClassifier) {
    let g = Arc::new(rand_graph(n, 3 * n, seed));
    let x = Arc::new(DMatrix::from_fn(n, 5, |i, j| {
        ((seed as usize)
            .wrapping_mul(41)
            .wrapping_add(i * 131 + j * 37)
            % 17) as f32
            * 0.13
            - 1.0
    }));
    let model = Arc::new(GcnModel::new(
        GcnConfig {
            in_dim: 5,
            hidden_dims: vec![8; depth],
            num_classes: 4,
            loss,
            ..GcnConfig::default()
        },
        seed ^ 0xBEEF,
    ));
    let mk = |backend| {
        let store =
            GraphStore::from_parts(backend, Arc::clone(&g), Some(Arc::clone(&x)), None).unwrap();
        NodeClassifier::from_store(Arc::clone(&model), Arc::new(store)).unwrap()
    };
    (mk(StoreBackend::Mem), mk(StoreBackend::Mmap))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Classified probabilities agree within 1e-4 between backends, for
    /// random graphs, depths, losses and query batches — and the decided
    /// label sets match exactly.
    #[test]
    fn serving_probs_backend_invariant(
        n in 6usize..40,
        depth in 1usize..4,
        softmax in any::<bool>(),
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u32>(), 1..12),
    ) {
        let loss = if softmax { LossKind::SoftmaxCe } else { LossKind::SigmoidBce };
        let (mem, mmap) = both_backends(n, depth, loss, seed);
        let nodes: Vec<u32> = picks.iter().map(|&p| p % n as u32).collect();
        let (mut ws_a, mut ws_b) = (ClassifyWorkspace::new(), ClassifyWorkspace::new());
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        mem.classify_into(&nodes, &mut ws_a, &mut out_a).unwrap();
        mmap.classify_into(&nodes, &mut ws_b, &mut out_b).unwrap();
        prop_assert_eq!(out_a.len(), out_b.len());
        for (a, b) in out_a.iter().zip(&out_b) {
            prop_assert_eq!(a.node, b.node);
            prop_assert_eq!(&a.labels, &b.labels, "node {}", a.node);
            prop_assert_eq!(a.probs.len(), b.probs.len());
            for (pa, pb) in a.probs.iter().zip(&b.probs) {
                prop_assert!((pa - pb).abs() <= 1e-4, "node {}: {} vs {}", a.node, pa, pb);
            }
        }
    }

    /// Both backends reject the same out-of-range ids, and a bad id in a
    /// batch fails that request without classifying anything.
    #[test]
    fn bad_ids_rejected_identically(n in 6usize..40, seed in any::<u64>(), over in 0u32..1000) {
        let (mem, mmap) = both_backends(n, 1, LossKind::SoftmaxCe, seed);
        let bad = n as u32 + over;
        let nodes = vec![0, bad, 1];
        let mut ws = ClassifyWorkspace::new();
        let mut out = Vec::new();
        let e_mem = mem.classify_into(&nodes, &mut ws, &mut out).unwrap_err();
        prop_assert!(out.is_empty());
        let e_mmap = mmap.classify_into(&nodes, &mut ws, &mut out).unwrap_err();
        prop_assert!(out.is_empty());
        prop_assert!(e_mem.contains(&bad.to_string()), "{}", e_mem);
        prop_assert!(e_mmap.contains(&bad.to_string()), "{}", e_mmap);
    }
}
