//! The immutable serving artifact: one trained model + one graph +
//! features, shared by every worker thread, queried over node batches.
//!
//! A query for K nodes does **not** run the full-graph forward: it
//! extracts the K-rooted L-hop induced subgraph (L = the model's layer
//! count) via [`gsgcn_graph::neighborhood`], gathers that subgraph's
//! feature rows, and runs the workspace-driven forward on it — the
//! inference-side counterpart of the paper's subgraph-minibatch
//! training. The values read off at the root rows are exactly the
//! full-graph outputs (see the neighborhood module docs for the
//! induction argument), and the forward rides the same fused
//! `PackSource` aggregation pipeline as training.
//!
//! # The final hop, cold and warm
//!
//! Every classification ends the same way: the last GCN layer fused
//! over the roots' closed 1-hop [`FrontierBall`] followed by a
//! root-row-limited classifier head (frontier rows never reach the
//! dense GEMM). What differs is where the ball's `acts^{L-1}` rows come
//! from:
//!
//! * **warm** — every ball row is resident in the
//!   [`ActivationCache`](crate::cache::ActivationCache): gather and run
//!   the final hop; the L-hop cone is never extracted. A depth-L query
//!   costs ~1 hop.
//! * **cold** — run the exact cone-pruned forward for the first `L-1`
//!   layers. Its hidden rows are full-graph-exact at every vertex
//!   within distance 1 of the roots (`d + k ≤ L` induction) — exactly
//!   the ball the final hop needs, and exactly what the cache stores,
//!   so the cold path both answers the query and warms the cache.
//!
//! Both paths produce bit-identical root rows (the fused layer and the
//! packed GEMM accumulate per-row), pinned by the cached-vs-uncached
//! proptests in `tests/cache_equivalence.rs`.

use crate::cache::ActivationCache;
use gsgcn_graph::{l_hop_subgraph, one_hop_frontier, CsrGraph, GraphStore, Topology};
use gsgcn_nn::model::{GcnModel, LossKind};
use gsgcn_nn::InferenceWorkspace;
use gsgcn_tensor::DMatrix;
use std::sync::Arc;

/// Per-node classification result.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// The queried node (original graph id).
    pub node: u32,
    /// Decided labels: the argmax class for single-label (softmax)
    /// models, every class with probability ≥ 0.5 for multi-label
    /// (sigmoid) models — possibly empty then.
    pub labels: Vec<u32>,
    /// Full class-probability row for the node.
    pub probs: Vec<f32>,
}

impl Prediction {
    /// Decided labels joined with commas, `-` when empty — the single
    /// presentation shared by the TCP protocol and the `predict` CLI.
    pub fn labels_display(&self) -> String {
        if self.labels.is_empty() {
            "-".to_string()
        } else {
            self.labels
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(",")
        }
    }

    /// The highest class probability of the row.
    pub fn max_prob(&self) -> f32 {
        self.probs.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }
}

/// Reusable per-thread scratch for [`NodeClassifier::classify_into`]:
/// the inference workspace plus the subgraph feature/probability
/// buffers. Warm calls with bounded batch sizes allocate no matrices.
#[derive(Debug)]
pub struct ClassifyWorkspace {
    infer: InferenceWorkspace,
    x: DMatrix,
    /// `acts^{L-1}` rows of the current frontier ball (gathered from
    /// the cache on the warm path, harvested from the cone forward on
    /// the cold path).
    hidden: DMatrix,
    probs: DMatrix,
}

impl Default for ClassifyWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassifyWorkspace {
    /// Fresh (empty) scratch; buffers grow on first use.
    pub fn new() -> Self {
        ClassifyWorkspace {
            infer: InferenceWorkspace::new(),
            x: DMatrix::zeros(0, 0),
            hidden: DMatrix::zeros(0, 0),
            probs: DMatrix::zeros(0, 0),
        }
    }
}

/// The engine-facing batch-classification interface.
///
/// [`NodeClassifier`] is the production implementation; the engine is
/// generic over this trait (the PR-4 `GraphSampler` idiom) so tests can
/// substitute failure-injecting stubs.
pub trait BatchClassify: Send + Sync + 'static {
    /// Classify `nodes`, appending one [`Prediction`] per requested node
    /// in request order to `out`.
    fn classify_into(
        &self,
        nodes: &[u32],
        ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String>;

    /// Number of servable vertices (valid ids are `0..num_nodes`).
    fn num_nodes(&self) -> usize;

    /// Check every node is servable — called by the engine *before*
    /// queueing, so one bad request never poisons the unrelated
    /// requests it would have been coalesced with. The default checks
    /// the id range; [`NodeClassifier`] overrides with shard-aware
    /// validation (a node whose shard is not loaded is rejected with a
    /// message naming the shard).
    fn validate_nodes(&self, nodes: &[u32]) -> Result<(), String> {
        let n = self.num_nodes() as u32;
        match nodes.iter().find(|&&v| v >= n) {
            Some(&bad) => Err(format!("node {bad} out of range (graph has {n} vertices)")),
            None => Ok(()),
        }
    }
}

/// One trained model plus the graph it serves, immutable and `Sync`:
/// clone the `Arc`s in, share the classifier across worker threads.
///
/// Topology and feature rows are read through a [`GraphStore`], so the
/// same classifier serves a fully resident graph (`mem` backend) or a
/// sharded on-disk one (`mmap` backend) whose working set is bounded by
/// the shard-cache budget.
pub struct NodeClassifier {
    model: Arc<GcnModel>,
    store: Arc<GraphStore>,
    /// Shared `(node, version)` → `acts^{L-1}` row cache; `None` serves
    /// every query on the exact cone-pruned path. Single-layer models
    /// never attach one — their "hidden" state is the feature matrix,
    /// already resident.
    cache: Option<Arc<ActivationCache>>,
}

impl NodeClassifier {
    /// Assemble a classifier over a fully resident graph, with no
    /// activation cache (attach one with [`NodeClassifier::with_cache`]).
    /// Fails if the feature matrix does not match the graph or the
    /// model's input width.
    pub fn new(
        model: Arc<GcnModel>,
        graph: Arc<CsrGraph>,
        features: Arc<DMatrix>,
    ) -> Result<Self, String> {
        if features.rows() != graph.num_vertices() {
            return Err(format!(
                "features have {} rows but the graph has {} vertices",
                features.rows(),
                graph.num_vertices()
            ));
        }
        let store = GraphStore::mem(graph, Some(features), None);
        Self::from_store(model, Arc::new(store))
    }

    /// Assemble a classifier over an existing [`GraphStore`] (e.g. a
    /// pre-sharded on-disk graph opened with
    /// `GraphStore::open_with_budget`), with no activation cache. Fails
    /// if the store has no feature matrix or its width does not match
    /// the model's input.
    pub fn from_store(model: Arc<GcnModel>, store: Arc<GraphStore>) -> Result<Self, String> {
        if store.feature_dim() == 0 {
            return Err("graph store holds no feature matrix".into());
        }
        if store.feature_dim() != model.config().in_dim {
            return Err(format!(
                "features are {}-dimensional but the model expects {}",
                store.feature_dim(),
                model.config().in_dim
            ));
        }
        Ok(NodeClassifier {
            model,
            store,
            cache: None,
        })
    }

    /// Replace the activation cache (`None` disables caching). Ignored
    /// with a warning for single-layer models, whose final hop already
    /// reads the feature matrix directly.
    pub fn with_cache(mut self, cache: Option<Arc<ActivationCache>>) -> Self {
        if cache.is_some() && self.model.num_layers() < 2 {
            eprintln!("warning: activation cache ignored for a 1-layer model");
            self.cache = None;
        } else {
            self.cache = cache;
        }
        self
    }

    /// The attached activation cache, if any.
    pub fn cache(&self) -> Option<&Arc<ActivationCache>> {
        self.cache.as_ref()
    }

    /// Number of vertices servable (valid node ids are `0..num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.store.num_vertices()
    }

    /// The graph store backing this classifier.
    pub fn store(&self) -> &Arc<GraphStore> {
        &self.store
    }

    /// Pin the shards holding `nodes` (plus their one-hop frontiers)
    /// resident, exempt from cache eviction, until
    /// [`GraphStore::unpin_all`]. A no-op returning 0 on the `mem`
    /// backend. Use for a known-hot working set so cone-pruned serving
    /// never faults its roots back in.
    pub fn pin_hot(&self, nodes: &[u32]) -> std::io::Result<usize> {
        let mut ball: Vec<u32> = Vec::with_capacity(nodes.len() * 4);
        for &v in nodes {
            if !self.store.contains(v) {
                continue;
            }
            ball.push(v);
            ball.extend_from_slice(&self.store.neighbors_ref(v));
        }
        self.store.pin_nodes(&ball)
    }

    /// Check every requested node is servable. Distinguishes ids beyond
    /// the graph from ids whose **shard is not loaded** (a partial
    /// store deployment): either way the request fails cleanly with a
    /// per-node message instead of poisoning a coalesced batch.
    pub fn validate_nodes(&self, nodes: &[u32]) -> Result<(), String> {
        let n = self.store.num_vertices() as u32;
        for &v in nodes {
            if v >= n {
                return Err(format!("node {v} out of range (graph has {n} vertices)"));
            }
            if !self.store.contains(v) {
                let shard = self
                    .store
                    .shard_of(v)
                    .map(|s| format!(" (shard {s})"))
                    .unwrap_or_default();
                return Err(format!(
                    "node {v} is not servable: its shard{shard} is not loaded in this store"
                ));
            }
        }
        Ok(())
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.model.config().num_classes
    }

    /// The neighborhood depth a query extracts (= model layer count).
    pub fn hops(&self) -> usize {
        self.model.num_layers()
    }

    /// Classify a batch of nodes, appending one [`Prediction`] per
    /// requested node (request order, duplicates included) to `out`.
    /// Fails — rather than panics — on out-of-range ids, so
    /// network-facing callers can reject bad requests cheaply.
    ///
    /// See the module docs: a warm activation cache serves the query
    /// from the roots' 1-hop frontier ball alone; otherwise the exact
    /// cone-pruned L-hop path runs (and populates the cache).
    pub fn classify_into(
        &self,
        nodes: &[u32],
        ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String> {
        if nodes.is_empty() {
            return Ok(());
        }
        self.validate_nodes(nodes)?;
        let g: &GraphStore = &self.store;
        let hops = self.model.num_layers();
        if hops == 1 {
            // Single layer: acts^{L-1} *is* the feature matrix, so the
            // final hop over the original-graph frontier ball is the
            // whole forward (no cache involved).
            let fb = one_hop_frontier(g, nodes);
            self.store
                .gather_features_into(&fb.origin, &mut ws.hidden)
                .map_err(|e| format!("feature read from graph store failed: {e}"))?;
            self.model.infer_probs_final_hop_into(
                &fb.graph,
                &ws.hidden,
                fb.num_roots,
                &mut ws.infer,
                &mut ws.probs,
            );
            self.emit(nodes, &fb.root_locals, ws, out);
            return Ok(());
        }
        if let Some(cache) = &self.cache {
            let fb = one_hop_frontier(g, nodes);
            if cache.try_gather(&fb.origin, self.model.hidden_width(), &mut ws.hidden) {
                // Warm path: every ball row was resident — the L-hop
                // cone is never touched.
                self.model.infer_probs_final_hop_into(
                    &fb.graph,
                    &ws.hidden,
                    fb.num_roots,
                    &mut ws.infer,
                    &mut ws.probs,
                );
                self.emit(nodes, &fb.root_locals, ws, out);
                return Ok(());
            }
        }
        // Cold path: exact cone-pruned forward for the first L-1
        // layers. Cone pruning: layer i only aggregates rows still
        // feeding the roots (dist ≤ L-1-i); outward rows are isolated,
        // so at reddit densities — where the raw ball saturates the
        // graph — the sparse work per query stays proportional to the
        // *inner* cone, not the full ball. Values within dist ≤ 1 of
        // the roots are exact after L-1 layers — the rows the final hop
        // consumes and the cache stores.
        let batch = l_hop_subgraph(g, nodes, hops);
        let layer_graphs = batch.layer_graphs(hops);
        self.store
            .gather_features_into(&batch.sub.origin, &mut ws.x)
            .map_err(|e| format!("feature read from graph store failed: {e}"))?;
        let fb = one_hop_frontier(&batch.sub.graph, &batch.root_locals);
        {
            let hidden_cone = self.model.infer_hidden_pruned_into(
                &layer_graphs[..hops - 1],
                &ws.x,
                &mut ws.infer,
            );
            hidden_cone.gather_rows_into(&fb.origin, &mut ws.hidden);
        }
        self.model.infer_probs_final_hop_into(
            &fb.graph,
            &ws.hidden,
            fb.num_roots,
            &mut ws.infer,
            &mut ws.probs,
        );
        if let Some(cache) = &self.cache {
            // Harvest: map ball-local rows back to original ids. (Vec
            // allocation, not a matrix — the warm-allocation-free
            // contract concerns the matrix side.)
            let orig: Vec<u32> = fb
                .origin
                .iter()
                .map(|&l| batch.sub.origin[l as usize])
                .collect();
            cache.insert_rows(&orig, &ws.hidden);
        }
        self.emit(nodes, &fb.root_locals, ws, out);
        Ok(())
    }

    /// Append one prediction per requested node, reading probability
    /// row `root_locals[i]` for request `i`.
    fn emit(
        &self,
        nodes: &[u32],
        root_locals: &[u32],
        ws: &ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) {
        let single = self.model.config().loss == LossKind::SoftmaxCe;
        out.reserve(nodes.len());
        for (&node, &local) in nodes.iter().zip(root_locals) {
            let row = ws.probs.row(local as usize);
            out.push(Prediction {
                node,
                // The exact decision rule the trainer's F1 evaluation
                // uses — serving must never diverge from it.
                labels: gsgcn_metrics::f1::decide_labels(row, single),
                probs: row.to_vec(),
            });
        }
    }

    /// Allocating convenience wrapper around
    /// [`NodeClassifier::classify_into`].
    pub fn classify(&self, nodes: &[u32]) -> Result<Vec<Prediction>, String> {
        let mut out = Vec::new();
        self.classify_into(nodes, &mut ClassifyWorkspace::new(), &mut out)?;
        Ok(out)
    }

    /// Probabilities from a full-graph forward (every vertex) — the
    /// reference the batched path is tested and benchmarked against.
    /// Materialises the store (cheap `Arc` clones on the `mem` backend;
    /// a full read on `mmap` — reference/diagnostic use only there).
    pub fn full_graph_probs(&self) -> DMatrix {
        let (graph, features, _) = self
            .store
            .materialize()
            .expect("graph store materialize failed");
        let features = features.expect("classifier store always holds features");
        self.model.infer_probs(&graph, &features)
    }

    /// In-place variant of [`NodeClassifier::full_graph_probs`] for
    /// benchmark loops.
    pub fn full_graph_probs_into(&self, ws: &mut ClassifyWorkspace) {
        let (graph, features, _) = self
            .store
            .materialize()
            .expect("graph store materialize failed");
        let features = features.expect("classifier store always holds features");
        self.model
            .infer_probs_into(&graph, &features, &mut ws.infer, &mut ws.probs);
    }
}

impl BatchClassify for NodeClassifier {
    fn classify_into(
        &self,
        nodes: &[u32],
        ws: &mut ClassifyWorkspace,
        out: &mut Vec<Prediction>,
    ) -> Result<(), String> {
        NodeClassifier::classify_into(self, nodes, ws, out)
    }

    fn num_nodes(&self) -> usize {
        NodeClassifier::num_nodes(self)
    }

    fn validate_nodes(&self, nodes: &[u32]) -> Result<(), String> {
        NodeClassifier::validate_nodes(self, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_graph::GraphBuilder;
    use gsgcn_nn::model::GcnConfig;

    fn fixture_parts(loss: LossKind) -> (Arc<GcnModel>, Arc<CsrGraph>, Arc<DMatrix>) {
        // Ring of 12 with chords, 2-layer model.
        let n = 12;
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .map(|i| (i, (i + 1) % n as u32))
            .chain((0..n as u32 / 2).map(|i| (i, i + n as u32 / 2)))
            .collect();
        let g = GraphBuilder::new(n).add_edges(edges).build();
        let x = DMatrix::from_fn(n, 5, |i, j| ((i * 3 + j) % 7) as f32 * 0.2 - 0.5);
        let cfg = GcnConfig {
            in_dim: 5,
            hidden_dims: vec![8, 8],
            num_classes: 3,
            loss,
            ..GcnConfig::default()
        };
        let model = GcnModel::new(cfg, 17);
        (Arc::new(model), Arc::new(g), Arc::new(x))
    }

    fn fixture(loss: LossKind) -> NodeClassifier {
        let (model, g, x) = fixture_parts(loss);
        NodeClassifier::new(model, g, x).unwrap()
    }

    #[test]
    fn batched_matches_full_graph_forward() {
        for loss in [LossKind::SoftmaxCe, LossKind::SigmoidBce] {
            let c = fixture(loss);
            let full = c.full_graph_probs();
            let preds = c.classify(&[3, 7, 7, 0]).unwrap();
            assert_eq!(preds.len(), 4);
            for p in &preds {
                let want = full.row(p.node as usize);
                for (a, b) in p.probs.iter().zip(want) {
                    assert!(
                        (a - b).abs() < 1e-4,
                        "node {}: batched {a} vs full {b}",
                        p.node
                    );
                }
            }
        }
    }

    #[test]
    fn whole_node_set_is_bit_identical() {
        let c = fixture(LossKind::SoftmaxCe);
        let full = c.full_graph_probs();
        let all: Vec<u32> = (0..c.num_nodes() as u32).collect();
        let preds = c.classify(&all).unwrap();
        for p in &preds {
            assert_eq!(
                p.probs.as_slice(),
                full.row(p.node as usize),
                "node {} diverged on the identity batch",
                p.node
            );
        }
    }

    #[test]
    fn single_label_decision_is_argmax() {
        let c = fixture(LossKind::SoftmaxCe);
        let preds = c.classify(&[2]).unwrap();
        let p = &preds[0];
        assert_eq!(p.labels.len(), 1);
        let best = p
            .probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0 as u32;
        assert_eq!(p.labels[0], best);
    }

    #[test]
    fn out_of_range_node_is_an_error() {
        let c = fixture(LossKind::SoftmaxCe);
        let err = c.classify(&[0, 99]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn mismatched_features_rejected() {
        let (model, g, _) = fixture_parts(LossKind::SoftmaxCe);
        let bad = DMatrix::zeros(5, 5);
        assert!(NodeClassifier::new(model, g, Arc::new(bad)).is_err());
    }

    #[test]
    fn warm_classify_is_allocation_free() {
        let c = fixture(LossKind::SoftmaxCe);
        let mut ws = ClassifyWorkspace::new();
        let mut out = Vec::new();
        c.classify_into(&[1, 5, 9], &mut ws, &mut out).unwrap();
        // The matrix side must be quiet once warm (Vec growth in the
        // response payload is expected and cheap).
        let before = gsgcn_tensor::alloc::matrix_allocations();
        for _ in 0..5 {
            out.clear();
            c.classify_into(&[1, 5, 9], &mut ws, &mut out).unwrap();
        }
        let steady = gsgcn_tensor::alloc::matrix_allocations() - before;
        assert_eq!(steady, 0, "classify allocated {steady} matrices when warm");
    }
}
