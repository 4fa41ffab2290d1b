//! FastGCN-style node/layer-sampling trainer (baseline ref.\[3\]).
//!
//! Each layer's node set is sampled *independently* from the whole
//! training graph with a degree-proportional importance distribution
//! (pre-computed — the "potentially expensive pre-processing" the paper
//! notes), and inter-layer edges are reconstructed from the original
//! graph restricted to consecutive samples. This avoids neighbor
//! explosion but yields sparse inter-layer connectivity — some sampled
//! nodes end up with no sampled in-neighbors, the mechanism behind
//! FastGCN's accuracy loss (Sec. II-A).

use crate::blocks::{BlockLayer, SampledBlock};
use gsgcn_data::dataset::{Dataset, TaskKind, TrainView};
use gsgcn_metrics::f1;
use gsgcn_nn::adam::AdamHyper;
use gsgcn_nn::dense::DenseLayer;
use gsgcn_nn::loss as nn_loss;
use gsgcn_nn::model::LossKind;
use gsgcn_prop::propagator::FeaturePropagator;
use gsgcn_sampler::rng::Xorshift128Plus;
use gsgcn_tensor::fpmode::FlushDenormals;
use gsgcn_tensor::{gemm, ops, DMatrix};
use std::collections::HashMap;
use std::time::Instant;

/// FastGCN trainer configuration.
#[derive(Clone, Debug)]
pub struct FastGcnConfig {
    /// Nodes sampled per hidden layer (`s` in ref.\[3\]).
    pub layer_size: usize,
    /// Minibatch size (output-layer vertices per step).
    pub batch_size: usize,
    /// Hidden layer widths.
    pub hidden_dims: Vec<usize>,
    /// Adam hyperparameters.
    pub adam: AdamHyper,
    /// Master seed.
    pub seed: u64,
}

impl Default for FastGcnConfig {
    fn default() -> Self {
        FastGcnConfig {
            layer_size: 400,
            batch_size: 256,
            hidden_dims: vec![128, 128],
            adam: AdamHyper {
                lr: 1e-2,
                ..AdamHyper::default()
            },
            seed: 1,
        }
    }
}

/// FastGCN-style trainer.
pub struct FastGcnTrainer<'a> {
    dataset: &'a Dataset,
    train_view: TrainView,
    layers: Vec<BlockLayer>,
    head: DenseLayer,
    loss: LossKind,
    cfg: FastGcnConfig,
    /// Degree-proportional cumulative weights (preprocessing cost).
    cumulative_deg: Vec<f64>,
    t: u64,
    epoch: u64,
    train_secs: f64,
    /// Fraction of (node, layer) pairs with empty gather lists in the
    /// last batch — the sparse-connectivity indicator.
    last_empty_fraction: f64,
}

impl<'a> FastGcnTrainer<'a> {
    /// Build a trainer (runs the degree-distribution preprocessing).
    pub fn new(dataset: &'a Dataset, cfg: FastGcnConfig) -> Result<Self, String> {
        dataset.validate()?;
        if cfg.layer_size == 0 || cfg.batch_size == 0 {
            return Err("layer_size and batch_size must be ≥ 1".into());
        }
        if cfg.hidden_dims.is_empty() || cfg.hidden_dims.iter().any(|&d| d == 0 || d % 2 != 0) {
            return Err("hidden dims must be non-empty, positive and even".into());
        }
        let train_view = dataset.train_view();
        let g = &train_view.graph;
        // Importance distribution q(v) ∝ deg(v): cumulative sums for
        // inverse-CDF sampling (the FastGCN preprocessing step).
        let mut cumulative_deg = Vec::with_capacity(g.num_vertices());
        let mut acc = 0.0f64;
        for v in 0..g.num_vertices() as u32 {
            acc += (g.degree(v) as f64).max(1e-9);
            cumulative_deg.push(acc);
        }
        let loss = match dataset.task {
            TaskKind::MultiLabel => LossKind::SigmoidBce,
            TaskKind::SingleLabel => LossKind::SoftmaxCe,
        };
        let mut layers = Vec::new();
        let mut in_dim = dataset.feature_dim();
        for (i, &h) in cfg.hidden_dims.iter().enumerate() {
            layers.push(BlockLayer::new(
                in_dim,
                h / 2,
                true,
                cfg.seed ^ ((i as u64 + 1) * 0xFA57),
            ));
            in_dim = h;
        }
        let head = DenseLayer::new(in_dim, dataset.num_classes(), cfg.seed ^ 0xFACE);
        Ok(FastGcnTrainer {
            dataset,
            train_view,
            layers,
            head,
            loss,
            cfg,
            cumulative_deg,
            t: 0,
            epoch: 0,
            train_secs: 0.0,
            last_empty_fraction: 0.0,
        })
    }

    /// Cumulative training seconds.
    pub fn train_secs(&self) -> f64 {
        self.train_secs
    }

    /// Sparse-connectivity indicator of the last batch.
    pub fn last_empty_fraction(&self) -> f64 {
        self.last_empty_fraction
    }

    /// Draw one vertex from the degree-proportional distribution.
    fn sample_weighted(&self, rng: &mut Xorshift128Plus) -> u32 {
        let total = *self.cumulative_deg.last().unwrap();
        let x = rng.next_f64() * total;
        self.cumulative_deg.partition_point(|&c| c <= x) as u32
    }

    /// Build the layer blocks: independent degree-proportional samples
    /// per layer, edges reconstructed from the training graph.
    fn sample_blocks(&self, targets: &[u32], seed: u64) -> (Vec<u32>, Vec<SampledBlock>, f64) {
        let g = &self.train_view.graph;
        let l = self.layers.len();
        let mut rng = Xorshift128Plus::new(seed);
        let mut blocks = Vec::with_capacity(l);
        let mut out_nodes: Vec<u32> = targets.to_vec();
        let mut empty = 0usize;
        let mut total = 0usize;
        for _ in 0..l {
            // Independent layer sample + the out nodes themselves (self
            // connections must exist for the self path).
            let mut pos: HashMap<u32, u32> = HashMap::new();
            let mut in_nodes: Vec<u32> = Vec::new();
            for &v in &out_nodes {
                pos.entry(v).or_insert_with(|| {
                    in_nodes.push(v);
                    (in_nodes.len() - 1) as u32
                });
            }
            for _ in 0..self.cfg.layer_size {
                let v = self.sample_weighted(&mut rng);
                pos.entry(v).or_insert_with(|| {
                    in_nodes.push(v);
                    (in_nodes.len() - 1) as u32
                });
            }
            // Reconstruct inter-layer edges: sampled in-neighbors only.
            let mut offsets = vec![0usize];
            let mut gather = Vec::new();
            let mut self_idx = Vec::with_capacity(out_nodes.len());
            for &v in &out_nodes {
                self_idx.push(pos[&v]);
                let before = gather.len();
                for &u in g.neighbors(v) {
                    if u != v {
                        if let Some(&p) = pos.get(&u) {
                            gather.push(p);
                        }
                    }
                }
                total += 1;
                if gather.len() == before {
                    empty += 1;
                }
                offsets.push(gather.len());
            }
            blocks.push(SampledBlock {
                offsets,
                targets: gather,
                self_idx,
                n_in: in_nodes.len(),
            });
            out_nodes = in_nodes;
        }
        blocks.reverse();
        let empty_frac = if total == 0 {
            0.0
        } else {
            empty as f64 / total as f64
        };
        (out_nodes, blocks, empty_frac)
    }

    /// Train on one batch of target vertices; returns the loss. Like
    /// `GcnModel::train_step`, the batch runs with subnormals flushed to
    /// zero (`gsgcn_tensor::fpmode`), so the baselines and GS-GCN are
    /// timed under the same numeric contract.
    pub fn train_batch(&mut self, targets: &[u32]) -> f32 {
        let _flush = FlushDenormals::enter();
        let start = Instant::now();
        let seed = self.cfg.seed ^ self.t.wrapping_mul(0x2545F4914F6CDD1D);
        let (input_nodes, blocks, empty_frac) = self.sample_blocks(targets, seed);
        self.last_empty_fraction = empty_frac;

        let mut h = self.train_view.features.gather_rows(&input_nodes);
        for (layer, block) in self.layers.iter_mut().zip(&blocks) {
            h = layer.forward(block, &h);
        }
        let logits = self.head.forward(&h);
        let y = self.train_view.labels.gather_rows(targets);
        let (loss_val, d_logits) = match self.loss {
            LossKind::SigmoidBce => nn_loss::sigmoid_bce(&logits, &y),
            LossKind::SoftmaxCe => nn_loss::softmax_ce(&logits, &y),
        };

        self.t += 1;
        let (mut d_h, head_grads) = self.head.backward(&d_logits);
        self.head.apply_grads(&head_grads, &self.cfg.adam, self.t);
        for (layer, block) in self.layers.iter_mut().zip(&blocks).rev() {
            let (d_prev, grads) = layer.backward(block, &d_h);
            layer.apply_grads(&grads, &self.cfg.adam, self.t);
            d_h = d_prev;
        }
        self.train_secs += start.elapsed().as_secs_f64();
        loss_val
    }

    /// One epoch over shuffled minibatches; returns the mean loss.
    pub fn train_epoch(&mut self) -> f32 {
        let n = self.train_view.graph.num_vertices();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut rng = Xorshift128Plus::new(self.cfg.seed ^ (0xFA57 ^ self.epoch));
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.next_range(i + 1));
        }
        self.epoch += 1;
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in ids.chunks(self.cfg.batch_size) {
            total += self.train_batch(chunk) as f64;
            batches += 1;
        }
        (total / batches.max(1) as f64) as f32
    }

    /// Full-neighborhood inference probabilities.
    pub fn infer_probs(&self, g: &gsgcn_graph::CsrGraph, x: &DMatrix) -> DMatrix {
        let prop = FeaturePropagator::default();
        let mut h = x.clone();
        for layer in &self.layers {
            let agg = prop.forward(g, &h);
            let h_neigh = gemm::matmul(&agg, &layer.w_neigh.value);
            let h_self = gemm::matmul(&h, &layer.w_self.value);
            let mut out = ops::concat_cols(&h_neigh, &h_self);
            if layer.activation {
                ops::relu_inplace(&mut out);
            }
            h = out;
        }
        let mut logits = self.head.infer(&h);
        match self.loss {
            LossKind::SigmoidBce => ops::sigmoid_inplace(&mut logits),
            LossKind::SoftmaxCe => ops::softmax_rows_inplace(&mut logits),
        }
        logits
    }

    /// F1-micro on the validation split.
    pub fn evaluate_val(&self) -> f64 {
        let probs = self.infer_probs(&self.dataset.graph, &self.dataset.features);
        let idx = &self.dataset.split.val;
        let single = self.dataset.task == TaskKind::SingleLabel;
        f1::f1_micro_from_probs(
            &probs.gather_rows(idx),
            &self.dataset.labels.gather_rows(idx),
            single,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsgcn_data::presets;

    fn quick_dataset() -> Dataset {
        presets::scale_spec(&presets::ppi_spec(), 500).generate(19)
    }

    fn quick_cfg() -> FastGcnConfig {
        FastGcnConfig {
            layer_size: 150,
            batch_size: 64,
            hidden_dims: vec![32, 32],
            adam: AdamHyper {
                lr: 2e-2,
                ..AdamHyper::default()
            },
            seed: 7,
        }
    }

    #[test]
    fn builds_with_preprocessing() {
        let d = quick_dataset();
        let t = FastGcnTrainer::new(&d, quick_cfg()).unwrap();
        // Cumulative weights strictly increasing.
        assert!(t.cumulative_deg.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn weighted_sampling_prefers_high_degree() {
        let d = quick_dataset();
        let t = FastGcnTrainer::new(&d, quick_cfg()).unwrap();
        let g = &t.train_view.graph;
        let mut rng = Xorshift128Plus::new(1);
        let mut deg_sum = 0usize;
        let trials = 2000;
        for _ in 0..trials {
            deg_sum += g.degree(t.sample_weighted(&mut rng));
        }
        let sampled_mean = deg_sum as f64 / trials as f64;
        // Degree-biased sampling: the size-biased mean is E[d²]/E[d],
        // strictly above E[d] for any non-constant degree distribution.
        // Compare against that exact expectation (±10%).
        let (mut d1, mut d2) = (0.0f64, 0.0f64);
        for v in 0..g.num_vertices() as u32 {
            let d = g.degree(v) as f64;
            d1 += d;
            d2 += d * d;
        }
        let expect = d2 / d1;
        assert!(
            (sampled_mean - expect).abs() < expect * 0.1,
            "sampled mean {sampled_mean:.2} vs size-biased expectation {expect:.2}"
        );
        assert!(sampled_mean > g.avg_degree(), "must exceed the plain mean");
    }

    #[test]
    fn no_neighbor_explosion() {
        let d = quick_dataset();
        let t = FastGcnTrainer::new(&d, quick_cfg()).unwrap();
        let targets: Vec<u32> = (0..50).collect();
        let (input_nodes, blocks, _) = t.sample_blocks(&targets, 2);
        for b in &blocks {
            assert!(b.validate().is_ok());
        }
        // Input layer bounded by layer_size + carried nodes (no d^L).
        assert!(
            input_nodes.len() <= 150 + 50 + 150,
            "layer size should stay bounded: {}",
            input_nodes.len()
        );
    }

    #[test]
    fn sparse_connectivity_observed() {
        // With a small layer sample on a 500-vertex graph, some nodes have
        // no sampled in-neighbors — the FastGCN accuracy-loss mechanism.
        let d = quick_dataset();
        let mut cfg = quick_cfg();
        cfg.layer_size = 20;
        let mut t = FastGcnTrainer::new(&d, cfg).unwrap();
        t.train_batch(&(0..50u32).collect::<Vec<_>>());
        assert!(
            t.last_empty_fraction() > 0.0,
            "tiny layer samples should leave empty gather lists"
        );
    }

    #[test]
    fn training_learns() {
        let d = quick_dataset();
        let mut t = FastGcnTrainer::new(&d, quick_cfg()).unwrap();
        let first = t.train_epoch();
        let mut last = first;
        for _ in 0..15 {
            last = t.train_epoch();
        }
        assert!(last < first, "loss {first} → {last}");
        assert!(t.evaluate_val() > 0.15, "val F1 {}", t.evaluate_val());
    }

    #[test]
    fn invalid_configs_rejected() {
        let d = quick_dataset();
        let mut c = quick_cfg();
        c.layer_size = 0;
        assert!(FastGcnTrainer::new(&d, c).is_err());
        let mut c = quick_cfg();
        c.hidden_dims = vec![31];
        assert!(FastGcnTrainer::new(&d, c).is_err());
    }
}
