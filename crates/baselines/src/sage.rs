//! GraphSAGE-style layer-sampling GCN trainer (baseline ref.\[2\]).
//!
//! Every minibatch vertex samples `fanout` (`d_LS`) neighbors per layer,
//! recursively, so the layer-0 node set is ≈ `B·d_LS^L` — the "neighbor
//! explosion" of Sec. II-A. The per-batch sampled node counts are exposed
//! ([`SageTrainer::last_layer_sizes`]) so the Table II bench can report
//! the work ratio directly.
//!
//! Inference uses the full neighborhood (no sampling), the standard
//! GraphSAGE evaluation protocol — mathematically identical to the
//! graph-sampling model's inference, so accuracy comparisons are fair.

use crate::blocks::{BlockLayer, SampledBlock};
use gsgcn_data::dataset::{Dataset, TaskKind, TrainView};
use gsgcn_graph::CsrGraph;
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

/// GraphSAGE trainer configuration.
#[derive(Clone, Debug)]
pub struct SageConfig {
    /// Neighbors sampled per node per layer (`d_LS`; ref.\[2\] uses 25/10).
    pub fanout: usize,
    /// Minibatch size (target vertices per step).
    pub batch_size: usize,
    /// Hidden layer widths (even, concat halves) — length = `L`.
    pub hidden_dims: Vec<usize>,
    /// Adam hyperparameters.
    pub adam: AdamHyper,
    /// Master seed.
    pub seed: u64,
}

impl Default for SageConfig {
    fn default() -> Self {
        SageConfig {
            fanout: 10,
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

/// GraphSAGE-style trainer over a dataset's training view.
pub struct SageTrainer<'a> {
    dataset: &'a Dataset,
    train_view: TrainView,
    layers: Vec<BlockLayer>,
    head: DenseLayer,
    loss: LossKind,
    cfg: SageConfig,
    t: u64,
    epoch: u64,
    train_secs: f64,
    last_layer_sizes: Vec<usize>,
}

impl<'a> SageTrainer<'a> {
    /// Build a trainer; validates configuration and dataset.
    pub fn new(dataset: &'a Dataset, cfg: SageConfig) -> Result<Self, String> {
        dataset.validate()?;
        if cfg.fanout == 0 {
            return Err("fanout must be ≥ 1".into());
        }
        if cfg.batch_size == 0 {
            return Err("batch_size must be ≥ 1".into());
        }
        if cfg.hidden_dims.is_empty() || cfg.hidden_dims.iter().any(|&d| d == 0 || d % 2 != 0) {
            return Err("hidden dims must be non-empty, positive and even".into());
        }
        let train_view = dataset.train_view();
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
                cfg.seed ^ ((i as u64 + 1) * 0x9E37),
            ));
            in_dim = h;
        }
        let head = DenseLayer::new(in_dim, dataset.num_classes(), cfg.seed ^ 0xD_EAD);
        Ok(SageTrainer {
            dataset,
            train_view,
            layers,
            head,
            loss,
            cfg,
            t: 0,
            epoch: 0,
            train_secs: 0.0,
            last_layer_sizes: Vec::new(),
        })
    }

    /// Cumulative training seconds.
    pub fn train_secs(&self) -> f64 {
        self.train_secs
    }

    /// Node counts per layer (input → output) of the most recent batch —
    /// the neighbor-explosion measurement.
    pub fn last_layer_sizes(&self) -> &[usize] {
        &self.last_layer_sizes
    }

    /// Sample the layer blocks for a batch of target vertices (top-down
    /// recursive neighbor sampling, returned bottom-up for the forward).
    fn sample_blocks(&self, targets: &[u32], seed: u64) -> (Vec<u32>, Vec<SampledBlock>) {
        let g = &self.train_view.graph;
        let l = self.layers.len();
        let mut rng = Xorshift128Plus::new(seed);
        let mut blocks: Vec<SampledBlock> = Vec::with_capacity(l);
        let mut out_nodes: Vec<u32> = targets.to_vec();
        for _ in 0..l {
            // Registry of input-layer nodes (position assignment).
            let mut pos: HashMap<u32, u32> = HashMap::new();
            let mut in_nodes: Vec<u32> = Vec::new();
            let mut pos_of = |v: u32, in_nodes: &mut Vec<u32>| -> u32 {
                *pos.entry(v).or_insert_with(|| {
                    in_nodes.push(v);
                    (in_nodes.len() - 1) as u32
                })
            };
            let mut self_idx = Vec::with_capacity(out_nodes.len());
            let mut offsets = Vec::with_capacity(out_nodes.len() + 1);
            let mut gather: Vec<u32> = Vec::new();
            offsets.push(0usize);
            for &v in &out_nodes {
                self_idx.push(pos_of(v, &mut in_nodes));
                let deg = g.degree(v);
                if deg > 0 {
                    for _ in 0..self.cfg.fanout {
                        let u = g.neighbor(v, rng.next_range(deg));
                        gather.push(pos_of(u, &mut in_nodes));
                    }
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
        blocks.reverse(); // bottom-up for the forward pass
        (out_nodes, blocks)
    }

    /// Train on one batch of target vertices; returns the loss. Like
    /// `GcnModel::train_step`, the batch runs with subnormals flushed to
    /// zero (`gsgcn_tensor::fpmode`), so the baselines and GS-GCN are
    /// timed under the same numeric contract.
    pub fn train_batch(&mut self, targets: &[u32]) -> f32 {
        let _flush = FlushDenormals::enter();
        let start = Instant::now();
        let seed = self.cfg.seed ^ (self.t.wrapping_mul(0x9E3779B97F4A7C15));
        let (input_nodes, blocks) = self.sample_blocks(targets, seed);

        self.last_layer_sizes = {
            let mut sizes = vec![input_nodes.len()];
            for b in &blocks {
                sizes.push(b.n_out());
            }
            sizes
        };

        // Forward.
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

        // Backward + Adam.
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

    /// One epoch: shuffled minibatches covering every training vertex.
    /// Returns the mean batch loss.
    pub fn train_epoch(&mut self) -> f32 {
        let n = self.train_view.graph.num_vertices();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        // Deterministic per-epoch shuffle.
        let mut rng = Xorshift128Plus::new(self.cfg.seed ^ (0xE90C ^ self.epoch));
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

    /// Full-neighborhood inference probabilities on an arbitrary graph.
    pub fn infer_probs(&self, g: &CsrGraph, x: &DMatrix) -> DMatrix {
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

    /// F1-micro on the validation split (full-graph inference).
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
        presets::scale_spec(&presets::ppi_spec(), 500).generate(13)
    }

    fn quick_cfg() -> SageConfig {
        SageConfig {
            fanout: 5,
            batch_size: 64,
            hidden_dims: vec![32, 32],
            adam: AdamHyper {
                lr: 2e-2,
                ..AdamHyper::default()
            },
            seed: 3,
        }
    }

    #[test]
    fn builds_and_validates() {
        let d = quick_dataset();
        assert!(SageTrainer::new(&d, quick_cfg()).is_ok());
        let mut bad = quick_cfg();
        bad.fanout = 0;
        assert!(SageTrainer::new(&d, bad).is_err());
        let mut bad = quick_cfg();
        bad.hidden_dims = vec![33];
        assert!(SageTrainer::new(&d, bad).is_err());
    }

    #[test]
    fn blocks_are_valid_and_explode() {
        let d = quick_dataset();
        let t = SageTrainer::new(&d, quick_cfg()).unwrap();
        let targets: Vec<u32> = (0..20).collect();
        let (input_nodes, blocks) = t.sample_blocks(&targets, 1);
        assert_eq!(blocks.len(), 2);
        for b in &blocks {
            assert!(b.validate().is_ok());
        }
        // Top block outputs exactly the batch.
        assert_eq!(blocks.last().unwrap().n_out(), 20);
        // Neighbor explosion: the input layer is much larger than the batch.
        assert!(
            input_nodes.len() > 40,
            "expected explosion, got {} input nodes",
            input_nodes.len()
        );
    }

    #[test]
    fn explosion_grows_with_depth() {
        let d = quick_dataset();
        let mut cfg3 = quick_cfg();
        cfg3.hidden_dims = vec![32, 32, 32];
        let t2 = SageTrainer::new(&d, quick_cfg()).unwrap();
        let t3 = SageTrainer::new(&d, cfg3).unwrap();
        let targets: Vec<u32> = (0..10).collect();
        let (in2, _) = t2.sample_blocks(&targets, 5);
        let (in3, _) = t3.sample_blocks(&targets, 5);
        assert!(
            in3.len() > in2.len(),
            "3-layer input {} should exceed 2-layer {}",
            in3.len(),
            in2.len()
        );
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let d = quick_dataset();
        let mut t = SageTrainer::new(&d, quick_cfg()).unwrap();
        let first = t.train_epoch();
        let mut last = first;
        for _ in 0..15 {
            last = t.train_epoch();
        }
        assert!(last < first, "loss {first} → {last}");
        assert!(t.evaluate_val() > 0.2, "val F1 {}", t.evaluate_val());
        assert!(t.train_secs() > 0.0);
    }

    #[test]
    fn layer_sizes_reported() {
        let d = quick_dataset();
        let mut t = SageTrainer::new(&d, quick_cfg()).unwrap();
        t.train_batch(&(0..30u32).collect::<Vec<_>>());
        let sizes = t.last_layer_sizes();
        assert_eq!(sizes.len(), 3); // input + 2 layers
        assert_eq!(*sizes.last().unwrap(), 30);
        assert!(sizes[0] >= sizes[1] && sizes[1] >= sizes[2]);
    }

    #[test]
    fn deterministic_per_seed() {
        let d = quick_dataset();
        let run = || {
            let mut t = SageTrainer::new(&d, quick_cfg()).unwrap();
            t.train_epoch()
        };
        assert_eq!(run(), run());
    }
}
