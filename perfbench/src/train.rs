//! Training: set-up, the untraced converged run, and the traced loop
//! rebuilt from the trainer's public constructors.

use crate::dataset;
use crate::host::{Stopwatch, Timed};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use gsgcn_core::config::auto_sampler_threads;
use gsgcn_core::trainer::EvalSplit;
use gsgcn_core::{GsGcnTrainer, TrainerConfig};
use gsgcn_data::Dataset;
use gsgcn_graph::{GraphStore, StoreBackend, Topology};
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_prop::propagator::FeaturePropagator;
use gsgcn_sampler::dashboard::DashboardSampler;
use gsgcn_sampler::pool::SubgraphPool;
use std::sync::Arc;

/// Epochs per run. On this dataset, once training converges, epoch time
/// rises from epoch ~20 as gradients go subnormal, peaks between epochs
/// ~30 and ~38 depending on the seed, and eases after (10 seeds).
pub const EPOCHS: usize = 44;
/// The converged window `epoch_s` is the median over. It spans the peak
/// for every seed tried; over 10 seeds its IQR/median was 0.09 (f32),
/// against 0.16–0.20 for 8-epoch windows.
pub const CONVERGED: std::ops::Range<usize> = 28..44;
/// The fresh-model window reported beside it (`first_epochs_s`).
pub const FIRST: std::ops::Range<usize> = 0..8;
/// Validation F1 is evaluated after these epochs: the first gives
/// `time_to_f1_s`, the last `val_f1`, and all four `eval_s`. The first sits 8 epochs in, so
/// `time_to_f1_s` sums 8 epochs rather than 2 (single 0.2 s epochs
/// jitter by half on a shared host).
pub const EVAL_AFTER: [usize; 4] = [FIRST.end - 1, 19, 31, EPOCHS - 1];
/// `time_to_f1_s` target. Every seed tried reaches it at the first
/// evaluation (plateau ≈ 0.95–0.97); a model that learns slower or worse
/// moves the metric by whole evaluation intervals.
pub const F1_TARGET: f64 = 0.90;
/// Output check: the final val F1 must stay above this floor.
pub const F1_FLOOR: f64 = 0.85;
/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

pub const HIDDEN: [usize; 2] = [128, 128];

/// Trainer settings of `gsgcn train`'s defaults (budget 1000, frontier
/// 100, lr 0.02, `p_inter` = cores, automatic sampler threads).
pub fn trainer_config(seed: u64) -> TrainerConfig {
    let mut cfg = TrainerConfig {
        hidden_dims: HIDDEN.to_vec(),
        ..TrainerConfig::default()
    };
    cfg.epochs = EPOCHS;
    cfg.sampler.budget = 1000;
    cfg.sampler.frontier_size = 100;
    cfg.adam.lr = 0.02;
    cfg.threads = 0;
    cfg.seed = seed;
    cfg.eval_every = 0;
    cfg.patience = None;
    cfg.p_inter = crate::nproc();
    cfg.sampler_threads = auto_sampler_threads();
    cfg
}

/// Store over the dataset's training-induced subgraph, as
/// `GsGcnTrainer::new` builds it (resident `mem` backend).
pub fn train_store(d: &Dataset) -> Result<Arc<GraphStore>, String> {
    let tv = d.train_view();
    let store = GraphStore::from_parts(
        StoreBackend::Mem,
        Arc::clone(&tv.graph),
        Some(Arc::clone(&tv.features)),
        Some(Arc::clone(&tv.labels)),
    )
    .map_err(|e| format!("training store: {e}"))?;
    Ok(Arc::new(store))
}

/// Store over the full graph for serving. Moves the dataset's matrices
/// into the store instead of copying them.
pub fn into_serving_store(d: Dataset) -> Arc<GraphStore> {
    Arc::new(GraphStore::mem(
        Arc::new(d.graph),
        Some(Arc::new(d.features)),
        None,
    ))
}

/// Set up `SETUP_REPEATS` times (dataset build + trainer start); returns
/// the last dataset and every set-up time.
pub fn setup(seed: u64) -> Result<(Dataset, Vec<Timed>), String> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let watch = Stopwatch::start();
        let d = dataset::generate(seed);
        let trainer = GsGcnTrainer::new(&d, trainer_config(seed))?;
        secs.push(watch.stop());
        drop(trainer);
        kept = Some(d);
    }
    Ok((kept.expect("at least one set-up"), secs))
}

/// What one training run measured. Times are `(wall, steal removed)`.
pub struct TrainRun {
    pub epochs: Vec<Timed>,
    pub losses: Vec<f32>,
    pub eval_secs: Vec<Timed>,
    /// `(cumulative training seconds, val F1)` per evaluation.
    pub evals: Vec<(Timed, f64)>,
    pub model: GcnModel,
}

/// Median of the wall and of the steal-removed seconds of `xs`.
pub fn median_timed(xs: &[Timed]) -> Timed {
    let wall: Vec<f64> = xs.iter().map(|t| t.0).collect();
    let steady: Vec<f64> = xs.iter().map(|t| t.1).collect();
    (median(&wall), median(&steady))
}

impl TrainRun {
    pub fn epoch_s(&self) -> Timed {
        median_timed(&self.epochs[CONVERGED])
    }
    pub fn first_epochs_s(&self) -> Timed {
        median_timed(&self.epochs[FIRST])
    }
    pub fn val_f1(&self) -> f64 {
        self.evals.last().map_or(0.0, |e| e.1)
    }
    pub fn time_to_f1_s(&self) -> Option<Timed> {
        self.evals.iter().find(|e| e.1 >= F1_TARGET).map(|e| e.0)
    }
}

/// The untraced run: `GsGcnTrainer::train_epoch` for `EPOCHS` epochs,
/// timed `evaluate(Val)` calls in between (excluded from epoch time).
pub fn train(data: &Dataset, seed: u64) -> Result<TrainRun, String> {
    let cfg = trainer_config(seed);
    let mut trainer = GsGcnTrainer::new(data, cfg.clone())?;
    let mut run = TrainRun {
        epochs: Vec::with_capacity(EPOCHS),
        losses: Vec::with_capacity(EPOCHS),
        eval_secs: Vec::new(),
        evals: Vec::new(),
        model: GcnModel::new(model_config(&cfg, trainer.model().config().in_dim), seed),
    };
    let mut cumulative = (0.0, 0.0);
    for e in 0..EPOCHS {
        let watch = Stopwatch::start();
        let stats = trainer.train_epoch()?;
        let secs = watch.stop();
        cumulative = (cumulative.0 + secs.0, cumulative.1 + secs.1);
        run.epochs.push(secs);
        run.losses.push(stats.mean_loss);
        if EVAL_AFTER.contains(&e) {
            let watch = Stopwatch::start();
            let f1 = trainer.evaluate(EvalSplit::Val);
            run.eval_secs.push(watch.stop());
            run.evals.push((cumulative, f1));
        }
    }
    run.model
        .import_weights(&trainer.model().export_weights())?;
    Ok(run)
}

/// The model configuration the trainer derives from `cfg` for this dataset.
fn model_config(cfg: &TrainerConfig, in_dim: usize) -> GcnConfig {
    GcnConfig {
        in_dim,
        hidden_dims: cfg.hidden_dims.clone(),
        num_classes: dataset::CLASSES,
        loss: LossKind::SoftmaxCe,
        adam: cfg.adam,
        dropout: cfg.dropout,
        fused: cfg.fused,
    }
}

/// Per-epoch layer times of the traced loop, in seconds.
#[derive(Clone, Copy, Default)]
pub struct EpochLayers {
    pub epoch: f64,
    pub pop: f64,
    pub gather: f64,
    pub step: f64,
    pub prop: f64,
    pub weight_app: f64,
    pub gather_bytes: f64,
    pub flops: f64,
    pub subgraph_vertices: f64,
    pub subgraph_edges: f64,
}

pub struct TracedRun {
    pub losses: Vec<f32>,
    pub layers: Vec<EpochLayers>,
    pub tracer: Tracer,
}

/// Flops of one `train_step` on a subgraph of `n` vertices and `nnz`
/// CSR edges, from the shapes: per GCN layer (input width `d`, output
/// `h` = two halves of `h/2`) forward 2·n·d·h + aggregation 2·nnz·d,
/// backward 4·n·d·h (weight and input gradients) + aggregation nnz·h;
/// the dense head 6·n·h·C.
pub fn step_flops(n: usize, nnz: usize, in_dim: usize) -> f64 {
    let (n, nnz) = (n as f64, nnz as f64);
    let mut d = in_dim as f64;
    let mut flops = 0.0;
    for &h in &HIDDEN {
        let h = h as f64;
        flops += 6.0 * n * d * h + 2.0 * nnz * d + nnz * h;
        d = h;
    }
    flops + 6.0 * n * d * dataset::CLASSES as f64
}

/// The trainer's loop (pop → gather → `train_step`) rebuilt from the
/// same public constructors and seeds, with a span around every call.
/// Always samples synchronously through `SubgraphPool`, which draws the
/// same subgraph stream as the pipelined sampler.
pub fn train_traced(data: &Dataset, seed: u64) -> Result<TracedRun, String> {
    let cfg = trainer_config(seed);
    let store = train_store(data)?;
    let mut model = GcnModel::with_propagator(
        model_config(&cfg, store.feature_dim()),
        cfg.seed,
        FeaturePropagator::new(cfg.prop_mode.clone()),
    );
    let sampler = DashboardSampler::new(cfg.sampler.clone());
    let mut pool = SubgraphPool::new(cfg.p_inter, cfg.seed ^ 0x5A4B);
    let pool_threads = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads)
        .build()
        .map_err(|e| format!("thread pool: {e}"))?;
    let iters = store.num_vertices().div_ceil(cfg.sampler.budget).max(1);
    let feat_bytes = (store.feature_dim() * 4) as f64;
    let label_bytes = (store.label_dim() * 4) as f64;

    let mut tracer = Tracer::new();
    let mut losses = Vec::with_capacity(EPOCHS);
    let mut layers = Vec::with_capacity(EPOCHS);
    let mut x = gsgcn_tensor::DMatrix::zeros(0, 0);
    let mut y = gsgcn_tensor::DMatrix::zeros(0, 0);
    for _ in 0..EPOCHS {
        let mut l = EpochLayers::default();
        let mut loss_sum = 0.0f64;
        let epoch_span = tracer.begin("epoch");
        let run: Result<(), String> = pool_threads.install(|| {
            for _ in 0..iters {
                let id = tracer.begin("sampler.pop");
                let sub = pool.pop_or_refill(&sampler, &*store);
                l.pop += tracer.end(id);

                let id = tracer.begin("graph.gather");
                let gathered = store
                    .gather_features_into(&sub.origin, &mut x)
                    .and_then(|()| store.gather_labels_into(&sub.origin, &mut y));
                l.gather += tracer.end(id);
                gathered.map_err(|e| format!("gather from graph store: {e}"))?;

                let id = tracer.begin("nn.step");
                let step = model.train_step(&sub.graph, &x, &y);
                l.step += tracer.end(id);

                let (n, nnz) = (sub.graph.num_vertices(), sub.graph.num_edges());
                l.prop += step.timings.feature_prop_secs;
                l.weight_app += step.timings.weight_app_secs;
                l.gather_bytes += n as f64 * (feat_bytes + label_bytes);
                l.flops += step_flops(n, nnz, store.feature_dim());
                l.subgraph_vertices += n as f64;
                l.subgraph_edges += nnz as f64;
                loss_sum += step.loss as f64;
            }
            Ok(())
        });
        l.epoch = tracer.end(epoch_span);
        run?;
        l.subgraph_vertices /= iters as f64;
        l.subgraph_edges /= iters as f64;
        // Same reduction as `train_epoch`: f64 sum, mean, then f32.
        losses.push((loss_sum / iters as f64) as f32);
        layers.push(l);
    }
    Ok(TracedRun {
        losses,
        layers,
        tracer,
    })
}

/// Median of one per-epoch field over the converged window.
pub fn converged_median(layers: &[EpochLayers], f: impl Fn(&EpochLayers) -> f64) -> f64 {
    median(&layers[CONVERGED].iter().map(f).collect::<Vec<_>>())
}

pub fn converged_mean(layers: &[EpochLayers], f: impl Fn(&EpochLayers) -> f64) -> f64 {
    mean(&layers[CONVERGED].iter().map(f).collect::<Vec<_>>())
}
