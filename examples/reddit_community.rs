//! Single-label community classification at scale — the Reddit workload
//! (Table I row 2), "the largest graph evaluated by state-of-the-art
//! embedding methods".
//!
//! Demonstrates parallel training (Alg. 5): the same configuration is
//! trained serially and with all cores; speedup and the per-phase
//! breakdown are reported.
//!
//! ```sh
//! cargo run --release --example reddit_community
//! ```

use gsgcn::core::trainer::EvalSplit;
use gsgcn::core::{GsGcnTrainer, TrainerConfig};
use gsgcn::data::presets;

fn run(threads: usize, epochs: usize) -> (f64, f64, gsgcn::metrics::timing::Breakdown) {
    let dataset = presets::reddit_scaled(43);
    let mut cfg = TrainerConfig::default();
    cfg.sampler.frontier_size = 150;
    cfg.sampler.budget = 1500;
    cfg.hidden_dims = vec![256, 256];
    cfg.epochs = epochs;
    cfg.eval_every = 0;
    cfg.threads = threads;
    // The serial-vs-parallel comparison must not hide sampling on extra
    // threads (see TrainerConfig::serial).
    cfg.sampler_threads = 0;
    cfg.p_inter = threads.max(1);
    cfg.seed = 43;
    let mut t = GsGcnTrainer::new(&dataset, cfg).expect("config");
    for _ in 0..epochs {
        t.train_epoch().expect("epoch");
    }
    let f1 = t.evaluate(EvalSplit::Val);
    (t.train_secs(), f1, *t.breakdown())
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let epochs = 6;
    println!("Reddit-shaped community classification; {epochs} epochs, 2-layer GCN, hidden 256");

    let (serial_secs, serial_f1, _) = run(1, epochs);
    println!("\nserial   (1 core):  {serial_secs:.2}s  val F1 {serial_f1:.4}");

    let (par_secs, par_f1, breakdown) = run(cores, epochs);
    println!("parallel ({cores} cores): {par_secs:.2}s  val F1 {par_f1:.4}");
    println!("\nspeedup: {:.1}x", serial_secs / par_secs);
    println!("parallel phase breakdown: {}", breakdown.report());
    println!("\n(identical F1 by design: the subgraph pool is instance-seeded, so the");
    println!(" training trajectory does not depend on the thread count)");
}
