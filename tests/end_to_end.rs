//! End-to-end integration tests: the full pipeline from dataset synthesis
//! through parallel sampling, training and evaluation.

use gsgcn::core::trainer::EvalSplit;
use gsgcn::core::{GsGcnTrainer, TrainerConfig};
use gsgcn::data::presets;

#[test]
fn full_pipeline_reaches_useful_f1() {
    let dataset = presets::scale_spec(&presets::ppi_spec(), 800).generate(1);
    let mut cfg = TrainerConfig::quick_test();
    cfg.epochs = 30;
    cfg.sampler.frontier_size = 30;
    cfg.sampler.budget = 200;
    let mut trainer = GsGcnTrainer::new(&dataset, cfg).unwrap();
    let report = trainer.train().unwrap();
    assert!(
        report.final_val_f1 > 0.35,
        "val F1 too low: {}",
        report.final_val_f1
    );
    assert!(report.test_f1 > 0.3, "test F1 too low: {}", report.test_f1);
    // Loss must have decreased substantially over training.
    let first = report.epochs.first().unwrap().mean_loss;
    let last = report.epochs.last().unwrap().mean_loss;
    assert!(last < first * 0.8, "loss barely moved: {first} → {last}");
}

#[test]
fn single_label_task_trains() {
    let dataset = presets::scale_spec(&presets::reddit_spec(), 800).generate(2);
    assert_eq!(dataset.task, gsgcn::data::TaskKind::SingleLabel);
    let mut cfg = TrainerConfig::quick_test();
    cfg.epochs = 20;
    cfg.sampler.budget = 250;
    cfg.sampler.frontier_size = 40;
    let mut trainer = GsGcnTrainer::new(&dataset, cfg).unwrap();
    let report = trainer.train().unwrap();
    // Single-label on community-aligned classes converges fast.
    assert!(
        report.final_val_f1 > 0.5,
        "single-label F1: {}",
        report.final_val_f1
    );
}

#[test]
fn parallel_and_serial_trainers_agree() {
    let dataset = presets::scale_spec(&presets::ppi_spec(), 600).generate(3);
    let run = |threads: usize, p_inter: usize| {
        let mut cfg = TrainerConfig::quick_test();
        cfg.epochs = 3;
        cfg.threads = threads;
        cfg.p_inter = p_inter;
        let mut t = GsGcnTrainer::new(&dataset, cfg).unwrap();
        let r = t.train().unwrap();
        (r.final_loss(), r.final_val_f1)
    };
    // Same p_inter → identical pool contents → identical trajectory.
    let (l1, f1) = run(1, 4);
    let (l2, f2) = run(8, 4);
    assert_eq!(l1, l2, "loss must not depend on thread count");
    assert_eq!(f1, f2, "F1 must not depend on thread count");
}

#[test]
fn evaluation_splits_are_disjoint_in_reporting() {
    let dataset = presets::scale_spec(&presets::yelp_spec(), 600).generate(4);
    let mut cfg = TrainerConfig::quick_test();
    cfg.epochs = 2;
    let mut trainer = GsGcnTrainer::new(&dataset, cfg).unwrap();
    trainer.train_epoch().unwrap();
    // All three splits evaluable without panic, values in [0, 1].
    for split in [EvalSplit::Train, EvalSplit::Val, EvalSplit::Test] {
        let f = trainer.evaluate(split);
        assert!((0.0..=1.0).contains(&f));
    }
}

#[test]
fn skewed_amazon_shape_with_degree_cap() {
    let dataset = presets::scale_spec(&presets::amazon_spec(), 800).generate(5);
    let mut cfg = TrainerConfig::quick_test();
    cfg.epochs = 10;
    cfg.sampler.degree_cap = Some(30); // the paper's skew mitigation
    let mut trainer = GsGcnTrainer::new(&dataset, cfg).unwrap();
    let report = trainer.train().unwrap();
    // The point under test is sampler robustness under heavy skew: the
    // run must stay numerically sound and optimise (accuracy quality is
    // covered by the longer-horizon tests above).
    assert!(report.epochs.iter().all(|e| e.mean_loss.is_finite()));
    let first = report.epochs.first().unwrap().mean_loss;
    let last = report.epochs.last().unwrap().mean_loss;
    assert!(
        last < first,
        "loss should decrease under degree cap: {first} → {last}"
    );
    assert!((0.0..=1.0).contains(&report.final_val_f1));
}

/// The CLI refuses configuration it cannot honour instead of running
/// with a default: an unknown (misspelt) flag, a zero shard-cache budget
/// and a store flag without `--shards` each exit non-zero with an error.
#[test]
fn cli_rejects_unknown_flags_and_bad_store_options() {
    let cases: [(&[&str], &str); 4] = [
        (
            &["kernel", "--no-such-flag", "1"],
            "unknown flag --no-such-flag",
        ),
        (
            &["train", "--dataset", "ppi", "--graph-stor", "mmap"],
            "unknown flag --graph-stor",
        ),
        (
            &["train", "--shards", "no-such-dir", "--shard-cache", "0"],
            "--shard-cache must be > 0",
        ),
        (
            &["train", "--dataset", "ppi", "--prefetch"],
            "--prefetch needs --shards",
        ),
    ];
    for (args, want) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_gsgcn"))
            .args(args)
            .output()
            .expect("run gsgcn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(
            stderr.contains(want),
            "{args:?}: stderr lacks {want:?}:\n{stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?}: no usage text");
    }
}
