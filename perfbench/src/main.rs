//! The gsgcn benchmark: one workload per process (storage precision is
//! process-global). Each run sets up, trains to the converged regime and
//! serves the trained model open-loop, then checks the outputs. With
//! `--trace 1` it also runs the traced training loop and the traced
//! serving legs and reports per-layer metrics. See README.md.
//!
//! ```text
//! gsgcn-perfbench --workload <name> --seed N --seconds S --trace 0|1 [--commit ID] [--work DIR]
//! ```
//!
//! The last stdout line is `{"correct","attempted","failed","metrics"}`;
//! the line before it is the full record with provenance.

mod dataset;
mod host;
mod serve;
mod stats;
mod trace;
mod train;

use gsgcn_graph::Topology;
use gsgcn_nn::model::GcnModel;
use gsgcn_tensor::{gemm, precision, Precision};
use serve::{Reply, Request, PHASES};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// f32, resident `mem` store.
    Resident,
    /// Same as `Resident` at bf16 storage precision.
    Bf16,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::Resident, Workload::Bf16];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Resident => "resident",
            Workload::Bf16 => "bf16",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn precision(self) -> Precision {
        match self {
            Workload::Resident => Precision::F32,
            Workload::Bf16 => Precision::Bf16,
        }
    }

    /// Open-loop rates `(lo, hi)` in requests/s, frozen at ⅙ and ⅓ of the
    /// saturated capacity measured on the commit that introduced the
    /// benchmark (2-core Xeon with AMX: 946 and 1192 requests/s through
    /// the engine). Not ⅓ and ⅔: with 20% of the host's CPU time stolen
    /// by other guests the capacity fell to ~620 requests/s, and at ½ the
    /// `hi` phase already backed up (p50 547 ms).
    fn rates(self) -> (f64, f64) {
        match self {
            Workload::Resident => (158.0, 315.0),
            Workload::Bf16 => (199.0, 397.0),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(name, unit)` of every end-to-end metric (`--trace 0`), as listed in
/// BENCHMARK.json.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("epoch_s", "s"),
    ("time_to_f1_s", "s"),
    ("eval_s", "s"),
    ("val_f1", "F1"),
    ("goodput_rps", "1/s"),
    ("capacity_rps", "1/s"),
];

/// `(name, unit)` of every per-layer metric (`--trace 1`).
const PER_LAYER: &[(&str, &str)] = &[
    ("lo.p50_ms", "ms"),
    ("lo.p99_ms", "ms"),
    ("hi.p50_ms", "ms"),
    ("hi.p99_ms", "ms"),
    ("sampler.pop_s", "s"),
    ("sampler.subgraph_vertices", "count"),
    ("sampler.subgraph_edges", "count"),
    ("graph.gather_s", "s"),
    ("graph.gather_mb", "MB"),
    ("nn.step_s", "s"),
    ("nn.prop_s", "s"),
    ("nn.weight_app_s", "s"),
    ("nn.rest_s", "s"),
    ("nn.step_gflops", "GFLOP/s"),
    ("core.loop_rest_s", "s"),
    ("core.evaluate_s", "s"),
    ("frontend.requests", "count"),
    ("frontend.refused", "count"),
    ("frontend.protocol_errors", "count"),
    ("engine.batches", "count"),
    ("engine.mean_batch_nodes", "count"),
    ("engine.shed", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("engine.lo.p50_ms", "ms"),
    ("engine.lo.p99_ms", "ms"),
    ("engine.hi.p50_ms", "ms"),
    ("engine.hi.p99_ms", "ms"),
    ("classify.lo.p50_ms", "ms"),
    ("classify.lo.p99_ms", "ms"),
    ("classify.hi.p50_ms", "ms"),
    ("classify.hi.p99_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    work: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::Resident,
        seed: 1,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
        work: PathBuf::from(".perfbench-work"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| bad(&"expected resident or bf16"))?)
            }
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--commit" => a.commit = val.clone(),
            "--work" => a.work = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    a.workload = workload.ok_or("missing --workload")?;
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Provenance stamped on every record.
fn provenance(a: &Args) -> BTreeMap<&'static str, String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let tier = gemm::selected_tier();
    BTreeMap::from([
        ("commit", a.commit.clone()),
        ("cpu", cpu),
        ("nproc", nproc().to_string()),
        ("tier", tier.name().to_string()),
        ("bf16_engine", gemm::bf16_engine(tier).to_string()),
        ("precision", precision::current().name().to_string()),
        ("seed", a.seed.to_string()),
        ("workload", a.workload.name().to_string()),
        ("trace", (a.trace as u8).to_string()),
    ])
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Every measured value of one run, by metric name.
#[derive(Default)]
struct Measured(BTreeMap<String, f64>);

impl Measured {
    fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }
}

/// Output checks that failed, in words.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let w = what();
            eprintln!("check failed: {w}");
            self.0.push(w);
        }
    }
}

/// Serving phase durations `[warm, lo, hi]` for a `--seconds` budget.
fn durations(seconds: f64) -> [f64; 3] {
    [serve::WARMUP_SECS, seconds / 2.0, seconds / 2.0]
}

fn run(a: &Args) -> Result<(Measured, Checks, usize, usize), String> {
    let ticks_before = host::Ticks::now();
    let mut m = Measured::default();
    let mut checks = Checks::default();

    // --- Set-up (repeated; median) ---
    let (data, setup_secs) = train::setup(a.seed)?;
    let setup = train::median_timed(&setup_secs);
    m.set("data_setup_s", setup.1);
    m.set("data_setup_wall_s", setup.0);
    println!(
        "setup: {} × {:.3?} s (wall, steal removed)",
        setup_secs.len(),
        setup_secs
    );

    // --- Untraced training to the converged regime ---
    let tr = train::train(&data, a.seed)?;
    let (epoch, first, eval) = (
        tr.epoch_s(),
        tr.first_epochs_s(),
        train::median_timed(&tr.eval_secs),
    );
    m.set("epoch_s", epoch.1);
    m.set("epoch_wall_s", epoch.0);
    m.set("first_epochs_s", first.1);
    m.set("first_epochs_wall_s", first.0);
    m.set("eval_s", eval.1);
    m.set("eval_wall_s", eval.0);
    m.set("val_f1", tr.val_f1());
    println!(
        "train: epoch_s {:.4} (epochs {}..{}) vs first_epochs_s {:.4} (epochs {}..{}) = {:.2}×; \
         wall {:.4} vs {:.4}; val F1 {:.4}",
        epoch.1,
        train::CONVERGED.start,
        train::CONVERGED.end - 1,
        first.1,
        train::FIRST.start,
        train::FIRST.end - 1,
        epoch.1 / first.1,
        epoch.0,
        first.0,
        tr.val_f1()
    );
    println!(
        "epoch seconds (wall/steal removed): {}",
        tr.epochs
            .iter()
            .map(|s| format!("{:.3}/{:.3}", s.0, s.1))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "val F1 by evaluation: {} (evaluate took {:.3?} s)",
        tr.evals
            .iter()
            .map(|e| format!("{:.4}@{:.2}s", e.1, e.0 .1))
            .collect::<Vec<_>>()
            .join(" "),
        tr.eval_secs
    );
    checks.require(tr.val_f1() >= train::F1_FLOOR, || {
        format!(
            "val F1 {:.4} below the floor {}",
            tr.val_f1(),
            train::F1_FLOOR
        )
    });
    match tr.time_to_f1_s() {
        Some(t) => {
            m.set("time_to_f1_s", t.1);
            m.set("time_to_f1_wall_s", t.0);
        }
        None => checks.require(false, || {
            format!("val F1 never reached {}", train::F1_TARGET)
        }),
    }

    // --- Traced training loop (per-layer) ---
    if a.trace {
        let spans = a.work.join(format!(
            "{}-{}-{}.spans.jsonl",
            a.workload.name(),
            a.seed,
            std::process::id()
        ));
        traced_training(&data, a.seed, &tr, &mut m, &mut checks, &spans)?;
    }

    // --- Serving the trained model open-loop ---
    let model = Arc::new(tr.model);
    let store = train::into_serving_store(data);
    let (attempted, failed, server_start) = serving(a, &model, &store, &mut m, &mut checks)?;
    // Set-up a user pays: dataset and trainer, then the server's start.
    m.set("setup_s", setup.1 + server_start.1);
    m.set("setup_wall_s", setup.0 + server_start.0);
    m.set("server_start_s", server_start.1);

    m.set(
        "peak_rss_mib",
        gsgcn_metrics::mem::peak_rss_bytes().ok_or("peak RSS unavailable")? as f64
            / (1 << 20) as f64,
    );
    m.set(
        "host.steal_frac",
        host::steal_share(ticks_before, host::Ticks::now()),
    );
    Ok((m, checks, attempted, failed))
}

fn traced_training(
    data: &gsgcn_data::Dataset,
    seed: u64,
    untraced: &train::TrainRun,
    m: &mut Measured,
    checks: &mut Checks,
    spans_path: &Path,
) -> Result<(), String> {
    let t = train::train_traced(data, seed)?;
    checks.require(t.losses == untraced.losses, || {
        format!(
            "traced loop losses {:?} differ from train_epoch's {:?}",
            t.losses, untraced.losses
        )
    });
    let l = &t.layers;
    let med = |f: fn(&train::EpochLayers) -> f64| train::converged_median(l, f);
    let epoch = med(|e| e.epoch);
    m.set("sampler.pop_s", med(|e| e.pop));
    m.set(
        "sampler.subgraph_vertices",
        train::converged_mean(l, |e| e.subgraph_vertices),
    );
    m.set(
        "sampler.subgraph_edges",
        train::converged_mean(l, |e| e.subgraph_edges),
    );
    m.set("graph.gather_s", med(|e| e.gather));
    m.set(
        "graph.gather_mb",
        train::converged_mean(l, |e| e.gather_bytes) / 1e6,
    );
    let step = med(|e| e.step);
    m.set("nn.step_s", step);
    m.set("nn.prop_s", med(|e| e.prop));
    m.set("nn.weight_app_s", med(|e| e.weight_app));
    m.set("nn.rest_s", med(|e| e.step - e.prop - e.weight_app));
    m.set("nn.step_gflops", med(|e| e.flops / e.step) / 1e9);
    m.set(
        "core.loop_rest_s",
        med(|e| e.epoch - e.pop - e.gather - e.step),
    );
    m.set(
        "core.evaluate_s",
        train::median_timed(&untraced.eval_secs).0,
    );
    m.set("trace.overhead_frac", epoch / untraced.epoch_s().0 - 1.0);

    // Self times from the spans, summed over the converged window.
    let spans = t.tracer.spans();
    let epochs: Vec<u32> = (0..spans.len() as u32)
        .filter(|&i| spans[i as usize].name == "epoch")
        .collect();
    let window: Vec<u32> = epochs[train::CONVERGED].to_vec();
    let mut self_by_name: BTreeMap<&str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for &e in &window {
        total += spans[e as usize].secs();
        *self_by_name.entry("(residual: epoch self)").or_default() += t.tracer.self_secs(e);
        for s in spans.iter().filter(|s| s.parent == Some(e)) {
            *self_by_name.entry(s.name).or_default() += s.secs();
        }
    }
    println!(
        "traced epochs {}..{}: {:.3} s total",
        train::CONVERGED.start,
        train::CONVERGED.end - 1,
        total
    );
    for (name, secs) in &self_by_name {
        println!(
            "  {name:<24} self {secs:8.3} s  {:5.1}%",
            100.0 * secs / total
        );
    }
    if let Some(dir) = spans_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(spans_path, t.tracer.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    println!("spans written to {}", spans_path.display());
    Ok(())
}

fn serving(
    a: &Args,
    model: &Arc<GcnModel>,
    store: &Arc<gsgcn_graph::GraphStore>,
    m: &mut Measured,
    checks: &mut Checks,
) -> Result<(usize, usize, host::Timed), String> {
    // One send and one receive thread over two connections: the load
    // generator never uses more client threads or connections than cores.
    if nproc() < 2 {
        return Err("the load generator needs one send and one receive thread: nproc ≥ 2".into());
    }
    let (lo, hi) = a.workload.rates();
    let spec = serve::LoadSpec {
        seed: a.seed,
        num_nodes: store.num_vertices(),
        rates: [lo, lo, hi],
        durations: durations(a.seconds),
        conns: 2,
    };
    let reqs: Vec<Request> = serve::schedule(spec.seed, spec.num_nodes, spec.rates, spec.durations);
    let watch = host::Stopwatch::start();
    let server = serve::start_server(Arc::clone(model), Arc::clone(store))?;
    let server_start = watch.stop();
    let load = serve::run_loadgen(server.frontend.local_addr(), &spec)?;
    let replies: &[Reply] = &load.replies;
    if replies.len() != reqs.len() {
        return Err(format!(
            "load generator reported {} requests, schedule has {}",
            replies.len(),
            reqs.len()
        ));
    }
    let phase: Vec<serve::PhaseStats> = (0..PHASES.len())
        .map(|p| serve::phase_stats(&reqs, replies, p))
        .collect();
    let (capacity_wall, capacity) = serve::capacity_rps(&reqs, &load);
    for (p, s) in phase.iter().enumerate() {
        let timing = if p == serve::SAT {
            format!(
                "throughput {capacity:.1} requests/s ({capacity_wall:.1} wall, steal {:.3})",
                load.sat_steal_share
            )
        } else {
            format!(
                "p50 {:.3} ms p99 {:.3} ms (whole phase: {:.3} / {:.3} ms) lag p99 {:.3} ms",
                s.p50_ms, s.p99_ms, s.p50_all_ms, s.p99_all_ms, s.lag_p99_ms
            )
        };
        println!(
            "serve {:<4} attempted {:5} ok {:5} err {} overloaded {} refused {} unanswered {} {timing}",
            PHASES[p], s.attempted, s.ok, s.err, s.overloaded, s.refused, s.unanswered
        );
    }
    let (slo, shi, ssat) = (&phase[serve::LO], &phase[serve::HI], &phase[serve::SAT]);
    m.set("lo.p50_ms", slo.p50_ms);
    m.set("lo.p99_ms", slo.p99_ms);
    m.set("hi.p50_ms", shi.p50_ms);
    m.set("hi.p99_ms", shi.p99_ms);
    m.set(
        "goodput_rps",
        shi.within_limit as f64 / spec.durations[serve::HI],
    );
    m.set("capacity_rps", capacity);
    m.set("capacity_wall_rps", capacity_wall);
    let attempted = slo.attempted + shi.attempted + ssat.attempted;
    let failed = slo.failed() + shi.failed() + ssat.failed();
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let lag_p99 = quantile_of_lags(&reqs, replies);
    m.set("loadgen.failed_frac", failed_frac);
    m.set("loadgen.lag_p99_ms", lag_p99);
    println!(
        "serve: failed_frac {failed_frac:.5} over {attempted} requests after warm-up, \
         generator lag p99 {lag_p99:.3} ms"
    );
    checks.require(lag_p99 <= serve::MAX_LAG_P99_MS, || {
        format!(
            "invalid run: generator lag p99 {lag_p99:.3} ms exceeds {} ms",
            serve::MAX_LAG_P99_MS
        )
    });

    // Counters of the wire run.
    let fs = server.frontend.stats();
    let protocol_errors = fs.protocol_errors.load(Ordering::Relaxed);
    m.set(
        "frontend.requests",
        fs.requests.load(Ordering::Relaxed) as f64,
    );
    m.set(
        "frontend.refused",
        fs.refused.load(Ordering::Relaxed) as f64,
    );
    m.set("frontend.protocol_errors", protocol_errors as f64);
    let batches = server.engine.batches();
    m.set("engine.batches", batches as f64);
    m.set(
        "engine.mean_batch_nodes",
        server.engine.nodes_classified() as f64 / batches.max(1) as f64,
    );
    m.set("engine.shed", server.engine.shed() as f64);
    let cs = server
        .classifier
        .cache()
        .map(|c| c.stats())
        .unwrap_or_default();
    m.set("cache.hit_rate", cs.hit_rate());
    m.set("cache.evictions", cs.evictions as f64);
    println!(
        "cache: hit rate {:.3}, evictions {}, engine batches {}, mean batch nodes {:.1}, shed {}",
        cs.hit_rate(),
        cs.evictions,
        batches,
        server.engine.nodes_classified() as f64 / batches.max(1) as f64,
        server.engine.shed()
    );
    checks.require(protocol_errors == 0, || {
        format!("{protocol_errors} protocol errors")
    });

    let t0 = Instant::now();
    let bad = serve::check_replies(Arc::clone(model), Arc::clone(store), replies)?;
    let checked: usize = replies.iter().map(|r| r.preds.len()).sum();
    println!(
        "checked {checked} served predictions against direct classify in {:.2} s: {bad} mismatches",
        t0.elapsed().as_secs_f64()
    );
    checks.require(bad == 0, || {
        format!("{bad} served predictions differ from direct classify")
    });

    if a.trace {
        let split = |lat: &[(usize, f64)], p: usize, q: f64| {
            let xs: Vec<f64> = lat.iter().filter(|l| l.0 == p).map(|l| l.1 * 1e3).collect();
            stats::quantile(&xs, q)
        };
        let timed: Vec<Request> = reqs
            .iter()
            .filter(|r| r.phase == serve::LO || r.phase == serve::HI)
            .cloned()
            .collect();
        let eng = serve::replay_engine(&server.engine, &timed);
        let cls = serve::replay_classify(&server.classifier, &timed)?;
        for (prefix, lat) in [("engine", &eng), ("classify", &cls)] {
            for (p, phase_name) in [(serve::LO, "lo"), (serve::HI, "hi")] {
                m.set(&format!("{prefix}.{phase_name}.p50_ms"), split(lat, p, 0.5));
                m.set(
                    &format!("{prefix}.{phase_name}.p99_ms"),
                    split(lat, p, 0.99),
                );
            }
        }
    }
    server.frontend.shutdown();
    Ok((attempted, failed, server_start))
}

fn quantile_of_lags(reqs: &[Request], replies: &[Reply]) -> f64 {
    let lags: Vec<f64> = reqs
        .iter()
        .zip(replies)
        .filter(|(r, _)| r.phase == serve::LO || r.phase == serve::HI)
        .map(|(_, rep)| rep.lag * 1e3)
        .collect();
    stats::quantile(&lags, 0.99)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("loadgen") {
        let result = argv
            .get(1)
            .ok_or_else(|| "loadgen needs an address".to_string())
            .and_then(|addr| serve::loadgen_main(addr, &serve::LoadSpec::from_args(&argv[2..])?));
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("loadgen: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let want = args.workload.precision();
    if precision::force_global(want) != want {
        eprintln!("error: storage precision already latched");
        return ExitCode::FAILURE;
    }

    let (m, checks, attempted, failed) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut checks = checks;
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let v = m.0.get(*name).copied().unwrap_or(f64::NAN);
        checks.require(v.is_finite(), || format!("metric {name} was not measured"));
        let _ = write!(
            metrics,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(name),
            json_num(v),
            json_str(unit)
        );
    }
    let correct = checks.0.is_empty();

    // The full record: provenance, every measured value, the checks.
    let mut record = String::from("{\"provenance\": {");
    for (i, (k, v)) in provenance(&args).iter().enumerate() {
        let _ = write!(
            record,
            "{}{}: {}",
            if i == 0 { "" } else { ", " },
            json_str(k),
            json_str(v)
        );
    }
    record.push_str("}, \"measured\": {");
    for (i, (k, v)) in m.0.iter().enumerate() {
        let _ = write!(
            record,
            "{}{}: {}",
            if i == 0 { "" } else { ", " },
            json_str(k),
            json_num(*v)
        );
    }
    let _ = write!(
        record,
        "}}, \"failed_checks\": [{}]}}",
        checks
            .0
            .iter()
            .map(|c| json_str(c))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("record {record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
