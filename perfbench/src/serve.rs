//! Serving: the server under test (`EventFrontend` binary protocol →
//! `BatchEngine` → `NodeClassifier` with an `ActivationCache`), the
//! open-loop schedule, the load-generator process, the traced in-process
//! legs and the reply check.

use crate::host;
use crate::stats::quantile;
use gsgcn_graph::GraphStore;
use gsgcn_nn::model::GcnModel;
use gsgcn_serve::poll::{wire, EventFrontend, FrontendConfig, Protocol};
use gsgcn_serve::{
    ActivationCache, AdmissionControl, BatchEngine, ClassifyWorkspace, EngineConfig,
    NodeClassifier, Prediction,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Query nodes per request.
pub const REQUEST_NODES: usize = 16;
/// Hot set the Zipf draws come from, and the Zipf exponent.
pub const HOT_SET: usize = 2_000;
pub const ZIPF_S: f64 = 1.0;
/// Share of requests whose nodes all come from the hot set; the nodes
/// of the other requests are drawn uniformly.
pub const HOT_SHARE: f64 = 0.8;
/// Activation-cache budget. It holds every hidden row of the graph
/// (20k × 128 × 4 B = 10 MiB in f32). The warm path needs *every* row of
/// a batch's 1-hop ball (~1.4k rows for 16 roots at this density), so
/// any budget below the graph sends nearly every batch down the cold
/// L-hop path: at 2 MiB the saturated engine served 27 requests/s, too
/// few for a p99 within the run's time.
pub const CACHE_BYTES: usize = 16 << 20;
/// The server's caches are filled before timing by classifying every
/// node once, in chunks of this many roots.
pub const PREWARM_CHUNK: usize = 4096;
/// Untimed warm-up before the timed phases (fills the caches).
pub const WARMUP_SECS: f64 = 1.0;
/// Replies later than this after the last due time count as unanswered.
pub const DRAIN_SECS: f64 = 10.0;
/// Requests of the saturation phase, all due at once after `hi`. At most
/// 2 × 256 of them are in flight (the front-end's per-connection
/// pipeline bound), below the engine queue's 1024, so none are shed.
pub const SAT_REQUESTS: usize = 1500;
/// Replies per throughput chunk of the saturation phase.
pub const SAT_CHUNK: usize = 250;
/// Latency limit for `goodput_rps`, from each request's due time.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// A run whose generator sent its p99 request later than this after its
/// due time measured the generator, not the server: it is invalid. With
/// 20% of the shared 2-core host's CPU time stolen, healthy runs reached
/// 19 ms.
pub const MAX_LAG_P99_MS: f64 = 50.0;
/// Latency percentiles are taken per window of this many seconds of the
/// schedule and reported as the median over a phase's windows, so one
/// stall on a shared host moves one window, not the run.
pub const WINDOW_SECS: f64 = 1.0;
/// Documented warm-versus-cold tolerance of cached serving.
pub const PROB_TOLERANCE: f32 = 1e-4;

/// Phase names in schedule order. `lo` and `hi` are timed per request;
/// `sat` measures throughput.
pub const PHASES: [&str; 4] = ["warm", "lo", "hi", "sat"];
pub const LO: usize = 1;
pub const HI: usize = 2;
pub const SAT: usize = 3;

/// One scheduled request.
#[derive(Clone)]
pub struct Request {
    pub phase: usize,
    /// Due time, seconds after the schedule starts.
    pub due: f64,
    pub nodes: Vec<u32>,
}

/// splitmix64: a small seeded generator so the schedule depends only on
/// the seed.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The open-loop schedule: Poisson arrivals at `rates[p]` requests/s for
/// `durations[p]` seconds in each of `warm`, `lo` and `hi`, then
/// `SAT_REQUESTS` requests all due at once. 80% of requests draw their
/// nodes Zipf-style from a seeded hot set, 20% uniformly from the whole
/// graph. Same arguments → same schedule.
pub fn schedule(seed: u64, num_nodes: usize, rates: [f64; 3], durations: [f64; 3]) -> Vec<Request> {
    let mut rng = Rng(seed ^ 0x5E4E_5EED);
    let mut perm: Vec<u32> = (0..num_nodes as u32).collect();
    for i in 0..HOT_SET.min(num_nodes) {
        let j = i + rng.below(num_nodes - i);
        perm.swap(i, j);
    }
    let hot = &perm[..HOT_SET.min(num_nodes)];
    let mut cdf: Vec<f64> = Vec::with_capacity(hot.len());
    let mut acc = 0.0;
    for rank in 1..=hot.len() {
        acc += 1.0 / (rank as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let draw = |rng: &mut Rng| -> Vec<u32> {
        let hot_request = rng.unit() < HOT_SHARE;
        (0..REQUEST_NODES)
            .map(|_| {
                if hot_request {
                    let u = rng.unit() * acc;
                    hot[cdf.partition_point(|&c| c < u).min(hot.len() - 1)]
                } else {
                    rng.below(num_nodes) as u32
                }
            })
            .collect()
    };
    let mut out = Vec::new();
    let mut start = 0.0;
    for phase in 0..3 {
        let mut t = start;
        let end = start + durations[phase];
        loop {
            t += -(1.0 - rng.unit()).ln() / rates[phase];
            if t >= end {
                break;
            }
            let nodes = draw(&mut rng);
            out.push(Request {
                phase,
                due: t,
                nodes,
            });
        }
        start = end;
    }
    for _ in 0..SAT_REQUESTS {
        let nodes = draw(&mut rng);
        out.push(Request {
            phase: SAT,
            due: start,
            nodes,
        });
    }
    out
}

/// The server under test, listening on an ephemeral localhost port.
pub struct Server {
    pub frontend: EventFrontend,
    pub engine: Arc<BatchEngine>,
    pub classifier: Arc<NodeClassifier>,
}

pub fn start_server(model: Arc<GcnModel>, store: Arc<GraphStore>) -> Result<Server, String> {
    let cache = ActivationCache::with_precision(CACHE_BYTES, gsgcn_tensor::precision::current());
    let classifier =
        Arc::new(NodeClassifier::from_store(model, store)?.with_cache(Some(Arc::new(cache))));
    let engine = Arc::new(BatchEngine::spawn(
        Arc::clone(&classifier),
        EngineConfig {
            workers: 1,
            admission: AdmissionControl::Shed,
            ..EngineConfig::default()
        },
    )?);
    let nodes: Vec<u32> = (0..classifier.num_nodes() as u32).collect();
    for chunk in nodes.chunks(PREWARM_CHUNK) {
        classifier.classify(chunk)?;
    }
    let frontend = EventFrontend::spawn(
        Arc::clone(&engine),
        "127.0.0.1:0",
        FrontendConfig {
            protocol: Protocol::Binary,
            ..FrontendConfig::default()
        },
    )
    .map_err(|e| format!("binding the front-end: {e}"))?;
    Ok(Server {
        frontend,
        engine,
        classifier,
    })
}

/// How one attempted request ended. Every attempted request lands in
/// exactly one bucket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    Ok,
    Err,
    Overloaded,
    /// The request could not be written (connection refused or closed).
    Refused,
    /// No reply within `DRAIN_SECS` after the last send.
    Unanswered,
}

impl Outcome {
    fn code(self) -> u8 {
        self as u8
    }
    fn from_code(c: u8) -> Option<Outcome> {
        [
            Outcome::Ok,
            Outcome::Err,
            Outcome::Overloaded,
            Outcome::Refused,
            Outcome::Unanswered,
        ]
        .get(c as usize)
        .copied()
    }
}

/// Result of one request as seen by a client.
#[derive(Clone)]
pub struct Reply {
    pub outcome: Outcome,
    /// Due → reply, seconds.
    pub latency: f64,
    /// Due → send, seconds.
    pub lag: f64,
    /// `(node, label, max_prob)` per prediction of an `ok` reply.
    pub preds: Vec<(u32, u32, f32)>,
}

/// Arguments the parent hands the load generator; it rebuilds the same
/// schedule from them.
pub struct LoadSpec {
    pub seed: u64,
    pub num_nodes: usize,
    pub rates: [f64; 3],
    pub durations: [f64; 3],
    pub conns: usize,
}

impl LoadSpec {
    pub fn to_args(&self) -> Vec<String> {
        let f = |xs: [f64; 3]| xs.map(|x| x.to_string()).join(",");
        vec![
            self.seed.to_string(),
            self.num_nodes.to_string(),
            f(self.rates),
            f(self.durations),
            self.conns.to_string(),
        ]
    }

    pub fn from_args(a: &[String]) -> Result<LoadSpec, String> {
        let num = |s: &String| s.parse::<f64>().map_err(|e| format!("{s:?}: {e}"));
        let three = |s: &String| -> Result<[f64; 3], String> {
            let v: Vec<f64> = s
                .split(',')
                .map(|x| num(&x.to_string()))
                .collect::<Result<_, _>>()?;
            v.try_into()
                .map_err(|_| format!("expected 3 values in {s:?}"))
        };
        if a.len() != 5 {
            return Err("loadgen needs: seed nodes rates durations conns".into());
        }
        Ok(LoadSpec {
            seed: a[0].parse().map_err(|e| format!("seed: {e}"))?,
            num_nodes: a[1].parse().map_err(|e| format!("nodes: {e}"))?,
            rates: three(&a[2])?,
            durations: three(&a[3])?,
            conns: a[4].parse().map_err(|e| format!("conns: {e}"))?,
        })
    }
}

/// What the load generator reports: one reply per scheduled request, and
/// the host's steal share during the `sat` phase.
pub struct LoadResult {
    pub replies: Vec<Reply>,
    pub sat_steal_share: f64,
}

/// Run the load generator in its own process (this binary's `loadgen`
/// mode) against `addr`, wait for it, and parse its replies.
pub fn run_loadgen(addr: std::net::SocketAddr, spec: &LoadSpec) -> Result<LoadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut child = std::process::Command::new(exe)
        .arg("loadgen")
        .arg(addr.to_string())
        .args(spec.to_args())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the load generator: {e}"))?;
    let mut text = String::new();
    let read = child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut text);
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the load generator: {e}"))?;
    read.map_err(|e| format!("reading the load generator: {e}"))?;
    if !status.success() {
        return Err(format!("load generator failed: {status}"));
    }
    parse_replies(&text)
}

/// Text format: `s <sat steal share>`, then one request per `r` line
/// followed by its `p` lines: `r <outcome> <latency_ns> <lag_ns>` /
/// `p <node> <label> <max_prob bits>`.
fn parse_replies(text: &str) -> Result<LoadResult, String> {
    let mut out: Vec<Reply> = Vec::new();
    let mut sat_steal_share = None;
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let n = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad load generator line {line:?}"))
        };
        match f[0] {
            "s" => {
                sat_steal_share = f.get(1).and_then(|v| v.parse::<f64>().ok());
            }
            "r" => out.push(Reply {
                outcome: Outcome::from_code(n(1)? as u8)
                    .ok_or_else(|| format!("bad outcome in {line:?}"))?,
                latency: n(2)? as f64 * 1e-9,
                lag: n(3)? as f64 * 1e-9,
                preds: Vec::new(),
            }),
            "p" => out
                .last_mut()
                .ok_or("prediction before any request")?
                .preds
                .push((n(1)? as u32, n(2)? as u32, f32::from_bits(n(3)? as u32))),
            _ => return Err(format!("bad load generator line {line:?}")),
        }
    }
    Ok(LoadResult {
        replies: out,
        sat_steal_share: sat_steal_share.ok_or("load generator reported no steal share")?,
    })
}

mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }
    pub const POLLIN: i16 = 1;
    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
}

/// The `loadgen` process: one send thread and one receive thread over
/// `conns` connections; every request is timed from its due time.
pub fn loadgen_main(addr: &str, spec: &LoadSpec) -> Result<(), String> {
    use std::os::fd::AsRawFd;
    let reqs = Arc::new(schedule(
        spec.seed,
        spec.num_nodes,
        spec.rates,
        spec.durations,
    ));
    let n = reqs.len();
    let mut readers = Vec::new();
    let mut writers = Vec::new();
    for _ in 0..spec.conns {
        let s = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        writers.push(s.try_clone().map_err(|e| e.to_string())?);
        readers.push(s);
    }
    let t0 = Instant::now();
    let end = reqs.last().map_or(0.0, |r| r.due) + DRAIN_SECS;

    let sender = {
        let reqs = Arc::clone(&reqs);
        std::thread::spawn(move || {
            let mut sent = vec![None; reqs.len()];
            let mut sat_start = None;
            let mut frame = Vec::with_capacity(128);
            for (i, r) in reqs.iter().enumerate() {
                let due = Duration::from_secs_f64(r.due);
                if let Some(wait) = due.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                if r.phase == SAT && sat_start.is_none() {
                    sat_start = Some(host::Ticks::now());
                }
                frame.clear();
                wire::encode_request(i as u64, &r.nodes, &mut frame);
                let at = t0.elapsed().as_secs_f64();
                let conn = i % writers.len();
                if writers[conn].write_all(&frame).is_ok() {
                    sent[i] = Some(at);
                }
            }
            (sent, sat_start.flatten())
        })
    };

    let mut got: Vec<Option<(f64, wire::WireResponse)>> = vec![None; n];
    let mut bufs = vec![Vec::<u8>::new(); readers.len()];
    let mut open = vec![true; readers.len()];
    let mut answered = 0usize;
    let mut chunk = vec![0u8; 64 << 10];
    while answered < n && t0.elapsed().as_secs_f64() < end && open.iter().any(|&o| o) {
        let mut fds: Vec<sys::PollFd> = readers
            .iter()
            .map(|s| sys::PollFd {
                fd: s.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            })
            .collect();
        // SAFETY: `fds` is a live array of `fds.len()` pollfd records.
        let ready = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as u64, 10) };
        if ready <= 0 {
            continue;
        }
        for (c, fd) in fds.iter().enumerate() {
            if fd.revents == 0 || !open[c] {
                continue;
            }
            match readers[c].read(&mut chunk) {
                Ok(0) | Err(_) => open[c] = false,
                Ok(k) => {
                    let at = t0.elapsed().as_secs_f64();
                    bufs[c].extend_from_slice(&chunk[..k]);
                    let mut used = 0;
                    while let Some((len, id, resp)) = wire::try_decode_response(&bufs[c][used..])? {
                        used += len;
                        let slot = got
                            .get_mut(id as usize)
                            .ok_or_else(|| format!("reply to unknown request {id}"))?;
                        if slot.is_some() {
                            return Err(format!("two replies to request {id}"));
                        }
                        *slot = Some((at, resp));
                        answered += 1;
                    }
                    bufs[c].drain(..used);
                }
            }
        }
    }
    let sat_end = host::Ticks::now();
    let (sent, sat_start) = sender.join().map_err(|_| "send thread panicked")?;

    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    writeln!(out, "s {}", host::steal_share(sat_start, sat_end)).map_err(|e| e.to_string())?;
    for (i, r) in reqs.iter().enumerate() {
        let lag = sent[i].map_or(0.0, |s| s - r.due);
        let (outcome, at, preds) = match (&sent[i], got[i].take()) {
            (None, _) => (Outcome::Refused, r.due, Vec::new()),
            (Some(_), None) => (Outcome::Unanswered, end, Vec::new()),
            (Some(_), Some((at, wire::WireResponse::Ok(p)))) => (Outcome::Ok, at, p),
            (Some(_), Some((at, wire::WireResponse::Err(_)))) => (Outcome::Err, at, Vec::new()),
            (Some(_), Some((at, wire::WireResponse::Overloaded))) => {
                (Outcome::Overloaded, at, Vec::new())
            }
        };
        let ns = |s: f64| (s.max(0.0) * 1e9) as u64;
        writeln!(out, "r {} {} {}", outcome.code(), ns(at - r.due), ns(lag))
            .map_err(|e| e.to_string())?;
        for p in preds {
            let label = p.labels.first().copied().unwrap_or(u32::MAX);
            writeln!(out, "p {} {label} {}", p.node, p.max_prob.to_bits())
                .map_err(|e| e.to_string())?;
        }
    }
    out.flush().map_err(|e| e.to_string())
}

/// Latency and outcome summary of one phase.
#[derive(Default, Clone)]
pub struct PhaseStats {
    pub attempted: usize,
    pub ok: usize,
    pub err: usize,
    pub overloaded: usize,
    pub refused: usize,
    pub unanswered: usize,
    /// Median over windows of each window's p50 / p99.
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// p50 / p99 over the whole phase.
    pub p50_all_ms: f64,
    pub p99_all_ms: f64,
    pub within_limit: usize,
    pub lag_p99_ms: f64,
}

impl PhaseStats {
    pub fn failed(&self) -> usize {
        self.err + self.overloaded + self.refused + self.unanswered
    }
}

/// Summarise the replies of phase `phase`.
pub fn phase_stats(reqs: &[Request], replies: &[Reply], phase: usize) -> PhaseStats {
    let mut s = PhaseStats::default();
    let mut lat = Vec::new();
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    let mut lag = Vec::new();
    for (r, rep) in reqs.iter().zip(replies) {
        if r.phase != phase {
            continue;
        }
        s.attempted += 1;
        lag.push(rep.lag * 1e3);
        match rep.outcome {
            Outcome::Ok => {
                s.ok += 1;
                lat.push(rep.latency * 1e3);
                windows
                    .entry((r.due / WINDOW_SECS) as u64)
                    .or_default()
                    .push(rep.latency * 1e3);
                if rep.latency * 1e3 <= LATENCY_LIMIT_MS {
                    s.within_limit += 1;
                }
            }
            Outcome::Err => s.err += 1,
            Outcome::Overloaded => s.overloaded += 1,
            Outcome::Refused => s.refused += 1,
            Outcome::Unanswered => s.unanswered += 1,
        }
    }
    let per_window = |q: f64| -> Vec<f64> { windows.values().map(|w| quantile(w, q)).collect() };
    s.p50_ms = quantile(&per_window(0.5), 0.5);
    s.p99_ms = quantile(&per_window(0.99), 0.5);
    s.p50_all_ms = quantile(&lat, 0.5);
    s.p99_all_ms = quantile(&lat, 0.99);
    s.lag_p99_ms = quantile(&lag, 0.99);
    s
}

/// Check every `ok` reply against a direct, cache-less
/// `NodeClassifier::classify` of the same nodes: labels equal (unless the
/// reference's top two classes tie within the tolerance) and `max_prob`
/// within `PROB_TOLERANCE`. Returns the number of mismatches.
pub fn check_replies(
    model: Arc<GcnModel>,
    store: Arc<GraphStore>,
    replies: &[Reply],
) -> Result<usize, String> {
    let reference = NodeClassifier::from_store(model, store)?.with_cache(None);
    let mut nodes: Vec<u32> = replies
        .iter()
        .flat_map(|r| r.preds.iter().map(|p| p.0))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut expect: HashMap<u32, Prediction> = HashMap::with_capacity(nodes.len());
    for chunk in nodes.chunks(PREWARM_CHUNK) {
        for p in reference.classify(chunk)? {
            expect.insert(p.node, p);
        }
    }
    let mut bad = 0;
    for (node, label, max_prob) in replies.iter().flat_map(|r| r.preds.iter().copied()) {
        let want = &expect[&node];
        let mut probs = want.probs.clone();
        probs.sort_by(|a, b| b.total_cmp(a));
        let tie = probs.len() > 1 && probs[0] - probs[1] <= PROB_TOLERANCE;
        let label_ok = want.labels.first() == Some(&label) || tie;
        if !label_ok || (want.max_prob() - max_prob).abs() > PROB_TOLERANCE {
            if bad < 5 {
                eprintln!(
                    "reply mismatch at node {node}: label {label} p {max_prob} vs reference {:?} p {}",
                    want.labels,
                    want.max_prob()
                );
            }
            bad += 1;
        }
    }
    Ok(bad)
}

/// Replay the schedule in process: at each due time submit to the
/// engine; a waiter thread records completion. Latency is timed from
/// the due time. Returns `(phase, latency)` pairs.
pub fn replay_engine(engine: &Arc<BatchEngine>, reqs: &[Request]) -> Vec<(usize, f64)> {
    let (tx, rx) = std::sync::mpsc::channel::<(usize, f64, gsgcn_serve::ResponseHandle)>();
    let t0 = Instant::now();
    let waiter = std::thread::spawn(move || {
        let mut out = Vec::new();
        for (phase, due, h) in rx {
            let ok = h.wait().is_ok();
            if ok {
                out.push((phase, t0.elapsed().as_secs_f64() - due));
            }
        }
        out
    });
    for r in reqs {
        if let Some(wait) = Duration::from_secs_f64(r.due).checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        if let Ok(h) = engine.submit(r.nodes.clone()) {
            let _ = tx.send((r.phase, r.due, h));
        }
    }
    drop(tx);
    waiter.join().expect("waiter thread panicked")
}

/// Replay the schedule as direct `classify_into` calls, paced at the due
/// times; each call's own duration is its latency (service time only).
pub fn replay_classify(
    classifier: &NodeClassifier,
    reqs: &[Request],
) -> Result<Vec<(usize, f64)>, String> {
    let mut ws = ClassifyWorkspace::new();
    let mut out = Vec::with_capacity(REQUEST_NODES);
    let mut lat = Vec::with_capacity(reqs.len());
    let t0 = Instant::now();
    for r in reqs {
        if let Some(wait) = Duration::from_secs_f64(r.due).checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        out.clear();
        let t = Instant::now();
        classifier.classify_into(&r.nodes, &mut ws, &mut out)?;
        lat.push((r.phase, t.elapsed().as_secs_f64()));
    }
    Ok(lat)
}

/// Throughput of the saturation phase, as `(wall, steal removed)`
/// requests/s: the `ok` replies in arrival order are cut into chunks of
/// `SAT_CHUNK`, and the median chunk rate is reported, so a stall in one
/// chunk does not move the result.
pub fn capacity_rps(reqs: &[Request], load: &LoadResult) -> (f64, f64) {
    let mut done: Vec<f64> = reqs
        .iter()
        .zip(&load.replies)
        .filter(|(r, rep)| r.phase == SAT && rep.outcome == Outcome::Ok)
        .map(|(_, rep)| rep.latency)
        .collect();
    done.sort_by(|a, b| a.total_cmp(b));
    let mut rates = Vec::new();
    let mut start = 0.0;
    for chunk in done.chunks_exact(SAT_CHUNK) {
        let end = chunk[SAT_CHUNK - 1];
        rates.push(SAT_CHUNK as f64 / (end - start).max(f64::MIN_POSITIVE));
        start = end;
    }
    let wall = quantile(&rates, 0.5);
    (wall, wall / (1.0 - load.sat_steal_share))
}
