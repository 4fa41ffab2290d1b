//! The event front-end survives descriptor exhaustion: with the process
//! at its `RLIMIT_NOFILE`, `accept` fails with EMFILE; the loop must
//! count the failure, keep sweeping, and serve the waiting client once
//! descriptors are freed. Lowering the limit is process-wide, so this
//! test lives alone in its own binary.
#![cfg(target_os = "linux")]

use gsgcn_graph::GraphBuilder;
use gsgcn_nn::model::{GcnConfig, GcnModel, LossKind};
use gsgcn_serve::poll::{EventFrontend, FrontendConfig};
use gsgcn_serve::{BatchEngine, EngineConfig, NodeClassifier};
use std::ffi::{c_int, c_ulong};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `struct rlimit` (`rlim_t` is `unsigned long` on Linux).
#[repr(C)]
struct RLimit {
    cur: c_ulong,
    max: c_ulong,
}

const RLIMIT_NOFILE: c_int = 7;
const EMFILE: i32 = 24;

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

fn nofile_limit() -> RLimit {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim
}

fn set_nofile_limit(lim: &RLimit) {
    // SAFETY: `lim` is a valid `struct rlimit`.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, lim) }, 0);
}

/// Poll `cond` until it holds; the deadline only bounds a broken run.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(20), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn ask(stream: TcpStream, request: &[u8]) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(request).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    line
}

#[test]
fn accept_survives_descriptor_exhaustion() {
    let n = 16;
    let g = GraphBuilder::new(n)
        .add_edges((0..n as u32).map(|i| (i, (i + 1) % n as u32)))
        .build();
    let x = gsgcn_tensor::DMatrix::from_fn(n, 4, |i, j| ((i + 3 * j) % 5) as f32 * 0.3 - 0.6);
    let model = GcnModel::new(
        GcnConfig {
            in_dim: 4,
            hidden_dims: vec![8],
            num_classes: 3,
            loss: LossKind::SoftmaxCe,
            ..GcnConfig::default()
        },
        5,
    );
    let c = NodeClassifier::new(Arc::new(model), Arc::new(g), Arc::new(x)).unwrap();
    let engine = Arc::new(BatchEngine::spawn(Arc::new(c), EngineConfig::default()).unwrap());
    let fe = EventFrontend::spawn(engine, "127.0.0.1:0", FrontendConfig::default()).unwrap();
    let addr = fe.local_addr();
    let stats = fe.stats();

    // Fill every descriptor slot under a lowered soft limit. The sweep's
    // own `accept` briefly reserves a slot even with nothing pending, so
    // an EMFILE here may be that reservation rather than a full table:
    // keep filling until the front-end itself fails to accept.
    let original = nofile_limit();
    let open_now = std::fs::read_dir("/proc/self/fd").unwrap().count() as c_ulong;
    set_nofile_limit(&RLimit {
        cur: (open_now + 16).min(original.max),
        max: original.max,
    });
    let mut hog = Vec::new();
    wait_until("a full descriptor table", || {
        match File::open("/dev/null") {
            Ok(f) => hog.push(f),
            Err(e) if e.raw_os_error() == Some(EMFILE) => {}
            Err(e) => panic!("open /dev/null: {e}"),
        }
        stats.accept_errors.load(Ordering::Relaxed) >= 1
    });

    // Free one slot for the client socket; the connect may lose it to a
    // sweep's reservation, so retry until it wins.
    hog.pop();
    let client = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) if e.raw_os_error() == Some(EMFILE) => std::thread::yield_now(),
            Err(e) => panic!("connect: {e}"),
        }
    };

    // The handshake completed in the kernel, but the table is full
    // again: the front-end keeps failing to take the connection off the
    // backlog, and keeps sweeping.
    let seen = stats.accept_errors.load(Ordering::Relaxed);
    wait_until("the loop to sweep again after the error", || {
        stats.accept_errors.load(Ordering::Relaxed) > seen
    });
    assert_eq!(stats.accepted.load(Ordering::Relaxed), 0);

    // Free the descriptors: the waiting client is accepted and served,
    // and so is a new one.
    drop(hog);
    set_nofile_limit(&original);
    let reply = ask(client, b"3\n");
    assert!(reply.starts_with("ok 3:"), "{reply}");
    let reply = ask(TcpStream::connect(addr).unwrap(), b"4 5\n");
    assert!(reply.starts_with("ok 4:"), "{reply}");
    assert_eq!(stats.accepted.load(Ordering::Relaxed), 2);
    assert!(stats.accept_errors.load(Ordering::Relaxed) >= 2);
    fe.shutdown();
}
