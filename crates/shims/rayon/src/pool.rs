//! The execution engine: a fixed-size thread pool plus the scoped
//! dispatch primitive ([`run_indexed`]) that parallel iterators drive.
//!
//! Dispatch uses **atomic chunk claiming**, not a per-task queue: a
//! parallel call publishes one *runner* job per worker, and every runner
//! claims piece indices from a shared atomic counter until they run out.
//! The mutex-protected FIFO is touched once per runner (≈ once per
//! worker) instead of once per piece, so many small or skewed pieces —
//! e.g. fused aggregation tasks whose cost follows the per-row degree —
//! never convoy on the queue lock; the only shared write on the claim
//! path is one `fetch_add`.
//!
//! **Pieces run in the dispatcher's floating-point mode.** MXCSR (the
//! x86 rounding and flush-to-zero state) is per thread, and a piece may
//! run on the dispatching thread or on any worker. So every runner job
//! loads the dispatcher's MXCSR before it claims pieces and restores the
//! worker's own value afterwards, writing the register only when the two
//! differ. A training step that flushes subnormals (`gsgcn_tensor::fpmode`)
//! then flushes on every piece, an IEEE caller gets IEEE on every piece,
//! and results stay independent of which thread claimed what.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    size: usize,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn push(&self, job: Job) {
        self.queue.lock().unwrap().push_back(job);
        self.available.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().unwrap().pop_front()
    }
}

/// A pool of worker threads; `install` scopes parallel calls to it.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Error type returned by [`ThreadPoolBuilder::build`] (never produced in
/// practice by this shim; it exists for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(String);

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error: {}", self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// Worker count; `0` means the number of available cores.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let size = if self.num_threads == 0 {
            default_parallelism()
        } else {
            self.num_threads
        };
        Ok(ThreadPool::with_size(size))
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl ThreadPool {
    fn with_size(size: usize) -> ThreadPool {
        let shared = Arc::new(Shared {
            size,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        // `size - 1` workers: the installing/calling thread acts as the
        // remaining participant (it helps drain the queue while waiting).
        let workers = (1..size)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Current pool size (worker threads + the installing thread).
    pub fn current_num_threads(&self) -> usize {
        self.shared.size
    }

    /// Run `f` with this pool as the target of all parallel calls.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        CURRENT.with(|cur| {
            let prev = cur.replace(Some(Arc::clone(&self.shared)));
            let out = f();
            cur.replace(prev);
            out
        })
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker that checked it
        // and is about to `wait` holds the lock, so the store (and the
        // notify after it) cannot fall between its check and its wait.
        {
            let _queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    IN_WORKER.with(|w| w.set(true));
    CURRENT.with(|cur| cur.replace(Some(Arc::clone(&shared))));
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Arc<Shared>>> =
        const { std::cell::RefCell::new(None) };
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn global() -> &'static Arc<Shared> {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    &GLOBAL
        .get_or_init(|| ThreadPool::with_size(default_parallelism()))
        .shared
}

fn current_shared() -> Arc<Shared> {
    CURRENT.with(|cur| match &*cur.borrow() {
        Some(s) => Arc::clone(s),
        None => Arc::clone(global()),
    })
}

/// Number of threads parallel calls on this thread will use.
pub fn current_num_threads() -> usize {
    CURRENT.with(|cur| match &*cur.borrow() {
        Some(s) => s.size,
        None => global().size,
    })
}

/// Completion latch shared between the dispatching thread and workers.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn record(&self, result: std::thread::Result<()>) {
        if let Err(payload) = result {
            self.panic.lock().unwrap().get_or_insert(payload);
        }
        let mut rem = self.remaining.lock().unwrap();
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut rem = self.remaining.lock().unwrap();
        while *rem > 0 {
            rem = self.done.wait(rem).unwrap();
        }
    }
}

/// Shared state of one indexed parallel call: the claim counter, the
/// poison flag that stops claiming after a panic, and the payload slot.
struct ClaimState {
    next: AtomicUsize,
    n: usize,
    poisoned: AtomicBool,
    latch: Latch,
}

impl ClaimState {
    /// Claim-and-run loop executed by every runner (workers and the
    /// dispatching thread alike): one `fetch_add` per piece, no lock.
    fn run_claims(&self, task: &(dyn Fn(usize) + Sync)) {
        loop {
            if self.poisoned.load(Ordering::Relaxed) {
                return;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)));
            if let Err(payload) = result {
                self.poisoned.store(true, Ordering::Relaxed);
                self.latch.panic.lock().unwrap().get_or_insert(payload);
            }
        }
    }
}

/// Run `task(0..n)` across the current pool by atomic chunk claiming, in
/// parallel when a pool with spare workers is current, inline otherwise.
/// Returns after every claimed index has finished; re-throws the first
/// panic observed. After a panic the batch is poisoned: indices not yet
/// claimed are skipped (in-flight ones still complete), so side effects
/// of a panicked batch may be partial — callers must not rely on the
/// remaining pieces having run, and none of this workspace's consumers
/// observe results of a panicked parallel call.
///
/// The *values* computed per index never depend on which thread runs it —
/// callers encode any order-sensitivity in the index space itself, and
/// every piece runs in the dispatching thread's MXCSR (see the module
/// docs).
pub(crate) fn run_indexed<'scope, F>(n: usize, task: F)
where
    F: Fn(usize) + Sync + 'scope,
{
    let inline = IN_WORKER.with(|w| w.get());
    let shared = current_shared();
    if inline || shared.size <= 1 || n <= 1 {
        for i in 0..n {
            task(i);
        }
        return;
    }

    let runners = (shared.size - 1).min(n);
    let state = Arc::new(ClaimState {
        next: AtomicUsize::new(0),
        n,
        poisoned: AtomicBool::new(false),
        latch: Latch {
            remaining: Mutex::new(runners),
            done: Condvar::new(),
            panic: Mutex::new(None),
        },
    });

    {
        // One runner job per worker; each drains the claim counter in
        // the dispatcher's floating-point mode.
        let task_ref: &(dyn Fn(usize) + Sync) = &task;
        let mode = mxcsr();
        for _ in 0..runners {
            let state = Arc::clone(&state);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let own = mxcsr();
                let switch = (own ^ mode) & !MXCSR_FLAGS != 0;
                if switch {
                    set_mxcsr(mode);
                }
                state.run_claims(task_ref);
                if switch {
                    set_mxcsr(own);
                }
                state.latch.record(Ok(()));
            });
            // SAFETY: `run_indexed` does not return until the latch counts
            // every runner as finished, so the borrowed environment
            // outlives all jobs.
            let job: Job = unsafe { std::mem::transmute(job) };
            shared.push(job);
        }
    }

    // The dispatching thread claims pieces too, then helps drain the
    // queue (its runner jobs, or unrelated work) while waiting so small
    // pools still make progress.
    IN_WORKER.with(|w| {
        let prev = w.replace(true);
        state.run_claims(&task);
        while let Some(job) = shared.try_pop() {
            job();
        }
        w.set(prev);
    });
    state.latch.wait();

    let payload = state.latch.panic.lock().unwrap().take();
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
}

/// The six sticky exception-flag bits of MXCSR. Arithmetic sets them and
/// nothing here reads them, so they do not count as a mode difference.
const MXCSR_FLAGS: u32 = 0x3F;

// `std::arch`'s `_mm_getcsr`/`_mm_setcsr` are deprecated, and the shim
// cannot depend on `gsgcn_tensor::fpmode`, so it carries its own two
// instructions.
#[cfg(target_arch = "x86_64")]
fn mxcsr() -> u32 {
    let mut v = 0u32;
    // SAFETY: `stmxcsr` stores the 32-bit MXCSR into `v`, a live,
    // aligned local; SSE is part of the x86_64 baseline.
    unsafe {
        std::arch::asm!("stmxcsr [{}]", in(reg) &mut v, options(nostack, preserves_flags));
    }
    v
}

#[cfg(target_arch = "x86_64")]
fn set_mxcsr(v: u32) {
    // SAFETY: `ldmxcsr` reads 32 bits from `v`, a live local. The value
    // was read by `stmxcsr` on a thread of this process, so no reserved
    // bit is set and it cannot fault. It changes only this thread's
    // rounding and flush state.
    unsafe {
        std::arch::asm!("ldmxcsr [{}]", in(reg) &v, options(nostack, preserves_flags, readonly));
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn mxcsr() -> u32 {
    0
}

#[cfg(not(target_arch = "x86_64"))]
fn set_mxcsr(_: u32) {}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::prelude::*;
    use std::hint::black_box;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    const HALF_MIN: f32 = f32::MIN_POSITIVE / 2.0;

    /// Multiplies one subnormal by one per piece (64 elements, one piece
    /// each) and reports which thread ran it. Pieces 0 and 1 meet at a
    /// barrier, so the thread that claims one cannot claim the other:
    /// the dispatcher and the worker both run pieces.
    fn products(pool: &ThreadPool) -> Vec<(ThreadId, u32)> {
        let xs = vec![HALF_MIN; 64];
        let meet = Barrier::new(2);
        pool.install(|| {
            xs.par_iter()
                .enumerate()
                .map(|(i, &x)| {
                    if i < 2 {
                        meet.wait();
                    }
                    let bits = (black_box(x) * black_box(1.0f32)).to_bits();
                    (std::thread::current().id(), bits)
                })
                .collect()
        })
    }

    fn threads(run: &[(ThreadId, u32)]) -> usize {
        let ids: std::collections::HashSet<_> = run.iter().map(|&(id, _)| id).collect();
        ids.len()
    }

    /// The single worker's own MXCSR, read outside any parallel call.
    fn worker_mxcsr(pool: &ThreadPool) -> u32 {
        let (tx, rx) = std::sync::mpsc::channel();
        pool.shared
            .push(Box::new(move || tx.send(mxcsr()).unwrap()));
        rx.recv().unwrap()
    }

    #[test]
    fn pieces_run_in_the_dispatchers_fp_mode() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let ieee = mxcsr();
        set_mxcsr(ieee | 0x8040); // FTZ | DAZ on the dispatcher only
        let flushed = products(&pool);
        set_mxcsr(ieee);
        assert_eq!(threads(&flushed), 2);
        assert!(
            flushed.iter().all(|&(_, bits)| bits == 0),
            "every piece flushes under a flushing dispatcher"
        );

        assert_eq!(
            (worker_mxcsr(&pool) ^ ieee) & !MXCSR_FLAGS,
            0,
            "the worker restored its own mode"
        );
        let after = products(&pool);
        assert_eq!(threads(&after), 2);
        assert!(
            after.iter().all(|&(_, bits)| bits == HALF_MIN.to_bits()),
            "every piece runs IEEE under an IEEE dispatcher"
        );
    }
}
