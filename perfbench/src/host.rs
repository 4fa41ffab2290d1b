//! Host steal time. On a shared virtual machine the hypervisor can run
//! other guests on this machine's CPUs, and wall time then stretches with
//! no change in the program. `/proc/stat` counts that time as `steal`;
//! the gated time metrics remove it (the raw wall times stay in the
//! record).

use std::time::Instant;

/// Aggregate CPU ticks from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
pub struct Ticks {
    steal: u64,
    total: u64,
}

impl Ticks {
    /// `None` where `/proc/stat` is unavailable (no correction then).
    pub fn now() -> Option<Ticks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        Some(Ticks {
            steal: *ticks.get(7)?,
            total: ticks.iter().sum(),
        })
    }

    /// Share of all CPU ticks since `self` that were stolen.
    pub fn steal_share_since(self, earlier: Ticks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Steal share between two optional readings (0 when either is missing).
pub fn steal_share(start: Option<Ticks>, end: Option<Ticks>) -> f64 {
    match (start, end) {
        (Some(s), Some(e)) => e.steal_share_since(s),
        _ => 0.0,
    }
}

/// A stopwatch that also reports the interval with the stolen share of
/// the CPUs' time removed. The removal assumes the work kept every CPU
/// busy, as the training loop's thread pool does.
pub struct Stopwatch {
    t0: Instant,
    ticks: Option<Ticks>,
}

/// `(wall seconds, wall seconds minus the stolen share)`.
pub type Timed = (f64, f64);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            ticks: Ticks::now(),
            t0: Instant::now(),
        }
    }

    pub fn stop(&self) -> Timed {
        let wall = self.t0.elapsed().as_secs_f64();
        let share = steal_share(self.ticks, Ticks::now());
        (wall, wall * (1.0 - share))
    }
}
