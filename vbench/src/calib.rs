//! Machine-speed calibration: a fixed kernel of the benchmark's own,
//! timed between slices of verifier work, so that timings can be given
//! in reference-machine time.
//!
//! Shared sandboxes drift: on a 2-vCPU Xeon sandbox the same verifier
//! run measured anywhere from 15,000 to 26,000 `alu_dense` programs per
//! second over a few minutes, in level shifts lasting seconds to
//! minutes. The kernel below drifts with it (25 interleaved 2.5-second
//! chunks: coefficient of variation 10.5% for the verifier's rate, 9.0%
//! for the kernel's, 4.0% for their ratio), so scaling each slice's
//! time by the kernel's speed around that slice removes most of the
//! drift. The kernel is code of this package only (a sort and an ordered
//! map over a fixed input), so no change to the repository can move it:
//! a verifier that gets slower shows up in full.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel iterations per second on the reference machine (the sandbox
/// above, rounded). Timings are reported as they would read there.
pub const REFERENCE_RATE: f64 = 57_000.0;

/// One kernel iteration: always the same work.
fn kernel() {
    let mut x = 0x1234_5678_9abc_def1u64;
    let mut v: Vec<u64> = (0..512)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut m = BTreeMap::new();
    for (i, k) in v.iter().enumerate().step_by(4) {
        m.insert(*k & 0xffff, i);
    }
    black_box(&m);
}

/// The machine speed relative to the reference machine (above 1 on a
/// faster machine, or moment), measured two ways.
#[derive(Clone, Copy, Debug)]
pub struct Speed {
    /// Kernel iterations done ÷ time taken: slowed by every stall,
    /// including the host taking the core away. Scales totals (time per
    /// verdict).
    pub overall: f64,
    /// From the median time of one kernel iteration: what a short call
    /// that no stall hits runs at. Scales the latency of single calls,
    /// most of which no stall hits.
    pub typical: f64,
}

/// Runs the kernel on `threads` threads at once for about `budget` and
/// returns their mean speeds. A workload that keeps several cores busy
/// is calibrated on as many, so that a slow core shows.
#[must_use]
pub fn speed(threads: usize, budget: Duration) -> Speed {
    let rates: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(move || rates(budget)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("the calibration kernel does not panic"))
            .collect()
    });
    let n = rates.len() as f64 * REFERENCE_RATE;
    Speed {
        overall: rates.iter().map(|r| r.0).sum::<f64>() / n,
        typical: rates.iter().map(|r| r.1).sum::<f64>() / n,
    }
}

/// Kernel iterations per second on this thread over about `budget`:
/// overall, and from the median iteration.
fn rates(budget: Duration) -> (f64, f64) {
    let start = Instant::now();
    let mut each = Vec::new();
    while each.is_empty() || start.elapsed() < budget {
        let t0 = Instant::now();
        kernel();
        each.push(t0.elapsed().as_secs_f64());
    }
    let overall = each.len() as f64 / start.elapsed().as_secs_f64();
    (overall, 1.0 / crate::stats::median_f64(&mut each))
}
