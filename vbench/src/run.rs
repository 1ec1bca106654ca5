//! The timed path: encoded bytes → `Program::from_bytes` → verdict,
//! in a closed loop, with every verdict judged against its known answer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ebpf::Program;
use verifier::{Analysis, VerificationSession, VerifierError};

use crate::calib;
use crate::gen::{Case, Family};
use crate::rng::Rng;
use crate::stats::{median_f64, quantile};
use crate::trace::Spans;

/// What one verification call said about one program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Accepted.
    Accept,
    /// Rejected for a fault in the program.
    Reject,
    /// No verdict: the bytes did not decode, the analysis panicked
    /// (`InternalFault`, or a panic that escaped), or it ran out of time.
    Fault,
}

impl Verdict {
    /// The verdict of one `run` result.
    #[must_use]
    pub fn of(result: &Result<Analysis, VerifierError>) -> Verdict {
        match result {
            Ok(_) => Verdict::Accept,
            Err(VerifierError::InternalFault { .. } | VerifierError::DeadlineExceeded { .. }) => {
                Verdict::Fault
            }
            Err(_) => Verdict::Reject,
        }
    }
}

/// Verdicts judged against known answers, per distinct program.
#[derive(Clone, Debug)]
pub struct Tally {
    /// The first verdict seen for each corpus program (`None` when the
    /// program was never drawn).
    first: Vec<Option<Verdict>>,
    families: Vec<Family>,
    /// Verdicts requested, counting repeats.
    pub verdicts: u64,
    /// Calls that produced no verdict, counting repeats.
    pub faults: u64,
    /// A program got two different verdicts.
    pub inconsistent: bool,
}

impl Tally {
    /// An empty tally over `cases`.
    #[must_use]
    pub fn new(cases: &[Case]) -> Tally {
        Tally {
            first: vec![None; cases.len()],
            families: cases.iter().map(|c| c.family).collect(),
            verdicts: 0,
            faults: 0,
            inconsistent: false,
        }
    }

    /// Records the verdict on program `id`.
    pub fn record(&mut self, id: usize, verdict: Verdict) {
        self.verdicts += 1;
        if verdict == Verdict::Fault {
            self.faults += 1;
        }
        match self.first[id] {
            None => self.first[id] = Some(verdict),
            Some(v) if v != verdict => self.inconsistent = true,
            Some(_) => {}
        }
    }

    fn count(&self, f: impl Fn(Family, Verdict) -> bool) -> u64 {
        self.first
            .iter()
            .zip(&self.families)
            .filter(|(v, fam)| v.is_some_and(|v| f(**fam, v)))
            .count() as u64
    }

    /// Distinct programs verified at least once.
    #[must_use]
    pub fn programs(&self) -> u64 {
        self.count(|_, _| true)
    }

    /// Known-unsafe programs that were accepted.
    #[must_use]
    pub fn unsound_accepts(&self) -> u64 {
        self.count(|fam, v| !fam.is_safe() && v == Verdict::Accept)
    }

    /// Accepted programs whose witness faults in the VM: accepted
    /// memory-unsafe programs, a broken safety guarantee (the
    /// `NonTerminating` accepts are the separate, open termination
    /// defect).
    #[must_use]
    pub fn memory_unsafe_accepts(&self) -> u64 {
        self.count(|fam, v| !fam.is_safe() && fam != Family::NonTerminating && v == Verdict::Accept)
    }

    /// Known-safe programs that were rejected.
    #[must_use]
    pub fn false_rejects(&self) -> u64 {
        self.count(|fam, v| fam.is_safe() && v == Verdict::Reject)
    }

    /// Distinct programs that got no verdict.
    #[must_use]
    pub fn faulted_programs(&self) -> u64 {
        self.count(|_, v| v == Verdict::Fault)
    }

    /// (unsound accepts + false rejects + faulted programs) ÷ programs.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        let bad = self.unsound_accepts() + self.false_rejects() + self.faulted_programs();
        bad as f64 / self.programs().max(1) as f64
    }

    /// The first verdict of every program, in corpus order.
    #[must_use]
    pub fn verdict_vector(&self) -> &[Option<Verdict>] {
        &self.first
    }
}

/// One slice of calls.
#[derive(Debug)]
pub struct Slice {
    /// Duration of every call, in nanoseconds.
    pub latencies_ns: Vec<f32>,
    /// Verdicts the slice completed.
    pub verdicts: u64,
    /// Wall time of the slice.
    pub elapsed: Duration,
}

/// The caller of a workload: one closed-loop caller that verifies
/// program after program in corpus order (and round again), or one that
/// decodes a fresh draw of `batch` programs per call and verifies them
/// with one `run_batch(programs, jobs)`. A draw is `batch` consecutive
/// corpus programs from a random start, so every batch holds the same
/// mix of families (their pattern repeats every 64 programs) while its
/// programs change from call to call. The caller keeps its place between
/// slices, and judges every verdict in [`Runner::tally`].
#[derive(Debug)]
pub struct Runner<'a> {
    session: &'a VerificationSession,
    cases: &'a [Case],
    batch: Option<usize>,
    jobs: usize,
    rng: Rng,
    cursor: usize,
    /// Every verdict so far, judged.
    pub tally: Tally,
}

impl<'a> Runner<'a> {
    /// A caller of `session` on `cases`; batch draws come from `seed`.
    #[must_use]
    pub fn new(
        session: &'a VerificationSession,
        cases: &'a [Case],
        batch: Option<usize>,
        jobs: usize,
        seed: u64,
    ) -> Runner<'a> {
        Runner {
            session,
            cases,
            batch,
            jobs,
            rng: Rng::new(seed),
            cursor: 0,
            tally: Tally::new(cases),
        }
    }

    /// Makes calls until `budget` has passed. With `spans`, each call
    /// also records a `call` span with its `decode` and `run` (or
    /// `run_batch`) children.
    pub fn slice(&mut self, budget: Duration, mut spans: Option<&mut Spans>) -> Slice {
        let mut latencies_ns = Vec::new();
        let before = self.tally.verdicts;
        let start = Instant::now();
        while start.elapsed() < budget {
            let ids: Vec<usize> = match self.batch {
                None => {
                    let id = self.cursor;
                    self.cursor = (self.cursor + 1) % self.cases.len();
                    vec![id]
                }
                Some(n) => {
                    let len = self.cases.len();
                    let start = self.rng.below(len as u64) as usize;
                    (start..start + n).map(|id| id % len).collect()
                }
            };
            let t0 = Instant::now();
            let verdicts = self.call(&ids, t0, spans.as_deref_mut());
            latencies_ns.push(t0.elapsed().as_nanos() as f32);
            for (&id, &v) in ids.iter().zip(&verdicts) {
                self.tally.record(id, v);
            }
        }
        Slice {
            latencies_ns,
            verdicts: self.tally.verdicts - before,
            elapsed: start.elapsed(),
        }
    }

    /// One measured call, started at `t0`: decode the programs' bytes
    /// and verify them. A panic that escapes the session makes every
    /// verdict a fault. With `spans`, records a `call` span with its
    /// `decode` and `run` (or `run_batch`) children.
    fn call(&self, ids: &[usize], t0: Instant, mut spans: Option<&mut Spans>) -> Vec<Verdict> {
        let call = spans
            .as_deref_mut()
            .map(|s| s.open("call", None, ids[0], t0));
        let verdicts = catch_unwind(AssertUnwindSafe(|| {
            let progs: Option<Vec<Program>> = ids
                .iter()
                .map(|&id| Program::from_bytes(&self.cases[id].bytes).ok())
                .collect();
            let t1 = Instant::now();
            if let Some(s) = spans.as_deref_mut() {
                s.record("decode", call, ids[0], t0, t1);
            }
            let verdicts = match (progs, self.batch) {
                (None, _) => vec![Verdict::Fault; ids.len()],
                (Some(progs), Some(_)) => self
                    .session
                    .run_batch(&progs, self.jobs)
                    .results
                    .iter()
                    .map(Verdict::of)
                    .collect(),
                (Some(progs), None) => progs
                    .iter()
                    .map(|p| Verdict::of(&self.session.run(p)))
                    .collect(),
            };
            if let Some(s) = spans.as_deref_mut() {
                let name = if self.batch.is_some() {
                    "run_batch"
                } else {
                    "run"
                };
                s.record(name, call, ids[0], t1, Instant::now());
            }
            verdicts
        }))
        .unwrap_or_else(|_| vec![Verdict::Fault; ids.len()]);
        if let (Some(s), Some(call)) = (spans, call) {
            s.close(call, Instant::now());
        }
        verdicts
    }
}

/// Length of one slice of calls between two calibrations.
pub const SLICE: Duration = Duration::from_millis(200);

/// Length of one calibration.
pub const CALIBRATION: Duration = Duration::from_millis(50);

/// What a calibrated run measured. Times are in reference-machine time
/// ([`crate::calib`]): each slice's total time is multiplied by the
/// machine's overall speed around it, and each call's latency by the
/// speed that fits its quantile.
#[derive(Debug)]
pub struct Measured {
    /// Duration of every call as measured, in nanoseconds, slice after
    /// slice (one buffer, so that the benchmark's own memory adds little
    /// to `peak_rss_mb`).
    latencies_ns: Vec<f32>,
    /// For each slice: where its calls end in `latencies_ns`, and its
    /// overall and typical speeds.
    slices: Vec<(usize, calib::Speed)>,
    /// Verdicts completed.
    pub verdicts: u64,
    /// Time the slices took, in reference-machine seconds.
    pub ref_seconds: f64,
    /// Time the slices took, as measured.
    pub wall_seconds: f64,
}

impl Measured {
    /// Verdicts per reference-machine second.
    #[must_use]
    pub fn programs_per_s(&self) -> f64 {
        self.verdicts as f64 / self.ref_seconds
    }

    /// Verdicts per second as measured.
    #[must_use]
    pub fn raw_programs_per_s(&self) -> f64 {
        self.verdicts as f64 / self.wall_seconds
    }

    /// Calls made.
    #[must_use]
    pub fn calls(&self) -> usize {
        self.latencies_ns.len()
    }

    /// The overall speed of every slice.
    #[must_use]
    pub fn speeds(&self) -> Vec<f64> {
        self.slices.iter().map(|(_, s)| s.overall).collect()
    }

    /// Every call's latency scaled by its slice's `speed`.
    fn scaled(&self, speed: impl Fn(calib::Speed) -> f64) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.latencies_ns.len());
        let mut start = 0;
        for &(end, s) in &self.slices {
            let k = speed(s);
            out.extend(
                self.latencies_ns[start..end]
                    .iter()
                    .map(|&ns| (f64::from(ns) * k) as f32),
            );
            start = end;
        }
        out
    }

    /// The median call latency in reference-machine milliseconds, at
    /// the typical speed: most calls no stall hits.
    #[must_use]
    pub fn p50_ms(&self) -> f64 {
        f64::from(quantile(&mut self.scaled(|s| s.typical), 0.5)) / 1e6
    }

    /// The 99th-percentile call latency in reference-machine
    /// milliseconds, at the overall speed: the tail is where stalls land.
    #[must_use]
    pub fn p99_ms(&self) -> f64 {
        f64::from(quantile(&mut self.scaled(|s| s.overall), 0.99)) / 1e6
    }
}

/// Calibrations on each side of a slice that its speed is the median
/// of: the speed drifts over seconds, while one 50-ms calibration
/// jitters by several percent.
const SPEED_WINDOW: usize = 3;

/// Alternates calibrations and slices of calls until `budget` has
/// passed, starting and ending with a calibration. Each slice is scaled
/// by the median speeds of the calibrations within [`SPEED_WINDOW`] of
/// it.
pub fn measure(runner: &mut Runner<'_>, budget: Duration) -> Measured {
    let threads = if runner.batch.is_some() {
        runner.jobs
    } else {
        1
    };
    let start = Instant::now();
    let mut calibrations = vec![calib::speed(threads, CALIBRATION)];
    let mut latencies_ns = Vec::new();
    let mut slices = Vec::new();
    while slices.is_empty() || start.elapsed() < budget {
        let slice = runner.slice(SLICE, None);
        latencies_ns.extend_from_slice(&slice.latencies_ns);
        slices.push((latencies_ns.len(), slice.verdicts, slice.elapsed));
        calibrations.push(calib::speed(threads, CALIBRATION));
    }
    let mut out = Measured {
        latencies_ns,
        slices: Vec::new(),
        verdicts: 0,
        ref_seconds: 0.0,
        wall_seconds: 0.0,
    };
    for (i, &(end, verdicts, elapsed)) in slices.iter().enumerate() {
        // Slice `i` lies between calibrations `i` and `i + 1`.
        let near = &calibrations
            [(i + 1).saturating_sub(SPEED_WINDOW)..=(i + SPEED_WINDOW).min(calibrations.len() - 1)];
        let speed = calib::Speed {
            overall: median_f64(&mut near.iter().map(|s| s.overall).collect::<Vec<_>>()),
            typical: median_f64(&mut near.iter().map(|s| s.typical).collect::<Vec<_>>()),
        };
        out.verdicts += verdicts;
        out.ref_seconds += elapsed.as_secs_f64() * speed.overall;
        out.wall_seconds += elapsed.as_secs_f64();
        out.slices.push((end, speed));
    }
    out
}
