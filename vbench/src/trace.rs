//! The traced run: spans around the calls into each layer, counts read
//! from `AnalysisStats` / `BatchStats`, and unit costs timed by replaying
//! recorded states through each layer's public functions. All of it is
//! done from the benchmark's own files; the verifier is not changed.
//!
//! The per-layer metrics and the end-to-end metric each should move:
//!
//! | metrics | moves | shows on |
//! |---|---|---|
//! | `ebpf.decode_us` | `latency_p50_ms` | `alu_dense` |
//! | `cfg.build_us`, `passes.*` | `latency_p50_ms` | `alu_dense` (fixed cost per program) |
//! | `tnum.*`, `scalar.*` | `latency_p50_ms` | `alu_dense` |
//! | `transfer.step_ns`, `explore.visits` | `latency_p50_ms`, `programs_per_s` | `alu_dense`, `loop_batch` |
//! | `memo.*` | `programs_per_s` | `loop_batch` (benefit), `alu_dense` (cost) |
//! | `state.*` | `programs_per_s`, `latency_p99_ms`, `peak_rss_mb` | `loop_batch`, `deep_paths` |
//! | `visited.*` | `latency_p50_ms`, `latency_p99_ms` | `deep_paths` |
//! | `explore.ms`, `session.governance_us`, `parshard.*` | `latency_p50_ms` | `deep_paths` |
//! | `batch.*` | `programs_per_s` | `loop_batch` |
//! | `model.residual_frac` | — | all: a large residual means a counter is missing |
//!
//! Counts (`explore.visits`, `memo.hits`, `visited.subset_checks`, …)
//! come from a census: one pass of a fresh session over the first
//! [`CENSUS`] programs, in corpus order, on one thread. They are means
//! per accepted program (a rejected run returns no statistics), and they
//! repeat exactly for a seed.
//!
//! `model.residual_frac` is `1 − Σ(count × unit cost) ÷ Σ explore time`
//! over the census programs that were accepted, with the model
//! `visits × transfer.step_ns + subset_checks × state.subset_ns +
//! (memo hits + misses) × memo.lookup_ns + memo misses × memo.insert_ns +
//! states allocated × state.materialize_ns`. `transfer.step_ns` is timed
//! without the memo, so memo hits make the model overshoot: a negative
//! residual is possible.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ebpf::{AluOp, Program, Reg, Width};
use verifier::transfer::Transfer;
use verifier::{
    value_fingerprint, AbsState, AnalysisStats, AnalyzerOptions, Cfg, MemoEffect, MemoKey,
    ProgramPasses, RegValue, Scalar, Strategy, TransferMemo, VerificationSession, VisitedTable,
};

use crate::gen::Case;
use crate::run::Runner;
use crate::stats::{mean, median_f64};
use crate::workloads::Workload;

/// Programs in the census (or the whole corpus, when smaller).
pub const CENSUS: usize = 256;

/// Recorded states and harvested scalars the unit costs replay.
const MAX_SAMPLES: usize = 4096;

/// Repetitions of each unit-cost timing; the median is reported.
const UNIT_REPS: usize = 7;

/// One span: a timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer call (`call`, `decode`, `run`, `cfg`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Corpus index of the program the span worked on.
    pub prog: usize,
}

/// In-memory span recorder, written out when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span, returning its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        prog: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            prog,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end comes later ([`Spans::close`]).
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        prog: usize,
        start: Instant,
    ) -> usize {
        self.record(name, parent, prog, start, start)
    }

    /// Sets the end of an opened span.
    pub fn close(&mut self, span: usize, end: Instant) {
        self.spans[span].end_ns = self.ns(end);
    }

    /// Times `f` as a span.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        prog: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, parent, prog, t0, t1);
        (out, (t1 - t0).as_nanos() as f64)
    }
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The census: the first [`CENSUS`] programs through a fresh session,
/// once each, in order.
#[derive(Debug)]
pub struct Census {
    /// The decoded programs.
    pub progs: Vec<Program>,
    /// Each program's statistics, `None` when it was rejected.
    pub stats: Vec<Option<AnalysisStats>>,
    /// Recorded `(program, pc, state before pc)` triples.
    pub states: Vec<(usize, usize, AbsState)>,
}

impl Census {
    /// Runs the census of `cases` under `workload`'s session.
    #[must_use]
    pub fn take(workload: Workload, cases: &[Case]) -> Census {
        let session = workload.session();
        let progs: Vec<Program> = cases
            .iter()
            .take(CENSUS)
            .map(|c| Program::from_bytes(&c.bytes).expect("generated programs decode"))
            .collect();
        let mut stats = Vec::new();
        let mut states = Vec::new();
        for (i, prog) in progs.iter().enumerate() {
            match session.run(prog) {
                Ok(analysis) => {
                    stats.push(Some(analysis.stats()));
                    states
                        .extend((0..prog.len()).filter_map(|pc| {
                            analysis.state_before(pc).map(|s| (i, pc, s.clone()))
                        }));
                }
                Err(_) => stats.push(None),
            }
        }
        // Keep an evenly spread, deterministic subset.
        let step = states.len().div_ceil(MAX_SAMPLES).max(1);
        let states = states.into_iter().step_by(step).collect();
        Census {
            progs,
            stats,
            states,
        }
    }

    /// The sum of one statistic over accepted programs, and how many
    /// there were.
    fn total(&self, f: impl Fn(&AnalysisStats) -> u64) -> (f64, f64) {
        let accepted: Vec<&AnalysisStats> = self.stats.iter().flatten().collect();
        (
            accepted.iter().map(|s| f(s) as f64).sum(),
            accepted.len().max(1) as f64,
        )
    }

    /// The mean of one statistic per accepted program.
    fn per_prog(&self, f: impl Fn(&AnalysisStats) -> u64) -> f64 {
        let (sum, n) = self.total(f);
        sum / n
    }

    /// Scalars harvested from the recorded states: register values and
    /// pointer offsets.
    fn scalars(&self) -> Vec<Scalar> {
        let mut out = Vec::new();
        for (_, _, state) in &self.states {
            for reg in Reg::ALL {
                match state.reg(reg) {
                    RegValue::Scalar(s)
                    | RegValue::StackPtr { offset: s }
                    | RegValue::CtxPtr { offset: s }
                    | RegValue::MapValuePtr { offset: s, .. } => out.push(s),
                    RegValue::Uninit | RegValue::MapHandle { .. } => {}
                }
            }
        }
        let step = out.len().div_ceil(MAX_SAMPLES).max(1);
        out.into_iter().step_by(step).collect()
    }
}

/// Mean nanoseconds per operation of `f` over `n` operations, the median
/// of [`UNIT_REPS`] timed repetitions (0 when there is nothing to time).
fn per_op(n: usize, mut f: impl FnMut()) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let mut reps: Vec<f64> = (0..UNIT_REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median_f64(&mut reps)
}

/// Unit costs of the domain, transfer, memo, state and visited layers,
/// replayed on the census's recorded states.
fn unit_costs(census: &Census) -> Vec<Metric> {
    let scalars = census.scalars();
    let n = scalars.len();
    let pair = |i: usize| (scalars[i], scalars[(i * 7 + 1) % n]);
    let pairs: Vec<(Scalar, Scalar)> = (0..n).map(pair).collect();
    let ops = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Lsh,
        AluOp::Rsh,
    ];
    let tnum_op = |f: fn(tnum::Tnum, tnum::Tnum) -> tnum::Tnum| {
        per_op(n, || {
            for &(a, b) in &pairs {
                black_box(f(black_box(a.tnum()), black_box(b.tnum())));
            }
        })
    };
    let add_ns = tnum_op(tnum::Tnum::add);
    let sub_ns = tnum_op(tnum::Tnum::sub);
    let mul_ns = tnum_op(tnum::Tnum::mul);
    let alu_ns = per_op(n, || {
        for (i, &(a, b)) in pairs.iter().enumerate() {
            black_box(black_box(a).alu64(ops[i % ops.len()], black_box(b)));
        }
    });
    let raws: Vec<Scalar> = pairs
        .iter()
        .map(|&(a, b)| Scalar::raw(a.tnum().add(b.tnum()), a.bounds().add(b.bounds())))
        .collect();
    let normalize_ns = per_op(n, || {
        for &r in &raws {
            black_box(black_box(r).normalize());
        }
    });

    // The memo, keyed exactly as the transfer layer keys ALU results.
    let fp = |s: Scalar| value_fingerprint(RegValue::Scalar(s));
    let entries: Vec<(MemoKey, Scalar, Scalar, MemoEffect)> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| {
            let op = ops[i % ops.len()];
            (
                MemoKey::alu(Width::W64, op, fp(a), fp(b)),
                a,
                b,
                MemoEffect::Alu(a.alu64(op, b)),
            )
        })
        .collect();
    let mut insert_reps = Vec::new();
    let mut lookup_reps = Vec::new();
    for _ in 0..UNIT_REPS {
        let memo = TransferMemo::new();
        let t0 = Instant::now();
        for &(key, a, b, effect) in &entries {
            memo.insert(key, a, b, effect);
        }
        let t1 = Instant::now();
        for &(key, a, b, _) in &entries {
            black_box(memo.lookup(key, a, b));
        }
        let t2 = Instant::now();
        insert_reps.push((t1 - t0).as_nanos() as f64 / n.max(1) as f64);
        lookup_reps.push((t2 - t1).as_nanos() as f64 / n.max(1) as f64);
    }

    // Transfer, state and visited-table operations on recorded states.
    let states = &census.states;
    let m = states.len();
    let options = AnalyzerOptions {
        memo_cache: None,
        ..AnalyzerOptions::default()
    };
    let transfer = Transfer::new(options);
    let step_ns = per_op(m, || {
        for (p, pc, state) in states {
            let _ = black_box(transfer.step(&census.progs[*p], state.clone(), *pc));
        }
    });
    let next = |i: usize| &states[(i + 1) % m].2;
    let union_ns = per_op(m, || {
        for (i, (_, _, s)) in states.iter().enumerate() {
            black_box(s.union(next(i)));
        }
    });
    let widen_ns = per_op(m, || {
        for (i, (_, _, s)) in states.iter().enumerate() {
            black_box(s.widen(next(i)));
        }
    });
    let subset_ns = per_op(m, || {
        for (i, (_, _, s)) in states.iter().enumerate() {
            black_box(s.is_subset_of(next(i)));
        }
    });
    let fingerprint_ns = per_op(m, || {
        for (_, _, s) in states {
            black_box(black_box(s).fingerprint());
        }
    });
    // One deep copy: a clone whose register file is then written.
    let materialize_ns = per_op(m, || {
        for (i, (_, _, s)) in states.iter().enumerate() {
            let mut copy = s.clone();
            copy.set_reg(
                Reg::R9,
                RegValue::Scalar(Scalar::constant((i as u64 + 1) << 40)),
            );
            black_box(copy);
        }
    });
    let mut insert_v = Vec::new();
    let mut probe_v = Vec::new();
    for _ in 0..UNIT_REPS {
        let mut tables: Vec<VisitedTable> = census
            .progs
            .iter()
            .map(|p| VisitedTable::with_cap(p.len(), 32))
            .collect();
        let t0 = Instant::now();
        for (p, pc, s) in states {
            tables[*p].insert(*pc, s.clone());
        }
        let t1 = Instant::now();
        for (p, pc, s) in states {
            black_box(tables[*p].is_covered(*pc, s));
        }
        let t2 = Instant::now();
        insert_v.push((t1 - t0).as_nanos() as f64 / m.max(1) as f64);
        probe_v.push((t2 - t1).as_nanos() as f64 / m.max(1) as f64);
    }

    vec![
        metric("tnum.add_ns", add_ns, "ns"),
        metric("tnum.sub_ns", sub_ns, "ns"),
        metric("tnum.mul_ns", mul_ns, "ns"),
        metric("scalar.alu_ns", alu_ns, "ns"),
        metric("scalar.normalize_ns", normalize_ns, "ns"),
        metric("transfer.step_ns", step_ns, "ns"),
        metric("memo.lookup_ns", median_f64(&mut lookup_reps), "ns"),
        metric("memo.insert_ns", median_f64(&mut insert_reps), "ns"),
        metric("state.union_ns", union_ns, "ns"),
        metric("state.widen_ns", widen_ns, "ns"),
        metric("state.subset_ns", subset_ns, "ns"),
        metric("state.fingerprint_ns", fingerprint_ns, "ns"),
        metric("state.materialize_ns", materialize_ns, "ns"),
        metric("visited.probe_ns", median_f64(&mut probe_v), "ns"),
        metric("visited.insert_ns", median_f64(&mut insert_v), "ns"),
    ]
}

/// Per-program layer times of the census programs: decode, CFG, passes,
/// `explore_with`, and what `run` adds to `explore_with`, each the median
/// over as many passes as fit in `budget` (at least one), in
/// nanoseconds.
struct LayerTimes {
    decode: Vec<f64>,
    cfg: Vec<f64>,
    passes: Vec<f64>,
    explore: Vec<f64>,
    governance: Vec<f64>,
}

fn layer_times(
    workload: Workload,
    cases: &[Case],
    census: &Census,
    budget: Duration,
    spans: &mut Spans,
) -> LayerTimes {
    let session = workload.session();
    // `run − explore_with` on a memo-less session, whose two calls on
    // one program do the same work in either order (with the memo, the
    // first call would warm it for the second).
    let bare = session.clone().with_options(AnalyzerOptions {
        memo_cache: None,
        ..session.options()
    });
    let strategy = workload.strategy().implementation();
    let n = census.progs.len();
    let mut samples: Vec<[Vec<f64>; 5]> = (0..n).map(|_| Default::default()).collect();
    let start = Instant::now();
    for pass in 0.. {
        for (i, sample) in samples.iter_mut().enumerate() {
            let t0 = Instant::now();
            let parent = spans.open("replay", None, i, t0);
            let (prog, decode) = spans.time("decode", Some(parent), i, || {
                Program::from_bytes(&cases[i].bytes).expect("generated programs decode")
            });
            let (cfg, cfg_ns) = spans.time("cfg", Some(parent), i, || Cfg::build(&prog));
            let (_, passes) = spans.time("passes", Some(parent), i, || {
                black_box(ProgramPasses::compute(&prog, &cfg))
            });
            let (_, explore) = spans.time("explore_with", Some(parent), i, || {
                black_box(session.explore_with(strategy, &prog).is_ok())
            });
            let mut governance = [0.0, 0.0];
            for k in [pass % 2, 1 - pass % 2] {
                governance[k] = if k == 0 {
                    spans
                        .time("bare_run", Some(parent), i, || {
                            black_box(bare.run(&prog).is_ok())
                        })
                        .1
                } else {
                    spans
                        .time("bare_explore_with", Some(parent), i, || {
                            black_box(bare.explore_with(strategy, &prog).is_ok())
                        })
                        .1
                };
            }
            spans.close(parent, Instant::now());
            let governance = governance[0] - governance[1];
            for (k, v) in [decode, cfg_ns, passes, explore, governance]
                .into_iter()
                .enumerate()
            {
                sample[k].push(v);
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let mut column =
        |k: usize| -> Vec<f64> { samples.iter_mut().map(|s| median_f64(&mut s[k])).collect() };
    LayerTimes {
        decode: column(0),
        cfg: column(1),
        passes: column(2),
        explore: column(3),
        governance: column(4),
    }
}

/// `PathSensitive` against `PathParallel` at `explore_jobs = jobs` on
/// the first census programs: the speed-up (Σ path time ÷ Σ parallel
/// time, each program the median of three runs) and steals per
/// accepted program.
fn parshard(census: &Census, jobs: usize) -> (f64, f64) {
    let path = VerificationSession::new().with_strategy(Strategy::PathSensitive);
    let options = AnalyzerOptions {
        explore_jobs: jobs as u32,
        ..AnalyzerOptions::default()
    };
    let parallel = VerificationSession::new()
        .with_options(options)
        .with_strategy(Strategy::PathParallel);
    let (mut path_ns, mut par_ns) = (0.0, 0.0);
    let mut steals = Vec::new();
    for prog in census.progs.iter().take(32) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            black_box(path.run(prog).is_ok());
            a.push(t0.elapsed().as_nanos() as f64);
            let t0 = Instant::now();
            let result = parallel.run(prog);
            b.push(t0.elapsed().as_nanos() as f64);
            if let Ok(analysis) = result {
                steals.push(analysis.stats().steals as f64);
            }
        }
        path_ns += median_f64(&mut a);
        par_ns += median_f64(&mut b);
    }
    (path_ns / par_ns.max(1.0), mean(&steals))
}

/// One 64-program batch of census programs: its makespan under
/// `run_batch(programs, jobs)`, the speed-up over verifying the same
/// programs one `run` at a time, and the worker imbalance (max ÷ mean
/// of `per_worker_visits`). Medians of five repetitions.
fn batch(workload: Workload, census: &Census, jobs: usize) -> (f64, f64, f64) {
    let progs: Vec<Program> = census.progs.iter().take(64).cloned().collect();
    let session = workload.session();
    let mut makespan = Vec::new();
    let mut sequential = Vec::new();
    let mut imbalance = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        for prog in &progs {
            black_box(session.run(prog).is_ok());
        }
        sequential.push(t0.elapsed().as_secs_f64() * 1e3);
        let report = session.run_batch(&progs, jobs);
        makespan.push(report.stats.elapsed.as_secs_f64() * 1e3);
        let visits: Vec<f64> = report
            .stats
            .per_worker_visits
            .iter()
            .map(|&v| v as f64)
            .collect();
        let max = visits.iter().copied().fold(0.0, f64::max);
        imbalance.push(max / mean(&visits).max(1.0));
    }
    let makespan = median_f64(&mut makespan);
    (
        makespan,
        median_f64(&mut sequential) / makespan.max(1e-9),
        median_f64(&mut imbalance),
    )
}

/// Untraced and traced slices of the workload's caller, interleaved,
/// for the tracing overhead: `1 − traced programs_per_s ÷ untraced`.
fn overhead(
    workload: Workload,
    cases: &[Case],
    budget: Duration,
    jobs: usize,
    seed: u64,
    spans: &mut Spans,
) -> f64 {
    let session = workload.session();
    let mut runner = Runner::new(&session, cases, workload.batch(), jobs, seed);
    let slice = Duration::from_millis(100);
    let (mut plain, mut traced) = ((0u64, 0.0), (0u64, 0.0));
    let start = Instant::now();
    while start.elapsed() < budget {
        let p = runner.slice(slice, None);
        plain.0 += p.verdicts;
        plain.1 += p.elapsed.as_secs_f64();
        let t = runner.slice(slice, Some(spans));
        traced.0 += t.verdicts;
        traced.1 += t.elapsed.as_secs_f64();
    }
    let rate = |(n, s): (u64, f64)| n as f64 / s.max(1e-9);
    1.0 - rate(traced) / rate(plain)
}

/// The whole traced run of `workload` within about `seconds`: every
/// per-layer metric, plus the spans and census counts written to `out`.
///
/// # Errors
///
/// When the trace file cannot be written.
pub fn traced_run(
    workload: Workload,
    cases: &[Case],
    seconds: f64,
    jobs: usize,
    seed: u64,
    out: &std::path::Path,
) -> std::io::Result<Vec<Metric>> {
    let budget = Duration::from_secs_f64(seconds);
    let mut spans = Spans::new();
    let overhead_frac = overhead(workload, cases, budget.mul_f64(0.4), jobs, seed, &mut spans);
    let census = Census::take(workload, cases);
    let times = layer_times(workload, cases, &census, budget.mul_f64(0.2), &mut spans);
    let units = unit_costs(&census);
    let (speedup, steals) = parshard(&census, jobs);
    let (makespan, batch_speedup, imbalance) = batch(workload, &census, jobs);

    let unit = |name: &str| {
        units
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    // The cost model over accepted census programs.
    let mut model_ns = 0.0;
    let mut explore_ns = 0.0;
    for (i, s) in census.stats.iter().enumerate() {
        if let Some(s) = s {
            model_ns += s.visits as f64 * unit("transfer.step_ns")
                + s.subset_checks as f64 * unit("state.subset_ns")
                + (s.memo_hits + s.memo_misses) as f64 * unit("memo.lookup_ns")
                + s.memo_misses as f64 * unit("memo.insert_ns")
                + s.states_allocated as f64 * unit("state.materialize_ns");
            explore_ns += times.explore[i];
        }
    }
    let (hits, _) = census.total(|s| s.memo_hits);
    let (misses, _) = census.total(|s| s.memo_misses);
    let (pruned, _) = census.total(|s| s.states_pruned);
    let (checks, _) = census.total(|s| s.subset_checks);
    let us = |v: &[f64]| mean(v) / 1e3;

    let mut metrics = vec![
        metric("ebpf.decode_us", us(&times.decode), "us"),
        metric("cfg.build_us", us(&times.cfg), "us"),
        metric("passes.compute_us", us(&times.passes), "us"),
        metric(
            "passes.dead_components_cleared",
            census.per_prog(|s| s.dead_components_cleared),
            "count/prog",
        ),
        metric(
            "passes.live_masked_prunes",
            census.per_prog(|s| s.live_masked_prunes),
            "count/prog",
        ),
    ];
    metrics.extend(units);
    metrics.extend([
        metric(
            "explore.visits",
            census.per_prog(|s| s.visits),
            "count/prog",
        ),
        metric("memo.hits", census.per_prog(|s| s.memo_hits), "count/prog"),
        metric(
            "memo.misses",
            census.per_prog(|s| s.memo_misses),
            "count/prog",
        ),
        metric("memo.hit_rate", hits / (hits + misses).max(1.0), "ratio"),
        metric(
            "state.allocated",
            census.per_prog(|s| s.states_allocated),
            "count/prog",
        ),
        metric(
            "state.bytes_materialized",
            census.per_prog(|s| s.bytes_materialized),
            "bytes/prog",
        ),
        metric(
            "state.widenings",
            census.per_prog(|s| s.widenings_applied),
            "count/prog",
        ),
        metric(
            "visited.subset_checks",
            census.per_prog(|s| s.subset_checks),
            "count/prog",
        ),
        metric(
            "visited.states_pruned",
            census.per_prog(|s| s.states_pruned),
            "count/prog",
        ),
        metric(
            "visited.fingerprint_rejects",
            census.per_prog(|s| s.fingerprint_rejects),
            "count/prog",
        ),
        metric(
            "visited.evicted",
            census.per_prog(|s| s.visited_evicted),
            "count/prog",
        ),
        metric("visited.prune_ratio", pruned / checks.max(1.0), "ratio"),
        metric("explore.ms", mean(&times.explore) / 1e6, "ms"),
        metric("session.governance_us", us(&times.governance), "us"),
        metric("parshard.speedup", speedup, "ratio"),
        metric("parshard.steals", steals, "count/prog"),
        metric("batch.makespan_ms", makespan, "ms"),
        metric("batch.speedup", batch_speedup, "ratio"),
        metric("batch.imbalance", imbalance, "ratio"),
        metric(
            "model.residual_frac",
            1.0 - model_ns / explore_ns.max(1.0),
            "ratio",
        ),
        metric("trace.overhead_frac", overhead_frac, "ratio"),
    ]);
    write_trace(out, &spans, &census, &metrics)?;
    Ok(metrics)
}

/// Writes spans, census counts and the metrics as tab-separated rows.
fn write_trace(
    out: &std::path::Path,
    spans: &Spans,
    census: &Census,
    metrics: &[Metric],
) -> std::io::Result<()> {
    let mut text = String::from("# kind\tfields…\n");
    for m in metrics {
        let _ = writeln!(text, "metric\t{}\t{}\t{}", m.name, m.value, m.unit);
    }
    for (i, s) in census.stats.iter().enumerate() {
        match s {
            Some(s) => {
                let _ = writeln!(
                    text,
                    "count\t{i}\taccepted\tvisits={}\tsubset_checks={}\tstates_pruned={}\t\
                     memo_hits={}\tmemo_misses={}\tstates_allocated={}\twidenings={}",
                    s.visits,
                    s.subset_checks,
                    s.states_pruned,
                    s.memo_hits,
                    s.memo_misses,
                    s.states_allocated,
                    s.widenings_applied
                );
            }
            None => {
                let _ = writeln!(text, "count\t{i}\trejected");
            }
        }
    }
    let _ = writeln!(text, "# span\tid\tname\tstart_ns\tend_ns\tparent\tprog");
    for (id, s) in spans.spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "span\t{id}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.prog
        );
    }
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(out, text)
}
