//! Work-stealing **intra-program** path exploration — the parallel
//! sibling of [`PathSensitive`](crate::explore::PathSensitive).
//!
//! The sequential path explorer walks the branch tree depth-first: at
//! every conditional it pushes both successor states and explores the
//! taken arm first. Past a configurable nesting depth
//! ([`AnalyzerOptions::spawn_depth`]) the *fall-through* arm — the
//! subtree the DFS would walk last — is instead packaged as a stealable
//! **job** and pushed onto a per-worker deque
//! ([`domain::parallel::StealPool`]); idle workers steal the oldest
//! (largest) outstanding subtree. States cross the shard boundary as
//! the same dense `to_parts`/`from_parts` snapshots `verifier::batch`
//! ships finished analyses with, so `AbsState` stays `Rc`-backed and
//! allocation-cheap inside each worker. All workers prune against one
//! [`ConcurrentVisitedTable`], so a subtree explored on one worker
//! prunes re-convergent arrivals on every other
//! (`AnalysisStats::shared_prunes`).
//!
//! ## Determinism contract
//!
//! Verdicts, errors, and per-pc reported joins are **bit-identical** to
//! the sequential explorer at any job count; only visit/prune counters
//! may differ. Three mechanisms carry the contract:
//!
//! * **Structured merge.** Each job accumulates its per-pc report joins
//!   locally, and records its spawned children in order. The
//!   coordinator folds job accumulators in the job tree's pre-order
//!   with children visited in *reverse spawn order* — exactly the
//!   sequential DFS ordering of the same subtrees — so the global fold
//!   regroups, but never reorders, the sequential fold. `Scalar::union`
//!   is insensitive to such regrouping at the representation level:
//!   `flow_join` with a covered operand is the identity on the
//!   accumulator's representation by construction (it returns after its
//!   inclusion scan, before touching anything), and the
//!   `parallel_explore` fuzz lock enforces the rest across the whole
//!   options matrix.
//! * **Back edges never spawn.** Every lap of a cycle stays inside the
//!   job that entered it, so job-local loop summaries widen and
//!   stabilize exactly like the sequential head summaries, and the
//!   spawn tree stays acyclic.
//! * **Sequential rerun on any error.** Shared pruning can change
//!   *which* unsafe path is discovered first across workers, so the
//!   moment any job errors (including budget exhaustion) the parallel
//!   result is discarded wholesale and the sequential explorer's
//!   verdict is returned verbatim — rejections are reproduced
//!   bit-identically by construction. (Inclusion-monotonicity of the
//!   transfer checks guarantees a parallel run never *accepts* a
//!   program the sequential walk would reject: any pruned arrival is
//!   covered by a recorded state whose own walk errors no later.) The
//!   one caveat: a program within ε of `analysis_budget` may be
//!   accepted in parallel — shared prunes can save just enough visits —
//!   where the sequential walk exhausts; budgets are a resource policy,
//!   not a safety verdict, and the default budget leaves three orders
//!   of magnitude of headroom over every workload in the repo.
//!   *Governance* failures are the exception to the rerun: a contained
//!   job panic ([`VerifierError::InternalFault`]) or a blown deadline
//!   ([`VerifierError::DeadlineExceeded`]) is a fault of the analyzer
//!   run, not a verdict about the program, so it propagates to the
//!   session's [`DegradationPolicy`](crate::DegradationPolicy), which
//!   owns (and counts) the downgrade to the sequential explorer.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use domain::parallel::{default_threads, lock_recover, par_workers, StealPool};
use ebpf::Program;
use interval_domain::WidenThresholds;

use crate::analyzer::AnalyzerOptions;
use crate::cfg::Cfg;
use crate::error::VerifierError;
use crate::explore::{Exploration, ExplorationStrategy, PathSensitive};
use crate::fixpoint::{self, AnalysisStats};
use crate::ledger;
use crate::state::{AbsState, JoinCounters, SparseStack, WidenCtx, REGS};
use crate::transfer::Transfer;
use crate::value::RegValue;
use crate::visited::ConcurrentVisitedTable;

/// One stealable DFS subtree: the frontier state as a dense snapshot
/// plus the path-local trip counts and the branch nesting depth at the
/// subtree root. Everything is `Send` — the receiving worker rebuilds
/// the `AbsState` with one `from_parts`.
struct Job {
    id: usize,
    pc: usize,
    regs: [RegValue; REGS],
    chunks: SparseStack,
    trips: Vec<u32>,
    depth: u32,
}

/// What one job's local walk produced: the per-pc report accumulators
/// (as snapshots — they cross back to the coordinator) and the ids of
/// the jobs it spawned in spawn order. Its counters went to the
/// worker's thread-local ledger.
struct JobResult {
    id: usize,
    children: Vec<usize>,
    report: Vec<(usize, [RegValue; REGS], SparseStack)>,
    error: Option<VerifierError>,
}

/// Everything the workers share: the steal pool, the visited table, the
/// global visit budget, the first-error latch, and the job id counter.
struct SharedCtx<'a> {
    pool: StealPool<Job>,
    visited: ConcurrentVisitedTable,
    visits: AtomicU64,
    /// Exploration start, for the cooperative deadline check every job
    /// runs at its visit site.
    start: std::time::Instant,
    errored: AtomicBool,
    next_id: AtomicUsize,
    results: Mutex<Vec<JobResult>>,
    prog: &'a Program,
    options: &'a AnalyzerOptions,
    thresholds: WidenThresholds,
    /// Loop heads, checkpoints and `(from, to)` back edges: a
    /// fall-through successor reached over a back edge is never spawned,
    /// keeping every cycle inside one job.
    cfg: Cfg,
    passes: Option<crate::passes::ProgramPasses>,
}

/// The work-stealing path-parallel strategy. Reads
/// [`AnalyzerOptions::explore_jobs`] (0 = all available cores) and
/// [`AnalyzerOptions::spawn_depth`]; at one job the walk degenerates to
/// the sequential DFS order with a shared-table probe sequence, and at
/// any job count the reported analysis is bit-identical to
/// [`PathSensitive`] (see the module docs for the contract).
#[derive(Clone, Copy, Debug, Default)]
pub struct PathParallel;

impl ExplorationStrategy for PathParallel {
    fn name(&self) -> &'static str {
        "parshard"
    }

    fn explore(
        &self,
        prog: &Program,
        options: &AnalyzerOptions,
    ) -> Result<Exploration, VerifierError> {
        let jobs = match options.explore_jobs {
            0 => default_threads(),
            n => n as usize,
        };
        let cfg = Cfg::build(prog);
        let thresholds = fixpoint::harvest_thresholds(prog, &cfg, options);
        let passes = options
            .liveness_pruning
            .then(|| crate::passes::ProgramPasses::compute(prog, &cfg));
        let dead_insns = passes
            .as_ref()
            .map_or(0, crate::passes::ProgramPasses::dead_insns);

        let ctx = SharedCtx {
            pool: StealPool::new(jobs),
            visited: ConcurrentVisitedTable::with_cap(prog.len(), options.visited_cap as usize),
            visits: AtomicU64::new(0),
            start: std::time::Instant::now(),
            errored: AtomicBool::new(false),
            next_id: AtomicUsize::new(1), // 0 is the root job below
            results: Mutex::new(Vec::new()),
            prog,
            options,
            thresholds,
            cfg,
            passes,
        };
        let (entry_regs, entry_chunks) = AbsState::entry().to_parts();
        ctx.pool.push(
            0,
            Job {
                id: 0,
                pc: 0,
                regs: entry_regs,
                chunks: entry_chunks,
                trips: vec![0; ctx.cfg.head_rpo().len()],
                depth: 0,
            },
        );

        // The coordinator thread's own state traffic (the merge below)
        // is counted too: the run's window opens here and closes after
        // merging, with every worker's ledger credited in between.
        let start = ledger::snapshot();
        let worker_ledgers = par_workers(jobs, |worker| {
            let start = ledger::snapshot();
            while let Some(job) = ctx.pool.pop(worker) {
                let job_id = job.id;
                let result = if ctx.errored.load(Ordering::SeqCst) {
                    // The run is already doomed to the sequential rerun:
                    // drain remaining jobs without walking them.
                    JobResult {
                        id: job_id,
                        children: Vec::new(),
                        report: Vec::new(),
                        error: None,
                    }
                } else {
                    // Containment boundary: a panic inside one job must
                    // not unwind through `par_workers`'s join (which
                    // would take down the whole exploration). It becomes
                    // this job's error, trips the errored latch like any
                    // other job failure, and — crucially — still reaches
                    // `pool.complete()` below, so sibling workers
                    // terminate normally instead of spinning on an
                    // outstanding count that never drains.
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_job(&ctx, worker, job)
                    }))
                    .unwrap_or_else(|payload| JobResult {
                        id: job_id,
                        children: Vec::new(),
                        report: Vec::new(),
                        error: Some(VerifierError::from_panic(payload.as_ref())),
                    })
                };
                if result.error.is_some() {
                    ctx.errored.store(true, Ordering::SeqCst);
                }
                lock_recover(&ctx.results).push(result);
                ctx.pool.complete();
            }
            ledger::since(start)
        });

        // Credit the workers' counters to the coordinator's ledger
        // whether the run succeeds, degrades, or reruns sequentially —
        // the batch engine reads the ledger around each item, so even a
        // doomed parallel attempt's burned work shows up in the roll-up.
        for counted in &worker_ledgers {
            ledger::credit(counted);
        }

        if ctx.errored.load(Ordering::SeqCst) {
            // Governance failures — a contained panic or a blown
            // deadline — are faults of the *analyzer run*, not verdicts
            // about the program, so they propagate to the session,
            // whose degradation ladder decides whether (and how) to
            // re-run. Every other error — unsafe path or budget — hands
            // the program to the sequential explorer so the reported
            // rejection (which path, which pc) is the canonical one.
            // See module docs.
            let results = ctx
                .results
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let governance = results
                .iter()
                .filter_map(|r| r.error.as_ref())
                .find(|e| {
                    matches!(
                        e,
                        VerifierError::InternalFault { .. }
                            | VerifierError::DeadlineExceeded { .. }
                    )
                })
                .cloned();
            return match governance {
                Some(e) => Err(e),
                None => PathSensitive.explore(prog, options),
            };
        }

        let results = ctx
            .results
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut by_id: Vec<Option<JobResult>> = Vec::new();
        let spawned = results.len() as u64;
        for r in results {
            let id = r.id;
            if by_id.len() <= id {
                by_id.resize_with(id + 1, || None);
            }
            by_id[id] = Some(r);
        }

        // Merge per-job report accumulators in the job tree's pre-order
        // with children in reverse spawn order — the sequential DFS
        // ordering of the same subtrees.
        let mut report: Vec<Option<AbsState>> = vec![None; prog.len()];
        let mut walk = vec![0usize];
        while let Some(id) = walk.pop() {
            let job = by_id[id].take().expect("every spawned job reported");
            for (pc, regs, chunks) in job.report {
                let rebuilt = AbsState::from_parts(regs, chunks);
                match &mut report[pc] {
                    slot @ None => *slot = Some(rebuilt),
                    Some(existing) => {
                        existing.flow_join(&rebuilt, None);
                    }
                }
            }
            // Reverse spawn order: the DFS walks the *latest* deferred
            // subtree first, so pre-order pushes children as spawned and
            // pops them newest-first.
            walk.extend(job.children.iter().copied());
        }

        Ok(Exploration {
            states: report,
            stats: AnalysisStats {
                dead_insns,
                subtrees_spawned: spawned.saturating_sub(1),
                steals: ctx.pool.steals(),
                ..ledger::since(start)
            },
        })
    }
}

/// Runs one job's local DFS walk — the sequential explorer's loop with
/// job-local summaries and report accumulators, the shared visited
/// table, and the spawn rule at forks.
fn run_job(ctx: &SharedCtx<'_>, worker: usize, job: Job) -> JobResult {
    let transfer = Transfer::new(ctx.options.clone());
    let head_rpo = ctx.cfg.head_rpo();
    let id = job.id;
    let mut children = Vec::new();
    let mut report: Vec<Option<AbsState>> = vec![None; ctx.prog.len()];
    let mut summaries: Vec<Option<AbsState>> = vec![None; head_rpo.len()];
    let mut counters: Vec<JoinCounters> =
        (0..head_rpo.len()).map(|_| JoinCounters::new()).collect();
    let mut error = None;

    let mut stack: Vec<(usize, AbsState, std::rc::Rc<Vec<u32>>, u32)> = vec![(
        job.pc,
        AbsState::from_parts(job.regs, job.chunks),
        std::rc::Rc::new(job.trips),
        job.depth,
    )];
    'walk: while let Some((pc, mut state, mut trips, depth)) = stack.pop() {
        if ctx.errored.load(Ordering::Relaxed) {
            // Another worker already doomed the run: stop walking, the
            // sequential rerun will produce the canonical result.
            break;
        }
        ledger::add(1, |t| &t.visits);
        if ctx.visits.fetch_add(1, Ordering::Relaxed) + 1 > ctx.options.analysis_budget {
            error = Some(VerifierError::AnalysisBudgetExhausted {
                pc,
                budget: ctx.options.analysis_budget,
            });
            break;
        }
        if let Err(e) = crate::analyzer::check_deadline(ctx.start, ctx.options, pc) {
            error = Some(e);
            break;
        }
        crate::failpoint::fire(crate::failpoint::FaultSite::ParshardJob);
        let h = ctx.cfg.head_index(pc);
        let checkpoint = ctx.cfg.is_checkpoint(pc);
        if checkpoint {
            if let Some(p) = &ctx.passes {
                let mask = p.live_in(pc);
                state.clear_dead(mask.regs, mask.slots);
            }
        }
        if h != usize::MAX {
            let take_trip = trips[h] < ctx.options.unroll_k;
            let needs_reset = head_rpo
                .iter()
                .enumerate()
                .any(|(j, &pos)| pos > head_rpo[h] && trips[j] != 0);
            if take_trip || needs_reset {
                let t = std::rc::Rc::make_mut(&mut trips);
                for (j, &pos) in head_rpo.iter().enumerate() {
                    if pos > head_rpo[h] {
                        t[j] = 0;
                    }
                }
                if take_trip {
                    t[h] += 1;
                }
            }
            if take_trip {
                ledger::add(1, |t| &t.unrolled_trips);
            } else {
                // Job-local widening summary: every lap of a cycle stays
                // in this job (back edges never spawn), so the summary
                // stabilizes exactly as in the sequential walk.
                match &mut summaries[h] {
                    slot @ None => *slot = Some(state.clone()),
                    Some(summary) => {
                        let grew = summary.flow_join(
                            &state,
                            Some(WidenCtx {
                                counters: &mut counters[h],
                                delay: 0,
                                thresholds: &ctx.thresholds,
                            }),
                        );
                        if !grew {
                            crate::visited::note_summary_prune();
                            continue;
                        }
                        state = summary.clone();
                    }
                }
            }
        }
        if checkpoint {
            let covered = if ctx.passes.is_some() {
                ctx.visited.is_covered_masked(pc, &state, worker)
            } else {
                ctx.visited.is_covered(pc, &state, worker)
            };
            if covered {
                continue;
            }
            ctx.visited.insert(pc, &state, worker);
        }
        match &mut report[pc] {
            slot @ None => *slot = Some(state.clone()),
            Some(existing) => {
                existing.flow_join(&state, None);
            }
        }
        let succs = match transfer.step(ctx.prog, state, pc) {
            Ok(s) => s,
            Err(e) => {
                error = Some(e);
                break 'walk;
            }
        };
        let mut outs: Vec<(usize, AbsState)> = succs.into_iter().collect();
        if outs.len() == 2 {
            // A fork. The sequential DFS pushes [fall, taken] and walks
            // the taken arm first; past the spawn depth the fall arm —
            // the subtree the DFS would walk *last* — becomes a
            // stealable job, unless its edge is a back edge (cycles stay
            // job-local).
            let ndepth = depth + 1;
            let (taken_pc, taken_state) = outs.pop().expect("two successors");
            let (fall_pc, fall_state) = outs.pop().expect("two successors");
            let spawn =
                depth >= ctx.options.spawn_depth && !ctx.cfg.back_edges().contains(&(pc, fall_pc));
            if spawn {
                let (regs, chunks) = fall_state.to_parts();
                let child = ctx.next_id.fetch_add(1, Ordering::Relaxed);
                children.push(child);
                ctx.pool.push(
                    worker,
                    Job {
                        id: child,
                        pc: fall_pc,
                        regs,
                        chunks,
                        trips: (*trips).clone(),
                        depth: ndepth,
                    },
                );
            } else {
                stack.push((fall_pc, fall_state, trips.clone(), ndepth));
            }
            stack.push((taken_pc, taken_state, trips, ndepth));
        } else {
            for (succ, out) in outs {
                stack.push((succ, out, trips.clone(), depth));
            }
        }
    }

    JobResult {
        id,
        children,
        report: report
            .into_iter()
            .enumerate()
            .filter_map(|(pc, acc)| {
                let (regs, chunks) = acc?.to_parts();
                Some((pc, regs, chunks))
            })
            .collect(),
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf::asm::assemble;

    fn options_with(jobs: u32, spawn_depth: u32) -> AnalyzerOptions {
        AnalyzerOptions {
            explore_jobs: jobs,
            spawn_depth,
            ..AnalyzerOptions::default()
        }
    }

    /// A three-level branch tree over ALU ops feeding one guarded
    /// store: enough forks to spawn subtrees at every tested depth.
    fn branchy() -> ebpf::Program {
        assemble(
            r"
            r2 = *(u8 *)(r1 + 0)
            r3 = *(u8 *)(r1 + 1)
            if r2 > 3 goto a
            r3 += 1
        a:
            if r3 > 7 goto b
            r2 += 2
        b:
            if r2 s> r3 goto c
            r2 ^= r3
        c:
            r2 &= 6
            r4 = r10
            r4 += -16
            r4 += r2
            *(u8 *)(r4 + 0) = 0
            r0 = 0
            exit
        ",
        )
        .expect("assembles")
    }

    fn assert_bit_identical(prog: &ebpf::Program, options: &AnalyzerOptions) {
        let seq = PathSensitive.explore(prog, options);
        let par = PathParallel.explore(prog, options);
        match (seq, par) {
            (Ok(s), Ok(p)) => {
                assert_eq!(s.states.len(), p.states.len());
                for (pc, (a, b)) in s.states.iter().zip(p.states.iter()).enumerate() {
                    match (a, b) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert!(
                                a.fingerprint() == b.fingerprint()
                                    && a.is_subset_of(b)
                                    && b.is_subset_of(a),
                                "reported join diverges at pc {pc}"
                            );
                        }
                        _ => panic!("reachability diverges at pc {pc}"),
                    }
                }
            }
            (Err(s), Err(p)) => assert_eq!(s.to_string(), p.to_string()),
            (s, p) => panic!(
                "verdicts diverge: sequential {:?} vs parallel {:?}",
                s.is_ok(),
                p.is_ok()
            ),
        }
    }

    #[test]
    fn parallel_matches_sequential_on_branchy_program() {
        let prog = branchy();
        for jobs in [1, 2, 8] {
            for depth in [0, 2, 8] {
                assert_bit_identical(&prog, &options_with(jobs, depth));
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_bounded_loop() {
        let prog = assemble(
            r"
            r1 = 0
        loop:
            r3 = r10
            r3 += -16
            r3 += r1
            *(u8 *)(r3 + 0) = 0
            r1 += 1
            if r1 < 16 goto loop
            r0 = r1
            exit
        ",
        )
        .expect("assembles");
        for jobs in [1, 2, 8] {
            assert_bit_identical(&prog, &options_with(jobs, 0));
        }
    }

    #[test]
    fn parallel_reproduces_sequential_rejection_verbatim() {
        // The branch tree hides an out-of-bounds store: whichever worker
        // finds it first, the reported rejection is the sequential one.
        let prog = assemble(
            r"
            r2 = *(u8 *)(r1 + 0)
            if r2 > 3 goto bad
            r0 = 0
            exit
        bad:
            r4 = r10
            r4 += -16
            r4 += r2
            *(u8 *)(r4 + 0) = 0
            r0 = 0
            exit
        ",
        )
        .expect("assembles");
        for jobs in [1, 2, 8] {
            let seq = PathSensitive.explore(&prog, &options_with(jobs, 0));
            let par = PathParallel.explore(&prog, &options_with(jobs, 0));
            assert!(seq.is_err() && par.is_err());
            assert_eq!(
                seq.expect_err("rejected").to_string(),
                par.expect_err("rejected").to_string()
            );
        }
    }

    #[test]
    fn spawn_depth_zero_spawns_subtrees_and_counts_them() {
        let prog = branchy();
        let stats = PathParallel
            .explore(&prog, &options_with(4, 0))
            .expect("accepted")
            .stats;
        assert!(stats.subtrees_spawned > 0, "forks past depth 0 must spawn");
        // Sequential strategies never report the parallel counters.
        let seq = PathSensitive
            .explore(&prog, &options_with(1, 0))
            .expect("accepted")
            .stats;
        assert_eq!(
            (seq.subtrees_spawned, seq.steals, seq.shared_prunes),
            (0, 0, 0)
        );
    }

    #[test]
    fn deep_spawn_depth_degenerates_to_local_walk() {
        let prog = branchy();
        let stats = PathParallel
            .explore(&prog, &options_with(4, 64))
            .expect("accepted")
            .stats;
        assert_eq!(stats.subtrees_spawned, 0);
        // With nothing spawned the root job is the only job, and any
        // idle worker may steal it before its owner pops it: at most one
        // steal, never more.
        assert!(stats.steals <= 1, "{stats:?}");
    }
}
