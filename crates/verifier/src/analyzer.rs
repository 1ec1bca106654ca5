//! The driver API: configuration ([`AnalyzerOptions`]), the
//! builder-style [`VerificationSession`] entry point that selects an
//! exploration [`Strategy`], the strategy-tagged [`Analysis`] result
//! with its annotated verifier log and statistics, and the thin
//! [`Analyzer`] compatibility facade.
//!
//! The actual work is split across three layers, mirroring the kernel's
//! separation of `check_*` semantics from the verifier's state graph:
//!
//! * [`crate::transfer`] — the abstract semantics of one instruction
//!   (ALU, branches with two-sided 64-*and* 32-bit refinement, memory
//!   safety checks);
//! * [`crate::explore`] — the pluggable exploration strategies driving
//!   those steps: the widening fixpoint worklist and the path-sensitive
//!   pruning explorer;
//! * [`crate::fixpoint`] — the reverse-postorder worklist engine behind
//!   [`Strategy::WideningFixpoint`], and the [`AnalysisStats`]
//!   accounting both strategies report.

use std::sync::Arc;
use std::time::Duration;

use ebpf::{Program, Reg};

use crate::cfg::Cfg;
use crate::error::VerifierError;
use crate::explore::{Exploration, ExplorationStrategy, Strategy};
use crate::fixpoint::AnalysisStats;
use crate::memo::TransferMemo;
use crate::state::AbsState;
use crate::value::RegValue;

/// Tunable analysis behaviour — each toggle corresponds to a design
/// choice called out for ablation in `DESIGN.md`.
#[derive(Clone, Debug)]
pub struct AnalyzerOptions {
    /// Size of the context buffer the program may access via `r1`.
    pub ctx_size: u64,
    /// Require every memory access to be provably aligned to its size,
    /// via the tnum alignment test (`tnum_is_aligned`).
    pub strict_alignment: bool,
    /// Sharpen both edges of conditional jumps. Disabling shows how much
    /// path sensitivity the range analysis contributes.
    pub refine_branches: bool,
    /// Reject every program whose CFG contains a back-edge with
    /// [`VerifierError::LoopDetected`] — the classic
    /// pre-bounded-loop verifier behaviour. Off by default: loops are
    /// analyzed by fixpoint iteration.
    pub reject_loops: bool,
    /// How many *changing* joins each register (and stack slot) absorbs
    /// exactly at a loop head before that component widens. The budget is
    /// per component — an accumulator that keeps churning no longer
    /// burns the delay a bounded counter needs to reach its exit-test
    /// fixpoint (PR 2 shared one counter per head).
    pub widen_delay: u32,
    /// Harvest the comparison immediates of the program into the
    /// interval widening ladders ("widening with thresholds"), so a
    /// widened bound lands on the loop's `i < N` guard instead of
    /// jumping to a register-width extreme. Disable to measure what the
    /// delay alone buys.
    pub harvest_thresholds: bool,
    /// Upper bound on total instruction visits during the exploration
    /// (worklist pops for the fixpoint, DFS arrivals for the
    /// path-sensitive explorer); exceeding it aborts with
    /// [`VerifierError::AnalysisBudgetExhausted`].
    pub analysis_budget: u64,
    /// How many trips of each loop the **path-sensitive** strategy
    /// unrolls with full per-trip precision before that loop head falls
    /// back to widening. The budget is charged per loop *entry* (a
    /// nested loop unrolls afresh on every outer trip). When `unroll_k`
    /// is at least a bounded loop's actual trip count, the loop
    /// verifies with *exact* per-trip states — no widening at all;
    /// past the bound the head behaves like an eagerly widened fixpoint
    /// head with harvested thresholds. Ignored by
    /// [`Strategy::WideningFixpoint`].
    pub unroll_k: u32,
    /// Per-pc chain cap of the **path-sensitive** strategy's visited
    /// table: each checkpoint keeps at most this many explored states,
    /// evicting oldest-first (after dominance eviction) once full —
    /// the kernel's `explored_states` list-length hygiene. `0` means
    /// unbounded chains. Capping bounds the per-arrival probe cost on
    /// deep unrolls at the price of occasionally re-exploring a path an
    /// evicted entry would have pruned; verdicts are unaffected
    /// (pruning is a pure optimization). Ignored by
    /// [`Strategy::WideningFixpoint`].
    pub visited_cap: u32,
    /// The fingerprint-keyed transfer memo cache
    /// ([`TransferMemo`]): pure scalar ALU results and branch
    /// refinements are cached by `(operation, operand fingerprints)` and
    /// shared — across the programs of a [`batch`](crate::batch) run
    /// when sessions share one `Arc` — with full operand equality
    /// verified before every reuse, so hits can never change a verdict.
    /// `None` (no memoization) by default: lookups and inserts cost
    /// more than the tnum/bounds arithmetic they save, even where most
    /// lookups hit (see [`crate::memo`]). `Some` opts in; every session
    /// and batch worker holding the same `Arc` then shares its entries.
    pub memo_cache: Option<Arc<TransferMemo>>,
    /// Liveness-aware state pruning (on by default): run the
    /// [`crate::passes`] framework before exploration and *clean* dead
    /// registers and stack slots — components no future instruction can
    /// read — from every state arriving at a checkpoint (the kernel's
    /// `clean_verifier_state`). Cleaned components are
    /// [`crate::RegValue::Uninit`], the top of the safety order, so
    /// path states differing only in dead components fingerprint
    /// equally and prune each other, loop-head summaries stop widening
    /// dead components, and the fixpoint's merge-point joins
    /// subset-skip contributions that differ only in dead state.
    /// Sound by construction (cleaning only weakens states the
    /// analysis has proven it will never read); disable for ablations
    /// and the masking-soundness differential campaign.
    pub liveness_pruning: bool,
    /// Worker threads for the parallel path explorer
    /// ([`Strategy::PathParallel`]): `0` (the default) uses
    /// [`domain::parallel::default_threads`] — every available core, or
    /// the `TNUM_THREADS` pin. Ignored by the sequential strategies.
    /// The batch engine ([`crate::batch`]) overrides `0` with its share
    /// of the batch thread budget so outer × inner parallelism never
    /// oversubscribes.
    pub explore_jobs: u32,
    /// Branch nesting depth below which the parallel path explorer
    /// keeps both arms of a fork local instead of spawning the
    /// fall-through subtree as a stealable job. Small depths spawn a
    /// few huge subtrees (low overhead, poor balance); large depths
    /// spawn many small ones. The default `2` spawns at most
    /// one job per branch past the first two nesting levels — enough
    /// subtrees to feed eight workers on branchy programs while keeping
    /// snapshot traffic negligible. Ignored by the sequential
    /// strategies; verdicts are identical at every setting.
    pub spawn_depth: u32,
    /// Wall-clock budget for one exploration, checked cooperatively at
    /// the same points as [`AnalyzerOptions::analysis_budget`] (worklist
    /// pops, DFS arrivals, parallel job visits); exceeding it aborts
    /// with [`VerifierError::DeadlineExceeded`]. Unlike the visit
    /// budget, this bounds *time*, so a program whose individual
    /// transfers are slow (huge join chains, memo-hostile workloads)
    /// cannot hold a service thread hostage. `None` (the default)
    /// disables the check; the only overhead when disabled is one
    /// `Option` test per visit. Under the degradation ladder each
    /// re-run gets a fresh deadline window.
    pub deadline: Option<Duration>,
}

impl Default for AnalyzerOptions {
    fn default() -> AnalyzerOptions {
        AnalyzerOptions {
            ctx_size: 64,
            strict_alignment: false,
            refine_branches: true,
            reject_loops: false,
            widen_delay: 16,
            harvest_thresholds: true,
            analysis_budget: 1_000_000,
            unroll_k: 32,
            visited_cap: 32,
            memo_cache: None,
            liveness_pruning: true,
            explore_jobs: 0,
            spawn_depth: 2,
            deadline: None,
        }
    }
}

/// What a [`VerificationSession`] does when an exploration fails for a
/// *governance* reason — [`VerifierError::InternalFault`] (a contained
/// panic) or [`VerifierError::DeadlineExceeded`] — rather than for a
/// fault in the program under analysis.
///
/// Program faults (out-of-bounds access, uninitialized reads, budget
/// exhaustion, …) are deterministic verdicts about the *program* and
/// always propagate unchanged, whatever the policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Walk down the strategy ladder and re-run:
    /// [`Strategy::PathParallel`] degrades to
    /// [`Strategy::PathSensitive`] (shedding threads, shared locks, and
    /// snapshot traffic), which degrades to
    /// [`Strategy::WideningFixpoint`] (shedding path fan-out — the
    /// cheapest, most predictable engine). A failure on the last rung
    /// is final. Every downgrade increments
    /// [`AnalysisStats::degradations`] on the eventual result, so
    /// operators can see that a verdict was produced in degraded mode.
    /// This formalizes (and makes observable) the parallel explorer's
    /// long-standing error→sequential re-run. The default.
    #[default]
    Ladder,
    /// Return the governance error to the caller unchanged. For tests
    /// and deployments that prefer a loud failure over a slower,
    /// simpler re-run.
    FailFast,
}

/// The cooperative deadline check every strategy runs at the same
/// points as its visit-budget check: errors with
/// [`VerifierError::DeadlineExceeded`] once `start` is at least
/// [`AnalyzerOptions::deadline`] old. One `Option` test when no
/// deadline is configured.
#[inline]
pub(crate) fn check_deadline(
    start: std::time::Instant,
    options: &AnalyzerOptions,
    pc: usize,
) -> Result<(), VerifierError> {
    if let Some(deadline) = options.deadline {
        let elapsed = start.elapsed();
        if elapsed >= deadline {
            return Err(VerifierError::DeadlineExceeded { elapsed, pc });
        }
    }
    Ok(())
}

/// The result of a successful analysis: the abstract state *before* every
/// reachable instruction plus the run's statistics, tagged with the
/// [`Strategy`] that produced it, for inspection by tests, examples,
/// benches, and tools.
#[derive(Clone, Debug)]
pub struct Analysis {
    strategy: Strategy,
    states: Vec<Option<AbsState>>,
    stats: AnalysisStats,
}

impl Analysis {
    /// Assembles an analysis from its parts — used by the batch engine
    /// to rebuild results on the submitting thread after their dense
    /// `Send` snapshots crossed the worker boundary.
    pub(crate) fn from_raw(
        strategy: Strategy,
        states: Vec<Option<AbsState>>,
        stats: AnalysisStats,
    ) -> Analysis {
        Analysis {
            strategy,
            states,
            stats,
        }
    }

    /// The raw per-instruction states, for the batch engine's snapshot
    /// conversion.
    pub(crate) fn raw_states(&self) -> &[Option<AbsState>] {
        &self.states
    }

    /// The program was accepted (an `Analysis` is only produced on
    /// acceptance; this always returns `true` and exists for readable
    /// call sites).
    #[must_use]
    pub fn is_accepted(&self) -> bool {
        true
    }

    /// The exploration strategy that produced this analysis.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The abstract state before instruction `index`, or `None` when the
    /// instruction is unreachable.
    ///
    /// Under [`Strategy::WideningFixpoint`] this is the engine's single
    /// (narrowed) state cell for the instruction. Under
    /// [`Strategy::PathSensitive`] there *is* no single cell — the
    /// explorer keeps one state per visited path — so the reported state
    /// is the **join over the explored path states** reaching the
    /// instruction, which is the tightest single-state summary the
    /// strategy can offer.
    #[must_use]
    pub fn state_before(&self, index: usize) -> Option<&AbsState> {
        self.states.get(index).and_then(Option::as_ref)
    }

    /// Indices of instructions proven unreachable — never reached by the
    /// fixpoint's propagation, or (path-sensitively) by any explored
    /// path, which includes branches refined infeasible on every path.
    #[must_use]
    pub fn unreachable(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect()
    }

    /// State-sharing, widening, and pruning counters of this run — the
    /// observable effect of the copy-on-write state layer and (under
    /// [`Strategy::PathSensitive`]) of visited-state pruning.
    #[must_use]
    pub fn stats(&self) -> AnalysisStats {
        self.stats
    }

    /// Renders the program's disassembly with each instruction annotated
    /// by the registers the analyzer tracks at that point — the
    /// human-readable verifier log, in the spirit of the kernel's
    /// `verbose()` output.
    ///
    /// Unreachable instructions are marked `; unreachable`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ebpf::asm::assemble;
    /// use verifier::VerificationSession;
    ///
    /// let prog = assemble("r2 = 5\nr2 <<= 1\nr0 = r2\nexit")?;
    /// let analysis = VerificationSession::new().run(&prog)?;
    /// let log = analysis.annotate(&prog);
    /// assert!(log.contains("r2 <<= 1"));
    /// assert!(log.contains("r2=5"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn annotate(&self, prog: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, insn) in prog.insns().iter().enumerate() {
            let note = match self.state_before(i) {
                None => "; unreachable".to_string(),
                Some(state) => {
                    let mut parts = Vec::new();
                    for reg in Reg::ALL {
                        let v = state.reg(reg);
                        if v != RegValue::Uninit && reg != Reg::R10 {
                            parts.push(format!("{reg}={v}"));
                        }
                    }
                    format!("; {}", parts.join(" "))
                }
            };
            let _ = writeln!(out, "{i:>3}: {insn:<40} {note}");
        }
        out
    }
}

/// The builder-style entry point of the analyzer: carries the
/// [`AnalyzerOptions`], selects the exploration [`Strategy`], and runs
/// programs into strategy-tagged [`Analysis`] results.
///
/// This replaces the bare `Analyzer::new(options).analyze(prog)` pair
/// as the primary API (that pair survives as a thin facade); it is the
/// seam future scaling directions — sharded exploration, per-function
/// caching, multi-strategy portfolios — plug into via
/// [`ExplorationStrategy`].
///
/// # Examples
///
/// ```
/// use ebpf::asm::assemble;
/// use verifier::{AnalyzerOptions, Strategy, VerificationSession};
///
/// let prog = assemble("r2 = 5\nr2 <<= 1\nr0 = r2\nexit")?;
/// let analysis = VerificationSession::new()
///     .with_options(AnalyzerOptions { strict_alignment: true, ..AnalyzerOptions::default() })
///     .with_strategy(Strategy::PathSensitive)
///     .run(&prog)?;
/// assert!(analysis.is_accepted());
/// assert_eq!(analysis.strategy(), Strategy::PathSensitive);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct VerificationSession {
    options: AnalyzerOptions,
    strategy: Strategy,
    degradation: DegradationPolicy,
}

impl VerificationSession {
    /// A session with default options and the default strategy
    /// ([`Strategy::WideningFixpoint`]).
    #[must_use]
    pub fn new() -> VerificationSession {
        VerificationSession::default()
    }

    /// Replaces the analysis options.
    #[must_use]
    pub fn with_options(mut self, options: AnalyzerOptions) -> VerificationSession {
        self.options = options;
        self
    }

    /// Selects the exploration strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: Strategy) -> VerificationSession {
        self.strategy = strategy;
        self
    }

    /// Selects the [`DegradationPolicy`] applied when an exploration
    /// fails with a governance error (contained panic or blown
    /// deadline).
    #[must_use]
    pub fn with_degradation(mut self, degradation: DegradationPolicy) -> VerificationSession {
        self.degradation = degradation;
        self
    }

    /// The session's analysis options (the memo cache `Arc` is shared,
    /// not deep-copied).
    #[must_use]
    pub fn options(&self) -> AnalyzerOptions {
        self.options.clone()
    }

    /// The session's selected strategy.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The session's degradation policy.
    #[must_use]
    pub fn degradation(&self) -> DegradationPolicy {
        self.degradation
    }

    /// Explores the program with the selected strategy, returning the
    /// strategy-tagged per-instruction states on acceptance.
    ///
    /// The exploration runs under `catch_unwind`: a panic anywhere in
    /// the analyzer is contained and surfaces as
    /// [`VerifierError::InternalFault`] instead of unwinding into the
    /// caller. Under the default [`DegradationPolicy::Ladder`], a
    /// governance failure (contained panic or blown deadline) re-runs
    /// the program with the next-simpler strategy; the returned
    /// [`Analysis`] is then tagged with the strategy that actually
    /// produced it and carries the downgrade count in
    /// [`AnalysisStats::degradations`].
    ///
    /// # Errors
    ///
    /// A [`VerifierError`] describing the first problem found; the
    /// program must be rejected.
    pub fn run(&self, prog: &Program) -> Result<Analysis, VerifierError> {
        let mut strategy = self.strategy;
        let mut degradations = 0u64;
        loop {
            match self.explore_contained(strategy, prog) {
                Ok(Exploration { states, mut stats }) => {
                    stats.degradations += degradations;
                    return Ok(Analysis {
                        strategy,
                        states,
                        stats,
                    });
                }
                Err(err) => {
                    let governance = matches!(
                        err,
                        VerifierError::InternalFault { .. }
                            | VerifierError::DeadlineExceeded { .. }
                    );
                    let next = match strategy {
                        Strategy::PathParallel => Some(Strategy::PathSensitive),
                        Strategy::PathSensitive => Some(Strategy::WideningFixpoint),
                        Strategy::WideningFixpoint => None,
                    };
                    match next {
                        Some(next)
                            if governance && self.degradation == DegradationPolicy::Ladder =>
                        {
                            strategy = next;
                            degradations += 1;
                        }
                        _ => return Err(err),
                    }
                }
            }
        }
    }

    /// One rung of [`VerificationSession::run`]: explore with
    /// `strategy`, converting a panic into
    /// [`VerifierError::InternalFault`].
    ///
    /// `AssertUnwindSafe` is sound here: the closure borrows only
    /// `self` (read-only) and `prog`, and every structure shared with
    /// other threads (memo shards, visited stripes, result vectors) is
    /// lock-protected with poison-recovering accessors, so an unwind
    /// cannot leave observable broken invariants behind.
    fn explore_contained(
        &self,
        strategy: Strategy,
        prog: &Program,
    ) -> Result<Exploration, VerifierError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.explore_with(strategy.implementation(), prog)
        }))
        .unwrap_or_else(|payload| Err(VerifierError::from_panic(payload.as_ref())))
    }

    /// Explores the program with a caller-supplied
    /// [`ExplorationStrategy`] — the plug-in seam for strategies beyond
    /// the built-in [`Strategy`] pair — returning the raw
    /// [`Exploration`].
    ///
    /// The session-level policy checks (currently
    /// [`AnalyzerOptions::reject_loops`]) run before the strategy, so
    /// every strategy sees the same admission rules.
    ///
    /// # Errors
    ///
    /// A [`VerifierError`] from the policy checks or the strategy.
    pub fn explore_with(
        &self,
        strategy: &dyn ExplorationStrategy,
        prog: &Program,
    ) -> Result<Exploration, VerifierError> {
        if self.options.reject_loops {
            let cfg = Cfg::build(prog);
            if let Some(&(_, head)) = cfg.back_edges().first() {
                return Err(VerifierError::LoopDetected { pc: head });
            }
        }
        strategy.explore(prog, &self.options)
    }
}

/// The classic two-call facade over [`VerificationSession`], kept for
/// compatibility with pre-session callers. Soft-deprecated: prefer
/// `VerificationSession::new().with_options(..).run(prog)`, which also
/// exposes strategy selection — `Analyzer` always runs the default
/// [`Strategy::WideningFixpoint`].
///
/// See the crate docs for an end-to-end example.
#[derive(Clone, Debug, Default)]
pub struct Analyzer {
    options: AnalyzerOptions,
}

impl Analyzer {
    /// Creates an analyzer with the given options.
    #[must_use]
    pub fn new(options: AnalyzerOptions) -> Analyzer {
        Analyzer { options }
    }

    /// Abstractly interprets the program with the widening fixpoint,
    /// returning the (narrowed) per-instruction states on acceptance.
    /// Equivalent to `VerificationSession::new().with_options(..).run`.
    ///
    /// # Errors
    ///
    /// A [`VerifierError`] describing the first problem found; the
    /// program must be rejected.
    pub fn analyze(&self, prog: &Program) -> Result<Analysis, VerifierError> {
        VerificationSession::new()
            .with_options(self.options.clone())
            .run(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf::asm::assemble;

    fn accept(src: &str) -> Analysis {
        Analyzer::new(AnalyzerOptions::default())
            .analyze(&assemble(src).unwrap())
            .unwrap_or_else(|e| panic!("expected accept, got: {e}"))
    }

    fn reject(src: &str) -> VerifierError {
        Analyzer::new(AnalyzerOptions::default())
            .analyze(&assemble(src).unwrap())
            .expect_err("expected reject")
    }

    #[test]
    fn accepts_trivial_program() {
        accept("r0 = 0\nexit");
    }

    #[test]
    fn rejects_uninit_r0_at_exit() {
        assert!(matches!(
            reject("exit"),
            VerifierError::NoReturnValue { pc: 0 }
        ));
    }

    #[test]
    fn rejects_uninit_register_read() {
        assert!(matches!(
            reject("r0 = r5\nexit"),
            VerifierError::UninitRead {
                reg: Reg::R5,
                pc: 0
            }
        ));
    }

    #[test]
    fn rejects_pointer_return() {
        assert!(matches!(
            reject("r0 = r10\nexit"),
            VerifierError::PointerLeak { pc: 1 }
        ));
    }

    #[test]
    fn reject_loops_flag_preserves_classic_behaviour() {
        let prog = assemble("l:\nr0 = 0\ngoto l").unwrap();
        let classic = Analyzer::new(AnalyzerOptions {
            reject_loops: true,
            ..AnalyzerOptions::default()
        });
        assert!(matches!(
            classic.analyze(&prog).unwrap_err(),
            VerifierError::LoopDetected { .. }
        ));
        // The default engine instead runs the loop to a fixpoint; this
        // one never exits, so it is accepted with the exit unreachable.
        let analysis = accept("l:\nr0 = 0\ngoto l\nexit");
        assert!(analysis.unreachable().contains(&2));
        // Loop-free programs are unaffected by the flag.
        classic
            .analyze(&assemble("r0 = 0\nexit").unwrap())
            .expect("acyclic program accepted under reject_loops");
    }

    #[test]
    fn bounded_loop_accepted_with_exact_counter_range() {
        // for i in 0..16 { buf[i] = i; sum += i }, returning the counter.
        let analysis = accept(
            r"
                r1 = 0              ; i
                r6 = 0              ; sum
            loop:
                r3 = r10
                r3 += -16
                r3 += r1
                *(u8 *)(r3 + 0) = 7 ; in bounds iff i <= 15
                r6 += r1
                r1 += 1
                if r1 < 16 goto loop
                r0 = r1
                exit
            ",
        );
        // The exit test pins the counter exactly; the loop body sees the
        // full [0, 15] window.
        let exit_state = analysis.state_before(10).unwrap();
        let r0 = exit_state.reg(Reg::R0).as_scalar().unwrap();
        assert_eq!(r0.as_constant(), Some(16), "narrowed exit counter");
        let head = analysis.state_before(2).unwrap();
        let i = head.reg(Reg::R1).as_scalar().unwrap();
        assert_eq!((i.bounds().umin(), i.bounds().umax()), (0, 15));
    }

    #[test]
    fn unbounded_loop_terminates_by_widening() {
        // No exit test bounds r1: the analysis must widen to ⊤ and
        // stabilize instead of diverging one trip at a time.
        let analysis = accept(
            r"
                r1 = 0
            loop:
                r1 += 1
                if r2 > 0 goto loop
                r0 = 0
                exit
            ",
        );
        let exit_state = analysis.state_before(3).unwrap();
        let r1 = exit_state.reg(Reg::R1).as_scalar().unwrap();
        assert!(r1.contains(1) && r1.contains(1 << 40), "widened to ⊤-ish");
        assert!(analysis.stats().widenings_applied > 0);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let tiny = Analyzer::new(AnalyzerOptions {
            analysis_budget: 4,
            ..AnalyzerOptions::default()
        });
        let prog = assemble("r1 = 0\nloop:\nr1 += 1\nif r2 > 0 goto loop\nr0 = 0\nexit").unwrap();
        assert!(matches!(
            tiny.analyze(&prog).unwrap_err(),
            VerifierError::AnalysisBudgetExhausted { budget: 4, .. }
        ));
    }

    /// The 13-trip memset whose safety hinges on the interval bound
    /// `i <= 12` (13 is not a power of two, so the tnum half can offer no
    /// better than [0, 15], which overruns the buffer).
    const MEMSET_13: &str = r"
        r1 = 0
    loop:
        r3 = r10
        r3 += -13
        r3 += r1
        *(u8 *)(r3 + 0) = 0
        r1 += 1
        if r1 < 13 goto loop
        r0 = 0
        exit
    ";

    #[test]
    fn eager_widening_loses_the_loop_proof_delay_keeps() {
        // The head needs 12 precise joins before the exit test caps the
        // counter. Widening eagerly (delay 0, thresholds off) jumps the
        // interval to the built-in ladder before the test can cap it, so
        // the store check fails; the default delay keeps the bound.
        let prog = assemble(MEMSET_13).unwrap();
        let eager = Analyzer::new(AnalyzerOptions {
            widen_delay: 0,
            harvest_thresholds: false,
            ..AnalyzerOptions::default()
        });
        assert!(matches!(
            eager.analyze(&prog).unwrap_err(),
            VerifierError::OutOfBounds {
                region: "stack",
                ..
            }
        ));
        Analyzer::new(AnalyzerOptions {
            harvest_thresholds: false,
            ..AnalyzerOptions::default()
        })
        .analyze(&prog)
        .expect("delayed widening keeps the bound");
    }

    #[test]
    fn harvested_thresholds_rescue_eager_widening() {
        // With "widening with thresholds", the `if r1 < 13` immediate is
        // planted in the ladder, so even the eager configuration lands
        // the counter on [0, 12] instead of [0, i32::MAX] — the same
        // program the previous test shows eager widening losing.
        let prog = assemble(MEMSET_13).unwrap();
        let eager = Analyzer::new(AnalyzerOptions {
            widen_delay: 0,
            ..AnalyzerOptions::default()
        });
        let analysis = eager
            .analyze(&prog)
            .expect("thresholds recover the bound without any delay");
        assert!(analysis.stats().widenings_applied > 0, "widening did fire");
        let head = analysis.state_before(1).unwrap();
        let i = head.reg(Reg::R1).as_scalar().unwrap();
        assert_eq!((i.bounds().umin(), i.bounds().umax()), (0, 12));
    }

    #[test]
    fn per_register_delay_verifies_counter_plus_accumulator() {
        // A continue-style loop with two back-edges: every round the head
        // absorbs one changing join from each edge (the accumulator r6
        // differs on the two paths), so PR 2's shared per-head counter
        // burned its delay twice per trip and widened the counter r1
        // mid-ascent at trip ~9 — rejecting the store. Per-register
        // counters charge r1 only for its own 12 changing joins (one per
        // round: the second edge's r1 is already included), which fit the
        // default delay of 16. Thresholds are disabled so the regression
        // isolates the per-register accounting.
        let prog = assemble(
            r"
                r1 = 0              ; i
                r6 = 0              ; sum
            loop:
                r3 = r10
                r3 += -13
                r3 += r1
                *(u8 *)(r3 + 0) = 0 ; in bounds iff i <= 12
                r1 += 1
                r6 += 1
                if r1 > 12 goto out
                if r2 > 0 goto loop ; back-edge 1
                r6 += 7
                goto loop           ; back-edge 2
            out:
                r0 = r1
                exit
            ",
        )
        .unwrap();
        let analyzer = Analyzer::new(AnalyzerOptions {
            harvest_thresholds: false,
            ..AnalyzerOptions::default()
        });
        let analysis = analyzer
            .analyze(&prog)
            .expect("per-register delay keeps the counter bound");
        let exit_state = analysis.state_before(prog.len() - 1).unwrap();
        let r0 = exit_state.reg(Reg::R0).as_scalar().unwrap();
        assert_eq!(r0.as_constant(), Some(13), "narrowed exit counter");
        // Sanity: the delay still matters — a tiny per-register budget
        // widens the counter before its 12 precise joins and loses the
        // proof, exactly as the shared counter did.
        let tiny = Analyzer::new(AnalyzerOptions {
            widen_delay: 4,
            harvest_thresholds: false,
            ..AnalyzerOptions::default()
        });
        assert!(matches!(
            tiny.analyze(&prog).unwrap_err(),
            VerifierError::OutOfBounds {
                region: "stack",
                ..
            }
        ));
    }

    #[test]
    fn w32_guarded_loop_verifies_via_subreg_refinement() {
        // The 13-memset guarded by a 32-bit compare: without `refine32`
        // both edges of `if w1 < 13` passed through unrefined, the
        // counter widened to ⊤, and the store was rejected — where the
        // 64-bit form verified exactly (ROADMAP "32-bit branch
        // refinement"). Thresholds are off to prove the refinement alone
        // carries it.
        let prog = assemble(
            r"
                r1 = 0
            loop:
                r3 = r10
                r3 += -13
                r3 += r1
                *(u8 *)(r3 + 0) = 0
                r1 += 1
                if w1 < 13 goto loop
                r0 = r1
                exit
            ",
        )
        .unwrap();
        let analysis = Analyzer::new(AnalyzerOptions {
            harvest_thresholds: false,
            ..AnalyzerOptions::default()
        })
        .analyze(&prog)
        .expect("32-bit guard refines the counter");
        let head = analysis.state_before(1).unwrap();
        let i = head.reg(Reg::R1).as_scalar().unwrap();
        assert_eq!((i.bounds().umin(), i.bounds().umax()), (0, 12));
        // And the refinement is ablatable like its 64-bit sibling.
        let unrefined = Analyzer::new(AnalyzerOptions {
            refine_branches: false,
            harvest_thresholds: false,
            ..AnalyzerOptions::default()
        });
        assert!(unrefined.analyze(&prog).is_err());
    }

    #[test]
    fn w32_branch_refinement_proves_bounds() {
        // 32-bit guard on an untrusted byte: `if w2 > 7` must bound the
        // (32-bit-clean) index for the store.
        accept(
            r"
                r2 = *(u8 *)(r1 + 0)
                if w2 > 7 goto out
                r3 = r10
                r3 += -16
                r3 += r2
                *(u8 *)(r3 + 0) = 1
                r0 = 1
                exit
            out:
                r0 = 0
                exit
            ",
        );
    }

    #[test]
    fn analysis_stats_expose_sharing() {
        let analysis = accept(MEMSET_13);
        let stats = analysis.stats();
        assert!(stats.states_shared > 0, "clones were shared");
        assert!(stats.states_allocated > 0, "some materialization happens");
        assert!(stats.visits > 0);
        // The whole point: far fewer deep copies than a clone-everything
        // engine would have performed.
        assert!(
            stats.states_allocated < stats.clone_everything_equivalent() / 2,
            "sharing must beat clone-everything: {stats:?}"
        );
    }

    #[test]
    fn nested_loops_reach_a_fixpoint() {
        let analysis = accept(
            r"
                r6 = 0
            outer:
                r1 = 0
            inner:
                r1 += 1
                if r1 < 4 goto inner
                r6 += 1
                if r6 < 4 goto outer
                r0 = r6
                exit
            ",
        );
        let exit_state = analysis.state_before(7).unwrap();
        let r0 = exit_state.reg(Reg::R0).as_scalar().unwrap();
        assert_eq!(r0.as_constant(), Some(4));
    }

    #[test]
    fn loop_carried_spill_stays_tracked() {
        // A spill written before the loop and only read inside it keeps
        // its value across the back-edge join.
        let analysis = accept(
            r"
                r1 = 99
                *(u64 *)(r10 - 8) = r1
                r2 = 0
            loop:
                r3 = *(u64 *)(r10 - 8)
                r2 += 1
                if r2 < 8 goto loop
                r0 = r3
                exit
            ",
        );
        let exit_state = analysis.state_before(7).unwrap();
        assert_eq!(
            exit_state.reg(Reg::R0).as_scalar().unwrap().as_constant(),
            Some(99)
        );
    }

    #[test]
    fn accepts_stack_round_trip_and_tracks_spill() {
        let analysis = accept(
            r"
                r1 = 42
                *(u64 *)(r10 - 8) = r1
                r2 = *(u64 *)(r10 - 8)
                r0 = r2
                exit
            ",
        );
        // Before exit, r0 is exactly 42: the spill was tracked.
        let state = analysis.state_before(4).unwrap();
        assert_eq!(
            state.reg(Reg::R0).as_scalar().unwrap().as_constant(),
            Some(42)
        );
    }

    #[test]
    fn rejects_uninit_stack_read() {
        assert!(matches!(
            reject("r0 = *(u64 *)(r10 - 8)\nexit"),
            VerifierError::UninitStackRead { pc: 0 }
        ));
    }

    #[test]
    fn rejects_oob_stack_access() {
        assert!(matches!(
            reject("*(u64 *)(r10 - 520) = 0\nr0 = 0\nexit"),
            VerifierError::OutOfBounds {
                region: "stack",
                ..
            }
        ));
        assert!(matches!(
            reject("*(u8 *)(r10 + 0) = 0\nr0 = 0\nexit"),
            VerifierError::OutOfBounds {
                region: "stack",
                ..
            }
        ));
    }

    #[test]
    fn rejects_oob_ctx_access() {
        // Default ctx_size is 64.
        assert!(matches!(
            reject("r0 = *(u8 *)(r1 + 64)\nexit"),
            VerifierError::OutOfBounds { region: "ctx", .. }
        ));
        accept("r0 = *(u8 *)(r1 + 63)\nexit");
    }

    #[test]
    fn rejects_scalar_dereference() {
        assert!(matches!(
            reject("r2 = 100\nr0 = *(u8 *)(r2 + 0)\nexit"),
            VerifierError::BadPointer {
                reg: Reg::R2,
                pc: 1
            }
        ));
    }

    #[test]
    fn masked_index_bounds_stack_access() {
        // The paper's §I pattern: mask an untrusted value, then index.
        accept(
            r"
                r2 = *(u8 *)(r1 + 0)
                r2 &= 7
                r3 = r10
                r3 += -8
                r3 += r2
                *(u8 *)(r3 - 1) = 0     ; offsets [-9, -2] ⊂ [-512, 0)
                r0 = 0
                exit
            ",
        );
        // Without the mask the same program must be rejected.
        assert!(matches!(
            reject(
                r"
                    r2 = *(u8 *)(r1 + 0)
                    r3 = r10
                    r3 += -8
                    r3 += r2
                    *(u8 *)(r3 - 1) = 0
                    r0 = 0
                    exit
                ",
            ),
            VerifierError::OutOfBounds {
                region: "stack",
                ..
            }
        ));
    }

    #[test]
    fn branch_refinement_proves_bounds() {
        // if r2 > 7 we bail; otherwise r2 <= 7 makes the access safe.
        accept(
            r"
                r2 = *(u8 *)(r1 + 0)
                if r2 > 7 goto out
                r3 = r10
                r3 += -16
                r3 += r2
                *(u8 *)(r3 + 0) = 1
                r0 = 1
                exit
            out:
                r0 = 0
                exit
            ",
        );
    }

    #[test]
    fn disabling_branch_refinement_loses_the_proof() {
        let opts = AnalyzerOptions {
            refine_branches: false,
            ..AnalyzerOptions::default()
        };
        let prog = assemble(
            r"
                r2 = *(u8 *)(r1 + 0)
                if r2 > 7 goto out
                r3 = r10
                r3 += -16
                r3 += r2
                *(u8 *)(r3 + 0) = 1
                r0 = 1
                exit
            out:
                r0 = 0
                exit
            ",
        )
        .unwrap();
        assert!(Analyzer::new(opts).analyze(&prog).is_err());
        assert!(Analyzer::new(AnalyzerOptions::default())
            .analyze(&prog)
            .is_ok());
    }

    #[test]
    fn strict_alignment_uses_tnum() {
        // r2 = byte & ~3 is 4-aligned; a u32 access through it is fine.
        let strict = AnalyzerOptions {
            strict_alignment: true,
            ..AnalyzerOptions::default()
        };
        let aligned = assemble(
            r"
                r2 = *(u8 *)(r1 + 0)
                r2 &= 60             ; 4-aligned, <= 60
                r3 = r1
                r3 += r2
                r0 = *(u32 *)(r3 + 0)
                exit
            ",
        )
        .unwrap();
        Analyzer::new(AnalyzerOptions {
            ctx_size: 64,
            ..strict.clone()
        })
        .analyze(&aligned)
        .expect("aligned access accepted");

        // Without the mask's low bits cleared, alignment is unprovable.
        let misaligned = assemble(
            r"
                r2 = *(u8 *)(r1 + 0)
                r2 &= 63
                r3 = r1
                r3 += r2
                r0 = *(u32 *)(r3 + 0)
                exit
            ",
        )
        .unwrap();
        let err = Analyzer::new(AnalyzerOptions {
            ctx_size: 68,
            ..strict
        })
        .analyze(&misaligned)
        .unwrap_err();
        assert!(matches!(err, VerifierError::Misaligned { size: 4, .. }));
    }

    #[test]
    fn infeasible_branches_are_pruned() {
        // r2 == 3 and r2 > 7 cannot both hold; the bad access is dead.
        let analysis = accept(
            r"
                r2 = 3
                if r2 > 7 goto bad
                r0 = 0
                exit
            bad:
                r3 = 0
                r0 = *(u8 *)(r3 + 0)   ; would be rejected if reachable
                exit
            ",
        );
        assert!(analysis.unreachable().contains(&4));
    }

    #[test]
    fn infeasible_w32_branches_are_pruned() {
        // The 32-bit view of r2 is 3; `w2 > 7` is impossible.
        let analysis = accept(
            r"
                r2 = 3
                if w2 > 7 goto bad
                r0 = 0
                exit
            bad:
                r3 = 0
                r0 = *(u8 *)(r3 + 0)   ; would be rejected if reachable
                exit
            ",
        );
        assert!(analysis.unreachable().contains(&4));
    }

    #[test]
    fn join_widens_at_merge_points() {
        let analysis = accept(
            r"
                r2 = 4
                if r1 == 0 goto other
                r2 = 8
                goto end
            other:
                r2 = 4
            end:
                r0 = r2
                exit
            ",
        );
        let state = analysis.state_before(6).unwrap();
        let r2 = state.reg(Reg::R2).as_scalar().unwrap();
        assert!(r2.contains(4) && r2.contains(8));
        assert!(!r2.contains(5), "tnum knows low bits are 0: {r2:?}");
    }

    #[test]
    fn call_clobbers_caller_saved() {
        assert!(matches!(
            reject("r1 = 1\ncall 7\nr0 = r1\nexit"),
            VerifierError::UninitRead {
                reg: Reg::R1,
                pc: 2
            }
        ));
        accept("call 7\nexit"); // r0 defined by the call
    }

    #[test]
    fn variable_stack_write_smears_then_reads_ok() {
        accept(
            r"
                r2 = *(u8 *)(r1 + 0)
                r2 &= 7
                *(u64 *)(r10 - 8) = 0
                *(u64 *)(r10 - 16) = 0
                r3 = r10
                r3 += -16
                r3 += r2
                *(u8 *)(r3 + 0) = 9     ; variable offset within [-16, -9]
                r4 = *(u64 *)(r10 - 8)  ; still initialized (now Misc)
                r0 = r4
                exit
            ",
        );
    }

    #[test]
    fn pointer_minus_pointer_is_scalar() {
        let analysis = accept(
            r"
                r3 = r10
                r3 += -8
                r4 = r10
                r4 -= r3
                r0 = r4
                exit
            ",
        );
        let state = analysis.state_before(5).unwrap();
        assert_eq!(
            state.reg(Reg::R0).as_scalar().unwrap().as_constant(),
            Some(8)
        );
    }

    #[test]
    fn pointer_times_scalar_rejected() {
        assert!(matches!(
            reject("r3 = r10\nr3 *= 2\nr0 = 0\nexit"),
            VerifierError::BadPointerArithmetic { pc: 1 }
        ));
    }

    // ---- VerificationSession and the path-sensitive strategy ----

    fn path_session() -> VerificationSession {
        VerificationSession::new().with_strategy(Strategy::PathSensitive)
    }

    const MEMSET_16: &str = r"
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
    ";

    #[test]
    fn facade_and_session_agree_and_tag_strategies() {
        let prog = assemble("r0 = 3\nexit").unwrap();
        let via_facade = Analyzer::new(AnalyzerOptions::default())
            .analyze(&prog)
            .unwrap();
        assert_eq!(via_facade.strategy(), Strategy::WideningFixpoint);
        let via_session = path_session().run(&prog).unwrap();
        assert_eq!(via_session.strategy(), Strategy::PathSensitive);
        // Both report the same exit state on this trivial program.
        let c = |a: &Analysis| {
            a.state_before(1)
                .unwrap()
                .reg(Reg::R0)
                .as_scalar()
                .unwrap()
                .as_constant()
        };
        assert_eq!(c(&via_facade), Some(3));
        assert_eq!(c(&via_session), Some(3));
    }

    #[test]
    fn path_sensitive_unrolls_memset16_exactly_without_widening() {
        // unroll_k (default 32) >= 16 trips: every trip is explored with
        // its own exact state — no join at the head, no widening at all —
        // and the exit bound is *exact*, where the fixpoint needs
        // widening + narrowing to recover it.
        let prog = assemble(MEMSET_16).unwrap();
        let analysis = path_session().run(&prog).expect("unrolled memset");
        let stats = analysis.stats();
        assert_eq!(stats.widenings_applied, 0, "pure unrolling: {stats:?}");
        assert!(stats.unrolled_trips >= 16, "{stats:?}");
        let r0 = analysis
            .state_before(8)
            .unwrap()
            .reg(Reg::R0)
            .as_scalar()
            .unwrap();
        assert_eq!(r0.as_constant(), Some(16), "exact exit counter");
        // The reported head state is the join over the 16 per-trip
        // states: the full counter window.
        let i = analysis
            .state_before(1)
            .unwrap()
            .reg(Reg::R1)
            .as_scalar()
            .unwrap();
        assert_eq!((i.bounds().umin(), i.bounds().umax()), (0, 15));
    }

    /// The two-back-edge counter+accumulator loop of
    /// `per_register_delay_verifies_counter_plus_accumulator`, shared by
    /// the path-sensitive tests below.
    const TWO_BACK_EDGE: &str = r"
        r1 = 0              ; i
        r6 = 0              ; sum
    loop:
        r3 = r10
        r3 += -13
        r3 += r1
        *(u8 *)(r3 + 0) = 0 ; in bounds iff i <= 12
        r1 += 1
        r6 += 1
        if r1 > 12 goto out
        if r2 > 0 goto loop ; back-edge 1
        r6 += 7
        goto loop           ; back-edge 2
    out:
        r0 = r1
        exit
    ";

    #[test]
    fn path_sensitive_unrolls_counter_plus_accumulator_exactly() {
        // 13 trips <= default unroll_k: exact per-trip states, no
        // widening — the per-register delay machinery the fixpoint needs
        // for this program is not even consulted.
        let prog = assemble(TWO_BACK_EDGE).unwrap();
        let analysis = path_session().run(&prog).expect("unrolled loop");
        assert_eq!(analysis.stats().widenings_applied, 0);
        let r0 = analysis
            .state_before(prog.len() - 1)
            .unwrap()
            .reg(Reg::R0)
            .as_scalar()
            .unwrap();
        assert_eq!(r0.as_constant(), Some(13), "exact exit counter");
    }

    #[test]
    fn path_sensitive_prunes_and_widens_past_the_unroll_bound() {
        // With unroll_k = 4 < 13 trips, the head falls back to widening
        // (landing on the harvested `12` threshold, so the program still
        // verifies with the exact exit bound) and the stabilized summary
        // prunes every later arrival — the `is_state_visited` effect.
        let prog = assemble(TWO_BACK_EDGE).unwrap();
        let analysis = path_session()
            .with_options(AnalyzerOptions {
                unroll_k: 4,
                ..AnalyzerOptions::default()
            })
            .run(&prog)
            .expect("widening fallback keeps the bound via thresholds");
        let stats = analysis.stats();
        assert!(stats.widenings_applied > 0, "fallback widened: {stats:?}");
        assert!(stats.states_pruned > 0, "summary pruned: {stats:?}");
        assert!(stats.subset_checks >= stats.states_pruned);
        let r0 = analysis
            .state_before(prog.len() - 1)
            .unwrap()
            .reg(Reg::R0)
            .as_scalar()
            .unwrap();
        assert_eq!(r0.as_constant(), Some(13), "branch refinement pins exit");
    }

    #[test]
    fn path_sensitive_unrolls_nested_loops_freshly_per_entry() {
        // The inner head's unroll budget restarts on every outer trip:
        // 8 outer × 8 inner arrivals stay well inside unroll_k = 32
        // *per entry* (cumulatively they would exhaust it mid-run and
        // silently widen — the regression this test pins down).
        let analysis = path_session()
            .run(
                &assemble(
                    r"
                    r6 = 0
                outer:
                    r1 = 0
                inner:
                    r1 += 1
                    if r1 < 8 goto inner
                    r6 += 1
                    if r6 < 8 goto outer
                    r0 = r6
                    exit
                ",
                )
                .unwrap(),
            )
            .expect("nested bounded loops unroll");
        assert_eq!(
            analysis.stats().widenings_applied,
            0,
            "per-entry budgets: {:?}",
            analysis.stats()
        );
        let r0 = analysis
            .state_before(7)
            .unwrap()
            .reg(Reg::R0)
            .as_scalar()
            .unwrap();
        assert_eq!(r0.as_constant(), Some(8), "exact nested exit");
    }

    #[test]
    fn path_sensitive_reports_joined_merge_states_and_unreachable() {
        // The reported state at a merge point is the join over the
        // explored paths, and branches infeasible on every path stay
        // unreachable — `unreachable()`/`state_before()` behave exactly
        // as under the fixpoint.
        let prog = assemble(
            r"
                r2 = 4
                if r1 == 0 goto other
                r2 = 8
                goto end
            other:
                r2 = 4
            end:
                r0 = r2
                exit
            ",
        )
        .unwrap();
        let analysis = path_session().run(&prog).unwrap();
        let r2 = analysis
            .state_before(6)
            .unwrap()
            .reg(Reg::R2)
            .as_scalar()
            .unwrap();
        assert!(r2.contains(4) && r2.contains(8), "join over both paths");

        let prog = assemble(
            r"
                r2 = 3
                if r2 > 7 goto bad
                r0 = 0
                exit
            bad:
                r3 = 0
                r0 = *(u8 *)(r3 + 0)
                exit
            ",
        )
        .unwrap();
        let analysis = path_session().run(&prog).unwrap();
        assert!(analysis.unreachable().contains(&4));
        assert!(analysis.state_before(4).is_none());
    }

    #[test]
    fn path_sensitive_terminates_unbounded_loops_by_fallback_widening() {
        // No exit test: unrolling alone would diverge. Past unroll_k the
        // head widens the counter to ⊤ and the unbounded store is
        // rejected — same verdict as the fixpoint, reached path-wise.
        let prog = assemble(
            r"
                r1 = 0
            loop:
                r3 = r10
                r3 += -13
                r3 += r1
                *(u8 *)(r3 + 0) = 0
                r1 += 1
                goto loop
            ",
        )
        .unwrap();
        assert!(matches!(
            path_session().run(&prog).unwrap_err(),
            VerifierError::OutOfBounds {
                region: "stack",
                ..
            }
        ));
        // A harmless unbounded loop is *accepted*: the summary
        // stabilizes and prunes the lap.
        let analysis = path_session()
            .run(&assemble("l:\nr0 = 0\ngoto l\nexit").unwrap())
            .unwrap();
        assert!(analysis.unreachable().contains(&2));
        assert!(analysis.stats().states_pruned > 0);
    }

    #[test]
    fn path_sensitive_budget_exhaustion_is_reported() {
        let prog = assemble(MEMSET_16).unwrap();
        let err = path_session()
            .with_options(AnalyzerOptions {
                analysis_budget: 6,
                ..AnalyzerOptions::default()
            })
            .run(&prog)
            .unwrap_err();
        assert!(matches!(
            err,
            VerifierError::AnalysisBudgetExhausted { budget: 6, .. }
        ));
    }

    #[test]
    fn reject_loops_is_a_session_policy_for_every_strategy() {
        let prog = assemble("l:\nr0 = 0\ngoto l\nexit").unwrap();
        for strategy in Strategy::ALL {
            let err = VerificationSession::new()
                .with_strategy(strategy)
                .with_options(AnalyzerOptions {
                    reject_loops: true,
                    ..AnalyzerOptions::default()
                })
                .run(&prog)
                .unwrap_err();
            assert!(
                matches!(err, VerifierError::LoopDetected { .. }),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn custom_strategies_plug_in_through_explore_with() {
        // The trait is the extension seam: a portfolio strategy that
        // runs path-sensitively and falls back to the fixpoint composes
        // from the outside, no engine changes needed.
        struct PathThenFixpoint;
        impl crate::explore::ExplorationStrategy for PathThenFixpoint {
            fn name(&self) -> &'static str {
                "path-then-fixpoint"
            }
            fn explore(
                &self,
                prog: &Program,
                options: &AnalyzerOptions,
            ) -> Result<Exploration, VerifierError> {
                crate::explore::PathSensitive
                    .explore(prog, options)
                    .or_else(|_| crate::explore::WideningFixpoint.explore(prog, options))
            }
        }
        let strategy = PathThenFixpoint;
        assert_eq!(strategy.name(), "path-then-fixpoint");
        let session = VerificationSession::new();
        let prog = assemble(MEMSET_16).unwrap();
        let exploration = session
            .explore_with(&strategy, &prog)
            .expect("path-sensitive leg accepts");
        assert_eq!(exploration.stats.widenings_applied, 0, "path leg ran");
        // Session policies still apply to custom strategies.
        let strict = session.with_options(AnalyzerOptions {
            reject_loops: true,
            ..AnalyzerOptions::default()
        });
        assert!(matches!(
            strict.explore_with(&strategy, &prog).unwrap_err(),
            VerifierError::LoopDetected { .. }
        ));
    }
}
