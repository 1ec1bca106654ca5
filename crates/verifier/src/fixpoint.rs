//! The fixpoint layer: the reverse-postorder priority worklist, the
//! per-register delayed-widening/narrowing schedule, the visit budget,
//! and the [`AnalysisStats`] every strategy reports (read from the
//! thread-local counter ledger as the delta over one run).
//!
//! The engine knows nothing about instruction semantics — it asks
//! [`crate::transfer::Transfer`] for successor contributions and owns
//! only *how* states flow: joins at merge points
//! ([`crate::AbsState::flow_join`]), per-component widening at loop heads
//! (each register and stack slot burns its own
//! [`crate::AnalyzerOptions::widen_delay`], see
//! [`crate::state::JoinCounters`]), widening thresholds harvested from
//! the program's comparison immediates, and one narrowing pass after
//! stabilization.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ebpf::{Insn, Program, Src};
use interval_domain::WidenThresholds;

use crate::analyzer::AnalyzerOptions;
use crate::cfg::Cfg;
use crate::error::VerifierError;
use crate::explore::Setup;
use crate::ledger;
use crate::state::{AbsState, JoinCounters, WidenCtx};

/// Counters describing one analysis run — the observable effect of the
/// copy-on-write state layer and (under the path-sensitive strategy) of
/// kernel-style visited-state pruning, emitted by the fixpoint bench
/// (`BENCH_PR10.json`) and guarded by CI against regression.
///
/// Every field except `dead_insns`, `subtrees_spawned`, `steals` and
/// `degradations` is kept in the thread-local counter ledger, which
/// never resets: an engine reports the difference between the ledger at
/// the run's start and at its end, so runs on one thread never disturb
/// each other. The four owner-set fields come from the pass framework,
/// the parallel explorer and the session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Deep copies of a register file or stack frame actually performed
    /// (materializations of shared components plus fresh allocations).
    /// The clone-everything engine of PR 2 performed two of these for
    /// *every* state clone and join.
    pub states_allocated: u64,
    /// `AbsState` clones that only bumped refcounts — each one is a
    /// full-state deep copy the previous engine would have made.
    pub states_shared: u64,
    /// Joins/inclusion checks that resolved a whole component (register
    /// file or stack frame) by pointer identity without pointwise work.
    /// A `flow_join` whose operand the accumulator already covers
    /// returns before any component is looked at, so covered joins do
    /// not count here.
    pub joins_short_circuited: u64,
    /// Widening operator applications to individual registers or stack
    /// slots at loop heads.
    pub widenings_applied: u64,
    /// Instruction visits consumed from the analysis budget.
    pub visits: u64,
    /// Branch states discarded because they were included in an
    /// already-explored state at the same instruction (the kernel's
    /// `is_state_visited` pruning). Always zero under the widening
    /// fixpoint, which joins instead of pruning.
    pub states_pruned: u64,
    /// Full `AbsState::is_subset_of` probes run against the
    /// visited-state table (covering probes plus dominance-eviction
    /// probes) — the cost side of the pruning ledger, and the counter
    /// the `fixpoint_guard` deep-unroll gate regresses on.
    pub subset_checks: u64,
    /// Loop-head arrivals explored with full per-trip precision, within
    /// the path-sensitive strategy's
    /// [`AnalyzerOptions::unroll_k`](crate::AnalyzerOptions::unroll_k)
    /// unroll bound.
    pub unrolled_trips: u64,
    /// Visited-table probe candidates dismissed in O(1) on fingerprint
    /// mismatch, without a full inclusion check — each one is a
    /// pointwise `is_subset_of` the pre-fingerprint table would have
    /// run.
    pub fingerprint_rejects: u64,
    /// Visited-table entries dropped from pruning chains: dominated by
    /// a newer insertion, or displaced oldest-first by the per-pc chain
    /// cap ([`AnalyzerOptions::visited_cap`](crate::AnalyzerOptions::visited_cap)).
    pub visited_evicted: u64,
    /// Bytes copied by all state materializations (register files,
    /// stack chunks, and chunk spines) — the working-set proxy showing
    /// what chunked copy-on-write frames save over whole-frame copies.
    /// A `flow_join` of a covered operand materializes nothing, so it
    /// adds nothing here.
    pub bytes_materialized: u64,
    /// Transfer memo cache lookups served from a verified entry
    /// (operand equality confirmed — see [`crate::memo::TransferMemo`]).
    /// Zero when [`AnalyzerOptions::memo_cache`] is `None`, the
    /// default.
    pub memo_hits: u64,
    /// Transfer memo cache lookups that found no entry (or only a
    /// colliding one with different operands) and computed afresh.
    /// Zero without a memo cache, like the other two memo fields.
    pub memo_misses: u64,
    /// Transfer memo entries this run's inserts displaced through the
    /// per-shard capacity caps. Zero without a memo cache.
    pub memo_evicted: u64,
    /// Arrivals pruned through the liveness-masked visited probe
    /// ([`crate::VisitedTable::is_covered_masked`]) — the pruning wins
    /// attributable to checkpoint cleaning under
    /// [`AnalyzerOptions::liveness_pruning`]. A subset of
    /// `states_pruned`; always zero under the widening fixpoint and
    /// with masking off.
    pub live_masked_prunes: u64,
    /// Registers and stack slots reset to their uninitialized top by
    /// checkpoint cleaning (`AbsState::clear_dead`) because the
    /// liveness pass proved them dead.
    pub dead_components_cleared: u64,
    /// Statically dead instructions the pass framework found:
    /// unreachable from the entry, or side-effect-free definitions
    /// whose result is never read. Zero with
    /// [`AnalyzerOptions::liveness_pruning`] off (the passes never
    /// run).
    pub dead_insns: u64,
    /// DFS subtrees packaged as stealable jobs by the parallel path
    /// explorer ([`Strategy::PathParallel`](crate::Strategy)). Zero for
    /// the sequential strategies.
    pub subtrees_spawned: u64,
    /// Jobs an idle worker took from another worker's deque
    /// ([`StealPool`](domain::parallel::StealPool) steals). Zero for
    /// the sequential strategies.
    pub steals: u64,
    /// Path prunes where the covering entry in the shared
    /// [`ConcurrentVisitedTable`](crate::visited::ConcurrentVisitedTable)
    /// was inserted by a *different* worker — exploration one worker did
    /// that saved another worker's walk. Zero for the sequential
    /// strategies.
    pub shared_prunes: u64,
    /// Strategy downgrades the session's
    /// [`DegradationPolicy::Ladder`](crate::DegradationPolicy) took to
    /// produce this result after a governance failure (contained panic
    /// or blown deadline): `0` means the requested strategy succeeded
    /// directly, `1` that one re-run with the next-simpler strategy was
    /// needed, and so on. Set by the session, not the strategies (which
    /// always report `0`).
    pub degradations: u64,
}

impl AnalysisStats {
    /// Deep component copies an engine without structural sharing would
    /// have performed for the same run: two (register file + stack) per
    /// state clone, on top of what this engine still materialized.
    #[must_use]
    pub fn clone_everything_equivalent(&self) -> u64 {
        self.states_allocated + 2 * self.states_shared
    }

    /// Renders the counters as a JSON object fragment (hand-rolled — the
    /// workspace is dependency-free), for bench baselines.
    #[must_use]
    pub fn to_json_object(&self) -> String {
        format!(
            "{{\"states_allocated\": {}, \"states_shared\": {}, \
             \"joins_short_circuited\": {}, \"widenings_applied\": {}, \
             \"visits\": {}, \"states_pruned\": {}, \"subset_checks\": {}, \
             \"unrolled_trips\": {}, \"fingerprint_rejects\": {}, \
             \"visited_evicted\": {}, \"bytes_materialized\": {}, \
             \"memo_hits\": {}, \"memo_misses\": {}, \"memo_evicted\": {}, \
             \"live_masked_prunes\": {}, \"dead_components_cleared\": {}, \
             \"dead_insns\": {}, \"subtrees_spawned\": {}, \
             \"steals\": {}, \"shared_prunes\": {}, \"degradations\": {}}}",
            self.states_allocated,
            self.states_shared,
            self.joins_short_circuited,
            self.widenings_applied,
            self.visits,
            self.states_pruned,
            self.subset_checks,
            self.unrolled_trips,
            self.fingerprint_rejects,
            self.visited_evicted,
            self.bytes_materialized,
            self.memo_hits,
            self.memo_misses,
            self.memo_evicted,
            self.live_masked_prunes,
            self.dead_components_cleared,
            self.dead_insns,
            self.subtrees_spawned,
            self.steals,
            self.shared_prunes,
            self.degradations
        )
    }
}

/// Harvests widening thresholds from the program's conditional-jump
/// immediates — the constants of `if rX op N` guards — so a widened
/// bound can land on the loop's actual exit test (classic "widening with
/// thresholds") instead of a register-width extreme.
///
/// Immediates are widened exactly as the comparison will see them:
/// sign-extended for 64-bit jumps, **zero-extended** for 32-bit jumps
/// (`if w8 < -5` compares against `0xffff_fffb` on the zero-extended
/// sub-register, so that is the useful rung, not the sign-extended
/// 64-bit pattern).
///
/// Shared with the path explorers' widening fallback
/// ([`crate::explore::PathSensitive`], [`crate::PathParallel`]), so every
/// strategy extrapolates through the same program-derived ladder.
/// Thresholds only matter where widening can fire: acyclic programs (the
/// bulk of real workloads) and [`AnalyzerOptions::harvest_thresholds`]
/// off skip the scan and get [`WidenThresholds::EMPTY`].
pub(crate) fn harvest_thresholds(
    prog: &Program,
    cfg: &Cfg,
    options: &AnalyzerOptions,
) -> WidenThresholds {
    if !options.harvest_thresholds || cfg.back_edges().is_empty() {
        return WidenThresholds::EMPTY;
    }
    WidenThresholds::harvest(prog.insns().iter().filter_map(|insn| match insn {
        Insn::Jmp {
            width,
            src: Src::Imm(v),
            ..
        } => Some(match width {
            ebpf::Width::W64 => *v as i64,
            ebpf::Width::W32 => i64::from(*v as u32),
        }),
        _ => None,
    }))
}

/// Runs the worklist to a (widened) post-fixpoint and applies one
/// narrowing pass, returning per-instruction states and the run's
/// sharing statistics.
///
/// # Errors
///
/// A [`VerifierError`] from the transfer layer (the program is unsafe)
/// or [`VerifierError::AnalysisBudgetExhausted`] when the iteration
/// exceeds its visit budget.
pub(crate) fn run(
    setup: &Setup,
    prog: &Program,
    options: &AnalyzerOptions,
) -> Result<(Vec<Option<AbsState>>, AnalysisStats), VerifierError> {
    let start = ledger::snapshot();
    let cfg = &setup.cfg;

    // Checkpoint cleaning: states flowing into a loop head or merge
    // point drop their dead components first, so contributions
    // differing only in dead registers/slots subset-skip instead of
    // re-joining, and dead components never burn widening delay.
    // Cleaning to `Uninit` (the join/order top) is monotone, so the
    // fixpoint stays a sound over-approximation on live components.
    let mut entry = AbsState::entry();
    setup.clean(0, &mut entry);
    let mut states: Vec<Option<AbsState>> = vec![None; prog.len()];
    states[0] = Some(entry);
    // Per-loop-head, per-component changing-join counters driving the
    // per-register delayed widening (allocated lazily: only heads join).
    let mut counters: Vec<Option<Box<JoinCounters>>> = vec![None; prog.len()];

    // Priority worklist: always pop the pending instruction earliest
    // in reverse postorder, so inner regions settle before outer ones
    // re-fire (the classic weak-topological iteration strategy).
    let mut queue: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
    let mut queued = vec![false; prog.len()];
    queue.push(Reverse((cfg.rpo_pos(0), 0)));
    queued[0] = true;

    let began = std::time::Instant::now();
    while let Some(Reverse((_, pc))) = queue.pop() {
        queued[pc] = false;
        if ledger::add(1, |t| &t.visits) - start.visits > options.analysis_budget {
            return Err(VerifierError::AnalysisBudgetExhausted {
                pc,
                budget: options.analysis_budget,
            });
        }
        crate::analyzer::check_deadline(began, options, pc)?;
        crate::failpoint::fire(crate::failpoint::FaultSite::FixpointVisit);
        let state = states[pc]
            .clone()
            .expect("queued instructions have a state");
        for (succ, mut out) in setup.transfer.step(prog, state, pc)? {
            setup.clean(succ, &mut out);
            let changed = match &mut states[succ] {
                slot @ None => {
                    *slot = Some(out);
                    true
                }
                Some(existing) => {
                    let widen = cfg.is_loop_head(succ).then(|| WidenCtx {
                        counters: counters[succ].get_or_insert_with(Default::default),
                        delay: options.widen_delay,
                        thresholds: &setup.thresholds,
                    });
                    existing.flow_join(&out, widen)
                }
            };
            if changed && !queued[succ] {
                queued[succ] = true;
                queue.push(Reverse((cfg.rpo_pos(succ), succ)));
            }
        }
    }

    // Acyclic programs never widen: the single worklist pass already
    // computed the exact join states, and narrowing would reproduce
    // them verbatim at the cost of re-running every transfer.
    let states = if cfg.back_edges().is_empty() {
        states
    } else {
        narrow(setup, prog, &states)?
    };

    Ok((
        states,
        AnalysisStats {
            dead_insns: setup.dead_insns(),
            ..ledger::since(start)
        },
    ))
}

/// The narrowing pass: one plain-join recomputation of every reachable
/// state from the stabilized `states`. From a post-fixpoint, one
/// application of the (monotone) transfer functions stays a
/// post-fixpoint while undoing over-extrapolated widening jumps — e.g. a
/// loop head re-tightens to `entry ⊔ refined back-edge`.
fn narrow(
    setup: &Setup,
    prog: &Program,
    states: &[Option<AbsState>],
) -> Result<Vec<Option<AbsState>>, VerifierError> {
    let mut narrowed: Vec<Option<AbsState>> = vec![None; prog.len()];
    let mut entry = AbsState::entry();
    setup.clean(0, &mut entry);
    narrowed[0] = Some(entry);
    for &pc in setup.cfg.rpo() {
        let Some(state) = states[pc].clone() else {
            continue;
        };
        for (succ, mut out) in setup.transfer.step(prog, state, pc)? {
            // The same checkpoint cleaning the widened pass applied:
            // narrowing must not resurrect dead components the
            // fixpoint already dropped.
            setup.clean(succ, &mut out);
            match &mut narrowed[succ] {
                slot @ None => *slot = Some(out),
                // In-place join: the cell materializes once and then
                // absorbs later edges without fresh allocations.
                Some(existing) => {
                    existing.flow_join(&out, None);
                }
            }
        }
    }
    Ok(narrowed)
}
