//! Pluggable exploration strategies: *how* the analyzer walks a program
//! is a first-class choice, not a hardwired worklist.
//!
//! The [`ExplorationStrategy`] trait is the seam between the transfer
//! layer (one abstract instruction step, [`crate::transfer`]) and the
//! driver that schedules those steps. Two built-in strategies implement
//! it, selectable through [`Strategy`] on a
//! [`VerificationSession`](crate::VerificationSession):
//!
//! * [`WideningFixpoint`] — the reverse-postorder priority worklist of
//!   [`crate::fixpoint`]: joins every path at merge points, widens at
//!   loop heads (per-register delay + harvested thresholds), narrows
//!   once. One state cell per instruction; cost is near-linear in the
//!   program, precision pays the join/widening toll.
//! * [`PathSensitive`] — a kernel-style depth-first branch walker: each
//!   conditional forks an O(1) copy-on-write state, a per-pc
//!   [`VisitedTable`](crate::visited::VisitedTable) prunes any arrival
//!   included in an already-explored state (the kernel's
//!   `is_state_visited`), the first
//!   [`AnalyzerOptions::unroll_k`](crate::AnalyzerOptions::unroll_k)
//!   trips of every loop are unrolled with full per-trip precision, and
//!   past the bound the loop head falls back to widening (with the same
//!   harvested thresholds), so unbounded loops still terminate.
//!
//! A third strategy, [`PathParallel`](crate::parshard::PathParallel)
//! (`Strategy::PathParallel`), is the work-stealing parallel sibling of
//! [`PathSensitive`]: independent DFS subtrees become stealable jobs,
//! pruning runs against a shared
//! [`ConcurrentVisitedTable`](crate::visited::ConcurrentVisitedTable),
//! and verdicts/errors/reported joins stay bit-identical to the
//! sequential walk — see [`crate::parshard`].
//!
//! All return an [`Exploration`] — per-instruction states plus
//! [`AnalysisStats`] — which the session tags with its [`Strategy`] into
//! an [`Analysis`](crate::Analysis). Every future scaling direction
//! (per-function caching, strategy portfolios) plugs in behind the same
//! trait.

use ebpf::Program;

use crate::analyzer::AnalyzerOptions;
use crate::cfg::Cfg;
use crate::error::VerifierError;
use crate::fixpoint::{self, AnalysisStats};
use crate::ledger;
use crate::state::{AbsState, JoinCounters, WidenCtx};
use crate::transfer::Transfer;
use crate::visited::VisitedTable;

/// The raw result of one exploration run: the abstract state *before*
/// every instruction (`None` for instructions proven unreachable) and
/// the run's counters. Wrapped into a strategy-tagged
/// [`Analysis`](crate::Analysis) by
/// [`VerificationSession::run`](crate::VerificationSession::run).
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Per-instruction abstract states; under [`PathSensitive`] each is
    /// the *join over the explored path states* reaching that pc.
    pub states: Vec<Option<AbsState>>,
    /// The run's sharing, widening, and pruning counters.
    pub stats: AnalysisStats,
}

/// An exploration strategy: a driver that schedules
/// [`Transfer`] steps over a program until every reachable instruction
/// has a sound abstract state — or the program is rejected.
///
/// Implementations own iteration order, state storage, pruning, and
/// termination (widening and/or budgets); they share the transfer layer,
/// so every safety check is identical across strategies.
pub trait ExplorationStrategy {
    /// A short stable name for logs, bench labels, and baselines.
    fn name(&self) -> &'static str;

    /// Runs the strategy over `prog`.
    ///
    /// # Errors
    ///
    /// A [`VerifierError`] from the transfer layer (the program is
    /// unsafe) or [`VerifierError::AnalysisBudgetExhausted`] when the
    /// exploration exceeds
    /// [`AnalyzerOptions::analysis_budget`].
    fn explore(
        &self,
        prog: &Program,
        options: &AnalyzerOptions,
    ) -> Result<Exploration, VerifierError>;
}

/// Built-in strategy selector for
/// [`VerificationSession`](crate::VerificationSession) — enum dispatch
/// over the two [`ExplorationStrategy`] implementations, and the tag an
/// [`Analysis`](crate::Analysis) carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The widening fixpoint worklist ([`WideningFixpoint`]) — the
    /// default, and the only engine previous revisions had.
    #[default]
    WideningFixpoint,
    /// The kernel-style path-sensitive explorer ([`PathSensitive`]).
    PathSensitive,
    /// The work-stealing parallel path explorer
    /// ([`PathParallel`](crate::parshard::PathParallel)): the
    /// path-sensitive walk sharded over
    /// [`AnalyzerOptions::explore_jobs`] workers with bit-identical
    /// verdicts, errors, and reported joins.
    PathParallel,
}

impl Strategy {
    /// Every built-in strategy, for sweeps and differential campaigns.
    pub const ALL: [Strategy; 3] = [
        Strategy::WideningFixpoint,
        Strategy::PathSensitive,
        Strategy::PathParallel,
    ];

    /// The implementation behind this selector.
    #[must_use]
    pub fn implementation(self) -> &'static dyn ExplorationStrategy {
        match self {
            Strategy::WideningFixpoint => &WideningFixpoint,
            Strategy::PathSensitive => &PathSensitive,
            Strategy::PathParallel => &crate::parshard::PathParallel,
        }
    }

    /// The strategy's stable name (`"fixpoint"` / `"path"` /
    /// `"parshard"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.implementation().name()
    }
}

/// The widening-fixpoint strategy: the RPO priority worklist with joins
/// at merge points, per-register delayed widening with harvested
/// thresholds at loop heads, one narrowing pass, and the visit budget —
/// see [`crate::fixpoint`] for the engine itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct WideningFixpoint;

impl ExplorationStrategy for WideningFixpoint {
    fn name(&self) -> &'static str {
        "fixpoint"
    }

    fn explore(
        &self,
        prog: &Program,
        options: &AnalyzerOptions,
    ) -> Result<Exploration, VerifierError> {
        let cfg = Cfg::build(prog);
        let transfer = Transfer::new(options.clone());
        let (states, stats) = fixpoint::run(&transfer, prog, &cfg, options)?;
        Ok(Exploration { states, stats })
    }
}

/// The kernel-style path-sensitive strategy: DFS over branch paths with
/// visited-state pruning and bounded loop unrolling.
///
/// Per arrival at an instruction the explorer:
///
/// 1. at a loop head, charges the path's per-head trip counter; within
///    [`AnalyzerOptions::unroll_k`] the trip is explored with full
///    per-trip precision (no join, no widening — this is what recovers
///    exact exit bounds the fixpoint's loop-head join destroys), past it
///    the arrival is widened into the head's *summary* state (delay 0,
///    harvested thresholds) and exploration continues from the summary —
///    the widening fallback that bounds the state space. An arrival that
///    does not grow the summary is pruned on the spot: the recorded
///    re-entry state's walk already covers it (this is what keeps a
///    second back-edge from re-walking the body every trip);
/// 2. at a *checkpoint* (loop head or merge point), probes the
///    [`VisitedTable`]: an arrival included in an already-explored state
///    is pruned (`is_state_visited`), otherwise it is recorded. Probes
///    are fingerprint-indexed — chains are scanned by 64-bit state
///    fingerprint with full inclusion checks reserved for fingerprint
///    matches plus a small newest-first budget — and chains are kept
///    short by dominance eviction and the
///    [`AnalyzerOptions::visited_cap`] chain cap;
/// 3. joins the arrival into the per-pc reported state (so
///    [`Analysis::state_before`](crate::Analysis::state_before) is the
///    join over explored paths) — an arrival the report already covers,
///    the common case once a pc has seen a few paths, costs one
///    early-exit inclusion scan inside [`AbsState::flow_join`] and
///    leaves the report untouched — then steps the transfer layer and
///    pushes every successor contribution with an O(1) state clone.
///
/// Termination: acyclic path segments are finite, every cycle passes a
/// loop head, and past the unroll bound the head's summary chain is a
/// widening sequence — once it stabilizes, the next arrival is included
/// in the recorded summary and pruned. The
/// [`AnalyzerOptions::analysis_budget`] still bounds the total work
/// (path explosion on branch-heavy programs surfaces as
/// [`VerifierError::AnalysisBudgetExhausted`], the kernel's complexity
/// limit).
#[derive(Clone, Copy, Debug, Default)]
pub struct PathSensitive;

impl ExplorationStrategy for PathSensitive {
    fn name(&self) -> &'static str {
        "path"
    }

    fn explore(
        &self,
        prog: &Program,
        options: &AnalyzerOptions,
    ) -> Result<Exploration, VerifierError> {
        let cfg = Cfg::build(prog);
        let transfer = Transfer::new(options.clone());
        let start = ledger::snapshot();
        let thresholds = fixpoint::harvest_thresholds(prog, &cfg, options);

        // Per-head trip counters and widening summaries, by the CFG's
        // dense loop-head index.
        let head_rpo = cfg.head_rpo();
        // The pass framework feeds checkpoint cleaning: every arrival
        // at a checkpoint drops its dead components (kernel
        // `clean_verifier_state`) *before* the summary join and the
        // visited probe, so paths differing only in dead registers or
        // slots fingerprint equally and prune each other, and loop-head
        // summaries never widen (or burn delay on) dead components.
        let passes = options
            .liveness_pruning
            .then(|| crate::passes::ProgramPasses::compute(prog, &cfg));

        let mut visited = VisitedTable::with_cap(prog.len(), options.visited_cap as usize);
        let mut report: Vec<Option<AbsState>> = vec![None; prog.len()];
        let mut summaries: Vec<Option<AbsState>> = vec![None; head_rpo.len()];
        let mut counters: Vec<JoinCounters> =
            head_rpo.iter().map(|_| JoinCounters::new()).collect();

        // The DFS worklist: `(pc, in-state, per-head trip counts)`.
        // Pushing a fork clones the state (two refcount bumps) and the
        // `Rc`'d trip vector (one more) — the copy-on-write layer is
        // what makes the multiplied live states affordable; the trip
        // counts only materialize at loop heads, where they change.
        let mut stack: Vec<(usize, AbsState, std::rc::Rc<Vec<u32>>)> = vec![(
            0,
            AbsState::entry(),
            std::rc::Rc::new(vec![0; head_rpo.len()]),
        )];
        let began = std::time::Instant::now();
        while let Some((pc, mut state, mut trips)) = stack.pop() {
            if ledger::add(1, |t| &t.visits) - start.visits > options.analysis_budget {
                return Err(VerifierError::AnalysisBudgetExhausted {
                    pc,
                    budget: options.analysis_budget,
                });
            }
            crate::analyzer::check_deadline(began, options, pc)?;
            crate::failpoint::fire(crate::failpoint::FaultSite::PathVisit);
            let h = cfg.head_index(pc);
            // Checkpoints — where paths can re-converge, so where pruning
            // can fire: loop heads plus merge points.
            let checkpoint = cfg.is_checkpoint(pc);
            if checkpoint {
                if let Some(p) = &passes {
                    let mask = p.live_in(pc);
                    state.clear_dead(mask.regs, mask.slots);
                }
            }
            if h != usize::MAX {
                // A new trip of this loop restarts the unroll budget of
                // every head nested inside it (later in RPO), so an
                // 8×8 nested loop unrolls 8 fresh inner trips per outer
                // trip instead of exhausting the inner budget across
                // outer iterations. Termination is untouched: in any
                // cycle, the head earliest in RPO is never reset by the
                // others, saturates, and drives the widening fallback.
                // (Resets never touch `h` itself — only heads later in
                // RPO — so the trip test below is unaffected by them.)
                let take_trip = trips[h] < options.unroll_k;
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
                    // Unrolled trip: keep the path state exact.
                    ledger::add(1, |t| &t.unrolled_trips);
                } else {
                    // Past the unroll bound: widen into the head's
                    // summary and continue from it. The trip counter
                    // stays saturated, so this path keeps flowing
                    // through the summary on every further lap.
                    match &mut summaries[h] {
                        slot @ None => *slot = Some(state.clone()),
                        Some(summary) => {
                            let grew = summary.flow_join(
                                &state,
                                Some(WidenCtx {
                                    counters: &mut counters[h],
                                    delay: 0,
                                    thresholds: &thresholds,
                                }),
                            );
                            // The widened re-entry state is recorded at
                            // the head (inserted below whenever it
                            // grows), so an arrival that adds nothing —
                            // typically the *second* back-edge of the
                            // same trip — is covered by the walk the
                            // summary already took: prune it here
                            // instead of re-walking the body. This is
                            // also what keeps the fallback terminating
                            // even if cap eviction dropped the recorded
                            // summary from the chain.
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
                let covered = if passes.is_some() {
                    visited.is_covered_masked(pc, &state)
                } else {
                    visited.is_covered(pc, &state)
                };
                if covered {
                    continue;
                }
                visited.insert(pc, state.clone());
            }
            match &mut report[pc] {
                slot @ None => *slot = Some(state.clone()),
                // In-place join: the accumulator materializes once and
                // then absorbs later paths without fresh allocations.
                Some(existing) => {
                    existing.flow_join(&state, None);
                }
            }
            for (succ, out) in transfer.step(prog, state, pc)? {
                stack.push((succ, out, trips.clone()));
            }
        }

        Ok(Exploration {
            states: report,
            stats: AnalysisStats {
                dead_insns: passes
                    .as_ref()
                    .map_or(0, crate::passes::ProgramPasses::dead_insns),
                ..ledger::since(start)
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_selector_round_trips_names() {
        assert_eq!(Strategy::default(), Strategy::WideningFixpoint);
        assert_eq!(Strategy::WideningFixpoint.name(), "fixpoint");
        assert_eq!(Strategy::PathSensitive.name(), "path");
        assert_eq!(Strategy::PathParallel.name(), "parshard");
        for s in Strategy::ALL {
            assert_eq!(s.implementation().name(), s.name());
        }
    }
}
