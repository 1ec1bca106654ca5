//! The per-pc visited-state table of the path-sensitive explorer —
//! the analogue of the kernel verifier's `explored_states` /
//! `is_state_visited` machinery, rebuilt around **state fingerprints**.
//!
//! The kernel prunes a branch the moment its verifier state is *included
//! in* a state it has already fully explored at the same instruction:
//! everything the new state could do, the old one already proved safe.
//! It also keeps its `explored_states` lists healthy — hashed lookup,
//! capped list lengths (`states_maxlen`-style), and dropping states a
//! newer insertion subsumes — because an unbounded linear scan of full
//! state comparisons grows quadratically on long loops. [`VisitedTable`]
//! applies the same hygiene:
//!
//! * **Fingerprint-indexed probes.** Each chain entry stores the state's
//!   64-bit [`AbsState::fingerprint`] next to it. A probe first compares
//!   fingerprints: a mismatch proves the candidate *unequal* in O(1)
//!   (the property suite pins `equal states ⟹ equal fingerprints`), so
//!   the expensive pointwise [`AbsState::is_subset_of`] runs only for
//!   fingerprint matches — plus a small newest-first budget of
//!   strict-inclusion probes ([`STRICT_PROBES`]), since a strictly
//!   smaller arrival can hide behind any fingerprint. Skipped candidates
//!   are counted as `fingerprint_rejects`. Skipping a
//!   probe is always sound: pruning is an optimization, and the
//!   equality path (which termination of the widening fallback leans
//!   on) is probed against the *entire* chain.
//! * **Dominance eviction.** Inserting a state compares it against the
//!   newest [`DOMINANCE_PROBES`] entries; any entry *included in* the
//!   newcomer is dropped — everything it covered, the newcomer covers.
//!   This is what keeps widening-fallback chains short: each widened
//!   summary subsumes (and evicts) its predecessor.
//! * **Chain caps.** Each pc keeps at most `cap` entries
//!   ([`crate::AnalyzerOptions::visited_cap`], default
//!   [`DEFAULT_CAP`]); a full chain evicts oldest-first, kernel-style.
//!   Evictions of both kinds are counted as `visited_evicted`.
//!
//! Both tables count the pruning ledger surfaced through
//! [`crate::AnalysisStats`] in the calling thread's counter ledger,
//! not in fields of their own: how many full inclusion probes ran
//! (`subset_checks`), how many candidates were dismissed by fingerprint
//! (`fingerprint_rejects`), how many entries were evicted
//! (`visited_evicted`), and how many branch states were pruned
//! (`states_pruned`) — benchmarked in `BENCH_PR5.json` and guarded by
//! CI (`fixpoint_guard` fails on `subset_checks` regressions at the
//! deep-unroll point).

use std::sync::Mutex;

use domain::parallel::lock_recover;

use crate::ledger;
use crate::state::{AbsState, SparseStack, REGS};
use crate::value::RegValue;

/// Default per-pc chain cap (the kernel caps its `explored_states`
/// lists the same way).
pub const DEFAULT_CAP: usize = 32;

/// Newest-first budget of full strict-inclusion probes per arrival:
/// candidates beyond it whose fingerprint already mismatched are skipped
/// outright. Newest entries are the likeliest covers (the most recent
/// trip or summary), so the budget is spent where pruning actually
/// fires.
const STRICT_PROBES: usize = 2;

/// Newest-first budget of dominance probes per insertion: how many
/// existing entries an insertion checks for being subsumed by the
/// newcomer. Widening chains grow monotonically, so the predecessor a
/// new summary dominates is always the newest entry.
const DOMINANCE_PROBES: usize = 2;

/// Strict-probe budget of the liveness-masked probe path
/// ([`VisitedTable::is_covered_masked`]): zero. Checkpoint cleaning
/// (`AbsState::clear_dead`) sets every dead component to its top, so
/// states that differ only in dead components *fingerprint equally* and
/// take the fingerprint-match probe; a mismatch means the live parts
/// genuinely differ, and spending deep probes on those rarely prunes.
const MASKED_STRICT_PROBES: usize = 0;

/// One recorded exploration: the state plus its cached fingerprint.
#[derive(Clone, Debug)]
struct Entry {
    fp: u64,
    state: AbsState,
}

/// Per-instruction chains of already-explored abstract states, with
/// fingerprint-gated inclusion pruning ([`VisitedTable::is_covered`])
/// and dominance and oldest-first eviction.
///
/// Entries are only recorded at *checkpoints* chosen by the explorer
/// (loop heads and control-flow merge points — where paths can actually
/// re-converge); straight-line instructions are never probed.
#[derive(Clone, Debug, Default)]
pub struct VisitedTable {
    buckets: Vec<Vec<Entry>>,
    cap: usize,
}

impl VisitedTable {
    /// An empty table for a program of `len` instructions, with the
    /// default per-pc chain cap ([`DEFAULT_CAP`]).
    #[must_use]
    pub fn new(len: usize) -> VisitedTable {
        VisitedTable::with_cap(len, DEFAULT_CAP)
    }

    /// An empty table with an explicit per-pc chain cap; `cap == 0`
    /// means unbounded chains (no capacity eviction).
    #[must_use]
    pub fn with_cap(len: usize, cap: usize) -> VisitedTable {
        VisitedTable {
            buckets: vec![Vec::new(); len],
            cap: if cap == 0 { usize::MAX } else { cap },
        }
    }

    /// Whether `state` is included in an already-recorded state at `pc`
    /// — if so, exploring it can prove nothing new and the caller should
    /// prune the path (counted as `states_pruned`).
    ///
    /// Newest entries are probed first: in a loop the most recent trip's
    /// state is the likeliest cover for a re-converging path. Candidates
    /// whose fingerprint matches get a full inclusion probe wherever
    /// they sit in the chain; mismatched candidates (provably unequal)
    /// get one only within the newest-first [`STRICT_PROBES`] budget and
    /// are otherwise dismissed in O(1).
    pub fn is_covered(&self, pc: usize, state: &AbsState) -> bool {
        self.probe(pc, state, STRICT_PROBES)
    }

    /// [`VisitedTable::is_covered`] for liveness-*cleaned* arrivals:
    /// identical semantics, but the strict-probe budget drops to
    /// [`MASKED_STRICT_PROBES`] — after `AbsState::clear_dead` has set
    /// every dead component to its top, arrivals that differ only in
    /// dead components already land on the fingerprint-match path, so
    /// deep probes on mismatched fingerprints buy almost nothing.
    /// Prunes through this path are additionally counted as
    /// `live_masked_prunes`.
    pub fn is_covered_masked(&self, pc: usize, state: &AbsState) -> bool {
        let covered = self.probe(pc, state, MASKED_STRICT_PROBES);
        ledger::add(u64::from(covered), |t| &t.live_masked_prunes);
        covered
    }

    /// The shared probe loop behind both covering checks, with an
    /// explicit newest-first budget of strict (fingerprint-mismatched)
    /// deep probes.
    fn probe(&self, pc: usize, state: &AbsState, strict_budget: usize) -> bool {
        let fp = state.fingerprint();
        let mut strict_left = strict_budget;
        let (mut checks, mut rejects) = (0u64, 0u64);
        let mut covered = false;
        for seen in self.buckets[pc].iter().rev() {
            let full_probe = if seen.fp == fp {
                true
            } else if strict_left > 0 {
                strict_left -= 1;
                true
            } else {
                rejects += 1;
                false
            };
            if full_probe {
                checks += 1;
                if state.is_subset_of(&seen.state) {
                    covered = true;
                    break;
                }
            }
        }
        count_probe(checks, rejects, covered);
        covered
    }

    /// Records `state` as fully explored at `pc`, so later arrivals it
    /// covers are pruned.
    ///
    /// Insertion performs **dominance eviction** — the newest
    /// [`DOMINANCE_PROBES`] entries are dropped if the newcomer includes
    /// them (their pruning power is subsumed) — and then enforces the
    /// chain cap by evicting the oldest entry.
    pub fn insert(&mut self, pc: usize, state: AbsState) {
        let fp = state.fingerprint();
        let bucket = &mut self.buckets[pc];
        let lo = bucket.len().saturating_sub(DOMINANCE_PROBES);
        let checks = (bucket.len() - lo) as u64;
        let mut evicted = 0u64;
        for i in (lo..bucket.len()).rev() {
            if bucket[i].state.is_subset_of(&state) {
                bucket.remove(i);
                evicted += 1;
            }
        }
        while bucket.len() >= self.cap {
            bucket.remove(0);
            evicted += 1;
        }
        bucket.push(Entry { fp, state });
        count_insert(checks, evicted);
    }

    /// The surviving states recorded at `pc`, oldest first.
    ///
    /// This is *insertion order minus evictions*: dominance eviction and
    /// the chain cap may have removed entries anywhere in (respectively
    /// the newest and oldest end of) the chain, so consecutive returned
    /// states need not be consecutive insertions.
    pub fn entries(&self, pc: usize) -> impl ExactSizeIterator<Item = &AbsState> {
        self.buckets[pc].iter().map(|e| &e.state)
    }

    /// The join over every surviving state recorded at `pc`, or `None`
    /// when the instruction was never checkpointed — a single-state
    /// summary of a checkpoint for diagnostics and tooling. (The
    /// explorer itself reports per-pc joins through its own accumulator,
    /// which also covers non-checkpoint instructions.)
    #[must_use]
    pub fn joined(&self, pc: usize) -> Option<AbsState> {
        let (first, rest) = self.buckets[pc].split_first()?;
        if rest.is_empty() {
            // The common single-entry checkpoint: an `AbsState` clone is
            // two `Rc` bumps, so the summary *shares* the entry's
            // components outright — zero bytes materialized.
            return Some(first.state.clone());
        }
        // One O(1) clone of the first entry seeds the fold; `union`
        // already shares unchanged components, so the accumulator never
        // deep-copies what the entries agree on.
        Some(
            rest.iter()
                .fold(first.state.clone(), |acc, e| acc.union(&e.state)),
        )
    }

    /// Total number of states recorded across all instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Whether no state has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Vec::is_empty)
    }
}

/// Counts one covering probe: `checks` full inclusion checks,
/// `rejects` fingerprint dismissals, and whether it pruned.
fn count_probe(checks: u64, rejects: u64, pruned: bool) {
    ledger::add(checks, |t| &t.subset_checks);
    ledger::add(rejects, |t| &t.fingerprint_rejects);
    ledger::add(u64::from(pruned), |t| &t.states_pruned);
}

/// Counts one insertion: `checks` dominance probes and `evicted`
/// entries dropped (dominated or past the chain cap).
fn count_insert(checks: u64, evicted: u64) {
    ledger::add(checks, |t| &t.subset_checks);
    ledger::add(evicted, |t| &t.visited_evicted);
}

/// Notes a prune that happened outside the tables — a path explorer's
/// loop-head summary covering an arrival without a chain probe — so the
/// `states_pruned`/`subset_checks` ledger stays complete (the cover was
/// established by the inclusion scan `flow_join` opens with).
pub(crate) fn note_summary_prune() {
    count_probe(1, 0, true);
}

/// How many lock stripes a [`ConcurrentVisitedTable`] spreads its per-pc
/// chains over (bounded by the program length): pc `i` lives in stripe
/// `i % stripes`, so the hot checkpoints of a loop — consecutive pcs —
/// land in *different* stripes and workers probing different program
/// points rarely contend.
const STRIPES: usize = 64;

/// One recorded exploration in the shared table: the fingerprint plus
/// the state's dense [`AbsState::to_parts`] snapshot. `AbsState` is
/// `Rc`-backed and cannot cross threads; its snapshot is plain `Send`
/// data, and probes test arrivals against it in place
/// ([`AbsState::is_subset_of_parts`]) without ever rebuilding a state.
#[derive(Debug)]
struct SharedEntry {
    fp: u64,
    regs: [RegValue; REGS],
    chunks: SparseStack,
    /// The worker that inserted the entry — prunes observed by a
    /// *different* worker count as cross-worker `shared_prunes`.
    worker: usize,
}

/// The concurrent sibling of [`VisitedTable`] for the work-stealing
/// path explorer (`verifier::parshard`): per-pc fingerprint chains
/// sharded over [`STRIPES`] mutex stripes, with **identical**
/// cap/eviction/probe semantics — the same [`STRICT_PROBES`] /
/// [`MASKED_STRICT_PROBES`] budgets, the same newest-first
/// [`DOMINANCE_PROBES`] dominance eviction, the same oldest-first chain
/// cap — so a pruning decision made on one worker is immediately
/// visible to (and byte-for-byte the same decision as on) every other
/// worker.
///
/// States are stored as their dense `to_parts` snapshots (the same
/// representation `verifier::batch` ships finished analyses across
/// threads with), which keeps the table `Send + Sync` while `AbsState`
/// itself stays `Rc`-backed and allocation-cheap inside each worker.
/// Each worker counts its own probes and insertions in its thread's
/// counter ledger, under the same [`crate::AnalysisStats`] fields as the
/// sequential table, plus the cross-worker `shared_prunes` count.
#[derive(Debug)]
pub struct ConcurrentVisitedTable {
    /// `stripes[s]` holds the chains of pcs `s, s + n, s + 2n, …` where
    /// `n` is the stripe count; chain index within a stripe is `pc / n`.
    stripes: Vec<Mutex<Vec<Vec<SharedEntry>>>>,
    cap: usize,
}

impl ConcurrentVisitedTable {
    /// An empty shared table for a program of `len` instructions with an
    /// explicit per-pc chain cap; `cap == 0` means unbounded chains,
    /// exactly as in [`VisitedTable::with_cap`].
    #[must_use]
    pub fn with_cap(len: usize, cap: usize) -> ConcurrentVisitedTable {
        let stripes = STRIPES.min(len.max(1));
        ConcurrentVisitedTable {
            stripes: (0..stripes)
                .map(|s| {
                    // Chains for pcs s, s + stripes, … — div_ceil many.
                    let chains = len.saturating_sub(s).div_ceil(stripes);
                    Mutex::new((0..chains).map(|_| Vec::new()).collect())
                })
                .collect(),
            cap: if cap == 0 { usize::MAX } else { cap },
        }
    }

    /// [`VisitedTable::is_covered`], against the shared chains: whether
    /// `state` is included in a state *any* worker already recorded at
    /// `pc`. `worker` identifies the prober — a hit on an entry inserted
    /// by a different worker additionally counts as a cross-worker
    /// `shared_prunes` prune.
    pub fn is_covered(&self, pc: usize, state: &AbsState, worker: usize) -> bool {
        self.probe(pc, state, STRICT_PROBES, worker)
    }

    /// [`VisitedTable::is_covered_masked`], against the shared chains:
    /// the liveness-cleaned probe path with its zero strict-probe
    /// budget, counted as `live_masked_prunes` on a hit.
    pub fn is_covered_masked(&self, pc: usize, state: &AbsState, worker: usize) -> bool {
        let covered = self.probe(pc, state, MASKED_STRICT_PROBES, worker);
        ledger::add(u64::from(covered), |t| &t.live_masked_prunes);
        covered
    }

    /// The shared probe loop — the same newest-first fingerprint-gated
    /// walk as [`VisitedTable::probe`], under the pc's stripe lock.
    fn probe(&self, pc: usize, state: &AbsState, strict_budget: usize, worker: usize) -> bool {
        let fp = state.fingerprint();
        let n = self.stripes.len();
        // Poison recovery: a contained worker panic can only have left
        // the stripe's chains structurally intact (entries are appended
        // or removed whole under the lock), so siblings keep probing —
        // at worst a prune opportunity is missing.
        let stripe = lock_recover(&self.stripes[pc % n]);
        // Fired while the stripe lock is held (see FaultSite docs).
        crate::failpoint::fire(crate::failpoint::FaultSite::VisitedProbe);
        let mut strict_left = strict_budget;
        let (mut checks, mut rejects) = (0u64, 0u64);
        let mut hit = None;
        for seen in stripe[pc / n].iter().rev() {
            let full_probe = if seen.fp == fp {
                true
            } else if strict_left > 0 {
                strict_left -= 1;
                true
            } else {
                rejects += 1;
                false
            };
            if full_probe {
                checks += 1;
                if state.is_subset_of_parts(&seen.regs, &seen.chunks) {
                    hit = Some(seen.worker);
                    break;
                }
            }
        }
        drop(stripe);
        count_probe(checks, rejects, hit.is_some());
        let shared = hit.is_some_and(|inserter| inserter != worker);
        ledger::add(u64::from(shared), |t| &t.shared_prunes);
        hit.is_some()
    }

    /// [`VisitedTable::insert`], against the shared chains: records
    /// `state`'s snapshot at `pc` on behalf of `worker`, with the same
    /// newest-first dominance eviction and oldest-first chain cap.
    pub fn insert(&self, pc: usize, state: &AbsState, worker: usize) {
        let fp = state.fingerprint();
        let (regs, chunks) = state.to_parts();
        let n = self.stripes.len();
        let (mut checks, mut evicted) = (0u64, 0u64);
        {
            let mut stripe = lock_recover(&self.stripes[pc % n]);
            let bucket = &mut stripe[pc / n];
            let lo = bucket.len().saturating_sub(DOMINANCE_PROBES);
            for i in (lo..bucket.len()).rev() {
                checks += 1;
                if crate::state::AbsState::parts_subset_of_parts(
                    (&bucket[i].regs, &bucket[i].chunks),
                    (&regs, &chunks),
                ) {
                    bucket.remove(i);
                    evicted += 1;
                }
            }
            while bucket.len() >= self.cap {
                bucket.remove(0);
                evicted += 1;
            }
            bucket.push(SharedEntry {
                fp,
                regs,
                chunks,
                worker,
            });
        }
        count_insert(checks, evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;
    use crate::value::RegValue;
    use ebpf::Reg;

    fn with_r3(c: u64) -> AbsState {
        let mut s = AbsState::entry();
        s.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(c)));
        s
    }

    #[test]
    fn covers_equal_and_included_states_only() {
        let start = ledger::snapshot();
        let mut table = VisitedTable::new(4);
        let a = with_r3(1);
        assert!(!table.is_covered(2, &a), "empty bucket covers nothing");
        table.insert(2, a.clone());
        // Identical state: covered (fingerprint match, one probe).
        assert!(table.is_covered(2, &a));
        // A strictly smaller state is covered too (strict-probe path:
        // its fingerprint differs from the recorded join's)…
        let joined = a.union(&with_r3(5));
        table.insert(2, joined);
        assert!(table.is_covered(2, &with_r3(5)));
        // …but a different pc is a different bucket…
        assert!(!table.is_covered(3, &a));
        // …and an incomparable state is not covered.
        assert!(!table.is_covered(2, &with_r3(9)));
        let counted = ledger::since(start);
        assert_eq!(counted.states_pruned, 2);
        assert!(counted.subset_checks >= counted.states_pruned);
        assert!(!table.is_empty());
    }

    #[test]
    fn dominance_eviction_drops_subsumed_entries() {
        let start = ledger::snapshot();
        let mut table = VisitedTable::new(2);
        let a = with_r3(1);
        table.insert(1, a.clone());
        assert_eq!(table.entries(1).len(), 1);
        // The join subsumes `a`: inserting it evicts `a`, and anything
        // `a` covered is still covered by the survivor.
        let joined = a.union(&with_r3(5));
        table.insert(1, joined);
        assert_eq!(table.entries(1).len(), 1, "dominated entry evicted");
        assert_eq!(ledger::since(start).visited_evicted, 1);
        assert!(table.is_covered(1, &a), "survivor still covers");
        // An incomparable insertion evicts nothing.
        table.insert(1, with_r3(9));
        assert_eq!(table.entries(1).len(), 2);
        assert_eq!(ledger::since(start).visited_evicted, 1);
    }

    #[test]
    fn chain_cap_evicts_oldest_first() {
        let start = ledger::snapshot();
        let mut table = VisitedTable::with_cap(1, 2);
        table.insert(0, with_r3(1));
        table.insert(0, with_r3(2));
        table.insert(0, with_r3(3)); // displaces with_r3(1)
        assert_eq!(table.entries(0).len(), 2);
        assert_eq!(ledger::since(start).visited_evicted, 1);
        // The oldest entry is gone: its state no longer covers.
        assert!(!table.is_covered(0, &with_r3(1)));
        assert!(table.is_covered(0, &with_r3(3)), "newest survives");
        // cap == 0 means unbounded.
        let start = ledger::snapshot();
        let mut unbounded = VisitedTable::with_cap(1, 0);
        for k in 0..100 {
            unbounded.insert(0, with_r3(k));
        }
        assert_eq!(unbounded.entries(0).len(), 100);
        assert_eq!(ledger::since(start).visited_evicted, 0);
    }

    #[test]
    fn fingerprint_mismatches_skip_deep_probes_past_the_budget() {
        let mut table = VisitedTable::with_cap(1, 0);
        for k in 0..16 {
            table.insert(0, with_r3(100 + k));
        }
        let before = ledger::snapshot();
        // An incomparable arrival: every candidate's fingerprint
        // mismatches, so only the strict-probe budget runs deep checks
        // and the rest are O(1) rejects.
        assert!(!table.is_covered(0, &with_r3(7)));
        let probe = ledger::since(before);
        assert_eq!(probe.subset_checks, 2);
        assert_eq!(probe.fingerprint_rejects, 14);
        // An arrival *equal* to the oldest entry is still found: the
        // fingerprint match forces the deep probe wherever it sits.
        assert!(table.is_covered(0, &with_r3(100)));
    }

    #[test]
    fn masked_probes_skip_every_mismatched_fingerprint() {
        let mut table = VisitedTable::with_cap(1, 0);
        for k in 0..16 {
            table.insert(0, with_r3(100 + k));
        }
        let before = ledger::snapshot();
        // Incomparable arrival: all fingerprints mismatch, and the
        // masked path spends no strict probes on them at all.
        assert!(!table.is_covered_masked(0, &with_r3(7)));
        let probe = ledger::since(before);
        assert_eq!(probe.subset_checks, 0, "no deep probes");
        assert_eq!(probe.fingerprint_rejects, 16);
        assert_eq!(probe.live_masked_prunes, 0);
        // The equality path is untouched: a fingerprint match forces
        // the deep probe wherever the entry sits in the chain.
        assert!(table.is_covered_masked(0, &with_r3(100)));
        let probes = ledger::since(before);
        assert_eq!(probes.live_masked_prunes, 1);
        assert_eq!(probes.states_pruned, 1);
    }

    #[test]
    fn joined_is_the_union_over_entries() {
        let mut table = VisitedTable::new(2);
        assert!(table.joined(1).is_none());
        table.insert(1, with_r3(1));
        table.insert(1, with_r3(4));
        let j = table.joined(1).expect("two entries");
        let r3 = j.reg(Reg::R3).as_scalar().unwrap();
        assert!(r3.contains(1) && r3.contains(4));
        assert_eq!(table.entries(1).len(), 2);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn joined_single_entry_is_an_rc_share_with_zero_bytes_materialized() {
        let mut table = VisitedTable::new(2);
        table.insert(1, with_r3(7));
        let start = ledger::snapshot();
        let j = table.joined(1).expect("one entry");
        let traffic = ledger::since(start);
        assert_eq!(
            traffic.bytes_materialized, 0,
            "a single-entry join must not materialize anything"
        );
        assert_eq!(traffic.states_allocated, 0);
        // The summary literally shares the entry's components.
        let entry = table.entries(1).next().unwrap();
        assert!(j.shares_regs_with(entry) && j.shares_stack_with(entry));
    }

    #[test]
    fn concurrent_table_matches_sequential_probe_semantics() {
        // The same insert/probe script against both tables must make the
        // same decisions and count the same ledger (the concurrent table
        // is a drop-in for one worker).
        let mut seq = VisitedTable::with_cap(4, 0);
        let par = ConcurrentVisitedTable::with_cap(4, 0);
        // Incomparable arrival: strict budget + fingerprint rejects.
        let seq_start = ledger::snapshot();
        for k in 0..16 {
            seq.insert(0, with_r3(100 + k));
        }
        assert!(!seq.is_covered(0, &with_r3(7)));
        let seq_counted = ledger::since(seq_start);
        let par_start = ledger::snapshot();
        for k in 0..16 {
            par.insert(0, &with_r3(100 + k), 0);
        }
        assert!(!par.is_covered(0, &with_r3(7), 0));
        let par_counted = ledger::since(par_start);
        assert_eq!(seq_counted.subset_checks, par_counted.subset_checks);
        assert_eq!(
            seq_counted.fingerprint_rejects,
            par_counted.fingerprint_rejects
        );
        // Equality hit deep in the chain; a strictly smaller arrival hits
        // through the strict budget.
        assert!(par.is_covered(0, &with_r3(100), 0));
        let joined = with_r3(1).union(&with_r3(5));
        par.insert(1, &joined, 0);
        assert!(par.is_covered(1, &with_r3(5), 0));
        let par_counted = ledger::since(par_start);
        assert_eq!(par_counted.states_pruned, 2);
        // Same-worker prunes are not "shared".
        assert_eq!(par_counted.shared_prunes, 0);
        // Masked probes spend no strict probes on mismatches.
        let before = ledger::snapshot();
        assert!(!par.is_covered_masked(0, &with_r3(7), 0));
        let masked = ledger::since(before);
        assert_eq!(masked.subset_checks, 0);
        assert_eq!(masked.live_masked_prunes, 0);
    }

    #[test]
    fn concurrent_table_counts_cross_worker_prunes() {
        let start = ledger::snapshot();
        let par = ConcurrentVisitedTable::with_cap(2, 0);
        par.insert(1, &with_r3(3), 0);
        // Worker 1 pruned by worker 0's entry: a shared prune.
        assert!(par.is_covered(1, &with_r3(3), 1));
        assert_eq!(ledger::since(start).shared_prunes, 1);
        // Worker 0 pruned by its own entry: not shared.
        assert!(par.is_covered(1, &with_r3(3), 0));
        let counted = ledger::since(start);
        assert_eq!(counted.shared_prunes, 1);
        assert_eq!(counted.states_pruned, 2);
    }

    #[test]
    fn concurrent_table_dominance_eviction_and_chain_cap() {
        // Dominance: a covering insertion evicts the newest entries it
        // subsumes, exactly as in the sequential table.
        let start = ledger::snapshot();
        let par = ConcurrentVisitedTable::with_cap(2, 0);
        par.insert(1, &with_r3(1), 0);
        let joined = with_r3(1).union(&with_r3(5));
        par.insert(1, &joined, 0);
        assert_eq!(ledger::since(start).visited_evicted, 1);
        assert!(par.is_covered(1, &with_r3(1), 0), "survivor still covers");
        // Chain cap: oldest-first displacement.
        let start = ledger::snapshot();
        let capped = ConcurrentVisitedTable::with_cap(1, 2);
        capped.insert(0, &with_r3(1), 0);
        capped.insert(0, &with_r3(2), 0);
        capped.insert(0, &with_r3(3), 0);
        assert_eq!(ledger::since(start).visited_evicted, 1);
        assert!(!capped.is_covered(0, &with_r3(1), 0), "oldest evicted");
        assert!(capped.is_covered(0, &with_r3(3), 0), "newest survives");
    }

    #[test]
    fn concurrent_table_stripes_cover_every_pc() {
        // More pcs than stripes: every pc must map to its own chain.
        let par = ConcurrentVisitedTable::with_cap(200, 0);
        for pc in 0..200 {
            par.insert(pc, &with_r3(pc as u64), 0);
        }
        for pc in 0..200 {
            assert!(par.is_covered(pc, &with_r3(pc as u64), 0), "pc {pc}");
            assert!(!par.is_covered(pc, &with_r3(pc as u64 + 1000), 0));
        }
    }

    #[test]
    fn concurrent_table_probes_spilled_stack_snapshots() {
        use crate::state::StackSlot;
        // A state with a spilled slot: the snapshot keeps the chunk
        // dense, and probes compare slotwise (Uninit covers everything,
        // a spill covers only included spills).
        let mut spilled = AbsState::entry();
        spilled.set_stack_slot(-8, StackSlot::Spill(RegValue::Scalar(Scalar::constant(9))));
        let par = ConcurrentVisitedTable::with_cap(1, 0);
        par.insert(0, &spilled, 0);
        assert!(par.is_covered(0, &spilled, 0), "equal spill covers");
        // The entry (all-Uninit stack = ⊤) covers the spilled arrival…
        let entry = AbsState::entry();
        par.insert(0, &entry, 0);
        assert!(par.is_covered(0, &spilled, 0));
        // …but the spilled entry does not cover an all-Uninit arrival
        // (Uninit only fits under Uninit): probe a fresh table.
        let only_spill = ConcurrentVisitedTable::with_cap(1, 0);
        only_spill.insert(0, &spilled, 0);
        assert!(!only_spill.is_covered(0, &entry, 0));
    }
}
