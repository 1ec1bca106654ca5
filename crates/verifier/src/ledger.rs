//! The per-thread counter ledger behind [`AnalysisStats`].
//!
//! Every tally an analysis run reports — state traffic, memo traffic,
//! visits, the visited-table pruning ledger, unrolled trips and cleared
//! dead components — is one `Cell<u64>` in a thread-local ledger, so
//! the layers that do the work (the state layer, the memo, the visited
//! tables, the engines) count it with a single thread-local add and no
//! `&mut stats` threading.
//!
//! The counters only go up; nothing ever resets them. A run records
//! `let start = ledger::snapshot()` when it begins and reports
//! `ledger::since(start)`, so nested and back-to-back runs on one
//! thread never disturb each other's figures. Work done on other
//! threads (the parallel explorer's workers) reaches the calling thread
//! through [`credit`], which is what lets an outer reader — the batch
//! engine around each program — see everything a run burned, including
//! abandoned ladder rungs and rejected runs that report no stats of
//! their own.
//!
//! The fields the ledger does not hold (`dead_insns`,
//! `subtrees_spawned`, `steals`, `degradations`) are left at zero and
//! set by the code that owns them.

use std::cell::Cell;

use crate::fixpoint::AnalysisStats;

macro_rules! tallies {
    ($($field:ident),* $(,)?) => {
        /// One running total per ledger-held [`AnalysisStats`] field.
        pub(crate) struct Tallies {
            $(pub(crate) $field: Cell<u64>,)*
        }

        thread_local! {
            static LEDGER: Tallies = const { Tallies { $($field: Cell::new(0),)* } };
        }

        /// This thread's running totals (the `start` of a run).
        pub(crate) fn snapshot() -> AnalysisStats {
            LEDGER.with(|l| AnalysisStats {
                $($field: l.$field.get(),)*
                ..AnalysisStats::default()
            })
        }

        /// What this thread counted since `start` was taken.
        pub(crate) fn since(start: AnalysisStats) -> AnalysisStats {
            LEDGER.with(|l| AnalysisStats {
                $($field: l.$field.get() - start.$field,)*
                ..AnalysisStats::default()
            })
        }

        /// Adds the ledger-held fields of `delta` — work counted on
        /// another thread — to this thread's totals.
        pub(crate) fn credit(delta: &AnalysisStats) {
            LEDGER.with(|l| {
                $(l.$field.set(l.$field.get() + delta.$field);)*
            });
        }
    };
}

tallies!(
    states_allocated,
    states_shared,
    joins_short_circuited,
    widenings_applied,
    visits,
    states_pruned,
    subset_checks,
    unrolled_trips,
    fingerprint_rejects,
    visited_evicted,
    bytes_materialized,
    memo_hits,
    memo_misses,
    memo_evicted,
    live_masked_prunes,
    dead_components_cleared,
    shared_prunes,
);

/// Adds `n` to the tally `field` selects, returning its new running
/// total: `ledger::add(1, |t| &t.visits)`.
#[inline]
pub(crate) fn add(n: u64, field: impl FnOnce(&Tallies) -> &Cell<u64>) -> u64 {
    LEDGER.with(|l| {
        let cell = field(l);
        let total = cell.get() + n;
        cell.set(total);
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AbsState, AnalyzerOptions, MemoEffect, MemoKey, Scalar, Strategy, TransferMemo,
        VerificationSession, VisitedTable,
    };
    use ebpf::asm::assemble;
    use ebpf::{AluOp, Width};
    use std::sync::Arc;

    #[test]
    fn since_reads_the_delta_and_credit_adds_to_it() {
        let start = snapshot();
        add(3, |t| &t.visits);
        add(1, |t| &t.memo_hits);
        let mut delta = since(start);
        assert_eq!((delta.visits, delta.memo_hits), (3, 1));
        // A second reader that started later sees only its own window.
        let later = snapshot();
        add(2, |t| &t.visits);
        assert_eq!(since(later).visits, 2);
        // Owner-set fields are never carried by the ledger.
        delta.steals = 9;
        credit(&delta);
        let total = since(start);
        assert_eq!((total.visits, total.memo_hits, total.steals), (8, 2, 0));
    }

    #[test]
    fn every_thread_keeps_its_own_ledger() {
        let start = snapshot();
        let other = std::thread::spawn(|| {
            let start = snapshot();
            add(5, |t| &t.subset_checks);
            since(start)
        })
        .join()
        .expect("worker finishes");
        assert_eq!(other.subset_checks, 5);
        assert_eq!(since(start).subset_checks, 0, "not counted here");
        credit(&other);
        assert_eq!(since(start).subset_checks, 5);
    }

    #[test]
    fn runs_report_the_same_stats_however_the_thread_was_used() {
        // A loop with a branch inside: every strategy visits, joins or
        // prunes, widens or unrolls, and looks up the memo.
        let prog = assemble(
            r"
            r2 = *(u8 *)(r1 + 0)
            r1 = 0
        loop:
            r3 = r10
            r3 += -16
            r3 += r1
            *(u8 *)(r3 + 0) = 0
            if r2 > 7 goto skip
            r2 += 1
        skip:
            r1 += 1
            if r1 < 16 goto loop
            r0 = r1
            exit
        ",
        )
        .expect("assembles");
        // A fresh session with a fresh (opt-in) memo per run; one
        // explorer job keeps the parallel strategy's counters
        // deterministic.
        let run = |strategy: Strategy| {
            VerificationSession::new()
                .with_options(AnalyzerOptions {
                    explore_jobs: 1,
                    memo_cache: Some(Arc::new(TransferMemo::new())),
                    ..AnalyzerOptions::default()
                })
                .with_strategy(strategy)
                .run(&prog)
                .expect("accepted")
                .stats()
        };
        for strategy in Strategy::ALL {
            let first = run(strategy);
            assert!(first.visits > 0 && first.memo_misses > 0, "{first:?}");
            assert_eq!(run(strategy), first, "{strategy:?}: second run");
            let fresh = std::thread::scope(|s| s.spawn(|| run(strategy)).join());
            assert_eq!(fresh.expect("runs"), first, "{strategy:?}: fresh thread");
            // Unrelated table and memo traffic on this thread.
            let mut table = VisitedTable::new(1);
            table.insert(0, AbsState::entry());
            assert!(table.is_covered(0, &AbsState::entry()));
            let memo = TransferMemo::new();
            let key = MemoKey::alu(Width::W64, AluOp::Add, 1, 2);
            let one = Scalar::constant(1);
            assert!(memo.lookup(key, one, one).is_none());
            memo.insert(key, one, one, MemoEffect::Alu(Scalar::constant(2)));
            assert!(memo.lookup(key, one, one).is_some());
            assert_eq!(run(strategy), first, "{strategy:?}: after other traffic");
        }
    }
}
