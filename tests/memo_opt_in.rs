//! The transfer memo is opt-in. A default session never touches it, and
//! turning it on changes nothing but the three memo counters: verdicts,
//! rejection messages, annotated logs and every other `AnalysisStats`
//! field are those of the default session.

use std::sync::Arc;

use ebpf::asm::assemble;
use ebpf::Program;
use verifier::{AnalysisStats, AnalyzerOptions, Strategy, TransferMemo, VerificationSession};

/// Rejected programs, so rejection messages are compared too: an
/// unchecked map-value dereference, an off-by-one stack store, and an
/// uninitialized read behind ALU work the memo would serve.
const REJECTED: [&str; 3] = [
    "*(u32 *)(r10 - 4) = 1\nr1 = map 0\nr2 = r10\nr2 += -4\ncall 1\n\
     r3 = *(u64 *)(r0 + 0)\nr0 = r3\nexit",
    "r1 = 0\nloop:\nr3 = r10\nr3 += -13\nr3 += r1\n*(u8 *)(r3 + 0) = 0\n\
     r1 += 1\nif r1 < 14 goto loop\nr0 = r1\nexit",
    "r2 = *(u8 *)(r1 + 0)\nr2 *= 3\nr2 &= 7\nr0 = r4\nexit",
];

/// Every `.ebpf` fixture plus the [`REJECTED`] programs, labelled.
fn corpus() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("fixtures").expect("fixtures directory") {
        let path = entry.expect("fixture entry").path();
        let src = std::fs::read_to_string(&path).expect("fixture reads");
        out.push((
            path.display().to_string(),
            assemble(&src).expect("fixture assembles"),
        ));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    for (i, src) in REJECTED.iter().enumerate() {
        out.push((format!("rejected[{i}]"), assemble(src).expect("assembles")));
    }
    out
}

/// A session under `strategy` with one explorer job (so the parallel
/// strategy's counters are deterministic), with or without a fresh memo.
fn session(strategy: Strategy, memo: bool) -> VerificationSession {
    VerificationSession::new()
        .with_strategy(strategy)
        .with_options(AnalyzerOptions {
            explore_jobs: 1,
            memo_cache: memo.then(|| Arc::new(TransferMemo::new())),
            ..AnalyzerOptions::default()
        })
}

fn memo_traffic(s: &AnalysisStats) -> (u64, u64, u64) {
    (s.memo_hits, s.memo_misses, s.memo_evicted)
}

/// `s` with the three memo counters zeroed.
fn without_memo(s: AnalysisStats) -> AnalysisStats {
    AnalysisStats {
        memo_hits: 0,
        memo_misses: 0,
        memo_evicted: 0,
        ..s
    }
}

#[test]
fn default_options_leave_the_memo_off() {
    assert!(AnalyzerOptions::default().memo_cache.is_none());
    assert!(VerificationSession::new().options().memo_cache.is_none());
}

#[test]
fn default_sessions_report_no_memo_traffic() {
    let corpus = corpus();
    let progs: Vec<Program> = corpus.iter().map(|(_, p)| p.clone()).collect();
    for strategy in Strategy::ALL {
        let session = VerificationSession::new().with_strategy(strategy);
        for (label, prog) in &corpus {
            if let Ok(analysis) = session.run(prog) {
                let stats = analysis.stats();
                assert_eq!(
                    memo_traffic(&stats),
                    (0, 0, 0),
                    "{label} under {strategy:?}"
                );
            }
        }
        let report = session.run_batch(&progs, 2);
        let batch = &report.stats;
        assert_eq!(
            (batch.memo_hits, batch.memo_misses, batch.memo_evicted),
            (0, 0, 0),
            "run_batch under {strategy:?}"
        );
        for (res, (label, _)) in report.results.iter().zip(&corpus) {
            if let Ok(analysis) = res {
                let stats = analysis.stats();
                assert_eq!(memo_traffic(&stats), (0, 0, 0), "batched {label}");
            }
        }
    }
}

#[test]
fn turning_the_memo_on_changes_only_the_memo_counters() {
    let mut rejected = 0;
    let mut memo_lookups = 0;
    for strategy in Strategy::ALL {
        for (label, prog) in corpus() {
            let what = format!("{label} under {strategy:?}");
            match (
                session(strategy, false).run(&prog),
                session(strategy, true).run(&prog),
            ) {
                (Ok(off), Ok(on)) => {
                    assert_eq!(on.strategy(), off.strategy(), "{what}");
                    assert_eq!(on.annotate(&prog), off.annotate(&prog), "{what}");
                    assert_eq!(memo_traffic(&off.stats()), (0, 0, 0), "{what}");
                    assert_eq!(without_memo(on.stats()), off.stats(), "{what}");
                    memo_lookups += on.stats().memo_hits + on.stats().memo_misses;
                }
                (Err(off), Err(on)) => {
                    assert_eq!(on, off, "{what}");
                    assert_eq!(on.to_string(), off.to_string(), "{what}");
                    rejected += 1;
                }
                (off, on) => panic!(
                    "{what}: verdict changed, default {:?} vs memo {:?}",
                    off.err(),
                    on.err()
                ),
            }
        }
    }
    assert_eq!(rejected, REJECTED.len() * Strategy::ALL.len());
    assert!(memo_lookups > 0, "the memo-on sessions consulted the memo");
}
