//! Golden lock on the path explorer's per-pc reports: the `annotate`
//! log plus every initialized stack slot under
//! `Strategy::PathSensitive`, for every fixture and two programs shaped
//! like the benchmark's `deep_paths` workload. The report at a pc is the
//! join over every explored path reaching it, so any change to how
//! arrivals fold into it (`AbsState::flow_join`) shows up here. The
//! parallel path explorer (`Strategy::PathParallel`) runs the same
//! per-arrival step and promises bit-identical reports, so the same
//! file is checked under it too, at one and two jobs and at spawn
//! depth 0 and the default.
//!
//! After an intended change to the reports, rewrite the golden file with
//! `cargo test --test path_reports -- --ignored` and review its diff.

use ebpf::asm::assemble;
use ebpf::Program;
use verifier::{AnalyzerOptions, StackSlot, Strategy, VerificationSession};

const GOLDEN_PATH: &str = "tests/golden/path_reports.txt";
const GOLDEN: &str = include_str!("golden/path_reports.txt");

/// Programs shaped like `deep_paths`, beside the fixtures.
const INLINE: [(&str, &str); 2] = [
    // A depth-4 branch tree: 16 paths with distinct `r6` feed a 20-trip
    // loop, so the report at every loop pc folds many unrolled arrivals.
    (
        "branch_tree_depth4_loop20",
        "r2 = *(u8 *)(r1 + 0)\nr6 = 0\n\
         r3 = r2\nr3 >>= 0\nr3 &= 1\nif r3 > 0 goto join0\nr6 += 1\njoin0:\n\
         r3 = r2\nr3 >>= 1\nr3 &= 1\nif r3 > 0 goto join1\nr6 += 2\njoin1:\n\
         r3 = r2\nr3 >>= 2\nr3 &= 1\nif r3 > 0 goto join2\nr6 += 4\njoin2:\n\
         r3 = r2\nr3 >>= 3\nr3 &= 1\nif r3 > 0 goto join3\nr6 += 8\njoin3:\n\
         r7 = 0\nloop:\nr4 = r7\nr4 += r6\nr4 &= 15\nr3 = r10\nr3 += -16\nr3 += r4\n\
         *(u8 *)(r3 + 0) = 0\nr7 += 1\nif r7 < 20 goto loop\nr0 = r6\nexit\n",
    ),
    // 40 trips run past the default unroll bound (32) into the loop
    // head's widening summary.
    (
        "masked_memset_40",
        "r1 = 0\nloop:\nr2 = r1\nr2 &= 15\nr3 = r10\nr3 += -16\nr3 += r2\n\
         *(u8 *)(r3 + 0) = 0\nr1 += 1\nif r1 < 40 goto loop\nr0 = r1\nexit\n",
    ),
];

/// Every `.ebpf` fixture (sorted by path) followed by [`INLINE`].
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
    for (label, src) in INLINE {
        out.push((label.to_string(), assemble(src).expect("assembles")));
    }
    out
}

/// The reports of every corpus program under `session`, one section
/// per program.
fn render(session: &VerificationSession) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (label, prog) in corpus() {
        let _ = writeln!(out, "== {label}");
        let analysis = match session.run(&prog) {
            Ok(analysis) => analysis,
            Err(e) => {
                let _ = writeln!(out, "REJECTED: {e}");
                continue;
            }
        };
        assert_eq!(analysis.strategy(), session.strategy(), "{label}");
        out.push_str(&analysis.annotate(&prog));
        for pc in 0..prog.len() {
            let Some(state) = analysis.state_before(pc) else {
                continue;
            };
            let slots: Vec<String> = (-512..0i64)
                .step_by(8)
                .filter_map(|off| match state.stack_slot(off)? {
                    StackSlot::Uninit => None,
                    StackSlot::Misc => Some(format!("{off}=misc")),
                    StackSlot::Spill(v) => Some(format!("{off}={v}")),
                })
                .collect();
            if !slots.is_empty() {
                let _ = writeln!(out, "{pc:>3}: stack {}", slots.join(" "));
            }
        }
    }
    out
}

fn path_session() -> VerificationSession {
    VerificationSession::new().with_strategy(Strategy::PathSensitive)
}

/// Fails at the first line where `session`'s reports leave the golden
/// file.
fn assert_matches_golden(session: &VerificationSession) {
    let got = render(session);
    let options = session.options();
    let run = format!(
        "{} at explore_jobs {} spawn_depth {}",
        session.strategy().name(),
        options.explore_jobs,
        options.spawn_depth
    );
    if let Some((i, (g, w))) = got
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!(
            "{GOLDEN_PATH} line {} ({run}):\n  golden: {w}\n  got:    {g}",
            i + 1
        );
    }
    assert_eq!(
        got, GOLDEN,
        "{GOLDEN_PATH} ({run}): reports differ in length"
    );
}

#[test]
fn path_reports_match_the_golden_file() {
    assert_matches_golden(&path_session());
}

#[test]
fn parshard_reports_match_the_golden_file() {
    let default_depth = AnalyzerOptions::default().spawn_depth;
    for explore_jobs in [1, 2] {
        for spawn_depth in [0, default_depth] {
            let options = AnalyzerOptions {
                explore_jobs,
                spawn_depth,
                ..AnalyzerOptions::default()
            };
            assert_matches_golden(
                &VerificationSession::new()
                    .with_options(options)
                    .with_strategy(Strategy::PathParallel),
            );
        }
    }
}

#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_the_golden_file() {
    std::fs::write(GOLDEN_PATH, render(&path_session())).expect("golden file writes");
}
