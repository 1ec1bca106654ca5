//! The exploration-strategy sweep shared by the `fixpoint` bench and the
//! `fixpoint_guard` CI binary: the masked-memset workload across trip
//! counts × widening delays (fixpoint strategy) × unroll bounds
//! (path-sensitive strategy), the two-back-edge pruning workload, the
//! spill-heavy workload behind the chunked-frame `bytes_materialized`
//! numbers, the visited-cap ablation at the deep-unroll point, the
//! batched `throughput/` family (the 64-program mixed batch per worker
//! count), the parallel-exploration `parshard/` family (branchy-tree
//! and deep-unroll workloads per job count), the map-helper `maps/`
//! family (the fixture-shaped lookup filter and update loop under both
//! strategies), the [`AnalysisStats`] collection, and the hand-rolled
//! JSON baseline format (`BENCH_PR9.json`).
//!
//! Keeping the sweep definition in one place guarantees the guard checks
//! exactly the configurations the committed baseline was produced from.

use std::sync::Arc;

use ebpf::asm::assemble;
use ebpf::Program;
use verifier::{
    AnalysisStats, AnalyzerOptions, BatchStats, Strategy, TransferMemo, VerificationSession,
};

/// The session every suite configuration runs: `strategy` under
/// `options`, with a fresh transfer memo turned on. The memo is off by
/// default, but the committed `BENCH_PR10.json` baseline was recorded
/// with it on; turning it on here keeps every row like-for-like with
/// that baseline, `fixpoint_guard`'s memo-hit gate included.
#[must_use]
pub fn suite_session(strategy: Strategy, options: AnalyzerOptions) -> VerificationSession {
    VerificationSession::new()
        .with_strategy(strategy)
        .with_options(AnalyzerOptions {
            memo_cache: Some(Arc::new(TransferMemo::new())),
            ..options
        })
}

/// A memset-style loop over a 16-byte buffer with a masked index, safe
/// for every trip count; `trips` only changes how long the counter
/// climbs.
#[must_use]
pub fn masked_memset(trips: u32) -> Program {
    assemble(&format!(
        r"
            r1 = 0
        loop:
            r2 = r1
            r2 &= 15
            r3 = r10
            r3 += -16
            r3 += r2
            *(u8 *)(r3 + 0) = 0
            r1 += 1
            if r1 < {trips} goto loop
            r0 = r1
            exit
        "
    ))
    .expect("assembles")
}

/// The two-back-edge counter+accumulator loop (13 trips over a 13-byte
/// buffer): a continue-style loop whose accumulator differs across the
/// two paths back to the head. Under the path-sensitive strategy the
/// re-converging paths are where visited-state pruning actually fires —
/// the workload behind the `states_pruned` counters in the baseline.
#[must_use]
pub fn two_back_edge() -> Program {
    assemble(
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
    .expect("assembles")
}

/// A spill-heavy loop: two loop-carried values are spilled to slots in
/// *different* stack chunks every trip, so each loop-head join grows two
/// chunks of the frame. Under whole-frame copy-on-write this
/// materialized the full 4 KiB frame per change; chunked frames copy two
/// ~0.5 KiB chunks — the `bytes_materialized` delta in the baseline is
/// the observable effect.
#[must_use]
pub fn spill_loop(trips: u32) -> Program {
    assemble(&format!(
        r"
            r1 = 0              ; i
            r6 = 0              ; acc
        loop:
            r6 += r1
            *(u64 *)(r10 - 8) = r6      ; spill in the last chunk
            *(u64 *)(r10 - 264) = r1    ; spill in the fourth chunk
            r7 = *(u64 *)(r10 - 8)
            r1 += 1
            if r1 < {trips} goto loop
            r0 = r7
            exit
        "
    ))
    .expect("assembles")
}

/// A bounded loop whose two branch arms differ **only in a dead
/// register**: each trip takes one of two paths that write different
/// constants into a scratch register nothing ever reads, then
/// re-converge on the same masked store. Unmasked, the two arrivals at
/// the join are distinct states and both get explored; with liveness
/// masking the checkpoint cleaning sets the dead scratch to ⊤ on both,
/// they fingerprint equally, and the second arrival prunes through the
/// masked probe — the workload behind the `live_masked_prunes` counter.
#[must_use]
pub fn dead_scratch_loop(trips: u32) -> Program {
    assemble(&format!(
        r"
            r1 = 0              ; i
        loop:
            r6 = r2             ; unknown bit decides the arm…
            r6 &= 1
            if r6 > 0 goto odd
            r6 = 11             ; …and both arms overwrite it, so the
            goto join
        odd:
            r6 = 22             ; arrivals differ only in dead r6
        join:
            r4 = r1
            r4 &= 15
            r3 = r10
            r3 += -16
            r3 += r4
            *(u8 *)(r3 + 0) = 0
            r1 += 1
            if r1 < {trips} goto loop
            r0 = r1
            exit
        "
    ))
    .expect("assembles")
}

/// A binary branch tree feeding a per-path bounded loop: `depth`
/// unknown-bit diamonds each fold a distinct power of two into `r6`, so
/// all `2^depth` paths reach the loop with pairwise-distinct *live*
/// accumulators — none of them prune each other, and the parallel
/// explorer can hand every subtree out as a stealable job. The loop
/// body masks its store index into the 16-byte window, so the program
/// is safe for every trip count and accumulator value.
#[must_use]
pub fn branchy_tree(depth: u32, trips: u32) -> Program {
    let mut src = String::from("    r2 = *(u8 *)(r1 + 0)\n    r6 = 0\n");
    for i in 0..depth {
        let bit = 1u64 << i;
        src.push_str(&format!(
            "    r3 = r2\n    r3 >>= {i}\n    r3 &= 1\n    if r3 > 0 goto join{i}\n    r6 += {bit}\njoin{i}:\n"
        ));
    }
    src.push_str(&format!(
        "    r7 = 0\nloop:\n    r4 = r7\n    r4 += r6\n    r4 &= 15\n    r3 = r10\n    r3 += -16\n    r3 += r4\n    *(u8 *)(r3 + 0) = 0\n    r7 += 1\n    if r7 < {trips} goto loop\n    r0 = r6\n    exit\n"
    ));
    assemble(&src).expect("assembles")
}

/// A loop-free packet-filter-style program: an untrusted byte bounded
/// by a branch guard (`bound` ≤ 63 keeps the store inside the 64-byte
/// window), a checked store, and a pure scalar ALU tail — the acyclic
/// workload in the mixed throughput batch, and a memo-friendly one (the
/// ALU tail repeats across `bound` variants).
///
/// # Panics
///
/// Panics when `bound > 63` (the store would not be provable).
#[must_use]
pub fn packet_filter(bound: u32) -> Program {
    assert!(bound <= 63, "bound {bound} would defeat the bounds proof");
    assemble(&format!(
        r"
            r2 = *(u8 *)(r1 + 0)
            if r2 > {bound} goto drop
            r3 = r10
            r3 += -64
            r3 += r2
            *(u8 *)(r3 + 0) = 1
            r4 = r2
            r4 <<= 2
            r4 += 14
            r4 &= 255
            r0 = r4
            exit
        drop:
            r0 = 0
            exit
        "
    ))
    .expect("assembles")
}

/// The canonical map-helper filter (the `fixtures/map_filter.ebpf`
/// shape): build a key on the stack, `map_lookup` it, NULL-check the
/// returned value pointer, and bump the counter through the refined
/// edge. Exercises the helper registry check, the `or_null` refinement
/// in `branch_states`, and the map-value bounds proof — none of which
/// the memo cache may serve.
#[must_use]
pub fn map_filter() -> Program {
    assemble(
        r"
            *(u32 *)(r10 - 4) = 1
            r1 = map 0
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto miss
            r1 = *(u64 *)(r0 + 0)
            r1 += 1
            *(u64 *)(r0 + 0) = r1
            r0 = 1
            exit
        miss:
            r0 = 0
            exit
        ",
    )
    .expect("assembles")
}

/// A bounded `map_update` loop (the `fixtures/map_update_loop.ebpf`
/// shape at a parameterized trip count): the key and value regions are
/// re-proved initialized on every trip and every call clobbers
/// `r1`–`r5`, so only `r6` carries the counter. Because helper
/// transfers are never memoized, this is the loop workload whose
/// per-trip cost the memo cache cannot amortize — the `maps/` rows'
/// `subset_checks` are what `fixpoint_guard` gates.
#[must_use]
pub fn map_update_loop(trips: u32) -> Program {
    assemble(&format!(
        r"
            r6 = 0
        loop:
            *(u32 *)(r10 - 4) = r6
            *(u64 *)(r10 - 16) = r6
            r1 = map 0
            r2 = r10
            r2 += -4
            r3 = r10
            r3 += -16
            r4 = 0
            call 2
            r6 += 1
            if r6 < {trips} goto loop
            r0 = 0
            exit
        "
    ))
    .expect("assembles")
}

/// Programs in the mixed throughput batch.
pub const THROUGHPUT_BATCH: usize = 64;

/// Worker counts the throughput family sweeps.
pub const THROUGHPUT_JOBS: [usize; 4] = [1, 2, 4, 8];

/// The 64-program mixed batch behind the `throughput/` bench family:
/// loopy workloads (masked memset at varied trip counts, the
/// two-back-edge loop, the spill loop) interleaved with loop-free
/// packet filters, so work stealing has real cost variance to level and
/// the shared memo cache sees both repeated and fresh transfer
/// arguments.
#[must_use]
pub fn throughput_batch() -> Vec<Program> {
    (0..THROUGHPUT_BATCH)
        .map(|i| {
            let k = (i / 4) as u32;
            match i % 4 {
                0 => masked_memset(4 + (k % 8) * 8),
                1 => packet_filter(7 + (k % 8) * 8),
                2 => two_back_edge(),
                _ => spill_loop(8 + (k % 8) * 8),
            }
        })
        .collect()
}

/// The baseline label of one throughput configuration.
#[must_use]
pub fn throughput_label(jobs: usize) -> String {
    format!("throughput/batch={THROUGHPUT_BATCH}/jobs={jobs}")
}

/// Runs the mixed batch once per [`THROUGHPUT_JOBS`] worker count —
/// each on a fresh session, so every configuration starts from a cold
/// memo cache — and returns the `(label, stats)` rows the baseline
/// document records.
#[must_use]
pub fn throughput_rows() -> Vec<(String, BatchStats)> {
    let batch = throughput_batch();
    THROUGHPUT_JOBS
        .iter()
        .map(|&jobs| {
            let report = suite_session(Strategy::WideningFixpoint, AnalyzerOptions::default())
                .run_batch(&batch, jobs);
            assert_eq!(
                report.stats.rejected, 0,
                "throughput batch programs are all safe"
            );
            (throughput_label(jobs), report.stats)
        })
        .collect()
}

/// Job counts the parallel-exploration (`parshard/`) family sweeps.
pub const PARSHARD_JOBS: [usize; 4] = [1, 2, 4, 8];

/// Diamond count of the branchy-tree parshard workload: 64 distinct
/// paths, each an independent loop walk.
pub const PARSHARD_DEPTH: u32 = 6;

/// Per-path loop trips of the branchy-tree parshard workload — chosen
/// so one subtree is a few thousand visits, far above the spawn
/// overhead of a stealable job.
pub const PARSHARD_TRIPS: u32 = 400;

/// The baseline label of one parshard configuration.
#[must_use]
pub fn parshard_label(workload: &str, jobs: usize) -> String {
    format!("parshard/{workload}/jobs={jobs}")
}

/// Every `(label, program, session)` configuration of the `parshard/`
/// family: the branchy tree (`2^depth` independent subtrees — the
/// workload intra-program parallelism actually helps) and the
/// deep-unroll masked memset (one serial chain — the honest
/// no-parallelism-to-find row) under [`Strategy::PathParallel`] at each
/// [`PARSHARD_JOBS`] count. Every configuration unrolls its loop
/// exactly, so the whole cost is path exploration.
#[must_use]
pub fn parshard_configs(depth: u32, trips: u32) -> Vec<(String, Program, VerificationSession)> {
    let mut out = Vec::new();
    for &jobs in &PARSHARD_JOBS {
        out.push((
            parshard_label("branchy_tree", jobs),
            branchy_tree(depth, trips),
            suite_session(
                Strategy::PathParallel,
                AnalyzerOptions {
                    unroll_k: trips.max(64),
                    explore_jobs: jobs as u32,
                    ..AnalyzerOptions::default()
                },
            ),
        ));
        out.push((
            parshard_label("deep_unroll", jobs),
            masked_memset(1024),
            suite_session(
                Strategy::PathParallel,
                AnalyzerOptions {
                    unroll_k: 1024,
                    explore_jobs: jobs as u32,
                    ..AnalyzerOptions::default()
                },
            ),
        ));
    }
    out
}

/// Runs the full-size parshard family once per configuration and
/// returns `(label, wall-clock ms, stats)` rows. Unlike the sweep's
/// counters these are *not* deterministic — visit/prune totals shift
/// with scheduling — which is why [`to_json`] keeps them in their own
/// section under `par_`-prefixed keys, outside the guard's totals.
#[must_use]
pub fn parshard_rows() -> Vec<(String, f64, AnalysisStats)> {
    parshard_configs(PARSHARD_DEPTH, PARSHARD_TRIPS)
        .into_iter()
        .map(|(label, prog, session)| {
            let start = std::time::Instant::now();
            let analysis = session
                .run(&prog)
                .unwrap_or_else(|e| panic!("{label}: parshard program rejected: {e}"));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            (label, ms, analysis.stats())
        })
        .collect()
}

/// Trip counts straddling the default widening delay (16) and the
/// default unroll bound (32).
pub const TRIPS: [u32; 5] = [4, 8, 16, 64, 1024];

/// Widening delays swept per trip count (fixpoint strategy).
pub const DELAYS: [u32; 4] = [0, 4, 16, 64];

/// Unroll bounds swept per trip count (path-sensitive strategy): 0 is
/// the pure widening fallback, 64 unrolls everything but the 1024-trip
/// configuration exactly.
pub const UNROLLS: [u32; 3] = [0, 16, 64];

/// Every `(label, program, session)` configuration of the sweep, in the
/// order the bench reports them: the masked-memset trips × delays under
/// the fixpoint strategy, trips × unrolls under the path-sensitive
/// strategy, the ablation and pruning workloads, then the map-helper
/// `maps/` family ([`maps_configs`]).
#[must_use]
pub fn sweep_configs() -> Vec<(String, Program, VerificationSession)> {
    let mut out = Vec::new();
    for &trips in &TRIPS {
        let prog = masked_memset(trips);
        for &delay in &DELAYS {
            out.push((
                format!("fixpoint/trips={trips}/delay={delay}"),
                prog.clone(),
                suite_session(
                    Strategy::WideningFixpoint,
                    AnalyzerOptions {
                        widen_delay: delay,
                        ..AnalyzerOptions::default()
                    },
                ),
            ));
        }
        for &unroll in &UNROLLS {
            out.push((
                format!("path/trips={trips}/unroll={unroll}"),
                prog.clone(),
                suite_session(
                    Strategy::PathSensitive,
                    AnalyzerOptions {
                        unroll_k: unroll,
                        ..AnalyzerOptions::default()
                    },
                ),
            ));
        }
    }
    // Visited-cap ablation at the deep-unroll point (trips=1024,
    // unroll=64): unbounded chains isolate what fingerprint gating alone
    // buys; cap=8 shows the chain cap's marginal effect past the default.
    for &cap in &[0u32, 8] {
        out.push((
            format!("path/trips=1024/unroll=64/cap={cap}"),
            masked_memset(1024),
            suite_session(
                Strategy::PathSensitive,
                AnalyzerOptions {
                    unroll_k: 64,
                    visited_cap: cap,
                    ..AnalyzerOptions::default()
                },
            ),
        ));
    }
    // Liveness-masking ablation: the same deep-unroll configuration with
    // `liveness_pruning` off is the unmasked twin the guard's
    // masked-pruning gate (and EXPERIMENTS E18) compares against, under
    // both strategies.
    out.push((
        "path/trips=1024/unroll=64/masking=off".to_string(),
        masked_memset(1024),
        suite_session(
            Strategy::PathSensitive,
            AnalyzerOptions {
                unroll_k: 64,
                liveness_pruning: false,
                ..AnalyzerOptions::default()
            },
        ),
    ));
    out.push((
        "fixpoint/trips=1024/delay=16/masking=off".to_string(),
        masked_memset(1024),
        suite_session(
            Strategy::WideningFixpoint,
            AnalyzerOptions {
                liveness_pruning: false,
                ..AnalyzerOptions::default()
            },
        ),
    ));
    // The dead-scratch loop, masked vs unmasked: per-trip arrivals at
    // the join differ only in the dead scratch register, so the masked
    // run collapses the two paths at every trip (`live_masked_prunes`)
    // while the unmasked run walks both.
    for masking in [true, false] {
        out.push((
            format!(
                "path/dead_scratch/trips=64{}",
                if masking { "" } else { "/masking=off" }
            ),
            dead_scratch_loop(64),
            suite_session(
                Strategy::PathSensitive,
                AnalyzerOptions {
                    liveness_pruning: masking,
                    ..AnalyzerOptions::default()
                },
            ),
        ));
    }
    let pruning = two_back_edge();
    out.push((
        "fixpoint/two_back_edge".to_string(),
        pruning.clone(),
        suite_session(Strategy::WideningFixpoint, AnalyzerOptions::default()),
    ));
    for &unroll in &[4u32, 32] {
        // Below the 13 trips (fallback widening + summary pruning) and
        // above them (exact unrolling, pruning on path re-convergence).
        out.push((
            format!("path/two_back_edge/unroll={unroll}"),
            pruning.clone(),
            suite_session(
                Strategy::PathSensitive,
                AnalyzerOptions {
                    unroll_k: unroll,
                    ..AnalyzerOptions::default()
                },
            ),
        ));
    }
    // The spill-heavy workload: loop-carried spills in two different
    // chunks, under both strategies — the chunked-frame
    // `bytes_materialized` showcase.
    let spills = spill_loop(64);
    out.push((
        "fixpoint/spill_loop/trips=64".to_string(),
        spills.clone(),
        suite_session(Strategy::WideningFixpoint, AnalyzerOptions::default()),
    ));
    out.push((
        "path/spill_loop/trips=64/unroll=16".to_string(),
        spills,
        suite_session(
            Strategy::PathSensitive,
            AnalyzerOptions {
                unroll_k: 16,
                ..AnalyzerOptions::default()
            },
        ),
    ));
    out.extend(maps_configs());
    out
}

/// The map-helper `maps/` family (appended to [`sweep_configs`], and
/// the rows `fixpoint_guard` gates by label): the lookup filter under
/// both strategies, and the update loop at a short and a deep trip
/// count. Helper transfers are never memoized, so these rows measure
/// the registry check, the NULL-refinement split, and the map-value
/// bounds proofs at full per-visit cost.
#[must_use]
pub fn maps_configs() -> Vec<(String, Program, VerificationSession)> {
    let mut out = Vec::new();
    out.push((
        "maps/filter/fixpoint".to_string(),
        map_filter(),
        suite_session(Strategy::WideningFixpoint, AnalyzerOptions::default()),
    ));
    out.push((
        "maps/filter/path".to_string(),
        map_filter(),
        suite_session(Strategy::PathSensitive, AnalyzerOptions::default()),
    ));
    for &(trips, unroll) in &[(8u32, 16u32), (64, 64)] {
        out.push((
            format!("maps/update_loop/trips={trips}/fixpoint"),
            map_update_loop(trips),
            suite_session(Strategy::WideningFixpoint, AnalyzerOptions::default()),
        ));
        out.push((
            format!("maps/update_loop/trips={trips}/path/unroll={unroll}"),
            map_update_loop(trips),
            suite_session(
                Strategy::PathSensitive,
                AnalyzerOptions {
                    unroll_k: unroll,
                    ..AnalyzerOptions::default()
                },
            ),
        ));
    }
    out
}

/// Runs every sweep configuration once and returns its statistics.
/// Panics if any configuration is rejected — the sweep programs are safe
/// under every configuration (the masked index carries the memset proof
/// even when the counter widens; the two-back-edge exit test is
/// harvested as a threshold), so a rejection is an engine regression.
#[must_use]
pub fn collect_stats() -> Vec<(String, AnalysisStats)> {
    sweep_configs()
        .into_iter()
        .map(|(label, prog, session)| {
            let analysis = session
                .run(&prog)
                .unwrap_or_else(|e| panic!("{label}: sweep program rejected: {e}"));
            (label, analysis.stats())
        })
        .collect()
}

/// Serializes timing rows, per-configuration statistics, batched
/// throughput rows, and parallel-exploration rows as the
/// `BENCH_PR8.json` baseline document.
///
/// Throughput rows deliberately prefix their memo counters
/// (`batch_memo_hits` etc.) and parshard rows prefix *all* their
/// counters (`par_subtrees_spawned` etc.) so [`total_field_in_json`]
/// totals over the per-configuration `stats` rows never absorb batch
/// traffic or scheduling-dependent parallel counters.
#[must_use]
pub fn to_json(
    group: &str,
    timings: &[(String, f64)],
    stats: &[(String, AnalysisStats)],
    throughput: &[(String, BatchStats)],
    parshard: &[(String, f64, AnalysisStats)],
) -> String {
    let timing_rows: Vec<String> = timings
        .iter()
        .map(|(label, ns)| format!("    {{\"label\": \"{label}\", \"ns_per_iter\": {ns:.1}}}"))
        .collect();
    let stat_rows: Vec<String> = stats
        .iter()
        .map(|(label, s)| {
            format!(
                "    {{\"label\": \"{label}\", \"stats\": {}}}",
                s.to_json_object()
            )
        })
        .collect();
    let throughput_rows: Vec<String> = throughput
        .iter()
        .map(|(label, s)| {
            format!(
                "    {{\"label\": \"{label}\", \"programs_per_sec\": {:.1}, \
                 \"accepted\": {}, \"batch_memo_hits\": {}, \
                 \"batch_memo_misses\": {}, \"batch_memo_evicted\": {}, \
                 \"deadline_exceeded\": {}, \"internal_faults\": {}, \
                 \"degradations\": {}}}",
                s.programs_per_sec(),
                s.accepted,
                s.memo_hits,
                s.memo_misses,
                s.memo_evicted,
                s.deadline_exceeded,
                s.internal_faults,
                s.degradations
            )
        })
        .collect();
    let parshard_rows: Vec<String> = parshard
        .iter()
        .map(|(label, ms, s)| {
            format!(
                "    {{\"label\": \"{label}\", \"par_ms\": {ms:.2}, \
                 \"par_visits\": {}, \"par_subtrees_spawned\": {}, \
                 \"par_steals\": {}, \"par_shared_prunes\": {}, \
                 \"par_states_pruned\": {}}}",
                s.visits, s.subtrees_spawned, s.steals, s.shared_prunes, s.states_pruned
            )
        })
        .collect();
    format!(
        "{{\n  \"group\": \"{group}\",\n  \"results\": [\n{}\n  ],\n  \"stats\": [\n{}\n  ],\n  \"throughput\": [\n{}\n  ],\n  \"parshard\": [\n{}\n  ]\n}}\n",
        timing_rows.join(",\n"),
        stat_rows.join(",\n"),
        throughput_rows.join(",\n"),
        parshard_rows.join(",\n")
    )
}

/// Extracts the total of one numeric stats field across all rows of a
/// baseline document written by [`to_json`]. Hand-rolled (the workspace
/// is dependency-free): sums every `"<field>": N` occurrence.
///
/// Returns `None` when the document contains no such field (e.g. an
/// older baseline that predates the counter).
#[must_use]
pub fn total_field_in_json(doc: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let mut total = 0u64;
    let mut found = false;
    let mut rest = doc;
    while let Some(at) = rest.find(&key) {
        rest = &rest[at + key.len()..];
        let digits: String = rest
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        total += digits.parse::<u64>().ok()?;
        found = true;
    }
    found.then_some(total)
}

/// Total `states_allocated` across all stats rows of a baseline
/// document — the shorthand [`total_field_in_json`] grew out of.
#[must_use]
pub fn total_allocated_in_json(doc: &str) -> Option<u64> {
    total_field_in_json(doc, "states_allocated")
}

/// Extracts one numeric stats field from the row labelled exactly
/// `label` in a baseline document written by [`to_json`] — the
/// per-configuration lookup behind the guard's `subset_checks`
/// regression gate at the deep-unroll point.
///
/// Returns `None` when the label or the field is absent. The label is
/// matched as the full quoted string, so `path/trips=1024/unroll=64`
/// does not match its `/cap=…` ablation variants.
#[must_use]
pub fn label_field_in_json(doc: &str, label: &str, field: &str) -> Option<u64> {
    // Anchor on the stats row (the same label also appears as a timing
    // row, which carries no counters).
    let label_key = format!("\"label\": \"{label}\", \"stats\"");
    let at = doc.find(&label_key)?;
    let row = &doc[at + label_key.len()..];
    // Stay inside this row: the field must appear before the next label.
    let row = match row.find("\"label\":") {
        Some(end) => &row[..end],
        None => row,
    };
    let field_key = format!("\"{field}\":");
    let after = &row[row.find(&field_key)? + field_key.len()..];
    let digits: String = after
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Extracts one numeric field — integer or decimal — from the row
/// labelled exactly `label` anywhere in a baseline document written by
/// [`to_json`]. The float-capable sibling of [`label_field_in_json`],
/// for the `throughput` rows' `programs_per_sec` rates.
///
/// Returns `None` when the label or the field is absent.
#[must_use]
pub fn label_float_in_json(doc: &str, label: &str, field: &str) -> Option<f64> {
    let label_key = format!("\"label\": \"{label}\",");
    let at = doc.find(&label_key)?;
    let row = &doc[at + label_key.len()..];
    // Stay inside this row: the field must appear before the next label.
    let row = match row.find("\"label\":") {
        Some(end) => &row[..end],
        None => row,
    };
    let field_key = format!("\"{field}\":");
    let after = &row[row.find(&field_key)? + field_key.len()..];
    let number: String = after
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    number.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_accepted_and_stats_round_trip_through_json() {
        let stats = collect_stats();
        assert_eq!(
            stats.len(),
            // trips sweep + cap ablation (2) + masking ablation (2) +
            // dead-scratch masking pair (2) + two-back-edge (3) +
            // spill loop (2) + maps family (6).
            TRIPS.len() * (DELAYS.len() + UNROLLS.len()) + 17
        );
        let total: u64 = stats.iter().map(|(_, s)| s.states_allocated).sum();
        assert!(total > 0);
        let doc = to_json(
            "fixpoint_sweep",
            &[("x".to_string(), 1.0)],
            &stats,
            &[],
            &[],
        );
        assert_eq!(total_allocated_in_json(&doc), Some(total));
        let pruned: u64 = stats.iter().map(|(_, s)| s.states_pruned).sum();
        assert!(pruned > 0, "the sweep must exercise pruning");
        assert_eq!(total_field_in_json(&doc, "states_pruned"), Some(pruned));
        let checks: u64 = stats.iter().map(|(_, s)| s.subset_checks).sum();
        assert_eq!(total_field_in_json(&doc, "subset_checks"), Some(checks));
        // A document without stats rows reports None, not zero.
        assert_eq!(total_allocated_in_json("{\"results\": []}"), None);
        assert_eq!(total_field_in_json("{}", "states_pruned"), None);
        // Per-label extraction: exact label match, no prefix bleed into
        // the /cap ablation rows, None on unknown labels or fields.
        let deep = stats
            .iter()
            .find(|(l, _)| l == "path/trips=1024/unroll=64")
            .expect("deep-unroll row present");
        assert_eq!(
            label_field_in_json(&doc, "path/trips=1024/unroll=64", "subset_checks"),
            Some(deep.1.subset_checks)
        );
        let capped = stats
            .iter()
            .find(|(l, _)| l == "path/trips=1024/unroll=64/cap=0")
            .expect("cap ablation row present");
        assert_eq!(
            label_field_in_json(&doc, "path/trips=1024/unroll=64/cap=0", "subset_checks"),
            Some(capped.1.subset_checks)
        );
        assert_eq!(label_field_in_json(&doc, "no/such/label", "visits"), None);
        assert_eq!(
            label_field_in_json(&doc, "path/trips=1024/unroll=64", "no_such_field"),
            None
        );
    }

    #[test]
    fn maps_family_rows_are_accepted_and_round_trip_through_json() {
        let rows: Vec<(String, AnalysisStats)> = maps_configs()
            .into_iter()
            .map(|(label, prog, session)| {
                let analysis = session
                    .run(&prog)
                    .unwrap_or_else(|e| panic!("{label}: maps program rejected: {e}"));
                (label, analysis.stats())
            })
            .collect();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|(l, _)| l.starts_with("maps/")));
        // The deep update loop is the family's regression surface: it
        // must actually probe the visited table on its back edge.
        let deep = rows
            .iter()
            .find(|(l, _)| l == "maps/update_loop/trips=64/path/unroll=64")
            .expect("deep maps row present");
        assert!(deep.1.subset_checks > 0, "{:?}", deep.1);
        // The guard reads the family back per label from the baseline.
        let doc = to_json("fixpoint_sweep", &[], &rows, &[], &[]);
        assert_eq!(
            label_field_in_json(&doc, &deep.0, "subset_checks"),
            Some(deep.1.subset_checks)
        );
    }

    #[test]
    fn fingerprint_and_eviction_counters_fire_on_the_sweep() {
        let stats = collect_stats();
        let by_label = |needle: &str| {
            stats
                .iter()
                .find(|(l, _)| l == needle)
                .unwrap_or_else(|| panic!("{needle} missing from sweep"))
                .1
        };
        // Deep unrolling floods the loop-head chain: fingerprint gating
        // must dismiss most candidates and the cap must evict.
        let deep = by_label("path/trips=1024/unroll=64");
        assert!(deep.fingerprint_rejects > 0, "{deep:?}");
        assert!(deep.visited_evicted > 0, "{deep:?}");
        // Unbounded chains never capacity-evict; dominance eviction may
        // still fire, but the probe side must dismiss more than the
        // capped run examines in full.
        let uncapped = by_label("path/trips=1024/unroll=64/cap=0");
        assert!(uncapped.fingerprint_rejects >= deep.fingerprint_rejects);
        // The spill loop materializes chunks, not whole frames: the
        // copied volume stays far below a 4 KiB-per-join regime.
        let spills = by_label("fixpoint/spill_loop/trips=64");
        assert!(spills.bytes_materialized > 0);
        assert!(
            spills.bytes_materialized < spills.states_allocated * 4096,
            "chunked frames must copy less than whole-frame semantics: {spills:?}"
        );
    }

    #[test]
    fn masking_cuts_subset_checks_at_the_deep_unroll_point() {
        let stats = collect_stats();
        let by_label = |needle: &str| {
            stats
                .iter()
                .find(|(l, _)| l == needle)
                .unwrap_or_else(|| panic!("{needle} missing from sweep"))
                .1
        };
        let masked = by_label("path/trips=1024/unroll=64");
        let unmasked = by_label("path/trips=1024/unroll=64/masking=off");
        println!("masked:   {masked:?}");
        println!("unmasked: {unmasked:?}");
        // The ablation twin runs with masking off: its new counters are
        // structurally zero.
        assert_eq!(unmasked.live_masked_prunes, 0, "{unmasked:?}");
        assert_eq!(unmasked.dead_components_cleared, 0, "{unmasked:?}");
        // The masked run cleans dead components at checkpoints and
        // spends at least 25% fewer deep subset checks than its
        // unmasked twin (the PR 7 acceptance bar, re-checked against
        // the committed baseline by `fixpoint_guard`).
        assert!(masked.dead_components_cleared > 0, "{masked:?}");
        assert!(
            masked.subset_checks * 4 <= unmasked.subset_checks * 3,
            "masked {} vs unmasked {} subset checks",
            masked.subset_checks,
            unmasked.subset_checks
        );
        // The dead-scratch loop is where masked probes actually *prune*:
        // per-trip arrivals at the join differ only in the dead scratch
        // register, so cleaning makes them collide by fingerprint and
        // the masked run explores strictly less than the unmasked one.
        let ds_masked = by_label("path/dead_scratch/trips=64");
        let ds_unmasked = by_label("path/dead_scratch/trips=64/masking=off");
        assert!(ds_masked.live_masked_prunes > 0, "{ds_masked:?}");
        assert!(
            ds_masked.visits < ds_unmasked.visits,
            "masked {} vs unmasked {} visits",
            ds_masked.visits,
            ds_unmasked.visits
        );
        // The fixpoint strategy keeps its verdict-relevant work identical
        // under masking (same visits), it only cleans.
        let fx_masked = by_label("fixpoint/trips=1024/delay=16");
        let fx_unmasked = by_label("fixpoint/trips=1024/delay=16/masking=off");
        assert_eq!(fx_masked.visits, fx_unmasked.visits);
        assert!(fx_masked.dead_components_cleared > 0, "{fx_masked:?}");
    }

    #[test]
    fn throughput_batch_is_mixed_and_accepted() {
        let batch = throughput_batch();
        assert_eq!(batch.len(), THROUGHPUT_BATCH);
        // Mixed sizes: the batch must contain more than one distinct
        // program length (loopy and loop-free workloads differ).
        let mut lens: Vec<usize> = batch.iter().map(ebpf::Program::len).collect();
        lens.sort_unstable();
        lens.dedup();
        assert!(lens.len() > 1, "batch must mix workload shapes: {lens:?}");
        // A slice through the batched engine: every program accepted,
        // and the shared cache sees cross-program hits.
        let report = suite_session(Strategy::WideningFixpoint, AnalyzerOptions::default())
            .run_batch(&batch[..8], 2);
        assert_eq!(report.stats.accepted, 8, "{:?}", report.stats);
        assert!(report.stats.memo_hits > 0, "{:?}", report.stats);
    }

    #[test]
    fn throughput_rows_round_trip_through_json() {
        use std::time::Duration;
        let stats = BatchStats {
            programs: THROUGHPUT_BATCH,
            accepted: THROUGHPUT_BATCH,
            rejected: 0,
            jobs: 4,
            inner_jobs: 1,
            elapsed: Duration::from_millis(128),
            per_worker_programs: vec![16; 4],
            per_worker_visits: vec![100; 4],
            memo_hits: 375,
            memo_misses: 225,
            memo_evicted: 3,
            deadline_exceeded: 0,
            internal_faults: 0,
            degradations: 0,
        };
        let label = throughput_label(4);
        let doc = to_json(
            "fixpoint_sweep",
            &[],
            &[],
            &[(label.clone(), stats.clone())],
            &[],
        );
        let rate = label_float_in_json(&doc, &label, "programs_per_sec").unwrap();
        assert!((rate - stats.programs_per_sec()).abs() < 0.1, "{rate}");
        assert_eq!(
            label_float_in_json(&doc, &label, "batch_memo_hits"),
            Some(375.0)
        );
        assert_eq!(
            label_float_in_json(&doc, &label, "internal_faults"),
            Some(0.0)
        );
        assert_eq!(label_float_in_json(&doc, &label, "no_such_field"), None);
        assert_eq!(
            label_float_in_json(&doc, "throughput/batch=64/jobs=9", "programs_per_sec"),
            None
        );
        // The prefixed batch counters never leak into the sweep totals.
        assert_eq!(total_field_in_json(&doc, "memo_hits"), None);
        assert_eq!(total_field_in_json(&doc, "batch_memo_hits"), Some(375));
    }

    #[test]
    fn parshard_rows_round_trip_through_json_without_leaking_totals() {
        // A scaled-down family (8 paths × 24 trips) keeps the debug-mode
        // test fast; the bench emits the full-size rows.
        let rows: Vec<(String, f64, AnalysisStats)> = parshard_configs(3, 24)
            .into_iter()
            .map(|(label, prog, session)| {
                let analysis = session.run(&prog).expect("parshard workload accepted");
                (label, 1.5, analysis.stats())
            })
            .collect();
        assert_eq!(rows.len(), PARSHARD_JOBS.len() * 2);
        // The branchy tree spawns subtrees at every job count (spawning
        // is a property of the walk, not the worker count)…
        let branchy = rows
            .iter()
            .find(|(l, _, _)| l == &parshard_label("branchy_tree", 4))
            .expect("branchy row present");
        assert!(branchy.2.subtrees_spawned > 0, "{:?}", branchy.2);
        // …while the serial deep-unroll chain has nothing to hand out
        // except its final loop exit.
        let serial = rows
            .iter()
            .find(|(l, _, _)| l == &parshard_label("deep_unroll", 4))
            .expect("deep-unroll row present");
        assert!(serial.2.subtrees_spawned <= 1, "{:?}", serial.2);
        let doc = to_json("fixpoint_sweep", &[], &[], &[], &rows);
        assert_eq!(
            label_float_in_json(&doc, &branchy.0, "par_subtrees_spawned"),
            Some(branchy.2.subtrees_spawned as f64)
        );
        assert_eq!(label_float_in_json(&doc, &branchy.0, "par_ms"), Some(1.5));
        // The par_ prefix keeps the scheduling-dependent counters out of
        // the guard's deterministic sweep totals.
        assert_eq!(total_field_in_json(&doc, "subtrees_spawned"), None);
        assert_eq!(total_field_in_json(&doc, "steals"), None);
        assert_eq!(total_field_in_json(&doc, "visits"), None);
    }

    #[test]
    fn pruning_workload_prunes_under_path_sensitivity() {
        let stats = collect_stats();
        let pruned_on_two_back_edge: u64 = stats
            .iter()
            .filter(|(label, _)| label.starts_with("path/two_back_edge"))
            .map(|(_, s)| s.states_pruned)
            .sum();
        assert!(pruned_on_two_back_edge > 0, "two-back-edge suite prunes");
    }
}
