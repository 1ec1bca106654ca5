//! The benchmark's workloads: what each one feeds the verifier, how it
//! calls it, and why it was chosen.
//!
//! Every workload is seeded, runs in one process, uses at most as many
//! threads as the machine has cores, and carries the same five program
//! families in the same fixed shares ([`family_of`]), so the verdict
//! metrics mean the same thing everywhere:
//!
//! | family            | share | right verdict | what it keeps visible |
//! |-------------------|-------|---------------|-----------------------|
//! | `safe`            | 43/64 | accept        | the common case |
//! | `out_of_bounds`   | 16/64 | reject        | soundness of bounds checks (off by one) |
//! | `unchecked_deref` | 2/64  | reject        | soundness of the NULL discipline on map values |
//! | `relational`      | 2/64  | accept        | precision loss of a non-relational domain (`false_rejects`) |
//! | `non_terminating` | 1/64  | reject        | the open termination defect (`unsound_accepts`) |
//!
//! The `non_terminating` family (`l: goto l`, and `r0 = 0; l: r0 += 1;
//! goto l`) is kept on purpose: both strategies accept it today, which
//! is the open "ACCEPTED must mean the program exits" defect, and the
//! benchmark must keep reporting it rather than filter it out. Likewise
//! the `relational` family stays so that precision loss is measured
//! against a known answer instead of assumed to be zero.
//!
//! ## `alu_dense`
//!
//! A closed loop with one caller and the default session (widening
//! fixpoint), reused across calls. Programs are straight-line or
//! shallow-branch ALU chains of about 20 to 60 instructions
//! ([`gen::alu_chain`]): unknown context bytes, masks with fresh random
//! immediates, `add`/`sub`/`mul`/shift chains, one store through the
//! computed index into a stack window.
//!
//! *Why:* tnum and scalar operations and `transfer` do most of the work.
//! There are no loops, so join, widening and the visited table do almost
//! none. Fresh immediates over a corpus larger than the transfer memo
//! keep memo hits low, so the memo shows its cost without its benefit.
//! *Stresses:* `tnum`, `Scalar`, `transfer`, `cfg`/`passes` (a fixed cost
//! per program that is large next to a short program), `memo` (cost).
//! *Bypasses:* `state` join/widen, `visited`, `batch`.
//!
//! ## `loop_batch`
//!
//! `run_batch(programs, nproc)` under the default session, on 64-program
//! batches drawn fresh from a 512-program pool on each call. The pool
//! holds fixture-shaped loopy and map programs: masked and counted
//! memset, spill loop, two back edges, packet filter, map filter, map
//! update loop. Shapes and trip counts come from small pools, so transfer
//! arguments repeat within and across batches.
//!
//! *Why:* the only concurrent workload. It drives the fixpoint's joins
//! and widening, memo sharing across workers, and batch scheduling.
//! *Stresses:* `fixpoint`, `state` join/widen, `memo` (benefit), `batch`.
//! *Bypasses:* `visited` (the fixpoint joins instead of pruning).
//!
//! It is not among the workloads `BENCHMARK.json` gates on. With both
//! cores of a 2-vCPU sandbox busy, every stall the host imposes on
//! either core lands in a batch's makespan: over ten seeds its
//! `latency_p99_ms` spread 11–31% between runs, against 4–9% for the
//! single-caller workloads. Its layers stay measured: every traced run
//! times `run_batch` on `nproc` workers (`batch.*`), `deep_paths` shows
//! the memo's benefit and `alu_dense` its cost, and both replay join and
//! widening (`state.union_ns`, `state.widen_ns`). It still runs from the
//! command line and under `ab.py`.
//!
//! ## `deep_paths`
//!
//! A closed loop with one caller under `Strategy::PathSensitive`.
//! Programs are branch trees of depth 3 to 6 feeding a loop, masked
//! memsets with more trips than the unroll bound, dead-scratch loops,
//! two-back-edge loops and spill loops.
//!
//! *Why:* the visited table, `is_subset_of`, fingerprints and state
//! materialisation dominate, and ALU work per state is small.
//! *Stresses:* `visited`, `state` subset/fingerprint/materialise,
//! `explore`, `parshard` (its speed-up is measured here).
//! *Bypasses:* `batch`, most of `memo`'s benefit.

use verifier::{Strategy, VerificationSession};

use crate::gen::{self, Case, Family};
use crate::rng::Rng;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Short ALU-heavy programs, closed loop, default session.
    AluDense,
    /// Fixture-shaped loopy programs in concurrent 64-program batches.
    LoopBatch,
    /// Branchy and deep-loop programs, closed loop, path-sensitive.
    DeepPaths,
}

impl Workload {
    /// Every workload (`BENCHMARK.json` gates on `alu_dense` and
    /// `deep_paths`).
    pub const ALL: [Workload; 3] = [Workload::AluDense, Workload::LoopBatch, Workload::DeepPaths];

    /// Looks a workload up by its name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::AluDense => "alu_dense",
            Workload::LoopBatch => "loop_batch",
            Workload::DeepPaths => "deep_paths",
        }
    }

    /// Programs generated at set-up.
    #[must_use]
    pub fn corpus_size(self) -> usize {
        match self {
            Workload::AluDense => 2048,
            Workload::LoopBatch | Workload::DeepPaths => 512,
        }
    }

    /// Programs per call: one `run` per program, or one `run_batch` of
    /// this many programs.
    #[must_use]
    pub fn batch(self) -> Option<usize> {
        match self {
            Workload::LoopBatch => Some(64),
            Workload::AluDense | Workload::DeepPaths => None,
        }
    }

    /// The exploration strategy of the workload's session.
    #[must_use]
    pub fn strategy(self) -> Strategy {
        match self {
            Workload::AluDense | Workload::LoopBatch => Strategy::WideningFixpoint,
            Workload::DeepPaths => Strategy::PathSensitive,
        }
    }

    /// A fresh session as the workload uses it (default options, so a
    /// fresh transfer memo).
    #[must_use]
    pub fn session(self) -> VerificationSession {
        VerificationSession::new().with_strategy(self.strategy())
    }

    /// The workload's programs for `seed`: the same seed always gives
    /// the same programs in the same order.
    ///
    /// The parameters that set a program's cost (shape, trip count, tree
    /// depth) cycle through fixed pools by the program's slot, so every
    /// seed yields the same mix of costs; the seed draws everything else
    /// (masks and other immediates, context offsets, branch bits, stack
    /// slots, map keys), and the whole ALU chain of `alu_dense`.
    #[must_use]
    pub fn corpus(self, seed: u64) -> Vec<Case> {
        let mut rng = Rng::new(seed ^ (self as u64) << 56);
        let mut slots = [0usize; 3];
        (0..self.corpus_size())
            .map(|i| {
                let family = family_of(i);
                let mut next = |k: usize| {
                    slots[k] += 1;
                    slots[k] - 1
                };
                match family {
                    Family::NonTerminating => gen::non_terminating(i as u64 / 64),
                    Family::Safe => self.safe_case(&mut rng, next(0)),
                    Family::OutOfBounds => self.oob_case(&mut rng, next(1)),
                    Family::Relational => self.relational_case(&mut rng, next(2)),
                    Family::UncheckedDeref => match self {
                        Workload::AluDense => gen::alu_chain(&mut rng, family),
                        _ => gen::map_filter(&mut rng, family),
                    },
                }
            })
            .collect()
    }

    fn safe_case(self, rng: &mut Rng, slot: usize) -> Case {
        let safe = Family::Safe;
        match self {
            Workload::AluDense => gen::alu_chain(rng, safe),
            Workload::LoopBatch => {
                let k = slot / 7;
                match slot % 7 {
                    0 => gen::masked_memset(rng, cycle(&[4, 8, 12, 16, 24, 32], k), 16, safe),
                    1 => gen::counted_memset(rng, cycle(&[8, 13, 16], k), safe),
                    2 => gen::spill_loop(rng, cycle(&[8, 16, 32, 64], k)),
                    3 => gen::two_back_edge(rng, cycle(&[8, 12, 16], k), safe),
                    4 => gen::packet_filter(rng, cycle(&[7, 15, 31, 63], k), safe),
                    5 => gen::map_filter(rng, safe),
                    _ => gen::map_update_loop(rng, cycle(&[2, 4, 8], k)),
                }
            }
            Workload::DeepPaths => {
                let k = slot / 5;
                match slot % 5 {
                    0 => gen::branchy_tree(rng, 3 + k as u64 % 4, cycle(&[8, 16, 24], k / 4), safe),
                    1 => gen::masked_memset(
                        rng,
                        cycle(&[40, 48, 64, 96], k),
                        cycle(&[16, 32], k / 4),
                        safe,
                    ),
                    2 => gen::dead_scratch_loop(rng, cycle(&[8, 16, 24], k)),
                    3 => gen::two_back_edge(rng, cycle(&[12, 16, 24], k), safe),
                    _ => gen::spill_loop(rng, cycle(&[16, 32, 48], k)),
                }
            }
        }
    }

    fn oob_case(self, rng: &mut Rng, slot: usize) -> Case {
        let oob = Family::OutOfBounds;
        match self {
            Workload::AluDense => gen::alu_chain(rng, oob),
            Workload::LoopBatch => {
                let k = slot / 4;
                match slot % 4 {
                    0 => gen::masked_memset(rng, cycle(&[16, 24, 32], k), 16, oob),
                    1 => gen::counted_memset(rng, cycle(&[8, 13, 16], k), oob),
                    2 => gen::two_back_edge(rng, cycle(&[8, 12, 16], k), oob),
                    _ => gen::packet_filter(rng, 0, oob),
                }
            }
            Workload::DeepPaths => {
                let k = slot / 2;
                match slot % 2 {
                    0 => gen::branchy_tree(rng, 3 + k as u64 % 4, cycle(&[16, 24], k / 4), oob),
                    _ => gen::masked_memset(rng, cycle(&[40, 64], k), 16, oob),
                }
            }
        }
    }

    fn relational_case(self, rng: &mut Rng, slot: usize) -> Case {
        // Trip counts past the fixpoint's exact joins, and past the path
        // strategy's unroll bound, so both lose the relation.
        let trips = match self {
            Workload::AluDense => return gen::alu_chain(rng, Family::Relational),
            Workload::LoopBatch => cycle(&[8, 12, 16, 24], slot),
            Workload::DeepPaths => cycle(&[40, 48, 64], slot),
        };
        gen::lockstep_memset(rng, trips)
    }
}

/// The `k`-th element of a pool, cyclically.
fn cycle(pool: &[u64], k: usize) -> u64 {
    pool[k % pool.len()]
}

/// The family of the `i`-th program of every corpus: fixed shares in a
/// fixed pattern, so the verdict counts do not depend on the seed.
#[must_use]
pub fn family_of(i: usize) -> Family {
    if i % 64 == 29 {
        Family::NonTerminating
    } else if i % 32 == 5 {
        Family::Relational
    } else if i % 32 == 13 {
        Family::UncheckedDeref
    } else if i % 4 == 2 {
        Family::OutOfBounds
    } else {
        Family::Safe
    }
}
