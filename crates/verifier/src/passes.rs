//! Static-analysis passes over the [`Cfg`]: a reusable forward/backward
//! dataflow solver plus the passes the analyzer ships with — per-pc
//! register/stack-slot **liveness** and **unreachable/dead-code**
//! detection, which the exploration engines read, and **reaching
//! definitions**, a diagnostic only `annotate --passes` computes.
//!
//! The kernel's eBPF verifier owes its single biggest pruning lever not
//! to a smarter join but to a *static* fact: per-pc liveness marks
//! (`mark_reg_read` / `clean_verifier_state`) let `is_state_visited`
//! ignore registers no future instruction can read, collapsing
//! exponentially many path states into equivalence classes. This module
//! computes those facts ahead of exploration so both engines can *clean*
//! dead components at checkpoints ([`crate::state::AbsState::clear_dead`])
//! — a cleaned component is [`crate::RegValue::Uninit`], the top of the
//! safety order, so it compares as covered in every inclusion probe and
//! hashes as a fixed salt in every fingerprint. Two states that differ
//! only in dead components become *equal* after cleaning and prune each
//! other for free.
//!
//! The framework half is deliberately generic: [`DataflowPass`] couples
//! a per-point fact with a join and a transfer, and [`solve`] sweeps the
//! reachable instructions in reverse postorder for forward passes, or in
//! post-order for backward ones, over the [`Cfg`]'s flat successor and
//! predecessor arrays — one sweep when the CFG is acyclic, repeated
//! sweeps until nothing changes otherwise. All built-in passes use
//! bitset facts (`u16` over registers, `u64` over the 64 stack slots,
//! `Vec<u64>` over definition sites), so one instruction's update is a
//! handful of word operations.
//!
//! Soundness of the liveness facts is calibrated against the transfer
//! layer's *actual* read surface, over-approximated where the static
//! pass cannot know better:
//!
//! * helper calls read the argument registers their registry signature
//!   names (`r1..r1+n` per [`ebpf::helpers::helper_sig`]; all of
//!   `r1`–`r5` for an unknown id) — and when the signature takes a
//!   stack-region argument, conservatively any stack slot — then
//!   clobber `r0`–`r5`; `exit` reads `r0` (return-value and
//!   pointer-leak checks);
//! * a load through `r10` at a constant offset reads exactly the slots
//!   covering its byte range (including the whole-slot reads of
//!   `stack_range_initialized`); a load through any register that *may*
//!   hold a derived stack pointer reads **all** slots — a dedicated
//!   forward [`StackTaint`] pass tracks which registers may be
//!   stack-derived, including spilled-and-reloaded pointers;
//! * a store through `r10` overwrites every slot its byte range
//!   intersects (both the tracked-spill and the `Misc`-smear paths
//!   replace the old contents wholesale), so those slots are *killed*;
//!   stores never read slot contents;
//! * `r10` is pinned live everywhere — it is the frame pointer every
//!   stack access re-derives from.

use ebpf::{AluOp, Insn, Program, Reg, Src, Width, STACK_SIZE};

use crate::cfg::Cfg;
use crate::state::SLOTS;

/// Bitmask of all architectural registers (`r0`–`r10`).
const ALL_REGS: u16 = (1 << 11) - 1;

/// Bitmask of the helper-call clobbers `r0`–`r5`.
const CALL_CLOBBERS: u16 = (1 << 6) - 1;

/// The direction facts flow in a [`DataflowPass`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow with control flow (entry → exits); the solver
    /// sweeps instructions in reverse postorder.
    Forward,
    /// Facts flow against control flow (exits → entry); the solver
    /// sweeps instructions in post-order.
    Backward,
}

/// One dataflow problem over the instruction-level [`Cfg`]: a per-point
/// fact, a join, and a per-instruction transfer. [`solve`] runs it to a
/// fixpoint.
pub trait DataflowPass {
    /// The per-program-point fact (a bitset in every built-in pass).
    type Fact: Clone + PartialEq;

    /// Whether facts flow with or against control flow.
    const DIRECTION: Direction;

    /// The fact at the flow boundary: program entry for forward passes,
    /// every exit for backward ones.
    fn boundary_fact(&self) -> Self::Fact;

    /// The neutral element of [`DataflowPass::join`] — the fact of an
    /// edge never taken.
    fn empty_fact(&self) -> Self::Fact;

    /// Accumulates `from` into `into`, reporting whether `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// Transfers the fact across instruction `pc`: from the point before
    /// it for forward passes, from the point after it for backward ones.
    fn transfer(&self, pc: usize, insn: Insn, fact: &Self::Fact) -> Self::Fact;
}

/// The stabilized facts of one [`solve`] run, indexed by pc in program
/// orientation regardless of the pass direction: `before[pc]` is the
/// fact at the point *preceding* the instruction, `after[pc]` at the
/// point following it. Unreachable instructions keep the empty fact.
#[derive(Clone, Debug)]
pub struct Solution<F> {
    /// Fact at the program point before each instruction.
    pub before: Vec<F>,
    /// Fact at the program point after each instruction.
    pub after: Vec<F>,
}

/// Runs `pass` over `prog` to its least fixpoint by sweeping the
/// reachable instructions in reverse postorder (forward passes) or its
/// reverse (backward passes). Without back edges every instruction's
/// inputs are final before the sweep reaches it, so one sweep suffices;
/// a cyclic CFG repeats sweeps until one changes nothing.
pub fn solve<P: DataflowPass>(pass: &P, prog: &Program, cfg: &Cfg) -> Solution<P::Fact> {
    let n = prog.len();
    let forward = P::DIRECTION == Direction::Forward;
    // `into[pc]` enters pc's transfer and `out[pc]` leaves it, in the
    // pass's own direction.
    let (mut into, mut out) = (vec![pass.empty_fact(); n], vec![pass.empty_fact(); n]);
    let rpo = cfg.rpo();
    loop {
        let mut changed = false;
        for i in 0..rpo.len() {
            let pc = rpo[if forward { i } else { rpo.len() - 1 - i }];
            let sources = if forward {
                cfg.predecessors(pc)
            } else {
                cfg.successors(pc)
            };
            let boundary = if forward { pc == 0 } else { sources.is_empty() };
            let mut fact = if boundary {
                pass.boundary_fact()
            } else {
                pass.empty_fact()
            };
            for &q in sources {
                pass.join(&mut fact, &out[q]);
            }
            let next = pass.transfer(pc, prog.insns()[pc], &fact);
            into[pc] = fact;
            if next != out[pc] {
                out[pc] = next;
                changed = true;
            }
        }
        if !changed || cfg.back_edges().is_empty() {
            let (before, after) = if forward { (into, out) } else { (out, into) };
            return Solution { before, after };
        }
    }
}

// ---------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------

/// A per-pc liveness fact: which registers (bits `0..=10`) and 8-byte
/// stack slots (one bit per slot, bit `i` = slot `i` = bytes
/// `[-512 + 8i, -512 + 8i + 8)`) may still be read before being
/// overwritten.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveSet {
    /// Live registers, bit `r.index()`.
    pub regs: u16,
    /// Live stack slots, bit per slot index.
    pub slots: u64,
}

impl LiveSet {
    /// Everything live — the mask that cleans nothing (used for
    /// unreachable instructions, where no fact was computed).
    pub const ALL: LiveSet = LiveSet {
        regs: ALL_REGS,
        slots: u64::MAX,
    };

    /// Whether register `r` is live.
    #[must_use]
    pub const fn contains_reg(self, r: Reg) -> bool {
        self.regs & (1 << r.index()) != 0
    }

    /// Whether stack slot `i` is live.
    #[must_use]
    pub const fn contains_slot(self, i: usize) -> bool {
        i < SLOTS && self.slots & (1 << i) != 0
    }

    /// Number of live registers.
    #[must_use]
    pub const fn reg_count(self) -> u32 {
        self.regs.count_ones()
    }

    /// Number of live stack slots.
    #[must_use]
    pub const fn slot_count(self) -> u32 {
        self.slots.count_ones()
    }
}

/// The slot-index bitmask of every slot intersecting the byte range
/// `[start, start + bytes)` of the stack frame (offsets negative,
/// relative to `r10`). Offsets outside the frame contribute nothing —
/// such an access is rejected by the transfer layer anyway.
fn covering_slots(start: i64, bytes: i64) -> u64 {
    let frame = STACK_SIZE as i64;
    let mut mask = 0u64;
    let mut off = start & !7;
    while off < start + bytes {
        if (-frame..0).contains(&off) {
            mask |= 1 << ((off + frame) / 8);
        }
        off += 8;
    }
    mask
}

/// Forward may-alias pass: which registers *may* hold a stack-derived
/// pointer at each point. Fact: `u16` register bitset.
///
/// `r10` seeds the set; 64-bit `mov` copies propagate it, other ALU ops
/// keep a destination tainted when either operand is (pointer ± scalar
/// keeps the region), and **every load taints its destination** — a
/// spilled stack pointer reloads through an arbitrary slot, and this
/// pass does not track slot contents. Immediate loads and 32-bit moves
/// scalarize and clear; helper calls clobber `r0`–`r5`. Over-tainting is
/// always sound here: taint only ever *adds* stack-slot liveness.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackTaint;

impl DataflowPass for StackTaint {
    type Fact = u16;
    const DIRECTION: Direction = Direction::Forward;

    fn boundary_fact(&self) -> u16 {
        1 << Reg::R10.index()
    }

    fn empty_fact(&self) -> u16 {
        0
    }

    fn join(&self, into: &mut u16, from: &u16) -> bool {
        let merged = *into | *from;
        let changed = merged != *into;
        *into = merged;
        changed
    }

    fn transfer(&self, _pc: usize, insn: Insn, fact: &u16) -> u16 {
        let bit = |r: Reg| 1u16 << r.index();
        let mut t = *fact;
        match insn {
            Insn::Alu {
                op: AluOp::Mov,
                width: Width::W64,
                dst,
                src: Src::Reg(r),
            } => {
                if t & bit(r) != 0 {
                    t |= bit(dst);
                } else {
                    t &= !bit(dst);
                }
            }
            // Immediate and 32-bit moves scalarize the destination.
            Insn::Alu {
                op: AluOp::Mov,
                dst,
                ..
            } => t &= !bit(dst),
            Insn::Alu { dst, src, .. } => {
                // Pointer ± scalar keeps the region; anything else with
                // a tainted operand conservatively stays tainted.
                if let Src::Reg(r) = src {
                    if t & bit(r) != 0 {
                        t |= bit(dst);
                    }
                }
            }
            Insn::LoadImm64 { dst, .. } => t &= !bit(dst),
            // A load may reload a spilled stack pointer.
            Insn::Load { dst, .. } => t |= bit(dst),
            Insn::Call { .. } => t &= !CALL_CLOBBERS,
            Insn::Store { .. } | Insn::Jmp { .. } | Insn::Ja { .. } | Insn::Exit => {}
        }
        t | bit(Reg::R10)
    }
}

/// Backward may-use liveness over registers *and* stack slots, the
/// kernel's `mark_reg_read` analogue. Fact: [`LiveSet`].
///
/// Uses mirror the transfer layer's checks exactly — a helper call
/// reads its registry arity's argument registers (`r1..r1+n` per
/// [`ebpf::helpers::helper_sig`]; all of `r1`–`r5` for an unknown
/// helper) and, when its signature takes a stack-region argument, may
/// read any stack slot; `exit` reads `r0` — plus the slot reads of
/// stack loads (exact covering slots through `r10`, all slots through a
/// possibly-stack-derived base per [`StackTaint`]). Kills are the
/// register writes of `def_reg`, the `r0`–`r5` clobber of a call, and
/// the wholesale slot overwrites of `r10`-relative stores.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Per-pc [`StackTaint`] facts at the point *before* each
    /// instruction.
    taint_in: Vec<u16>,
}

impl Liveness {
    /// Builds the pass for one program, running the [`StackTaint`]
    /// prerequisite pass.
    #[must_use]
    pub fn new(prog: &Program, cfg: &Cfg) -> Liveness {
        Liveness {
            taint_in: solve(&StackTaint, prog, cfg).before,
        }
    }
}

impl DataflowPass for Liveness {
    type Fact = LiveSet;
    const DIRECTION: Direction = Direction::Backward;

    fn boundary_fact(&self) -> LiveSet {
        // Nothing is live after an exit; `exit`'s own `r0` read is part
        // of its transfer.
        LiveSet::default()
    }

    fn empty_fact(&self) -> LiveSet {
        LiveSet::default()
    }

    fn join(&self, into: &mut LiveSet, from: &LiveSet) -> bool {
        let merged = LiveSet {
            regs: into.regs | from.regs,
            slots: into.slots | from.slots,
        };
        let changed = merged != *into;
        *into = merged;
        changed
    }

    fn transfer(&self, pc: usize, insn: Insn, fact: &LiveSet) -> LiveSet {
        let bit = |r: Reg| 1u16 << r.index();
        let mut live = *fact;

        // Kills first (live-in = (live-out ∖ defs) ∪ uses).
        match insn {
            Insn::Call { .. } => live.regs &= !CALL_CLOBBERS,
            _ => {
                if let Some(d) = insn.def_reg() {
                    live.regs &= !bit(d);
                }
            }
        }
        if let Insn::Store {
            size,
            base,
            off,
            src: _,
        } = insn
        {
            if base == Reg::R10 {
                // Both store paths (tracked spill and `Misc` smear)
                // replace every intersecting slot wholesale.
                live.slots &= !covering_slots(off as i64, size.bytes() as i64);
            }
        }

        // Uses: a call reads its helper's argument registers per the
        // registry arity (conservatively all of r1–r5 when the id is
        // unknown — the verifier will reject it anyway), and any
        // stack-region argument may read arbitrary slots through the
        // passed pointer; everything else reads its `use_mask`. `exit`
        // reads `r0` directly (return-value and pointer-leak checks).
        if let Insn::Call { helper } = insn {
            match ebpf::helpers::helper_sig(helper) {
                Some(sig) => {
                    for i in 0..sig.args.len() {
                        live.regs |= 1 << (i + 1);
                    }
                    if sig
                        .args
                        .iter()
                        .any(|a| matches!(a, ebpf::helpers::ArgKind::StackRegion { .. }))
                    {
                        live.slots = u64::MAX;
                    }
                }
                None => {
                    live.regs |= insn.use_mask();
                    live.slots = u64::MAX;
                }
            }
        } else {
            live.regs |= insn.use_mask();
        }
        if matches!(insn, Insn::Exit) {
            live.regs |= bit(Reg::R0);
        }
        if let Insn::Load {
            size, base, off, ..
        } = insn
        {
            if base == Reg::R10 {
                live.slots |= covering_slots(off as i64, size.bytes() as i64);
            } else if self.taint_in[pc] & bit(base) != 0 {
                // A derived stack pointer may read anywhere in the
                // frame (variable offsets probe whole byte ranges).
                live.slots = u64::MAX;
            }
        }

        // The frame pointer is pinned live: every stack access
        // re-derives from it.
        live.regs |= bit(Reg::R10);
        live
    }
}

// ---------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------

/// Forward reaching-definitions pass over register definition sites.
/// Fact: `Vec<u64>` bitset with one bit per definition site (an
/// instruction with a `def_reg`); a set bit means that definition may
/// reach the point uncobbered. Diagnostic only: no engine reads it, so
/// [`ProgramPasses`] leaves it out and `annotate --passes` runs it through
/// [`solve`] itself.
///
/// A helper call is the definition site of `r0` and additionally kills
/// every reaching definition of the clobbered `r1`–`r5`.
#[derive(Clone, Debug)]
pub struct ReachingDefs {
    /// pc of each definition site, indexed by site id.
    site_pcs: Vec<usize>,
    /// Definition-site id of each pc (`None` for non-defining insns).
    site_of_pc: Vec<Option<u32>>,
    /// Per-register kill mask over site ids.
    kill: Vec<Vec<u64>>,
    /// Words per fact.
    words: usize,
}

impl ReachingDefs {
    /// Builds the definition-site tables for one program.
    #[must_use]
    pub fn new(prog: &Program) -> ReachingDefs {
        let mut site_pcs = Vec::new();
        let mut site_of_pc = vec![None; prog.len()];
        for (pc, insn) in prog.insns().iter().enumerate() {
            if insn.def_reg().is_some() {
                site_of_pc[pc] = Some(u32::try_from(site_pcs.len()).expect("program fits u32"));
                site_pcs.push(pc);
            }
        }
        let words = site_pcs.len().div_ceil(64).max(1);
        let mut kill = vec![vec![0u64; words]; 11];
        for (site, &pc) in site_pcs.iter().enumerate() {
            let reg = prog.insns()[pc].def_reg().expect("site defines");
            kill[reg.index()][site / 64] |= 1 << (site % 64);
        }
        ReachingDefs {
            site_pcs,
            site_of_pc,
            kill,
            words,
        }
    }

    /// Number of definition sites in the program.
    #[must_use]
    pub fn sites(&self) -> usize {
        self.site_pcs.len()
    }

    /// The pc of definition site `id`.
    #[must_use]
    pub fn site_pc(&self, id: usize) -> usize {
        self.site_pcs[id]
    }
}

impl DataflowPass for ReachingDefs {
    type Fact = Vec<u64>;
    const DIRECTION: Direction = Direction::Forward;

    fn boundary_fact(&self) -> Vec<u64> {
        // Entry registers (`r1`, `r2`, `r10`) are implicit, not sites.
        vec![0; self.words]
    }

    fn empty_fact(&self) -> Vec<u64> {
        vec![0; self.words]
    }

    fn join(&self, into: &mut Vec<u64>, from: &Vec<u64>) -> bool {
        let mut changed = false;
        for (a, b) in into.iter_mut().zip(from) {
            let merged = *a | *b;
            changed |= merged != *a;
            *a = merged;
        }
        changed
    }

    fn transfer(&self, pc: usize, insn: Insn, fact: &Vec<u64>) -> Vec<u64> {
        let Some(site) = self.site_of_pc[pc] else {
            return fact.clone();
        };
        let mut f = fact.clone();
        let kill_reg = |r: Reg, f: &mut Vec<u64>| {
            for (w, k) in f.iter_mut().zip(&self.kill[r.index()]) {
                *w &= !k;
            }
        };
        match insn {
            Insn::Call { .. } => {
                for r in [Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
                    kill_reg(r, &mut f);
                }
            }
            _ => kill_reg(insn.def_reg().expect("site defines"), &mut f),
        }
        let site = site as usize;
        f[site / 64] |= 1 << (site % 64);
        f
    }
}

// ---------------------------------------------------------------------
// The bundled per-program pass results
// ---------------------------------------------------------------------

/// The stabilized pass results the exploration engines read — liveness
/// and dead code — over one program, computed once per analysis before
/// exploration starts.
#[derive(Clone, Debug)]
pub struct ProgramPasses {
    live_in: Vec<LiveSet>,
    live_out: Vec<LiveSet>,
    unreachable: Vec<bool>,
    dead_def: Vec<bool>,
    dead_insns: u64,
}

impl ProgramPasses {
    /// Runs liveness (with its [`StackTaint`] prerequisite) and
    /// dead-code detection over `prog`.
    #[must_use]
    pub fn compute(prog: &Program, cfg: &Cfg) -> ProgramPasses {
        let live = solve(&Liveness::new(prog, cfg), prog, cfg);

        let mut live_in = live.before;
        let live_out = live.after;
        let mut unreachable = vec![false; prog.len()];
        let mut dead_def = vec![false; prog.len()];
        let mut dead_insns = 0u64;
        for pc in 0..prog.len() {
            if cfg.rpo_pos(pc) == usize::MAX {
                unreachable[pc] = true;
                // No fact was computed; never clean anything here.
                live_in[pc] = LiveSet::ALL;
                dead_insns += 1;
                continue;
            }
            // A side-effect-free definition whose result is dead: the
            // pure ALU and immediate-load forms (loads can fault and
            // calls clobber, so neither is flagged). Diagnostic only —
            // the instruction still runs its safety checks.
            let insn = prog.insns()[pc];
            if let (Some(d), Insn::Alu { .. } | Insn::LoadImm64 { .. }) = (insn.def_reg(), insn) {
                if !live_out[pc].contains_reg(d) {
                    dead_def[pc] = true;
                    dead_insns += 1;
                }
            }
        }
        ProgramPasses {
            live_in,
            live_out,
            unreachable,
            dead_def,
            dead_insns,
        }
    }

    /// The liveness mask at the point *before* `pc` — what a state
    /// arriving at `pc` may still have read. Everything is live at an
    /// unreachable pc (no fact was computed, so nothing may be cleaned).
    #[must_use]
    pub fn live_in(&self, pc: usize) -> LiveSet {
        self.live_in.get(pc).copied().unwrap_or(LiveSet::ALL)
    }

    /// The liveness mask at the point *after* `pc`.
    #[must_use]
    pub fn live_out(&self, pc: usize) -> LiveSet {
        self.live_out.get(pc).copied().unwrap_or(LiveSet::ALL)
    }

    /// Whether `pc` is statically unreachable from the entry.
    #[must_use]
    pub fn is_unreachable(&self, pc: usize) -> bool {
        self.unreachable.get(pc).copied().unwrap_or(false)
    }

    /// Whether `pc` is a side-effect-free definition whose result is
    /// never read (diagnostic; the instruction still runs its checks).
    #[must_use]
    pub fn is_dead_def(&self, pc: usize) -> bool {
        self.dead_def.get(pc).copied().unwrap_or(false)
    }

    /// Total dead instructions: statically unreachable plus dead
    /// definitions — the `dead_insns` counter of
    /// [`crate::AnalysisStats`].
    #[must_use]
    pub fn dead_insns(&self) -> u64 {
        self.dead_insns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf::asm::assemble;

    fn passes(src: &str) -> (Program, ProgramPasses) {
        let prog = assemble(src).expect("assembles");
        let cfg = Cfg::build(&prog);
        let p = ProgramPasses::compute(&prog, &cfg);
        (prog, p)
    }

    #[test]
    fn straight_line_liveness_kills_overwritten_registers() {
        // r3 is written then overwritten before any read: dead before
        // pc 1. r0 is live into `exit`.
        let (_, p) = passes("r3 = 1\nr3 = 2\nr0 = r3\nexit");
        assert!(!p.live_in(0).contains_reg(Reg::R3));
        assert!(!p.live_in(1).contains_reg(Reg::R3), "about to be killed");
        assert!(p.live_in(2).contains_reg(Reg::R3));
        assert!(p.live_in(3).contains_reg(Reg::R0), "exit reads r0");
        assert!(!p.live_in(3).contains_reg(Reg::R3));
        assert!(p.live_in(0).contains_reg(Reg::R10), "r10 pinned live");
        assert!(p.is_dead_def(0), "r3 = 1 is overwritten unread");
        assert!(!p.is_dead_def(1));
        assert_eq!(p.dead_insns(), 1);
    }

    #[test]
    fn branches_union_liveness_over_both_edges() {
        // r4 is read only on the taken edge; it must stay live at the
        // branch even though the fall-through kills it.
        let (_, p) = passes(
            "r4 = 7\n\
             if r1 > 0 goto use\n\
             r0 = 0\n\
             exit\n\
             use:\n\
             r0 = r4\n\
             exit",
        );
        assert!(p.live_in(1).contains_reg(Reg::R4), "live through branch");
        assert!(!p.live_in(2).contains_reg(Reg::R4), "dead on fall-through");
        assert!(p.live_in(4).contains_reg(Reg::R4), "read on taken edge");
        assert!(p.live_in(1).contains_reg(Reg::R1), "branch reads r1");
    }

    #[test]
    fn stack_slots_live_through_spill_and_reload() {
        // A spill to [r10-8] is reloaded later: slot 63 is live between
        // the store and the load, dead after the load.
        let (_, p) = passes(
            "r3 = 42\n\
             *(u64 *)(r10 - 8) = r3\n\
             r4 = *(u64 *)(r10 - 8)\n\
             r0 = r4\n\
             exit",
        );
        assert!(!p.live_in(1).contains_slot(63), "not yet written");
        assert!(p.live_in(2).contains_slot(63), "awaiting the reload");
        assert!(!p.live_in(3).contains_slot(63), "consumed");
        // The store kills the slot: it is not live *into* the store.
        assert!(!p.live_out(1).contains_slot(62), "neighbors untouched");
    }

    #[test]
    fn derived_stack_pointers_make_all_slots_live() {
        // The load goes through r3 = r10 - 16: a derived pointer, so the
        // pass must assume any slot may be read.
        let (_, p) = passes(
            "r3 = r10\n\
             r3 += -16\n\
             *(u64 *)(r10 - 16) = r1\n\
             r0 = *(u64 *)(r3 + 0)\n\
             r0 = 0\n\
             exit",
        );
        assert_eq!(p.live_in(3).slots, u64::MAX, "tainted base reads all");
        assert_eq!(p.live_out(2).slots, u64::MAX, "all slots await the read");
        // The store fully defines slot 62, so its *old* value is dead
        // into pc 2 even though the derived read keeps everything else.
        assert!(!p.live_in(2).contains_slot(62), "killed by the spill");
        assert!(p.live_in(2).contains_slot(61), "neighbors stay live");
    }

    #[test]
    fn taint_tracks_copies_and_clears_on_scalarization() {
        let prog = assemble(
            "r3 = r10\n\
             r4 = r3\n\
             r4 = 5\n\
             r0 = 0\n\
             exit",
        )
        .expect("assembles");
        let cfg = Cfg::build(&prog);
        let taint = solve(&StackTaint, &prog, &cfg);
        let bit = |r: Reg| 1u16 << r.index();
        assert_eq!(taint.before[1] & bit(Reg::R3), bit(Reg::R3));
        assert_eq!(taint.before[2] & bit(Reg::R4), bit(Reg::R4), "copy");
        assert_eq!(taint.before[3] & bit(Reg::R4), 0, "imm mov clears");
        assert_ne!(taint.before[0] & bit(Reg::R10), 0, "r10 seeded");
    }

    #[test]
    fn calls_clobber_and_define() {
        let (_, p) = passes(
            "r6 = 1\n\
             r3 = 2\n\
             call 1\n\
             r0 += r6\n\
             exit",
        );
        // r3 dies at the call (clobbered, never read); r6 survives it.
        assert!(!p.live_in(2).contains_reg(Reg::R3), "clobbered unread");
        assert!(p.live_in(2).contains_reg(Reg::R6), "callee-saved use");
        assert!(!p.live_in(0).contains_reg(Reg::R0), "call defines r0");
        assert!(p.live_in(3).contains_reg(Reg::R0));
    }

    #[test]
    fn reaching_defs_count_joined_paths() {
        let prog = assemble(
            "r0 = 1\n\
             if r1 > 0 goto other\n\
             r0 = 2\n\
             other:\n\
             exit",
        )
        .expect("assembles");
        let reach = solve(&ReachingDefs::new(&prog), &prog, &Cfg::build(&prog)).before;
        let reaching_defs_in = |pc: usize| reach[pc].iter().map(|w| w.count_ones()).sum::<u32>();
        // Before exit both r0 definitions may reach (taken edge keeps
        // pc 0, fall-through replaced it at pc 2).
        assert_eq!(reaching_defs_in(3), 2);
        assert_eq!(reaching_defs_in(2), 1);
        assert_eq!(reaching_defs_in(0), 0, "entry has no sites");
    }

    #[test]
    fn unreachable_instructions_are_flagged_and_never_cleaned() {
        let (_, p) = passes(
            "r0 = 0\n\
             goto done\n\
             r0 = 9\n\
             done:\n\
             exit",
        );
        assert!(p.is_unreachable(2));
        assert!(!p.is_unreachable(1));
        assert_eq!(p.live_in(2), LiveSet::ALL, "no fact ⇒ clean nothing");
        assert_eq!(p.dead_insns(), 1);
    }

    #[test]
    fn loop_liveness_carries_the_counter_around_the_back_edge() {
        // The memset loop: r1 (counter) must stay live at the head; the
        // stored-to slots are never read, so they stay dead everywhere.
        let (_, p) = passes(
            "r1 = 0\n\
             loop:\n\
             r3 = r10\n\
             r3 += -16\n\
             r3 += r1\n\
             *(u8 *)(r3 + 0) = 0\n\
             r1 += 1\n\
             if r1 < 16 goto loop\n\
             r0 = r1\n\
             exit",
        );
        assert!(p.live_in(1).contains_reg(Reg::R1), "counter live at head");
        assert!(!p.live_in(1).contains_reg(Reg::R0), "r0 dead until set");
        assert_eq!(p.live_in(1).slots, 0, "stores are never read back");
    }

    #[test]
    fn covering_slots_spans_unaligned_ranges() {
        assert_eq!(covering_slots(-8, 8), 1 << 63);
        assert_eq!(covering_slots(-16, 8), 1 << 62);
        // An unaligned 8-byte range touches two slots.
        assert_eq!(covering_slots(-12, 8), (1 << 62) | (1 << 63));
        assert_eq!(covering_slots(-512, 1), 1);
        assert_eq!(covering_slots(-520, 4), 0, "out of frame ignored");
    }

    #[test]
    fn reaching_defs_site_tables_round_trip() {
        let prog = assemble("r0 = 1\nr3 = 2\nexit").expect("assembles");
        let rd = ReachingDefs::new(&prog);
        assert_eq!(rd.sites(), 2);
        assert_eq!(rd.site_pc(0), 0);
        assert_eq!(rd.site_pc(1), 1);
    }
}
