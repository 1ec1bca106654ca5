//! Control-flow graph construction, back-edge classification, and the
//! weak-topological iteration order of the fixpoint engine.
//!
//! Earlier revisions rejected every cyclic program here, like the
//! pre-5.3 kernel verifier. Loops are now first-class: a depth-first
//! pass computes a reverse postorder (RPO) over the reachable
//! instructions, and every *retreating* edge with respect to that order
//! — an edge from a later to an earlier position, which every cycle must
//! contain — is classified as a back-edge whose target is a **loop
//! head**, the widening point of the fixpoint strategy's worklist. The
//! classic all-loops-rejected behaviour survives behind
//! [`crate::AnalyzerOptions::reject_loops`].

use ebpf::{Insn, Program};

/// The control-flow graph of a program: successors and predecessors per
/// instruction, the reverse-postorder iteration schedule, and the
/// back-edge/loop-head classification driving widening. Built once per
/// analysis into flat arrays, so no query allocates.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// At most two successors per instruction: `succs[i].0[..succs[i].1]`.
    succs: Vec<([usize; 2], u8)>,
    /// Predecessors over the reachable subgraph in compressed rows: those
    /// of `i` are `preds[pred_start[i]..pred_start[i + 1]]`.
    pred_start: Vec<usize>,
    preds: Vec<usize>,
    rpo: Vec<usize>,
    /// Position of each instruction in `rpo`; `usize::MAX` marks
    /// unreachable instructions.
    rpo_pos: Vec<usize>,
    /// Dense index of each loop head in pc order; `usize::MAX` marks
    /// every other instruction.
    head_idx: Vec<usize>,
    /// RPO position of each loop head, by head index.
    head_rpo: Vec<usize>,
    back_edges: Vec<(usize, usize)>,
}

impl Cfg {
    /// Builds the CFG, classifying back-edges instead of rejecting them.
    #[must_use]
    pub fn build(prog: &Program) -> Cfg {
        let n = prog.len();
        let target = |i, off| prog.jump_target(i, off).expect("validated jump");
        let succs: Vec<([usize; 2], u8)> = prog
            .insns()
            .iter()
            .enumerate()
            .map(|(i, insn)| match *insn {
                Insn::Exit => ([0, 0], 0),
                Insn::Ja { off } => ([target(i, off), 0], 1),
                // Fall-through first, then the taken edge.
                Insn::Jmp { off, .. } => ([i + 1, target(i, off)], 2),
                _ => ([i + 1, 0], 1),
            })
            .collect();
        let succ = |i: usize| &succs[i].0[..usize::from(succs[i].1)];

        // Iterative DFS producing a postorder of the reachable subgraph;
        // its reverse is the RPO the worklist iterates in. `rpo_pos`
        // doubles as the visited mark until the positions are known.
        let mut rpo_pos = vec![usize::MAX; n];
        let mut post = Vec::with_capacity(n);
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        rpo_pos[0] = 0;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(&s) = succ(node).get(*next) {
                *next += 1;
                if rpo_pos[s] == usize::MAX {
                    rpo_pos[s] = 0;
                    stack.push((s, 0));
                }
            } else {
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();
        let rpo = post;
        for (pos, &pc) in rpo.iter().enumerate() {
            rpo_pos[pc] = pos;
        }

        // Retreating edges w.r.t. the RPO: robust for irreducible CFGs
        // too, and every cycle necessarily contains one, so widening at
        // their targets guarantees termination. The same walk counts the
        // reachable predecessors of every instruction.
        let mut head_idx = vec![usize::MAX; n];
        let mut back_edges = Vec::new();
        let mut pred_start = vec![0usize; n + 1];
        for &i in &rpo {
            for &s in succ(i) {
                pred_start[s] += 1;
                if rpo_pos[s] <= rpo_pos[i] {
                    head_idx[s] = 0;
                    back_edges.push((i, s));
                }
            }
        }
        let mut head_rpo = Vec::new();
        for (pc, idx) in head_idx.iter_mut().enumerate() {
            if *idx != usize::MAX {
                *idx = head_rpo.len();
                head_rpo.push(rpo_pos[pc]);
            }
        }
        // Running sums leave each row's end in `pred_start`; filling
        // backwards moves every entry to its row's start, keeping the
        // predecessors of each row in RPO order.
        let mut total = 0;
        for end in &mut pred_start {
            total += *end;
            *end = total;
        }
        let mut preds = vec![0usize; total];
        for &i in rpo.iter().rev() {
            for &s in succ(i) {
                pred_start[s] -= 1;
                preds[pred_start[s]] = i;
            }
        }

        Cfg {
            succs,
            pred_start,
            preds,
            rpo,
            rpo_pos,
            head_idx,
            head_rpo,
            back_edges,
        }
    }

    /// Successor instruction indices of instruction `i`. For conditional
    /// jumps the fall-through edge comes first, then the taken edge.
    #[must_use]
    pub fn successors(&self, i: usize) -> &[usize] {
        let (succs, len) = &self.succs[i];
        &succs[..usize::from(*len)]
    }

    /// Reachable predecessors of instruction `i`, in RPO order of the
    /// source (empty for an unreachable instruction). A conditional jump
    /// whose two edges meet at `i` is listed twice.
    #[must_use]
    pub fn predecessors(&self, i: usize) -> &[usize] {
        &self.preds[self.pred_start[i]..self.pred_start[i + 1]]
    }

    /// Whether paths can re-converge at instruction `i`: a loop head or a
    /// merge point with two or more reachable in-edges. The exploration
    /// engines prune and clean dead state components only here.
    #[must_use]
    pub fn is_checkpoint(&self, i: usize) -> bool {
        self.is_loop_head(i) || self.predecessors(i).len() > 1
    }

    /// Instructions reachable from the entry, in reverse postorder — a
    /// weak-topological iteration schedule: acyclic regions come in
    /// dependency order, loop bodies after their head.
    #[must_use]
    pub fn rpo(&self) -> &[usize] {
        &self.rpo
    }

    /// The RPO position of instruction `i` — the worklist priority
    /// (`usize::MAX` for unreachable instructions, which are never
    /// queued).
    #[must_use]
    pub fn rpo_pos(&self, i: usize) -> usize {
        self.rpo_pos[i]
    }

    /// Whether instruction `i` is the target of a back-edge — a widening
    /// point of the fixpoint iteration.
    #[must_use]
    pub fn is_loop_head(&self, i: usize) -> bool {
        self.head_idx[i] != usize::MAX
    }

    /// The dense index of loop head `i` among all loop heads, numbered in
    /// pc order (`usize::MAX` if `i` is not a loop head) — the slot of
    /// its per-head trip counter and widening summary.
    #[must_use]
    pub fn head_index(&self, i: usize) -> usize {
        self.head_idx[i]
    }

    /// The RPO position of every loop head, by [`Cfg::head_index`]. Heads
    /// later in RPO are (for reducible CFGs) nested inside or sequenced
    /// after earlier ones; the path explorers reset their unroll budget
    /// when an earlier head takes a trip, so an inner loop is unrolled
    /// per *entry*, not once per program.
    #[must_use]
    pub fn head_rpo(&self) -> &[usize] {
        &self.head_rpo
    }

    /// Every retreating edge `(from, to)` in RPO terms. Empty exactly for
    /// the loop-free programs the classic verifier accepted.
    #[must_use]
    pub fn back_edges(&self) -> &[(usize, usize)] {
        &self.back_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf::asm::assemble;

    #[test]
    fn straight_line_rpo_is_identity() {
        let prog = assemble("r0 = 1\nr0 += 1\nexit").unwrap();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.rpo(), &[0, 1, 2]);
        assert_eq!(cfg.successors(0), &[1]);
        assert!(cfg.successors(2).is_empty());
        assert!(cfg.back_edges().is_empty());
    }

    #[test]
    fn diamond_orders_merge_last() {
        let prog = assemble(
            r"
                r0 = 0
                if r1 == 0 goto other
                r0 = 1
                goto end
            other:
                r0 = 2
            end:
                exit
            ",
        )
        .unwrap();
        let cfg = Cfg::build(&prog);
        let pos = |i: usize| cfg.rpo_pos(i);
        // The merge (exit, index 5) comes after both arms.
        assert!(pos(5) > pos(2) && pos(5) > pos(4));
        // Conditional successors: fall-through then taken.
        assert_eq!(cfg.successors(1), &[2, 4]);
        assert!(cfg.back_edges().is_empty());
        // Predecessors come in RPO order of their source; the merge is a
        // checkpoint, the arms are not.
        assert_eq!(cfg.predecessors(5), &[4, 3]);
        assert!(cfg.is_checkpoint(5) && !cfg.is_checkpoint(2));
    }

    #[test]
    fn back_edges_are_classified_not_rejected() {
        let prog = assemble("loop:\nr0 = 0\nif r1 > 0 goto loop\nexit").unwrap();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.back_edges(), &[(1, 0)]);
        assert!(cfg.is_loop_head(0));
        assert!(!cfg.is_loop_head(1));
        // The head precedes its body in the iteration order.
        assert!(cfg.rpo_pos(0) < cfg.rpo_pos(1));

        // A self-loop is its own head.
        let prog = assemble("self:\ngoto self\nexit").unwrap();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.back_edges(), &[(0, 0)]);
        assert!(cfg.is_loop_head(0));
    }

    #[test]
    fn unreachable_code_is_not_ordered() {
        let prog = assemble("goto end\nr0 = 9\nend:\nr0 = 0\nexit").unwrap();
        let cfg = Cfg::build(&prog);
        assert!(!cfg.rpo().contains(&1), "dead insn not in rpo");
        assert_eq!(cfg.rpo_pos(1), usize::MAX);
        // The dead instruction's edge is not a predecessor.
        assert_eq!(cfg.predecessors(2), &[0]);
        assert!(cfg.predecessors(1).is_empty());
    }

    #[test]
    fn nested_loops_mark_both_heads() {
        let prog = assemble(
            r"
                r0 = 0
            outer:
                r1 = 0
            inner:
                r1 += 1
                if r1 < 4 goto inner
                r0 += 1
                if r0 < 4 goto outer
                exit
            ",
        )
        .unwrap();
        let cfg = Cfg::build(&prog);
        assert!(cfg.is_loop_head(1), "outer head");
        assert!(cfg.is_loop_head(2), "inner head");
        assert_eq!(cfg.back_edges().len(), 2);
        // Heads are indexed in pc order; the inner one comes later in RPO.
        assert_eq!((cfg.head_index(1), cfg.head_index(2)), (0, 1));
        assert_eq!(cfg.head_index(3), usize::MAX);
        assert!(cfg.head_rpo()[0] < cfg.head_rpo()[1]);
    }
}
