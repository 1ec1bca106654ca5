//! Program generators with known answers.
//!
//! Every generated program is a [`Case`]: its encoded bytes, the answer
//! a sound and precise verifier should give, and the contexts on which
//! [`crate::label::check`] confirms that answer in `ebpf::Vm`. The answer
//! comes from how the program was built, never from the verifier.
//!
//! The families ([`Family`]) are the same in every workload:
//!
//! * `Safe` programs are memory-safe and reach `exit`, and their safety
//!   lies within reach of the tnum × interval domain: every index is a
//!   monotone expression over independent context bytes, so interval
//!   arithmetic on it is exact and the generator knows the true maximum.
//! * `Relational` programs are just as safe, but their safety rests on a
//!   relation between two registers (`i + (M - i)`, two counters in
//!   lockstep), which a non-relational domain cannot see. They are kept
//!   on purpose: they are the precision loss `false_rejects` counts.
//! * `OutOfBounds` programs store one byte past their stack window on
//!   the witness context, `UncheckedDeref` programs read through a
//!   `map_lookup` result without the NULL check, and `NonTerminating`
//!   programs never reach `exit`. The last family is kept on purpose:
//!   the verifier accepts it today, and `unsound_accepts` must show it.

use ebpf::asm::assemble;

use crate::rng::Rng;

/// Length of the context buffer every program is verified and run with
/// (the verifier's default `ctx_size`).
pub const CTX_LEN: usize = 64;

/// Largest stack index a generated window uses (the frame is 512 bytes).
const MAX_INDEX: u64 = 480;

/// Values along an ALU chain stay below this, so no step wraps.
const VALUE_LIMIT: u64 = 1 << 40;

/// Random contexts a safe program must also survive, besides the
/// extreme ones.
const RANDOM_CONTEXTS: usize = 6;

/// What a program is, and therefore which verdict is right for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Memory-safe, terminating, provable by a non-relational domain.
    Safe,
    /// Memory-safe and terminating, provable only with a relation
    /// between registers.
    Relational,
    /// Stores one byte past its window on the witness context.
    OutOfBounds,
    /// Dereferences a `map_lookup` result without the NULL check.
    UncheckedDeref,
    /// Never reaches `exit`.
    NonTerminating,
}

impl Family {
    /// Whether accepting the program is the right verdict.
    #[must_use]
    pub fn is_safe(self) -> bool {
        matches!(self, Family::Safe | Family::Relational)
    }

    /// The family's name in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Safe => "safe",
            Family::Relational => "relational",
            Family::OutOfBounds => "out_of_bounds",
            Family::UncheckedDeref => "unchecked_deref",
            Family::NonTerminating => "non_terminating",
        }
    }
}

/// One generated program with its known answer.
#[derive(Clone, Debug)]
pub struct Case {
    /// The generator shape it came from (for reports).
    pub shape: &'static str,
    /// Its family, which fixes the right verdict.
    pub family: Family,
    /// The encoded bytecode: all the verifier is given.
    pub bytes: Vec<u8>,
    /// For a safe program, contexts on which the VM must reach `exit`;
    /// for an unsafe one, the single witness context on which it must
    /// fault (or run out of fuel, for `NonTerminating`).
    pub contexts: Vec<Vec<u8>>,
}

impl Case {
    fn new(shape: &'static str, family: Family, src: &str, contexts: Vec<Vec<u8>>) -> Case {
        let prog = assemble(src).unwrap_or_else(|e| panic!("{shape} assembles: {e}\n{src}"));
        Case {
            shape,
            family,
            bytes: prog.to_bytes(),
            contexts,
        }
    }
}

/// Contexts for a loop shape: all zeros, all ones, and random ones.
fn loop_contexts(rng: &mut Rng, family: Family, witness: Vec<u8>) -> Vec<Vec<u8>> {
    if !family.is_safe() {
        return vec![witness];
    }
    let mut out = vec![vec![0u8; CTX_LEN], vec![0xffu8; CTX_LEN]];
    out.extend((0..RANDOM_CONTEXTS).map(|_| random_context(rng)));
    out
}

fn random_context(rng: &mut Rng) -> Vec<u8> {
    (0..CTX_LEN).map(|_| rng.next_u64() as u8).collect()
}

/// The two non-terminating forms the verifier accepts today.
#[must_use]
pub fn non_terminating(form: u64) -> Case {
    let src = if form % 2 == 0 {
        "l:\n goto l\n"
    } else {
        "r0 = 0\nl:\n r0 += 1\n goto l\n"
    };
    Case::new(
        "spin",
        Family::NonTerminating,
        src,
        vec![vec![0u8; CTX_LEN]],
    )
}

/// The canonical map filter: look a key up, NULL-check the value
/// pointer, bump the counter through it. Without the check
/// (`UncheckedDeref`) the VM's empty map returns NULL and the load
/// faults.
#[must_use]
pub fn map_filter(rng: &mut Rng, family: Family) -> Case {
    let key = rng.below(16);
    let bump = rng.range(1, 9);
    let check = if family == Family::UncheckedDeref {
        ""
    } else {
        "if r0 == 0 goto miss\n"
    };
    let src = format!(
        "*(u32 *)(r10 - 4) = {key}\nr1 = map 0\nr2 = r10\nr2 += -4\ncall 1\n{check}\
         r1 = *(u64 *)(r0 + 0)\nr1 += {bump}\n*(u64 *)(r0 + 0) = r1\nr0 = 1\nexit\n\
         miss:\nr0 = 0\nexit\n"
    );
    let ctx = loop_contexts(rng, family, vec![0u8; CTX_LEN]);
    Case::new("map_filter", family, &src, ctx)
}

/// A bounded `map_update` loop: key and value regions re-proved on
/// every trip, the counter carried in `r6` across the helper call.
#[must_use]
pub fn map_update_loop(rng: &mut Rng, trips: u64) -> Case {
    let src = format!(
        "r6 = 0\nloop:\n*(u32 *)(r10 - 4) = r6\n*(u64 *)(r10 - 16) = r6\nr1 = map 0\n\
         r2 = r10\nr2 += -4\nr3 = r10\nr3 += -16\nr4 = 0\ncall 2\nr6 += 1\n\
         if r6 < {trips} goto loop\nr0 = 0\nexit\n"
    );
    let ctx = loop_contexts(rng, Family::Safe, Vec::new());
    Case::new("map_update_loop", Family::Safe, &src, ctx)
}

/// memset over a `window`-byte stack buffer with the index masked to
/// `window - 1` (`window` a power of two): safe for every trip count.
/// The `OutOfBounds` variant moves the buffer one byte up, so the trip
/// that reaches index `window - 1` stores at `r10` (needs
/// `trips >= window`).
#[must_use]
pub fn masked_memset(rng: &mut Rng, trips: u64, window: u64, family: Family) -> Case {
    let base = if family == Family::OutOfBounds {
        assert!(trips >= window, "the witness trip must exist");
        window - 1
    } else {
        window
    };
    let mask = window - 1;
    let src = format!(
        "r1 = 0\nloop:\nr2 = r1\nr2 &= {mask}\nr3 = r10\nr3 += -{base}\nr3 += r2\n\
         *(u8 *)(r3 + 0) = 0\nr1 += 1\nif r1 < {trips} goto loop\nr0 = r1\nexit\n"
    );
    let ctx = loop_contexts(rng, family, vec![0u8; CTX_LEN]);
    Case::new("masked_memset", family, &src, ctx)
}

/// memset indexed by the loop counter itself (no mask): the exit test,
/// harvested as a widening threshold, carries the bounds proof. The
/// `OutOfBounds` variant's buffer is one byte short.
#[must_use]
pub fn counted_memset(rng: &mut Rng, trips: u64, family: Family) -> Case {
    let base = if family == Family::OutOfBounds {
        trips - 1
    } else {
        trips
    };
    let src = format!(
        "r1 = 0\nloop:\nr3 = r10\nr3 += -{base}\nr3 += r1\n*(u8 *)(r3 + 0) = 0\n\
         r1 += 1\nif r1 < {trips} goto loop\nr0 = r1\nexit\n"
    );
    let ctx = loop_contexts(rng, family, vec![0u8; CTX_LEN]);
    Case::new("counted_memset", family, &src, ctx)
}

/// Two counters in lockstep: the loop tests `r1` but indexes with `r6`.
/// Safe because `r6 == r1` on every trip, a relation a non-relational
/// domain loses once the loop is joined or widened (`Relational`).
#[must_use]
pub fn lockstep_memset(rng: &mut Rng, trips: u64) -> Case {
    let src = format!(
        "r1 = 0\nr6 = 0\nloop:\nr3 = r10\nr3 += -{trips}\nr3 += r6\n*(u8 *)(r3 + 0) = 0\n\
         r1 += 1\nr6 += 1\nif r1 < {trips} goto loop\nr0 = r6\nexit\n"
    );
    let ctx = loop_contexts(rng, Family::Relational, Vec::new());
    Case::new("lockstep_memset", Family::Relational, &src, ctx)
}

/// Loop-carried spills to two slots in different stack chunks per trip.
#[must_use]
pub fn spill_loop(rng: &mut Rng, trips: u64) -> Case {
    let lo = 8 * rng.range(1, 8);
    let hi = 8 * rng.range(17, 63);
    let src = format!(
        "r1 = 0\nr6 = 0\nloop:\nr6 += r1\n*(u64 *)(r10 - {lo}) = r6\n*(u64 *)(r10 - {hi}) = r1\n\
         r7 = *(u64 *)(r10 - {lo})\nr1 += 1\nif r1 < {trips} goto loop\nr0 = r7\nexit\n"
    );
    let ctx = loop_contexts(rng, Family::Safe, Vec::new());
    Case::new("spill_loop", Family::Safe, &src, ctx)
}

/// A continue-style loop with two back edges and an accumulator that
/// differs between them. Stores at `i` for `i` in `0..=bound`, into a
/// `bound + 1`-byte buffer (`bound` for `OutOfBounds`).
#[must_use]
pub fn two_back_edge(rng: &mut Rng, bound: u64, family: Family) -> Case {
    let base = if family == Family::OutOfBounds {
        bound
    } else {
        bound + 1
    };
    let extra = rng.range(2, 9);
    let src = format!(
        "r1 = 0\nr6 = 0\nloop:\nr3 = r10\nr3 += -{base}\nr3 += r1\n*(u8 *)(r3 + 0) = 0\n\
         r1 += 1\nr6 += 1\nif r1 > {bound} goto out\nif r2 > 0 goto loop\nr6 += {extra}\n\
         goto loop\nout:\nr0 = r1\nexit\n"
    );
    let ctx = loop_contexts(rng, family, vec![0u8; CTX_LEN]);
    Case::new("two_back_edge", family, &src, ctx)
}

/// A loop-free packet filter: an untrusted byte bounded by a guard,
/// a checked store into a 64-byte window, and a scalar ALU tail. The
/// `OutOfBounds` variant's guard admits 64, and its witness context
/// carries that byte.
#[must_use]
pub fn packet_filter(rng: &mut Rng, bound: u64, family: Family) -> Case {
    let off = rng.below(CTX_LEN as u64);
    let bound = if family == Family::OutOfBounds {
        64
    } else {
        bound
    };
    let shift = rng.range(1, 3);
    let add = rng.range(1, 64);
    let src = format!(
        "r2 = *(u8 *)(r1 + {off})\nif r2 > {bound} goto drop\nr3 = r10\nr3 += -64\nr3 += r2\n\
         *(u8 *)(r3 + 0) = 1\nr4 = r2\nr4 <<= {shift}\nr4 += {add}\nr4 &= 255\nr0 = r4\nexit\n\
         drop:\nr0 = 0\nexit\n"
    );
    let mut witness = vec![0u8; CTX_LEN];
    witness[off as usize] = 64;
    let ctx = loop_contexts(rng, family, witness);
    Case::new("packet_filter", family, &src, ctx)
}

/// A loop whose two arms differ only in a dead scratch register, then
/// re-converge on a masked store.
#[must_use]
pub fn dead_scratch_loop(rng: &mut Rng, trips: u64) -> Case {
    let a = rng.range(1, 1000);
    let b = rng.range(1001, 2000);
    let src = format!(
        "r1 = 0\nloop:\nr6 = r2\nr6 &= 1\nif r6 > 0 goto odd\nr6 = {a}\ngoto join\nodd:\nr6 = {b}\n\
         join:\nr4 = r1\nr4 &= 15\nr3 = r10\nr3 += -16\nr3 += r4\n*(u8 *)(r3 + 0) = 0\n\
         r1 += 1\nif r1 < {trips} goto loop\nr0 = r1\nexit\n"
    );
    let ctx = loop_contexts(rng, Family::Safe, Vec::new());
    Case::new("dead_scratch_loop", Family::Safe, &src, ctx)
}

/// A tree of `depth` unknown-bit diamonds, each folding a distinct
/// power of two into `r6`, feeding a per-path bounded loop with a
/// masked store: `2^depth` paths with pairwise-distinct live state. The
/// `OutOfBounds` variant's window is one byte short (`trips >= 16`, so
/// index 15 is reached on every path).
#[must_use]
pub fn branchy_tree(rng: &mut Rng, depth: u64, trips: u64, family: Family) -> Case {
    let mut bits: Vec<u64> = (0..8).collect();
    rng.shuffle(&mut bits);
    let off = rng.below(CTX_LEN as u64);
    let mut src = format!("r2 = *(u8 *)(r1 + {off})\nr6 = 0\n");
    for (i, &bit) in bits.iter().take(depth as usize).enumerate() {
        let add = 1u64 << i;
        src.push_str(&format!(
            "r3 = r2\nr3 >>= {bit}\nr3 &= 1\nif r3 > 0 goto join{i}\nr6 += {add}\njoin{i}:\n"
        ));
    }
    let base = if family == Family::OutOfBounds {
        assert!(trips >= 16, "the witness trip must exist");
        15
    } else {
        16
    };
    src.push_str(&format!(
        "r7 = 0\nloop:\nr4 = r7\nr4 += r6\nr4 &= 15\nr3 = r10\nr3 += -{base}\nr3 += r4\n\
         *(u8 *)(r3 + 0) = 0\nr7 += 1\nif r7 < {trips} goto loop\nr0 = r6\nexit\n"
    ));
    let ctx = loop_contexts(rng, family, vec![0u8; CTX_LEN]);
    Case::new("branchy_tree", family, &src, ctx)
}

/// One input of an ALU chain: a context byte or halfword, masked and
/// optionally or-ed with a constant. Its value set is
/// `{(x & mask) | or : x}`, so its extremes sit at `x = 0` and
/// `x = all ones`.
struct Leaf {
    off: usize,
    bytes: usize,
    mask: u64,
    or: u64,
}

impl Leaf {
    fn min(&self) -> u64 {
        self.or
    }

    fn max(&self) -> u64 {
        self.mask | self.or
    }

    fn emit(&self, reg: &str, src: &mut String) {
        let size = if self.bytes == 1 { "u8" } else { "u16" };
        src.push_str(&format!(
            "{reg} = *({size} *)(r1 + {})\n{reg} &= {}\n",
            self.off, self.mask
        ));
        if self.or != 0 {
            src.push_str(&format!("{reg} |= {}\n", self.or));
        }
    }

    /// Writes the input `x` into both extreme contexts: `hi` gets the
    /// bytes that push the chain to its maximum, `lo` to its minimum.
    fn place(&self, hi: &mut [u8], lo: &mut [u8], hi_x: u64, lo_x: u64) {
        for i in 0..self.bytes {
            hi[self.off + i] = (hi_x >> (8 * i)) as u8;
            lo[self.off + i] = (lo_x >> (8 * i)) as u8;
        }
    }
}

/// The state of an ALU chain under construction: the assembly so far,
/// the exact range of the accumulator `r6`, and the two contexts that
/// drive it to its extremes.
struct Chain {
    src: String,
    lo: u64,
    hi: u64,
    ctx_hi: Vec<u8>,
    ctx_lo: Vec<u8>,
    slots: Vec<usize>,
    labels: usize,
}

impl Chain {
    fn leaf(&mut self, rng: &mut Rng, max_mask: u64) -> Leaf {
        let slot = self.slots.pop().expect("fewer leaves than context slots");
        let bytes = if max_mask > 0xff && rng.below(4) == 0 {
            2
        } else {
            1
        };
        let width = if bytes == 1 { 0xff } else { 0xffff };
        let mask = rng.range(1, max_mask.min(width));
        let or = if rng.below(3) == 0 {
            rng.below(max_mask.min(width) + 1)
        } else {
            0
        };
        Leaf {
            off: 2 * slot,
            bytes,
            mask,
            or,
        }
    }

    /// Adds a leaf on the accumulator's increasing side.
    fn place_up(&mut self, leaf: &Leaf) {
        leaf.place(&mut self.ctx_hi, &mut self.ctx_lo, u64::MAX, 0);
    }

    fn step(&mut self, rng: &mut Rng) {
        match rng.below(8) {
            0 | 1 => {
                let leaf = self.leaf(rng, 0x3ff);
                leaf.emit("r7", &mut self.src);
                self.src.push_str("r6 += r7\n");
                self.place_up(&leaf);
                self.lo += leaf.min();
                self.hi += leaf.max();
            }
            2 => {
                // Subtract a leaf, first lifting the accumulator so that
                // the difference never wraps.
                let leaf = self.leaf(rng, 0x3ff);
                if self.lo < leaf.max() {
                    let lift = leaf.max() - self.lo;
                    self.src.push_str(&format!("r6 += {lift}\n"));
                    self.lo += lift;
                    self.hi += lift;
                }
                leaf.emit("r7", &mut self.src);
                self.src.push_str("r6 -= r7\n");
                leaf.place(&mut self.ctx_hi, &mut self.ctx_lo, 0, u64::MAX);
                self.lo -= leaf.max();
                self.hi -= leaf.min();
            }
            3 => {
                let leaf = self.leaf(rng, 15);
                if self.hi.saturating_mul(leaf.max()) >= VALUE_LIMIT {
                    return self.shift_right(rng);
                }
                leaf.emit("r7", &mut self.src);
                self.src.push_str("r6 *= r7\n");
                self.place_up(&leaf);
                self.lo *= leaf.min();
                self.hi *= leaf.max();
            }
            4 => {
                let k = rng.range(2, 9);
                if self.hi.saturating_mul(k) >= VALUE_LIMIT {
                    return self.shift_right(rng);
                }
                self.src.push_str(&format!("r6 *= {k}\n"));
                self.lo *= k;
                self.hi *= k;
            }
            5 => {
                let c = rng.range(1, 1000);
                self.src.push_str(&format!("r6 += {c}\n"));
                self.lo += c;
                self.hi += c;
            }
            6 => {
                let k = rng.range(1, 3);
                if self.hi << k >= VALUE_LIMIT {
                    return self.shift_right(rng);
                }
                self.src.push_str(&format!("r6 <<= {k}\n"));
                self.lo <<= k;
                self.hi <<= k;
            }
            _ => self.guarded_add(rng),
        }
    }

    fn shift_right(&mut self, rng: &mut Rng) {
        let k = rng.range(1, 4);
        self.src.push_str(&format!("r6 >>= {k}\n"));
        self.lo >>= k;
        self.hi >>= k;
    }

    /// `if leaf > K goto skip; r6 += leaf; skip:` with `K` a value the
    /// leaf can take, so the largest contribution is exactly `K`.
    fn guarded_add(&mut self, rng: &mut Rng) {
        let leaf = self.leaf(rng, 0xff);
        let k = leaf.or | (leaf.mask & rng.next_u64());
        let label = self.labels;
        self.labels += 1;
        leaf.emit("r8", &mut self.src);
        self.src.push_str(&format!(
            "if r8 > {k} goto skip{label}\nr6 += r8\nskip{label}:\n"
        ));
        // The maximum adds exactly K (input K & mask); the minimum adds
        // 0 through the taken edge when some input exceeds K, else the
        // leaf's own minimum.
        let (lo_add, lo_x) = if leaf.max() > k {
            (0, u64::MAX)
        } else {
            (leaf.min(), 0)
        };
        leaf.place(&mut self.ctx_hi, &mut self.ctx_lo, k & leaf.mask, lo_x);
        self.lo += lo_add;
        self.hi += k;
    }
}

/// A straight-line or shallow-branch ALU program over unknown context
/// bytes: masks with fresh immediates, then an `add`/`sub`/`mul`/shift
/// chain whose exact maximum `M` the generator tracks, then one store
/// at that index into a stack window. `Safe` sizes the window `M + 1`
/// bytes, `OutOfBounds` `M` (off by one, witnessed by the context that
/// drives the chain to `M`), `Relational` rewrites the index as
/// `i + (M - i)`, and `UncheckedDeref` appends an unchecked map read.
#[must_use]
pub fn alu_chain(rng: &mut Rng, family: Family) -> Case {
    loop {
        if let Some(case) = try_alu_chain(rng, family) {
            return case;
        }
    }
}

fn try_alu_chain(rng: &mut Rng, family: Family) -> Option<Case> {
    let mut slots: Vec<usize> = (0..CTX_LEN / 2).collect();
    rng.shuffle(&mut slots);
    let mut chain = Chain {
        src: String::new(),
        lo: 0,
        hi: 0,
        ctx_hi: vec![0u8; CTX_LEN],
        ctx_lo: vec![0u8; CTX_LEN],
        slots,
        labels: 0,
    };
    let first = chain.leaf(rng, 0x3ff);
    first.emit("r6", &mut chain.src);
    chain.place_up(&first);
    chain.lo = first.min();
    chain.hi = first.max();
    for _ in 0..rng.range(4, 11) {
        chain.step(rng);
    }
    let mut k = 0;
    while chain.hi >> k > MAX_INDEX {
        k += 1;
    }
    if k > 0 {
        chain.src.push_str(&format!("r6 >>= {k}\n"));
    }
    let (lo, hi) = (chain.lo >> k, chain.hi >> k);
    if lo == hi {
        return None; // a constant index tests nothing
    }
    let mut src = chain.src;
    if family == Family::Relational {
        src.push_str(&format!("r7 = r6\nr8 = {hi}\nr8 -= r7\nr6 += r8\n"));
    }
    let window = if family == Family::OutOfBounds {
        hi
    } else {
        hi + 1
    };
    src.push_str(&format!(
        "r3 = r10\nr3 += -{window}\nr3 += r6\n*(u8 *)(r3 + 0) = 0\n"
    ));
    if family == Family::UncheckedDeref {
        let key = rng.below(16);
        src.push_str(&format!(
            "*(u32 *)(r10 - 4) = {key}\nr1 = map 0\nr2 = r10\nr2 += -4\ncall 1\n\
             r6 = *(u64 *)(r0 + 0)\n"
        ));
    }
    src.push_str("r0 = 0\nexit\n");
    let contexts = if family.is_safe() {
        let mut out = vec![chain.ctx_hi, chain.ctx_lo];
        out.extend((0..RANDOM_CONTEXTS).map(|_| random_context(rng)));
        out
    } else {
        vec![chain.ctx_hi]
    };
    Some(Case::new("alu_chain", family, &src, contexts))
}
