//! The typed eBPF-subset instruction set.

use crate::reg::Reg;

/// ALU operation selector (the high nibble of an ALU opcode).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; BPF defines `x / 0 = 0`.
    Div,
    /// Bitwise OR.
    Or,
    /// Bitwise AND.
    And,
    /// Left shift; the amount is masked to the operand width.
    Lsh,
    /// Logical right shift; the amount is masked to the operand width.
    Rsh,
    /// Two's-complement negation (`dst = -dst`; no source operand).
    Neg,
    /// Unsigned remainder; BPF defines `x % 0 = x`.
    Mod,
    /// Bitwise XOR.
    Xor,
    /// Move (register copy or immediate load).
    Mov,
    /// Arithmetic right shift; the amount is masked to the operand width.
    Arsh,
}

impl AluOp {
    /// All ALU operations.
    pub const ALL: [AluOp; 13] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Or,
        AluOp::And,
        AluOp::Lsh,
        AluOp::Rsh,
        AluOp::Neg,
        AluOp::Mod,
        AluOp::Xor,
        AluOp::Mov,
        AluOp::Arsh,
    ];
}

/// Operation width: 64-bit (`alu64`/`jmp`) or 32-bit (`alu32`/`jmp32`).
///
/// 32-bit ALU operations act on the low halves and zero-extend the result
/// into the 64-bit destination, exactly as in the kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Width {
    /// 32-bit subregister operation.
    W32,
    /// Full 64-bit operation.
    W64,
}

/// The second operand of an ALU or conditional-jump instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Src {
    /// Register operand (`BPF_X`).
    Reg(Reg),
    /// Sign-extended 32-bit immediate (`BPF_K`).
    Imm(i32),
}

/// Memory access size.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemSize {
    /// 1 byte (`u8`).
    B,
    /// 2 bytes (`u16`).
    H,
    /// 4 bytes (`u32`).
    W,
    /// 8 bytes (`u64`).
    DW,
}

impl MemSize {
    /// Access width in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        match self {
            MemSize::B => 1,
            MemSize::H => 2,
            MemSize::W => 4,
            MemSize::DW => 8,
        }
    }

    /// The C-style type name used in the assembly syntax (`u8`, …, `u64`).
    #[must_use]
    pub const fn type_name(self) -> &'static str {
        match self {
            MemSize::B => "u8",
            MemSize::H => "u16",
            MemSize::W => "u32",
            MemSize::DW => "u64",
        }
    }
}

/// Conditional-jump comparison operator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum JmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// unsigned `>`
    Gt,
    /// unsigned `>=`
    Ge,
    /// unsigned `<`
    Lt,
    /// unsigned `<=`
    Le,
    /// signed `>`
    Sgt,
    /// signed `>=`
    Sge,
    /// signed `<`
    Slt,
    /// signed `<=`
    Sle,
    /// `dst & src != 0` (bit test)
    Set,
}

impl JmpOp {
    /// All comparison operators.
    pub const ALL: [JmpOp; 11] = [
        JmpOp::Eq,
        JmpOp::Ne,
        JmpOp::Gt,
        JmpOp::Ge,
        JmpOp::Lt,
        JmpOp::Le,
        JmpOp::Sgt,
        JmpOp::Sge,
        JmpOp::Slt,
        JmpOp::Sle,
        JmpOp::Set,
    ];

    /// Evaluates the comparison on concrete 64-bit values.
    #[must_use]
    pub fn eval64(self, dst: u64, src: u64) -> bool {
        match self {
            JmpOp::Eq => dst == src,
            JmpOp::Ne => dst != src,
            JmpOp::Gt => dst > src,
            JmpOp::Ge => dst >= src,
            JmpOp::Lt => dst < src,
            JmpOp::Le => dst <= src,
            JmpOp::Sgt => (dst as i64) > (src as i64),
            JmpOp::Sge => (dst as i64) >= (src as i64),
            JmpOp::Slt => (dst as i64) < (src as i64),
            JmpOp::Sle => (dst as i64) <= (src as i64),
            JmpOp::Set => dst & src != 0,
        }
    }

    /// Evaluates the comparison on the low 32 bits (`jmp32`).
    #[must_use]
    pub fn eval32(self, dst: u64, src: u64) -> bool {
        let (d, s) = (dst as u32, src as u32);
        match self {
            JmpOp::Eq => d == s,
            JmpOp::Ne => d != s,
            JmpOp::Gt => d > s,
            JmpOp::Ge => d >= s,
            JmpOp::Lt => d < s,
            JmpOp::Le => d <= s,
            JmpOp::Sgt => (d as i32) > (s as i32),
            JmpOp::Sge => (d as i32) >= (s as i32),
            JmpOp::Slt => (d as i32) < (s as i32),
            JmpOp::Sle => (d as i32) <= (s as i32),
            JmpOp::Set => d & s != 0,
        }
    }

    /// The comparison with operands swapped: `a op b == b op.swap() a`.
    #[must_use]
    pub const fn swapped(self) -> JmpOp {
        match self {
            JmpOp::Eq => JmpOp::Eq,
            JmpOp::Ne => JmpOp::Ne,
            JmpOp::Gt => JmpOp::Lt,
            JmpOp::Ge => JmpOp::Le,
            JmpOp::Lt => JmpOp::Gt,
            JmpOp::Le => JmpOp::Ge,
            JmpOp::Sgt => JmpOp::Slt,
            JmpOp::Sge => JmpOp::Sle,
            JmpOp::Slt => JmpOp::Sgt,
            JmpOp::Sle => JmpOp::Sge,
            JmpOp::Set => JmpOp::Set,
        }
    }

    /// The logical negation: `!(a op b) == a op.negated() b`.
    #[must_use]
    pub const fn negated(self) -> Option<JmpOp> {
        match self {
            JmpOp::Eq => Some(JmpOp::Ne),
            JmpOp::Ne => Some(JmpOp::Eq),
            JmpOp::Gt => Some(JmpOp::Le),
            JmpOp::Ge => Some(JmpOp::Lt),
            JmpOp::Lt => Some(JmpOp::Ge),
            JmpOp::Le => Some(JmpOp::Gt),
            JmpOp::Sgt => Some(JmpOp::Sle),
            JmpOp::Sge => Some(JmpOp::Slt),
            JmpOp::Slt => Some(JmpOp::Sge),
            JmpOp::Sle => Some(JmpOp::Sgt),
            // "no bit in common" has no single-op dual in the ISA.
            JmpOp::Set => None,
        }
    }
}

/// One typed instruction of the eBPF subset.
///
/// Jump offsets (`off`) are in *slots*, relative to the slot following the
/// jump, matching the binary format; [`Insn::slots`] reports how many
/// slots an instruction occupies (2 for [`Insn::LoadImm64`], 1 otherwise).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Insn {
    /// An ALU operation: `dst = dst op src` (or `dst = src` for `Mov`,
    /// `dst = -dst` for `Neg`).
    Alu {
        /// Operation width (32-bit ops zero-extend into the destination).
        width: Width,
        /// The operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Source operand (ignored for `Neg`).
        src: Src,
    },
    /// `lddw`: load a full 64-bit immediate (occupies two slots).
    LoadImm64 {
        /// Destination register.
        dst: Reg,
        /// The 64-bit immediate.
        imm: u64,
    },
    /// `ldx`: `dst = *(size *)(base + off)`.
    Load {
        /// Access size.
        size: MemSize,
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset from the base.
        off: i16,
    },
    /// `st`/`stx`: `*(size *)(base + off) = src`.
    Store {
        /// Access size.
        size: MemSize,
        /// Base address register.
        base: Reg,
        /// Signed byte offset from the base.
        off: i16,
        /// Value to store (register or immediate).
        src: Src,
    },
    /// Unconditional jump by `off` slots.
    Ja {
        /// Slot offset relative to the next instruction.
        off: i16,
    },
    /// Conditional jump: `if dst op src goto +off`.
    Jmp {
        /// Comparison width (`jmp` vs `jmp32`).
        width: Width,
        /// Comparison operator.
        op: JmpOp,
        /// Left-hand register.
        dst: Reg,
        /// Right-hand operand.
        src: Src,
        /// Slot offset relative to the next instruction.
        off: i16,
    },
    /// Call a helper function by ID.
    Call {
        /// Helper function identifier.
        helper: u32,
    },
    /// Terminate the program; the return value is in `r0`.
    Exit,
}

impl Insn {
    /// Number of encoding slots this instruction occupies (2 for `lddw`).
    #[must_use]
    pub const fn slots(self) -> usize {
        match self {
            Insn::LoadImm64 { .. } => 2,
            _ => 1,
        }
    }

    /// The register written by this instruction, if any.
    #[must_use]
    pub fn def_reg(self) -> Option<Reg> {
        match self {
            Insn::Alu { dst, .. } | Insn::LoadImm64 { dst, .. } | Insn::Load { dst, .. } => {
                Some(dst)
            }
            Insn::Call { .. } => Some(Reg::R0),
            _ => None,
        }
    }

    /// The registers an instruction reads through its operands, in the
    /// order a verifier checks them: `dst` before `src`, a store's base
    /// before its source. Allocation-free; unused entries are `None`.
    /// Calls read argument registers instead (see [`Insn::use_mask`]).
    #[must_use]
    pub fn use_regs(self) -> [Option<Reg>; 2] {
        let reg = |src: Src| match src {
            Src::Reg(r) => Some(r),
            Src::Imm(_) => None,
        };
        match self {
            Insn::Alu {
                op: AluOp::Mov,
                src,
                ..
            } => [reg(src), None],
            Insn::Alu {
                op: AluOp::Neg,
                dst,
                ..
            } => [Some(dst), None],
            Insn::Alu { dst, src, .. } | Insn::Jmp { dst, src, .. } => [Some(dst), reg(src)],
            Insn::Store { base, src, .. } => [Some(base), reg(src)],
            Insn::Load { base, .. } => [Some(base), None],
            Insn::LoadImm64 { .. } | Insn::Ja { .. } | Insn::Call { .. } | Insn::Exit => {
                [None, None]
            }
        }
    }

    /// Every register this instruction may read, as a bitmask over
    /// `Reg::index()`: the [`Insn::use_regs`] operands, or all argument
    /// registers `r1`–`r5` for a call.
    #[must_use]
    pub fn use_mask(self) -> u16 {
        if let Insn::Call { .. } = self {
            return 0b11_1110;
        }
        self.use_regs()
            .into_iter()
            .flatten()
            .fold(0, |mask, r| mask | (1 << r.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_counts() {
        assert_eq!(Insn::Exit.slots(), 1);
        assert_eq!(
            Insn::LoadImm64 {
                dst: Reg::R1,
                imm: 0
            }
            .slots(),
            2
        );
    }

    #[test]
    fn jmp_eval_agrees_with_rust_semantics() {
        let cases = [
            (5u64, 5u64),
            (3, 9),
            (u64::MAX, 0),
            (1 << 63, 1),
            (0xffff_ffff, 0x1_0000_0000),
        ];
        for (d, s) in cases {
            assert_eq!(JmpOp::Eq.eval64(d, s), d == s);
            assert_eq!(JmpOp::Lt.eval64(d, s), d < s);
            assert_eq!(JmpOp::Sgt.eval64(d, s), (d as i64) > (s as i64));
            assert_eq!(JmpOp::Set.eval64(d, s), d & s != 0);
            assert_eq!(JmpOp::Le.eval32(d, s), (d as u32) <= (s as u32));
            assert_eq!(JmpOp::Slt.eval32(d, s), (d as i32) < (s as i32));
        }
    }

    #[test]
    fn swapped_and_negated_are_involutions() {
        for op in JmpOp::ALL {
            assert_eq!(op.swapped().swapped(), op);
            if let Some(neg) = op.negated() {
                assert_eq!(neg.negated(), Some(op));
            }
        }
        // Semantic check on samples.
        for op in JmpOp::ALL {
            for (d, s) in [(3u64, 9u64), (9, 3), (7, 7), (u64::MAX, 1)] {
                assert_eq!(op.eval64(d, s), op.swapped().eval64(s, d), "{op:?}");
                if let Some(neg) = op.negated() {
                    assert_eq!(op.eval64(d, s), !neg.eval64(d, s), "{op:?}");
                }
            }
        }
    }

    #[test]
    fn def_use_sets() {
        let add = Insn::Alu {
            width: Width::W64,
            op: AluOp::Add,
            dst: Reg::R1,
            src: Src::Reg(Reg::R2),
        };
        assert_eq!(add.def_reg(), Some(Reg::R1));
        assert_eq!(add.use_regs(), [Some(Reg::R1), Some(Reg::R2)]);
        assert_eq!(add.use_mask(), 0b110);

        let mov = Insn::Alu {
            width: Width::W64,
            op: AluOp::Mov,
            dst: Reg::R1,
            src: Src::Imm(7),
        };
        assert_eq!(mov.use_regs(), [None, None]);
        assert_eq!(mov.use_mask(), 0);

        let store = Insn::Store {
            size: MemSize::W,
            base: Reg::R10,
            off: -4,
            src: Src::Reg(Reg::R0),
        };
        assert_eq!(store.def_reg(), None);
        assert_eq!(store.use_regs(), [Some(Reg::R10), Some(Reg::R0)]);
        assert_eq!(store.use_mask(), (1 << 10) | 1);

        let call = Insn::Call { helper: 1 };
        assert_eq!(call.def_reg(), Some(Reg::R0));
        assert_eq!(call.use_regs(), [None, None]);
        assert_eq!(call.use_mask(), 0b11_1110, "r1-r5");
    }

    #[test]
    fn mem_size_metadata() {
        assert_eq!(MemSize::B.bytes(), 1);
        assert_eq!(MemSize::DW.bytes(), 8);
        assert_eq!(MemSize::H.type_name(), "u16");
    }
}
