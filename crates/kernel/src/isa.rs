//! The virtual machine's instruction set and program container.
//!
//! The paper's compiler emitted C that was "combined with other elements
//! of the simulation environment"; here the generated program is a set of
//! instruction sequences executed by the kernel — "a virtual machine that
//! is configurable and programmable" (§2.1).

use std::sync::Arc;

use crate::rts::Op;
use crate::value::{VDir, Val};

/// Signal handle within a program.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SigId(pub u32);

/// Function handle within a program.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FnId(pub u32);

/// Variable address: `depth` static links up, then slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VarAddr {
    /// Frames to walk up via static links (0 = current frame).
    pub depth: u8,
    /// Slot within the frame.
    pub slot: u16,
}

/// One instruction of the stack machine.
#[derive(Clone, Debug)]
pub enum Insn {
    /// Push an integer constant.
    PushInt(i64),
    /// Push a real constant.
    PushReal(f64),
    /// Push a (shared) constant value.
    PushConst(Val),
    /// Pop `n` values, push an array with the given bounds.
    MakeArr {
        /// Element count.
        n: u16,
        /// Left bound.
        left: i64,
        /// Direction.
        dir: VDir,
    },
    /// Pop `n` values, push a record.
    MakeRec {
        /// Field count.
        n: u16,
    },
    /// Load a variable.
    LoadVar(VarAddr),
    /// Store the top of stack into a variable.
    StoreVar(VarAddr),
    /// Store into an element: pops `value`, `index`.
    StoreVarIndex(VarAddr),
    /// Store into a record field: pops `value`.
    StoreVarField(VarAddr, u16),
    /// Push a signal's effective value.
    LoadSig(SigId),
    /// Push a signal attribute (`'event`, `'active`, `'last_value`).
    LoadSigAttr(SigId, SigAttr),
    /// Pop `index`, `array`; push the element (bounds-checked).
    Index,
    /// Pop `right`, `left`, `array`; push the slice.
    Slice(VDir),
    /// Push record field `i` of the popped record.
    Field(u16),
    /// Pop an array; push one of its bounds/extent attributes.
    ArrAttr(ArrAttrKind),
    /// Binary runtime-support operation.
    Binop(Op),
    /// Unary runtime-support operation.
    Unop(Op),
    /// Trap unless lo ≤ top-of-stack ≤ hi (value stays).
    RangeCheck {
        /// Low bound.
        lo: i64,
        /// High bound.
        hi: i64,
    },
    /// Unconditional jump.
    Jump(u32),
    /// Pop a boolean; jump when false.
    JumpIfFalse(u32),
    /// Pop `delay_fs` (−1 = delta) then `value`; schedule a transaction on
    /// the signal.
    Sched {
        /// Target signal.
        sig: SigId,
        /// Transport (vs inertial) delay.
        transport: bool,
    },
    /// Pop `delay_fs`, `value`, `index`; schedule an element transaction.
    SchedIndex {
        /// Target signal.
        sig: SigId,
        /// Transport delay.
        transport: bool,
    },
    /// Suspend. When `with_timeout`, pops the timeout in fs first. On
    /// resume, pushes 1 if resumed by timeout, else 0.
    Wait {
        /// Sensitivity set.
        sens: Arc<Vec<SigId>>,
        /// Whether a timeout is popped.
        with_timeout: bool,
    },
    /// Call a function/procedure: pops its arguments (rightmost on top).
    Call(FnId),
    /// Return from a subprogram; functions pop their result first.
    Ret {
        /// Whether a value is returned.
        has_value: bool,
    },
    /// Pop `severity`, `report`, `condition`; emit when condition is
    /// false.
    Assert,
    /// Pop and discard.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// End the process permanently (final implicit `wait;`).
    Halt,
}

/// Array attribute kinds for [`Insn::ArrAttr`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrAttrKind {
    /// `'length`
    Length,
    /// `'left`
    Left,
    /// `'right`
    Right,
    /// `'low`
    Low,
    /// `'high`
    High,
}

/// Signal attribute kinds for [`Insn::LoadSigAttr`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SigAttr {
    /// `'event`
    Event,
    /// `'active`
    Active,
    /// `'last_value`
    LastValue,
}

/// A declared signal.
#[derive(Clone, Debug)]
pub struct SignalDecl {
    /// Hierarchical name (name-server path).
    pub name: String,
    /// Initial (and default) value.
    pub init: Val,
    /// Resolution function for multiply-driven signals.
    pub resolution: Option<FnId>,
}

/// A process: its code plus local-variable count.
#[derive(Clone, Debug)]
pub struct ProcessDecl {
    /// Hierarchical name.
    pub name: String,
    /// Code; execution starts at 0 and loops via an explicit `Jump`.
    pub code: Arc<Vec<Insn>>,
    /// Number of local slots.
    pub n_locals: u16,
    /// Elaboration-time static sensitivity: every signal a `wait`
    /// reachable from this process (directly or through called
    /// subprograms) can name, sorted ascending. Filled by
    /// [`Program::finalize_sensitivity`]; the kernel falls back to its
    /// own code walk when absent (hand-built programs).
    pub static_sens: Option<Arc<Vec<SigId>>>,
}

/// A compiled subprogram.
#[derive(Clone, Debug)]
pub struct FnDecl {
    /// Name (diagnostics).
    pub name: String,
    /// Parameter count (occupy the first slots).
    pub n_params: u16,
    /// Total local slots (params + locals).
    pub n_locals: u16,
    /// Code.
    pub code: Arc<Vec<Insn>>,
    /// Lexical nesting level (1 = outermost subprogram).
    pub level: u16,
}

/// A complete program for the simulation kernel.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Signal table.
    pub signals: Vec<SignalDecl>,
    /// Process table.
    pub processes: Vec<ProcessDecl>,
    /// Subprogram table.
    pub functions: Vec<FnDecl>,
    /// Hierarchical region paths (instances, blocks) the elaborator
    /// visited, in elaboration order — the Name Server registers these as
    /// scopes so empty regions are still addressable.
    pub regions: Vec<String>,
}

impl Program {
    /// Adds a signal, returning its id.
    pub fn add_signal(&mut self, name: impl Into<String>, init: Val) -> SigId {
        self.signals.push(SignalDecl {
            name: name.into(),
            init,
            resolution: None,
        });
        SigId(self.signals.len() as u32 - 1)
    }

    /// Adds a process.
    pub fn add_process(&mut self, name: impl Into<String>, n_locals: u16, code: Vec<Insn>) {
        self.processes.push(ProcessDecl {
            name: name.into(),
            code: Arc::new(code),
            n_locals,
            static_sens: None,
        });
    }

    /// Adds a function, returning its id.
    pub fn add_function(&mut self, decl: FnDecl) -> FnId {
        self.functions.push(decl);
        FnId(self.functions.len() as u32 - 1)
    }

    /// Code unit `u` — process `u`, or subprogram `u - processes.len()`,
    /// the numbering kernel frames use: its code and local-slot count.
    pub(crate) fn unit(&self, u: usize) -> Option<(&[Insn], u16)> {
        match self.processes.get(u) {
            Some(p) => Some((&p.code, p.n_locals)),
            None => {
                (self.functions.get(u - self.processes.len())).map(|f| (&f.code[..], f.n_locals))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_building() {
        let mut p = Program::default();
        let s = p.add_signal("top.clk", Val::Int(0));
        assert_eq!(s, SigId(0));
        p.add_process("top.p", 2, vec![Insn::Halt]);
        let f = p.add_function(FnDecl {
            name: "f".into(),
            n_params: 1,
            n_locals: 2,
            code: Arc::new(vec![Insn::Ret { has_value: true }]),
            level: 1,
        });
        assert_eq!(f, FnId(0));
        assert_eq!(p.signals.len(), 1);
        assert_eq!(p.processes.len(), 1);
    }
}
