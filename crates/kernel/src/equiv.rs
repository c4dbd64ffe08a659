//! Scheduler- and backend-equivalence property suite.
//!
//! The event-driven scheduler (calendar + sensitivity index + worklists)
//! must be observably indistinguishable from the seed kernel's full-scan
//! scheduler, which survives as the `ref_*` methods on [`Simulator`].
//! Randomly generated programs — mixed waits (sensitivity subsets,
//! timeouts including the zero-delay backward-time case), preempting
//! drivers (inertial and transport), resolved multi-driver signals,
//! nested resolution calls, data-dependent branches, failing division,
//! assertion reports, composite values (array and record aggregates,
//! element and field stores, slices, attributes, range checks), signal
//! attributes, element scheduling, subprogram calls with up-level
//! access, and values carried across branches — run through both
//! steppers, optionally with
//! the event-driven run split into incremental slices, and every
//! observable must match byte for byte: VCD output, statistics,
//! per-object Name-Server counters, final values, reports, and the run
//! outcome.
//!
//! The same randomized designs are also the oracle for the compiled
//! process backend ([`crate::compile`]): every case additionally runs
//! under [`Backend::Compiled`] and must reproduce the interpreter's
//! snapshot byte for byte — including instruction counts, error
//! messages, and the fuel-exhaustion boundary.

use std::cell::RefCell;
use std::sync::Arc;

use ag_harness::{check_eq, forall, Config, Source};

use crate::io::Vcd;
use crate::isa::{ArrAttrKind, FnDecl, FnId, Insn, Program, SigAttr, SigId, VarAddr};
use crate::rts::Op;
use crate::sim::{Backend, RunOutcome, SimError, Simulator};
use crate::value::{Time, VDir, Val};

fn slot(n: u16) -> VarAddr {
    VarAddr { depth: 0, slot: n }
}

/// `sum(drivers) mod 4` — a resolution function with a loop and an array
/// parameter, so resolved signals exercise the reused-scratch call path.
fn sum_mod4() -> FnDecl {
    let code = vec![
        Insn::PushInt(0),
        Insn::StoreVar(slot(1)), // i = 0
        Insn::PushInt(0),
        Insn::StoreVar(slot(2)), // acc = 0
        Insn::LoadVar(slot(1)),  // 4: loop head
        Insn::LoadVar(slot(0)),
        Insn::ArrAttr(ArrAttrKind::Length),
        Insn::Binop(Op::Lt),
        Insn::JumpIfFalse(20),
        Insn::LoadVar(slot(2)),
        Insn::LoadVar(slot(0)),
        Insn::LoadVar(slot(1)),
        Insn::Index,
        Insn::Binop(Op::Add),
        Insn::StoreVar(slot(2)), // acc += arg[i]
        Insn::LoadVar(slot(1)),
        Insn::PushInt(1),
        Insn::Binop(Op::Add),
        Insn::StoreVar(slot(1)), // i += 1
        Insn::Jump(4),
        Insn::LoadVar(slot(2)), // 20: exit
        Insn::PushInt(4),
        Insn::Binop(Op::Mod),
        Insn::Ret { has_value: true },
    ];
    FnDecl {
        name: "sum_mod4".into(),
        n_params: 1,
        n_locals: 3,
        code: Arc::new(code),
        level: 1,
    }
}

/// `x * 2 + c`, where `c` is the calling process's counter read through
/// the static link: an up-level access from a level-1 subprogram.
fn twice_plus_counter() -> FnDecl {
    FnDecl {
        name: "twice_plus_counter".into(),
        n_params: 1,
        n_locals: 1,
        code: Arc::new(vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(2),
            Insn::Binop(Op::Mul),
            Insn::LoadVar(VarAddr { depth: 1, slot: 0 }),
            Insn::Binop(Op::Add),
            Insn::Ret { has_value: true },
        ]),
        level: 1,
    }
}

/// `if x < 10 then return inner(x) else return x mod 10`: a branch, two
/// returns, and a nested call, so compiled callers must carry the
/// callee's net stack effect through every exit.
fn clamp(inner: FnId) -> FnDecl {
    FnDecl {
        name: "clamp".into(),
        n_params: 1,
        n_locals: 1,
        code: Arc::new(vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(10),
            Insn::Binop(Op::Lt),
            Insn::JumpIfFalse(7),
            Insn::LoadVar(slot(0)),
            Insn::Call(inner),
            Insn::Ret { has_value: true },
            Insn::LoadVar(slot(0)), // 7:
            Insn::PushInt(10),
            Insn::Binop(Op::Mod),
            Insn::Ret { has_value: true },
        ]),
        level: 1,
    }
}

/// Process locals: the activation counter, a write-only scratch, an
/// array, a record, an integer result (observed through a signal), and
/// a composite scratch.
const COUNTER: u16 = 0;
const SCRATCH: u16 = 1;
const ARR: u16 = 2;
const REC: u16 = 3;
const RESULT: u16 = 4;
const COMPOSITE: u16 = 5;
const N_LOCALS: u16 = 6;

/// Pushes the logical index `left ± (counter mod k)` of an array with
/// the given left bound and direction. Offsets reach `k - 1`, so `k`
/// above the array length walks out of bounds on some activations.
fn push_index(code: &mut Vec<Insn>, left: i64, dir: VDir, k: i64) {
    let offset = [
        Insn::LoadVar(slot(COUNTER)),
        Insn::PushInt(k),
        Insn::Binop(Op::Mod),
    ];
    match dir {
        VDir::To => {
            code.extend(offset);
            code.extend([Insn::PushInt(left), Insn::Binop(Op::Add)]);
        }
        VDir::Downto => {
            code.push(Insn::PushInt(left));
            code.extend(offset);
            code.push(Insn::Binop(Op::Sub));
        }
    }
}

/// True in one draw of sixteen: picks the failing variant of an operand.
fn rarely(s: &mut Source) -> bool {
    s.usize_in(0, 15) == 0
}

/// Any array attribute.
fn any_attr(s: &mut Source) -> ArrAttrKind {
    *s.pick(&[
        ArrAttrKind::Length,
        ArrAttrKind::Left,
        ArrAttrKind::Right,
        ArrAttrKind::Low,
        ArrAttrKind::High,
    ])
}

/// The logical index at offset `o` of an array with the given bounds.
fn index_at(left: i64, dir: VDir, o: i64) -> i64 {
    match dir {
        VDir::To => left + o,
        VDir::Downto => left - o,
    }
}

/// Composite values and every pure instruction: builds a four-element
/// array (aggregate or constant) into `ARR`, stores one element at a
/// counter-derived index, wraps it in a record with a real field in
/// `REC`, updates fields, then reads back a slice attribute plus an
/// element into `RESULT` under a range check. Index, slice, and range
/// violations each occur in some draws.
fn gen_aggregates(s: &mut Source, code: &mut Vec<Insn>) -> (i64, VDir) {
    let left = *s.pick(&[0i64, 3, -2]);
    let dir = if s.bool() { VDir::To } else { VDir::Downto };
    if s.bool() {
        code.extend([
            Insn::LoadVar(slot(COUNTER)),
            Insn::PushInt(7),
            Insn::PushConst(Val::Int(2)),
            Insn::LoadVar(slot(COUNTER)),
            Insn::PushInt(3),
            Insn::Binop(Op::Mod),
            Insn::MakeArr { n: 4, left, dir },
        ]);
    } else {
        let data = [1, 0, 3, 2].map(Val::Int).to_vec();
        code.push(Insn::PushConst(Val::arr(left, dir, data)));
    }
    code.push(Insn::StoreVar(slot(ARR)));
    // arr(left ± counter mod k) := counter
    push_index(code, left, dir, if rarely(s) { 5 } else { 4 });
    code.extend([Insn::LoadVar(slot(COUNTER)), Insn::StoreVarIndex(slot(ARR))]);
    // rec := (arr, 1.5, 9); rec.2 := counter; rec.1 := rec.1 + 0.25
    code.extend([
        Insn::LoadVar(slot(ARR)),
        Insn::PushReal(1.5),
        Insn::PushConst(Val::Int(9)),
        Insn::MakeRec { n: 3 },
        Insn::StoreVar(slot(REC)),
        Insn::LoadVar(slot(COUNTER)),
        Insn::StoreVarField(slot(REC), 2),
        Insn::LoadVar(slot(REC)),
        Insn::Field(1),
        Insn::PushConst(Val::Real(0.25)),
        Insn::Binop(Op::Add),
        Insn::StoreVarField(slot(REC), 1),
    ]);
    // result := rec.0(a .. b)'attr + rec.0(left), range-checked; rare
    // draws slice one past the end or tighten the range.
    let a = index_at(left, dir, s.i64_in(0, 3));
    let b = index_at(left, dir, if rarely(s) { 4 } else { s.i64_in(0, 3) });
    let attr = any_attr(s);
    code.extend([
        Insn::LoadVar(slot(REC)),
        Insn::Field(0),
        Insn::PushInt(a),
        Insn::PushInt(b),
        Insn::Slice(dir),
        Insn::ArrAttr(attr),
        Insn::LoadVar(slot(REC)),
        Insn::Field(0),
        Insn::PushInt(left),
        Insn::Index,
        Insn::Binop(Op::Add),
        Insn::RangeCheck {
            lo: -10,
            hi: if rarely(s) { 12 } else { 1000 },
        },
        Insn::StoreVar(slot(RESULT)),
    ]);
    (left, dir)
}

/// A value computed across a block boundary: the producer's operands are
/// pushed before a data-dependent branch and consumed after the join, so
/// the compiled backend materializes them and runs the consumer as raw
/// steps on the process stack. `agg` holds the bounds of the array in
/// `ARR` when [`gen_aggregates`] ran (array and record kinds need it).
fn gen_crossing(s: &mut Source, code: &mut Vec<Insn>, agg: Option<(i64, VDir)>) {
    let counter = Insn::LoadVar(slot(COUNTER));
    let (producer, consumer): (Vec<Insn>, Vec<Insn>) =
        match (agg, s.usize_in(0, if agg.is_some() { 5 } else { 2 })) {
            // -(counter + 3)^2 range-checked; the tight bound fails once
            // the counter passes 11.
            (_, 0) => (
                vec![counter, Insn::PushInt(3)],
                vec![
                    Insn::Binop(Op::Add),
                    Insn::Unop(Op::Neg),
                    Insn::Dup,
                    Insn::Binop(Op::Mul),
                    Insn::RangeCheck {
                        lo: 0,
                        hi: if rarely(s) { 200 } else { 1_000_000 },
                    },
                    Insn::StoreVar(slot(RESULT)),
                ],
            ),
            (_, 1) => (
                vec![counter, Insn::PushInt(1)],
                vec![
                    Insn::MakeArr {
                        n: 2,
                        left: 5,
                        dir: VDir::Downto,
                    },
                    Insn::ArrAttr(ArrAttrKind::Low),
                    Insn::StoreVar(slot(RESULT)),
                ],
            ),
            (_, 2) => (
                vec![counter, Insn::PushReal(0.5)],
                vec![
                    Insn::MakeRec { n: 2 },
                    Insn::Dup,
                    Insn::StoreVar(slot(COMPOSITE)),
                    Insn::Field(0),
                    Insn::StoreVar(slot(RESULT)),
                ],
            ),
            (Some((left, dir)), 3) => {
                let a = index_at(left, dir, s.i64_in(0, 3));
                let b = index_at(left, dir, if rarely(s) { 4 } else { s.i64_in(0, 3) });
                (
                    vec![Insn::LoadVar(slot(ARR))],
                    vec![
                        Insn::PushInt(a),
                        Insn::PushInt(b),
                        Insn::Slice(dir),
                        Insn::ArrAttr(any_attr(s)),
                        Insn::StoreVar(slot(RESULT)),
                    ],
                )
            }
            (Some((left, dir)), 4) => {
                let mut consumer = Vec::new();
                push_index(&mut consumer, left, dir, if rarely(s) { 6 } else { 4 });
                consumer.extend([Insn::Index, Insn::StoreVar(slot(RESULT))]);
                (vec![Insn::LoadVar(slot(ARR))], consumer)
            }
            _ => (
                vec![Insn::LoadVar(slot(REC))],
                vec![
                    Insn::Field(0),
                    Insn::ArrAttr(ArrAttrKind::Length),
                    Insn::StoreVar(slot(RESULT)),
                ],
            ),
        };
    code.extend(producer);
    code.extend([
        Insn::LoadVar(slot(COUNTER)),
        Insn::PushInt(2),
        Insn::Binop(Op::Mod),
    ]);
    let jif_at = code.len();
    code.push(Insn::JumpIfFalse(0)); // patched below
    code.extend([Insn::LoadVar(slot(COUNTER)), Insn::StoreVar(slot(SCRATCH))]);
    code[jif_at] = Insn::JumpIfFalse(code.len() as u32);
    code.extend(consumer);
}

/// Draws a random program: 1–3 processes, each with its own plain
/// signals (and optionally a four-element array signal), plus 0–2
/// resolved bus signals every process may drive. Processes loop forever:
/// bump a counter, schedule 1–3 transactions (delta or timed, inertial
/// or transport, counter-derived, constant, or signal-attribute values),
/// optionally compute with composites, element-schedule the array
/// signal, call subprograms, and carry values across branches, then
/// wait on a random sensitivity subset with an optional timeout.
pub(crate) fn gen_program(s: &mut Source) -> Program {
    let mut prog = Program::default();
    let n_procs = s.usize_in(1, 3);
    let mut own: Vec<Vec<SigId>> = Vec::new();
    let mut vecs: Vec<Option<SigId>> = Vec::new();
    for pi in 0..n_procs {
        let k = s.usize_in(1, 2);
        own.push(
            (0..k)
                .map(|j| prog.add_signal(format!("top.p{pi}.s{j}"), Val::Int(0)))
                .collect(),
        );
        vecs.push(s.option(|_| {
            let init = Val::arr(0, VDir::To, vec![Val::Int(0); 4]);
            prog.add_signal(format!("top.p{pi}.v"), init)
        }));
    }
    let n_res = s.usize_in(0, 2);
    let mut res: Vec<SigId> = Vec::new();
    if n_res > 0 {
        let f = prog.add_function(sum_mod4());
        for r in 0..n_res {
            let sid = prog.add_signal(format!("top.bus{r}"), Val::Int(0));
            prog.signals[sid.0 as usize].resolution = Some(f);
            res.push(sid);
        }
    }
    let callees: Vec<FnId> = if s.bool() {
        let inner = prog.add_function(twice_plus_counter());
        vec![inner, prog.add_function(clamp(inner))]
    } else {
        Vec::new()
    };
    let ints: Vec<SigId> = own.iter().flatten().chain(res.iter()).copied().collect();
    let all: Vec<SigId> = ints.iter().chain(vecs.iter().flatten()).copied().collect();
    for pi in 0..n_procs {
        let mut code = vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::StoreVar(slot(0)),
        ];
        let targets: Vec<SigId> = own[pi].iter().chain(res.iter()).copied().collect();
        for _ in 0..s.usize_in(1, 3) {
            let sig = *s.pick(&targets);
            match s.usize_in(0, 4) {
                // Counter-derived value: changes over time, so events and
                // no-change active cycles both occur.
                0 | 1 => {
                    let m = *s.pick(&[2i64, 3, 4]);
                    code.push(Insn::LoadVar(slot(0)));
                    code.push(Insn::PushInt(m));
                    code.push(Insn::Binop(Op::Mod));
                }
                2 => code.push(Insn::PushInt(s.i64_in(0, 3))),
                3 => code.push(Insn::LoadSig(*s.pick(&ints))),
                _ => {
                    let attr = *s.pick(&[SigAttr::Event, SigAttr::Active, SigAttr::LastValue]);
                    code.push(Insn::LoadSigAttr(*s.pick(&ints), attr));
                }
            }
            // −1 is the "no delay" marker (delta), 0 is an explicit zero
            // delay (also delta); positive delays go through the far heap.
            code.push(Insn::PushInt(*s.pick(&[-1i64, 0, 1, 2, 3, 5, 10])));
            code.push(Insn::Sched {
                sig,
                transport: s.bool(),
            });
        }
        // Optional data-dependent branch: an extra assignment taken only
        // on odd counters (basic-block boundaries with a consistent join
        // for the compiled backend).
        if s.bool() {
            code.push(Insn::LoadVar(slot(0)));
            code.push(Insn::PushInt(2));
            code.push(Insn::Binop(Op::Mod));
            let jif_at = code.len();
            code.push(Insn::JumpIfFalse(0)); // patched below
            let sig = *s.pick(&targets);
            code.push(Insn::LoadVar(slot(0)));
            code.push(Insn::PushInt(5));
            code.push(Insn::Binop(Op::Mod));
            code.push(Insn::PushInt(*s.pick(&[-1i64, 1, 4])));
            code.push(Insn::Sched {
                sig,
                transport: s.bool(),
            });
            code[jif_at] = Insn::JumpIfFalse(code.len() as u32);
        }
        let agg = if s.bool() {
            Some(gen_aggregates(s, &mut code))
        } else {
            None
        };
        if let Some(v) = vecs[pi] {
            // v(counter mod k) <= counter mod 2: a rare divisor 5 indexes
            // one past the end on some activations.
            code.extend([
                Insn::LoadVar(slot(COUNTER)),
                Insn::PushInt(if rarely(s) { 5 } else { 4 }),
                Insn::Binop(Op::Mod),
                Insn::LoadVar(slot(COUNTER)),
                Insn::PushInt(2),
                Insn::Binop(Op::Mod),
                Insn::PushInt(*s.pick(&[-1i64, 0, 2])),
                Insn::SchedIndex {
                    sig: v,
                    transport: s.bool(),
                },
            ]);
            // Whole-array assignment from a local whose bounds may differ
            // from the signal's (subtype conversion).
            if agg.is_some() && s.bool() {
                code.extend([
                    Insn::LoadVar(slot(ARR)),
                    Insn::PushInt(*s.pick(&[-1i64, 3])),
                    Insn::Sched {
                        sig: v,
                        transport: s.bool(),
                    },
                ]);
            }
        }
        if !callees.is_empty() && s.bool() {
            // The call result lands on the real stack, so the addition
            // after it runs as a raw step under the compiled backend.
            code.extend([
                Insn::LoadVar(slot(COUNTER)),
                Insn::Call(*s.pick(&callees)),
                Insn::PushInt(3),
                Insn::Binop(Op::Add),
                Insn::StoreVar(slot(RESULT)),
            ]);
        }
        for _ in 0..s.usize_in(0, 2) {
            gen_crossing(s, &mut code, agg);
        }
        // Make the computed result observable.
        code.extend([
            Insn::LoadVar(slot(RESULT)),
            Insn::PushInt(1),
            Insn::Sched {
                sig: own[pi][0],
                transport: false,
            },
        ]);
        // Occasional failing arithmetic: dividing by `counter mod k`
        // eventually divides by zero, so both steppers and both backends
        // must fail at the same instruction with the same message.
        if s.usize_in(0, 3) == 0 {
            let k = *s.pick(&[3i64, 5, 7]);
            code.push(Insn::PushInt(97));
            code.push(Insn::LoadVar(slot(0)));
            code.push(Insn::PushInt(k));
            code.push(Insn::Binop(Op::Mod));
            code.push(Insn::Binop(Op::Div));
            code.push(Insn::StoreVar(slot(1)));
        }
        // Optional periodic report (assert severity warning): exercises
        // the report stream and the compiled Assert step.
        if s.bool() {
            code.push(Insn::LoadVar(slot(0)));
            code.push(Insn::PushInt(3));
            code.push(Insn::Binop(Op::Mod));
            code.push(Insn::PushInt(7));
            code.push(Insn::PushInt(1));
            code.push(Insn::Assert);
        }
        let mut sens: Vec<SigId> = s.vec(0, 3, |s| *s.pick(&all));
        sens.sort_unstable();
        sens.dedup();
        // A zero-fs timeout at delta > 0 yields a wake time *behind* now —
        // the backward-time edge case both steppers must agree on.
        let timeout = s.option(|s| s.i64_in(0, 15));
        if let Some(fs) = timeout {
            code.push(Insn::PushInt(fs));
        }
        code.push(Insn::Wait {
            sens: Arc::new(sens),
            with_timeout: timeout.is_some(),
        });
        code.push(Insn::Pop);
        code.push(Insn::Jump(0));
        prog.add_process(format!("top.p{pi}"), N_LOCALS, code);
    }
    // Exercise both sensitivity sources: elaborator metadata and the
    // kernel's fallback code walk.
    if s.bool() {
        prog.finalize_sensitivity();
    }
    prog
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
pub(crate) struct Snapshot {
    outcome: String,
    vcd: String,
    now: Time,
    // Core stats only: the scheduler-introspection counters
    // (calendar_ops, woken_procs, scanned_signals) are new-path-only.
    stats: (u64, u64, u64, u64, u64, u64),
    sig_vals: Vec<Val>,
    sig_events: Vec<u64>,
    sig_last: Vec<Option<Time>>,
    proc_res: Vec<u64>,
    reports: Vec<(Time, i64, String)>,
}

pub(crate) fn snapshot(
    sim: &Simulator<'_>,
    outcome: &Result<RunOutcome, SimError>,
    vcd: String,
    n_sigs: usize,
    n_procs: usize,
) -> Snapshot {
    let st = sim.stats();
    Snapshot {
        outcome: match outcome {
            Ok(o) => format!("{o:?}"),
            Err(e) => format!("err: {e}"),
        },
        vcd,
        now: sim.now(),
        stats: (
            st.cycles,
            st.delta_cycles,
            st.events,
            st.transactions,
            st.resumptions,
            st.insns,
        ),
        sig_vals: (0..n_sigs)
            .map(|i| sim.signal_value(SigId(i as u32)).clone())
            .collect(),
        sig_events: (0..n_sigs)
            .map(|i| sim.signal_events(SigId(i as u32)))
            .collect(),
        sig_last: (0..n_sigs)
            .map(|i| sim.signal_last_event(SigId(i as u32)))
            .collect(),
        proc_res: (0..n_procs)
            .map(|i| sim.process_resumptions(i as u32))
            .collect(),
        reports: sim
            .reports()
            .iter()
            .map(|r| (r.time, r.severity, r.text.clone()))
            .collect(),
    }
}

/// Runs the event-driven path on the given process backend, optionally
/// split into slices (incremental stepping must land on the same state as
/// one uninterrupted run).
pub(crate) fn run_new(
    prog: &Program,
    deadline: Time,
    budgets: &[u64],
    backend: Backend,
) -> Snapshot {
    let (n_sigs, n_procs) = (prog.signals.len(), prog.processes.len());
    let vcd = RefCell::new(Vcd::new("1fs"));
    let vcd_ref = &vcd;
    let mut sim = Simulator::new(prog.clone());
    sim.set_backend(backend);
    sim.observe(Box::new(move |t, sig, name, v| {
        vcd_ref.borrow_mut().change(t, sig, name, v);
    }));
    let mut outcome = Ok(RunOutcome::CycleBudget);
    for &b in budgets {
        outcome = sim.run_slice(deadline, b, &mut || false);
        if !matches!(outcome, Ok(RunOutcome::CycleBudget)) {
            break;
        }
    }
    let snap = snapshot(&sim, &outcome, vcd.borrow().finish(), n_sigs, n_procs);
    drop(sim);
    snap
}

/// Runs the retained scan-based reference stepper over the same program.
fn run_ref(prog: &Program, deadline: Time, max_cycles: u64) -> Snapshot {
    let (n_sigs, n_procs) = (prog.signals.len(), prog.processes.len());
    let vcd = RefCell::new(Vcd::new("1fs"));
    let vcd_ref = &vcd;
    let mut sim = Simulator::new(prog.clone());
    sim.observe(Box::new(move |t, sig, name, v| {
        vcd_ref.borrow_mut().change(t, sig, name, v);
    }));
    let outcome = sim.ref_run_slice(deadline, max_cycles);
    let snap = snapshot(&sim, &outcome, vcd.borrow().finish(), n_sigs, n_procs);
    drop(sim);
    snap
}

#[test]
fn scheduler_equivalent_to_reference() {
    forall!(
        Config::new("scheduler_equivalent_to_reference").cases(96),
        |s| {
            let prog = gen_program(s);
            let deadline = Time::fs(s.u64_in(5, 60));
            let total = s.u64_in(20, 300);
            // Sometimes split the event-driven run into two slices to prove
            // incremental stepping resumes exactly where it stopped.
            let budgets = if s.bool() && total >= 2 {
                let c1 = s.u64_in(1, total - 1);
                vec![c1, total - c1]
            } else {
                vec![total]
            };
            let new = run_new(&prog, deadline, &budgets, Backend::Interp);
            let reference = run_ref(&prog, deadline, total);
            check_eq!(new.outcome, reference.outcome);
            check_eq!(new.vcd, reference.vcd);
            check_eq!(new.now, reference.now);
            check_eq!(
                new.stats,
                reference.stats,
                "cycles/deltas/events/txs/resumptions/insns"
            );
            check_eq!(new.sig_vals, reference.sig_vals);
            check_eq!(new.sig_events, reference.sig_events);
            check_eq!(new.sig_last, reference.sig_last);
            check_eq!(new.proc_res, reference.proc_res);
            check_eq!(new.reports, reference.reports);
            // The compiled backend is the third leg of the oracle: the
            // generated shapes must never fall back, and the snapshot must
            // match the interpreter's byte for byte.
            check_eq!(
                crate::compile::compile(&prog).n_fallback,
                0,
                "generated design must compile in full"
            );
            let compiled = run_new(&prog, deadline, &budgets, Backend::Compiled);
            check_eq!(compiled.outcome, new.outcome, "compiled vs interp");
            check_eq!(compiled.vcd, new.vcd, "compiled vs interp");
            check_eq!(
                compiled.stats,
                new.stats,
                "compiled vs interp cycles/deltas/events/txs/resumptions/insns"
            );
            check_eq!(compiled, new, "compiled vs interp full snapshot");
        }
    );
}

/// A fixed worst-case-ish program (every feature at once) as a cheap
/// deterministic smoke test alongside the property.
#[test]
fn scheduler_equivalent_fixed_case() {
    let mut prog = Program::default();
    let a = prog.add_signal("top.a", Val::Int(0));
    let b = prog.add_signal("top.b", Val::Int(0));
    let f = prog.add_function(sum_mod4());
    let bus = prog.add_signal("top.bus", Val::Int(0));
    prog.signals[bus.0 as usize].resolution = Some(f);
    for (pi, mine) in [a, b].into_iter().enumerate() {
        prog.add_process(
            format!("top.p{pi}"),
            1,
            vec![
                Insn::LoadVar(slot(0)),
                Insn::PushInt(1),
                Insn::Binop(Op::Add),
                Insn::StoreVar(slot(0)),
                // mine <= counter mod 2 after 2 fs (transport);
                Insn::LoadVar(slot(0)),
                Insn::PushInt(2),
                Insn::Binop(Op::Mod),
                Insn::PushInt(2),
                Insn::Sched {
                    sig: mine,
                    transport: true,
                },
                // bus <= counter mod 3, delta (inertial preemption);
                Insn::LoadVar(slot(0)),
                Insn::PushInt(3),
                Insn::Binop(Op::Mod),
                Insn::PushInt(-1),
                Insn::Sched {
                    sig: bus,
                    transport: false,
                },
                // wait on the other signal, 3 fs timeout.
                Insn::PushInt(3),
                Insn::Wait {
                    sens: Arc::new(vec![if pi == 0 { b } else { a }]),
                    with_timeout: true,
                },
                Insn::Pop,
                Insn::Jump(0),
            ],
        );
    }
    prog.finalize_sensitivity();
    let new = run_new(&prog, Time::fs(40), &[17, 500], Backend::Interp);
    let reference = run_ref(&prog, Time::fs(40), 517);
    assert_eq!(new, reference);
    let compiled = run_new(&prog, Time::fs(40), &[17, 500], Backend::Compiled);
    assert_eq!(compiled, new);
    // Guard against the oracle going vacuous: the compiled run must have
    // actually executed threaded blocks, with no process falling back.
    let mut sim = Simulator::new(prog);
    sim.set_backend(Backend::Compiled);
    sim.run_until(Time::fs(40)).unwrap();
    assert!(sim.stats().compiled_blocks > 0, "no compiled blocks ran");
    assert_eq!(sim.stats().fallback_procs, 0);
}

/// Both backends must exhaust their fuel budget on exactly the same
/// instruction: the budget is charged per instruction *before* execution,
/// and the compiled backend's bulk-charged integer tapes may not smear
/// that boundary.
#[test]
fn fuel_exhaustion_boundary_identical_across_backends() {
    let mut prog = Program::default();
    // A runaway counter loop that never suspends: 5 instructions per
    // iteration, so a 1000-instruction budget dies mid-iteration.
    prog.add_process(
        "top.spin",
        1,
        vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::StoreVar(slot(0)),
            Insn::Jump(0),
        ],
    );
    let snap = |backend: Backend| {
        let mut sim = Simulator::new(prog.clone());
        sim.set_backend(backend);
        sim.set_fuel_budget(1000);
        let outcome = sim.run_slice(Time::fs(10), u64::MAX, &mut || false);
        let st = sim.stats();
        (
            match outcome {
                Ok(o) => format!("{o:?}"),
                Err(e) => format!("err: {e}"),
            },
            st.insns,
            st.cycles,
        )
    };
    let interp = snap(Backend::Interp);
    let compiled = snap(Backend::Compiled);
    assert_eq!(interp.0, "err: process top.spin looped without suspending");
    assert_eq!(interp.1, 1000, "the exhausting instruction is charged");
    assert_eq!(compiled, interp);
}

/// A run that dies of arithmetic overflow must fail at the same
/// instruction with the same message and instruction count under both
/// backends (the integer fast path charges partial tapes exactly).
#[test]
fn runtime_error_boundary_identical_across_backends() {
    let mut prog = Program::default();
    let clk = prog.add_signal("top.clk", Val::Int(0));
    // x := x * 2 + 1 every delta cycle: overflows i64 after 62 rounds.
    prog.add_process(
        "top.grow",
        1,
        vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(2),
            Insn::Binop(Op::Mul),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::StoreVar(slot(0)),
            Insn::LoadSig(clk),
            Insn::Unop(Op::Not),
            Insn::PushInt(1),
            Insn::Sched {
                sig: clk,
                transport: false,
            },
            Insn::Wait {
                sens: Arc::new(vec![clk]),
                with_timeout: false,
            },
            Insn::Pop,
            Insn::Jump(0),
        ],
    );
    prog.finalize_sensitivity();
    let deadline = Time::fs(10_000);
    let interp = run_new(&prog, deadline, &[u64::MAX], Backend::Interp);
    let compiled = run_new(&prog, deadline, &[u64::MAX], Backend::Compiled);
    assert_eq!(
        interp.outcome,
        "err: runtime error in top.grow: arithmetic overflow"
    );
    assert_eq!(compiled, interp);
}

/// The injected-fault knob the conformance oracle relies on must really
/// change observable behavior: with `ResolutionFirstDriverOnly` armed, a
/// two-writer resolved bus resolves to the first driver's value alone.
#[test]
fn test_fault_breaks_resolution_commit() {
    use crate::sim::TestFault;
    let build = || {
        let mut prog = Program::default();
        let f = prog.add_function(sum_mod4());
        let bus = prog.add_signal("top.bus", Val::Int(0));
        prog.signals[bus.0 as usize].resolution = Some(f);
        // Two one-shot drivers: 1 and 2. Faithful resolution sums to 3;
        // the faulted commit sees only the first driver's 1.
        for (pi, v) in [1i64, 2].into_iter().enumerate() {
            prog.add_process(
                format!("top.p{pi}"),
                0,
                vec![
                    Insn::PushInt(v),
                    Insn::PushInt(1),
                    Insn::Sched {
                        sig: bus,
                        transport: false,
                    },
                    Insn::Wait {
                        sens: Arc::new(vec![]),
                        with_timeout: false,
                    },
                    Insn::Pop,
                    Insn::Halt,
                ],
            );
        }
        prog.finalize_sensitivity();
        (prog, bus)
    };
    let (prog, bus) = build();
    let mut honest = Simulator::new(prog.clone());
    honest.run_until(Time::fs(5)).unwrap();
    assert_eq!(honest.signal_value(bus), &Val::Int(3));
    let mut faulted = Simulator::new(prog);
    faulted.set_test_fault(Some(TestFault::ResolutionFirstDriverOnly));
    faulted.run_until(Time::fs(5)).unwrap();
    assert_eq!(faulted.signal_value(bus), &Val::Int(1));
}

/// The compiled backend strength-reduces `x mod 2^n` (positive `n`th
/// power, immediate operand) to a bit mask. VHDL `mod` is the euclidean
/// remainder, so the reduction must hold for negative `x` too — where
/// truncated `%` would give a different (negative) answer.
#[test]
fn mod_by_power_of_two_matches_interp_for_negative_operands() {
    let mut prog = Program::default();
    let clk = prog.add_signal("top.clk", Val::Int(0));
    let rem = prog.add_signal("top.rem", Val::Int(0));
    // x := x - 7; rem <= x mod 8 (delta): x dives negative on the first
    // activation and stays there.
    prog.add_process(
        "top.neg",
        1,
        vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(7),
            Insn::Binop(Op::Sub),
            Insn::StoreVar(slot(0)),
            Insn::LoadVar(slot(0)),
            Insn::PushInt(8),
            Insn::Binop(Op::Mod),
            Insn::PushInt(-1),
            Insn::Sched {
                sig: rem,
                transport: false,
            },
            Insn::LoadSig(clk),
            Insn::Unop(Op::Not),
            Insn::PushInt(1),
            Insn::Sched {
                sig: clk,
                transport: false,
            },
            Insn::Wait {
                sens: Arc::new(vec![clk]),
                with_timeout: false,
            },
            Insn::Pop,
            Insn::Jump(0),
        ],
    );
    prog.finalize_sensitivity();
    let deadline = Time::fs(100);
    let interp = run_new(&prog, deadline, &[u64::MAX], Backend::Interp);
    let compiled = run_new(&prog, deadline, &[u64::MAX], Backend::Compiled);
    assert_eq!(compiled, interp);
    let mut sim = Simulator::new(prog);
    sim.set_backend(Backend::Compiled);
    sim.run_until(deadline).unwrap();
    assert_eq!(sim.stats().fallback_procs, 0);
    // Euclidean, not truncated: -7k mod 8 is always in 0..8, and for
    // x = -7 specifically it is 1 (truncated % would say -7).
    match sim.signal_value(rem) {
        Val::Int(v) => assert!((0..8).contains(v), "euclidean remainder, got {v}"),
        other => panic!("integer remainder expected, got {other:?}"),
    }
}

/// The generator must keep reaching what the backends share: every pure
/// value instruction and every composite store, schedule, and call shape
/// in the generated code, and every combiner as a raw step (operands
/// materialized across a block boundary) in the compiled translation.
/// Without this guard a generator change could silently shrink the
/// oracle back to integer-only designs.
#[test]
fn generator_covers_every_instruction_shape() {
    use std::collections::BTreeSet;

    use crate::compile::Step;

    fn kind(insn: &Insn) -> String {
        let dbg = format!("{insn:?}");
        let end = dbg.find([' ', '(', '{']).unwrap_or(dbg.len());
        dbg[..end].to_string()
    }
    let mut emitted = BTreeSet::new();
    let mut raw = BTreeSet::new();
    let mut outcomes = (0usize, 0usize);
    for seed in 0..64 {
        let prog = gen_program(&mut Source::from_seed(seed));
        for code in prog
            .processes
            .iter()
            .map(|p| &p.code)
            .chain(prog.functions.iter().map(|f| &f.code))
        {
            emitted.extend(code.iter().map(kind));
        }
        let cp = crate::compile::compile(&prog);
        assert_eq!(cp.n_fallback, 0, "generated design must compile in full");
        for unit in cp.units.iter().flatten() {
            for block in &unit.blocks {
                for step in &block.steps {
                    if let Step::Raw(insn) = step {
                        raw.insert(kind(insn));
                    }
                }
            }
        }
        let snap = run_new(&prog, Time::fs(40), &[200], Backend::Interp);
        if snap.outcome.starts_with("err") {
            outcomes.1 += 1;
        } else {
            outcomes.0 += 1;
        }
    }
    let want = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<BTreeSet<_>>();
    let every_insn = want(&[
        "PushInt",
        "PushReal",
        "PushConst",
        "MakeArr",
        "MakeRec",
        "LoadVar",
        "StoreVar",
        "StoreVarIndex",
        "StoreVarField",
        "LoadSig",
        "LoadSigAttr",
        "Index",
        "Slice",
        "Field",
        "ArrAttr",
        "Binop",
        "Unop",
        "RangeCheck",
        "Jump",
        "JumpIfFalse",
        "Sched",
        "SchedIndex",
        "Wait",
        "Call",
        "Ret",
        "Assert",
        "Pop",
        "Dup",
    ]);
    let missing: Vec<_> = every_insn.difference(&emitted).collect();
    assert!(missing.is_empty(), "never generated: {missing:?}");
    let combiners = want(&[
        "MakeArr",
        "MakeRec",
        "Index",
        "Slice",
        "Field",
        "ArrAttr",
        "Binop",
        "Unop",
        "RangeCheck",
        "Dup",
    ]);
    let missing: Vec<_> = combiners.difference(&raw).collect();
    assert!(missing.is_empty(), "never a raw step: {missing:?}");
    // Failing designs are part of the oracle, but most runs must stay
    // healthy long enough to exercise the rest.
    assert!(
        outcomes.0 > outcomes.1,
        "healthy {} vs failed {}",
        outcomes.0,
        outcomes.1
    );
}
