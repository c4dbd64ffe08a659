//! Parallel-execution byte-identity property suite.
//!
//! The parallel process phase (worker-pool execution with buffered
//! effects and a barrier commit in seed scan order) must be observably
//! indistinguishable from sequential execution at any worker count.
//! Randomly generated *wide* designs — many concurrent processes,
//! resolved buses with writers that the partitioner may cluster or
//! split across workers, cross-process sensitivity, zero-fs timeout
//! delta storms, failing arithmetic — run at jobs=1 and jobs∈{2,4,8}
//! under both backends, and every observable must match byte for byte:
//! VCD output, the full statistics block (including the scheduler
//! introspection counters), per-object Name-Server counters, final
//! values, reports, and the run outcome.

use std::cell::RefCell;
use std::sync::Arc;

use ag_harness::{check_eq, forall, Config, Source};
use sim_kernel::io::Vcd;
use sim_kernel::{
    ArrAttrKind, Backend, FnDecl, Insn, Op, Program, RunOutcome, SigId, SimError, SimStats,
    Simulator, Time, Val, VarAddr,
};

fn slot(n: u16) -> VarAddr {
    VarAddr { depth: 0, slot: n }
}

/// `sum(drivers) mod 4` — the resolution function the equivalence suite
/// uses; a loop over an array parameter, so resolved buses exercise the
/// pure-call path between parallel cycles.
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

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Snap {
    outcome: String,
    vcd: String,
    now: Time,
    stats: SimStats,
    sig_vals: Vec<Val>,
    sig_events: Vec<u64>,
    sig_last: Vec<Option<Time>>,
    proc_res: Vec<u64>,
    reports: Vec<(Time, i64, String)>,
}

fn run_jobs(
    prog: &Program,
    deadline: Time,
    budgets: &[u64],
    backend: Backend,
    jobs: usize,
) -> Snap {
    let (n_sigs, n_procs) = (prog.signals.len(), prog.processes.len());
    let vcd = RefCell::new(Vcd::new("1fs"));
    let vcd_ref = &vcd;
    let mut sim = Simulator::new(prog.clone());
    sim.set_backend(backend);
    sim.set_jobs(jobs);
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
    let _ = (n_sigs, n_procs);
    let snap = finish_snap(&sim, &outcome, vcd.borrow().finish());
    drop(sim);
    snap
}

/// Draws a wide design: 4–10 looping processes, one private signal
/// each, 0–2 shared resolved buses with several writers (the
/// partitioner clusters them — or splits the cluster across workers
/// once it exceeds the load cap), cross-process sensitivity, zero-fs
/// timeouts (delta storms, bounded by the run's cycle budget), and
/// occasional failing division so error ordering is covered too.
fn gen_wide(s: &mut Source) -> Program {
    let mut prog = Program::default();
    let n_procs = s.usize_in(4, 10);
    let own: Vec<SigId> = (0..n_procs)
        .map(|i| prog.add_signal(format!("top.p{i}.s"), Val::Int(0)))
        .collect();
    let n_bus = s.usize_in(0, 2);
    let mut bus: Vec<SigId> = Vec::new();
    if n_bus > 0 {
        let f = prog.add_function(sum_mod4());
        for r in 0..n_bus {
            let sid = prog.add_signal(format!("top.bus{r}"), Val::Int(0));
            prog.signals[sid.0 as usize].resolution = Some(f);
            bus.push(sid);
        }
    }
    for pi in 0..n_procs {
        let mut code = vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::StoreVar(slot(0)),
        ];
        // Drive the private signal with a counter-derived value so both
        // events and no-change active cycles occur.
        let m = *s.pick(&[2i64, 3, 4]);
        code.push(Insn::LoadVar(slot(0)));
        code.push(Insn::PushInt(m));
        code.push(Insn::Binop(Op::Mod));
        code.push(Insn::PushInt(*s.pick(&[-1i64, 0, 1, 2, 5])));
        code.push(Insn::Sched {
            sig: own[pi],
            transport: s.bool(),
        });
        // Maybe also write a shared bus: several writers on one signal
        // is exactly the footprint the partitioner must respect.
        if !bus.is_empty() && s.bool() {
            let sig = *s.pick(&bus);
            code.push(Insn::LoadVar(slot(0)));
            code.push(Insn::PushInt(3));
            code.push(Insn::Binop(Op::Mod));
            code.push(Insn::PushInt(*s.pick(&[-1i64, 1, 3])));
            code.push(Insn::Sched {
                sig,
                transport: s.bool(),
            });
        }
        // Occasional failing arithmetic: dividing by `counter mod k`
        // eventually divides by zero; the first failure in seed scan
        // order must win at every worker count.
        if s.usize_in(0, 4) == 0 {
            let k = *s.pick(&[5i64, 7, 11]);
            code.push(Insn::PushInt(97));
            code.push(Insn::LoadVar(slot(0)));
            code.push(Insn::PushInt(k));
            code.push(Insn::Binop(Op::Mod));
            code.push(Insn::Binop(Op::Div));
            code.push(Insn::StoreVar(slot(1)));
        }
        // Sensitivity: own signal, often a neighbor's (events cross
        // partitions), sometimes a bus; sometimes pure timeout — with
        // zero fs it re-wakes every delta cycle (a delta storm).
        let mut sens: Vec<SigId> = vec![own[pi]];
        if s.bool() {
            sens.push(own[(pi + 1) % n_procs]);
        }
        if !bus.is_empty() && s.bool() {
            sens.push(*s.pick(&bus));
        }
        if s.usize_in(0, 3) == 0 {
            sens.clear();
        }
        sens.sort_unstable();
        sens.dedup();
        let timeout = if sens.is_empty() {
            Some(*s.pick(&[0i64, 0, 1, 2]))
        } else {
            s.option(|s| *s.pick(&[0i64, 1, 3, 7]))
        };
        if let Some(fs) = timeout {
            code.push(Insn::PushInt(fs));
        }
        code.push(Insn::Wait {
            sens: Arc::new(sens),
            with_timeout: timeout.is_some(),
        });
        code.push(Insn::Pop);
        code.push(Insn::Jump(0));
        prog.add_process(format!("top.p{pi}"), 2, code);
    }
    if s.bool() {
        prog.finalize_sensitivity();
    }
    prog
}

/// The tentpole property: randomized wide designs are byte-identical
/// at jobs=1 vs jobs∈{2,4,8} on the interpreter, and at jobs=1 vs
/// jobs=4 on the compiled backend; the compiled VCD also matches the
/// interpreter's (the cross-backend leg `equiv.rs` established, now at
/// worker counts > 1).
#[test]
fn parallel_equivalent_to_sequential() {
    forall!(
        Config::new("parallel_equivalent_to_sequential").cases(48),
        |s| {
            let prog = gen_wide(s);
            let deadline = Time::fs(s.u64_in(5, 40));
            let total = s.u64_in(20, 200);
            // Sometimes split the run into two slices: a barrier is a
            // legal stopping point, and resuming must not depend on the
            // worker count either.
            let budgets = if s.bool() && total >= 2 {
                let c1 = s.u64_in(1, total - 1);
                vec![c1, total - c1]
            } else {
                vec![total]
            };
            let seq = run_jobs(&prog, deadline, &budgets, Backend::Interp, 1);
            for jobs in [2usize, 4, 8] {
                let par = run_jobs(&prog, deadline, &budgets, Backend::Interp, jobs);
                check_eq!(par.vcd, seq.vcd, "interp VCD at jobs={}", jobs);
                check_eq!(par.stats, seq.stats, "interp stats at jobs={}", jobs);
                check_eq!(par, seq, "interp full snapshot at jobs={}", jobs);
            }
            let cseq = run_jobs(&prog, deadline, &budgets, Backend::Compiled, 1);
            let cpar = run_jobs(&prog, deadline, &budgets, Backend::Compiled, 4);
            check_eq!(cpar.vcd, cseq.vcd, "compiled VCD at jobs=4");
            check_eq!(cpar, cseq, "compiled full snapshot at jobs=4");
            check_eq!(cseq.vcd, seq.vcd, "compiled vs interp VCD");
        }
    );
}

/// Checkpoints are taken at cycle barriers, where the simulator's state
/// is worker-count-independent: a run checkpointed mid-flight at jobs=4
/// and resumed at jobs=1 (and vice versa) must be byte-identical to the
/// uninterrupted sequential run — and the checkpoint blobs themselves
/// must be identical across worker counts.
#[test]
fn snapshot_roundtrip_across_worker_counts() {
    forall!(
        Config::new("snapshot_roundtrip_across_worker_counts").cases(24),
        |s| {
            let prog = gen_wide(s);
            let deadline = Time::fs(s.u64_in(5, 40));
            let total = s.u64_in(20, 160);
            let cut = s.u64_in(1, total - 1);
            let oracle = run_jobs(&prog, deadline, &[total], Backend::Interp, 1);
            let mut blobs: Vec<Option<Vec<u8>>> = Vec::new();
            for (j_run, j_resume) in [(4usize, 1usize), (1, 4)] {
                let vcd = RefCell::new(Vcd::new("1fs"));
                let (n_sigs, n_procs) = (prog.signals.len(), prog.processes.len());
                let (blob, vcd_bytes, first) = {
                    let vcd_ref = &vcd;
                    let mut sim = Simulator::new(prog.clone());
                    sim.set_jobs(j_run);
                    sim.observe(Box::new(move |t, sig, name, v| {
                        vcd_ref.borrow_mut().change(t, sig, name, v);
                    }));
                    let first = sim.run_slice(deadline, cut, &mut || false);
                    if first.is_err() {
                        // The design failed inside the first slice; a
                        // failed run refuses to checkpoint — the parallel
                        // failure itself must match the oracle's.
                        let snap = finish_snap(&sim, &first, vcd.borrow().finish());
                        check_eq!(snap, oracle, "failed-in-slice-1 at jobs={}", j_run);
                        blobs.push(None);
                        continue;
                    }
                    let blob = sim.checkpoint().expect("checkpoint of a healthy run");
                    let mut e = sim_kernel::Enc::new();
                    vcd.borrow().encode(&mut e);
                    (blob, e.into_bytes(), first)
                };
                blobs.push(Some(blob.clone()));
                let vcd2 = RefCell::new(
                    Vcd::decode(&mut sim_kernel::Dec::new(&vcd_bytes)).expect("vcd state"),
                );
                let vcd2_ref = &vcd2;
                let mut sim2 = Simulator::restore(prog.clone(), &blob).expect("restore");
                sim2.set_jobs(j_resume);
                sim2.observe(Box::new(move |t, sig, name, v| {
                    vcd2_ref.borrow_mut().change(t, sig, name, v);
                }));
                let outcome = if matches!(first, Ok(RunOutcome::CycleBudget)) {
                    sim2.run_slice(deadline, total - cut, &mut || false)
                } else {
                    first
                };
                let snap = finish_snap(&sim2, &outcome, vcd2.borrow().finish());
                drop(sim2);
                check_eq!(
                    snap,
                    oracle,
                    "checkpoint at jobs={} resumed at jobs={}",
                    j_run,
                    j_resume
                );
                let _ = (n_sigs, n_procs);
            }
            if let [Some(a), Some(b)] = &blobs[..] {
                check_eq!(a, b, "checkpoint blob must be worker-count-independent");
            }
        }
    );
}

/// Builds a [`Snap`] from a finished simulator (shared by the snapshot
/// round-trip legs).
fn finish_snap(sim: &Simulator<'_>, outcome: &Result<RunOutcome, SimError>, vcd: String) -> Snap {
    let n_sigs = sim.program().signals.len();
    let n_procs = sim.program().processes.len();
    Snap {
        outcome: match outcome {
            Ok(o) => format!("{o:?}"),
            Err(e) => format!("err: {e}"),
        },
        vcd,
        now: sim.now(),
        stats: sim.stats(),
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

/// Partition edge case: a process with empty sensitivity (timeout-only)
/// has an empty sensed footprint — it must still land in a partition
/// and commit in order.
#[test]
fn empty_sensitivity_process_is_deterministic() {
    let mut prog = Program::default();
    let mut sigs = Vec::new();
    for i in 0..6 {
        sigs.push(prog.add_signal(format!("top.s{i}"), Val::Int(0)));
    }
    for i in 0..6 {
        let mut code = vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::StoreVar(slot(0)),
            Insn::LoadVar(slot(0)),
            Insn::PushInt(2),
            Insn::Binop(Op::Mod),
            Insn::PushInt(1),
            Insn::Sched {
                sig: sigs[i],
                transport: false,
            },
        ];
        if i % 2 == 0 {
            // Timeout-only: wait 2 fs with no sensitivity at all.
            code.push(Insn::PushInt(2));
            code.push(Insn::Wait {
                sens: Arc::new(vec![]),
                with_timeout: true,
            });
        } else {
            code.push(Insn::Wait {
                sens: Arc::new(vec![sigs[i]]),
                with_timeout: false,
            });
        }
        code.push(Insn::Pop);
        code.push(Insn::Jump(0));
        prog.add_process(format!("top.p{i}"), 1, code);
    }
    prog.finalize_sensitivity();
    let deadline = Time::fs(50);
    let seq = run_jobs(&prog, deadline, &[500], Backend::Interp, 1);
    for jobs in [2usize, 4] {
        let par = run_jobs(&prog, deadline, &[500], Backend::Interp, jobs);
        assert_eq!(par, seq, "jobs={jobs}");
    }
}

/// Partition edge case: more writers on one resolved signal than the
/// per-worker load cap — the writer cluster is split across workers, so
/// one signal's drivers execute in different partitions. Buffered
/// commits must still produce the sequential driver order.
#[test]
fn shared_signal_split_across_partitions() {
    let mut prog = Program::default();
    let f = prog.add_function(sum_mod4());
    let bus = prog.add_signal("top.bus", Val::Int(0));
    prog.signals[bus.0 as usize].resolution = Some(f);
    let tick = prog.add_signal("top.tick", Val::Int(0));
    // The clock: drives tick every fs.
    prog.add_process(
        "top.clk",
        1,
        vec![
            Insn::LoadVar(slot(0)),
            Insn::PushInt(1),
            Insn::Binop(Op::Add),
            Insn::StoreVar(slot(0)),
            Insn::LoadVar(slot(0)),
            Insn::PushInt(2),
            Insn::Binop(Op::Mod),
            Insn::PushInt(1),
            Insn::Sched {
                sig: tick,
                transport: false,
            },
            Insn::Wait {
                sens: Arc::new(vec![tick]),
                with_timeout: false,
            },
            Insn::Pop,
            Insn::Jump(0),
        ],
    );
    // Six writers all driving the one bus (footprints share `bus`, so
    // they form one component of 7 with the clock via `tick`? no —
    // writers sense tick and drive bus, merging them with the clock
    // too: one big component, guaranteed larger than the cap at
    // jobs=4, forcing a split).
    for i in 0..6 {
        prog.add_process(
            format!("top.w{i}"),
            1,
            vec![
                Insn::LoadVar(slot(0)),
                Insn::PushInt(1),
                Insn::Binop(Op::Add),
                Insn::StoreVar(slot(0)),
                Insn::LoadVar(slot(0)),
                Insn::PushInt(i as i64 + 2),
                Insn::Binop(Op::Mod),
                Insn::PushInt(-1),
                Insn::Sched {
                    sig: bus,
                    transport: false,
                },
                Insn::Wait {
                    sens: Arc::new(vec![tick]),
                    with_timeout: false,
                },
                Insn::Pop,
                Insn::Jump(0),
            ],
        );
    }
    prog.finalize_sensitivity();
    let deadline = Time::fs(40);
    let seq = run_jobs(&prog, deadline, &[800], Backend::Interp, 1);
    for jobs in [2usize, 4, 8] {
        let par = run_jobs(&prog, deadline, &[800], Backend::Interp, jobs);
        assert_eq!(par, seq, "jobs={jobs}");
    }
}

/// Partition edge case: a compiled-backend fallback process (a join
/// reached at two stack depths, which the translator declines) sharing a
/// cycle — and potentially a partition — with tape-compiled processes.
/// The mixed chunk must still be byte-identical to sequential execution.
#[test]
fn compiled_fallback_shares_partition() {
    let mut prog = Program::default();
    let mut sigs = Vec::new();
    for i in 0..5 {
        sigs.push(prog.add_signal(format!("top.s{i}"), Val::Int(0)));
    }
    // Process 0 pushes its counter on odd activations only and consumes
    // it behind a second test of the same condition: balanced at run
    // time, but the join at 9 has depths 0 and 1, so it falls back to the
    // interpreter even under Backend::Compiled.
    let odd = [
        Insn::LoadVar(slot(0)),
        Insn::PushInt(2),
        Insn::Binop(Op::Mod),
    ];
    let mut code = vec![
        Insn::LoadVar(slot(0)),
        Insn::PushInt(1),
        Insn::Binop(Op::Add),
        Insn::StoreVar(slot(0)),
    ];
    code.extend(odd.clone());
    code.extend([Insn::JumpIfFalse(9), Insn::LoadVar(slot(0))]);
    code.extend(odd); // 9: the disagreeing join
    code.extend([
        Insn::JumpIfFalse(15),
        Insn::PushInt(1),
        Insn::Sched {
            sig: sigs[0],
            transport: false,
        },
        Insn::PushInt(1), // 15:
        Insn::Wait {
            sens: Arc::new(vec![]),
            with_timeout: true,
        },
        Insn::Pop,
        Insn::Jump(0),
    ]);
    prog.add_process("top.fallback", 2, code);
    // Four plain oscillators the translator compiles fully.
    for i in 1..5 {
        prog.add_process(
            format!("top.osc{i}"),
            1,
            vec![
                Insn::LoadSig(sigs[i]),
                Insn::Unop(Op::Not),
                Insn::PushInt(1),
                Insn::Sched {
                    sig: sigs[i],
                    transport: false,
                },
                Insn::Wait {
                    sens: Arc::new(vec![sigs[i]]),
                    with_timeout: false,
                },
                Insn::Pop,
                Insn::Jump(0),
            ],
        );
    }
    prog.finalize_sensitivity();
    let deadline = Time::fs(60);
    let seq = run_jobs(&prog, deadline, &[600], Backend::Compiled, 1);
    assert_eq!(
        seq.stats.fallback_procs, 1,
        "the disagreeing join must be an interpreter fallback"
    );
    for jobs in [2usize, 4] {
        let par = run_jobs(&prog, deadline, &[600], Backend::Compiled, jobs);
        assert_eq!(par, seq, "jobs={jobs}");
    }
    // And the interpreter agrees on the observables it shares.
    let interp = run_jobs(&prog, deadline, &[600], Backend::Interp, 4);
    assert_eq!(interp.vcd, seq.vcd, "compiled vs interp VCD");
}
