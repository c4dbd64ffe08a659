//! `simulate`: long steady-state runs of seeded RTL designs.
//!
//! Set-up compiles and elaborates a few designs (many small clocked
//! processes, a resolved multi-driver bus, compute cells with a loop and
//! a recursive function) and builds one simulator per design and backend.
//! Each operation of the timed phase is a round that advances every
//! simulator by a fixed number of clock periods. Afterwards every simulator is
//! checked against the model, the two backends' statistics must agree,
//! and a short VCD-recording rerun must give identical VCD text under both
//! backends with last values matching the model.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use sim_kernel::io::Vcd;
use sim_kernel::{Backend, Program, SimStats, Simulator, Time};
use vhdl_driver::batch::BatchOptions;
use vhdl_driver::Compiler;
use vhdl_vif::Library;

use crate::gen::{self, Project};
use crate::layer::{self, Counts};
use crate::trace::{self, span};
use crate::{compare_values, metric, Opts, Report, Stamp};

const DESIGNS: usize = 3;
/// Rising clock edges each simulator advances per operation (a round
/// over every design and backend).
const EDGES: u64 = 40;
/// Edges of the VCD-recording check run.
const VCD_EDGES: u64 = 30;
/// Set-up repetitions on each side of the timed phase.
const SETUP_REPS: usize = 10;
const BACKENDS: [Backend; 2] = [Backend::Interp, Backend::Compiled];
/// Rounds in the traced per-layer window.
const WINDOW: u64 = 5;

struct Design {
    project: Project,
    program: Program,
}

fn build(seed: u64, d: usize) -> Result<Design, String> {
    let project = Project::generate(gen::sub_seed(seed, d as u64), gen::RTL);
    let c = if trace::enabled() {
        crate::front::compiler(Library::in_memory("work"))
    } else {
        Compiler::in_memory()
    };
    let files = project.files();
    let res = {
        let _s = span("driver.batch");
        c.compile_batch(
            &files,
            BatchOptions {
                jobs: 1,
                incremental: false,
            },
        )
    };
    if !res.ok() {
        let names: Vec<String> = files.iter().map(|f| f.0.clone()).collect();
        return Err(format!("design {d}: {}", res.rendered_msgs(&names)));
    }
    let program = {
        let _s = span("codegen.elaborate");
        vhdl_codegen::elaborate_config(&c.libs, "cfg_tb").map_err(|e| e.to_string())?
    };
    Ok(Design { project, program })
}

type Sims = (Vec<Design>, Vec<Simulator<'static>>);

/// Builds every design and one simulator per design and backend.
fn set_up(seed: u64) -> Result<Sims, String> {
    let designs = (0..DESIGNS)
        .map(|d| build(seed, d))
        .collect::<Result<Vec<_>, _>>()?;
    let sims = designs
        .iter()
        .flat_map(|d| BACKENDS.map(|b| new_sim(&d.program, b)))
        .collect();
    Ok((designs, sims))
}

fn new_sim(program: &Program, backend: Backend) -> Simulator<'static> {
    let _s = span("kernel.sim_new");
    let mut sim = Simulator::new(program.clone());
    sim.set_backend(backend);
    sim
}

fn observed<'s>(sim: &'s Simulator<'static>) -> impl Fn(&str) -> Option<i64> + 's {
    |n: &str| {
        sim.value_by_name(&format!("tb.{n}"))
            .map(|v| v.to_string().parse().unwrap_or(i64::MIN))
    }
}

fn core_stats(s: &SimStats) -> [u64; 6] {
    [
        s.cycles,
        s.delta_cycles,
        s.events,
        s.transactions,
        s.resumptions,
        s.insns,
    ]
}

pub fn run(o: &Opts) -> Report {
    let mut r = Report {
        rate_name: "sim_clocks_per_s",
        rate_unit: "clocks",
        op_name: "sim_round",
        ..Report::default()
    };
    let mut counts = Counts::default();

    // Set-up: compile, elaborate and construct every simulator.
    let mut built = Err(String::new());
    for rep in 0..SETUP_REPS {
        trace::set_recording(rep + 1 == SETUP_REPS);
        let t0 = Stamp::now();
        built = set_up(o.seed);
        r.setup_done(t0);
    }
    trace::set_recording(true);
    let (designs, mut sims) = match built {
        Ok(b) => b,
        Err(e) => {
            r.ops.record(vec![e]);
            return r;
        }
    };
    for d in &designs {
        counts.compiled_procs += d.program.processes.len() as u64;
        counts.cfg_insns += vhdl_codegen::cfg_stats(&d.program).insns as u64;
    }

    let mut edges = vec![0u64; sims.len()];
    let mut total_edges = 0u64;
    let phase = crate::timed_loop(o.seconds, WINDOW, |op| {
        let t0 = Stamp::now();
        let mut errs = Vec::new();
        let _op = span("op");
        for (i, sim) in sims.iter_mut().enumerate() {
            let before = sim.stats();
            let deadline = Time::fs(gen::time_after_edges(edges[i] + EDGES));
            let ran = {
                let _s = span(if BACKENDS[i % 2] == Backend::Interp {
                    "kernel.run_interp"
                } else {
                    "kernel.run_compiled"
                });
                sim.run_until(deadline)
            };
            if let Err(e) = ran {
                errs.push(format!("design {} {:?}: {e}", i / 2, BACKENDS[i % 2]));
            }
            edges[i] += EDGES;
            if trace::enabled() && op < WINDOW {
                let delta = layer::diff_stats(&before, &sim.stats());
                let into = if i % 2 == 0 {
                    &mut counts.interp
                } else {
                    &mut counts.compiled
                };
                layer::add_stats(into, &delta);
            }
        }
        drop(_op);
        total_edges += sims.len() as u64 * EDGES;
        r.op_done(t0.elapsed());
        r.ops.record(errs);
    });
    r.phase_done(phase, total_edges as f64);
    trace::set_recording(false);
    for _ in 0..SETUP_REPS {
        let t0 = Stamp::now();
        let again = set_up(o.seed);
        r.setup_done(t0);
        drop(again);
    }
    trace::set_recording(true);

    // Checks, outside the timed phase: bring both backends of a design to
    // the same clock count, then compare with the model and each other.
    for (d, design) in designs.iter().enumerate() {
        let _s = span("check");
        let mut errs = Vec::new();
        let n = edges[2 * d].max(edges[2 * d + 1]);
        for b in 0..2 {
            let sim = &mut sims[2 * d + b];
            if let Err(e) = sim.run_until(Time::fs(gen::time_after_edges(n))) {
                errs.push(format!("design {d} {:?}: {e}", BACKENDS[b]));
            }
        }
        let expected = design.project.expect(n);
        for b in 0..2 {
            let what = format!("design {d} {:?} after {n} clocks", BACKENDS[b]);
            errs.extend(compare_values(&what, &expected, observed(&sims[2 * d + b])));
        }
        if d == 0 {
            errs.extend(crate::checker_self_test(&expected, observed(&sims[0])));
        }
        let (si, sc) = (sims[2 * d].stats(), sims[2 * d + 1].stats());
        if core_stats(&si) != core_stats(&sc) {
            errs.push(format!(
                "design {d}: SimStats differ: interp {si:?}, compiled {sc:?}"
            ));
        }
        counts.fallback_procs += sc.fallback_procs;
        errs.extend(vcd_check(d, design));
        r.ops.record(errs);
    }
    r.extra.push(metric("designs", DESIGNS as f64, "count"));
    r.extra
        .push(metric("clocks_simulated", total_edges as f64, "clocks"));
    if trace::enabled() {
        crate::finish_traced(&mut r, &counts, WINDOW);
    }
    r
}

/// Reruns the first clocks of a design with a VCD under both backends:
/// the VCD texts must be identical and their last values must match the
/// model.
fn vcd_check(d: usize, design: &Design) -> Vec<String> {
    let mut texts = Vec::new();
    let mut errs = Vec::new();
    for b in BACKENDS {
        let vcd = Rc::new(RefCell::new(Vcd::new("1fs")));
        let sink = Rc::clone(&vcd);
        let mut sim = Simulator::new(design.program.clone());
        sim.set_backend(b);
        sim.observe(Box::new(move |t, sig, name, v| {
            sink.borrow_mut().change(t, sig, name, v);
        }));
        if let Err(e) = sim.run_until(Time::fs(gen::time_after_edges(VCD_EDGES))) {
            errs.push(format!("design {d} {b:?} VCD run: {e}"));
        }
        drop(sim);
        texts.push(vcd.borrow().finish());
    }
    if texts[0] != texts[1] {
        errs.push(format!("design {d}: VCD differs between backends"));
    }
    let last: BTreeMap<String, i64> = gen::vcd_last_values(&texts[0]).into_iter().collect();
    let in_vcd = |n: &str| Some(*last.get(&format!("tb.{n}")).unwrap_or(&0));
    errs.extend(compare_values(
        &format!("design {d} VCD"),
        &design.project.expect(VCD_EDGES),
        in_vcd,
    ));
    errs
}
