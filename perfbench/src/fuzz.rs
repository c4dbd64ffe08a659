//! `fuzz`: `vhdl-conform` small-profile designs through the 8-cell
//! matrix, as `vhdlconform run --fresh` runs them. A divergence or a
//! `ConformError` fails the case.
//!
//! The traced run makes the calls `run_matrix` makes — generate,
//! compile and elaborate on a fresh compiler, run every cell, compare —
//! each in its own span, with the fresh compiler built layer by layer.

use ag_harness::prop::Source;
use sim_kernel::Program;
use vhdl_conform::gen::{gen_design, Design, Profile};
use vhdl_conform::oracle::{self, matrix, run_cell};
use vhdl_vif::Library;

use crate::front::{self, FrontCounts};
use crate::gen;
use crate::layer::Counts;
use crate::trace::{self, span};
use crate::{metric, Opts, Report, Stamp};

/// Set-up repetitions on each side of the timed phase.
const SETUP_REPS: usize = 10;
const WINDOW: u64 = 40;

fn design(seed: u64, index: u64) -> Design {
    let _s = span("conform.gen");
    gen_design(
        &mut Source::from_seed(gen::sub_seed(seed, index)),
        Profile::Small,
    )
}

/// `oracle::elaborate`, layer by layer.
fn elaborate(d: &Design, n: &mut FrontCounts) -> Result<Program, String> {
    let _s = span("conform.elaborate");
    let c = front::compiler(Library::in_memory("work"));
    if !front::compile(&c, &d.source, n).map_err(|e| e.to_string())? {
        return Err("generated design rejected".to_string());
    }
    let program = {
        let _s = span("codegen.elaborate");
        vhdl_codegen::elaborate(&c.libs, &d.top, None).map_err(|e| e.to_string())?
    };
    let _s = span("codegen.emit_c");
    std::hint::black_box(vhdl_codegen::emit_c(&d.top, &program));
    Ok(program)
}

/// One matrix case; the errors that fail it.
fn case(d: &Design, counts: &mut Counts) -> Vec<String> {
    if !trace::enabled() {
        return match oracle::run_matrix(d, None) {
            Ok(m) => m.divergence.map(|v| v.to_string()).into_iter().collect(),
            Err(e) => vec![e.to_string()],
        };
    }
    let mut n = FrontCounts::default();
    let program = elaborate(d, &mut n);
    counts.add_front(&n);
    let program = match program {
        Ok(p) => p,
        Err(e) => return vec![e],
    };
    let mut snaps = Vec::new();
    {
        let _s = span("conform.cells");
        for cell in matrix() {
            match run_cell(&program, d.cycles, cell, None) {
                Ok(s) => snaps.push((cell.name(), s)),
                Err(e) => return vec![e.to_string()],
            }
        }
    }
    let _s = span("conform.compare");
    let (base_name, base) = &snaps[0];
    snaps[1..]
        .iter()
        .filter_map(|(name, s)| {
            base.first_divergence(s)
                .map(|(obs, detail)| format!("{base_name} vs {name}: `{obs}` ({detail})"))
        })
        .take(1)
        .collect()
}

pub fn run(o: &Opts) -> Report {
    let mut r = Report {
        rate_name: "fuzz_cases_per_s",
        rate_unit: "cases",
        op_name: "matrix_case",
        ..Report::default()
    };
    let mut counts = Counts::default();

    // Set-up: one untimed warm-up case (lazy statics, allocator, code
    // pages). The warm-up design is the same for every seed, so set-up
    // time does not vary with the draw.
    let setup = |r: &mut Report| {
        let t0 = Stamp::now();
        let errs = case(&design(0, 0), &mut Counts::default());
        r.setup_done(t0);
        if !errs.is_empty() {
            r.ops.record(errs);
        }
    };
    for rep in 0..SETUP_REPS {
        trace::set_recording(rep + 1 == SETUP_REPS);
        setup(&mut r);
    }
    trace::set_recording(true);

    let mut lines = 0usize;
    let phase = crate::timed_loop(o.seconds, WINDOW, |op| {
        let t0 = Stamp::now();
        let vifb0 = vhdl_vif::vifb_stats();
        let errs = {
            let _op = span("op");
            let d = design(o.seed, op);
            lines += d.source.lines().filter(|l| !l.trim().is_empty()).count();
            if op < WINDOW {
                case(&d, &mut counts)
            } else {
                case(&d, &mut Counts::default())
            }
        };
        r.op_done(t0.elapsed());
        if trace::enabled() && op < WINDOW {
            counts.add_vifb(vifb0);
        }
        r.ops.record(errs);
    });
    let cases = r.op_ms.len() as f64;
    r.phase_done(phase, cases);
    trace::set_recording(false);
    for _ in 0..SETUP_REPS {
        setup(&mut r);
    }
    trace::set_recording(true);
    r.extra.push(metric("design_lines", lines as f64, "lines"));
    if trace::enabled() {
        crate::finish_traced(&mut r, &counts, WINDOW);
    }
    r
}
