//! The compiler driver: files → units → analysis → VIF → code generation,
//! with the per-phase timing instrumentation behind the paper's §2.2
//! performance discussion (lines/minute, VIF read/write share, attribute
//! evaluation share, backend share).

pub mod batch;
pub mod depgraph;

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use sim_kernel::{Program, Simulator};
use vhdl_sem::analyze::{AnalyzedUnit, Analyzer, UnitLoader};
use vhdl_sem::env::EnvKind;
use vhdl_sem::msg::Msgs;
use vhdl_syntax::FrontError;
use vhdl_vif::{Library, LibrarySet, VifNode, VifTraffic};

/// Wall-clock time spent per compiler phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Scanning + LALR parsing.
    pub parse: Duration,
    /// Attribute evaluation (analysis minus VIF reading).
    pub attr_eval: Duration,
    /// Reading (and fixing up) foreign VIF.
    pub vif_read: Duration,
    /// Writing VIF for compiled units.
    pub vif_write: Duration,
    /// Elaboration + lowering to kernel programs.
    pub codegen: Duration,
    /// Emitting the C rendition (the "host C compile" stand-in).
    pub backend: Duration,
}

impl PhaseTimes {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.parse + self.attr_eval + self.vif_read + self.vif_write + self.codegen + self.backend
    }

    /// Percentage of the total for a phase duration.
    pub fn pct(&self, d: Duration) -> f64 {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            d.as_secs_f64() / t * 100.0
        }
    }
}

/// A loader wrapper that accumulates time spent reading VIF.
pub(crate) struct TimedLoader {
    pub(crate) inner: Rc<LibrarySet>,
    pub(crate) spent: Rc<RefCell<Duration>>,
}

impl UnitLoader for TimedLoader {
    fn load_unit(&self, lib: &str, key: &str) -> Option<Rc<VifNode>> {
        let t0 = Instant::now();
        let r = self.inner.load_unit(lib, key);
        *self.spent.borrow_mut() += t0.elapsed();
        r
    }

    fn latest_architecture(&self, entity: &str) -> Option<String> {
        self.inner.latest_architecture(entity)
    }

    fn unit_keys(&self, lib: &str) -> Vec<String> {
        self.inner.unit_keys(lib)
    }
}

/// Result of compiling one source file.
#[derive(Debug)]
pub struct CompileResult {
    /// Units in file order.
    pub units: Vec<AnalyzedUnit>,
    /// Phase timings.
    pub phases: PhaseTimes,
    /// Source lines compiled (non-blank, the paper's convention).
    pub lines: usize,
    /// VIF traffic during this compilation.
    pub traffic: VifTraffic,
}

impl CompileResult {
    /// All diagnostics.
    pub fn msgs(&self) -> Msgs {
        let mut m = Msgs::none();
        for u in &self.units {
            m = Msgs::concat(&m, &u.msgs);
        }
        m
    }

    /// `true` when every unit analyzed cleanly.
    pub fn ok(&self) -> bool {
        self.units.iter().all(|u| !u.msgs.has_errors())
    }

    /// Source lines per minute — the paper's headline throughput metric.
    pub fn lines_per_minute(&self) -> f64 {
        let secs = self.phases.total().as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.lines as f64 / secs * 60.0
        }
    }
}

/// The compiler: an analyzer plus a library universe.
pub struct Compiler {
    /// The reusable analyzer (grammar tables + AGs).
    pub analyzer: Analyzer,
    /// Work + reference libraries.
    pub libs: Rc<LibrarySet>,
    /// Memoized batch front halves (parse trees + staged dep graphs); a
    /// warm [`Compiler::compile_batch`] over unchanged files and libraries
    /// skips parsing and graph staging entirely.
    pub plans: RefCell<batch::PlanCache>,
}

impl Compiler {
    /// A compiler over the work library `work` with the given environment
    /// representation (the E7 ablation knob). Cheap: the analyzer shares
    /// the process's parse tables and the thread's AGs.
    pub fn new(work: Library, env_kind: EnvKind) -> Compiler {
        Compiler {
            analyzer: Analyzer::new(env_kind),
            libs: Rc::new(LibrarySet::new(Rc::new(work), vec![])),
            plans: RefCell::new(batch::PlanCache::default()),
        }
    }

    /// An in-memory compiler (tests, benches).
    pub fn in_memory() -> Compiler {
        Compiler::new(Library::in_memory("work"), EnvKind::Tree)
    }

    /// A compiler over an on-disk work library.
    ///
    /// # Errors
    ///
    /// I/O errors opening the library.
    pub fn on_disk(dir: &std::path::Path) -> Result<Compiler, vhdl_vif::VifError> {
        Ok(Compiler::new(Library::on_disk("work", dir)?, EnvKind::Tree))
    }

    /// Compiles a source string: parse, analyze each unit, store passing
    /// units, with phase timing.
    ///
    /// # Errors
    ///
    /// Front-end (scan/parse) errors; semantic errors are carried per
    /// unit.
    pub fn compile(&self, src: &str) -> Result<CompileResult, FrontError> {
        let _t = ag_harness::trace::span("compile");
        let mut phases = PhaseTimes::default();
        self.libs.reset_traffic();
        let t0 = Instant::now();
        let units = {
            let _t = ag_harness::trace::span("parse");
            self.analyzer.parse_units(src)?
        };
        phases.parse = t0.elapsed();

        let read_spent = Rc::new(RefCell::new(Duration::ZERO));
        let loader = Rc::new(TimedLoader {
            inner: Rc::clone(&self.libs),
            spent: Rc::clone(&read_spent),
        });
        let mut out = Vec::new();
        for u in &units {
            let t0 = Instant::now();
            let au = self
                .analyzer
                .analyze_unit_with_loader(u, Rc::clone(&loader) as Rc<dyn UnitLoader>);
            let analysis = t0.elapsed();
            let read = std::mem::take(&mut *read_spent.borrow_mut());
            phases.vif_read += read;
            phases.attr_eval += analysis.saturating_sub(read);
            if !au.msgs.has_errors() && !au.key.is_empty() {
                let t0 = Instant::now();
                let _ = self.libs.work().put(&au.key, &au.node);
                phases.vif_write += t0.elapsed();
            }
            out.push(au);
        }
        let lines = src.lines().filter(|l| !l.trim().is_empty()).count();
        Ok(CompileResult {
            units: out,
            phases,
            lines,
            traffic: self.libs.traffic(),
        })
    }

    /// Elaborates `entity(arch)` (or latest architecture) and emits the C
    /// rendition, timing the codegen/backend phases into `phases`.
    ///
    /// # Errors
    ///
    /// Elaboration/lowering errors.
    pub fn elaborate(
        &self,
        entity: &str,
        arch: Option<&str>,
        phases: Option<&mut PhaseTimes>,
    ) -> Result<(Program, String), vhdl_codegen::ElabError> {
        let t0 = Instant::now();
        let program = vhdl_codegen::elaborate(&self.libs, entity, arch)?;
        let codegen = t0.elapsed();
        let t0 = Instant::now();
        let c = vhdl_codegen::emit_c(entity, &program);
        let backend = t0.elapsed();
        if let Some(p) = phases {
            p.codegen += codegen;
            p.backend += backend;
        }
        Ok((program, c))
    }

    /// Elaborates through a configuration unit.
    ///
    /// # Errors
    ///
    /// Elaboration/lowering errors.
    pub fn elaborate_config(
        &self,
        config: &str,
    ) -> Result<(Program, String), vhdl_codegen::ElabError> {
        let program = vhdl_codegen::elaborate_config(&self.libs, config)?;
        let c = vhdl_codegen::emit_c(config, &program);
        Ok((program, c))
    }

    /// One-stop helper: compile `src`, elaborate `entity`, and return a
    /// ready simulator.
    ///
    /// # Errors
    ///
    /// Returns the first front-end, semantic, or elaboration problem as a
    /// string (examples and tests want one error channel).
    pub fn simulate(&self, src: &str, entity: &str) -> Result<Simulator<'static>, String> {
        let r = self.compile(src).map_err(|e| e.to_string())?;
        if !r.ok() {
            return Err(r.msgs().to_string());
        }
        let (program, _) = self
            .elaborate(entity, None, None)
            .map_err(|e| e.to_string())?;
        Ok(Simulator::new(program))
    }
}

impl Default for Compiler {
    fn default() -> Self {
        Self::in_memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_times_percentages() {
        let p = PhaseTimes {
            parse: Duration::from_millis(10),
            attr_eval: Duration::from_millis(30),
            vif_read: Duration::from_millis(40),
            vif_write: Duration::from_millis(10),
            codegen: Duration::from_millis(5),
            backend: Duration::from_millis(5),
        };
        assert_eq!(p.total(), Duration::from_millis(100));
        assert!((p.pct(p.vif_read) - 40.0).abs() < 1e-9);
    }
}
