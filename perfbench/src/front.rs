//! The front half of the compiler, called layer by layer for the traced
//! run: the same public calls `Compiler::on_disk`/`in_memory` and
//! `Compiler::compile` make, each inside its own span.

use std::cell::RefCell;
use std::rc::Rc;

use ag_lalr::ParseTree;
use vhdl_driver::Compiler;
use vhdl_sem::analyze::{AnalyzedUnit, Analyzer, UnitLoader};
use vhdl_sem::env::EnvKind;
use vhdl_sem::principal_ag::PrincipalAg;
use vhdl_syntax::{Cst, FrontError, PrincipalGrammar};
use vhdl_vif::{Library, LibrarySet, VifNode};

use crate::trace::span;

/// Counts the traced front end accumulates.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontCounts {
    pub tokens: u64,
    pub units: u64,
    pub expr_evals: u64,
    pub loads: u64,
    pub stores: u64,
    pub bytes_written: u64,
}

/// Builds an analyzer the way `Analyzer::new` does, one span per layer.
pub fn analyzer() -> Analyzer {
    let grammar = {
        let _s = span("lalr.table_build");
        PrincipalGrammar::new()
    };
    let _s = span("sem.analyzer_new");
    let pag = PrincipalAg::build(&grammar);
    let _ = vhdl_sem::expr_ag::ExprAg::shared();
    Analyzer {
        grammar,
        pag,
        std: Rc::new(vhdl_sem::standard::standard(EnvKind::Tree)),
        env_kind: EnvKind::Tree,
    }
}

/// Replays the per-thread analyzer construction a batch worker makes
/// (`Analyzer::thread_shared` on a fresh thread).
pub fn worker_analyzer() {
    let grammar = {
        let _s = span("lalr.table_build");
        PrincipalGrammar::new()
    };
    let _s = span("sem.analyzer_new");
    let _ = PrincipalAg::build(&grammar);
    let _ = vhdl_sem::expr_ag::ExprAg::build();
    let _ = vhdl_sem::standard::standard(EnvKind::Tree);
}

/// A compiler over `work`, built layer by layer.
pub fn compiler(work: Library) -> Compiler {
    Compiler {
        analyzer: analyzer(),
        libs: Rc::new(LibrarySet::new(Rc::new(work), vec![])),
        plans: RefCell::new(Default::default()),
    }
}

/// Lexes and parses one design file into unit subtrees.
///
/// # Errors
///
/// Scan or parse errors.
pub fn parse(a: &Analyzer, src: &str, n: &mut FrontCounts) -> Result<Vec<Cst>, FrontError> {
    let toks = {
        let _s = span("syntax.lex");
        vhdl_syntax::lex(src)?
    };
    n.tokens += toks.len() as u64;
    let cst = {
        let _s = span("lalr.parse");
        a.grammar.parse_tokens(toks)?
    };
    Ok(split_units(cst))
}

/// Splits a design file tree into its design units (`design_units` is
/// left-recursive), as the analyzer does before analysis.
fn split_units(cst: Cst) -> Vec<Cst> {
    fn walk(t: Cst, out: &mut Vec<Cst>) {
        match t {
            ParseTree::Node { children, .. } if children.len() == 2 => {
                let mut it = children.into_iter();
                walk(it.next().expect("two children"), out);
                out.push(it.next().expect("two children"));
            }
            ParseTree::Node { children, .. } if children.len() == 1 => {
                out.push(children.into_iter().next().expect("one child"));
            }
            other => out.push(other),
        }
    }
    let mut units = Vec::new();
    if let ParseTree::Node { children, .. } = cst {
        for c in children {
            walk(c, &mut units);
        }
    }
    units
}

/// A loader that opens a `vif.load` span around every unit load.
struct TimedLoader {
    inner: Rc<LibrarySet>,
    loads: RefCell<u64>,
}

impl UnitLoader for TimedLoader {
    fn load_unit(&self, lib: &str, key: &str) -> Option<Rc<VifNode>> {
        let _s = span("vif.load");
        *self.loads.borrow_mut() += 1;
        self.inner.load_unit(lib, key)
    }

    fn latest_architecture(&self, entity: &str) -> Option<String> {
        self.inner.latest_architecture(entity)
    }

    fn unit_keys(&self, lib: &str) -> Vec<String> {
        self.inner.unit_keys(lib)
    }
}

/// Analyzes one unit and stores it when clean, as `Compiler::compile`
/// does per unit.
pub fn analyze_and_store(
    a: &Analyzer,
    libs: &Rc<LibrarySet>,
    unit: &Cst,
    n: &mut FrontCounts,
) -> AnalyzedUnit {
    let loader = Rc::new(TimedLoader {
        inner: Rc::clone(libs),
        loads: RefCell::new(0),
    });
    let au = {
        let _s = span("sem.analyze");
        a.analyze_unit_with_loader(unit, Rc::clone(&loader) as Rc<dyn UnitLoader>)
    };
    n.units += 1;
    n.expr_evals += au.expr_evals;
    n.loads += *loader.loads.borrow();
    if !au.msgs.has_errors() && !au.key.is_empty() {
        let before = libs.work().traffic().bytes_written;
        let _s = span("vif.store");
        if libs.work().put(&au.key, &au.node).is_ok() {
            n.stores += 1;
            n.bytes_written += libs.work().traffic().bytes_written - before;
        }
    }
    au
}

/// `Compiler::compile`, layer by layer: parse, then analyze and store
/// each unit in file order. Returns whether every unit was clean.
///
/// # Errors
///
/// Scan or parse errors.
pub fn compile(c: &Compiler, src: &str, n: &mut FrontCounts) -> Result<bool, FrontError> {
    let units = parse(&c.analyzer, src, n)?;
    let mut ok = true;
    for u in &units {
        let au = analyze_and_store(&c.analyzer, &c.libs, u, n);
        ok &= !au.msgs.has_errors();
    }
    Ok(ok)
}
