//! Corpus replay: every checked-in conformance seed must still pass the
//! full configuration matrix — eight cells of {interp, compiled} ×
//! {1, 4 workers} × {solid, checkpoint-and-restore} byte-identical —
//! and must still hash to its golden digest. A digest mismatch with the
//! matrix still agreeing means the kernel's *observable semantics*
//! drifted: every configuration changed behavior together. That is
//! sometimes intentional (a semantics fix); regenerate goldens with
//! `vhdlconform run --seed-dir tests/corpus --update`.

use std::path::PathBuf;

use ag_harness::Source;
use sim_kernel::{Backend, Simulator};
use vhdl_conform::oracle::elaborate;
use vhdl_conform::{gen_design, load_dir, replay, CaseVerdict, Design, Profile};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

#[test]
fn corpus_replays_byte_identically() {
    let cases = load_dir(&corpus_dir()).expect("corpus loads");
    assert!(
        cases.len() >= 10,
        "corpus unexpectedly small: {} cases",
        cases.len()
    );
    let mut failures = Vec::new();
    for case in &cases {
        match replay(case, None) {
            CaseVerdict::Pass { .. } => {}
            CaseVerdict::DigestDrift { want, got } => failures.push(format!(
                "{}: semantic drift — digest {got:#x} != golden {want:#x} \
                 (matrix still agrees; regenerate goldens if intentional)",
                case.name
            )),
            CaseVerdict::Diverged(d, _) => {
                failures.push(format!("{}: {d}", case.name));
            }
            CaseVerdict::Error(e) => failures.push(format!("{}: {e}", case.name)),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} corpus cases failed:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}

/// Every corpus case must carry a golden digest — a digest-less case is
/// an unresolved divergence reproducer, which must not linger unfixed.
#[test]
fn corpus_cases_all_have_goldens() {
    let cases = load_dir(&corpus_dir()).expect("corpus loads");
    let missing: Vec<&str> = cases
        .iter()
        .filter(|c| c.digest.is_none())
        .map(|c| c.name.as_str())
        .collect();
    assert!(missing.is_empty(), "digest-less corpus cases: {missing:?}");
}

/// The compiled backend translates generated designs in full, recursion
/// included: no process of any corpus case, or of 64 fresh `small` and 64
/// fresh `heavy` designs, is left on the interpreter fallback.
#[test]
fn generated_designs_compile_without_fallback() {
    let mut designs: Vec<(String, Design)> = load_dir(&corpus_dir())
        .expect("corpus loads")
        .iter()
        .map(|c| (c.name.clone(), c.design()))
        .collect();
    for profile in [Profile::Small, Profile::Heavy] {
        for seed in 0..64 {
            let design = gen_design(&mut Source::from_seed(seed), profile);
            designs.push((format!("{} seed {seed}", profile.name()), design));
        }
    }
    let mut procs = 0;
    let mut fallback = Vec::new();
    for (name, design) in &designs {
        let program = elaborate(design).expect("generated design elaborates");
        procs += program.processes.len();
        let mut sim = Simulator::new(program);
        sim.set_backend(Backend::Compiled);
        let n = sim.stats().fallback_procs;
        if n > 0 {
            fallback.push(format!("{name}: {n}"));
        }
    }
    assert!(procs > 1000, "too few processes to mean much: {procs}");
    assert!(
        fallback.is_empty(),
        "designs with interpreter-fallback processes ({} of {} designs):\n{}",
        fallback.len(),
        designs.len(),
        fallback.join("\n")
    );
}
