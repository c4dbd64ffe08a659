//! Conformance-subsystem self-tests: generator determinism, matrix
//! agreement on fresh seeds, reproducer shrinking, and fault detection.

use ag_harness::Source;
use sim_kernel::TestFault;
use vhdl_conform::{fuzz, gen_design, oracle, run_matrix, Case, Design, Failure, Profile};
use vhdl_driver::Compiler;

/// Same seed → byte-identical VHDL text, across repeated generation and
/// across threads (the generator must not depend on ambient state).
#[test]
fn generator_is_deterministic() {
    for profile in [Profile::Small, Profile::Heavy] {
        for seed in [1u64, 42, 0xdead_beef] {
            let here = gen_design(&mut Source::from_seed(seed), profile);
            let again = gen_design(&mut Source::from_seed(seed), profile);
            assert_eq!(here.source, again.source, "seed {seed:#x} unstable");
            assert_eq!(here.cycles, again.cycles);
            let spawned =
                std::thread::spawn(move || gen_design(&mut Source::from_seed(seed), profile))
                    .join()
                    .unwrap();
            assert_eq!(
                here.source, spawned.source,
                "seed {seed:#x} thread-dependent"
            );
        }
    }
}

/// The drawn stream replays to the same design: stream = reproducer.
#[test]
fn drawn_stream_replays_byte_identically() {
    for seed in 0..16u64 {
        let mut s = Source::from_seed(seed);
        let original = gen_design(&mut s, Profile::Small);
        let mut replay = Source::of_stream(s.drawn());
        let replayed = gen_design(&mut replay, Profile::Small);
        assert_eq!(original.source, replayed.source);
        assert_eq!(original.cycles, replayed.cycles);
    }
}

/// A bounded fresh-seed fuzz run finds no divergence on the honest
/// kernel. (The CI gate runs a larger sweep; this keeps `cargo test`
/// self-contained.)
#[test]
fn fresh_seeds_conform() {
    let rep = fuzz(0x5eed, 8, Profile::Small, None, 512, &mut |_, _, _| {});
    if let Some(rep) = rep {
        panic!("unexpected divergence:\n{}", rep.triage());
    }
}

/// The injected resolution fault (parallel cells see only the first
/// driver) is caught by the matrix and shrunk to a small reproducer that
/// still elaborates and still diverges.
#[test]
fn injected_fault_is_caught_and_shrunk() {
    let fault = Some(TestFault::ResolutionFirstDriverOnly);
    // A modest shrink budget keeps this test fast in debug builds; every
    // candidate replay is a full 8-cell matrix run. The CLI default is
    // larger for tighter minimization.
    let rep = fuzz(1, 64, Profile::Small, fault, 192, &mut |_, _, _| {})
        .expect("a multi-writer bus divergence within 64 seeds");
    // The minimized reproducer names the diverging configuration pair.
    match &rep.failure {
        Failure::Diverged(d) => {
            assert_eq!(d.base, "interp/j1/solid");
            assert!(
                d.cell.contains("j4"),
                "fault only arms on parallel cells: {d}"
            );
        }
        Failure::Error(e) => panic!("expected divergence, got rejection: {e}"),
    }
    // Shrinking preserved well-typedness: the minimized design still
    // elaborates, and still diverges under the fault.
    let out = run_matrix(&rep.design, fault).expect("minimized design must elaborate");
    assert!(
        out.divergence.is_some(),
        "minimized design must still diverge"
    );
    // And conforms once the fault is gone — the divergence is the
    // fault's, not the design's.
    let honest = run_matrix(&rep.design, None).expect("elaborates");
    assert!(honest.divergence.is_none(), "honest kernel must conform");
}

/// Corpus-file round trip: render → parse preserves every field.
#[test]
fn corpus_case_round_trips() {
    let mut s = Source::from_seed(7);
    let _ = gen_design(&mut s, Profile::Small);
    let case = Case {
        name: "rt".into(),
        note: "round-trip check".into(),
        profile: Profile::Small,
        stream: s.drawn(),
        digest: Some(0xabc123),
    };
    let parsed = Case::parse("rt", &case.render()).unwrap();
    assert_eq!(parsed.note, case.note);
    assert_eq!(parsed.profile, case.profile);
    assert_eq!(parsed.stream, case.stream);
    assert_eq!(parsed.digest, case.digest);
    // The parsed case regenerates the same design.
    assert_eq!(parsed.design().source, case.design().source);
}

/// What a design compiles and simulates to: the reference cell's matrix
/// digest and the VIF text of every unit, in compilation order.
fn fingerprint(d: &Design) -> (u64, String) {
    let out = run_matrix(d, None).expect("design elaborates");
    assert!(out.divergence.is_none(), "honest kernel must conform");
    let c = Compiler::in_memory();
    let r = c.compile(&d.source).expect("design parses");
    assert!(r.ok(), "design analyzes cleanly: {}", r.msgs());
    let work = c.libs.work();
    let vif = work
        .history()
        .iter()
        .map(|k| format!("{k}\n{}\n", work.raw(k).expect("stored unit")))
        .collect();
    (out.digest(), vif)
}

/// Every compiler on a thread shares that thread's principal AG,
/// expression AG and `STD.STANDARD`. None of them may carry state from
/// one design to the next: the same design gives the same matrix digest
/// and VIF text first thing on a fresh thread, after 20 other designs on
/// one thread, and on the test's own thread.
#[test]
fn designs_do_not_leak_into_each_other() {
    let design = |seed| gen_design(&mut Source::from_seed(seed), Profile::Small);
    let probe = design(7);
    let p = probe.clone();
    let fresh = std::thread::spawn(move || fingerprint(&p))
        .join()
        .expect("fresh thread");
    let p = probe.clone();
    let after_others = std::thread::spawn(move || {
        for seed in 100..120 {
            oracle::elaborate(&design(seed)).expect("other design elaborates");
        }
        fingerprint(&p)
    })
    .join()
    .expect("busy thread");
    let here = fingerprint(&probe);
    assert_eq!(fresh.0, after_others.0, "digest after 20 designs");
    assert_eq!(fresh.1, after_others.1, "VIF text after 20 designs");
    assert_eq!(fresh.0, here.0, "digest on the test thread");
    assert_eq!(fresh.1, here.1, "VIF text on the test thread");
}
