//! The generated inputs pass through the real pipeline and match the
//! model, for two different seeds, under both backends; and the checker
//! catches a wrong expectation.

use perfbench::gen::{self, Project};
use sim_kernel::{Backend, Simulator, Time};
use vhdl_driver::batch::BatchOptions;
use vhdl_driver::Compiler;

fn simulate(p: &Project, edges: u64) -> Vec<Vec<(String, Option<i64>)>> {
    let c = Compiler::in_memory();
    let files = p.files();
    let res = c.compile_batch(
        &files,
        BatchOptions {
            jobs: 2,
            incremental: true,
        },
    );
    let names: Vec<String> = files.iter().map(|f| f.0.clone()).collect();
    assert!(res.ok(), "{}", res.rendered_msgs(&names));
    let (program, _) = c.elaborate_config("cfg_tb").expect("elaborate");
    [Backend::Interp, Backend::Compiled]
        .into_iter()
        .map(|b| {
            let mut sim = Simulator::new(program.clone());
            sim.set_backend(b);
            sim.run_until(Time::fs(gen::time_after_edges(edges)))
                .expect("run");
            p.expect(edges)
                .into_iter()
                .map(|(n, _)| {
                    let v = sim
                        .value_by_name(&format!("tb.{n}"))
                        .and_then(|v| v.to_string().parse().ok());
                    (n, v)
                })
                .collect()
        })
        .collect()
}

fn check(p: &Project, edges: u64) {
    let expected = p.expect(edges);
    for got in simulate(p, edges) {
        let lookup = |n: &str| got.iter().find(|(g, _)| g == n).and_then(|(_, v)| *v);
        let errs = perfbench::compare_values("test", &expected, lookup);
        assert!(errs.is_empty(), "{errs:?}");
        let wrong = perfbench::checker_self_test(&expected, lookup);
        assert!(wrong.is_empty(), "{wrong:?}");
    }
}

#[test]
fn two_seeds_differ_and_both_match_the_model() {
    let a = Project::generate(gen::sub_seed(101, 0), gen::SMALL);
    let b = Project::generate(gen::sub_seed(102, 0), gen::SMALL);
    assert_ne!(a.files(), b.files());
    check(&a, 23);
    check(&b, 23);
}

#[test]
fn rtl_design_and_edits_match_the_model() {
    let mut p = Project::generate(gen::sub_seed(7, 1), gen::RTL);
    check(&p, 41);
    let mut rng = ag_harness::rng::Rng::new(3);
    p.edit(&mut rng, 0);
    p.edit(&mut rng, 1);
    check(&p, 17);
}

#[test]
fn a_wrong_expectation_is_reported() {
    let expected = vec![("q0".to_string(), 5), ("q1".to_string(), 6)];
    let exact = |n: &str| expected.iter().find(|(g, _)| g == n).map(|(_, v)| *v);
    assert!(perfbench::compare_values("t", &expected, exact).is_empty());
    assert!(perfbench::checker_self_test(&expected, exact).is_empty());
    let mut wrong = expected.clone();
    wrong[1].1 += 1;
    assert_eq!(perfbench::compare_values("t", &wrong, exact).len(), 1);
    // A missing value is a mismatch, not a pass.
    assert_eq!(perfbench::compare_values("t", &expected, |_| None).len(), 2);
}

#[test]
fn conform_designs_are_a_function_of_the_seed() {
    use ag_harness::prop::Source;
    use vhdl_conform::gen::{gen_design, Profile};
    let d = |seed| {
        gen_design(
            &mut Source::from_seed(gen::sub_seed(seed, 0)),
            Profile::Small,
        )
    };
    assert_eq!(d(5).source, d(5).source);
    assert_ne!(d(5).source, d(6).source);
}
