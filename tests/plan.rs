//! One cell plan: a union of experiments renders exactly what each
//! experiment renders alone, and runs each shared cell once.

use harness::experiments::{bound, fig3, fig8, fig9, table3, table4};
use harness::{run_plan, ExpConfig, Experiment};

fn cfg() -> ExpConfig {
    ExpConfig {
        scale: 0.25,
        ..ExpConfig::quick()
    }
}

/// Run `union` as one plan and check every report and the run count
/// against one-experiment plans.
fn check_union(union: &[Experiment]) {
    let cfg = cfg();
    let results = run_plan(union, &cfg, 2);
    let mut parts = 0;
    for exp in union {
        let alone = run_plan(&[*exp], &cfg, 2);
        parts += alone.runs();
        assert_eq!(
            (exp.render)(&cfg, &results),
            (exp.render)(&cfg, &alone),
            "{}: the union plan rendered a different report",
            exp.name
        );
        assert_eq!(
            (exp.render)(&cfg, &alone),
            exp.run(&cfg, 1),
            "{}: run() is the one-experiment plan",
            exp.name
        );
    }
    assert!(
        results.runs() < parts,
        "union ran {} cells, its parts {parts}",
        results.runs()
    );
    assert!(results.runs() <= results.declared());
}

#[test]
fn table4_shares_table3s_cells() {
    check_union(&[table3::EXPERIMENT, table4::EXPERIMENT]);
    let cfg = cfg();
    let t3 = run_plan(&[table3::EXPERIMENT], &cfg, 2);
    let both = run_plan(&[table3::EXPERIMENT, table4::EXPERIMENT], &cfg, 2);
    assert_eq!(both.runs(), t3.runs(), "table4 adds no cells");
}

#[test]
fn figures_share_baseline_and_cppe_cells() {
    check_union(&[
        fig3::EXPERIMENT,
        fig8::EXPERIMENT,
        fig9::EXPERIMENT,
        bound::EXPERIMENT,
    ]);
}
