//! End-to-end smoke tests of every experiment driver at quick scale,
//! asserting the paper's qualitative claims hold on each.

use dsct_sim::experiments::{fig1, fig2, fig3, fig4, fig5, fig6, table1};

#[test]
fn fig1_trend_is_positive_and_renders() {
    let r = fig1::run();
    assert!(r.trend_slope > 0.0);
    let text = fig1::render(&r);
    assert!(text.contains("Trend"));
    assert!(fig1::table(&r).to_csv().lines().count() > 10);
}

#[test]
fn fig2_fit_is_tight_and_concave() {
    let r = fig2::run(&fig2::Fig2Config::default());
    assert!(r.max_fit_error < 0.04);
    for w in r.points.windows(2) {
        assert!(
            w[1].pwl >= w[0].pwl - 1e-12,
            "pwl curve must be non-decreasing"
        );
    }
    assert!(fig2::render(&r).contains("breakpoints"));
}

#[test]
fn fig3_gap_far_below_guarantee() {
    let r = fig3::run(&fig3::Fig3Config::quick(), 0);
    for p in &r.points {
        assert!(
            p.gap.max() < p.guarantee_per_task / 2.0,
            "mu {}: observed gap {} not far below G/n {}",
            p.mu,
            p.gap.max(),
            p.guarantee_per_task
        );
    }
    assert!(fig3::render(&r).contains("pessimistic"));
}

#[test]
fn fig4_approx_scales_and_mip_does_not() {
    let r = fig4::run(&fig4::Fig4Config::quick());
    // The approximation's largest size stays fast; the MIP was only even
    // attempted at small sizes.
    let largest = r.by_tasks.last().expect("non-empty");
    assert!(largest.approx_time.mean() < 5.0);
    assert!(!largest.mip_attempted);
    let smallest = r.by_tasks.first().expect("non-empty");
    assert!(smallest.mip_attempted);
    // Where both ran, the approximation is faster on average.
    assert!(
        smallest.approx_time.mean() <= smallest.mip_time.mean(),
        "approx {} vs mip {}",
        smallest.approx_time.mean(),
        smallest.mip_time.mean()
    );
    assert!(fig4::render(&r).contains("(a) runtime"));
}

#[test]
fn table1_combinatorial_beats_simplex() {
    let r = table1::run(&table1::Table1Config::quick());
    for row in &r.rows {
        assert!(
            row.fr_opt_time.mean() < row.lp_time.mean(),
            "n {}: FR-OPT {} not faster than simplex {}",
            row.n,
            row.fr_opt_time.mean(),
            row.lp_time.mean()
        );
        assert!(
            row.max_rel_gap < 5e-4,
            "optimal values disagree: {}",
            row.max_rel_gap
        );
    }
}

#[test]
fn fig5_ordering_and_energy_gain() {
    let r = fig5::run(&fig5::Fig5Config::quick(), 0);
    // APPROX dominates both baselines at every β (within noise).
    for p in &r.points {
        assert!(
            p.approx.mean() >= p.edf_full.mean() - 0.02,
            "beta {}",
            p.beta
        );
        assert!(
            p.approx.mean() >= p.edf_levels.mean() - 0.02,
            "beta {}",
            p.beta
        );
        assert!(p.upper_bound.mean() >= p.approx.mean() - 1e-9);
    }
    // The headline: large energy savings at small accuracy loss.
    let gain = r.energy_gain.expect("reference reached");
    assert!(
        gain.energy_saved >= 0.5,
        "energy saved {}",
        gain.energy_saved
    );
    assert!(gain.accuracy_loss <= r.config.gain_tolerance + 1e-9);
}

#[test]
fn fig6_split_scenario_deviates_from_naive() {
    let uni = fig6::run(
        &fig6::Fig6Config::quick(fig6::Fig6Scenario::UniformTasks),
        0,
    );
    let split = fig6::run(
        &fig6::Fig6Config::quick(fig6::Fig6Scenario::EarliestHighEfficient),
        0,
    );
    assert!(split.mean_profile_deviation > uni.mean_profile_deviation);
    // In the split scenario at small β the less-efficient machine must
    // pick up work the naive profile denies it.
    let small_beta = &split.points[0];
    assert!(
        small_beta.p2.mean() > small_beta.naive_p2.mean() + 1e-3,
        "final p2 {} vs naive {}",
        small_beta.p2.mean(),
        small_beta.naive_p2.mean()
    );
}
