//! Cross-crate contracts of the online arrival-driven service
//! (`dsct-online`):
//!
//! 1. **Regret** — with zero runtime jitter, the realized total accuracy
//!    of any online replay never exceeds the FR-OPT optimum of the
//!    trace's clairvoyant instance (all tasks known at `t = 0` with
//!    their absolute deadlines). The online schedule is feasible for
//!    that instance — per machine, committed dispatches run
//!    back-to-back before their absolute deadlines — and FR-OPT
//!    relaxes release times, so the bound is structural.
//! 2. **Determinism** — replaying the same trace yields byte-identical
//!    summaries run-over-run and regardless of the solver-parallelism
//!    knob.
//! 3. **Degenerate arrivals** — a trace with every task arriving at
//!    `t = 0` reproduces the offline `ApproxSolver` solution
//!    bit-exactly (work, assignment, accuracy, energy).

use dsct_core::solver::{ApproxSolver, FrOptSolver, SolverContext};
use dsct_online::{replay, AdmissionPolicy, OnlineConfig, ReplanStrategy, ReplayConfig};
use dsct_workload::{
    generate, generate_arrivals, ArrivalConfig, ArrivalTrace, InstanceConfig, MachineConfig,
    TaskConfig, ThetaDistribution,
};

fn arrival_config(n: usize, load: f64) -> ArrivalConfig {
    ArrivalConfig {
        tasks: TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(3),
        load,
        deadline_slack: 2.0,
        beta: 0.5,
    }
}

#[test]
fn online_accuracy_never_beats_the_clairvoyant_fr_opt_bound() {
    let mut ctx = SolverContext::new();
    let policies = [
        AdmissionPolicy::AdmitAll,
        AdmissionPolicy::RejectIfInfeasible,
        AdmissionPolicy::DegradeToFit,
    ];
    for (t, &load) in [0.3, 1.0, 2.5].iter().enumerate() {
        for seed in 0..24u64 {
            let trace = generate_arrivals(&arrival_config(24, load), 1000 * t as u64 + seed)
                .expect("valid config");
            let bound = FrOptSolver::new()
                .solve_typed_with(&trace.clairvoyant_instance(), &mut ctx)
                .total_accuracy;
            // Cycle policies and replan strategies across seeds so every
            // combination sees several traces per load factor.
            let cfg = OnlineConfig {
                policy: policies[(seed % 3) as usize],
                replan: if seed % 2 == 0 {
                    ReplanStrategy::WarmStart
                } else {
                    ReplanStrategy::Cold
                },
                ..OnlineConfig::default()
            };
            let rcfg = ReplayConfig {
                online: cfg,
                ..ReplayConfig::default()
            };
            let report = replay(&trace, &rcfg).expect("zero jitter is valid");
            assert!(
                report.summary.total_accuracy <= bound + 1e-6,
                "load {load} seed {seed} {:?}/{:?}: online {} > clairvoyant bound {}",
                cfg.policy,
                cfg.replan,
                report.summary.total_accuracy,
                bound
            );
            assert!(
                report.summary.spent_energy <= trace.budget + 1e-6,
                "load {load} seed {seed}: spent {} over budget {}",
                report.summary.spent_energy,
                trace.budget
            );
        }
    }
}

#[test]
fn replays_are_byte_identical_across_runs() {
    for load in [0.5, 1.5] {
        let trace = generate_arrivals(&arrival_config(40, load), 99).expect("valid config");
        let render = || {
            let cfg = ReplayConfig {
                online: OnlineConfig {
                    policy: AdmissionPolicy::DegradeToFit,
                    ..OnlineConfig::default()
                },
                ..ReplayConfig::default()
            };
            let report = replay(&trace, &cfg).expect("zero jitter is valid");
            format!("{:?}|{:?}", report.summary, report.decisions)
        };
        assert_eq!(
            render(),
            render(),
            "load {load}: summaries must be byte-identical across repeated runs"
        );
    }
}

#[test]
fn degenerate_all_at_zero_trace_reproduces_offline_approx_bit_exactly() {
    for seed in [7u64, 21, 84] {
        let icfg = InstanceConfig {
            tasks: TaskConfig::paper(30, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
            machines: MachineConfig::paper_random(3),
            rho: 0.25,
            beta: 0.5,
        };
        let inst = generate(&icfg, seed);
        let offline = ApproxSolver::new().solve_typed(&inst);
        let trace = ArrivalTrace::degenerate(&inst);
        let report = replay(&trace, &ReplayConfig::default()).expect("zero jitter is valid");

        assert_eq!(
            report.summary.solves, 1,
            "seed {seed}: a same-timestamp batch must cost exactly one solve"
        );
        assert_eq!(
            report.summary.total_accuracy, offline.total_accuracy,
            "seed {seed}: realized accuracy must equal the offline \
             ApproxSolver objective bit-exactly"
        );
        // Per-task: same machine, same work, same accuracy — bit for bit.
        for j in 0..inst.num_tasks() {
            let outcome = &report.trace.tasks[j];
            assert_eq!(
                outcome.machine, offline.assignment[j],
                "seed {seed} task {j}: assignment differs"
            );
            assert_eq!(
                outcome.work,
                offline.schedule.flops(j, &inst),
                "seed {seed} task {j}: work differs"
            );
            assert_eq!(
                outcome.accuracy,
                offline.schedule.accuracy(j, &inst),
                "seed {seed} task {j}: accuracy differs"
            );
        }
        // Realized energy equals the integral schedule's planned energy
        // (zero jitter ⇒ actual = planned) and stays within budget.
        let planned_energy = offline.schedule.energy(&inst);
        assert!(
            (report.summary.spent_energy - planned_energy).abs() < 1e-9,
            "seed {seed}: spent {} != planned {}",
            report.summary.spent_energy,
            planned_energy
        );
    }
}

#[test]
fn warm_and_cold_replans_agree_on_decisions_and_accuracy() {
    for load in [0.4, 1.2] {
        let trace = generate_arrivals(&arrival_config(36, load), 5150).expect("valid config");
        let run = |replan: ReplanStrategy| {
            let cfg = ReplayConfig {
                online: OnlineConfig {
                    policy: AdmissionPolicy::DegradeToFit,
                    replan,
                    ..OnlineConfig::default()
                },
                ..ReplayConfig::default()
            };
            replay(&trace, &cfg).expect("zero jitter is valid")
        };
        let warm = run(ReplanStrategy::WarmStart);
        let cold = run(ReplanStrategy::Cold);
        assert_eq!(
            warm.decisions, cold.decisions,
            "load {load}: warm-started and cold replans must admit identically"
        );
        // The profile search is a local descent, so warm and cold paths
        // may settle on different near-equal optima; the values must
        // stay within a small relative band of each other.
        let tol = 1e-2 * cold.summary.total_accuracy.abs().max(1.0);
        assert!(
            (warm.summary.total_accuracy - cold.summary.total_accuracy).abs() <= tol,
            "load {load}: warm {} vs cold {} accuracy",
            warm.summary.total_accuracy,
            cold.summary.total_accuracy
        );
    }
}

#[test]
fn jitter_feeds_back_into_the_ledger() {
    let trace = generate_arrivals(&arrival_config(30, 1.0), 31337).expect("valid config");
    let run = |jitter: f64| {
        let cfg = ReplayConfig {
            online: OnlineConfig {
                speed_jitter: jitter,
                jitter_seed: 7,
                ..OnlineConfig::default()
            },
            ..ReplayConfig::default()
        };
        replay(&trace, &cfg).expect("valid jitter")
    };
    let calm = run(0.0);
    // Zero jitter: planned committed energy settles to exactly what is
    // spent, and nothing stays committed at the end.
    assert!((calm.ledger.spent() - calm.summary.committed_energy).abs() < 1e-9);
    assert_eq!(calm.ledger.committed(), 0.0);

    let noisy = run(0.3);
    // Under jitter, actuals deviate from plans — the ledger must have
    // recorded a real difference between committed and settled energy.
    assert!(
        (noisy.ledger.spent() - noisy.summary.committed_energy).abs() > 1e-9,
        "30% jitter should make actual energy differ from planned"
    );
    // And the run is still reproducible.
    let again = run(0.3);
    assert_eq!(
        format!("{:?}", noisy.summary),
        format!("{:?}", again.summary)
    );
}
