//! Mutation smoke tests: deliberately broken "solvers" must be flagged
//! by the solution oracle with the *correct* typed violation. A vacuous
//! oracle (one that accepts everything) would silently pass the rest of
//! the suite; these tests prove each seeded defect is caught.

use dsct_core::oracle::{self, Claims, SolutionOracle, Violation};
use dsct_core::schedule::Violation as Feas;
use dsct_core::solver::{FrOptSolver, Solution};
use dsct_core::staged::{StagedApproxSolver, StagedSolution, StagedViolation};
use dsct_workload::{
    generate_staged, DagShape, InstanceConfig, MachineConfig, StagedConfig, TaskConfig,
    ThetaDistribution,
};

fn instance() -> dsct_core::problem::Instance {
    let cfg = InstanceConfig {
        tasks: TaskConfig::paper(8, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(3),
        rho: 0.4,
        beta: 0.5,
    };
    dsct_workload::generate(&cfg, 7)
}

fn honest_solution(inst: &dsct_core::problem::Instance) -> Solution {
    Solution::from_fr(inst, FrOptSolver::new().solve_typed(inst))
}

fn violations(
    inst: &dsct_core::problem::Instance,
    sol: &Solution,
    claims: &Claims,
) -> Vec<Violation> {
    SolutionOracle::new()
        .verify(inst, sol, claims)
        .expect_err("the mutated solution must be rejected")
}

/// Mutant 1: a solver that "drops the last EDF prefix constraint" —
/// it extends the last task's time on its busiest machine past the
/// final deadline. The oracle must pinpoint `DeadlineExceeded` on that
/// machine (the bogus extra time also breaks agreement, which is fine;
/// the deadline violation is what this mutant seeds).
#[test]
fn dropped_last_edf_prefix_constraint_is_flagged() {
    let inst = instance();
    let mut sol = honest_solution(&inst);
    let last = inst.num_tasks() - 1;
    let busiest = (0..inst.num_machines())
        .max_by(|&a, &b| {
            sol.schedule
                .machine_load(a)
                .total_cmp(&sol.schedule.machine_load(b))
        })
        .expect("non-empty park");
    // Push the machine's completion 10% past the final (largest) deadline.
    let overshoot = inst.d_max() * 1.1 - sol.schedule.machine_load(busiest);
    *sol.schedule.t_mut(last, busiest) += overshoot;

    let vs = violations(
        &inst,
        &sol,
        &Claims::feasible(dsct_core::schedule::ScheduleKind::Fractional),
    );
    assert!(
        vs.iter().any(|v| matches!(
            v,
            Violation::Infeasible(Feas::DeadlineExceeded { machine, .. }) if *machine == busiest
        )),
        "expected DeadlineExceeded on machine {busiest}, got {vs:?}"
    );
}

/// Mutant 2: a solver that overspends the budget by 1% — every
/// processing time inflated by 1.01 on a budget-saturated optimum, with
/// the reported aggregates kept consistent so the *only* defect is the
/// budget overrun. The oracle must flag `BudgetExceeded`.
#[test]
fn one_percent_budget_overspend_is_flagged() {
    let inst = instance();
    // Tighten the budget so the optimum saturates it (β = 0.5 instances
    // always spend the whole budget; recheck to be safe).
    let sol = honest_solution(&inst);
    assert!(
        sol.energy > 0.9 * inst.budget(),
        "test premise: the optimum must (nearly) saturate the budget"
    );
    let mut cheat = sol.clone();
    for j in 0..inst.num_tasks() {
        for r in 0..inst.num_machines() {
            *cheat.schedule.t_mut(j, r) *= 1.01;
        }
    }
    // The cheating solver reports its aggregates truthfully — work,
    // accuracy, and energy all recomputed from the inflated schedule —
    // so agreement holds and only the budget constraint is broken.
    cheat.flops = (0..inst.num_tasks())
        .map(|j| cheat.schedule.flops(j, &inst))
        .collect();
    cheat.total_accuracy = cheat.schedule.total_accuracy(&inst);
    cheat.energy = cheat.schedule.energy(&inst);
    cheat.upper_bound = None;

    let vs = violations(
        &inst,
        &cheat,
        &Claims::feasible(dsct_core::schedule::ScheduleKind::Fractional),
    );
    assert!(
        vs.iter()
            .any(|v| matches!(v, Violation::Infeasible(Feas::BudgetExceeded { .. }))),
        "expected BudgetExceeded, got {vs:?}"
    );
    assert!(
        !vs.iter().any(|v| matches!(
            v,
            Violation::AccuracyMismatch { .. } | Violation::EnergyMismatch { .. }
        )),
        "agreement was kept consistent; only the budget may be flagged: {vs:?}"
    );
}

/// Mutant 3: a solver that inflates its reported accuracy without
/// touching the schedule. Feasibility holds; the oracle must flag the
/// agreement mismatch (and the exceeded self-certified upper bound).
#[test]
fn inflated_reported_accuracy_is_flagged() {
    let inst = instance();
    let mut sol = honest_solution(&inst);
    sol.total_accuracy += 0.05;

    let vs = violations(&inst, &sol, &Claims::fr_optimal());
    assert!(
        vs.iter()
            .any(|v| matches!(v, Violation::AccuracyMismatch { .. })),
        "expected AccuracyMismatch, got {vs:?}"
    );
}

/// Mutant 4: a solver claiming FR-optimality for a visibly improvable
/// schedule (everything scaled to half: half the budget unspent, every
/// marginal still positive). The oracle's KKT stationarity check must
/// fire.
#[test]
fn non_stationary_claimed_optimum_is_flagged() {
    let inst = instance();
    let mut sol = honest_solution(&inst);
    for j in 0..inst.num_tasks() {
        for r in 0..inst.num_machines() {
            *sol.schedule.t_mut(j, r) *= 0.5;
        }
    }
    sol.flops = (0..inst.num_tasks())
        .map(|j| sol.schedule.flops(j, &inst))
        .collect();
    sol.total_accuracy = sol.schedule.total_accuracy(&inst);
    sol.energy = sol.schedule.energy(&inst);
    sol.upper_bound = None;

    let vs = violations(&inst, &sol, &Claims::fr_optimal());
    assert!(
        vs.iter()
            .any(|v| matches!(v, Violation::KktNotStationary { .. })),
        "expected KktNotStationary, got {vs:?}"
    );
}

fn staged_instance() -> dsct_core::staged::StagedInstance {
    let cfg = StagedConfig {
        base: InstanceConfig {
            tasks: TaskConfig::paper(6, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
            machines: MachineConfig::paper_random(2),
            rho: 0.4,
            beta: 0.5,
        },
        shape: DagShape::Chain,
        depth: 3,
        extra_points: 2,
    };
    generate_staged(&cfg, 7).expect("valid staged config")
}

fn staged_violations(
    inst: &dsct_core::staged::StagedInstance,
    sol: &StagedSolution,
) -> Vec<StagedViolation> {
    oracle::verify_staged(inst, sol).expect_err("the mutated staged solution must be rejected")
}

/// Staged mutant A: a solver that violates a precedence edge — it moves
/// a successor stage's start to time zero while its predecessor is still
/// running. The staged oracle must pinpoint `PrecedenceViolated` on that
/// exact (task, stage, pred) triple.
#[test]
fn violated_precedence_edge_is_flagged() {
    let inst = staged_instance();
    let mut sol = StagedApproxSolver::unchecked().solve(&inst).unwrap();
    // Find a chained stage whose predecessor actually runs for a while.
    let (j, v, u) = (0..inst.num_tasks())
        .flat_map(|j| {
            let sched = &sol.schedule;
            inst.task(j)
                .stages
                .iter()
                .enumerate()
                .flat_map(move |(v, s)| s.preds.iter().map(move |&u| (j, v, u)))
                .filter(|&(j, _, u)| sched.placement(j, u).duration > 1e-6)
                .collect::<Vec<_>>()
        })
        .next()
        .expect("a β=0.5 chain instance runs some predecessor stage");
    sol.schedule.placement_mut(j, v).start = 0.0;
    // The work vector stays truthful, so the precedence breach is the
    // seeded defect (moving a start changes no duration, hence no work).
    let vs = staged_violations(&inst, &sol);
    assert!(
        vs.iter().any(|w| matches!(
            w,
            StagedViolation::PrecedenceViolated { task, stage, pred, .. }
                if *task == j && *stage == v && *pred == u
        )),
        "expected PrecedenceViolated on task {j} stage {v} pred {u}, got {vs:?}"
    );
    assert!(
        !vs.iter()
            .any(|w| matches!(w, StagedViolation::WorkMismatch { .. })),
        "the work vector stayed truthful; only timing may be flagged: {vs:?}"
    );
}

/// Staged mutant B: a solver that runs a stage at an operating point the
/// machine's catalog does not contain (an out-of-range index). The
/// staged oracle must flag `OffSelectedPoint` with the offending
/// indices.
#[test]
fn non_catalog_operating_point_is_flagged() {
    let inst = staged_instance();
    let mut sol = StagedApproxSolver::unchecked().solve(&inst).unwrap();
    // Pick a stage that actually runs, so the bogus point also matters.
    let (j, v) = (0..inst.num_tasks())
        .flat_map(|j| (0..inst.task(j).num_stages()).map(move |v| (j, v)))
        .find(|&(j, v)| sol.schedule.placement(j, v).duration > 1e-6)
        .expect("some stage runs");
    let machine = sol.schedule.placement(j, v).machine;
    let bogus = inst.park().get(machine).unwrap().num_points();
    sol.schedule.placement_mut(j, v).point = bogus;
    let vs = staged_violations(&inst, &sol);
    assert!(
        vs.iter().any(|w| matches!(
            w,
            StagedViolation::OffSelectedPoint { task, stage, point, .. }
                if *task == j && *stage == v && *point == bogus
        )),
        "expected OffSelectedPoint on task {j} stage {v} point {bogus}, got {vs:?}"
    );
}

/// Staged mutant C: a solver that stretches one running stage far past
/// its task's deadline and the whole budget. The projection onto the
/// lowered instance carries the task-level deadline and the budget, so
/// the flat oracle's verdicts come back wrapped in `Projected`.
#[test]
fn stretched_stage_overspends_the_projection() {
    let inst = staged_instance();
    let mut sol = StagedApproxSolver::unchecked().solve(&inst).unwrap();
    let (j, v) = running_stage(&inst, &sol);
    let p = sol.schedule.placement(j, v);
    let power = inst.park().get(p.machine).unwrap().selected().power();
    let d_max = inst.tasks().last().unwrap().deadline;
    sol.schedule.placement_mut(j, v).duration += d_max + inst.budget() / power;
    let vs = staged_violations(&inst, &sol);
    assert!(
        vs.iter().any(|w| matches!(
            w,
            StagedViolation::Projected(Violation::Infeasible(Feas::DeadlineExceeded {
                task,
                machine,
                ..
            })) if *task == j && *machine == p.machine
        )),
        "expected a projected deadline overflow on task {j} machine {}, got {vs:?}",
        p.machine
    );
    assert!(
        vs.iter().any(|w| matches!(
            w,
            StagedViolation::Projected(Violation::Infeasible(Feas::BudgetExceeded { .. }))
        )),
        "expected a projected budget overrun, got {vs:?}"
    );
}

/// Staged mutant D: a solver that runs a stage at a valid catalog point
/// the lowering did not select (a dominated one), keeping its work vector
/// truthful. The projection prices every placement at the selected point,
/// so the staged layer must flag the membership breach.
#[test]
fn dominated_catalog_point_is_flagged() {
    let inst = staged_instance();
    let mut sol = StagedApproxSolver::unchecked().solve(&inst).unwrap();
    let (j, v) = running_stage(&inst, &sol);
    let machine = sol.schedule.placement(j, v).machine;
    let dvfs = inst.park().get(machine).unwrap();
    let dominated = (0..dvfs.num_points())
        .find(|&p| p != dvfs.selected_index())
        .expect("the staged config adds dominated points");
    sol.schedule.placement_mut(j, v).point = dominated;
    sol.stage_work[j][v] = sol.schedule.work(&inst, j, v);
    let vs = staged_violations(&inst, &sol);
    assert!(
        vs.iter().any(|w| matches!(
            w,
            StagedViolation::OffSelectedPoint { task, stage, point, .. }
                if *task == j && *stage == v && *point == dominated
        )),
        "expected OffSelectedPoint on task {j} stage {v} point {dominated}, got {vs:?}"
    );
}

/// Staged mutant E: a solver that moves a task's second stage onto the
/// other machine, into the idle time after that machine's last placement
/// and inside the stage's own window, shortened so that neither its work
/// nor its energy grows. Every staged check still holds — the schedule
/// is feasible as timed stages — but the task now runs on two machines,
/// which the flat model's single assignment forbids.
#[test]
fn stage_moved_to_another_machine_is_a_split_task() {
    let inst = staged_instance();
    let mut sol = StagedApproxSolver::unchecked().solve(&inst).unwrap();
    let sched = &sol.schedule;
    // Where each machine's last placement ends.
    let busy_until: Vec<f64> = (0..inst.num_machines())
        .map(|r| {
            sched
                .placements()
                .iter()
                .flatten()
                .filter(|p| p.machine == r && p.duration > 1e-9)
                .map(|p| p.finish())
                .fold(0.0, f64::max)
        })
        .collect();
    let (j, to, start, duration) = (0..inst.num_tasks())
        .filter(|&j| inst.task(j).num_stages() > 1)
        .find_map(|j| {
            let p = sched.placement(j, 1);
            let (from, to) = (inst.park().get(p.machine)?.selected(), 1 - p.machine);
            let target = inst.park().get(to)?.selected();
            let start = p.start.max(busy_until[to]);
            let duration = (p.finish() - start)
                .min(p.duration * from.power() / target.power())
                .min(p.duration * from.speed() / target.speed());
            (duration > 0.5 * p.duration).then_some((j, to, start, duration))
        })
        .expect("some second stage ends after the other machine's last placement");
    let from = sol.schedule.placement(j, 1).machine;
    *sol.schedule.placement_mut(j, 1) = dsct_core::staged::StagePlacement {
        machine: to,
        point: inst.park().get(to).unwrap().selected_index(),
        start,
        duration,
    };
    sol.stage_work[j][1] = sol.schedule.work(&inst, j, 1);
    sol.schedule
        .validate(&inst)
        .unwrap_or_else(|vs| panic!("the moved stage must stay feasible as a timed stage: {vs:?}"));
    let vs = staged_violations(&inst, &sol);
    let mut machines = vec![from, to];
    machines.sort_unstable();
    assert_eq!(
        vs,
        vec![StagedViolation::Projected(Violation::Infeasible(
            Feas::SplitTask { task: j, machines }
        ))],
        "expected only the projected single-assignment breach on task {j}"
    );
}

/// The first stage of the staged instance's solution that runs for a
/// while.
fn running_stage(inst: &dsct_core::staged::StagedInstance, sol: &StagedSolution) -> (usize, usize) {
    (0..inst.num_tasks())
        .flat_map(|j| (0..inst.task(j).num_stages()).map(move |v| (j, v)))
        .find(|&(j, v)| sol.schedule.placement(j, v).duration > 1e-6)
        .expect("some stage runs")
}

/// Mutant 5: an "approximation" whose certified fractional upper bound
/// is far above what it achieved — beyond the paper's guarantee `G`.
/// The oracle must flag the broken guarantee.
#[test]
fn broken_approximation_guarantee_is_flagged() {
    // `G = m(a^max − a^min)(1 + ln(θ_max/θ_min))` does not grow with n,
    // so a large generous instance makes the achievable gap dwarf it.
    let cfg = InstanceConfig {
        tasks: TaskConfig::paper(40, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(2),
        rho: 1.0,
        beta: 1.0,
    };
    let inst = dsct_workload::generate(&cfg, 11);
    let fr = honest_solution(&inst);
    // An integral all-zero schedule achieving only the floor accuracy,
    // yet certifying the true fractional optimum as its upper bound.
    let schedule =
        dsct_core::schedule::FractionalSchedule::zero(inst.num_tasks(), inst.num_machines());
    let total_accuracy = schedule.total_accuracy(&inst);
    let lazy = Solution {
        flops: vec![0.0; inst.num_tasks()],
        assignment: vec![None; inst.num_tasks()],
        integral: true,
        total_accuracy,
        energy: 0.0,
        upper_bound: Some(fr.total_accuracy),
        stats: Default::default(),
        schedule,
    };
    // Only meaningful when the gap actually exceeds G; the β = 0.5,
    // n = 8 instance used here has a gap well above it.
    let vs = violations(&inst, &lazy, &Claims::approx());
    assert!(
        vs.iter()
            .any(|v| matches!(v, Violation::GuaranteeViolated { .. })),
        "expected GuaranteeViolated, got {vs:?}"
    );
}
