//! Metamorphic properties of the solvers: known-answer tests are scarce
//! for DSCT-EA, but *relations between instances* are exact. Each
//! relation transforms a randomized instance in a way with a provable
//! effect on the optimum, solves both sides, and routes every solution
//! through the solution oracle ([`dsct_core::oracle`]) so a passing
//! relation also certifies feasibility, agreement, and stationarity.
//!
//! Relations (each over ≥ 24 seeded instances):
//! 1. powers × c and budget × c — identical feasible set, value equal;
//! 2. speeds × c with the work axis scaled by c — time and energy of
//!    every schedule unchanged, value equal;
//! 3. adding a machine — never decreases the FR-OPT value;
//! 4. tightening the budget — never increases the FR-OPT value;
//! 5. relabeling equal-deadline tasks — value invariant under
//!    permutation.
//!
//! Staged relations (DESIGN §17):
//! 6. chain-collapse — a chain-DAG instance built by equal-splitting
//!    each flat curve lowers back to the flat instance; the staged
//!    solver must agree with the flat solver to ≤ 1e-9 (proptest over
//!    24 generated shapes plus a bit-exact seeded sweep);
//! 7. stage-splitting never improves the optimum — the staged solution
//!    stays below the flat instance's fractional bound;
//! 8. dominated operating points are inert — adding them changes no
//!    solution bit.

use dsct_core::oracle::{self, Claims};
use dsct_core::problem::{Instance, Task};
use dsct_core::solver::{ApproxSolver, FrOptSolver, Solution, Solver};
use dsct_core::staged::{StagedApproxSolver, StagedInstance};
use dsct_machines::{Machine, MachinePark};
use dsct_workload::{
    generate_staged, DagShape, InstanceConfig, MachineConfig, StagedConfig, TaskConfig,
    ThetaDistribution,
};
use proptest::prelude::*;

const SEEDS: std::ops::Range<u64> = 0..24;

fn base_config() -> InstanceConfig {
    InstanceConfig {
        tasks: TaskConfig::paper(12, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(3),
        rho: 0.4,
        beta: 0.5,
    }
}

fn base_instance(seed: u64) -> Instance {
    dsct_workload::generate(&base_config(), seed)
}

/// Solves FR-OPT and pushes the solution through the oracle with the
/// full fractional-optimum claims (feasibility + agreement + KKT).
fn solve_fr_checked(inst: &Instance, label: &str) -> Solution {
    let sol = Solution::from_fr(inst, FrOptSolver::new().solve_typed(inst));
    oracle::enforce(inst, &sol, &Claims::fr_optimal(), label);
    sol
}

fn rebuild(tasks: Vec<Task>, machines: Vec<Machine>, budget: f64) -> Instance {
    Instance::new_sorting(tasks, MachinePark::new(machines), budget)
        .expect("transformed instance stays valid")
}

fn value_scale(inst: &Instance) -> f64 {
    inst.total_max_accuracy().max(1.0)
}

/// Relation 1: multiplying every machine power *and* the budget by `c`
/// rescales both sides of `Σ_r P_r·t_{jr} ≤ B` identically, so the
/// feasible set — and therefore the optimum — is unchanged.
#[test]
fn scaling_powers_and_budget_leaves_the_optimum_unchanged() {
    for seed in SEEDS {
        let inst = base_instance(seed);
        let c = 2.0; // power of two: the rescaling is exact in f64
        let scaled = rebuild(
            inst.tasks().to_vec(),
            inst.machines()
                .machines()
                .iter()
                .map(|m| Machine::new(m.speed(), m.power() * c).expect("valid machine"))
                .collect(),
            inst.budget() * c,
        );
        let a = solve_fr_checked(&inst, "metamorphic/power-scale/base");
        let b = solve_fr_checked(&scaled, "metamorphic/power-scale/scaled");
        let tol = 1e-6 * value_scale(&inst);
        assert!(
            (a.total_accuracy - b.total_accuracy).abs() <= tol,
            "seed {seed}: power/budget scaling moved the optimum: {} vs {}",
            a.total_accuracy,
            b.total_accuracy,
        );
    }
}

/// Relation 2: multiplying every speed by `c` while stretching each
/// task's work axis by `c` (via [`dsct_accuracy::PwlAccuracy::scale_f`])
/// maps schedules one-to-one with identical times, energies, and
/// accuracies — the optimum is unchanged.
#[test]
fn scaling_speeds_and_work_axis_leaves_the_optimum_unchanged() {
    for seed in SEEDS {
        let inst = base_instance(seed);
        let c = 2.0;
        let scaled = rebuild(
            inst.tasks()
                .iter()
                .map(|t| Task::new(t.deadline, t.accuracy.scale_f(c).expect("positive factor")))
                .collect(),
            inst.machines()
                .machines()
                .iter()
                .map(|m| Machine::new(m.speed() * c, m.power()).expect("valid machine"))
                .collect(),
            inst.budget(),
        );
        let a = solve_fr_checked(&inst, "metamorphic/speed-scale/base");
        let b = solve_fr_checked(&scaled, "metamorphic/speed-scale/scaled");
        let tol = 1e-6 * value_scale(&inst);
        assert!(
            (a.total_accuracy - b.total_accuracy).abs() <= tol,
            "seed {seed}: speed/work scaling moved the optimum: {} vs {}",
            a.total_accuracy,
            b.total_accuracy,
        );
    }
}

/// Relation 3: adding a machine only enlarges the feasible set (the old
/// schedule assigns the new machine nothing), so the FR-OPT value never
/// decreases.
#[test]
fn adding_a_machine_never_decreases_the_optimum() {
    for seed in SEEDS {
        let inst = base_instance(seed);
        let mut machines = inst.machines().machines().to_vec();
        // A mid-range paper machine; any valid machine works.
        machines.push(Machine::new(5000.0, 100.0).expect("valid machine"));
        let bigger = rebuild(inst.tasks().to_vec(), machines, inst.budget());
        let a = solve_fr_checked(&inst, "metamorphic/add-machine/base");
        let b = solve_fr_checked(&bigger, "metamorphic/add-machine/bigger");
        let tol = 1e-6 * value_scale(&inst);
        assert!(
            b.total_accuracy >= a.total_accuracy - tol,
            "seed {seed}: adding a machine lowered the optimum: {} -> {}",
            a.total_accuracy,
            b.total_accuracy,
        );
    }
}

/// Relation 4: shrinking the budget only shrinks the feasible set, so
/// the FR-OPT value never increases.
#[test]
fn tightening_the_budget_never_increases_the_optimum() {
    for seed in SEEDS {
        let inst = base_instance(seed);
        let tighter = inst
            .with_budget(inst.budget() * 0.5)
            .expect("halved budget stays valid");
        let a = solve_fr_checked(&inst, "metamorphic/tighten-budget/base");
        let b = solve_fr_checked(&tighter, "metamorphic/tighten-budget/tighter");
        let tol = 1e-6 * value_scale(&inst);
        assert!(
            b.total_accuracy <= a.total_accuracy + tol,
            "seed {seed}: tightening the budget raised the optimum: {} -> {}",
            a.total_accuracy,
            b.total_accuracy,
        );
    }
}

/// Relation 5: with all deadlines equal, task order is pure labeling —
/// reversing it (and re-sorting through [`Instance::new_sorting`], a
/// stable sort) must not move the optimum.
#[test]
fn relabeling_equal_deadline_tasks_leaves_the_optimum_unchanged() {
    for seed in SEEDS {
        let inst = base_instance(seed);
        let d = inst.d_max();
        let equalized: Vec<Task> = inst
            .tasks()
            .iter()
            .map(|t| Task::new(d, t.accuracy.clone()))
            .collect();
        let mut reversed = equalized.clone();
        reversed.reverse();
        let a = rebuild(
            equalized,
            inst.machines().machines().to_vec(),
            inst.budget(),
        );
        let b = rebuild(reversed, inst.machines().machines().to_vec(), inst.budget());
        let sa = solve_fr_checked(&a, "metamorphic/relabel/forward");
        let sb = solve_fr_checked(&b, "metamorphic/relabel/reversed");
        let tol = 1e-6 * value_scale(&a);
        assert!(
            (sa.total_accuracy - sb.total_accuracy).abs() <= tol,
            "seed {seed}: relabeling equal-deadline tasks moved the optimum: {} vs {}",
            sa.total_accuracy,
            sb.total_accuracy,
        );
    }
}

fn staged_config(n: usize, m: usize, depth: usize, extra_points: usize) -> StagedConfig {
    StagedConfig {
        base: InstanceConfig {
            tasks: TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
            machines: MachineConfig::paper_random(m),
            rho: 0.4,
            beta: 0.5,
        },
        shape: DagShape::Chain,
        depth,
        extra_points,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Relation 6 (proptest): collapsing any generated chain DAG to its
    /// flat equivalent agrees with the flat-model solver to ≤ 1e-9.
    /// The chain is built by equal-splitting each flat curve, so the
    /// min-rule lowering recomposes the flat instance; the staged solve
    /// (oracle-enforced via `checked()`) must land on the same value,
    /// energy, and per-task work as the flat `ApproxSolver`.
    #[test]
    fn chain_collapse_agrees_with_the_flat_solver(
        n in 2usize..16,
        m in 1usize..4,
        depth in 1usize..5,
        extra in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let cfg = staged_config(n, m, depth, extra);
        let staged = generate_staged(&cfg, seed).expect("valid staged config");
        let flat = dsct_workload::generate(&cfg.base, seed);
        let staged_sol = StagedApproxSolver::checked().solve(&staged).unwrap();
        let flat_sol = Solver::solve(&ApproxSolver::new(), &flat).unwrap();
        prop_assert!(
            (staged_sol.total_accuracy(&staged) - flat_sol.total_accuracy).abs() <= 1e-9,
            "collapse drift: staged {} vs flat {}",
            staged_sol.total_accuracy(&staged), flat_sol.total_accuracy
        );
        prop_assert!(
            (staged_sol.energy(&staged) - flat_sol.energy).abs() <= 1e-9 * (1.0 + flat.budget()),
            "energy drift: staged {} vs flat {}", staged_sol.energy(&staged), flat_sol.energy
        );
        for j in 0..flat.num_tasks() {
            let staged_work: f64 = staged_sol.stage_work[j].iter().sum();
            let cap = flat.task(j).accuracy.f_max();
            prop_assert!(
                (staged_work - flat_sol.flops[j]).abs() <= 1e-9 * (1.0 + cap),
                "task {j} work drift: staged {} vs flat {}",
                staged_work, flat_sol.flops[j]
            );
        }
    }
}

/// Relation 6 (bit-exact corner): at depth 1 the staged pipeline *is*
/// the flat pipeline — same curves, same machines — so the embedded flat
/// solution must match the flat solver bit for bit, seed by seed.
#[test]
fn single_stage_collapse_reproduces_the_flat_solution_bit_for_bit() {
    for seed in SEEDS {
        let cfg = staged_config(10, 3, 1, 2);
        let staged = generate_staged(&cfg, seed).expect("valid staged config");
        let flat = dsct_workload::generate(&cfg.base, seed);
        assert_eq!(
            staged.lowered().unwrap(),
            flat,
            "seed {seed}: lowering drifted"
        );
        let staged_sol = StagedApproxSolver::checked().solve(&staged).unwrap();
        let flat_sol = Solver::solve(&ApproxSolver::new(), &flat).unwrap();
        assert_eq!(
            staged_sol.total_accuracy(&staged).to_bits(),
            flat_sol.total_accuracy.to_bits(),
            "seed {seed}: accuracy drifted"
        );
        assert_eq!(
            staged_sol.energy(&staged).to_bits(),
            flat_sol.energy.to_bits(),
            "seed {seed}: energy drifted"
        );
        for j in 0..flat.num_tasks() {
            assert_eq!(
                staged_sol.stage_work[j][0].to_bits(),
                flat_sol.flops[j].to_bits(),
                "seed {seed} task {j}: work drifted"
            );
        }
    }
}

/// Relation 7: splitting tasks into stages never improves the optimum —
/// any staged schedule restricted to the selected operating points
/// induces a feasible flat schedule of the lowered instance, so the
/// lowered FR-OPT value is an upper bound on the staged solution.
#[test]
fn stage_splitting_never_improves_the_optimum() {
    for seed in SEEDS {
        for depth in [2usize, 3, 4] {
            let cfg = staged_config(10, 2, depth, 1);
            let staged = generate_staged(&cfg, seed).expect("valid staged config");
            let lowered = staged.lowered().unwrap();
            let staged_sol = StagedApproxSolver::checked().solve(&staged).unwrap();
            let fr = solve_fr_checked(&lowered, "metamorphic/stage-split/fr");
            let tol = 1e-6 * value_scale(&lowered);
            assert!(
                staged_sol.total_accuracy(&staged) <= fr.total_accuracy + tol,
                "seed {seed} depth {depth}: staged {} beats the fractional bound {}",
                staged_sol.total_accuracy(&staged),
                fr.total_accuracy,
            );
        }
    }
}

/// Relation 8: adding a dominated operating point (slower and less
/// efficient than an existing one) can never change the solution —
/// selection ignores it, so every solution bit is identical.
#[test]
fn adding_a_dominated_operating_point_changes_nothing() {
    for seed in SEEDS {
        let lean_cfg = staged_config(8, 2, 2, 0);
        let fat_cfg = staged_config(8, 2, 2, 3);
        let lean = generate_staged(&lean_cfg, seed).expect("valid staged config");
        let fat = generate_staged(&fat_cfg, seed).expect("valid staged config");
        // Same tasks, same budget; only the (dominated) catalogs differ.
        assert_eq!(lean.tasks(), fat.tasks(), "seed {seed}: tasks drifted");
        assert_eq!(
            StagedInstance::from_flat(&lean.lowered().unwrap())
                .lowered()
                .unwrap(),
            StagedInstance::from_flat(&fat.lowered().unwrap())
                .lowered()
                .unwrap(),
            "seed {seed}: dominated points leaked into the lowering"
        );
        let a = StagedApproxSolver::checked().solve(&lean).unwrap();
        let b = StagedApproxSolver::checked().solve(&fat).unwrap();
        assert_eq!(
            a.total_accuracy(&lean).to_bits(),
            b.total_accuracy(&fat).to_bits(),
            "seed {seed}: accuracy changed"
        );
        assert_eq!(
            a.energy(&lean).to_bits(),
            b.energy(&fat).to_bits(),
            "seed {seed}: energy changed"
        );
        assert_eq!(
            a.stage_work, b.stage_work,
            "seed {seed}: work vectors changed"
        );
        assert_eq!(a.schedule.placements().len(), b.schedule.placements().len());
        for (pa, pb) in a.schedule.placements().iter().zip(b.schedule.placements()) {
            for (x, y) in pa.iter().zip(pb) {
                assert_eq!((x.machine, x.point), (y.machine, y.point), "seed {seed}");
                assert_eq!(x.start.to_bits(), y.start.to_bits(), "seed {seed}");
                assert_eq!(x.duration.to_bits(), y.duration.to_bits(), "seed {seed}");
            }
        }
    }
}

/// The integral approximation also survives every transformed instance:
/// feasibility plus the paper's guarantee `G` against its own fractional
/// upper bound, for every seed (oracle-enforced).
#[test]
fn approx_solutions_pass_the_oracle_on_transformed_instances() {
    for seed in SEEDS {
        let inst = base_instance(seed);
        let tighter = inst
            .with_budget(inst.budget() * 0.5)
            .expect("halved budget stays valid");
        for (label, i) in [
            ("metamorphic/approx/base", &inst),
            ("metamorphic/approx/tight", &tighter),
        ] {
            let sol = Solution::from_approx(i, ApproxSolver::new().solve_typed(i));
            oracle::enforce(i, &sol, &Claims::approx(), label);
        }
    }
}
