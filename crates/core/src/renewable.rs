//! Extension (the paper's stated future work, §7): scheduling against a
//! **time-varying energy supply** — e.g. renewable generation — instead of
//! a single budget.
//!
//! Energy arrives over time as a non-decreasing cumulative availability
//! curve `E(t)`. In the paper's EDF prefix formulation, the energy
//! consumed on tasks `1..=j` is spent no later than `d_j`, so the natural
//! windowed generalization of constraint (1f) is
//!
//! `Σ_r P_r · Σ_{i≤j} t_ir ≤ E(d_j)` for every task `j`.
//!
//! With a constant `E(t) = B` this degenerates to the original DSCT-EA
//! (only the last constraint binds), which the tests verify. The
//! fractional relaxation stays a linear program; this module builds and
//! solves it through [`dsct_lp`] and rounds the solution with the paper's
//! Algorithm 5 list scheduling, giving the same `OPT − G ≤ SOL` guarantee
//! relative to the windowed fractional optimum.

use crate::approx::{approx_from_fractional, ApproxSolution};
use crate::fr_opt::FrSolution;
use crate::lp_model::build_fr_lp;
use crate::problem::Instance;
use crate::profile::EnergyProfile;
use crate::schedule::FractionalSchedule;
use dsct_lp::{Cmp, SolveOptions, Status, Var};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from the renewable extension.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum RenewableError {
    /// The supply curve is empty, unsorted, decreasing, or non-finite.
    InvalidSupply(&'static str),
    /// The underlying LP failed (malformed model).
    Lp(dsct_lp::LpError),
    /// The LP terminated without an optimum (limits hit).
    NotSolved(Status),
}

impl fmt::Display for RenewableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenewableError::InvalidSupply(why) => write!(f, "invalid energy supply: {why}"),
            RenewableError::Lp(e) => write!(f, "LP error: {e}"),
            RenewableError::NotSolved(s) => write!(f, "LP terminated with {s:?}"),
        }
    }
}

impl std::error::Error for RenewableError {}

impl From<dsct_lp::LpError> for RenewableError {
    fn from(e: dsct_lp::LpError) -> Self {
        RenewableError::Lp(e)
    }
}

/// A non-decreasing cumulative energy-availability curve `E(t)` in joules,
/// piecewise linear between anchor points and flat after the last one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergySupply {
    /// `(time s, cumulative joules)` anchors, strictly increasing in time,
    /// non-decreasing in energy. An implicit anchor `(0, first_energy)`
    /// fixes the initial store when the first anchor is at `t > 0`.
    points: Vec<(f64, f64)>,
}

impl EnergySupply {
    /// Validates and wraps a cumulative curve.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, RenewableError> {
        if points.is_empty() {
            return Err(RenewableError::InvalidSupply("no anchor points"));
        }
        for w in points.windows(2) {
            if w[0].0 >= w[1].0 || w[0].0.is_nan() || w[1].0.is_nan() {
                return Err(RenewableError::InvalidSupply(
                    "times must strictly increase",
                ));
            }
            if w[1].1 < w[0].1 {
                return Err(RenewableError::InvalidSupply("cumulative energy decreased"));
            }
        }
        if points
            .iter()
            .any(|&(t, e)| !t.is_finite() || !e.is_finite() || t < 0.0 || e < 0.0)
        {
            return Err(RenewableError::InvalidSupply(
                "non-finite or negative anchor",
            ));
        }
        Ok(Self { points })
    }

    /// A constant budget `B` available from the start (the base problem).
    pub fn constant(budget: f64) -> Result<Self, RenewableError> {
        Self::new(vec![(0.0, budget)])
    }

    /// Constant harvesting power `watts` starting from an `initial` store.
    pub fn harvest(initial: f64, watts: f64, horizon: f64) -> Result<Self, RenewableError> {
        if watts < 0.0 || watts.is_nan() || horizon <= 0.0 || horizon.is_nan() {
            return Err(RenewableError::InvalidSupply("bad harvest parameters"));
        }
        Self::new(vec![(0.0, initial), (horizon, initial + watts * horizon)])
    }

    /// Cumulative energy available by time `t`.
    pub fn available_by(&self, t: f64) -> f64 {
        let pts = &self.points;
        if t <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let ((t0, e0), (t1, e1)) = (w[0], w[1]);
            if t <= t1 {
                return e0 + (e1 - e0) * (t - t0) / (t1 - t0);
            }
        }
        pts.last().expect("non-empty").1
    }

    /// Total energy ever available (the flat tail).
    pub fn total(&self) -> f64 {
        self.points.last().expect("non-empty").1
    }
}

/// Result of the windowed-energy solve.
#[derive(Debug, Clone)]
pub struct RenewableSolution {
    /// The fractional optimum under the supply curve (upper bound).
    pub fractional: FrSolution,
    /// The rounded integral schedule (Algorithm 5 on the windowed
    /// fractional solution).
    pub approx: ApproxSolution,
}

/// Solves the fractional relaxation with windowed energy constraints and
/// rounds it with Algorithm 5.
///
/// The instance's own `budget` is ignored; `supply.total()` takes its
/// place (a constant supply therefore reproduces the base problem). The
/// simplex runs with its default options.
pub fn solve_renewable(
    inst: &Instance,
    supply: &EnergySupply,
) -> Result<RenewableSolution, RenewableError> {
    // Build the relaxation against the total supply, then tighten with the
    // per-deadline windows.
    let relaxed = inst
        .with_budget(supply.total().min(f64::MAX))
        .expect("total supply is a valid budget");
    let mut built = build_fr_lp(&relaxed);
    let n = inst.num_tasks();
    let m = inst.num_machines();
    let machines = inst.machines();
    for j in 0..n {
        let d_j = inst.task(j).deadline;
        let avail = supply.available_by(d_j);
        let terms: Vec<(Var, f64)> = (0..=j)
            .flat_map(|i| (0..m).map(move |r| (i, r)))
            .map(|(i, r)| (built.t_vars[i * m + r], machines[r].power()))
            .collect();
        built.model.add_row(Cmp::Le, avail, &terms);
    }
    let sol = built.model.solve(&SolveOptions::default())?;
    if sol.status != Status::Optimal {
        return Err(RenewableError::NotSolved(sol.status));
    }

    let mut schedule = FractionalSchedule::zero(n, m);
    for j in 0..n {
        for r in 0..m {
            schedule.set_t(j, r, sol.x[built.t_vars[j * m + r].index()].max(0.0));
        }
    }
    let flops: Vec<f64> = (0..n).map(|j| schedule.flops(j, &relaxed)).collect();
    let total_accuracy = schedule.total_accuracy(&relaxed);
    let energy = schedule.energy(&relaxed);
    let profile = schedule.profile();
    let fractional = FrSolution {
        schedule,
        flops,
        total_accuracy,
        naive_profile: EnergyProfile::new(vec![0.0; m]),
        profile,
        energy,
        refine_iterations: 0,
        search: None,
    };
    let mut approx = approx_from_fractional(&relaxed, fractional.clone());
    // Window cut: the list scheduling respects the total budget through
    // the fractional profile caps, but an integral placement can front-load
    // energy a slowly-arriving supply has not delivered yet. Walk tasks in
    // EDF order and compress any task whose cumulative spend would outrun
    // `E(d_j)` (mirrors Algorithm 5's deadline-cut pass).
    let mut spent = 0.0f64;
    for j in 0..n {
        let avail = supply.available_by(inst.task(j).deadline);
        for r in 0..m {
            let t = approx.schedule.t(j, r);
            if t <= 0.0 {
                continue;
            }
            let power = machines[r].power();
            let cost = power * t;
            if spent + cost > avail {
                let allowed = ((avail - spent) / power).max(0.0);
                approx.schedule.set_t(j, r, allowed);
                spent += power * allowed;
            } else {
                spent += cost;
            }
        }
    }
    approx.total_accuracy = approx.schedule.total_accuracy(&relaxed);
    approx.assignment = (0..n)
        .map(|j| approx.schedule.assigned_machine(j))
        .collect();
    Ok(RenewableSolution { fractional, approx })
}

/// Maximum violation of the windowed-energy constraints by a schedule
/// (joules); complements [`FractionalSchedule::validate`].
pub fn supply_violation(
    inst: &Instance,
    supply: &EnergySupply,
    schedule: &FractionalSchedule,
) -> f64 {
    let n = inst.num_tasks();
    let m = inst.num_machines();
    let machines = inst.machines();
    let mut worst = 0.0f64;
    let mut spent = 0.0;
    for j in 0..n {
        for r in 0..m {
            spent += machines[r].power() * schedule.t(j, r);
        }
        worst = worst.max(spent - supply.available_by(inst.task(j).deadline));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Task;
    use crate::schedule::ScheduleKind;
    use crate::solver::FrOptSolver;
    use dsct_accuracy::PwlAccuracy;
    use dsct_machines::{Machine, MachinePark};

    fn acc(points: &[(f64, f64)]) -> PwlAccuracy {
        PwlAccuracy::new(points).unwrap()
    }

    fn instance() -> Instance {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(1000.0, 40.0).unwrap(),
            Machine::from_efficiency(2500.0, 25.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(0.4, acc(&[(0.0, 0.0), (150.0, 0.5), (500.0, 0.8)])),
            Task::new(0.9, acc(&[(0.0, 0.0), (300.0, 0.6), (700.0, 0.75)])),
            Task::new(1.2, acc(&[(0.0, 0.0), (200.0, 0.4), (600.0, 0.7)])),
        ];
        Instance::new(tasks, park, 25.0).unwrap()
    }

    #[test]
    fn supply_curve_validation_and_interpolation() {
        assert!(EnergySupply::new(vec![]).is_err());
        assert!(EnergySupply::new(vec![(0.0, 5.0), (0.0, 6.0)]).is_err());
        assert!(EnergySupply::new(vec![(0.0, 5.0), (1.0, 4.0)]).is_err());
        assert!(EnergySupply::new(vec![(0.0, -1.0)]).is_err());
        let s = EnergySupply::new(vec![(0.0, 2.0), (10.0, 12.0)]).unwrap();
        assert!((s.available_by(0.0) - 2.0).abs() < 1e-12);
        assert!((s.available_by(5.0) - 7.0).abs() < 1e-12);
        assert!((s.available_by(100.0) - 12.0).abs() < 1e-12);
        assert!((s.total() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn constant_supply_matches_base_problem() {
        let inst = instance();
        let supply = EnergySupply::constant(inst.budget()).unwrap();
        let windowed = solve_renewable(&inst, &supply).unwrap();
        let base = FrOptSolver::new().solve_typed(&inst);
        assert!(
            (windowed.fractional.total_accuracy - base.total_accuracy).abs() < 1e-5,
            "windowed {} vs base {}",
            windowed.fractional.total_accuracy,
            base.total_accuracy
        );
    }

    #[test]
    fn harvesting_constrains_early_tasks() {
        let inst = instance();
        // Same total energy as the budget, but arriving linearly over the
        // horizon: early deadlines see much less.
        let supply = EnergySupply::harvest(0.0, inst.budget() / 1.2, 1.2).unwrap();
        assert!((supply.total() - inst.budget()).abs() < 1e-9);
        let windowed = solve_renewable(&inst, &supply).unwrap();
        let base = FrOptSolver::new().solve_typed(&inst);
        assert!(
            windowed.fractional.total_accuracy < base.total_accuracy - 1e-6,
            "delayed arrival must hurt: windowed {} vs base {}",
            windowed.fractional.total_accuracy,
            base.total_accuracy
        );
        // And the fractional solution respects the windows.
        assert!(supply_violation(&inst, &supply, &windowed.fractional.schedule) < 1e-6);
    }

    #[test]
    fn more_supply_never_hurts() {
        let inst = instance();
        let lo = EnergySupply::harvest(0.0, 10.0, 1.2).unwrap();
        let hi = EnergySupply::harvest(5.0, 20.0, 1.2).unwrap();
        let a = solve_renewable(&inst, &lo).unwrap();
        let b = solve_renewable(&inst, &hi).unwrap();
        assert!(b.fractional.total_accuracy >= a.fractional.total_accuracy - 1e-9);
    }

    #[test]
    fn rounded_schedule_is_integral_feasible_and_bounded() {
        let inst = instance();
        let supply = EnergySupply::harvest(2.0, 15.0, 1.2).unwrap();
        let sol = solve_renewable(&inst, &supply).unwrap();
        let relaxed = inst.with_budget(supply.total()).unwrap();
        sol.approx
            .schedule
            .validate(&relaxed, ScheduleKind::Integral)
            .unwrap();
        assert!(sol.approx.total_accuracy <= sol.fractional.total_accuracy + 1e-9);
        // The integral schedule must also respect the arrival windows.
        assert!(
            supply_violation(&inst, &supply, &sol.approx.schedule) < 1e-6,
            "window violation {}",
            supply_violation(&inst, &supply, &sol.approx.schedule)
        );
    }

    #[test]
    fn window_cut_respects_slow_arrivals() {
        let inst = instance();
        // Nearly nothing early, plenty late.
        let supply = EnergySupply::new(vec![(0.0, 0.5), (1.0, 0.6), (1.2, 30.0)]).unwrap();
        let sol = solve_renewable(&inst, &supply).unwrap();
        assert!(supply_violation(&inst, &supply, &sol.approx.schedule) < 1e-6);
        assert!(supply_violation(&inst, &supply, &sol.fractional.schedule) < 1e-6);
    }

    #[test]
    fn zero_supply_floors_accuracy() {
        let inst = instance();
        let supply = EnergySupply::constant(0.0).unwrap();
        let sol = solve_renewable(&inst, &supply).unwrap();
        assert!((sol.fractional.total_accuracy - inst.total_min_accuracy()).abs() < 1e-6);
    }
}
