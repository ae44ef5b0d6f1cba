//! Energy profiles (paper §3.2).
//!
//! The *energy profile* `p_r` of machine `r` is the maximum busy time the
//! machine may accumulate; a profile vector is budget-feasible when
//! `Σ_r p_r · P_r ≤ B`. The *naive* profile fills machines in order of
//! non-increasing energy efficiency until the budget is exhausted, capping
//! each machine at the horizon `d^max` — the intuition being that a joule
//! buys the most work on the most efficient machine.

use crate::problem::Instance;
use serde::{Deserialize, Serialize};

/// An energy profile: per-machine busy-time caps (seconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyProfile {
    caps: Vec<f64>,
}

impl EnergyProfile {
    /// Wraps explicit per-machine caps.
    pub fn new(caps: Vec<f64>) -> Self {
        assert!(
            caps.iter().all(|&p| p.is_finite() && p >= 0.0),
            "profile caps must be finite and non-negative"
        );
        Self { caps }
    }

    /// Cap of machine `r` (seconds).
    #[inline]
    pub fn cap(&self, r: usize) -> f64 {
        self.caps[r]
    }

    /// All caps.
    #[inline]
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// Number of machines.
    #[inline]
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// True when there are no machines (never for a valid instance).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Energy consumed if every machine runs for its full cap (joules).
    pub fn energy(&self, inst: &Instance) -> f64 {
        self.caps
            .iter()
            .enumerate()
            .map(|(r, &p)| inst.machines()[r].power() * p)
            .sum()
    }

    /// Aggregate work capacity available to a task with deadline `d`:
    /// `Σ_r min(p_r, d) · s_r` in GFLOP. This is the "temporary deadline"
    /// transformation of Algorithm 2 (expressed in work units).
    pub fn capacity_by(&self, inst: &Instance, d: f64) -> f64 {
        self.caps
            .iter()
            .enumerate()
            .map(|(r, &p)| p.min(d) * inst.machines()[r].speed())
            .sum()
    }
}

/// Fills `out` with the temporary deadlines of Algorithm 2 for raw caps:
/// `out[j] = Σ_r min(caps[r], d_j) · s_r` (GFLOP on a unit-speed machine)
/// for task deadlines `deadlines` and machine speeds `speeds`, clamped to
/// be non-decreasing — summation can otherwise break the monotonicity
/// Algorithm 1 requires by a few ulps.
///
/// This is the cold (per-call `O(n·m)`) transformation; the profile
/// search's hot path computes the same quantity from reusable
/// prefix-capacity vectors in [`crate::algo_naive::ValueFnWorkspace`].
pub fn temp_deadlines_into(deadlines: &[f64], speeds: &[f64], caps: &[f64], out: &mut Vec<f64>) {
    debug_assert_eq!(caps.len(), speeds.len(), "profile/machine count mismatch");
    out.clear();
    let mut prev = 0.0f64;
    for &d in deadlines {
        let mut cap = 0.0;
        for (r, &p) in caps.iter().enumerate() {
            cap += p.min(d) * speeds[r];
        }
        if cap < prev {
            cap = prev;
        }
        prev = cap;
        out.push(cap);
    }
}

/// Computes the naive energy profile (Algorithm 2, lines 1–5): machines in
/// non-increasing efficiency order receive `min(remaining_budget / P_r,
/// d^max)` seconds each until the budget runs out.
pub fn naive_profile(inst: &Instance) -> EnergyProfile {
    let d_max = inst.d_max();
    let mut caps = vec![0.0; inst.num_machines()];
    let mut remaining = inst.budget();
    for r in inst.machines().by_efficiency_desc() {
        let power = inst.machines()[r].power();
        let p = (remaining / power).min(d_max).max(0.0);
        caps[r] = p;
        remaining -= p * power;
        if remaining <= 0.0 {
            break;
        }
    }
    EnergyProfile { caps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Task;
    use dsct_accuracy::PwlAccuracy;
    use dsct_machines::{Machine, MachinePark};

    fn acc() -> PwlAccuracy {
        PwlAccuracy::new(&[(0.0, 0.0), (1000.0, 0.8)]).unwrap()
    }

    /// Fig. 6 machines: m0 = 2 TFLOPS @ 80 GFLOPS/W (25 W),
    /// m1 = 5 TFLOPS @ 70 GFLOPS/W (≈ 71.43 W).
    fn fig6_instance(budget: f64) -> Instance {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2000.0, 80.0).unwrap(),
            Machine::from_efficiency(5000.0, 70.0).unwrap(),
        ]);
        Instance::new(vec![Task::new(2.0, acc())], park, budget).unwrap()
    }

    #[test]
    fn naive_profile_fills_most_efficient_first() {
        // Budget 30 J: machine 0 (25 W) can run 1.2 s < d_max = 2 s, so it
        // absorbs the whole budget; machine 1 gets nothing.
        let inst = fig6_instance(30.0);
        let p = naive_profile(&inst);
        assert!((p.cap(0) - 1.2).abs() < 1e-9);
        assert_eq!(p.cap(1), 0.0);
        assert!(p.energy(&inst) <= inst.budget() + 1e-9);
    }

    #[test]
    fn naive_profile_overflows_to_next_machine() {
        // Budget 100 J: machine 0 runs d_max = 2 s (50 J); the remaining
        // 50 J go to machine 1: 50 / 71.43 ≈ 0.7 s.
        let inst = fig6_instance(100.0);
        let p = naive_profile(&inst);
        assert!((p.cap(0) - 2.0).abs() < 1e-9);
        let p1_expected = 50.0 / (5000.0 / 70.0);
        assert!((p.cap(1) - p1_expected).abs() < 1e-9);
        assert!((p.energy(&inst) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn naive_profile_saturates_at_horizon() {
        // Huge budget: both machines capped at d_max.
        let inst = fig6_instance(1e9);
        let p = naive_profile(&inst);
        assert!((p.cap(0) - 2.0).abs() < 1e-9);
        assert!((p.cap(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_gives_zero_profile() {
        let inst = fig6_instance(0.0);
        let p = naive_profile(&inst);
        assert_eq!(p.caps(), &[0.0, 0.0]);
    }

    #[test]
    fn capacity_by_deadline() {
        let inst = fig6_instance(100.0);
        let p = EnergyProfile::new(vec![2.0, 0.7]);
        // d = 1: min(2,1)*2000 + min(0.7,1)*5000 = 2000 + 3500.
        assert!((p.capacity_by(&inst, 1.0) - 5500.0).abs() < 1e-9);
        // d = 3: 2*2000 + 0.7*5000.
        assert!((p.capacity_by(&inst, 3.0) - 7500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_caps() {
        EnergyProfile::new(vec![-1.0]);
    }
}
