//! The event-driven executor.

use crate::trace::{EventKind, ExecutionTrace, TaskOutcome, TraceEvent};
use dsct_core::problem::Instance;
use dsct_core::schedule::FractionalSchedule;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Typed executor errors (PR 1 pattern: panics become errors callers can
/// route, e.g. the online service's admission path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecError {
    /// A configuration field is outside its valid domain; the payload
    /// names the field, the offending value, and the requirement.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable domain (e.g. `"in [0, 1)"`).
        requirement: &'static str,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InvalidConfig {
                field,
                value,
                requirement,
            } => write!(f, "{field} = {value} must be {requirement}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// What the executor does when a task would run past its deadline at
/// runtime (e.g. because the machine delivered less speed than planned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OverrunPolicy {
    /// Compress the task: stop it exactly at the deadline and keep the
    /// partial work (the slimmable-network behaviour; default).
    #[default]
    Compress,
    /// Drop the task entirely: it contributes `a_j(0)` and its partial
    /// runtime energy is still paid.
    Drop,
}

/// What a dispatch does at its deadline. Completing `planned_work` takes
/// `planned_time / factor` seconds at the jittered speed; a run that fits
/// in `time_to_deadline` finishes with all of it. One that does not stops
/// at the deadline, where `policy` keeps the work `rate` delivered by
/// then ([`OverrunPolicy::Compress`]) or none ([`OverrunPolicy::Drop`]).
/// Returns `(runtime, work, kind)`.
pub fn overrun_outcome(
    planned_time: f64,
    planned_work: f64,
    rate: f64,
    factor: f64,
    time_to_deadline: f64,
    policy: OverrunPolicy,
) -> (f64, f64, EventKind) {
    let full_runtime = planned_time / factor;
    if full_runtime <= time_to_deadline + 1e-12 {
        return (full_runtime, planned_work, EventKind::Finish);
    }
    match policy {
        OverrunPolicy::Compress => (
            time_to_deadline,
            rate * time_to_deadline,
            EventKind::Compressed,
        ),
        OverrunPolicy::Drop => (time_to_deadline, 0.0, EventKind::Dropped),
    }
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Multiplicative speed-jitter half-width: each task execution draws
    /// an effective speed factor uniformly from `[1 − j, 1 + j]`
    /// (`0.0` = deterministic nominal speed).
    pub speed_jitter: f64,
    /// RNG seed for the jitter draws (deterministic replay).
    pub seed: u64,
    /// Deadline-overrun handling.
    pub overrun: OverrunPolicy,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self {
            speed_jitter: 0.0,
            seed: 0,
            overrun: OverrunPolicy::Compress,
        }
    }
}

impl ExecutionConfig {
    /// Validates the configuration. `speed_jitter` must lie in `[0, 1)`:
    /// a half-width of 1 or more would allow a zero or negative effective
    /// speed, and the runtime `planned / factor` would blow up or flip
    /// sign.
    pub fn validate(&self) -> Result<(), ExecError> {
        if !(self.speed_jitter.is_finite() && (0.0..1.0).contains(&self.speed_jitter)) {
            return Err(ExecError::InvalidConfig {
                field: "speed_jitter",
                value: self.speed_jitter,
                requirement: "in [0, 1)",
            });
        }
        Ok(())
    }
}

/// Machine-ready event in the dispatch queue: ordered by time, then
/// machine index for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ready {
    time: f64,
    machine: usize,
}

impl Eq for Ready {}
impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ready {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        // total_cmp: a NaN time must not collapse the ordering to
        // Equal and leave dispatch order at the heap's mercy.
        other
            .time
            .total_cmp(&self.time)
            .then(other.machine.cmp(&self.machine))
    }
}

/// Executes an **integral** schedule as a discrete-event simulation.
///
/// Each machine runs its assigned tasks in deadline (EDF) order,
/// back-to-back from time zero, exactly as the planner's prefix
/// constraints assume. The planned allocation is treated as a **work
/// target** (`planned_time × nominal_speed` GFLOP): for every execution
/// the machine delivers a jittered effective speed, so completing the
/// target takes `planned_time / factor` wall-clock seconds — a slow
/// execution can overrun the deadline, at which point the overrun policy
/// decides between compressing the task (keep the partial work) and
/// dropping it. Faster-than-nominal executions finish early and pull
/// later tasks forward.
///
/// # Panics
/// Panics when the configuration is invalid (see [`try_execute`] for the
/// `Result`-returning form), the schedule splits a task across machines
/// (use the planner's integral output), or dimensions mismatch the
/// instance.
pub fn execute(
    inst: &Instance,
    schedule: &FractionalSchedule,
    cfg: &ExecutionConfig,
) -> ExecutionTrace {
    try_execute(inst, schedule, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`execute`] with configuration validation as a typed error instead of
/// a panic: rejects `speed_jitter` outside `[0, 1)` (which would allow a
/// zero or negative effective speed) before touching the schedule.
pub fn try_execute(
    inst: &Instance,
    schedule: &FractionalSchedule,
    cfg: &ExecutionConfig,
) -> Result<ExecutionTrace, ExecError> {
    cfg.validate()?;
    let n = inst.num_tasks();
    let m = inst.num_machines();
    assert_eq!(schedule.num_tasks(), n, "task count mismatch");
    assert_eq!(schedule.num_machines(), m, "machine count mismatch");

    // Per-machine EDF queues of (task, planned_time).
    let mut queues: Vec<std::collections::VecDeque<(usize, f64)>> =
        vec![std::collections::VecDeque::new(); m];
    for j in 0..n {
        let mut on: Option<usize> = None;
        for r in 0..m {
            if schedule.t(j, r) > 1e-12 {
                assert!(
                    on.is_none(),
                    "task {j} is split across machines {} and {r}; execute() needs an integral schedule",
                    on.unwrap_or_default()
                );
                on = Some(r);
            }
        }
        if let Some(r) = on {
            queues[r].push_back((j, schedule.t(j, r)));
        }
    }

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut events = Vec::new();
    let mut outcomes = vec![
        TaskOutcome {
            machine: None,
            start: 0.0,
            completion: 0.0,
            work: 0.0,
            accuracy: 0.0,
            energy: 0.0,
            met_deadline: true,
            speed_factor: 1.0,
        };
        n
    ];

    let mut heap: BinaryHeap<Ready> = (0..m)
        .filter(|&r| !queues[r].is_empty())
        .map(|machine| Ready { time: 0.0, machine })
        .collect();

    let mut makespan = 0.0f64;
    while let Some(Ready { time, machine }) = heap.pop() {
        let Some((task, planned)) = queues[machine].pop_front() else {
            continue;
        };
        events.push(TraceEvent {
            time,
            machine,
            task,
            kind: EventKind::Dispatch,
        });
        let spec = inst.machines()[machine];
        let deadline = inst.task(task).deadline;
        let factor = if cfg.speed_jitter > 0.0 {
            1.0 + rng.gen_range(-cfg.speed_jitter..=cfg.speed_jitter)
        } else {
            1.0
        };
        // Work the plan intends: planned_time at *nominal* speed, delivered
        // at the jittered speed.
        let (runtime, work, kind) = overrun_outcome(
            planned,
            planned * spec.speed(),
            spec.speed() * factor,
            factor,
            (deadline - time).max(0.0),
            cfg.overrun,
        );

        let completion = time + runtime;
        let energy = spec.power() * runtime;
        let acc = inst.task(task).accuracy.eval(work.max(0.0));
        outcomes[task] = TaskOutcome {
            machine: Some(machine),
            start: time,
            completion,
            work,
            accuracy: acc,
            energy,
            met_deadline: completion <= deadline + 1e-9,
            speed_factor: factor,
        };
        events.push(TraceEvent {
            time: completion,
            machine,
            task,
            kind,
        });
        makespan = makespan.max(completion);
        if !queues[machine].is_empty() {
            heap.push(Ready {
                time: completion,
                machine,
            });
        }
    }

    // Never-dispatched tasks realize their zero-work accuracy.
    for (j, out) in outcomes.iter_mut().enumerate() {
        if out.machine.is_none() {
            out.accuracy = inst.task(j).accuracy.a_min();
            events.push(TraceEvent {
                time: 0.0,
                machine: usize::MAX,
                task: j,
                kind: EventKind::Dropped,
            });
        }
    }
    events.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.task.cmp(&b.task)));

    let realized_accuracy = outcomes.iter().map(|t| t.accuracy).sum();
    let realized_energy = outcomes.iter().map(|t| t.energy).sum();
    let compressions = events
        .iter()
        .filter(|e| e.kind == EventKind::Compressed)
        .count();
    // One Dropped event per never-dispatched task plus one per runtime drop.
    let drops = events
        .iter()
        .filter(|e| e.kind == EventKind::Dropped)
        .count();

    Ok(ExecutionTrace {
        events,
        tasks: outcomes,
        realized_accuracy,
        realized_energy,
        compressions,
        drops,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsct_accuracy::PwlAccuracy;
    use dsct_core::problem::Task;
    use dsct_core::solver::ApproxSolver;
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
    fn zero_jitter_reproduces_the_plan_exactly() {
        let inst = instance();
        let plan = ApproxSolver::new().solve_typed(&inst);
        let trace = execute(&inst, &plan.schedule, &ExecutionConfig::default());
        assert!(
            (trace.realized_accuracy - plan.total_accuracy).abs() < 1e-9,
            "realized {} vs planned {}",
            trace.realized_accuracy,
            plan.total_accuracy
        );
        assert!((trace.realized_energy - plan.schedule.energy(&inst)).abs() < 1e-9);
        assert_eq!(trace.deadline_misses(), 0);
        assert_eq!(trace.compressions, 0);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let inst = instance();
        let plan = ApproxSolver::new().solve_typed(&inst);
        let cfg = ExecutionConfig {
            speed_jitter: 0.3,
            seed: 42,
            ..Default::default()
        };
        let a = execute(&inst, &plan.schedule, &cfg);
        let b = execute(&inst, &plan.schedule, &cfg);
        assert_eq!(a.realized_accuracy, b.realized_accuracy);
        let c = execute(&inst, &plan.schedule, &ExecutionConfig { seed: 43, ..cfg });
        assert_ne!(a.realized_accuracy, c.realized_accuracy);
    }

    #[test]
    fn compress_policy_never_misses_deadlines() {
        let inst = instance();
        let plan = ApproxSolver::new().solve_typed(&inst);
        for seed in 0..20 {
            let trace = execute(
                &inst,
                &plan.schedule,
                &ExecutionConfig {
                    speed_jitter: 0.4,
                    seed,
                    overrun: OverrunPolicy::Compress,
                },
            );
            assert_eq!(trace.deadline_misses(), 0, "seed {seed}");
            // Runtime per task is bounded by planned/(1 − jitter), and so
            // is the energy.
            assert!(
                trace.realized_energy <= plan.schedule.energy(&inst) / (1.0 - 0.4) + 1e-9,
                "seed {seed}: energy {}",
                trace.realized_energy
            );
        }
    }

    #[test]
    fn drop_policy_loses_more_accuracy_than_compress() {
        let inst = instance();
        let plan = ApproxSolver::new().solve_typed(&inst);
        let mut any_overrun = false;
        for seed in 0..30 {
            let compress = execute(
                &inst,
                &plan.schedule,
                &ExecutionConfig {
                    speed_jitter: 0.4,
                    seed,
                    overrun: OverrunPolicy::Compress,
                },
            );
            let drop = execute(
                &inst,
                &plan.schedule,
                &ExecutionConfig {
                    speed_jitter: 0.4,
                    seed,
                    overrun: OverrunPolicy::Drop,
                },
            );
            assert!(drop.realized_accuracy <= compress.realized_accuracy + 1e-12);
            if compress.compressions > 0 {
                any_overrun = true;
                assert!(drop.realized_accuracy < compress.realized_accuracy);
            }
        }
        assert!(any_overrun, "jitter of 40% should cause some overrun");
    }

    #[test]
    fn events_are_chronological_and_complete() {
        let inst = instance();
        let plan = ApproxSolver::new().solve_typed(&inst);
        let trace = execute(&inst, &plan.schedule, &ExecutionConfig::default());
        for w in trace.events.windows(2) {
            assert!(w[0].time <= w[1].time + 1e-12);
        }
        // Every dispatched task has a dispatch and a terminal event.
        for j in 0..inst.num_tasks() {
            let evs: Vec<_> = trace.events.iter().filter(|e| e.task == j).collect();
            assert!(!evs.is_empty(), "task {j} has no events");
        }
        assert!(trace.makespan <= inst.d_max() + 1e-9);
    }

    #[test]
    fn invalid_jitter_is_a_typed_error_not_a_panic() {
        let inst = instance();
        let plan = ApproxSolver::new().solve_typed(&inst);
        for bad in [1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            let cfg = ExecutionConfig {
                speed_jitter: bad,
                ..Default::default()
            };
            let err = try_execute(&inst, &plan.schedule, &cfg).unwrap_err();
            match err {
                ExecError::InvalidConfig {
                    field,
                    value,
                    requirement,
                } => {
                    assert_eq!(field, "speed_jitter", "jitter {bad}");
                    assert_eq!(value.to_bits(), bad.to_bits(), "jitter {bad}");
                    assert_eq!(requirement, "in [0, 1)", "jitter {bad}");
                }
            }
            assert!(cfg.validate().is_err(), "jitter {bad}");
        }
        // The boundary below 1.0 is still accepted.
        assert!(ExecutionConfig {
            speed_jitter: 0.999,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "speed_jitter")]
    fn execute_still_panics_on_invalid_config() {
        let inst = instance();
        let plan = ApproxSolver::new().solve_typed(&inst);
        execute(
            &inst,
            &plan.schedule,
            &ExecutionConfig {
                speed_jitter: 1.0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "integral schedule")]
    fn rejects_split_tasks() {
        let inst = instance();
        let mut s = FractionalSchedule::zero(3, 2);
        s.set_t(0, 0, 0.1);
        s.set_t(0, 1, 0.1);
        execute(&inst, &s, &ExecutionConfig::default());
    }
}
