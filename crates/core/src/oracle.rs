//! Solution-invariant oracle: executable versions of the paper's
//! guarantees, checked against any [`Solution`].
//!
//! Every solver in the workspace emits the uniform [`Solution`] struct;
//! this module validates one against its [`Instance`] and a set of
//! [`Claims`] describing what the producing algorithm promises:
//!
//! - **Feasibility** (Eq. 2–5): per-machine EDF prefix deadlines
//!   `Σ_{i≤j} t_ir ≤ d_j`, non-negative times, per-task work caps
//!   `Σ_r s_r·t_jr ≤ f_j^max`, the global energy budget
//!   `Σ_{j,r} P_r·t_jr ≤ B`, and single-assignment for integral
//!   schedules — delegated to [`FractionalSchedule::validate`];
//! - **Agreement**: the reported accuracy, energy, per-task flops, and
//!   assignment vector must match what the schedule itself implies
//!   (accuracy/energy to ≤ 1e-9);
//! - **Upper-bound consistency**: `SOL ≤ UB` whenever the solver
//!   certifies a bound;
//! - **FR-OPT KKT stationarity** (Eq. 8–10): at a fractional optimum the
//!   marginal accuracy per joule is equalized across all *active*
//!   (task, machine) pairs up to slack — no budget slack or feasible
//!   energy transfer may buy a first-order accuracy gain;
//! - **The approximation guarantee** (Eq. 13/14):
//!   `UB − SOL ≤ G = m(a^max − a^min)(1 + ln(θ_max/θ_min))` for
//!   `ApproxSolver` against its own fractional upper bound.
//!
//! The oracle is *conservative*: every flagged violation is a genuine
//! breach of a necessary optimality/feasibility condition (with explicit
//! numeric tolerances), so it never rejects a correct solver. The
//! mutation smoke test (`tests/oracle_mutation.rs`) proves it is not
//! vacuous.
//!
//! Failing instances can be serialized to a handrolled-JSON corpus via
//! [`instance_to_json`] / [`dump_instance`] (directory from
//! `DSCT_ORACLE_DUMP_DIR`, default `target/oracle-violations/`) so CI can
//! upload them as artifacts and `tests/corpus_replay.rs` can re-verify
//! them forever after.

use crate::guarantee::absolute_guarantee;
use crate::problem::Instance;
use crate::schedule::{FractionalSchedule, ScheduleKind, Violation as FeasibilityViolation};
use crate::solver::{Solution, SolveStats};
use crate::staged::{StagedInstance, StagedSchedule, StagedSolution, StagedTask, StagedViolation};
use crate::{EPS_FLOPS, EPS_TIME};
use std::fmt;

/// One pinpointed invariant breach found by the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The schedule itself is infeasible (deadline, work cap, budget,
    /// negative time, or split task) — wraps the schedule-level check.
    Infeasible(FeasibilityViolation),
    /// Reported total accuracy disagrees with the schedule's recomputed
    /// `Σ_j a_j(f_j)` beyond 1e-9.
    AccuracyMismatch {
        /// Accuracy the solver reported.
        reported: f64,
        /// Accuracy recomputed from the schedule.
        recomputed: f64,
    },
    /// Reported energy disagrees with the schedule's recomputed
    /// `Σ_{j,r} P_r·t_jr` beyond 1e-9.
    EnergyMismatch {
        /// Energy the solver reported (J).
        reported: f64,
        /// Energy recomputed from the schedule (J).
        recomputed: f64,
    },
    /// The solver's per-task work vector disagrees with the schedule.
    FlopsMismatch {
        /// Task index (deadline order).
        task: usize,
        /// Work the solver reported (GFLOP).
        reported: f64,
        /// Work recomputed from the schedule (GFLOP).
        recomputed: f64,
    },
    /// An integral solution's assignment vector lies about where a task
    /// runs (its processing time is not on the machine it names).
    AssignmentMismatch {
        /// Task index.
        task: usize,
        /// Machine the assignment vector names.
        reported: Option<usize>,
        /// Machine(s) actually holding the task's time.
        actual: Option<usize>,
    },
    /// The solution's accuracy exceeds the upper bound it certifies.
    UpperBoundExceeded {
        /// Achieved total accuracy.
        accuracy: f64,
        /// The bound the solver itself certified.
        upper_bound: f64,
    },
    /// A claimed fractional optimum admits a first-order improvement:
    /// either unspent budget could feed a task with positive marginal
    /// gain and deadline slack, or energy could transfer from a
    /// low-marginal (task, machine) pair to a high-marginal one.
    KktNotStationary {
        /// Task that could receive more energy.
        sink_task: usize,
        /// Machine the sink task would run the extra work on.
        sink_machine: usize,
        /// `(task, machine)` the energy would come from; `None` when
        /// unspent budget already covers it.
        source: Option<(usize, usize)>,
        /// Estimated achievable accuracy gain (already above tolerance).
        estimated_gain: f64,
    },
    /// `ApproxSolver` fell further below its fractional upper bound than
    /// the paper's guarantee `G` allows.
    GuaranteeViolated {
        /// Achieved total accuracy.
        accuracy: f64,
        /// Fractional upper bound.
        upper_bound: f64,
        /// The guarantee `G = m(a^max − a^min)(1 + ln(θ_max/θ_min))`.
        guarantee: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Infeasible(v) => write!(f, "infeasible schedule: {v}"),
            Violation::AccuracyMismatch {
                reported,
                recomputed,
            } => write!(
                f,
                "reported accuracy {reported} disagrees with recomputed {recomputed}"
            ),
            Violation::EnergyMismatch {
                reported,
                recomputed,
            } => write!(
                f,
                "reported energy {reported} J disagrees with recomputed {recomputed} J"
            ),
            Violation::FlopsMismatch {
                task,
                reported,
                recomputed,
            } => write!(
                f,
                "task {task}: reported work {reported} GFLOP disagrees with recomputed {recomputed}"
            ),
            Violation::AssignmentMismatch {
                task,
                reported,
                actual,
            } => write!(
                f,
                "task {task}: assignment says {reported:?} but the time sits on {actual:?}"
            ),
            Violation::UpperBoundExceeded {
                accuracy,
                upper_bound,
            } => write!(
                f,
                "accuracy {accuracy} exceeds the certified upper bound {upper_bound}"
            ),
            Violation::KktNotStationary {
                sink_task,
                sink_machine,
                source,
                estimated_gain,
            } => match source {
                Some((st, sm)) => write!(
                    f,
                    "not stationary: moving energy from task {st} on machine {sm} to \
                     task {sink_task} on machine {sink_machine} gains ≈{estimated_gain}"
                ),
                None => write!(
                    f,
                    "not stationary: unspent budget on task {sink_task} / machine \
                     {sink_machine} gains ≈{estimated_gain}"
                ),
            },
            Violation::GuaranteeViolated {
                accuracy,
                upper_bound,
                guarantee,
            } => write!(
                f,
                "approximation guarantee violated: UB {upper_bound} − SOL {accuracy} \
                 = {} > G = {guarantee}",
                upper_bound - accuracy
            ),
        }
    }
}

/// What the producing solver promises about a [`Solution`] — which
/// optional oracle checks apply on top of feasibility and agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claims {
    /// Integral (one machine per task) or fractional schedule.
    pub kind: ScheduleKind,
    /// The solution claims to be a fractional optimum (FR-OPT): the KKT
    /// stationarity check applies.
    pub kkt_stationary: bool,
    /// The solution claims the paper's approximation guarantee against
    /// its certified upper bound (`ApproxSolver`).
    pub approx_guarantee: bool,
}

impl Claims {
    /// Feasibility and agreement only.
    pub fn feasible(kind: ScheduleKind) -> Self {
        Self {
            kind,
            kkt_stationary: false,
            approx_guarantee: false,
        }
    }

    /// A fractional optimum (FR-OPT): feasibility + KKT stationarity.
    pub fn fr_optimal() -> Self {
        Self {
            kind: ScheduleKind::Fractional,
            kkt_stationary: true,
            approx_guarantee: false,
        }
    }

    /// The approximation algorithm: integral feasibility + the `G`
    /// guarantee against its own fractional upper bound.
    pub fn approx() -> Self {
        Self {
            kind: ScheduleKind::Integral,
            kkt_stationary: false,
            approx_guarantee: true,
        }
    }

    /// The weakest claims consistent with a solution's own flags (used by
    /// the standalone [`verify`], which knows nothing about the solver).
    pub fn for_solution(sol: &Solution) -> Self {
        Self::feasible(if sol.integral {
            ScheduleKind::Integral
        } else {
            ScheduleKind::Fractional
        })
    }
}

/// Agreement tolerance for accuracy/energy (absolute, plus the same
/// factor relative).
const AGREEMENT_TOL: f64 = 1e-9;

/// KKT gain threshold relative to `Σ_j a_j^max`: a stationarity
/// violation is flagged only when the estimated achievable gain exceeds
/// `KKT_REL_TOL · max(1, Σ_j a_j^max)` — four orders of magnitude above
/// the profile search's own convergence tolerance (`REL_GAIN_TOL =
/// 1e-10`), so converged solves never trip it.
const KKT_REL_TOL: f64 = 1e-6;

/// Upper-bound / guarantee slack (absolute, plus the same factor
/// relative to the bound).
const BOUND_TOL: f64 = 1e-6;

/// The oracle: validates a [`Solution`] against its [`Instance`] under a
/// set of [`Claims`], at fixed tolerances (the ones the test suite holds
/// solvers to).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolutionOracle;

impl SolutionOracle {
    /// The oracle (it holds no state).
    pub fn new() -> Self {
        Self
    }

    /// Runs every applicable check; returns all violations found (empty
    /// `Err` never occurs — `Ok(())` means zero violations).
    pub fn verify(
        &self,
        inst: &Instance,
        sol: &Solution,
        claims: &Claims,
    ) -> Result<(), Vec<Violation>> {
        let mut out = Vec::new();

        // 1. Feasibility (Eq. 2–5 + single assignment for integral).
        if let Err(vs) = sol.schedule.validate(inst, claims.kind) {
            out.extend(vs.into_iter().map(Violation::Infeasible));
        }

        // 2. Agreement of the reported scalars with the schedule.
        let recomputed_acc = sol.schedule.total_accuracy(inst);
        let tol = AGREEMENT_TOL * (1.0 + recomputed_acc.abs());
        if (sol.total_accuracy - recomputed_acc).abs() > tol {
            out.push(Violation::AccuracyMismatch {
                reported: sol.total_accuracy,
                recomputed: recomputed_acc,
            });
        }
        let recomputed_energy = sol.schedule.energy(inst);
        let tol = AGREEMENT_TOL * (1.0 + recomputed_energy.abs());
        if (sol.energy - recomputed_energy).abs() > tol {
            out.push(Violation::EnergyMismatch {
                reported: sol.energy,
                recomputed: recomputed_energy,
            });
        }
        for j in 0..inst.num_tasks() {
            let recomputed = sol.schedule.flops(j, inst);
            let f_max = inst.task(j).accuracy.f_max();
            if (sol.flops[j] - recomputed).abs() > EPS_FLOPS + 1e-9 * f_max {
                out.push(Violation::FlopsMismatch {
                    task: j,
                    reported: sol.flops[j],
                    recomputed,
                });
            }
        }
        if claims.kind == ScheduleKind::Integral {
            self.check_assignment(inst, sol, &mut out);
        }

        // 3. Upper-bound consistency.
        if let Some(ub) = sol.upper_bound {
            if sol.total_accuracy > ub + BOUND_TOL * (1.0 + ub.abs()) {
                out.push(Violation::UpperBoundExceeded {
                    accuracy: sol.total_accuracy,
                    upper_bound: ub,
                });
            }
        }

        // 4. Optional optimality claims.
        if claims.kkt_stationary {
            self.check_kkt(inst, sol, &mut out);
        }
        if claims.approx_guarantee {
            if let Some(ub) = sol.upper_bound {
                let g = absolute_guarantee(inst);
                if ub - sol.total_accuracy > g + BOUND_TOL * (1.0 + g.abs()) {
                    out.push(Violation::GuaranteeViolated {
                        accuracy: sol.total_accuracy,
                        upper_bound: ub,
                        guarantee: g,
                    });
                }
            }
        }

        if out.is_empty() {
            Ok(())
        } else {
            Err(out)
        }
    }

    /// An integral solution's assignment vector must name exactly the
    /// machine carrying the task's time (tasks with no time may report
    /// anything — dropped tasks keep advisory assignments in some
    /// baselines).
    fn check_assignment(&self, inst: &Instance, sol: &Solution, out: &mut Vec<Violation>) {
        for j in 0..inst.num_tasks() {
            let total = sol.schedule.task_time(j);
            if total <= EPS_TIME {
                continue;
            }
            let actual = sol.schedule.assigned_machine(j);
            // Split tasks are already flagged by `validate(Integral)`.
            let holders = (0..inst.num_machines())
                .filter(|&r| sol.schedule.t(j, r) > EPS_TIME)
                .count();
            if holders == 1 && sol.assignment[j] != actual {
                out.push(Violation::AssignmentMismatch {
                    task: j,
                    reported: sol.assignment[j],
                    actual,
                });
            }
        }
    }

    /// KKT stationarity of a claimed fractional optimum (Eq. 8–10).
    ///
    /// At an FR optimum the marginal accuracy per joule,
    /// `θ_j(f_j) · E_r` with `E_r = s_r / P_r`, is equalized across every
    /// active (task, machine) pair, and no pair with deadline slack can
    /// absorb unspent budget at a positive rate. The check is first-order
    /// and *quantified*: a candidate improvement is flagged only when the
    /// accuracy it would actually buy — its rate times the transferable
    /// energy, capped by budget slack, EDF deadline slack, and the
    /// distance to the next PWL breakpoint (where the rate changes) —
    /// exceeds `KKT_REL_TOL · max(1, Σ_j a_j^max)`. Because the caps are
    /// exact within a PWL segment, a flagged gain is genuinely
    /// achievable: the check admits no false positives. `O(n·m)`.
    fn check_kkt(&self, inst: &Instance, sol: &Solution, out: &mut Vec<Violation>) {
        let n = inst.num_tasks();
        let m = inst.num_machines();
        if n == 0 || m == 0 {
            return;
        }
        let sched = &sol.schedule;
        let machines = inst.machines().machines();
        let gain_tol = KKT_REL_TOL * inst.total_max_accuracy().max(1.0);
        let slack_tol = EPS_TIME + 1e-9 * inst.d_max().abs();

        // Recomputed per-task work (don't trust `sol.flops` here; a
        // mismatch is reported separately).
        let f: Vec<f64> = (0..n).map(|j| sched.flops(j, inst)).collect();

        // Per machine: suffix-min over i ≥ j of (d_i − prefix_i). Adding
        // δt to task j on machine r stays EDF-feasible iff δt is below
        // this slack (every later prefix constraint shifts by δt).
        let mut slack = vec![0.0f64; n * m];
        let mut head = vec![0.0f64; n];
        for r in 0..m {
            let mut prefix = 0.0;
            for (j, h) in head.iter_mut().enumerate() {
                prefix += sched.t(j, r);
                *h = inst.task(j).deadline - prefix;
            }
            let mut run = f64::INFINITY;
            for j in (0..n).rev() {
                run = run.min(head[j]);
                slack[j * m + r] = run;
            }
        }

        let budget_slack = inst.budget() - sched.energy(inst);

        // Candidate sinks (could absorb energy at positive rate) and
        // sources (hold removable energy), each with the exact energy cap
        // its PWL segment + schedule admit.
        struct Flow {
            rate: f64,  // accuracy per joule
            cap_e: f64, // transferable joules at that exact rate
            task: usize,
            mach: usize,
        }
        let mut sinks: Vec<Flow> = Vec::new();
        let mut sources: Vec<Flow> = Vec::new();
        for j in 0..n {
            let acc = &inst.task(j).accuracy;
            let head_work = segment_head(acc.breakpoints(), f[j]);
            let back_work = segment_back(acc.breakpoints(), f[j]);
            // Chord slopes over the exact spans, not the pointwise
            // marginals: when `f` sits within float noise of a kink the
            // span crosses into the adjacent segment, and pairing the
            // steep near-side marginal with the far-side span would
            // overestimate. The chord is exact mid-segment and a
            // conservative bound (concavity) across a kink.
            let gain = if head_work > EPS_FLOPS {
                (acc.eval(f[j] + head_work) - acc.eval(f[j])) / head_work
            } else {
                0.0
            };
            let loss = if back_work > EPS_FLOPS {
                (acc.eval(f[j]) - acc.eval(f[j] - back_work)) / back_work
            } else {
                f64::INFINITY // nothing removable; rate is moot
            };
            for (r, mach) in machines.iter().enumerate() {
                let eff = mach.efficiency();
                if gain > 0.0 && head_work > EPS_FLOPS {
                    let s = slack[j * m + r];
                    if s > slack_tol {
                        sinks.push(Flow {
                            rate: gain * eff,
                            cap_e: (s * mach.power()).min(head_work / eff),
                            task: j,
                            mach: r,
                        });
                    }
                }
                let t_jr = sched.t(j, r);
                if t_jr > EPS_TIME && back_work > EPS_FLOPS {
                    sources.push(Flow {
                        rate: loss * eff,
                        cap_e: (t_jr * mach.power()).min(back_work / eff),
                        task: j,
                        mach: r,
                    });
                }
            }
        }

        // Case 1: unspent budget + an eager sink.
        if budget_slack > 0.0 {
            let mut best: Option<(f64, &Flow)> = None;
            for s in &sinks {
                let gain = s.rate * s.cap_e.min(budget_slack);
                if gain > best.as_ref().map_or(gain_tol, |b| b.0) {
                    best = Some((gain, s));
                }
            }
            if let Some((gain, s)) = best {
                out.push(Violation::KktNotStationary {
                    sink_task: s.task,
                    sink_machine: s.mach,
                    source: None,
                    estimated_gain: gain,
                });
                return; // one pinpointed counterexample suffices
            }
        }

        // Case 2: an energy transfer from a cheap source to an eager
        // sink. Checking the best-rate sink against every source and the
        // cheapest-rate source against every sink covers the extremal
        // pairs in O(n·m) (concavity makes extremal pairs the binding
        // ones; any flagged pair is a genuine counterexample).
        let best_sink = sinks
            .iter()
            .max_by(|a, b| a.rate.total_cmp(&b.rate).then(a.cap_e.total_cmp(&b.cap_e)));
        let cheap_source = sources
            .iter()
            .min_by(|a, b| a.rate.total_cmp(&b.rate).then(b.cap_e.total_cmp(&a.cap_e)));
        let mut best_pair: Option<(f64, &Flow, &Flow)> = None;
        fn consider<'a>(
            sink: &'a Flow,
            source: &'a Flow,
            floor: f64,
            best: &mut Option<(f64, &'a Flow, &'a Flow)>,
        ) {
            if sink.task == source.task && sink.mach == source.mach {
                return;
            }
            let gain = (sink.rate - source.rate) * sink.cap_e.min(source.cap_e);
            if gain > best.as_ref().map_or(floor, |b| b.0) {
                *best = Some((gain, sink, source));
            }
        }
        if let Some(bs) = best_sink {
            for src in &sources {
                consider(bs, src, gain_tol, &mut best_pair);
            }
        }
        if let Some(cs) = cheap_source {
            for sink in &sinks {
                consider(sink, cs, gain_tol, &mut best_pair);
            }
        }
        if let Some((gain, sink, source)) = best_pair {
            out.push(Violation::KktNotStationary {
                sink_task: sink.task,
                sink_machine: sink.mach,
                source: Some((source.task, source.mach)),
                estimated_gain: gain,
            });
        }
    }
}

/// Work to the next PWL breakpoint strictly above `f` (0 at/after the
/// last breakpoint): the span over which `marginal_gain(f)` stays exact.
fn segment_head(breakpoints: &[f64], f: f64) -> f64 {
    for &bp in breakpoints {
        if bp > f + 1e-12 {
            return bp - f;
        }
    }
    0.0
}

/// Work back to the previous PWL breakpoint strictly below `f` (0 at or
/// before the first): the span over which `marginal_loss(f)` stays exact.
fn segment_back(breakpoints: &[f64], f: f64) -> f64 {
    let mut back = 0.0;
    for &bp in breakpoints {
        if bp < f - 1e-12 {
            back = f - bp;
        } else {
            break;
        }
    }
    back
}

/// Standalone verification with the weakest claims a solution's own
/// flags imply (feasibility, agreement, upper-bound consistency).
/// Solver-specific optimality claims are checked through
/// [`SolutionOracle::verify`] with explicit [`Claims`].
pub fn verify(inst: &Instance, sol: &Solution) -> Result<(), Vec<Violation>> {
    SolutionOracle::new().verify(inst, sol, &Claims::for_solution(sol))
}

/// Verifies and panics with a pinpointed report on failure, dumping the
/// instance for the regression corpus first. Called by the solver
/// wrappers when `SolverOptions::check_invariants` is on.
pub fn enforce(inst: &Instance, sol: &Solution, claims: &Claims, label: &str) {
    if let Err(violations) = SolutionOracle::new().verify(inst, sol, claims) {
        let dumped = dump_instance(inst, label)
            .map(|p| format!("\ninstance dumped to {}", p.display()))
            .unwrap_or_default();
        let list: Vec<String> = violations.iter().map(|v| format!("  - {v}")).collect();
        panic!(
            "solution oracle: {} violation(s) from {label}:\n{}{dumped}",
            violations.len(),
            list.join("\n"),
        );
    }
}

/// Serializes an instance to the corpus JSON schema (handrolled — no
/// JSON dependency in this crate; `{:?}` floats round-trip exactly):
///
/// ```json
/// {
///   "label": "...",
///   "budget": 40.0,
///   "machines": [{"speed": 2000.0, "power": 80.0}],
///   "tasks": [{"deadline": 0.3, "points": [[0.0, 0.0], [300.0, 0.5]]}]
/// }
/// ```
pub fn instance_to_json(inst: &Instance, label: &str) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(s, "{{\n  \"label\": \"{}\",", escape_json(label));
    let _ = write!(s, "\n  \"budget\": {:?},", inst.budget());
    s.push_str("\n  \"machines\": [");
    for (r, mach) in inst.machines().machines().iter().enumerate() {
        if r > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"speed\": {:?}, \"power\": {:?}}}",
            mach.speed(),
            mach.power()
        );
    }
    s.push_str("\n  ],\n  \"tasks\": [");
    for (j, task) in inst.tasks().iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"deadline\": {:?}, \"points\": [",
            task.deadline
        );
        let acc = &task.accuracy;
        for (k, (&bp, &val)) in acc.breakpoints().iter().zip(acc.values()).enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "[{:?}, {:?}]", bp, val);
        }
        s.push_str("]}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Writes the instance to the oracle-violation artifact directory
/// (`DSCT_ORACLE_DUMP_DIR`, default `target/oracle-violations/`); the
/// filename is a content hash, so identical instances dedupe and nothing
/// time-dependent enters the replay path. Returns `None` (silently) when
/// the directory cannot be written — verification must not fail because
/// artifact capture did.
pub fn dump_instance(inst: &Instance, label: &str) -> Option<std::path::PathBuf> {
    write_dump(instance_to_json(inst, label), label)
}

/// Shared artifact writer for [`dump_instance`] / [`dump_staged_instance`]:
/// content-hash filename (FNV-1a over the JSON bytes) under
/// `DSCT_ORACLE_DUMP_DIR`, default `target/oracle-violations/`.
fn write_dump(json: String, label: &str) -> Option<std::path::PathBuf> {
    let dir = std::env::var_os("DSCT_ORACLE_DUMP_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/oracle-violations"));
    std::fs::create_dir_all(&dir).ok()?;
    let mut hash: u64 = 0xcbf29ce484222325; // FNV-1a over the JSON bytes
    for &b in json.as_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    let safe: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = dir.join(format!("{safe}-{hash:016x}.json"));
    std::fs::write(&path, json).ok()?;
    Some(path)
}

/// JSON string escaping for handrolled serializers (JSON rejects
/// Rust-style `\u{…}` escapes; non-ASCII passes through as UTF-8).
fn escape_json(label: &str) -> String {
    use std::fmt::Write as _;
    let mut escaped = String::with_capacity(label.len());
    for c in label.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(escaped, "\\u{:04x}", c as u32);
            }
            c => escaped.push(c),
        }
    }
    escaped
}

/// Verifies a staged solution (DESIGN §17) in two layers.
///
/// The staged layer ([`StagedSchedule::validate`] and the work vector)
/// checks what the flat model cannot see: shape, finite placements at
/// each machine's selected operating point, precedence,
/// stage-release-adjusted deadlines, per-machine non-overlap, per-stage
/// work caps, and `stage_work` against the placements.
///
/// The flat layer projects the timed schedule onto the lowered instance
/// — `t_jr` is the sum of task `j`'s stage durations on machine `r` — and
/// runs [`SolutionOracle::verify`] on the projection with integral claims
/// and the solution's certified bound: negative times, the task-level EDF
/// prefix, the budget, one machine per task, and `SOL ≤ UB`. The
/// projection prices every placement at its machine's selected point, so
/// it runs only when the staged layer found every placement finite and
/// there. `inst` must be the instance `sol` was solved on: it lowered
/// then, so it lowers here.
pub fn verify_staged(
    inst: &StagedInstance,
    sol: &StagedSolution,
) -> Result<(), Vec<StagedViolation>> {
    let mut out = sol.schedule.validate(inst).err().unwrap_or_default();
    if out
        .iter()
        .any(|v| matches!(v, StagedViolation::ShapeMismatch { .. }))
    {
        // Per-stage recomputation needs a matching shape.
        return Err(out);
    }

    if sol.stage_work.len() != inst.num_tasks()
        || sol
            .stage_work
            .iter()
            .zip(inst.tasks())
            .any(|(w, t)| w.len() != t.num_stages())
    {
        out.push(StagedViolation::ShapeMismatch {
            got: sol.stage_work.iter().map(Vec::len).sum(),
            want: inst.tasks().iter().map(StagedTask::num_stages).sum(),
        });
    } else {
        for j in 0..inst.num_tasks() {
            for v in 0..inst.task(j).num_stages() {
                let recomputed = sol.schedule.work(inst, j, v);
                let cap = inst.task(j).stages[v].accuracy.f_max();
                if (sol.stage_work[j][v] - recomputed).abs() > EPS_FLOPS + 1e-9 * cap {
                    out.push(StagedViolation::WorkMismatch {
                        task: j,
                        stage: v,
                        reported: sol.stage_work[j][v],
                        recomputed,
                    });
                }
            }
        }
    }

    let projectable = !out.iter().any(|v| {
        matches!(
            v,
            StagedViolation::InvalidPlacement { .. } | StagedViolation::OffSelectedPoint { .. }
        )
    });
    if projectable {
        let lowered = inst
            .lowered()
            .expect("the instance a staged solution was solved on lowers");
        let projected = projection(&lowered, &sol.schedule, sol.upper_bound());
        let claims = Claims::feasible(ScheduleKind::Integral);
        if let Err(vs) = SolutionOracle::new().verify(&lowered, &projected, &claims) {
            out.extend(
                vs.into_iter()
                    // The lowered cap is the equalizing split's total work;
                    // a stage may run past its share up to its own cap,
                    // which the staged layer checks.
                    .filter(|v| {
                        !matches!(
                            v,
                            Violation::Infeasible(FeasibilityViolation::WorkExceeded { .. })
                        )
                    })
                    .map(StagedViolation::Projected),
            );
        }
    }

    if out.is_empty() {
        Ok(())
    } else {
        Err(out)
    }
}

/// The flat solution a staged schedule induces on the lowered instance:
/// `t_jr` sums task `j`'s stage durations on machine `r`, and every number
/// the flat oracle compares with the schedule is read off it.
fn projection(lowered: &Instance, schedule: &StagedSchedule, upper_bound: Option<f64>) -> Solution {
    let n = lowered.num_tasks();
    let mut t = FractionalSchedule::zero(n, lowered.num_machines());
    for (j, stages) in schedule.placements().iter().enumerate() {
        for p in stages {
            *t.t_mut(j, p.machine) += p.duration;
        }
    }
    Solution {
        flops: (0..n).map(|j| t.flops(j, lowered)).collect(),
        assignment: (0..n).map(|j| t.assigned_machine(j)).collect(),
        integral: true,
        total_accuracy: t.total_accuracy(lowered),
        energy: t.energy(lowered),
        upper_bound,
        stats: SolveStats::default(),
        schedule: t,
    }
}

/// Staged counterpart of [`enforce`]: verifies and panics with a
/// pinpointed report on failure, dumping the staged instance for the
/// regression corpus first.
pub fn enforce_staged(inst: &StagedInstance, sol: &StagedSolution, label: &str) {
    if let Err(violations) = verify_staged(inst, sol) {
        let dumped = dump_staged_instance(inst, label)
            .map(|p| format!("\ninstance dumped to {}", p.display()))
            .unwrap_or_default();
        let list: Vec<String> = violations.iter().map(|v| format!("  - {v}")).collect();
        panic!(
            "staged oracle: {} violation(s) from {label}:\n{}{dumped}",
            violations.len(),
            list.join("\n"),
        );
    }
}

/// Serializes a staged instance to the staged corpus JSON schema
/// (handrolled, `{:?}` floats round-trip exactly):
///
/// ```json
/// {
///   "label": "...",
///   "budget": 40.0,
///   "machines": [{"points": [{"speed": 2000.0, "power": 80.0}]}],
///   "tasks": [{
///     "deadline": 0.8,
///     "stages": [{"preds": [], "points": [[0.0, 0.0], [300.0, 0.5]]},
///                {"preds": [0], "points": [[0.0, 0.0], [300.0, 0.5]]}]
///   }]
/// }
/// ```
pub fn staged_instance_to_json(inst: &StagedInstance, label: &str) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(s, "{{\n  \"label\": \"{}\",", escape_json(label));
    let _ = write!(s, "\n  \"budget\": {:?},", inst.budget());
    s.push_str("\n  \"machines\": [");
    for (r, mach) in inst.park().machines().iter().enumerate() {
        if r > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"points\": [");
        for (p, point) in mach.points().iter().enumerate() {
            if p > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"speed\": {:?}, \"power\": {:?}}}",
                point.speed(),
                point.power()
            );
        }
        s.push_str("]}");
    }
    s.push_str("\n  ],\n  \"tasks\": [");
    for (j, task) in inst.tasks().iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"deadline\": {:?}, \"stages\": [",
            task.deadline
        );
        for (v, stage) in task.stages.iter().enumerate() {
            if v > 0 {
                s.push(',');
            }
            s.push_str("\n      {\"preds\": [");
            for (i, &p) in stage.preds.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{p}");
            }
            s.push_str("], \"points\": [");
            let acc = &stage.accuracy;
            for (k, (&bp, &val)) in acc.breakpoints().iter().zip(acc.values()).enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[{:?}, {:?}]", bp, val);
            }
            s.push_str("]}");
        }
        s.push_str("\n    ]}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Staged counterpart of [`dump_instance`]: writes the staged instance
/// to the oracle-violation artifact directory with a content-hash
/// filename. Returns `None` (silently) when the directory cannot be
/// written.
pub fn dump_staged_instance(inst: &StagedInstance, label: &str) -> Option<std::path::PathBuf> {
    write_dump(staged_instance_to_json(inst, label), label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Task;
    use crate::solver::{ApproxSolver, FrOptSolver, Solver};
    use dsct_accuracy::PwlAccuracy;
    use dsct_machines::{Machine, MachinePark};

    fn acc(points: &[(f64, f64)]) -> PwlAccuracy {
        PwlAccuracy::new(points).unwrap()
    }

    fn instance() -> Instance {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2000.0, 80.0).unwrap(),
            Machine::from_efficiency(5000.0, 70.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(0.3, acc(&[(0.0, 0.0), (300.0, 0.5), (900.0, 0.8)])),
            Task::new(0.8, acc(&[(0.0, 0.0), (500.0, 0.4), (1200.0, 0.7)])),
            Task::new(1.5, acc(&[(0.0, 0.0), (250.0, 0.6), (600.0, 0.82)])),
        ];
        Instance::new(tasks, park, 40.0).unwrap()
    }

    #[test]
    fn fr_opt_passes_the_full_oracle_including_kkt() {
        let inst = instance();
        let sol = FrOptSolver::new().solve(&inst).unwrap();
        SolutionOracle::new()
            .verify(&inst, &sol, &Claims::fr_optimal())
            .unwrap_or_else(|vs| panic!("{vs:?}"));
    }

    #[test]
    fn approx_passes_the_oracle_with_the_guarantee_claim() {
        let inst = instance();
        let sol = ApproxSolver::new().solve(&inst).unwrap();
        SolutionOracle::new()
            .verify(&inst, &sol, &Claims::approx())
            .unwrap_or_else(|vs| panic!("{vs:?}"));
    }

    #[test]
    fn standalone_verify_accepts_valid_solutions() {
        let inst = instance();
        let sol = ApproxSolver::new().solve(&inst).unwrap();
        verify(&inst, &sol).unwrap();
    }

    #[test]
    fn kkt_flags_a_starved_schedule_with_unspent_budget() {
        // A zeroed schedule under a generous budget is wildly
        // non-stationary: every task could absorb energy.
        let inst = instance();
        let mut sol = FrOptSolver::new().solve(&inst).unwrap();
        for j in 0..inst.num_tasks() {
            for r in 0..inst.num_machines() {
                sol.schedule.set_t(j, r, 0.0);
            }
            sol.flops[j] = 0.0;
        }
        sol.total_accuracy = 0.0;
        sol.energy = 0.0;
        sol.upper_bound = None;
        let err = SolutionOracle::new()
            .verify(&inst, &sol, &Claims::fr_optimal())
            .unwrap_err();
        assert!(
            err.iter()
                .any(|v| matches!(v, Violation::KktNotStationary { source: None, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn kkt_flags_an_unbalanced_transfer() {
        // Force all budget onto the last task (latest deadline) on the
        // efficient machine; the earlier steep tasks are starved, so
        // moving energy to them is a first-order win.
        let inst = instance();
        let mut sol = FrOptSolver::new().solve(&inst).unwrap();
        let budget = inst.budget();
        let r = 1; // 5000 GFLOPS / 70 W
        let t_all = budget / inst.machines().get(r).power();
        for j in 0..inst.num_tasks() {
            for q in 0..inst.num_machines() {
                sol.schedule.set_t(j, q, 0.0);
            }
        }
        // Keep it feasible: spend within task 2's 1.5 s deadline.
        let t = t_all.min(1.4);
        sol.schedule.set_t(2, r, t);
        for j in 0..inst.num_tasks() {
            sol.flops[j] = sol.schedule.flops(j, &inst);
            sol.assignment[j] = sol.schedule.assigned_machine(j);
        }
        sol.total_accuracy = sol.schedule.total_accuracy(&inst);
        sol.energy = sol.schedule.energy(&inst);
        sol.upper_bound = None;
        let err = SolutionOracle::new()
            .verify(&inst, &sol, &Claims::fr_optimal())
            .unwrap_err();
        assert!(
            err.iter()
                .any(|v| matches!(v, Violation::KktNotStationary { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn json_dump_is_stable_and_labeled() {
        let inst = instance();
        let a = instance_to_json(&inst, "edge");
        let b = instance_to_json(&inst, "edge");
        assert_eq!(a, b);
        assert!(a.contains("\"label\": \"edge\""));
        assert!(a.contains("\"budget\": 40.0"));
        assert!(a.contains("\"speed\": 2000.0"));
    }

    #[test]
    fn segment_spans() {
        let bps = [0.0, 300.0, 900.0];
        assert!((segment_head(&bps, 0.0) - 300.0).abs() < 1e-12);
        assert!((segment_head(&bps, 100.0) - 200.0).abs() < 1e-12);
        assert!((segment_head(&bps, 300.0) - 600.0).abs() < 1e-12);
        assert_eq!(segment_head(&bps, 900.0), 0.0);
        assert_eq!(segment_back(&bps, 0.0), 0.0);
        assert!((segment_back(&bps, 100.0) - 100.0).abs() < 1e-12);
        assert!((segment_back(&bps, 300.0) - 300.0).abs() < 1e-12);
        assert!((segment_back(&bps, 1000.0) - 100.0).abs() < 1e-12);
    }
}
