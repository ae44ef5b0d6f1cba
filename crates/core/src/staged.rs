//! Multi-stage precedence tasks on speed-scaling machines (DESIGN §17).
//!
//! This module generalizes the paper's flat instance model along the two
//! axes the related work grounds:
//!
//! - **Stage DAGs** (Bampis et al., *Energy Efficient Scheduling of
//!   MapReduce Jobs*): a task is a small DAG of compressible stages,
//!   each with its own concave PWL accuracy curve and work range
//!   `[0, f_v^max]`. The task's accuracy is the **minimum** over its
//!   stages (an inference pipeline is only as good as its weakest
//!   stage), and a precedence edge `u → v` constrains stage `v` to start
//!   at or after stage `u` finishes.
//! - **DVFS operating points** (Agrawal & Rao, *Scheduling Under Power
//!   and Energy Constraints*): each machine exposes a catalog of
//!   (speed, power) operating points and every stage placement names the
//!   point it runs at.
//!
//! **The feasibility transform.** Under the min rule the optimal split of
//! a task's total work `F` across its stages equalizes stage accuracies,
//! so each task *lowers* to a single flat task with the combined curve
//! [`dsct_accuracy::min_combine`] — bit-exactly its own curve for
//! single-stage tasks — and each machine lowers to its min-energy-per-work
//! operating point ([`DvfsMachine::selected_index`], ties broken via
//! `total_cmp`). The flat solvers run unchanged on the lowered
//! [`Instance`]; the resulting EDF schedule is *realized* back into timed
//! stage placements (stages of a task back-to-back on its machine, in
//! topological order), which satisfies every precedence edge by
//! construction. Conversely, any timed staged schedule that keeps each
//! task on one machine at its selected point projects onto a flat
//! schedule of the lowered instance (`t_jr` = the sum of task `j`'s stage
//! durations on machine `r`) that is EDF-prefix feasible — placements
//! finishing by `D` occupy disjoint slices of `[0, D]` — so the lowered
//! fractional optimum upper-bounds every such staged schedule.
//!
//! **Stage-release-adjusted deadlines.** A stage whose successors still
//! need `tail(v)` seconds (the longest chain of successor durations) must
//! itself finish by the *adjusted deadline* `d_j − tail(v)`. No prefix
//! check over adjusted deadlines is needed: placements on one machine do
//! not overlap, start at or after 0 and each finish by their adjusted
//! deadline, so those with adjusted deadline ≤ `D` fit inside `[0, D]`.
//!
//! **A staged solution is a flat solve plus a realization.**
//! [`StagedSolution`] stores the schedule, the per-stage work and the
//! flat solve; its accuracy, energy and bound are derived from them.
//! [`oracle::verify_staged`](crate::oracle::verify_staged) checks the
//! projection with the flat [`SolutionOracle`](crate::oracle::SolutionOracle)
//! (budget, task-level EDF prefix, one machine per task, `SOL ≤ UB`) and
//! keeps only what the flat model cannot see in [`StagedViolation`]:
//! shape, placements, selected-point membership, precedence, adjusted
//! deadlines, non-overlap, per-stage work caps and the work vector.
//! `tests/oracle_mutation.rs` proves the checks are not vacuous.

use crate::oracle::Violation;
use crate::problem::{Instance, ProblemError, Task};
use crate::solver::{ApproxSolver, Solution, SolveError, Solver, SolverContext, SolverOptions};
use crate::{EPS_FLOPS, EPS_TIME};
use dsct_accuracy::{min_combine, AccuracyError, PwlAccuracy};
use dsct_machines::{DvfsMachine, DvfsPark, MachineError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors constructing or lowering a staged instance.
#[derive(Debug, Clone, PartialEq)]
pub enum StagedError {
    /// An instance needs at least one task.
    NoTasks,
    /// A task needs at least one stage.
    NoStages {
        /// Task index (construction order).
        task: usize,
    },
    /// A precedence edge must point at an earlier stage index
    /// (topological indexing keeps the DAG acyclic by construction).
    BadPredecessor {
        /// Task index.
        task: usize,
        /// Stage holding the bad edge.
        stage: usize,
        /// The offending predecessor index.
        pred: usize,
    },
    /// Deadlines must be finite and positive.
    InvalidDeadline {
        /// Task index.
        task: usize,
        /// The offending deadline.
        deadline: f64,
    },
    /// The energy budget must be finite and non-negative.
    InvalidBudget(f64),
    /// Machine/park construction failed.
    Machine(MachineError),
    /// Combining stage curves failed.
    Accuracy(AccuracyError),
    /// The lowered flat instance failed validation.
    Lowering(ProblemError),
    /// The embedded flat solve failed.
    Solve(SolveError),
}

impl fmt::Display for StagedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StagedError::NoTasks => write!(f, "instance has no tasks"),
            StagedError::NoStages { task } => write!(f, "task {task} has no stages"),
            StagedError::BadPredecessor { task, stage, pred } => write!(
                f,
                "task {task} stage {stage}: predecessor {pred} is not an earlier stage"
            ),
            StagedError::InvalidDeadline { task, deadline } => {
                write!(f, "task {task}: invalid deadline {deadline}")
            }
            StagedError::InvalidBudget(b) => write!(f, "invalid energy budget {b}"),
            StagedError::Machine(e) => write!(f, "machine error: {e}"),
            StagedError::Accuracy(e) => write!(f, "accuracy error: {e}"),
            StagedError::Lowering(e) => write!(f, "lowered instance invalid: {e}"),
            StagedError::Solve(e) => write!(f, "embedded flat solve failed: {e}"),
        }
    }
}

impl std::error::Error for StagedError {}

impl From<MachineError> for StagedError {
    fn from(e: MachineError) -> Self {
        StagedError::Machine(e)
    }
}

impl From<AccuracyError> for StagedError {
    fn from(e: AccuracyError) -> Self {
        StagedError::Accuracy(e)
    }
}

/// One compressible stage of a task: an accuracy curve over the stage's
/// own work range `[0, f_v^max]` plus the precedence edges into it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Concave PWL accuracy over the stage's work (GFLOP).
    pub accuracy: PwlAccuracy,
    /// Indices of predecessor stages within the same task; each must be
    /// strictly smaller than this stage's own index.
    pub preds: Vec<usize>,
}

impl Stage {
    /// A stage with no predecessors.
    pub fn new(accuracy: PwlAccuracy) -> Self {
        Self {
            accuracy,
            preds: Vec::new(),
        }
    }

    /// A stage with explicit predecessor edges.
    pub fn with_preds(accuracy: PwlAccuracy, preds: Vec<usize>) -> Self {
        Self { accuracy, preds }
    }
}

/// A task as a DAG of compressible stages sharing one deadline.
///
/// Stage indices are a topological order: every predecessor index is
/// strictly smaller than the stage's own, so the DAG is acyclic by
/// construction. Task accuracy is `min_v a_v(f_v)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagedTask {
    /// Deadline in seconds (shared by every stage).
    pub deadline: f64,
    /// The stages, topologically indexed.
    pub stages: Vec<Stage>,
}

impl StagedTask {
    /// A single-stage task — the flat model's task, embedded.
    pub fn single(deadline: f64, accuracy: PwlAccuracy) -> Self {
        Self {
            deadline,
            stages: vec![Stage::new(accuracy)],
        }
    }

    /// A chain `v_0 → v_1 → … → v_{k-1}` (map→reduce style pipeline).
    pub fn chain(deadline: f64, curves: Vec<PwlAccuracy>) -> Self {
        let stages = curves
            .into_iter()
            .enumerate()
            .map(|(v, accuracy)| {
                if v == 0 {
                    Stage::new(accuracy)
                } else {
                    Stage::with_preds(accuracy, vec![v - 1])
                }
            })
            .collect();
        Self { deadline, stages }
    }

    /// A fan-in: independent source stages all feeding one sink stage.
    pub fn fan_in(deadline: f64, sources: Vec<PwlAccuracy>, sink: PwlAccuracy) -> Self {
        let n_src = sources.len();
        let mut stages: Vec<Stage> = sources.into_iter().map(Stage::new).collect();
        stages.push(Stage::with_preds(sink, (0..n_src).collect()));
        Self { deadline, stages }
    }

    /// Number of stages.
    #[inline]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The task's effective single-stage curve under the min rule
    /// ([`min_combine`]); bit-exactly the stage's own curve when the
    /// task has one stage.
    pub fn combined_accuracy(&self) -> Result<PwlAccuracy, AccuracyError> {
        let curves: Vec<PwlAccuracy> = self.stages.iter().map(|s| s.accuracy.clone()).collect();
        min_combine(&curves)
    }

    fn validate(&self, task: usize) -> Result<(), StagedError> {
        if self.stages.is_empty() {
            return Err(StagedError::NoStages { task });
        }
        if !(self.deadline.is_finite() && self.deadline > 0.0) {
            return Err(StagedError::InvalidDeadline {
                task,
                deadline: self.deadline,
            });
        }
        for (v, stage) in self.stages.iter().enumerate() {
            for &p in &stage.preds {
                if p >= v {
                    return Err(StagedError::BadPredecessor {
                        task,
                        stage: v,
                        pred: p,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A staged DSCT-EA instance: stage-DAG tasks (sorted by non-decreasing
/// deadline), a park of speed-scaling machines, and the shared energy
/// budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagedInstance {
    tasks: Vec<StagedTask>,
    park: DvfsPark,
    budget: f64,
}

impl StagedInstance {
    /// Validates and wraps an instance, sorting tasks by deadline first
    /// (stable, `total_cmp` — the same order [`Instance::new_sorting`]
    /// would produce, so lowered task indices line up).
    pub fn new_sorting(
        mut tasks: Vec<StagedTask>,
        park: DvfsPark,
        budget: f64,
    ) -> Result<Self, StagedError> {
        if tasks.is_empty() {
            return Err(StagedError::NoTasks);
        }
        for (j, task) in tasks.iter().enumerate() {
            task.validate(j)?;
        }
        if !(budget.is_finite() && budget >= 0.0) {
            return Err(StagedError::InvalidBudget(budget));
        }
        tasks.sort_by(|a, b| a.deadline.total_cmp(&b.deadline));
        Ok(Self {
            tasks,
            park,
            budget,
        })
    }

    /// Embeds a flat instance: every task becomes single-stage, every
    /// machine a single-point catalog. Lowering the result reproduces
    /// `inst` exactly.
    pub fn from_flat(inst: &Instance) -> Self {
        Self {
            tasks: inst
                .tasks()
                .iter()
                .map(|t| StagedTask::single(t.deadline, t.accuracy.clone()))
                .collect(),
            park: DvfsPark::from_park(inst.machines()),
            budget: inst.budget(),
        }
    }

    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of machines.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.park.len()
    }

    /// The tasks in deadline order.
    #[inline]
    pub fn tasks(&self) -> &[StagedTask] {
        &self.tasks
    }

    /// Task `j` (deadline order).
    #[inline]
    pub fn task(&self, j: usize) -> &StagedTask {
        &self.tasks[j]
    }

    /// The speed-scaling machine park.
    #[inline]
    pub fn park(&self) -> &DvfsPark {
        &self.park
    }

    /// The energy budget in joules.
    #[inline]
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The feasibility transform: the flat [`Instance`] whose solutions
    /// realize back into staged schedules (see module docs). Task `j`
    /// lowers to its combined min-rule curve under the same deadline;
    /// machine `r` lowers to its selected operating point. For an
    /// embedded flat instance ([`StagedInstance::from_flat`]) this is the
    /// identity, bit for bit.
    pub fn lowered(&self) -> Result<Instance, StagedError> {
        let tasks: Vec<Task> = self
            .tasks
            .iter()
            .map(|t| Ok(Task::new(t.deadline, t.combined_accuracy()?)))
            .collect::<Result<_, AccuracyError>>()?;
        Instance::new(tasks, self.park.selected_park(), self.budget).map_err(StagedError::Lowering)
    }
}

/// Where and when one stage runs: a machine, an operating point from its
/// catalog, and a closed time window `[start, start + duration]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StagePlacement {
    /// Machine index.
    pub machine: usize,
    /// Operating-point index within the machine's catalog.
    pub point: usize,
    /// Start time in seconds.
    pub start: f64,
    /// Processing duration in seconds (work = speed × duration).
    pub duration: f64,
}

impl StagePlacement {
    /// Finish time `start + duration`.
    #[inline]
    pub fn finish(&self) -> f64 {
        self.start + self.duration
    }
}

/// One pinpointed invariant breach in a staged schedule or solution: a
/// check the flat model cannot see, or a flat [`Violation`] of the
/// schedule's projection onto the lowered instance.
#[derive(Debug, Clone, PartialEq)]
pub enum StagedViolation {
    /// The schedule's shape does not match the instance (task or stage
    /// counts differ).
    ShapeMismatch {
        /// Tasks × stages the schedule carries.
        got: usize,
        /// Tasks × stages the instance requires.
        want: usize,
    },
    /// A placement has a negative or non-finite start/duration.
    InvalidPlacement {
        /// Task index.
        task: usize,
        /// Stage index.
        stage: usize,
        /// The placement's start.
        start: f64,
        /// The placement's duration.
        duration: f64,
    },
    /// A placement does not run at its machine's selected operating
    /// point — the one the lowering priced — whether the point is a
    /// dominated catalog entry or outside the catalog (or the machine
    /// outside the park).
    OffSelectedPoint {
        /// Task index.
        task: usize,
        /// Stage index.
        stage: usize,
        /// Machine the placement names.
        machine: usize,
        /// Operating-point index the placement names.
        point: usize,
    },
    /// A stage starts before one of its predecessors finishes.
    PrecedenceViolated {
        /// Task index.
        task: usize,
        /// The stage that jumped the gun.
        stage: usize,
        /// The predecessor it did not wait for.
        pred: usize,
        /// The stage's start time.
        start: f64,
        /// The predecessor's finish time.
        pred_finish: f64,
    },
    /// A stage finishes after its stage-release-adjusted deadline
    /// `d_j − tail(v)` (`tail` = the longest chain of successor
    /// durations still to run). With no successors this is the plain
    /// task deadline.
    StageDeadlineExceeded {
        /// Task index.
        task: usize,
        /// Stage index.
        stage: usize,
        /// The stage's finish time.
        finish: f64,
        /// The adjusted deadline it had to meet.
        adjusted_deadline: f64,
    },
    /// Two placements overlap in time on the same machine.
    MachineOverlap {
        /// Machine index.
        machine: usize,
        /// Earlier-starting `(task, stage)`.
        first: (usize, usize),
        /// The placement that starts before `first` finishes.
        second: (usize, usize),
    },
    /// A stage was allotted more work than its curve can use
    /// (per-stage work cap `f_v^max`).
    StageWorkExceeded {
        /// Task index.
        task: usize,
        /// Stage index.
        stage: usize,
        /// Work implied by the placement (GFLOP).
        work: f64,
        /// The stage's cap `f_v^max`.
        cap: f64,
    },
    /// The solver's per-stage work vector disagrees with the schedule.
    WorkMismatch {
        /// Task index.
        task: usize,
        /// Stage index.
        stage: usize,
        /// Work the solver reported (GFLOP).
        reported: f64,
        /// Work recomputed from the placement (GFLOP).
        recomputed: f64,
    },
    /// The flat oracle's verdict on the schedule's projection onto the
    /// lowered instance: a negative time, a task-level EDF prefix
    /// overflow, the budget, a task split across machines, or `SOL > UB`.
    Projected(Violation),
}

impl fmt::Display for StagedViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StagedViolation::ShapeMismatch { got, want } => {
                write!(f, "schedule shape mismatch: {got} placements, want {want}")
            }
            StagedViolation::InvalidPlacement {
                task,
                stage,
                start,
                duration,
            } => write!(
                f,
                "task {task} stage {stage}: invalid placement start {start} duration {duration}"
            ),
            StagedViolation::OffSelectedPoint {
                task,
                stage,
                machine,
                point,
            } => write!(
                f,
                "task {task} stage {stage}: point {point} is not machine {machine}'s \
                 selected operating point"
            ),
            StagedViolation::PrecedenceViolated {
                task,
                stage,
                pred,
                start,
                pred_finish,
            } => write!(
                f,
                "task {task}: stage {stage} starts at {start} before predecessor {pred} \
                 finishes at {pred_finish}"
            ),
            StagedViolation::StageDeadlineExceeded {
                task,
                stage,
                finish,
                adjusted_deadline,
            } => write!(
                f,
                "task {task} stage {stage}: finish {finish} exceeds the \
                 stage-release-adjusted deadline {adjusted_deadline}"
            ),
            StagedViolation::MachineOverlap {
                machine,
                first,
                second,
            } => write!(
                f,
                "machine {machine}: task {} stage {} overlaps task {} stage {}",
                first.0, first.1, second.0, second.1
            ),
            StagedViolation::StageWorkExceeded {
                task,
                stage,
                work,
                cap,
            } => write!(
                f,
                "task {task} stage {stage}: work {work} GFLOP exceeds the stage cap {cap}"
            ),
            StagedViolation::WorkMismatch {
                task,
                stage,
                reported,
                recomputed,
            } => write!(
                f,
                "task {task} stage {stage}: reported work {reported} GFLOP disagrees \
                 with recomputed {recomputed}"
            ),
            StagedViolation::Projected(v) => write!(f, "projected flat schedule: {v}"),
        }
    }
}

/// A timed staged schedule: one [`StagePlacement`] per stage of every
/// task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagedSchedule {
    placements: Vec<Vec<StagePlacement>>,
}

impl StagedSchedule {
    /// Wraps explicit placements (shape is validated by
    /// [`StagedSchedule::validate`], not here — mutation tests build
    /// deliberately broken schedules).
    pub fn new(placements: Vec<Vec<StagePlacement>>) -> Self {
        Self { placements }
    }

    /// The all-idle schedule: every stage on machine 0's selected point
    /// with zero duration.
    pub fn zero(inst: &StagedInstance) -> Self {
        let point = inst.park().machines()[0].selected_index();
        Self {
            placements: inst
                .tasks()
                .iter()
                .map(|t| {
                    vec![
                        StagePlacement {
                            machine: 0,
                            point,
                            start: 0.0,
                            duration: 0.0,
                        };
                        t.num_stages()
                    ]
                })
                .collect(),
        }
    }

    /// The placements, `[task][stage]`.
    #[inline]
    pub fn placements(&self) -> &[Vec<StagePlacement>] {
        &self.placements
    }

    /// Placement of task `j`, stage `v`.
    #[inline]
    pub fn placement(&self, j: usize, v: usize) -> StagePlacement {
        self.placements[j][v]
    }

    /// Mutable placement access (fault-injection tests).
    #[inline]
    pub fn placement_mut(&mut self, j: usize, v: usize) -> &mut StagePlacement {
        &mut self.placements[j][v]
    }

    /// The operating point a placement runs at, if it exists in the
    /// park's catalog.
    fn point_of(
        &self,
        inst: &StagedInstance,
        j: usize,
        v: usize,
    ) -> Option<dsct_machines::Machine> {
        let p = &self.placements[j][v];
        inst.park().get(p.machine).and_then(|m| m.point(p.point))
    }

    /// Work stage `v` of task `j` performs (GFLOP): point speed ×
    /// duration; zero when the placement names a non-catalog point (the
    /// membership violation is flagged separately).
    pub fn work(&self, inst: &StagedInstance, j: usize, v: usize) -> f64 {
        self.point_of(inst, j, v)
            .map_or(0.0, |m| m.work_for_time(self.placements[j][v].duration))
    }

    /// Longest chain of successor durations after stage `v` of task `j`
    /// (the `tail(v)` of the stage-release-adjusted deadline).
    fn successor_tail(&self, inst: &StagedInstance, j: usize) -> Vec<f64> {
        let task = inst.task(j);
        let k = task.num_stages();
        // tail[v] = max over successors w of duration(w) + tail[w];
        // reverse topological order (indices descending).
        let mut tail = vec![0.0f64; k];
        for w in (0..k).rev() {
            let need = self.placements[j][w].duration.max(0.0) + tail[w];
            for &p in &task.stages[w].preds {
                if need > tail[p] {
                    tail[p] = need;
                }
            }
        }
        tail
    }

    /// The checks the flat model cannot see: shape, finite non-negative
    /// placements, selected-point membership, precedence,
    /// stage-release-adjusted deadlines, per-machine non-overlap, and
    /// per-stage work caps. [`oracle::verify_staged`](crate::oracle::verify_staged)
    /// adds the flat oracle's checks on the schedule's projection.
    /// Returns every violation found.
    pub fn validate(&self, inst: &StagedInstance) -> Result<(), Vec<StagedViolation>> {
        let mut out = Vec::new();
        let want: usize = inst.tasks().iter().map(StagedTask::num_stages).sum();
        let got: usize = self.placements.iter().map(Vec::len).sum();
        if self.placements.len() != inst.num_tasks() || got != want {
            out.push(StagedViolation::ShapeMismatch { got, want });
            return Err(out);
        }

        // Per-machine queue of (start, duration, task, stage) for the
        // overlap pass.
        let mut by_machine: Vec<Vec<(f64, f64, usize, usize)>> =
            vec![Vec::new(); inst.num_machines()];

        for j in 0..inst.num_tasks() {
            let task = inst.task(j);
            let d = task.deadline;
            let time_tol = EPS_TIME + 1e-9 * d.abs();
            let tail = self.successor_tail(inst, j);
            for v in 0..task.num_stages() {
                let p = self.placements[j][v];
                if !(p.start.is_finite() && p.duration.is_finite())
                    || p.start < -EPS_TIME
                    || p.duration < -EPS_TIME
                {
                    out.push(StagedViolation::InvalidPlacement {
                        task: j,
                        stage: v,
                        start: p.start,
                        duration: p.duration,
                    });
                    continue;
                }
                let Some(point) = inst
                    .park()
                    .get(p.machine)
                    .filter(|m| m.selected_index() == p.point)
                    .map(DvfsMachine::selected)
                else {
                    out.push(StagedViolation::OffSelectedPoint {
                        task: j,
                        stage: v,
                        machine: p.machine,
                        point: p.point,
                    });
                    continue;
                };
                for &u in &task.stages[v].preds {
                    let pred_finish = self.placements[j][u].finish();
                    if p.start < pred_finish - time_tol {
                        out.push(StagedViolation::PrecedenceViolated {
                            task: j,
                            stage: v,
                            pred: u,
                            start: p.start,
                            pred_finish,
                        });
                    }
                }
                let adjusted = d - tail[v];
                if p.finish() > adjusted + time_tol {
                    out.push(StagedViolation::StageDeadlineExceeded {
                        task: j,
                        stage: v,
                        finish: p.finish(),
                        adjusted_deadline: adjusted,
                    });
                }
                let work = point.work_for_time(p.duration);
                let cap = task.stages[v].accuracy.f_max();
                if work > cap + EPS_FLOPS + 1e-9 * cap {
                    out.push(StagedViolation::StageWorkExceeded {
                        task: j,
                        stage: v,
                        work,
                        cap,
                    });
                }
                if p.duration > EPS_TIME {
                    by_machine[p.machine].push((p.start, p.duration, j, v));
                }
            }
        }

        // Overlap: sweep each machine in start order.
        for (r, queue) in by_machine.iter_mut().enumerate() {
            queue.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)).then(a.3.cmp(&b.3)));
            for w in queue.windows(2) {
                let (s0, d0, j0, v0) = w[0];
                let (s1, _, j1, v1) = w[1];
                let tol = EPS_TIME + 1e-9 * (s0 + d0).abs();
                if s1 < s0 + d0 - tol {
                    out.push(StagedViolation::MachineOverlap {
                        machine: r,
                        first: (j0, v0),
                        second: (j1, v1),
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
}

/// The uniform staged solution: a flat solve of the lowered instance
/// plus its realization — the timed schedule and the per-stage work.
/// Accuracy, energy and the upper bound are derived, never stored.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedSolution {
    /// The timed stage placements.
    pub schedule: StagedSchedule,
    /// Work per `[task][stage]` in GFLOP.
    pub stage_work: Vec<Vec<f64>>,
    /// The lowered flat solve the schedule was realized from (the
    /// flat-model bit-compatibility pin compares against this).
    pub flat: Solution,
}

impl StagedSolution {
    /// Total accuracy `Σ_j min_v a_v(f_v)` of the per-stage work, summed
    /// in task order.
    pub fn total_accuracy(&self, inst: &StagedInstance) -> f64 {
        inst.tasks()
            .iter()
            .zip(&self.stage_work)
            .map(|(task, works)| {
                task.stages
                    .iter()
                    .zip(works)
                    .map(|(stage, &f)| stage.accuracy.eval(f))
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, |total, a| total + a)
    }

    /// Energy `Σ_j P_j · Σ_v duration_jv` (J), where `P_j` is the power
    /// of the point task `j`'s first stage runs at: a realized task runs
    /// every stage on one machine at its selected point. A point outside
    /// the catalog draws nothing (the oracle flags it).
    pub fn energy(&self, inst: &StagedInstance) -> f64 {
        let mut total = 0.0;
        for stages in self.schedule.placements() {
            let power = stages
                .first()
                .and_then(|p| inst.park().get(p.machine)?.point(p.point))
                .map_or(0.0, |point| point.power());
            let time: f64 = stages.iter().map(|p| p.duration).sum();
            total += power * time;
        }
        total
    }

    /// The lowered instance's fractional optimum: an upper bound on any
    /// staged schedule restricted to the selected operating points.
    pub fn upper_bound(&self) -> Option<f64> {
        self.flat.upper_bound
    }
}

/// The staged approximation solver: lowers the instance to the flat
/// model ([`StagedInstance::lowered`]), runs [`ApproxSolver`] (which
/// carries the paper's guarantee against the lowered fractional
/// optimum), and realizes the EDF schedule into timed stage placements —
/// every stage of a task back-to-back on its machine at the machine's
/// selected min-energy-per-work operating point.
///
/// For a single-stage task the realized work and duration are taken
/// verbatim from the flat schedule, so embedding a flat instance
/// ([`StagedInstance::from_flat`]) reproduces the flat solution bit for
/// bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagedApproxSolver {
    /// Invariant checking, for the staged solution (the staged oracle)
    /// and for the inner flat solve (the flat oracle) alike; a violation
    /// panics. Defaults to debug builds only.
    pub common: SolverOptions,
}

impl StagedApproxSolver {
    /// Solver with the default invariant policy (checked in debug).
    pub fn new() -> Self {
        Self::default()
    }

    /// Always verify, the flat solve and the staged solution.
    pub fn checked() -> Self {
        Self {
            common: SolverOptions::checked(),
        }
    }

    /// Never verify (benchmarks).
    pub fn unchecked() -> Self {
        Self {
            common: SolverOptions::unchecked(),
        }
    }

    /// The flat solver the lowered instance runs through, under this
    /// solver's invariant policy.
    fn flat_solver(&self) -> ApproxSolver {
        ApproxSolver {
            common: self.common,
        }
    }

    /// Solves with a fresh per-thread context.
    pub fn solve(&self, inst: &StagedInstance) -> Result<StagedSolution, StagedError> {
        self.solve_with(inst, &mut SolverContext::new())
    }

    /// Solves reusing a caller-owned [`SolverContext`] (probe cache).
    pub fn solve_with(
        &self,
        inst: &StagedInstance,
        ctx: &mut SolverContext,
    ) -> Result<StagedSolution, StagedError> {
        let lowered = inst.lowered()?;
        let flat = self
            .flat_solver()
            .solve_with(&lowered, ctx)
            .map_err(StagedError::Solve)?;
        let sol = realize(inst, &lowered, flat);
        if self.common.check_invariants {
            crate::oracle::enforce_staged(inst, &sol, "StagedApproxSolver");
        }
        Ok(sol)
    }
}

/// Realizes a flat EDF solution of the lowered instance into a timed
/// staged schedule (see [`StagedApproxSolver`] docs for the policy).
fn realize(inst: &StagedInstance, lowered: &Instance, flat: Solution) -> StagedSolution {
    let n = inst.num_tasks();
    let m = inst.num_machines();
    let selected: Vec<usize> = inst
        .park()
        .machines()
        .iter()
        .map(DvfsMachine::selected_index)
        .collect();
    let mut cursor = vec![0.0f64; m];
    let mut placements: Vec<Vec<StagePlacement>> = Vec::with_capacity(n);
    let mut stage_work: Vec<Vec<f64>> = Vec::with_capacity(n);

    for j in 0..n {
        let task = inst.task(j);
        let k = task.num_stages();
        // The machine holding task j's time (integral schedules put a
        // task on at most one machine; dropped tasks have none).
        let holder = (0..m).find(|&r| flat.schedule.t(j, r) > 0.0);
        let (r, t_j) = match holder {
            Some(r) => (r, flat.schedule.t(j, r)),
            None => (0, 0.0),
        };
        let point = inst.park().machines()[r]
            .point(selected[r])
            .expect("selected index is in catalog");
        let mut rows = Vec::with_capacity(k);
        let mut works = Vec::with_capacity(k);
        let start0 = cursor[r];
        if k == 1 {
            // Bit-exact embedding of the flat model: duration and work
            // taken verbatim from the flat schedule.
            let f = flat.schedule.flops(j, lowered);
            rows.push(StagePlacement {
                machine: r,
                point: selected[r],
                start: start0,
                duration: t_j,
            });
            works.push(f);
        } else {
            // Equalizing split: every stage climbs to the same level the
            // combined curve reaches at the task's total work.
            let total = flat.schedule.flops(j, lowered);
            let level = lowered.task(j).accuracy.eval(total);
            let mut t_cursor = start0;
            for v in 0..k {
                let acc = &task.stages[v].accuracy;
                let f_v = acc
                    .inverse(level.clamp(acc.a_min(), acc.a_max()))
                    .unwrap_or(0.0);
                let dur = point.time_for_work(f_v);
                rows.push(StagePlacement {
                    machine: r,
                    point: selected[r],
                    start: t_cursor,
                    duration: dur,
                });
                t_cursor += dur;
                works.push(f_v);
            }
        }
        let used: f64 = rows.iter().map(|p| p.duration).sum();
        cursor[r] += used.max(t_j);
        placements.push(rows);
        stage_work.push(works);
    }

    StagedSolution {
        schedule: StagedSchedule::new(placements),
        stage_work,
        flat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsct_machines::Machine;

    fn acc(points: &[(f64, f64)]) -> PwlAccuracy {
        PwlAccuracy::new(points).unwrap()
    }

    fn park() -> DvfsPark {
        DvfsPark::new(vec![
            DvfsMachine::fixed(Machine::from_efficiency(2000.0, 80.0).unwrap()),
            DvfsMachine::new(vec![
                Machine::from_efficiency(5000.0, 70.0).unwrap(),
                // Dominated: slower and less efficient.
                Machine::from_efficiency(4000.0, 30.0).unwrap(),
            ])
            .unwrap(),
        ])
        .unwrap()
    }

    fn staged_instance() -> StagedInstance {
        let tasks = vec![
            StagedTask::single(0.3, acc(&[(0.0, 0.0), (300.0, 0.5), (900.0, 0.8)])),
            StagedTask::chain(
                0.8,
                vec![
                    acc(&[(0.0, 0.0), (250.0, 0.4), (600.0, 0.7)]),
                    acc(&[(0.0, 0.0), (250.0, 0.4), (600.0, 0.7)]),
                ],
            ),
            StagedTask::fan_in(
                1.5,
                vec![
                    acc(&[(0.0, 0.0), (125.0, 0.6), (300.0, 0.82)]),
                    acc(&[(0.0, 0.0), (125.0, 0.6), (300.0, 0.82)]),
                ],
                acc(&[(0.0, 0.1), (200.0, 0.9)]),
            ),
        ];
        StagedInstance::new_sorting(tasks, park(), 40.0).unwrap()
    }

    #[test]
    fn construction_validates_edges_and_scalars() {
        let bad = StagedTask {
            deadline: 1.0,
            stages: vec![Stage::with_preds(acc(&[(0.0, 0.0), (1.0, 0.5)]), vec![0])],
        };
        assert!(matches!(
            StagedInstance::new_sorting(vec![bad], park(), 1.0),
            Err(StagedError::BadPredecessor {
                task: 0,
                stage: 0,
                pred: 0
            })
        ));
        let t = StagedTask::single(f64::NAN, acc(&[(0.0, 0.0), (1.0, 0.5)]));
        assert!(matches!(
            StagedInstance::new_sorting(vec![t], park(), 1.0),
            Err(StagedError::InvalidDeadline { .. })
        ));
        let t = StagedTask::single(1.0, acc(&[(0.0, 0.0), (1.0, 0.5)]));
        assert!(matches!(
            StagedInstance::new_sorting(vec![t], park(), f64::NEG_INFINITY),
            Err(StagedError::InvalidBudget(_))
        ));
        assert!(matches!(
            StagedInstance::new_sorting(vec![], park(), 1.0),
            Err(StagedError::NoTasks)
        ));
    }

    #[test]
    fn lowering_selects_points_and_combines_curves() {
        let inst = staged_instance();
        let low = inst.lowered().unwrap();
        assert_eq!(low.num_tasks(), 3);
        assert_eq!(low.num_machines(), 2);
        // Machine 1 lowers to its efficient point, not the dominated one.
        assert!((low.machines().get(1).speed() - 5000.0).abs() < 1e-9);
        // Single-stage task lowers to its own curve bit-exactly.
        assert_eq!(low.task(0).accuracy, inst.task(0).stages[0].accuracy);
        // The chain task's combined f_max is the sum of its stage caps.
        assert!((low.task(1).accuracy.f_max() - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn solver_produces_a_valid_staged_solution() {
        let inst = staged_instance();
        let sol = StagedApproxSolver::checked().solve(&inst).unwrap();
        crate::oracle::verify_staged(&inst, &sol).unwrap_or_else(|vs| panic!("{vs:?}"));
        assert!(sol.total_accuracy(&inst) > 0.0);
        assert!(sol.energy(&inst) <= inst.budget() + 1e-6);
        let ub = sol.upper_bound().expect("approx certifies a bound");
        assert!(sol.total_accuracy(&inst) <= ub + 1e-9);
    }

    #[test]
    fn flat_embedding_reproduces_flat_solution_bit_for_bit() {
        let lowered = staged_instance().lowered().unwrap();
        let staged = StagedInstance::from_flat(&lowered);
        let re_lowered = staged.lowered().unwrap();
        assert_eq!(lowered, re_lowered);
        let flat_sol = Solver::solve(&ApproxSolver::new(), &lowered).unwrap();
        let staged_sol = StagedApproxSolver::checked().solve(&staged).unwrap();
        for j in 0..lowered.num_tasks() {
            assert_eq!(
                staged_sol.stage_work[j][0].to_bits(),
                flat_sol.flops[j].to_bits(),
                "task {j} work"
            );
        }
        assert_eq!(
            staged_sol.flat.total_accuracy.to_bits(),
            flat_sol.total_accuracy.to_bits()
        );
        assert_eq!(
            staged_sol.energy(&staged).to_bits(),
            flat_sol.energy.to_bits()
        );
    }

    /// The staged solver's invariant policy is the inner flat solve's
    /// too, and it only checks: `checked()` and `unchecked()` solve
    /// every instance bit-identically.
    #[test]
    fn invariant_policy_reaches_the_flat_solve_and_moves_nothing() {
        for common in [
            SolverOptions::default(),
            SolverOptions::checked(),
            SolverOptions::unchecked(),
        ] {
            assert_eq!(StagedApproxSolver { common }.flat_solver().common, common);
        }
        let lowered = staged_instance().lowered().unwrap();
        let zero =
            StagedInstance::new_sorting(staged_instance().tasks().to_vec(), park(), 0.0).unwrap();
        for inst in [staged_instance(), zero, StagedInstance::from_flat(&lowered)] {
            let checked = StagedApproxSolver::checked().solve(&inst).unwrap();
            let unchecked = StagedApproxSolver::unchecked().solve(&inst).unwrap();
            assert_eq!(format!("{checked:?}"), format!("{unchecked:?}"));
        }
    }

    /// The lowered work cap is the equalizing split's total, not the sum
    /// of the stage caps: a stage that runs past its share, up to its own
    /// cap, is a valid staged schedule the oracle must accept.
    #[test]
    fn a_stage_may_run_past_its_equalizing_share() {
        let inst = StagedInstance::new_sorting(
            vec![StagedTask::chain(
                1.0,
                vec![
                    acc(&[(0.0, 0.0), (100.0, 0.5)]),
                    acc(&[(0.0, 0.0), (100.0, 0.9)]),
                ],
            )],
            DvfsPark::new(vec![DvfsMachine::fixed(
                Machine::new(1000.0, 10.0).unwrap(),
            )])
            .unwrap(),
            1e9,
        )
        .unwrap();
        let mut sol = StagedApproxSolver::checked().solve(&inst).unwrap();
        assert!(sol.stage_work[0][1] < 60.0, "stage 1's share reaches 0.5");
        sol.schedule.placement_mut(0, 1).duration = 0.1;
        sol.stage_work[0][1] = sol.schedule.work(&inst, 0, 1);
        assert!(sol.stage_work[0].iter().sum::<f64>() > inst.lowered().unwrap().task(0).f_max());
        crate::oracle::verify_staged(&inst, &sol).unwrap_or_else(|vs| panic!("{vs:?}"));
    }

    #[test]
    fn zero_budget_floors_accuracy() {
        let inst =
            StagedInstance::new_sorting(staged_instance().tasks().to_vec(), park(), 0.0).unwrap();
        let sol = StagedApproxSolver::checked().solve(&inst).unwrap();
        let floor: f64 = inst
            .tasks()
            .iter()
            .map(|t| {
                t.stages
                    .iter()
                    .map(|s| s.accuracy.a_min())
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        assert!((sol.total_accuracy(&inst) - floor).abs() < 1e-9);
        assert!(sol.energy(&inst) <= 1e-9);
    }

    #[test]
    fn validate_flags_precedence_and_overlap() {
        let inst = staged_instance();
        let mut sol = StagedApproxSolver::unchecked().solve(&inst).unwrap();
        // Find the chain task (2 stages, stage 1 depends on stage 0)
        // and make stage 1 start before stage 0 finishes.
        let j = (0..inst.num_tasks())
            .find(|&j| inst.task(j).num_stages() == 2)
            .unwrap();
        if sol.schedule.placement(j, 0).duration <= EPS_TIME {
            // Give stage 0 a duration so the precedence bites.
            sol.schedule.placement_mut(j, 0).duration = 0.1;
        }
        sol.schedule.placement_mut(j, 1).start = 0.0;
        sol.schedule.placement_mut(j, 1).duration = 0.05;
        let vs = sol.schedule.validate(&inst).unwrap_err();
        assert!(
            vs.iter()
                .any(|v| matches!(v, StagedViolation::PrecedenceViolated { .. })),
            "{vs:?}"
        );
    }

    #[test]
    fn successor_tails_adjust_deadlines() {
        // A 2-stage chain where each stage needs 0.4 s: stage 0 must
        // finish by d − 0.4, not d.
        let inst = StagedInstance::new_sorting(
            vec![StagedTask::chain(
                1.0,
                vec![
                    acc(&[(0.0, 0.0), (800.0, 0.8)]),
                    acc(&[(0.0, 0.0), (800.0, 0.8)]),
                ],
            )],
            DvfsPark::new(vec![DvfsMachine::fixed(
                Machine::new(2000.0, 10.0).unwrap(),
            )])
            .unwrap(),
            1e9,
        )
        .unwrap();
        let mut sched = StagedSchedule::zero(&inst);
        // Stage 0 runs [0.61, 1.01 − 0.4 = wait]: place stage 0 late so
        // its own finish meets d but the successor cannot fit.
        *sched.placement_mut(0, 0) = StagePlacement {
            machine: 0,
            point: 0,
            start: 0.2,
            duration: 0.4,
        };
        *sched.placement_mut(0, 1) = StagePlacement {
            machine: 0,
            point: 0,
            start: 0.6,
            duration: 0.4,
        };
        // Feasible: stage 0 finishes at 0.6 = 1.0 − tail(0.4).
        sched.validate(&inst).unwrap();
        // Push stage 0 by 0.05: its own finish (0.65) still meets d,
        // but the adjusted deadline 0.6 is missed (and the successor now
        // overlaps or misses d too).
        sched.placement_mut(0, 0).start = 0.25;
        let vs = sched.validate(&inst).unwrap_err();
        assert!(
            vs.iter().any(|v| matches!(
                v,
                StagedViolation::StageDeadlineExceeded { stage: 0, .. }
                    | StagedViolation::PrecedenceViolated { .. }
            )),
            "{vs:?}"
        );
    }
}
