use crate::simplex;
use std::fmt;
use std::time::Duration;

/// Handle to a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Zero-based column index of the variable.
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a column index. The index must come from a
    /// `Var` previously returned by [`Model::add_var`] on the same model.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Var(index)
    }
}

/// Handle to a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId(pub(crate) usize);

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `a'x ≤ b`
    Le,
    /// `a'x = b`
    Eq,
    /// `a'x ≥ b`
    Ge,
}

/// Objective sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Min,
    /// Maximize the objective.
    Max,
}

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was hit before convergence.
    IterationLimit,
    /// The time limit was hit before convergence.
    TimeLimit,
}

/// Errors detected before the simplex even starts.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum LpError {
    /// A coefficient, bound, or right-hand side is NaN.
    NanInput(&'static str),
    /// A variable has `lb > ub`.
    InconsistentBounds { var: usize, lb: f64, ub: f64 },
    /// The model has no variables.
    Empty,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::NanInput(what) => write!(f, "NaN in {what}"),
            LpError::InconsistentBounds { var, lb, ub } => {
                write!(f, "variable {var} has lb = {lb} > ub = {ub}")
            }
            LpError::Empty => write!(f, "model has no variables"),
        }
    }
}

impl std::error::Error for LpError {}

/// Solver options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Hard cap on simplex iterations across both phases.
    pub max_iterations: usize,
    /// Optional wall-clock limit.
    pub time_limit: Option<Duration>,
    /// Primal feasibility tolerance (absolute, also scaled by magnitudes).
    pub feas_tol: f64,
    /// Reduced-cost optimality tolerance.
    pub opt_tol: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            max_iterations: 2_000_000,
            time_limit: None,
            feas_tol: 1e-7,
            opt_tol: 1e-9,
        }
    }
}

/// A solved LP.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Termination status. `objective` and `x` are meaningful for
    /// [`Status::Optimal`]; for limit statuses they hold the last iterate.
    pub status: Status,
    /// Objective value in the model's own sense.
    pub objective: f64,
    /// Primal values of the structural variables, indexed by [`Var::index`].
    pub x: Vec<f64>,
    /// Dual values (simplex multipliers) per row, in the internal
    /// minimization sense. Diagnostic only.
    pub duals: Vec<f64>,
    /// Total simplex iterations performed.
    pub iterations: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct ColData {
    pub obj: f64,
    pub lb: f64,
    pub ub: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct RowData {
    pub cmp: Cmp,
    pub rhs: f64,
}

/// An LP model under construction.
///
/// Columns are added with [`Model::add_var`], rows with [`Model::add_row`].
/// Bounds can be tightened afterwards with [`Model::set_bounds`] (used by
/// the branch-and-bound MIP solver), and the model re-solved.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) cols: Vec<ColData>,
    pub(crate) rows: Vec<RowData>,
    /// Coefficients grouped per row, merged per (row, col) at solve time.
    pub(crate) row_terms: Vec<Vec<(usize, f64)>>,
}

impl Model {
    /// Creates an empty model with the given objective sense.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            cols: Vec::new(),
            rows: Vec::new(),
            row_terms: Vec::new(),
        }
    }

    /// Adds a variable with objective coefficient `obj` and bounds
    /// `[lb, ub]` (`f64::NEG_INFINITY` / `f64::INFINITY` for unbounded).
    pub fn add_var(&mut self, obj: f64, lb: f64, ub: f64) -> Var {
        self.cols.push(ColData { obj, lb, ub });
        Var(self.cols.len() - 1)
    }

    /// Adds a constraint `Σ coeff·var  cmp  rhs`. Duplicate variables in
    /// `terms` are summed.
    pub fn add_row(&mut self, cmp: Cmp, rhs: f64, terms: &[(Var, f64)]) -> RowId {
        self.rows.push(RowData { cmp, rhs });
        self.row_terms
            .push(terms.iter().map(|&(v, c)| (v.0, c)).collect());
        RowId(self.rows.len() - 1)
    }

    /// Number of structural variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.cols.len()
    }

    /// Objective sense of the model.
    #[inline]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Replaces the bounds of `var`.
    pub fn set_bounds(&mut self, var: Var, lb: f64, ub: f64) {
        let c = &mut self.cols[var.0];
        c.lb = lb;
        c.ub = ub;
    }

    /// Current bounds of `var`.
    pub fn bounds(&self, var: Var) -> (f64, f64) {
        let c = &self.cols[var.0];
        (c.lb, c.ub)
    }

    /// Replaces the objective coefficient of `var`.
    pub fn set_obj(&mut self, var: Var, obj: f64) {
        self.cols[var.0].obj = obj;
    }

    /// Validates the model and runs the simplex.
    pub fn solve(&self, opts: &SolveOptions) -> Result<Solution, LpError> {
        if self.cols.is_empty() {
            return Err(LpError::Empty);
        }
        for (i, c) in self.cols.iter().enumerate() {
            if c.obj.is_nan() || c.lb.is_nan() || c.ub.is_nan() {
                return Err(LpError::NanInput("variable data"));
            }
            if c.lb > c.ub {
                return Err(LpError::InconsistentBounds {
                    var: i,
                    lb: c.lb,
                    ub: c.ub,
                });
            }
        }
        for r in &self.rows {
            if r.rhs.is_nan() {
                return Err(LpError::NanInput("row rhs"));
            }
        }
        for terms in &self.row_terms {
            if terms.iter().any(|&(_, c)| c.is_nan()) {
                return Err(LpError::NanInput("row coefficient"));
            }
        }
        Ok(simplex::solve(self, opts))
    }

    /// Maximum absolute violation of rows and bounds by `x` (diagnostic;
    /// used by tests and by the MIP solver's incumbent checks).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.cols.len(), "solution length mismatch");
        let mut worst = 0.0f64;
        for (c, &xi) in self.cols.iter().zip(x) {
            if c.lb.is_finite() {
                worst = worst.max(c.lb - xi);
            }
            if c.ub.is_finite() {
                worst = worst.max(xi - c.ub);
            }
        }
        for (row, terms) in self.rows.iter().zip(&self.row_terms) {
            let lhs: f64 = terms.iter().map(|&(j, coef)| coef * x[j]).sum();
            let viol = match row.cmp {
                Cmp::Le => lhs - row.rhs,
                Cmp::Ge => row.rhs - lhs,
                Cmp::Eq => (lhs - row.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }

    /// Objective value of `x` in the model's own sense.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.cols.iter().zip(x).map(|(c, &xi)| c.obj * xi).sum()
    }
}
