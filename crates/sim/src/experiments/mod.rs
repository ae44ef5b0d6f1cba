//! One module per table/figure of the paper's evaluation.
//!
//! | Module | Reproduces |
//! |--------|------------|
//! | [`fig1`] | Fig. 1 — GPU energy efficiency vs speed |
//! | [`fig2`] | Fig. 2 — accuracy vs work, exponential + PWL fit |
//! | [`fig3`] | Fig. 3 — optimality gap vs task heterogeneity |
//! | [`fig4`] | Fig. 4a/4b — runtime scaling vs MIP solver |
//! | [`table1`] | Table 1 — FR-OPT vs LP solver runtimes |
//! | [`fig5`] | Fig. 5 — accuracy vs energy-budget ratio + energy gain |
//! | [`fig6`] | Fig. 6a/6b — energy profiles of two machines |
//! | [`robustness`] | extension: realized accuracy under runtime speed jitter |
//! | [`online`] | extension: online arrival service regret vs clairvoyant FR-OPT |
//! | [`chaos`] | extension: accuracy retention under deterministic fault injection |
//! | [`staged`] | extension: staged solver quality over DAG depth × operating points |

pub mod chaos;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod online;
pub mod robustness;
pub mod staged;
pub mod table1;

use dsct_core::problem::Instance;
use dsct_core::solver::{Solution, SolveError, Solver, SolverContext};
use std::time::Instant;

/// One `solve_with` of `solver` on `inst`, timed alone: its wall-clock
/// seconds beside its result (a failed solve's time counts too).
fn timed_solve(
    solver: &dyn Solver,
    inst: &Instance,
    ctx: &mut SolverContext,
) -> (f64, Result<Solution, SolveError>) {
    let t0 = Instant::now();
    let result = solver.solve_with(inst, ctx);
    (t0.elapsed().as_secs_f64(), result)
}
