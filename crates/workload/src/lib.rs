#![warn(missing_docs)]

//! Synthetic workload generation reproducing the DSCT-EA paper's
//! experimental setup (§6).
//!
//! Tasks follow the paper's recipe: a task efficiency θ (the slope of the
//! first accuracy segment) drawn from a scenario-specific distribution, an
//! exponential accuracy curve of parameter θ fitted by a 5-segment
//! piecewise-linear function with `a_min = 1/1000` and `a_max = 0.82`, and
//! `f^max` set so the task reaches `a_max` exactly.
//!
//! Deadlines are controlled by the deadline-tolerance ρ and the budget by
//! the energy-budget ratio β (see [`InstanceConfig`]); machines are drawn
//! uniformly from the ranges of Desislavov et al. (1–20 TFLOPS,
//! 5–60 GFLOPS/W) or supplied explicitly.

mod arrivals;
mod config;
mod generate;
mod staged;

pub use arrivals::{generate_arrivals, synthesize_burst, ArrivalConfig, ArrivalTrace, OnlineTask};
pub use config::{ConfigError, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
pub use generate::generate;
pub use staged::{dvfs_park_with_dominated, generate_staged, DagShape, StagedConfig};

/// SplitMix64 finalizer: a bijective avalanche mix on `u64`. Every
/// derived seed and hash in the workspace (experiment seeds, chaos
/// plans, jitter draws, tenant routing) mixes through this one function.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::splitmix64;

    #[test]
    fn splitmix64_known_answers() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }
}
