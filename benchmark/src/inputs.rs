//! How inputs are made from the seed. The program under test only ever
//! sees what these functions return.
//!
//! The machine park is part of a workload's definition, not of its
//! seed: a benchmark's workload is a traffic mix on a fixed cluster.
//! (Drawing the park per seed moves FR-OPT's rounding loss between 0.06
//! and 0.13 per task at one cell, which no bound could hold.) The seed
//! drives everything that arrives: task efficiencies, deadlines,
//! arrival times, tenants.

use dsct_core::problem::Instance;
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};

/// Seed the fixed parks are drawn with.
const PARK_SEED: u64 = 777;

/// SplitMix64: the benchmark's own stream for derived seeds and tenant
/// skew (the workspace's `rand` is an in-repo stand-in this package does
/// not depend on).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the `index`-th input derived from a run's seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index))
}

/// A uniform draw in `[0, 1)` keyed by `(seed, index)`.
pub fn unit(seed: u64, index: u64) -> f64 {
    (derive_seed(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// The paper's task distribution.
pub fn paper_tasks(n: usize) -> TaskConfig {
    TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.1, max: 1.0 })
}

/// The workload-defining park of `m` machines: the paper's ranges,
/// drawn once with [`PARK_SEED`].
pub fn fixed_park(m: usize) -> MachineConfig {
    let drawn = generate(
        &InstanceConfig {
            tasks: paper_tasks(1),
            machines: MachineConfig::paper_random(m),
            rho: 0.35,
            beta: 0.5,
        },
        PARK_SEED,
    );
    MachineConfig::Explicit(drawn.machines().machines().to_vec())
}

/// The paper's offline generator at one `(n, m)` cell on the fixed park
/// (`rho = 0.35`, `beta = 0.5`).
pub fn cell(n: usize, m: usize, seed: u64) -> Instance {
    generate(
        &InstanceConfig {
            tasks: paper_tasks(n),
            machines: fixed_park(m),
            rho: 0.35,
            beta: 0.5,
        },
        seed,
    )
}
