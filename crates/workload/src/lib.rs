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
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer: a bijective avalanche mix on `u64`. Every
/// derived seed and hash in the workspace (experiment seeds, chaos
/// plans, jitter draws, tenant routing) mixes through this one function.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Hasher`] for `u64` keys (task and tenant ids) that mixes each
/// word through [`splitmix64`]. Its state starts at zero on every run,
/// unlike `RandomState`'s per-process keys, so an [`IdMap`] or [`IdSet`]
/// is laid out the same way on every run and machine. No result may
/// depend on such a map's iteration order all the same: its readers
/// sum, sort, or break ties by key.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }
}

/// A hash map keyed by `u64` ids over the fixed [`IdHasher`].
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// A hash set of `u64` ids over the fixed [`IdHasher`].
pub type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::{splitmix64, IdHasher};
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn id_hasher_is_splitmix64_of_the_key() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for x in [0, 1, 7, u64::MAX] {
            assert_eq!(build.hash_one(x), splitmix64(x));
        }
    }

    #[test]
    fn splitmix64_known_answers() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }
}
