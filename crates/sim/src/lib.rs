#![warn(missing_docs)]

//! Experiment harness regenerating every table and figure of the DSCT-EA
//! paper's evaluation (§6).
//!
//! Each experiment lives in [`experiments`] with a `Config` (defaulting to
//! the paper's parameters), a `run` entry point returning a serializable
//! result struct, and a text renderer that prints the same rows/series the
//! paper reports. The `dsct-experiments` binary drives them all.
//!
//! Every sweep is one loop on [`dsct_core::run_indexed`]: one item per
//! `(cell, replication)`, each generating its own instance from a seed
//! that depends on those coordinates alone, and a fold of the returned,
//! index-ordered `Vec` into the sweep's statistics. The data is therefore
//! bit-identical for any thread count. The two timing studies (`fig4`,
//! `table1`) run their loop on one thread, so no solve they time shares
//! the machine with another.

pub mod experiments;
pub mod report;
pub mod stats;

use dsct_workload::splitmix64;

/// Derives one item's RNG seed from a sweep's master seed and the
/// item's `(cell, rep)` coordinates. Every solver run on a `(cell, rep)`
/// pair sees the instance generated from this one seed, and the seed is
/// a pure function of the coordinates, which is what makes a sweep
/// deterministic under any scheduling of its items.
pub fn derive_seed(master_seed: u64, cell_id: u64, rep_id: u64) -> u64 {
    let a = splitmix64(master_seed);
    let b = splitmix64(a ^ cell_id.wrapping_mul(0xA24B_AED4_963E_E407));
    splitmix64(b ^ rep_id.wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_depend_only_on_coordinates() {
        let a = derive_seed(7, 3, 5);
        assert_eq!(a, derive_seed(7, 3, 5));
        assert_ne!(a, derive_seed(7, 3, 6));
        assert_ne!(a, derive_seed(7, 4, 5));
        assert_ne!(a, derive_seed(8, 3, 5));
    }
}
