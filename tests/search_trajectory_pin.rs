//! Absolute pin on FR-OPT's search trajectory.
//!
//! The determinism suites compare configurations with each other (worker
//! counts, producers, strategies); none of them would notice every
//! configuration moving together. This test folds what the default
//! `FrOptSolver` decides on twelve seeded instances — sweeps, accepted
//! transfers, the realized profile's bits and the total accuracy's bits —
//! into one `u64` and compares it with the constant recorded when the
//! test was written. A change to the `V(p)` evaluator or the sweep that is
//! meant to keep decisions must leave the constant untouched; one that is
//! meant to move them updates it in the same commit and says why.
//!
//! `probes` is deliberately not folded: it counts evaluations, not
//! decisions, and is the one number an evaluator change may move. The
//! second test holds it from above: the dual-certified gate must decide
//! at least half of what the parent probed without evaluating `V`. The
//! third holds the line search: stopping on an envelope certificate must
//! save at least half of the probes golden section spent.

use dsct_core::solver::FrOptSolver;
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};

/// Recorded at commit c11f664 (`cargo test --test search_trajectory_pin`)
/// and re-recorded when the exact line search replaced golden section: the
/// same 81 transfers, each landing on its ray's maximum rather than within
/// golden section's last bracket of it.
const PINNED: u64 = 0xfcae_203b_2c6d_18d3;

fn fold(h: u64, word: u64) -> u64 {
    let mut z = (h ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The twelve instances' summed `search.probe_stats.probes` as printed at
/// commit 5a4534d, before gates were priced. A count: it repeats exactly.
const PARENT_PROBES: u64 = 30_525;

/// The same sum at commit 29cb9d4, the last with a golden-section line
/// search: 81 line searches of 43 probes each, 3,483 probes, are in it.
const GOLDEN_PROBES: u64 = 13_666;

/// Golden section's line-search probes in [`GOLDEN_PROBES`].
const GOLDEN_LINE_SEARCH_PROBES: u64 = 81 * 43;

/// `(fold, probes)` of the default `FrOptSolver` over the twelve instances.
fn trajectory() -> (u64, u64) {
    let mut h = 0u64;
    let mut probes = 0u64;
    for (n, m, seeds) in [(100usize, 10usize, 1000u64..1008), (60, 18, 2000..2004)] {
        let cfg = InstanceConfig {
            tasks: TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.1, max: 4.9 }),
            machines: MachineConfig::paper_random(m),
            rho: 0.35,
            beta: 0.5,
        };
        for seed in seeds {
            let inst = generate(&cfg, seed);
            let sol = FrOptSolver::new().solve_typed(&inst);
            let search = sol.search.expect("default options run the profile search");
            probes += search.probe_stats.probes;
            h = fold(h, search.sweeps as u64);
            h = fold(h, search.transfers as u64);
            for &p in &sol.profile {
                h = fold(h, p.to_bits());
            }
            h = fold(h, sol.total_accuracy.to_bits());
        }
    }
    (h, probes)
}

#[test]
fn default_fr_opt_trajectory_is_pinned() {
    let (h, _) = trajectory();
    assert_eq!(
        h, PINNED,
        "FR-OPT's search trajectory moved: fold is {h:#018x}, pinned {PINNED:#018x}"
    );
}

#[test]
fn priced_gates_halve_the_parents_probes() {
    let (_, probes) = trajectory();
    assert!(
        probes <= PARENT_PROBES / 2,
        "{probes} probes on the twelve instances; the parent took {PARENT_PROBES}"
    );
}

#[test]
fn exact_line_search_cuts_the_parents_probes() {
    let (_, probes) = trajectory();
    let bound = GOLDEN_PROBES - GOLDEN_LINE_SEARCH_PROBES / 2;
    assert_eq!(bound, 11_925);
    assert!(
        probes <= bound,
        "{probes} probes on the twelve instances; golden section took {GOLDEN_PROBES}"
    );
}
