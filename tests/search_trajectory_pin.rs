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
//! at least half of what the parent probed without evaluating `V`.

use dsct_core::solver::FrOptSolver;
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};

/// Recorded at commit c11f664 (`cargo test --test search_trajectory_pin`).
const PINNED: u64 = 0x6229_98b0_15d4_9f1f;

fn fold(h: u64, word: u64) -> u64 {
    let mut z = (h ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The twelve instances' summed `search.probe_stats.probes` as printed at
/// commit 5a4534d, before gates were priced. A count: it repeats exactly.
const PARENT_PROBES: u64 = 30_525;

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
