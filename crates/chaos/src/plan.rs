//! Chaos plans: deterministic fault-event generation.

use dsct_workload::splitmix64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How many events of each kind a [`ChaosPlan`] carries, plus the knobs
/// shaping them. Counts of zero are valid (an all-zero config yields an
/// empty plan, and [`crate::chaos_replay`] of an empty plan reduces to
/// [`dsct_online::replay`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Permanent machine failures.
    pub failures: usize,
    /// Persistent multiplicative speed degradations.
    pub degradations: usize,
    /// Budget shocks (signed; biased toward cuts).
    pub shocks: usize,
    /// Unplanned arrival bursts.
    pub bursts: usize,
    /// Tasks per arrival burst.
    pub burst_tasks: usize,
    /// Relative-deadline slack of burst tasks (the
    /// [`dsct_workload::generate_arrivals`] rule).
    pub deadline_slack: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            failures: 1,
            degradations: 1,
            shocks: 1,
            bursts: 1,
            burst_tasks: 3,
            deadline_slack: 2.0,
        }
    }
}

impl ChaosConfig {
    /// Total number of events a plan with this configuration carries.
    pub fn num_events(&self) -> usize {
        self.failures + self.degradations + self.shocks + self.bursts
    }
}

/// What happens at a [`ChaosEvent`]'s firing time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChaosEventKind {
    /// Machine `machine` fails permanently
    /// ([`dsct_online::Disruption::MachineFailure`]).
    MachineFailure {
        /// Index of the failing machine.
        machine: usize,
    },
    /// Machine `machine` slows to `factor` of its current speed
    /// ([`dsct_online::Disruption::SpeedDegradation`]).
    SpeedDegradation {
        /// Index of the degrading machine.
        machine: usize,
        /// Multiplicative speed factor in `(0, 1]`.
        factor: f64,
    },
    /// The global budget shifts by `delta` joules
    /// ([`dsct_online::Disruption::BudgetShock`]).
    BudgetShock {
        /// Signed budget change in joules.
        delta: f64,
    },
    /// `count` unplanned tasks arrive at once, synthesized from `seed`
    /// by [`dsct_workload::synthesize_burst`]. Burst ids start at
    /// `first_id` (disjoint from any base-trace id by construction).
    ArrivalBurst {
        /// Burst synthesis seed.
        seed: u64,
        /// Number of tasks in the burst.
        count: usize,
        /// Id of the burst's first task.
        first_id: u64,
        /// Relative-deadline slack of the burst tasks.
        slack: f64,
    },
}

/// One timed fault event of a [`ChaosPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosEvent {
    /// Firing time on the service clock (seconds).
    pub at: f64,
    /// The event's index in the plan's canonical layout — the sole RNG
    /// discriminator besides the chaos seed.
    pub index: usize,
    /// What fires.
    pub kind: ChaosEventKind,
}

/// A deterministic fault plan for one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seed the plan was generated from.
    pub chaos_seed: u64,
    /// Events sorted by `(at, index)`.
    pub events: Vec<ChaosEvent>,
}

/// Base id for burst-synthesized tasks: far above any realistic
/// base-trace id, so chaos arrivals never collide with planned ones
/// (and sort after them, letting consumers split base from burst
/// outcomes by position).
pub const BURST_ID_BASE: u64 = 1 << 40;

/// The per-event RNG: seeded by `(chaos_seed, index)` alone.
fn event_rng(chaos_seed: u64, index: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(splitmix64(chaos_seed ^ splitmix64(index as u64)))
}

impl ChaosPlan {
    /// Generates the plan for a trace of the given shape. Events are
    /// laid out by index — failures first, then degradations, shocks,
    /// bursts — and each draws from its own `(chaos_seed, index)` RNG,
    /// so inserting or removing events of one kind never changes the
    /// others.
    ///
    /// # Panics
    /// Panics when `machines == 0` while the config asks for machine
    /// events, or when `horizon`/`budget` are not finite and
    /// non-negative.
    pub fn generate(
        cfg: &ChaosConfig,
        chaos_seed: u64,
        horizon: f64,
        machines: usize,
        budget: f64,
    ) -> ChaosPlan {
        assert!(
            horizon.is_finite() && horizon >= 0.0,
            "horizon must be finite and non-negative, got {horizon}"
        );
        assert!(
            budget.is_finite() && budget >= 0.0,
            "budget must be finite and non-negative, got {budget}"
        );
        assert!(
            machines > 0 || cfg.failures + cfg.degradations == 0,
            "machine events need at least one machine"
        );
        let mut events = Vec::with_capacity(cfg.num_events());
        let mut index = 0usize;
        for _ in 0..cfg.failures {
            let mut rng = event_rng(chaos_seed, index);
            // Failures land in the middle of the horizon so there is
            // work both to cut and to recover.
            let at = horizon * rng.gen_range(0.15..0.75);
            let machine = rng.gen_range(0..machines);
            events.push(ChaosEvent {
                at,
                index,
                kind: ChaosEventKind::MachineFailure { machine },
            });
            index += 1;
        }
        for _ in 0..cfg.degradations {
            let mut rng = event_rng(chaos_seed, index);
            let at = horizon * rng.gen_range(0.05..0.85);
            let machine = rng.gen_range(0..machines);
            let factor = rng.gen_range(0.3..0.9);
            events.push(ChaosEvent {
                at,
                index,
                kind: ChaosEventKind::SpeedDegradation { machine, factor },
            });
            index += 1;
        }
        for _ in 0..cfg.shocks {
            let mut rng = event_rng(chaos_seed, index);
            let at = horizon * rng.gen_range(0.05..0.85);
            // Biased toward cuts: shocks stress recovery, not slack.
            let delta = budget * rng.gen_range(-0.5..0.25);
            events.push(ChaosEvent {
                at,
                index,
                kind: ChaosEventKind::BudgetShock { delta },
            });
            index += 1;
        }
        for b in 0..cfg.bursts {
            let mut rng = event_rng(chaos_seed, index);
            let at = horizon * rng.gen_range(0.0..0.7);
            let seed: u64 = rng.gen();
            events.push(ChaosEvent {
                at,
                index,
                kind: ChaosEventKind::ArrivalBurst {
                    seed,
                    count: cfg.burst_tasks,
                    first_id: BURST_ID_BASE + (b as u64) * 1_000_000,
                    slack: cfg.deadline_slack,
                },
            });
            index += 1;
        }
        events.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.index.cmp(&b.index)));
        ChaosPlan { chaos_seed, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> ChaosPlan {
        ChaosPlan::generate(&ChaosConfig::default(), seed, 10.0, 3, 500.0)
    }

    #[test]
    fn plans_are_pure_functions_of_seed_and_shape() {
        assert_eq!(plan(7), plan(7));
        assert_ne!(plan(7), plan(8));
    }

    #[test]
    fn events_are_sorted_and_well_formed() {
        let p = ChaosPlan::generate(
            &ChaosConfig {
                failures: 3,
                degradations: 3,
                shocks: 3,
                bursts: 2,
                ..ChaosConfig::default()
            },
            42,
            10.0,
            4,
            500.0,
        );
        assert_eq!(p.events.len(), 11);
        assert!(p
            .events
            .windows(2)
            .all(|w| w[0].at <= w[1].at || (w[0].at == w[1].at && w[0].index < w[1].index)));
        for e in &p.events {
            assert!(e.at >= 0.0 && e.at <= 10.0);
            match e.kind {
                ChaosEventKind::MachineFailure { machine } => assert!(machine < 4),
                ChaosEventKind::SpeedDegradation { machine, factor } => {
                    assert!(machine < 4);
                    assert!(factor > 0.0 && factor <= 1.0);
                }
                ChaosEventKind::BudgetShock { delta } => {
                    assert!(delta.abs() <= 250.0 + 1e-9);
                }
                ChaosEventKind::ArrivalBurst {
                    count, first_id, ..
                } => {
                    assert_eq!(count, 3);
                    assert!(first_id >= BURST_ID_BASE);
                }
            }
        }
    }

    #[test]
    fn removing_one_kind_leaves_the_others_untouched() {
        // Per-event RNGs keyed by (seed, index): dropping the trailing
        // burst kind must not change any earlier event.
        let full = ChaosPlan::generate(&ChaosConfig::default(), 9, 10.0, 3, 500.0);
        let no_bursts = ChaosPlan::generate(
            &ChaosConfig {
                bursts: 0,
                ..ChaosConfig::default()
            },
            9,
            10.0,
            3,
            500.0,
        );
        let keep: Vec<&ChaosEvent> = full
            .events
            .iter()
            .filter(|e| !matches!(e.kind, ChaosEventKind::ArrivalBurst { .. }))
            .collect();
        let kept: Vec<&ChaosEvent> = no_bursts.events.iter().collect();
        assert_eq!(keep, kept);
    }

    #[test]
    fn empty_config_yields_an_empty_plan() {
        let p = ChaosPlan::generate(
            &ChaosConfig {
                failures: 0,
                degradations: 0,
                shocks: 0,
                bursts: 0,
                ..ChaosConfig::default()
            },
            1,
            10.0,
            0,
            0.0,
        );
        assert!(p.events.is_empty());
    }
}
