//! The dual certificate behind the profile search's gate (DESIGN.md §9):
//! [`PriceBlocks`] must hold optimal dual prices of Algorithm 2's inner LP
//! at whatever caps it is built for, and [`PriceBlocks::gain_bound`] and
//! [`PriceBlocks::step_bound`], each plus [`PriceBlocks::slop`], must
//! bound `V(p + x) − V(p)` for every move `x` of at most three caps.
//! Debug builds cross-check every certificate the search issues; this
//! file holds the same property in whichever profile it is run (CI runs
//! it in `--release` too), away from optima, and on the degenerate shapes
//! the search rarely visits.

use dsct_accuracy::PwlAccuracy;
use dsct_core::algo_naive::{NaiveSolver, PriceBlocks, ValueCheckpoint};
use dsct_core::problem::{Instance, Task};
use dsct_core::profile::{naive_profile, EnergyProfile};
use dsct_core::profile_search::profile_search;
use dsct_core::solver::FrOptSolver;
use dsct_machines::{Machine, MachinePark};
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn scale(inst: &Instance) -> f64 {
    inst.total_max_accuracy().max(1.0)
}

fn paper_instance(n: usize, m: usize, seed: u64) -> Instance {
    let cfg = InstanceConfig {
        tasks: TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.1, max: 4.9 }),
        machines: MachineConfig::paper_random(m),
        rho: 0.35,
        beta: 0.5,
    };
    generate(&cfg, seed)
}

fn random_caps(inst: &Instance, rng: &mut ChaCha8Rng) -> Vec<f64> {
    let d_max = inst.d_max();
    (0..inst.num_machines())
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => d_max,
            _ => rng.gen_range(0.0..d_max),
        })
        .collect()
}

/// The instance shapes of `dsct-core`'s own `arb_instance` (1–11 tasks of
/// 1–5 concave segments on 1–4 machines).
fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec(
            (
                0.2f64..5.0,
                proptest::collection::vec((1.0f64..50.0, 1e-4f64..0.05), 1..6),
            ),
            1..12,
        ),
        proptest::collection::vec((0.5f64..3.0, 0.5f64..2.0), 1..5),
        10.0f64..200.0,
    )
        .prop_map(|(mut task_specs, machine_specs, budget)| {
            task_specs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let tasks: Vec<Task> = task_specs
                .into_iter()
                .map(|(deadline, segs)| {
                    let mut slopes: Vec<f64> = segs.iter().map(|&(_, s)| s).collect();
                    slopes.sort_by(|a, b| b.total_cmp(a));
                    let mut pts = vec![(0.0, 0.1)];
                    let (mut f, mut a) = (0.0f64, 0.1f64);
                    for (k, &(w, _)) in segs.iter().enumerate() {
                        f += w;
                        a += slopes[k] * w;
                        pts.push((f, a));
                    }
                    Task::new(deadline, PwlAccuracy::new(&pts).expect("concave"))
                })
                .collect();
            let park = MachinePark::new(
                machine_specs
                    .into_iter()
                    .map(|(s, p)| Machine::new(s, p).expect("positive"))
                    .collect(),
            );
            Instance::new(tasks, park, budget).expect("valid")
        })
}

/// The dual objective `Σ_k (Y_k − Y_{k+1})·C_{t_k} + Σ_j a_j*(Y_j)` of the
/// block prices `y` (one per block of `blocks`) at `caps`.
fn dual_value(inst: &Instance, caps: &[f64], blocks: &PriceBlocks, y: &[f64]) -> f64 {
    let machines = inst.machines();
    let capacity = |d: f64| -> f64 {
        caps.iter()
            .enumerate()
            .map(|(r, &p)| p.min(d) * machines[r].speed())
            .sum()
    };
    let deadlines = blocks.deadlines();
    let mut total = 0.0;
    for (k, &d) in deadlines.iter().enumerate() {
        let next = y.get(k + 1).copied().unwrap_or(0.0);
        total += (y[k] - next) * capacity(d);
    }
    for task in inst.tasks() {
        let k = deadlines.partition_point(|&d| d < task.deadline);
        let price = y.get(k).copied().unwrap_or(0.0);
        // Conjugate of a concave PWL on `[0, F]`: attained at a breakpoint.
        total += task
            .accuracy
            .breakpoints()
            .iter()
            .zip(task.accuracy.values())
            .map(|(&f, &a)| a - price * f)
            .fold(f64::NEG_INFINITY, f64::max);
    }
    total
}

/// (a) at `caps`: both extreme price vectors close the duality gap.
fn assert_strong_duality(inst: &Instance, caps: &[f64], label: &str) {
    let solver = NaiveSolver::new(inst);
    let mut ws = solver.workspace();
    let mut chk = ValueCheckpoint::new();
    let mut blocks = PriceBlocks::new();
    let v = solver.checkpoint_into(&mut ws, caps, &mut chk);
    solver.price_blocks_into(&mut ws, &chk, &mut blocks);
    assert!(blocks.is_certifiable(), "{label}: greedy optimum unpriced");
    let n_blocks = blocks.deadlines().len();
    assert_eq!(blocks.low().len(), n_blocks);
    assert_eq!(blocks.high().len(), n_blocks);
    for k in 0..n_blocks {
        assert!(
            blocks.low()[k] <= blocks.high()[k],
            "{label}: empty box {k}"
        );
        if k > 0 {
            assert!(blocks.deadlines()[k - 1] <= blocks.deadlines()[k]);
            assert!(
                blocks.low()[k] <= blocks.low()[k - 1],
                "{label}: low not a chain"
            );
            assert!(
                blocks.high()[k] <= blocks.high()[k - 1],
                "{label}: high not a chain"
            );
        }
    }
    let tol = 1e-9 * scale(inst);
    for (name, y) in [("low", blocks.low()), ("high", blocks.high())] {
        let dual = dual_value(inst, caps, &blocks, y);
        assert!(
            (dual - v).abs() <= tol + blocks.slop(),
            "{label}: dual at {name} prices {dual} vs V {v} (slop {})",
            blocks.slop()
        );
    }
}

/// (b) at `caps`: `trials` random moves of ≤ 3 caps, and half as many
/// again that carry each moved cap onto, or just past, a block deadline
/// (across every deadline in between), none of which may gain more than
/// either certificate allows: the sign test's linear bound
/// ([`PriceBlocks::gain_bound`]) or the finite-step one
/// ([`PriceBlocks::step_bound`]).
fn assert_sound(inst: &Instance, caps: &[f64], rng: &mut ChaCha8Rng, trials: usize, label: &str) {
    let m = inst.num_machines();
    let d_max = inst.d_max();
    let speed = |r: usize| inst.machines()[r].speed();
    let solver = NaiveSolver::new(inst);
    let mut ws = solver.workspace();
    let (mut chk, mut moved) = (ValueCheckpoint::new(), ValueCheckpoint::new());
    let mut blocks = PriceBlocks::new();
    let v = solver.checkpoint_into(&mut ws, caps, &mut chk);
    solver.price_blocks_into(&mut ws, &chk, &mut blocks);
    assert!(blocks.is_certifiable(), "{label}: greedy optimum unpriced");
    let deadlines = blocks.deadlines().to_vec();
    for trial in 0..trials + trials / 2 {
        let crossing = trial >= trials;
        let mut stepped = caps.to_vec();
        let mut moves: Vec<(f64, f64)> = Vec::new();
        let mut steps: Vec<(f64, f64, f64)> = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize.min(m)) {
            let r = rng.gen_range(0..m);
            if stepped[r] != caps[r] {
                continue;
            }
            let target = if crossing {
                if deadlines.is_empty() {
                    continue;
                }
                // Onto a block deadline, or a hair or a step to either side.
                let d = deadlines[rng.gen_range(0..deadlines.len())];
                d + d_max * [0.0, 1e-9, -1e-9, 1e-3, -1e-3][rng.gen_range(0..5usize)]
            } else {
                // Tiny, moderate and to-the-wall steps, either way.
                let room = if rng.gen_bool(0.5) {
                    d_max - caps[r]
                } else {
                    -caps[r]
                };
                caps[r]
                    + room
                        * match rng.gen_range(0..4) {
                            0 => 1e-6,
                            1 => 1e-3,
                            2 => rng.gen_range(0.0..1.0),
                            _ => 1.0,
                        }
            };
            stepped[r] = target.clamp(0.0, d_max);
            moves.push((caps[r], speed(r) * (stepped[r] - caps[r])));
            steps.push((speed(r), caps[r], stepped[r]));
        }
        let gain = solver.checkpoint_into(&mut ws, &stepped, &mut moved) - v;
        let tol = 1e-12 * scale(inst);
        let bound = blocks.gain_bound(&moves) + blocks.slop();
        assert!(
            bound >= gain - tol,
            "{label} trial {trial}: caps {caps:?} → {stepped:?} gains {gain:e}, certificate {bound:e}"
        );
        let step = blocks.step_bound(&steps) + blocks.slop();
        assert!(
            step >= gain - tol,
            "{label} trial {trial}: caps {caps:?} → {stepped:?} gains {gain:e}, step bound {step:e}"
        );
    }
}

#[test]
fn prices_close_the_duality_gap_on_seeded_instances() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD0A1);
    for (n, m, seeds) in [(40usize, 4usize, 0u64..12), (100, 10, 100..104)] {
        for seed in seeds {
            let inst = paper_instance(n, m, seed);
            for k in 0..6 {
                let caps = random_caps(&inst, &mut rng);
                assert_strong_duality(&inst, &caps, &format!("n{n} m{m} seed {seed} caps {k}"));
            }
        }
    }
}

#[test]
fn certificates_are_sound_away_from_optima_on_seeded_instances() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x50D4);
    for (n, m, seeds) in [(40usize, 4usize, 0u64..12), (100, 10, 100..104)] {
        for seed in seeds {
            let inst = paper_instance(n, m, seed);
            for k in 0..6 {
                let caps = random_caps(&inst, &mut rng);
                assert_sound(
                    &inst,
                    &caps,
                    &mut rng,
                    60,
                    &format!("n{n} m{m} seed {seed} caps {k}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_shapes_are_priced_and_sound(inst in arb_instance(), seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for k in 0..3 {
            let caps = random_caps(&inst, &mut rng);
            assert_strong_duality(&inst, &caps, &format!("generated caps {k}"));
            assert_sound(&inst, &caps, &mut rng, 40, &format!("generated caps {k}"));
        }
    }
}

fn curve(slope_width: &[(f64, f64)]) -> PwlAccuracy {
    let mut pts = vec![(0.0, 0.0)];
    let (mut f, mut a) = (0.0, 0.0);
    for &(slope, width) in slope_width {
        f += width;
        a += slope * width;
        pts.push((f, a));
    }
    PwlAccuracy::new(&pts).expect("concave")
}

fn park(machines: &[(f64, f64)]) -> MachinePark {
    MachinePark::new(
        machines
            .iter()
            .map(|&(speed, power)| Machine::new(speed, power).expect("positive"))
            .collect(),
    )
}

/// (c) The shapes where a tolerance, a `>` against a `≥`, or an empty
/// block decides the prices.
#[test]
fn degenerate_shapes_stay_priced_and_sound() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDE6E);
    let three = [(2.0, 5.0), (4.0, 8.0), (1.0, 12.0)];
    let tasks = || {
        vec![
            Task::new(1.0, curve(&[(0.4, 3.0), (0.2, 3.0)])),
            Task::new(2.0, curve(&[(0.3, 4.0)])),
            Task::new(2.5, curve(&[(0.6, 1.0), (0.25, 2.0)])),
            Task::new(3.0, curve(&[(0.5, 2.0), (0.1, 6.0)])),
        ]
    };
    let mut check = |inst: &Instance, caps: &[f64], label: &str| {
        assert_strong_duality(inst, caps, label);
        assert_sound(inst, caps, &mut rng, 200, label);
    };

    // Every task full: no tight prefix has a positive price.
    let roomy = Instance::new(tasks(), park(&three), 1e6).unwrap();
    check(&roomy, &[3.0, 3.0, 3.0], "all full");
    // Zero budget: every prefix tight at zero capacity, nothing filled.
    check(&roomy, &[0.0, 0.0, 0.0], "zero caps");
    // One machine: the search has no direction, the bound still holds.
    let single = Instance::new(tasks(), park(&three[..1]), 10.0).unwrap();
    check(&single, &[1.7], "m = 1");
    check(&single, &[0.0], "m = 1 empty");
    // All deadlines equal: one bucket carries all the capacity.
    let level: Vec<Task> = tasks()
        .into_iter()
        .map(|t| Task::new(2.0, t.accuracy))
        .collect();
    let level = Instance::new(level, park(&three), 30.0).unwrap();
    check(&level, &[1.0, 0.5, 2.0], "equal deadlines");
    check(&level, &[2.0, 2.0, 2.0], "equal deadlines, caps on them");
    // Caps exactly on deadlines: sinks look strictly beyond, sources at.
    let inst = Instance::new(tasks(), park(&three), 30.0).unwrap();
    check(&inst, &[1.0, 2.5, 3.0], "caps on deadlines");
    check(&inst, &[2.0, 2.0, 0.0], "caps on one deadline");
    // A task exactly on a breakpoint: 3 GFLOP by d = 1 on a unit-speed
    // machine fills task 0's first segment to the bit and stops there.
    let on_kink = Instance::new(
        vec![
            Task::new(3.0, curve(&[(0.4, 3.0), (0.2, 3.0)])),
            Task::new(4.0, curve(&[(0.3, 1.0)])),
        ],
        park(&[(1.0, 1.0), (1.0, 2.0)]),
        10.0,
    )
    .unwrap();
    check(&on_kink, &[3.0, 0.0], "work on a breakpoint");
    check(
        &on_kink,
        &[3.0, 1.0],
        "work on a breakpoint, next task full",
    );
    // A task 5e-13 GFLOP short of a steep breakpoint is judged full; the
    // 2e-10 of accuracy that call hides is what `slop` is for.
    let steep = Instance::new(
        vec![Task::new(1.0, curve(&[(400.0, 1e-3), (1.0, 1.0)]))],
        park(&[(1.0, 1.0), (1.0, 2.0)]),
        10.0,
    )
    .unwrap();
    check(
        &steep,
        &[1e-3 - 5e-13, 0.0],
        "just short of a steep breakpoint",
    );
    check(&steep, &[1e-3 + 5e-13, 0.0], "just past a steep breakpoint");
}

/// (d) A work vector that is not the optimum at the caps has no
/// consistent prices: the set is uncertifiable and bounds nothing, so the
/// search probes every gate of such an anchor (`profile_search`'s unit
/// tests hold that half).
#[test]
fn inconsistent_work_is_uncertifiable() {
    for seed in 0..8u64 {
        let inst = paper_instance(40, 4, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let caps: Vec<f64> = (0..4)
            .map(|_| rng.gen_range(0.1..0.6) * inst.d_max())
            .collect();
        let solver = NaiveSolver::new(&inst);
        let mut ws = solver.workspace();
        let mut chk = ValueCheckpoint::new();
        let mut blocks = PriceBlocks::new();
        solver.checkpoint_into(&mut ws, &caps, &mut chk);
        let work = solver
            .solution_under(&mut ws, &EnergyProfile::new(caps.clone()))
            .flops;
        solver.price_work_into(&mut ws, &chk, &work, &mut blocks);
        assert!(blocks.is_certifiable(), "seed {seed}: the optimum itself");
        let sink = [(caps[0], 1.0)];
        let step = [(inst.machines()[0].speed(), caps[0], caps[0] + 1e-3)];
        assert!(blocks.gain_bound(&sink).is_finite());
        assert!(blocks.step_bound(&step).is_finite());

        // Starve the task holding the most work and hand it to nobody: a
        // tight prefix goes slack behind tasks that wanted more.
        let (starved, _) = work
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty");
        let mut doctored = work.clone();
        doctored[starved] *= 0.5;
        solver.price_work_into(&mut ws, &chk, &doctored, &mut blocks);
        assert!(
            !blocks.is_certifiable(),
            "seed {seed}: starved task {starved}"
        );
        assert_eq!(blocks.gain_bound(&sink), f64::INFINITY);
        assert_eq!(blocks.step_bound(&step), f64::INFINITY);

        // More work than the capacity (or the curve) admits.
        let mut doctored = work.clone();
        doctored[0] += 1.0 + total_capacity(&inst, &caps);
        solver.price_work_into(&mut ws, &chk, &doctored, &mut blocks);
        assert!(!blocks.is_certifiable(), "seed {seed}: overdrawn");

        // A checkpoint of another shape prices nothing.
        solver.price_work_into(&mut ws, &ValueCheckpoint::new(), &work, &mut blocks);
        assert!(!blocks.is_certifiable());
        solver.price_blocks_into(&mut ws, &ValueCheckpoint::new(), &mut blocks);
        assert!(!blocks.is_certifiable());
        // More than three caps are not a transfer direction.
        solver.price_blocks_into(&mut ws, &chk, &mut blocks);
        assert_eq!(blocks.gain_bound(&[(0.1, 1.0); 4]), f64::INFINITY);
        assert_eq!(blocks.step_bound(&[(1.0, 0.1, 0.2); 4]), f64::INFINITY);
    }
}

/// Total capacity the park can offer under `caps`.
/// Every bit of a block set.
type BlockBits = (bool, u64, Vec<u64>, Vec<u64>, Vec<u64>);

fn block_bits(b: &PriceBlocks) -> BlockBits {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (
        b.is_certifiable(),
        b.slop().to_bits(),
        bits(b.deadlines()),
        bits(b.low()),
        bits(b.high()),
    )
}

/// (e) One greedy from probe to schedule: the work a checkpoint records
/// as its greedy runs is, bit for bit, what a fresh walk of the greedy
/// takes and what the schedule [`NaiveSolver::solution_under`]
/// materializes carries, and the blocks [`NaiveSolver::price_blocks_into`]
/// builds from it are the ones [`NaiveSolver::price_work_into`] builds
/// from the fresh walk — at the naive profile and at FR-OPT's final
/// profile, on 40 seeds each of the paper's shape and the online
/// service's. Schedules therefore carry exactly the work the prices
/// certify.
#[test]
fn recorded_takes_price_like_a_fresh_walk() {
    let mut certified = 0;
    for (n, m) in [(100usize, 10usize), (200, 4)] {
        for seed in 0..40u64 {
            let inst = paper_instance(n, m, seed);
            let solver = NaiveSolver::new(&inst);
            let mut ws = solver.workspace();
            let final_caps = FrOptSolver::new().solve_typed(&inst).profile;
            let naive_caps = naive_profile(&inst).caps().to_vec();
            for (at, caps) in [("naive", naive_caps), ("FR-OPT", final_caps)] {
                let label = format!("n{n} m{m} seed {seed} at the {at} profile");
                let mut chk = ValueCheckpoint::new();
                let (mut fused, mut walked) = (PriceBlocks::new(), PriceBlocks::new());
                solver.checkpoint_into(&mut ws, &caps, &mut chk);
                solver.price_blocks_into(&mut ws, &chk, &mut fused);
                let mut work = Vec::new();
                solver.walk_work_into(&mut ws, &chk, &mut work);
                solver.price_work_into(&mut ws, &chk, &work, &mut walked);
                let schedule = solver.solution_under(&mut ws, &EnergyProfile::new(caps.clone()));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(chk.work()), bits(&work), "{label}: takes");
                assert_eq!(bits(chk.work()), bits(&schedule.flops), "{label}: schedule");
                assert_eq!(block_bits(&fused), block_bits(&walked), "{label}: blocks");
                certified += usize::from(fused.is_certifiable());
            }
        }
    }
    assert!(certified >= 120, "only {certified} of 160 profiles priced");
}

/// (f) The profile search's finisher runs no greedy: the schedule it
/// returns carries its final incumbent's recorded takes, which are what a
/// fresh checkpoint at the returned profile records, bit for bit.
#[test]
fn the_finisher_carries_the_final_incumbents_takes() {
    for (n, m) in [(100usize, 10usize), (200, 4)] {
        for seed in 0..10u64 {
            let inst = paper_instance(n, m, seed);
            let (profile, solution, _) = profile_search(&inst, &naive_profile(&inst));
            let solver = NaiveSolver::new(&inst);
            let mut chk = ValueCheckpoint::new();
            solver.checkpoint_into(&mut solver.workspace(), profile.caps(), &mut chk);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&solution.flops),
                bits(chk.work()),
                "n{n} m{m} seed {seed}"
            );
        }
    }
}

fn total_capacity(inst: &Instance, caps: &[f64]) -> f64 {
    caps.iter()
        .enumerate()
        .map(|(r, &p)| p * inst.machines()[r].speed())
        .sum()
}
