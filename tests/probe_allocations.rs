//! The SoA/arena contract of the probe path (DESIGN.md §15.1): once a
//! workspace is warm, neither a `V(p)` Δ-probe, nor a re-anchor with its
//! price-block build and the gate's finite-step bounds on it, nor a line search's priced probes, nor a
//! replanner's admission certificate, nor a task-level
//! refinement pass, nor an evaluator build and its recycle touch the
//! allocator. Neither does an online cell's pending pool, which keeps its
//! rows' evaluator in step with them, when it is read at a new time or
//! dispatches a task; an admission allocates exactly its curve's clone,
//! and a certificate on the pool's evaluator nothing.
//!
//! This file holds exactly one test: the allocator below counts for the
//! whole process, so a second test running beside it would be counted too.

use dsct_core::algo_naive::{NaiveSolver, PriceBlocks, ValueCheckpoint};
use dsct_core::algo_refine::refine_profile_in;
use dsct_core::profile::naive_profile;
use dsct_core::replan::Replanner;
use dsct_core::residual::ResidualPool;
use dsct_core::solver::ApproxSolver;
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting wrapper around the system allocator: every allocation adds
/// its size to a global byte counter (reallocation counts the new size).
/// Snapshot differences around a timed region give bytes allocated in
/// it; frees are deliberately not subtracted — the meter asks "did this
/// region hit the allocator at all", not "did the footprint grow".
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Checkpoint once, then hammer `value_delta` with alternating single-cap
/// deltas on the `n = 100, m = 10` seed-777 paper instance: after one
/// warm-up pass over the deltas, 10,000 probes allocate zero bytes. Then
/// what an accepted transfer costs — re-anchor the checkpoint at moved
/// caps, price it and bound a few finite steps by the prices — ten times
/// over, after one warm-up: zero bytes too.
/// Then ten line searches' worth of what one does beside the incumbent:
/// step the caps, anchor a probe checkpoint there, price it and read the
/// ray's slope. Last, a replanner solves the instance ten
/// times on the evaluator: after two warm-up rounds, the ten admission
/// certificates on it (all three prices tried, as a rejecting test
/// makes them) allocate zero bytes. And after one warm-up
/// on the workspace's arena, three refinement passes from the naive
/// solution allocate zero bytes. Last, after a few warm-up cycles, ten
/// evaluator builds (the segment sort's keys included) and their
/// recycles allocate zero bytes. Then the instance's tasks, pooled in
/// reverse deadline order and merged by one warm-up read: ten reads at
/// later times and ten dispatches allocate zero bytes, and, after one
/// warm-up admission ahead of every row, each of three admissions
/// allocates exactly its curve's clone and its next read, which merges
/// the admission's keyed segments into the pool's evaluator, nothing.
/// Last, a certificate on the pool's evaluator allocates zero bytes.
#[test]
fn steady_state_delta_probes_allocate_nothing() {
    let cfg = InstanceConfig {
        tasks: TaskConfig::paper(100, ThetaDistribution::Uniform { min: 0.1, max: 1.0 }),
        machines: MachineConfig::paper_random(10),
        rho: 0.35,
        beta: 0.5,
    };
    let inst = generate(&cfg, 777);
    let m = inst.num_machines();
    let solver = NaiveSolver::new(&inst);
    let mut ws = solver.workspace();
    let mut chk = ValueCheckpoint::new();
    // A plausible incumbent: the uniform-energy-split profile caps.
    let caps: Vec<f64> = inst
        .machines()
        .machines()
        .iter()
        .map(|mach| inst.budget() / (m as f64 * mach.power()))
        .collect();
    solver.checkpoint_into(&mut ws, &caps, &mut chk);
    let deltas: Vec<(usize, f64)> = (0..m)
        .flat_map(|r| [(r, caps[r] * 0.9), (r, caps[r] * 1.1)])
        .collect();
    let mut probe = |d: &(usize, f64)| {
        std::hint::black_box(
            solver
                .value_delta(&mut ws, &chk, std::slice::from_ref(d))
                .expect("valid checkpoint and finite caps"),
        );
    };
    deltas.iter().for_each(&mut probe);
    let before = allocated_bytes();
    for i in 0..10_000 {
        probe(&deltas[i % deltas.len()]);
    }
    assert_eq!(
        allocated_bytes() - before,
        0,
        "the steady-state Δ-probe path touched the allocator"
    );

    let mut prices = PriceBlocks::new();
    let mut moved = caps.clone();
    let speed = |r: usize| inst.machines()[r].speed();
    let mut reanchor = |k: usize| {
        moved[k % m] = caps[k % m] * (0.8 + 0.04 * k as f64);
        solver.checkpoint_into(&mut ws, &moved, &mut chk);
        solver.price_blocks_into(&mut ws, &chk, &mut prices);
        assert!(std::hint::black_box(&prices).is_certifiable());
        // The gate's finite-step bound at the new anchor, across a few
        // block deadlines and back.
        let (from, to) = (k % m, (k + 1) % m);
        for step in [1e-3, 0.1, 0.5] {
            let bound = prices.step_bound(&[
                (speed(from), moved[from], moved[from] * (1.0 - step)),
                (speed(to), moved[to], moved[to] * (1.0 + step)),
            ]);
            assert!(std::hint::black_box(bound).is_finite());
        }
    };
    reanchor(0);
    let before = allocated_bytes();
    (1..=10).for_each(&mut reanchor);
    assert_eq!(
        allocated_bytes() - before,
        0,
        "a re-anchor and its price-block build touched the allocator"
    );

    solver.checkpoint_into(&mut ws, &caps, &mut chk);
    let mut probe_chk = ValueCheckpoint::new();
    let mut probe_prices = PriceBlocks::new();
    let mut probe_caps = Vec::new();
    let power = |r: usize| inst.machines()[r].power();
    let mut line_search = |k: usize| {
        let (from, to) = (k % m, (k + 1) % m);
        for step in [0.5, 0.25, 0.375, 0.3125] {
            let delta = step * caps[from] * power(from);
            probe_caps.clone_from(&caps);
            probe_caps[from] -= delta / power(from);
            probe_caps[to] += delta / power(to);
            let value = solver.checkpoint_into(&mut ws, &probe_caps, &mut probe_chk);
            solver.price_blocks_into(&mut ws, &probe_chk, &mut probe_prices);
            let slope = probe_prices.gain_bound(&[
                (probe_caps[from], -speed(from) / power(from)),
                (probe_caps[to], speed(to) / power(to)),
            ]);
            std::hint::black_box((value, slope));
        }
    };
    line_search(0);
    let before = allocated_bytes();
    (1..=10).for_each(&mut line_search);
    assert_eq!(
        allocated_bytes() - before,
        0,
        "a line search's priced probes touched the allocator"
    );

    // The admission certificate of ten pools, each the instance without
    // one task: the solves run first (a solve allocates its solution), and
    // only the certificates, which return every buffer, are metered.
    let mut rp = Replanner::new(ApproxSolver::new());
    let mut certify_round = |metered: bool| {
        let solved: Vec<_> = (0..10).map(|_| rp.solve_on(&solver, &inst, None)).collect();
        let before = allocated_bytes();
        for (k, approx) in solved.iter().enumerate() {
            let bound =
                rp.certify_without(&solver, &inst, &approx.fractional.profile, k * 9, |_| false);
            assert!(std::hint::black_box(bound).is_none());
        }
        if metered {
            assert_eq!(
                allocated_bytes() - before,
                0,
                "an admission certificate touched the allocator"
            );
        }
    };
    (0..2).for_each(|_| certify_round(false));
    certify_round(true);

    // Each pass moves its own copy of the naive solution, made up front.
    let naive = solver.solution_under(&mut ws, &naive_profile(&inst));
    let mut copies: Vec<_> = (0..4)
        .map(|_| (naive.schedule.clone(), naive.flops.clone()))
        .collect();
    let (schedule, flops) = &mut copies[0];
    let warm = refine_profile_in(&inst, schedule, flops, ws.arena_mut());
    assert!(warm.iterations > 0, "the pass made no transfer");
    let before = allocated_bytes();
    for (schedule, flops) in &mut copies[1..] {
        let pass = refine_profile_in(&inst, schedule, flops, ws.arena_mut());
        assert_eq!(std::hint::black_box(pass), warm);
    }
    assert_eq!(
        allocated_bytes() - before,
        0,
        "a refinement pass touched the allocator"
    );

    let arena = ws.arena_mut();
    let mut cycle = || NaiveSolver::new_in(&inst, arena).recycle(arena);
    (0..4).for_each(|_| cycle());
    let before = allocated_bytes();
    (0..10).for_each(|_| cycle());
    assert_eq!(
        allocated_bytes() - before,
        0,
        "an evaluator build and its recycle touched the allocator"
    );

    let mut pool = ResidualPool::new(inst.machines().clone());
    for (j, task) in inst.tasks().iter().enumerate().rev() {
        pool.push(j as u64, 0, 0.0, 1.0 + task.deadline, task.accuracy.clone());
    }
    let budget = inst.budget();
    assert!(pool.read_at(0.0, budget).is_some());
    let before = allocated_bytes();
    for k in 1..=10 {
        assert!(std::hint::black_box(pool.read_at(1e-3 * k as f64, budget)).is_some());
    }
    assert_eq!(
        allocated_bytes() - before,
        0,
        "a pool read at a new time touched the allocator"
    );
    let before = allocated_bytes();
    for k in 0..10 {
        let row = pool.rows()[(7 * k) % pool.len()];
        let pos = pool.position_of(row.deadline, row.seq).expect("pooled");
        std::hint::black_box(pool.remove(pos));
    }
    assert_eq!(
        allocated_bytes() - before,
        0,
        "a dispatch out of the pool touched the allocator"
    );
    // Warm-up: the earliest deadline yet, so the merge moves every row
    // through its buffers once.
    pool.push(99, 0, 0.02, 0.5, inst.task(0).accuracy.clone());
    assert!(pool.read_at(0.02, budget).is_some());
    for k in 0..3 {
        let curve = &inst.task(k).accuracy;
        let before = allocated_bytes();
        let clone = curve.clone();
        let clone_bytes = allocated_bytes() - before;
        drop(clone);
        let before = allocated_bytes();
        pool.push(
            100 + k as u64,
            0,
            0.02,
            1.0 + inst.task(k).deadline,
            curve.clone(),
        );
        assert_eq!(
            allocated_bytes() - before,
            clone_bytes,
            "an admission allocated more than its curve's clone"
        );
        let before = allocated_bytes();
        assert!(pool.read_at(0.02, budget).is_some());
        assert_eq!(
            allocated_bytes() - before,
            0,
            "the read merging an admission touched the allocator"
        );
    }

    // A re-plan on the pool's own evaluator, as a gated admission runs
    // it: the solve allocates its solution (and APPROX's own scratch),
    // the certificate on it nothing.
    let approx = rp.solve_on(pool.evaluator(), pool.instance(), None);
    let before = allocated_bytes();
    let bound = rp.certify_without(
        pool.evaluator(),
        pool.instance(),
        &approx.fractional.profile,
        0,
        |_| false,
    );
    assert!(std::hint::black_box(bound).is_none());
    assert_eq!(
        allocated_bytes() - before,
        0,
        "a certificate on the pool's evaluator touched the allocator"
    );
}
