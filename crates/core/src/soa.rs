//! Struct-of-arrays layouts and the reusable scratch arena for the solve
//! hot path (DESIGN.md §15).
//!
//! The profile search issues hundreds of value-function probes per solve,
//! and each probe walks every positive-slope PWL segment of the instance.
//! The AoS walk (`order[i] → segments[si]` with 32-byte [`SegmentSpec`]
//! entries) costs two dependent loads per segment and drags the unused
//! `position` field through the cache; [`SegmentLanes`] stores the same
//! sequence as three contiguous lanes (task, width, slope) pre-filtered of
//! the zero-width/flat segments every greedy skips anyway. Filtering is
//! trajectory-preserving: skipped segments never touch the capacity
//! buckets (or the reference walk's slack tree), so the lane greedy's
//! take sequence — and therefore every value it produces — is
//! bit-identical to the AoS greedy's.
//!
//! [`ScratchArena`] is the bump-style recycling pool behind them: every
//! per-solve buffer ([`crate::algo_naive::NaiveSolver`]'s lanes, the
//! [`crate::algo_naive::ValueCheckpoint`]'s vectors, the descent's
//! machine-power lane) is taken from the owning workspace's arena and
//! returned on recycle, so steady-state solves reuse warm capacity
//! instead of allocating. Lifetime rule: a taken buffer must be returned
//! to the *same* arena before the solve that took it ends (DESIGN.md
//! §15.2); the arena never frees while the workspace lives, so pooled
//! capacity only grows to the high-water mark of one solve.
//!
//! An online cell's evaluator is not built from the arena at all: its
//! [`crate::residual::ResidualPool`] owns the lanes and keeps them in step
//! with its rows. A row's segments are collected once, when it joins
//! ([`JoiningSegment`]), and each read renumbers the surviving lanes and
//! merges the new rows' segments in ([`SegmentLanes::renumber_merge`]),
//! sorted by the build's own sort ([`slope_order_into`]).

use crate::algo_single::SegmentSpec;

/// Recycling pool for per-solve scratch buffers, owned by a
/// [`crate::algo_naive::ValueFnWorkspace`]. `take_*` hands out a cleared
/// buffer with warm capacity (or a fresh empty one); `put_*` returns it.
#[derive(Debug, Clone, Default)]
pub struct ScratchArena {
    f64s: Vec<Vec<f64>>,
    usizes: Vec<Vec<usize>>,
    u32s: Vec<Vec<u32>>,
    u64s: Vec<Vec<u64>>,
    specs: Vec<Vec<SegmentSpec>>,
}

macro_rules! pool {
    ($take:ident, $put:ident, $field:ident, $t:ty) => {
        /// Takes a cleared buffer from the pool (empty when the pool is dry).
        pub fn $take(&mut self) -> Vec<$t> {
            match self.$field.pop() {
                Some(mut v) => {
                    v.clear();
                    v
                }
                None => Vec::new(),
            }
        }

        /// Returns a buffer to the pool for reuse.
        pub fn $put(&mut self, v: Vec<$t>) {
            self.$field.push(v);
        }
    };
}

impl ScratchArena {
    /// Empty arena (no pooled capacity yet).
    pub fn new() -> Self {
        Self::default()
    }

    pool!(take_f64, put_f64, f64s, f64);
    pool!(take_usize, put_usize, usizes, usize);
    pool!(take_u32, put_u32, u32s, u32);
    pool!(take_u64, put_u64, u64s, u64);
    pool!(take_specs, put_specs, specs, SegmentSpec);
}

/// The lanes' rank of a slope: ascending ranks are descending slopes in
/// `f64::total_cmp`'s order.
fn slope_rank(slope: f64) -> u64 {
    // `total_cmp`'s order as an unsigned key, then complemented so that
    // ascending ranks are descending slopes.
    let bits = slope.to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    !ascending
}

/// Writes the indices `0..len` into `order`, sorted by the lanes' order
/// of `slope(i)`: descending by `f64::total_cmp`, ties by index. The
/// evaluator build sorts its segments with it and a pool its joining
/// ones, so the two agree bit for bit.
///
/// Sorts one `u64` word per index: the slope's [`slope_rank`] with its
/// low bits replaced by the index, as many bits as an index below `len`
/// needs. The words then sort by rank and index, except among slopes
/// whose ranks differ only in the replaced bits; one insertion pass on
/// the full ranks puts those right and moves nothing else. Allocates
/// nothing once `order` is warm.
pub(crate) fn slope_order_into(len: usize, slope: impl Fn(usize) -> f64, order: &mut Vec<u64>) {
    let bits = u64::BITS - (len as u64).saturating_sub(1).leading_zeros();
    let low = u64::MAX.checked_shr(u64::BITS - bits).unwrap_or(0);
    order.clear();
    order.extend((0..len as u64).map(|i| slope_rank(slope(i as usize)) & !low | i));
    order.sort_unstable();
    for word in order.iter_mut() {
        *word &= low;
    }
    let key = |i: u64| (slope_rank(slope(i as usize)), i);
    for at in 1..order.len() {
        let mut to = at;
        while to > 0 && key(order[to - 1]) > key(order[to]) {
            order.swap(to - 1, to);
            to -= 1;
        }
    }
}

/// Whether a segment of this width and slope enters the lanes: the greedy
/// skips every other one without touching any state.
pub(crate) fn carries_gain(width: f64, slope: f64) -> bool {
    !(width <= 0.0 || slope <= 0.0)
}

/// Marks a task of the previous lane numbering that has no successor in
/// [`SegmentLanes::renumber_merge`]'s `remap`.
pub(crate) const GONE: u32 = u32::MAX;

/// One positive-gain segment of a task joining the lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoiningSegment {
    /// The task's index, or anything until the task's index is known.
    pub(crate) task: u32,
    pub(crate) width: f64,
    pub(crate) slope: f64,
}

/// The instance's positive-gain PWL segments in slope-descending
/// processing order, as three contiguous lanes. Built once per
/// [`crate::algo_naive::NaiveSolver`]; the bucket walk behind every probe
/// and every materialized schedule walks these lanes instead of the AoS
/// `order → segments` indirection.
///
/// Invariants: `task`, `width`, `slope` have equal length; entries appear
/// in exactly Algorithm 1's processing order (slope descending, then
/// task, then position),
/// with `width ≤ 0` and `slope ≤ 0` entries removed (the greedy skips
/// them without touching any state, so removal preserves the take
/// sequence bit-for-bit).
#[derive(Debug, Clone, Default)]
pub struct SegmentLanes {
    /// Task index (deadline order) per segment, `u32` to halve the lane's
    /// cache footprint (instances are bounded far below `u32::MAX` tasks).
    pub(crate) task: Vec<u32>,
    /// Segment width in GFLOP (positive).
    pub(crate) width: Vec<f64>,
    /// Segment slope in accuracy per GFLOP (positive).
    pub(crate) slope: Vec<f64>,
}

impl SegmentLanes {
    /// Builds the lanes from an AoS segment list and its processing order,
    /// pulling buffers from `arena`.
    pub(crate) fn build_in(
        segments: &[SegmentSpec],
        order: &[usize],
        arena: &mut ScratchArena,
    ) -> Self {
        let mut task = arena.take_u32();
        let mut width = arena.take_f64();
        let mut slope = arena.take_f64();
        task.reserve(order.len());
        width.reserve(order.len());
        slope.reserve(order.len());
        for &si in order {
            let seg = &segments[si];
            if !carries_gain(seg.total_flops, seg.slope) {
                continue;
            }
            debug_assert!(
                seg.task < u32::MAX as usize,
                "task index overflows the lane"
            );
            task.push(seg.task as u32);
            width.push(seg.total_flops);
            slope.push(seg.slope);
        }
        Self { task, width, slope }
    }

    /// Number of (positive-gain) segments in the lanes.
    pub fn len(&self) -> usize {
        self.task.len()
    }

    /// Whether no segment carries positive gain.
    pub fn is_empty(&self) -> bool {
        self.task.is_empty()
    }

    /// Brings the lanes to the next numbering of their tasks, in place:
    /// drops every segment whose task left (`remap[task]` is [`GONE`]),
    /// renumbers the rest to `remap[task]`, and merges in the segments of
    /// the tasks that joined: `fresh`, listed task-major and
    /// position-minor, taken in the order [`slope_order_into`] gives them
    /// (`order`). `remap` must be increasing on the tasks it keeps, and
    /// no task of `fresh` may be one of theirs: the kept segments then
    /// stay in the lanes' order, and no kept segment ties a fresh one.
    /// One pass drops and renumbers; the merge then fills the lanes from
    /// the back, moving only the kept segments that sort after the first
    /// fresh one. Allocates nothing once the lanes have held as many
    /// segments.
    pub(crate) fn renumber_merge(
        &mut self,
        remap: &[u32],
        fresh: &[JoiningSegment],
        order: &[u64],
    ) {
        let mut kept = 0;
        for at in 0..self.len() {
            let task = remap[self.task[at] as usize];
            if task != GONE {
                self.set(kept, task, self.width[at], self.slope[at]);
                kept += 1;
            }
        }
        let len = kept + order.len();
        self.task.resize(len, 0);
        self.width.resize(len, 0.0);
        self.slope.resize(len, 0.0);
        let (mut from, mut to) = (kept, len);
        let key = |task: u32, slope: f64| (slope_rank(slope), task);
        for seg in order.iter().rev().map(|&k| &fresh[k as usize]) {
            while from > 0 {
                debug_assert_ne!(self.task[from - 1], seg.task, "a kept task joins");
                if key(self.task[from - 1], self.slope[from - 1]) < key(seg.task, seg.slope) {
                    break;
                }
                from -= 1;
                to -= 1;
                self.set(to, self.task[from], self.width[from], self.slope[from]);
            }
            to -= 1;
            self.set(to, seg.task, seg.width, seg.slope);
        }
        debug_assert_eq!(from, to);
    }

    fn set(&mut self, at: usize, task: u32, width: f64, slope: f64) {
        self.task[at] = task;
        self.width[at] = width;
        self.slope[at] = slope;
    }

    /// Returns the lane buffers to `arena`.
    pub(crate) fn recycle(self, arena: &mut ScratchArena) {
        arena.put_u32(self.task);
        arena.put_f64(self.width);
        arena.put_f64(self.slope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Instance, Task};
    use dsct_accuracy::PwlAccuracy;
    use dsct_machines::{Machine, MachinePark};
    use proptest::prelude::*;

    /// Random valid instances: tasks with concave PWL curves (slopes
    /// sorted descending), machines with independent speed/power.
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
                // Canonical task indexing: non-decreasing deadlines.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// AoS ↔ SoA round-trip identity: the segment lanes hold exactly
        /// the positive-gain entries of the AoS walk, in walk order, with
        /// bit-identical fields — so the lane greedy's take sequence is
        /// the AoS greedy's by construction.
        #[test]
        fn segment_lanes_round_trip_aos(inst in arb_instance()) {
            let segments = crate::algo_naive::collect_segments(&inst);
            let order = crate::algo_single::sort_segments(&segments);
            let mut arena = ScratchArena::new();
            let lanes = SegmentLanes::build_in(&segments, &order, &mut arena);
            // Forward: AoS filtered walk == lanes.
            let filtered: Vec<&SegmentSpec> = order
                .iter()
                .map(|&si| &segments[si])
                .filter(|s| s.total_flops > 0.0 && s.slope > 0.0)
                .collect();
            prop_assert_eq!(lanes.len(), filtered.len());
            for (i, seg) in filtered.iter().enumerate() {
                prop_assert_eq!(lanes.task[i] as usize, seg.task);
                prop_assert_eq!(lanes.width[i].to_bits(), seg.total_flops.to_bits());
                prop_assert_eq!(lanes.slope[i].to_bits(), seg.slope.to_bits());
            }
            // Backward: rebuilding AoS specs from the lanes and re-running
            // the lane build reproduces the lanes (a fixed point).
            let rebuilt: Vec<SegmentSpec> = (0..lanes.len())
                .map(|i| SegmentSpec {
                    task: lanes.task[i] as usize,
                    position: 0,
                    slope: lanes.slope[i],
                    total_flops: lanes.width[i],
                })
                .collect();
            let ident: Vec<usize> = (0..rebuilt.len()).collect();
            let lanes2 = SegmentLanes::build_in(&rebuilt, &ident, &mut arena);
            prop_assert_eq!(&lanes2.task, &lanes.task);
            prop_assert_eq!(&lanes2.width, &lanes.width);
            prop_assert_eq!(&lanes2.slope, &lanes.slope);
            lanes2.recycle(&mut arena);
            lanes.recycle(&mut arena);
        }
    }

    #[test]
    fn arena_recycles_capacity() {
        let mut arena = ScratchArena::new();
        let mut v = arena.take_f64();
        v.extend_from_slice(&[1.0, 2.0, 3.0]);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        arena.put_f64(v);
        let v2 = arena.take_f64();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr, "the same buffer must come back");
    }

    #[test]
    fn lanes_filter_preserves_order() {
        let segs = vec![
            SegmentSpec {
                task: 0,
                position: 0,
                slope: 2.0,
                total_flops: 1.0,
            },
            SegmentSpec {
                task: 0,
                position: 1,
                slope: 0.0, // flat: filtered
                total_flops: 1.0,
            },
            SegmentSpec {
                task: 1,
                position: 0,
                slope: 3.0,
                total_flops: 0.0, // zero width: filtered
            },
            SegmentSpec {
                task: 1,
                position: 1,
                slope: 1.0,
                total_flops: 2.0,
            },
        ];
        let order = crate::algo_single::sort_segments(&segs);
        let mut arena = ScratchArena::new();
        let lanes = SegmentLanes::build_in(&segs, &order, &mut arena);
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes.task, vec![0, 1]);
        assert_eq!(lanes.slope, vec![2.0, 1.0]);
        assert_eq!(lanes.width, vec![1.0, 2.0]);
        lanes.recycle(&mut arena);
    }
}
