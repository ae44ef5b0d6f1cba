//! Algorithm 1 of the paper: the exact fractional solve on **one machine**
//! with piecewise-linear accuracy functions.
//!
//! Segments of all tasks are visited in non-increasing slope order; each
//! segment receives as much processing time as the deadlines of the task
//! itself and of every later task allow (increasing an early task's time
//! delays everything after it, EDF order being fixed).
//!
//! Deviations from the paper's listing (see DESIGN.md §3): the deadline cap
//! loop includes the segment's own task (`i ≥ j`, not `i > j`).
//!
//! Solves run one walk over their evaluator's lanes, on the capacity
//! buckets (`accuracy_gain_buckets_lanes`): its gain is `V(p)` and its
//! recorded per-task takes are the work every schedule is materialized
//! from. The AoS form as listed, on the slack tree and with its
//! per-segment work, is compiled for the tests only: it is the reference
//! they hold the bucket walk to.

/// One linear segment of a task's accuracy function, as consumed by the
/// single-machine scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentSpec {
    /// Task index (deadline order).
    pub task: usize,
    /// Position of the segment within the task's accuracy function.
    pub position: usize,
    /// Slope in accuracy per GFLOP.
    pub slope: f64,
    /// Work spanned by the segment in GFLOP.
    pub total_flops: f64,
}

/// Result of the single-machine solve.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub struct SingleMachineSolution {
    /// Processing time per task (seconds).
    pub times: Vec<f64>,
    /// Work actually dedicated to each input segment (GFLOP), aligned with
    /// the input slice.
    pub used_flops: Vec<f64>,
}

/// Runs Algorithm 1: optimal fractional schedule of `deadlines.len()` tasks
/// on a single machine of the given `speed` (GFLOP/s).
///
/// `deadlines` must be non-decreasing; `segments` lists the linear segments
/// of every task's accuracy function, task-major and position-minor (they
/// are sorted by slope here).
///
/// # Panics
/// Panics when deadlines are not sorted non-decreasingly or a segment
/// references a task out of range — both are caller bugs.
#[cfg(test)]
pub fn schedule_single_machine(
    deadlines: &[f64],
    speed: f64,
    segments: &[SegmentSpec],
) -> SingleMachineSolution {
    let n = deadlines.len();
    assert!(
        segments.iter().all(|s| s.task < n),
        "segment references task out of range"
    );
    let order = sort_segments(segments);
    schedule_single_machine_ordered(deadlines, speed, segments, &order)
}

/// [`sort_segments_into`] into a fresh vector.
#[cfg(test)]
pub fn sort_segments(segments: &[SegmentSpec]) -> Vec<usize> {
    let mut order = Vec::new();
    sort_segments_into(segments, &mut order, &mut ScratchArena::new());
    order
}

/// Slope-descending processing order for a segment list (ties broken by
/// `(task, position)` for determinism), into a caller-owned
/// (arena-pooled) buffer. The order depends only on the segments, so an
/// evaluator solving the same task set under many deadline vectors (the
/// profile search) computes it once.
///
/// `segments` must be listed task-major and position-minor, as
/// `collect_segments_into` lists them: index order is then `(task,
/// position)` order, and one sort of packed `(descending total-order
/// slope bits, index)` keys — from `arena`, returned before this does —
/// yields the comparator order without an indirect load per comparison.
pub(crate) fn sort_segments_into(
    segments: &[SegmentSpec],
    order: &mut Vec<usize>,
    arena: &mut ScratchArena,
) {
    debug_assert!(
        segments
            .windows(2)
            .all(|w| (w[0].task, w[0].position) < (w[1].task, w[1].position)),
        "segments must be listed task-major, position-minor"
    );
    let mut keys = arena.take_u128();
    keys.extend(segments.iter().enumerate().map(|(i, s)| {
        // `f64::total_cmp`'s order as an unsigned key, then complemented
        // so that ascending keys are descending slopes.
        let bits = s.slope.to_bits();
        let ascending = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        (u128::from(!ascending) << 64) | i as u128
    }));
    keys.sort_unstable();
    order.clear();
    order.extend(keys.iter().map(|&k| k as u64 as usize));
    arena.put_u128(keys);
}

/// Algorithm 1 with a precomputed processing order (see
/// [`sort_segments`]).
#[cfg(test)]
pub fn schedule_single_machine_ordered(
    deadlines: &[f64],
    speed: f64,
    segments: &[SegmentSpec],
    order: &[usize],
) -> SingleMachineSolution {
    let n = deadlines.len();
    assert!(speed > 0.0, "machine speed must be positive");
    assert!(
        deadlines.windows(2).all(|w| w[0] <= w[1]),
        "deadlines must be non-decreasing"
    );

    let mut times = vec![0.0f64; n];
    let mut used = vec![0.0f64; segments.len()];
    // Slack values v_i = d_i − Σ_{k≤i} t_k, maintained in a lazy segment
    // tree: growing task j subtracts from the suffix i ≥ j, and a
    // segment's deadline-capped contribution is the suffix minimum. This
    // turns the paper's O(n) inner loop into O(log n) per segment.
    let mut slack = SlackTree::new(deadlines);
    for &si in order {
        let seg = &segments[si];
        if seg.total_flops <= 0.0 || seg.slope <= 0.0 {
            // Zero-width or flat segments yield no accuracy; skip (a flat
            // final segment would otherwise waste machine time).
            continue;
        }
        let j = seg.task;
        let contribution = slack.consume(j, seg.total_flops / speed);
        if contribution > 0.0 {
            times[j] += contribution;
            used[si] = contribution * speed;
        }
    }

    SingleMachineSolution {
        times,
        used_flops: used,
    }
}

/// Algorithm 1 reduced to its objective: the accuracy *gain*
/// `Σ slope · work` of the optimal unit-speed schedule, without
/// materializing the per-task times or per-segment work vectors — the
/// one accuracy-gain walk, behind every `V(p)` probe. The caller loads
/// `slack` with the capacity buckets (see [`BucketSlack::load`]); each
/// segment of `lanes`, in slope-descending order, then takes
/// `min(width, free capacity in buckets 0..=task)`.
///
/// Equivalence with the reference walk's slack tree:
/// the prefix constraints `Σ_{i≤j} t_i ≤ d_j` (non-decreasing `d`) form a
/// chain polymatroid whose rank marginals are what the greedy collects,
/// and those marginals are placement-independent. Draining the *latest*
/// non-empty bucket `≤ j` first preserves, for every prefix
/// simultaneously, the maximum capacity any valid placement can leave —
/// so `min(want, free capacity in buckets 0..=j)` equals the tree's
/// `min(want, suffix-min slack from j)` at every step (the unit tests
/// cross-check the two on random inputs).
///
/// Two early exits, neither of which changes a take: the walk stops once
/// every bucket is drained, and a zero take at task `j` means buckets
/// `0..=j` are drained — buckets only drain — so every later segment of
/// a task `≤ j` is skipped without a lookup.
///
/// With `RECORD`, each productive lane also adds its take to
/// `takes[task]` (one entry per bucket, zeroed by the caller): the
/// per-task work a checkpoint keeps so its prices need no second walk.
/// Without it `takes` is never read and may be empty.
pub(crate) fn accuracy_gain_buckets_lanes<const RECORD: bool>(
    lanes: &SegmentLanes,
    slack: &mut BucketSlack,
    takes: &mut [f64],
) -> f64 {
    let n = lanes.len();
    let tasks = &lanes.task[..n];
    let widths = &lanes.width[..n];
    let slopes = &lanes.slope[..n];
    // Four rotating partial sums break the serial `gain += …` FP chain
    // (4-cycle add latency × one add per productive lane) into four
    // independent chains. The k-th executed add always lands in the
    // (k mod 4)-th partial and the final reduction is the fixed tree
    // `((g0+g1)+g2)+g3`, so the rounding is a function of the
    // executed-add sequence alone. Every digest depends on these bits.
    let (mut g0, mut g1, mut g2, mut g3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut dead_before = 0u32;
    // `consume` inlined by hand: `live` stays in a register across the
    // whole pass and the per-call `j >= len`/`want <= 0` guards drop (the
    // lanes are pre-filtered to positive widths and in-range tasks). The
    // take arithmetic is byte-for-byte the same as [`BucketSlack::consume`],
    // with `take < f ⇔ f − take > 0` (distinct doubles never subtract to
    // zero), so the drain trajectory — and thus every take — is identical.
    //
    // Index-safety setup for the unchecked accesses below. One entry
    // check pins the two-level structure: `bits` covers every bucket and
    // `summary` covers every `bits` word. Given that, every index in the
    // loop is in range:
    //   • `from < nb` always — it starts at a lane task (`< nb` by
    //     [`SegmentLanes`] construction against the same instance, which
    //     the debug assert re-checks) and only moves to `b − 1` for some
    //     in-range `b > 0` — so `from >> 6 < bits.len()`;
    //   • summary indices are `w >> 6 < summary.len()` and descend;
    //   • any `b` produced by the search is a set occupancy bit, and
    //     `load`/`load_with_prefix` set bits only for buckets `< nb`
    //     while the loop itself only ever clears them.
    let nb = slack.free.len();
    assert!(
        slack.bits.len() == nb.div_ceil(64) && slack.summary.len() == slack.bits.len().div_ceil(64),
        "BucketSlack occupancy words out of sync with bucket count"
    );
    assert!(!RECORD || takes.len() == nb, "one take slot per bucket");
    let free = &mut slack.free[..];
    let bits = &mut slack.bits[..];
    let summary = &mut slack.summary[..];
    let mut live = slack.live;
    // Register-cached hot bucket: `cf` holds bucket `cb`'s free capacity
    // while consecutive lanes keep drawing from it, so the common
    // same-bucket run costs a register subtract instead of a
    // store-to-load round trip through `free[]`. Every transition (cache
    // switch, drain) flushes or drops the cache first, so `free[]` plus
    // the cache always equals the uncached state and every take is
    // computed from the exact same operands.
    let mut cb = NO_BUCKET;
    let mut cf = 0.0f64;
    for i in 0..n {
        if live == 0 {
            break;
        }
        let j = tasks[i];
        if j < dead_before {
            continue;
        }
        debug_assert!((j as usize) < nb, "lane task outside bucket range");
        let mut want = widths[i];
        let mut taken = 0.0f64;
        let mut from = j as usize;
        // One trip per bucket consulted: usually a single take from the
        // tail of `j`'s own bit word (one mask-and-lzcnt), continuing
        // downward only while a drain leaves the request hungry. The take
        // arithmetic is byte-for-byte [`BucketSlack::consume`]'s, so the
        // drain trajectory — and thus every take — is identical.
        loop {
            let w = from >> 6;
            // SAFETY: `from < nb` (entry invariant above), so `w` indexes
            // `bits` and `w >> 6` indexes `summary`; descending summary
            // scans stay in range, and a summary bit marks an existing
            // non-empty `bits` word.
            let masked = unsafe { *bits.get_unchecked(w) } & !(!0u64 << (from & 63) << 1);
            let b = if masked != 0 {
                (w << 6) | (63 - masked.leading_zeros() as usize)
            } else {
                // Latest non-empty word strictly before `w`, via the
                // summary (rare; mask as in [`BucketSlack::find`]).
                let below = w & 63;
                let sw = w >> 6;
                // SAFETY: `sw < summary.len()` and `si` only descends.
                let mut scur = unsafe { *summary.get_unchecked(sw) }
                    & if below == 0 { 0 } else { !0u64 >> (64 - below) };
                let mut si = sw;
                loop {
                    if scur != 0 {
                        let word = (si << 6) | (63 - scur.leading_zeros() as usize);
                        // SAFETY: the summary bit certifies `word` is an
                        // in-range, non-empty `bits` word.
                        break (word << 6)
                            | (63 - unsafe { *bits.get_unchecked(word) }.leading_zeros() as usize);
                    }
                    if si == 0 {
                        break NO_BUCKET;
                    }
                    si -= 1;
                    scur = unsafe { *summary.get_unchecked(si) };
                }
            };
            if b == NO_BUCKET {
                break; // nothing left at or below `j`: a zero take
            }
            let f = if b == cb {
                cf
            } else {
                if cb != NO_BUCKET {
                    // SAFETY: `cb` held an earlier found bucket `< nb`.
                    unsafe { *free.get_unchecked_mut(cb) = cf };
                }
                cb = b;
                // SAFETY: `b` came from a set occupancy bit, so `b < nb`.
                unsafe { *free.get_unchecked(b) }
            };
            // `take = min(want, f)` split into its two branches so the
            // common partial-take path is a pure subtract off the cached
            // residue (no `min` on the cross-lane dependency chain); the
            // values taken are identical to the fused form (`take < f ⇔
            // want < f`, and a drain's `cf = f − f = 0` is never read —
            // the cache is dropped with the bit).
            if want < f {
                cf = f - want;
                taken += want;
                break; // bucket satisfied the request with room to spare
            }
            // Drained exactly (`take = f`): clear occupancy and drop the
            // cache (the bit is cleared, so the stale `free[b]` is never
            // read again).
            taken += f;
            cb = NO_BUCKET;
            let bw = b >> 6;
            // SAFETY: `b < nb` (set occupancy bit), so `bw` indexes `bits`
            // and `bw >> 6` indexes `summary` (entry invariant).
            let word = unsafe { *bits.get_unchecked(bw) } & !(1u64 << (b & 63));
            unsafe {
                *bits.get_unchecked_mut(bw) = word;
                *summary.get_unchecked_mut(bw >> 6) &= !(((word == 0) as u64) << (bw & 63));
            }
            live -= 1;
            want -= f;
            if want <= 0.0 || b == 0 || live == 0 {
                break;
            }
            from = b - 1;
        }
        if taken > 0.0 {
            if RECORD {
                takes[j as usize] += taken;
            }
            let t = g0 + slopes[i] * taken;
            g0 = g1;
            g1 = g2;
            g2 = g3;
            g3 = t;
        } else {
            dead_before = j + 1;
        }
    }
    if cb != NO_BUCKET {
        free[cb] = cf;
    }
    slack.live = live;
    ((g0 + g1) + g2) + g3
}

use crate::soa::{ScratchArena, SegmentLanes};

/// Bitmask slack buckets: the checkpoint/rollback representation of
/// Algorithm 1's remaining capacity.
///
/// Bucket `i` holds `b_i = td_i − td_{i−1} ≥ 0`, the capacity that opens
/// between consecutive temporary deadlines; task `j` may draw from
/// buckets `0..=j` and always drains the latest non-empty one first (see
/// [`accuracy_gain_buckets_lanes`] for why that reproduces the tree
/// greedy exactly). Occupancy lives in a two-level bitmask: bit `i` of
/// `bits[i/64]` marks a bucket with free capacity, and bit `w` of
/// `summary[w/64]` marks a non-empty `bits` word. `find` is then two
/// mask-and-`leading_zeros` probes instead of the pointer chase a
/// union-find would pay, and draining a bucket clears one bit instead of
/// relinking parents. (An earlier revision used union-find with path
/// compression; the bitmask visits the *same* bucket sequence — latest
/// non-empty `≤ j` — so takes are bit-identical, at about half the cost
/// per consume on the Δ-probe path.)
///
/// Rollback contract: [`BucketSlack::load`] rebuilds the *pristine*
/// pre-greedy state from a checkpointed bucket array (prefix) plus a
/// patched suffix in one `O(n)` pass — consuming probes never mutate the
/// checkpoint they loaded from, so rolling back to the incumbent is exact
/// to the bit, not merely within tolerance.
#[derive(Debug, Clone, Default)]
pub(crate) struct BucketSlack {
    free: Vec<f64>,
    /// Bit `i & 63` of `bits[i >> 6]` set ⇔ `free[i] > 0`.
    bits: Vec<u64>,
    /// Bit `w & 63` of `summary[w >> 6]` set ⇔ `bits[w] != 0`.
    summary: Vec<u64>,
    /// Number of buckets with free capacity (exact integer early-exit:
    /// the aggregate is exhausted iff every bucket is).
    live: usize,
}

const NO_BUCKET: usize = usize::MAX;

impl BucketSlack {
    /// Loads the pristine state `prefix ++ suffix` (concatenated bucket
    /// capacities). Probing a profile delta passes the checkpoint's
    /// untouched prefix and the recomputed suffix; rolling back to the
    /// incumbent itself passes its full bucket array and an empty suffix.
    pub(crate) fn load(&mut self, prefix: &[f64], suffix: &[f64]) {
        let n = prefix.len() + suffix.len();
        self.free.clear();
        self.free.extend_from_slice(prefix);
        self.free.extend_from_slice(suffix);
        let words = n.div_ceil(64);
        self.bits.clear();
        self.bits.resize(words, 0);
        self.summary.clear();
        self.summary.resize(words.div_ceil(64), 0);
        self.live = 0;
        for (w, chunk) in self.free.chunks(64).enumerate() {
            let mut word = 0u64;
            for (b, &f) in chunk.iter().enumerate() {
                debug_assert!(f >= 0.0, "bucket {} negative", (w << 6) | b);
                word |= ((f > 0.0) as u64) << b;
            }
            self.bits[w] = word;
            if word != 0 {
                self.summary[w >> 6] |= 1u64 << (w & 63);
            }
            self.live += word.count_ones() as usize;
        }
    }

    /// The pristine occupancy words right after a [`BucketSlack::load`]
    /// (checkpoints snapshot these so Δ-probes can reload the untouched
    /// prefix without re-scanning its capacities).
    pub(crate) fn bits_words(&self) -> &[u64] {
        &self.bits
    }

    /// [`BucketSlack::load`] with the prefix's occupancy bits supplied by
    /// the caller (a snapshot taken via [`BucketSlack::bits_words`] when
    /// the prefix capacities were pristine): the prefix contributes a
    /// word-level copy instead of an element scan, and only the suffix is
    /// scanned for occupancy. State is identical to `load(prefix, suffix)`.
    pub(crate) fn load_with_prefix(&mut self, prefix: &[f64], pre_bits: &[u64], suffix: &[f64]) {
        let a = prefix.len();
        let n = a + suffix.len();
        self.free.clear();
        self.free.extend_from_slice(prefix);
        self.free.extend_from_slice(suffix);
        let words = n.div_ceil(64);
        let full = a >> 6;
        self.bits.clear();
        self.bits.extend_from_slice(&pre_bits[..full]);
        self.bits.resize(words, 0);
        if a & 63 != 0 {
            // Straddling word: keep the prefix's bits below position `a`.
            self.bits[full] = pre_bits[full] & ((1u64 << (a & 63)) - 1);
        }
        for (k, &f) in suffix.iter().enumerate() {
            let i = a + k;
            debug_assert!(f >= 0.0, "bucket {i} negative");
            self.bits[i >> 6] |= ((f > 0.0) as u64) << (i & 63);
        }
        self.summary.clear();
        self.summary.resize(words.div_ceil(64), 0);
        self.live = 0;
        for (w, &word) in self.bits.iter().enumerate() {
            self.live += word.count_ones() as usize;
            self.summary[w >> 6] |= ((word != 0) as u64) << (w & 63);
        }
    }

    /// Whether every bucket is drained.
    #[inline]
    pub(crate) fn exhausted(&self) -> bool {
        self.live == 0
    }

    /// Latest bucket `≤ i` with free capacity (`NO_BUCKET` when none):
    /// probe the tail of `i`'s own bit word, then fall back to the summary
    /// for the latest earlier non-empty word.
    #[inline]
    fn find(&self, i: usize) -> usize {
        let w = i >> 6;
        // Keep bits at positions `≤ i & 63` (shift by `(i&63)+1 ≤ 64` done
        // as a checked double shift to dodge the UB-avoiding 64-bit wrap).
        let masked = self.bits[w] & !(!0u64 << (i & 63) << 1);
        if masked != 0 {
            return (w << 6) | (63 - masked.leading_zeros() as usize);
        }
        // Latest non-empty word strictly before `w`, via the summary
        // (mask keeps summary bits strictly below position `w & 63`; the
        // `below == 0` branch dodges an undefined 64-bit shift).
        let sw = w >> 6;
        let below = w & 63;
        let mut scur = self.summary[sw] & if below == 0 { 0 } else { !0u64 >> (64 - below) };
        let mut si = sw;
        while scur == 0 {
            if si == 0 {
                return NO_BUCKET;
            }
            si -= 1;
            scur = self.summary[si];
        }
        let word = (si << 6) | (63 - scur.leading_zeros() as usize);
        (word << 6) | (63 - self.bits[word].leading_zeros() as usize)
    }

    /// Clears bucket `i`'s occupancy bit (it just drained to exactly 0.0).
    #[inline]
    fn clear(&mut self, i: usize) {
        let w = i >> 6;
        self.bits[w] &= !(1u64 << (i & 63));
        if self.bits[w] == 0 {
            self.summary[w >> 6] &= !(1u64 << (w & 63));
        }
        self.live -= 1;
    }

    /// Takes `min(want, free capacity in buckets 0..=j)`, draining the
    /// latest non-empty buckets first. Equivalent to
    /// [`SlackTree::consume`]`(j, want)`.
    #[inline]
    pub(crate) fn consume(&mut self, j: usize, want: f64) -> f64 {
        if j >= self.free.len() || want <= 0.0 {
            return 0.0;
        }
        let mut taken = 0.0f64;
        let mut remaining = want;
        let mut i = self.find(j);
        while i != NO_BUCKET {
            let take = remaining.min(self.free[i]);
            self.free[i] -= take;
            taken += take;
            remaining -= take;
            if self.free[i] > 0.0 {
                break; // bucket satisfied the request with room to spare
            }
            // Drained exactly (take == free[i] ⇒ the subtraction is 0.0
            // bit-exactly); clear and continue downward if still hungry.
            self.clear(i);
            if remaining <= 0.0 || i == 0 {
                break;
            }
            i = self.find(i - 1);
        }
        taken
    }
}

/// Lazy segment tree supporting suffix add and suffix min over the slack
/// values `v_i = d_i − Σ_{k≤i} t_k`: the reference walk's slack
/// structure, compiled for the tests only.
///
/// Fully iterative over a power-of-two leaf layout (leaves at `[size,
/// size + n)`, padding at `INFINITY`). `mins[node]` is the true range
/// minimum; `lazy[node]` is a pending addition for the node's *strict*
/// descendants (already folded into `mins[node]` itself).
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct SlackTree {
    n: usize,
    /// Number of leaves (power of two), 1 when empty.
    size: usize,
    mins: Vec<f64>,
    lazy: Vec<f64>,
}

#[cfg(test)]
impl SlackTree {
    pub(crate) fn new(values: &[f64]) -> Self {
        let n = values.len();
        let size = n.max(1).next_power_of_two();
        let mut mins = vec![f64::INFINITY; 2 * size];
        mins[size..size + n].copy_from_slice(values);
        for node in (1..size).rev() {
            mins[node] = mins[2 * node].min(mins[2 * node + 1]);
        }
        Self {
            n,
            size,
            mins,
            lazy: vec![0.0; 2 * size],
        }
    }

    /// `min(v_i for i in from..n)`; `INFINITY` when the range is empty.
    fn suffix_min(&self, from: usize) -> f64 {
        if from >= self.n {
            return f64::INFINITY;
        }
        // Descend towards leaf `from`, taking every right sibling along the
        // way (they cover `(from, …]` completely); `add` accumulates the
        // lazy pending from the ancestors above each taken node.
        let mut node = 1usize;
        let mut l = 0usize;
        let mut r = self.size;
        let mut add = 0.0f64;
        let mut res = f64::INFINITY;
        while r - l > 1 {
            add += self.lazy[node];
            let mid = l + (r - l) / 2;
            if from < mid {
                res = res.min(self.mins[2 * node + 1] + add);
                node *= 2;
                r = mid;
            } else {
                node = 2 * node + 1;
                l = mid;
            }
        }
        res.min(self.mins[node] + add)
    }

    /// Fused probe-and-take: computes `c = clamp(min(want, suffix_min(from)),
    /// 0, ∞)` and, when `c > 0`, applies `suffix_add(from, -c)` — in a
    /// single descent instead of two (the two operations always pair up in
    /// Algorithm 1's segment loop, and branch decisions, range bounds, and
    /// accumulated lazy are identical for both).
    pub(crate) fn consume(&mut self, from: usize, want: f64) -> f64 {
        if from >= self.n {
            return 0.0;
        }
        let mut node = 1usize;
        let mut l = 0usize;
        let mut r = self.size;
        let mut add = 0.0f64;
        let mut res = f64::INFINITY;
        // Path entries are `(node << 1) | went_left`, root first.
        let mut path = [0usize; usize::BITS as usize];
        let mut depth = 0usize;
        while r - l > 1 {
            add += self.lazy[node];
            let mid = l + (r - l) / 2;
            if from < mid {
                res = res.min(self.mins[2 * node + 1] + add);
                path[depth] = (node << 1) | 1;
                node *= 2;
                r = mid;
            } else {
                path[depth] = node << 1;
                node = 2 * node + 1;
                l = mid;
            }
            depth += 1;
        }
        res = res.min(self.mins[node] + add);
        let c = want.min(res).max(0.0);
        if c > 0.0 {
            self.mins[node] -= c;
            for d in (0..depth).rev() {
                let entry = path[d];
                let p = entry >> 1;
                if entry & 1 == 1 {
                    let right = 2 * p + 1;
                    self.mins[right] -= c;
                    self.lazy[right] -= c;
                }
                self.mins[p] = self.mins[2 * p].min(self.mins[2 * p + 1]) + self.lazy[p];
            }
        }
        c
    }

    /// `v_i += delta` for all `i in from..n`.
    fn suffix_add(&mut self, from: usize, delta: f64) {
        if from >= self.n {
            return;
        }
        // Descend towards leaf `from`, applying the delta to every right
        // sibling (fully covered); then recompute the mins up the path.
        let mut node = 1usize;
        let mut l = 0usize;
        let mut r = self.size;
        while r - l > 1 {
            let mid = l + (r - l) / 2;
            if from < mid {
                let right = 2 * node + 1;
                self.mins[right] += delta;
                self.lazy[right] += delta;
                node *= 2;
                r = mid;
            } else {
                node = 2 * node + 1;
                l = mid;
            }
        }
        self.mins[node] += delta;
        while node > 1 {
            node /= 2;
            self.mins[node] = self.mins[2 * node].min(self.mins[2 * node + 1]) + self.lazy[node];
        }
    }
}

/// Convenience: total accuracy achieved by a single-machine solution given
/// the per-segment accuracy gains.
#[cfg(test)]
pub fn accuracy_of(segments: &[SegmentSpec], used_flops: &[f64], base: f64) -> f64 {
    base + segments
        .iter()
        .zip(used_flops)
        .map(|(s, &u)| s.slope * u)
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(task: usize, position: usize, slope: f64, flops: f64) -> SegmentSpec {
        SegmentSpec {
            task,
            position,
            slope,
            total_flops: flops,
        }
    }

    #[test]
    fn single_task_uses_all_time_up_to_deadline() {
        // One task, one segment of 10 GFLOP, speed 2 ⇒ needs 5 s, but the
        // deadline is 3 s.
        let sol = schedule_single_machine(&[3.0], 2.0, &[seg(0, 0, 1.0, 10.0)]);
        assert!((sol.times[0] - 3.0).abs() < 1e-12);
        assert!((sol.used_flops[0] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn single_task_stops_at_segment_end() {
        let sol = schedule_single_machine(&[10.0], 2.0, &[seg(0, 0, 1.0, 10.0)]);
        assert!((sol.times[0] - 5.0).abs() < 1e-12);
        assert!((sol.used_flops[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn steeper_segments_win_contested_time() {
        // Two tasks, same deadline 1 s, speed 1. Task 0 slope 2, task 1
        // slope 1, each 1 GFLOP. Only 1 s available: all to task 0.
        let segs = [seg(0, 0, 2.0, 1.0), seg(1, 0, 1.0, 1.0)];
        let sol = schedule_single_machine(&[1.0, 1.0], 1.0, &segs);
        assert!((sol.times[0] - 1.0).abs() < 1e-12);
        assert!((sol.times[1] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn early_deadline_task_cannot_be_displaced() {
        // Task 0 has deadline 1 and low slope; task 1 deadline 10, high
        // slope. Task 1 is scheduled first (slope order) and takes time
        // [0, 9] of the horizon... but because EDF order puts task 0 first,
        // the constraint for task 1 leaves task 0 room only before d_0.
        // Task 0 may still use [0, 1] if task 1's allocation leaves room by
        // d_0? No: prefix(t0) + prefix over later tasks matters. With task 1
        // getting 9 s (deadline 10 minus nothing), task 0 can get 1 s
        // (completes at 1 ≤ d_0, pushing task 1 to complete at 10 ≤ d_1).
        let segs = [seg(0, 0, 1.0, 100.0), seg(1, 0, 2.0, 9.0)];
        let sol = schedule_single_machine(&[1.0, 10.0], 1.0, &segs);
        assert!((sol.times[1] - 9.0).abs() < 1e-12, "t1 = {}", sol.times[1]);
        assert!((sol.times[0] - 1.0).abs() < 1e-12, "t0 = {}", sol.times[0]);
    }

    #[test]
    fn later_deadlines_cap_earlier_expansions() {
        // Task 0 (slope 3) would like 5 s, but task 1 (slope 2, deadline 2)
        // needs its time: after task 1 gets 2 s... task 1 is capped by its
        // own deadline minus task 0's time. Slope order: task 0 first.
        // Task 0: contribution min(5, d_0 - t_0 = 2, d_1 - t_0 = 2) = 2.
        // Task 1: min(5, d_1 - (t_0 + t_1)) = 0.
        let segs = [seg(0, 0, 3.0, 5.0), seg(1, 0, 2.0, 5.0)];
        let sol = schedule_single_machine(&[2.0, 2.0], 1.0, &segs);
        assert!((sol.times[0] - 2.0).abs() < 1e-12);
        assert!((sol.times[1] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn multi_segment_tasks_fill_in_slope_order() {
        // One task with segments (slope 2, 1 GFLOP) and (slope 1, 1 GFLOP);
        // 1.5 s at speed 1 ⇒ first segment full, second half full.
        let segs = [seg(0, 0, 2.0, 1.0), seg(0, 1, 1.0, 1.0)];
        let sol = schedule_single_machine(&[1.5], 1.0, &segs);
        assert!((sol.times[0] - 1.5).abs() < 1e-12);
        assert!((sol.used_flops[0] - 1.0).abs() < 1e-12);
        assert!((sol.used_flops[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn interleaved_slopes_across_tasks() {
        // Task 0: slopes (4, 1); task 1: slopes (3, 2). Deadlines large.
        // Slope order: t0s0, t1s0, t1s1, t0s1 — all fit.
        let segs = [
            seg(0, 0, 4.0, 1.0),
            seg(0, 1, 1.0, 1.0),
            seg(1, 0, 3.0, 1.0),
            seg(1, 1, 2.0, 1.0),
        ];
        let sol = schedule_single_machine(&[100.0, 100.0], 1.0, &segs);
        assert!((sol.times[0] - 2.0).abs() < 1e-12);
        assert!((sol.times[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn contested_time_respects_slope_priority_across_tasks() {
        // Deadlines both 3. Task 0: slopes (4: 1 GFLOP, 1: 5). Task 1:
        // slopes (3: 1, 2: 5). Order: 4, 3, 2, 1. After t0s0 (1s) and t1s0
        // (1s), 1 s remains for t1s1 (slope 2). t0s1 gets nothing.
        let segs = [
            seg(0, 0, 4.0, 1.0),
            seg(0, 1, 1.0, 5.0),
            seg(1, 0, 3.0, 1.0),
            seg(1, 1, 2.0, 5.0),
        ];
        let sol = schedule_single_machine(&[3.0, 3.0], 1.0, &segs);
        assert!((sol.times[0] - 1.0).abs() < 1e-12);
        assert!((sol.times[1] - 2.0).abs() < 1e-12);
        let acc = accuracy_of(&segs, &sol.used_flops, 0.0);
        assert!((acc - (4.0 + 3.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_and_flat_segments_are_skipped() {
        let segs = [seg(0, 0, 0.0, 5.0), seg(0, 1, 1.0, 0.0)];
        let sol = schedule_single_machine(&[10.0], 1.0, &segs);
        assert_eq!(sol.times[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unsorted_deadlines_panic() {
        schedule_single_machine(&[2.0, 1.0], 1.0, &[]);
    }

    /// Algorithm 1's processing order by its comparator: slope
    /// descending in `f64::total_cmp`'s order, then task, then position.
    fn comparator_order(segments: &[SegmentSpec]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..segments.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&segments[a], &segments[b]);
            sb.slope
                .total_cmp(&sa.slope)
                .then(sa.task.cmp(&sb.task))
                .then(sa.position.cmp(&sb.position))
        });
        order
    }

    /// The packed-key sort is the comparator's order on task-major
    /// segment lists whose slopes tie across tasks, whose curves repeat
    /// whole, and which hold ±0.0 and negative slopes.
    #[test]
    fn packed_key_order_is_the_comparator_order() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8080);
        let pool = [2.0, 1.5, 1.0, 0.5, 0.25, 0.0, -0.0, -0.5];
        for trial in 0..300 {
            let mut segments = Vec::new();
            let mut last: Vec<f64> = Vec::new();
            for task in 0..rng.gen_range(0..20) {
                let curve: Vec<f64> = if !last.is_empty() && rng.gen_bool(0.3) {
                    last.clone() // a repeated curve
                } else {
                    (0..rng.gen_range(1..5))
                        .map(|_| {
                            if rng.gen_bool(0.6) {
                                pool[rng.gen_range(0..pool.len())]
                            } else {
                                rng.gen_range(-1.0..3.0)
                            }
                        })
                        .collect()
                };
                for (position, &slope) in curve.iter().enumerate() {
                    segments.push(seg(task, position, slope, 1.0));
                }
                last = curve;
            }
            assert_eq!(
                sort_segments(&segments),
                comparator_order(&segments),
                "trial {trial}"
            );
        }
    }

    /// Reference implementation with the paper's literal O(n) inner loop,
    /// used to cross-check the segment-tree path.
    fn schedule_naive(deadlines: &[f64], speed: f64, segments: &[SegmentSpec]) -> Vec<f64> {
        let n = deadlines.len();
        let order = comparator_order(segments);
        let mut times = vec![0.0f64; n];
        for &si in &order {
            let seg = &segments[si];
            if seg.total_flops <= 0.0 || seg.slope <= 0.0 {
                continue;
            }
            let j = seg.task;
            let mut contribution = seg.total_flops / speed;
            let mut prefix: f64 = times[..j].iter().sum();
            for i in j..n {
                prefix += times[i];
                contribution = contribution.min(deadlines[i] - prefix);
                if contribution <= 0.0 {
                    break;
                }
            }
            times[j] += contribution.max(0.0);
        }
        times
    }

    #[test]
    fn segment_tree_matches_naive_on_random_inputs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for trial in 0..200 {
            let n = rng.gen_range(1..25);
            let mut deadlines: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..10.0)).collect();
            deadlines.sort_by(f64::total_cmp);
            let mut segments = Vec::new();
            for task in 0..n {
                let k = rng.gen_range(1..4);
                let mut slope: f64 = rng.gen_range(0.5..4.0);
                for position in 0..k {
                    segments.push(SegmentSpec {
                        task,
                        position,
                        slope,
                        total_flops: rng.gen_range(0.1..5.0),
                    });
                    slope *= rng.gen_range(0.2..0.9);
                }
            }
            let speed = rng.gen_range(0.5..3.0);
            let fast = schedule_single_machine(&deadlines, speed, &segments);
            let slow = schedule_naive(&deadlines, speed, &segments);
            for j in 0..n {
                assert!(
                    (fast.times[j] - slow[j]).abs() < 1e-9,
                    "trial {trial} task {j}: tree {} vs naive {}",
                    fast.times[j],
                    slow[j]
                );
            }
        }
    }

    /// Accuracy gain of the bucket walk on `deadlines` (as bucket widths)
    /// beside Algorithm 1's on the slack tree.
    fn bucket_and_tree_gain(deadlines: &[f64], segments: &[SegmentSpec]) -> (f64, f64) {
        let order = sort_segments(segments);
        let full = schedule_single_machine_ordered(deadlines, 1.0, segments, &order);
        let want = accuracy_of(segments, &full.used_flops, 0.0);
        let widths: Vec<f64> = deadlines
            .iter()
            .scan(0.0, |prev, &d| {
                let width = d - *prev;
                *prev = d;
                Some(width)
            })
            .collect();
        let mut buckets = BucketSlack::default();
        buckets.load(&widths, &[]);
        let lanes = SegmentLanes::build_in(segments, &order, &mut crate::soa::ScratchArena::new());
        (
            accuracy_gain_buckets_lanes::<false>(&lanes, &mut buckets, &mut []),
            want,
        )
    }

    /// The bucket greedy is the tree greedy: identical gain on random
    /// interleaved segment orders (the chain-polymatroid marginals are
    /// placement-independent, and latest-first draining preserves the
    /// maximal remaining capacity of every prefix), on the empty instance
    /// and with zero capacity everywhere.
    #[test]
    fn bucket_greedy_matches_tree_greedy_on_random_inputs() {
        use rand::{Rng, SeedableRng};
        assert_eq!(bucket_and_tree_gain(&[], &[]), (0.0, 0.0));
        let contested = [seg(0, 0, 2.0, 5.0), seg(1, 0, 1.0, 5.0)];
        assert_eq!(bucket_and_tree_gain(&[0.0, 0.0], &contested), (0.0, 0.0));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(123);
        for trial in 0..200 {
            let n = rng.gen_range(1..30);
            let mut deadlines: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
            deadlines.sort_by(f64::total_cmp);
            let mut segments = Vec::new();
            for task in 0..n {
                let k = rng.gen_range(1..4);
                let mut slope: f64 = rng.gen_range(0.5..4.0);
                for position in 0..k {
                    segments.push(SegmentSpec {
                        task,
                        position,
                        slope,
                        total_flops: rng.gen_range(0.1..5.0),
                    });
                    slope *= rng.gen_range(0.2..0.9);
                }
            }
            let (got, want) = bucket_and_tree_gain(&deadlines, &segments);
            assert!(
                (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "trial {trial}: buckets {got} vs tree {want}"
            );
        }
    }

    /// Consuming mutates only the working state: reloading from the same
    /// checkpointed bucket array replays bit-identical takes (the rollback
    /// contract the incremental prober relies on).
    #[test]
    fn bucket_rollback_is_bit_exact() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let base: Vec<f64> = (0..16)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen_range(0.0..3.0)
                }
            })
            .collect();
        let requests: Vec<(usize, f64)> = (0..60)
            .map(|_| (rng.gen_range(0..16), rng.gen_range(0.0..4.0)))
            .collect();
        let mut bs = BucketSlack::default();
        bs.load(&base, &[]);
        let first: Vec<f64> = requests.iter().map(|&(j, w)| bs.consume(j, w)).collect();
        bs.load(&base[..7], &base[7..]); // split load paths must agree too
        let second: Vec<f64> = requests.iter().map(|&(j, w)| bs.consume(j, w)).collect();
        for (k, (a, b)) in first.iter().zip(&second).enumerate() {
            assert!(a.to_bits() == b.to_bits(), "take {k}: {a} vs {b}");
        }
        assert!(first.iter().any(|&c| c > 0.0), "test must exercise takes");
    }

    #[test]
    fn slack_tree_basics() {
        let mut t = SlackTree::new(&[3.0, 1.0, 4.0, 1.5]);
        assert_eq!(t.suffix_min(0), 1.0);
        assert_eq!(t.suffix_min(2), 1.5);
        assert_eq!(t.suffix_min(4), f64::INFINITY);
        t.suffix_add(1, -0.5);
        assert_eq!(t.suffix_min(0), 0.5);
        assert_eq!(t.suffix_min(2), 1.0);
        t.suffix_add(3, 2.0);
        assert_eq!(t.suffix_min(3), 3.0);
        assert_eq!(t.suffix_min(0), 0.5);
        let empty = SlackTree::new(&[]);
        assert_eq!(empty.suffix_min(0), f64::INFINITY);
    }
}
