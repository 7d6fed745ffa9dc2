//! Lookup plans — the CPU analogue of EL-Rec's *parallel pointer
//! preparation* (paper Algorithm 1).
//!
//! Before a batch touches the TT cores, EL-Rec scans its indices, decides
//! which intermediate products are *inevitable* (the `Buf_flag` dedup of
//! Algorithm 1) and emits pointer lists for one batched-GEMM launch per
//! chain level. [`LookupPlan::build`] performs the same analysis:
//!
//! * every lookup index is decomposed into TT digits (paper Eq. 3);
//! * for each chain depth `t` the set of *prefixes* `index / prod_{l>t} m_l`
//!   is collected — when `dedup` is on, duplicates collapse to a single
//!   slot, which is exactly the intermediate-result reuse of §III-A (and,
//!   on the last level, the unique-index set that in-advance gradient
//!   aggregation of §III-B operates on);
//! * with `dedup` off the plan keeps one slot per lookup, reproducing the
//!   TT-Rec baseline the paper compares against.
//!
//! The plan also precomputes the two groupings the backward pass needs for
//! conflict-free parallelism: items grouped by their **parent** slot
//! (children are contiguous because slots are sorted) and items grouped by
//! their **digit** (each digit owns one core slice).

use el_tensor::shard::{self, AtomicWriter};
use rayon::prelude::*;

/// Lookup count (nnz) below which [`LookupPlan::par_build_into`] delegates
/// to the sequential builder — fork/join overhead beats the parallel win on
/// small batches.
pub const PAR_BUILD_CUTOFF: usize = 4096;

/// Compressed sparse row structure: `items[offsets[g]..offsets[g+1]]` are
/// the members of group `g`.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    /// Group boundaries, `groups + 1` entries.
    pub offsets: Vec<u32>,
    /// Group members.
    pub items: Vec<u32>,
}

/// Grow-only length adjustment that never reallocates in steady state and
/// never zero-fills elements the caller is about to overwrite.
#[inline]
fn ensure_len_u32(v: &mut Vec<u32>, len: usize) {
    if v.len() < len {
        v.resize(len, 0);
    } else {
        v.truncate(len);
    }
}

/// `u64` twin of [`ensure_len_u32`].
#[inline]
fn ensure_len_u64(v: &mut Vec<u64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0);
    } else {
        v.truncate(len);
    }
}

impl Csr {
    /// Members of group `g`.
    #[inline]
    pub fn group(&self, g: usize) -> &[u32] {
        &self.items[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Rebuilds in place from `(group, item)` assignments, reusing the
    /// offset/item allocations; `cursor` is caller-provided scratch so the
    /// counting sort needs no allocation either.
    pub fn rebuild(&mut self, groups: usize, assignments: &[u32], cursor: &mut Vec<u32>) {
        self.offsets.clear();
        self.offsets.resize(groups + 1, 0);
        for &g in assignments {
            self.offsets[g as usize + 1] += 1;
        }
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        cursor.clear();
        cursor.extend_from_slice(&self.offsets[..groups]);
        ensure_len_u32(&mut self.items, assignments.len());
        for (item, &g) in assignments.iter().enumerate() {
            let slot = &mut cursor[g as usize];
            self.items[*slot as usize] = item as u32;
            *slot += 1;
        }
    }
}

/// One level of the TT multiplication chain.
///
/// Level `t` (0-based) holds the distinct index prefixes of depth `t + 1`;
/// its slot `s` corresponds to the partial product
/// `P_{t+1} = G_1[i_1] x ... x G_{t+1}[i_{t+1}]` for that prefix.
#[derive(Clone, Debug, Default)]
pub struct Level {
    /// Prefix value of each slot (sorted; unique iff the plan deduplicates).
    pub values: Vec<u64>,
    /// Slot of the parent prefix in the previous level (empty at level 0).
    pub parent: Vec<u32>,
    /// TT digit `i_{t+1}` of each slot.
    pub digit: Vec<u32>,
    /// Children of each previous-level slot, as a contiguous range
    /// `child_offsets[p]..child_offsets[p+1]` (empty at level 0).
    pub child_offsets: Vec<u32>,
    /// Slots grouped by digit — one group per core slice, so parallel
    /// core-gradient accumulation is write-disjoint.
    pub digit_groups: Csr,
}

impl Level {
    /// Number of slots at this level.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the level has no slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Reusable scratch for [`LookupPlan::build_into`], so steady-state plan
/// analysis allocates nothing once its buffers have grown to the working
/// batch size.
#[derive(Clone, Debug, Default)]
pub struct PlanScratch {
    /// Lookup positions in index-sorted order.
    order: Vec<u32>,
    /// Parent prefix value per slot of the level being processed.
    parent_values: Vec<u64>,
    /// Counting-sort cursor for [`Csr::rebuild`].
    cursor: Vec<u32>,
    /// Per-shard histograms for the parallel counting sorts.
    part_hist: Vec<u32>,
    /// Per-part new-slot counts (then exclusive prefixes) for the parallel
    /// dedup scans.
    chunk_base: Vec<u32>,
    /// Bucket boundaries of the radix-partitioned parallel sort.
    bucket_offsets: Vec<u32>,
}

impl PlanScratch {
    /// Bytes currently held by the scratch buffers.
    pub fn scratch_bytes(&self) -> usize {
        let u = std::mem::size_of::<u32>();
        (self.order.capacity()
            + self.cursor.capacity()
            + self.part_hist.capacity()
            + self.chunk_base.capacity()
            + self.bucket_offsets.capacity())
            * u
            + self.parent_values.capacity() * std::mem::size_of::<u64>()
    }
}

/// A fully-analyzed batch of embedding lookups.
#[derive(Clone, Debug, Default)]
pub struct LookupPlan {
    /// Row-dimension factors `m_k` the indices were decomposed against.
    pub dims: Vec<usize>,
    /// Number of samples in the batch.
    pub batch_size: usize,
    /// Total number of lookups (nnz).
    pub nnz: usize,
    /// Whether identical prefixes share a slot (Eff-TT) or not (TT-Rec).
    pub dedup: bool,
    /// Per lookup position: slot in the last level holding its row.
    pub lookup_slot: Vec<u32>,
    /// Per lookup position: owning sample.
    pub sample_of_lookup: Vec<u32>,
    /// Per-sample lookup ranges (copy of the CSR offsets of the field).
    pub sample_offsets: Vec<u32>,
    /// Last-level slot -> lookup positions; drives in-advance gradient
    /// aggregation.
    pub slot_lookups: Csr,
    /// Chain levels, `levels[t]` at depth `t + 1`; `levels[d-1]` slots are
    /// the (unique) rows of the batch.
    pub levels: Vec<Level>,
}

impl LookupPlan {
    /// Analyzes a batch given as CSR `(indices, offsets)` against row
    /// factors `dims`.
    ///
    /// # Panics
    /// Panics if an index is out of the factorized capacity, or the CSR
    /// structure is malformed.
    pub fn build(indices: &[u32], offsets: &[u32], dims: &[usize], dedup: bool) -> LookupPlan {
        let mut plan = LookupPlan::default();
        plan.build_into(indices, offsets, dims, dedup, &mut PlanScratch::default());
        plan
    }

    /// In-place variant of [`LookupPlan::build`]: re-analyzes a batch into
    /// `self`, reusing every buffer the previous analysis left behind.
    ///
    /// Together with a caller-held [`PlanScratch`] this makes steady-state
    /// pointer preparation allocation-free — the training hot loop builds
    /// one plan per batch, so the plan object cycles through the workspace
    /// instead of being reallocated.
    ///
    /// # Panics
    /// Same contract as [`LookupPlan::build`].
    // CONTRACT: zero-alloc
    pub fn build_into(
        &mut self,
        indices: &[u32],
        offsets: &[u32],
        dims: &[usize],
        dedup: bool,
        scratch: &mut PlanScratch,
    ) {
        let d = dims.len();
        assert!(d >= 2, "TT tables need at least two cores");
        assert!(!offsets.is_empty() && offsets[0] == 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap() as usize, // PANIC-OK: non-empty asserted above
            indices.len(),
            "offsets must cover all indices"
        );
        let capacity: u64 = dims.iter().map(|&m| m as u64).product();
        let nnz = indices.len();
        let batch_size = offsets.len() - 1;

        self.dims.clear();
        self.dims.extend_from_slice(dims);
        self.batch_size = batch_size;
        self.nnz = nnz;
        self.dedup = dedup;
        self.sample_offsets.clear();
        self.sample_offsets.extend_from_slice(offsets);

        ensure_len_u32(&mut self.sample_of_lookup, nnz);
        for s in 0..batch_size {
            for j in offsets[s]..offsets[s + 1] {
                self.sample_of_lookup[j as usize] = s as u32;
            }
        }

        // Sort lookups by (index value, position) so duplicates (and shared
        // prefixes) are adjacent. The composite key is a *total* order, so
        // every correct sort — including the bucketed parallel one in
        // [`LookupPlan::par_build_into`] — produces this exact permutation.
        // `order[r]` is the lookup position at sorted rank r.
        let order = &mut scratch.order;
        order.clear();
        order.extend(0..nnz as u32);
        order.sort_unstable_by_key(|&j| (indices[j as usize], j));

        if self.levels.len() != d {
            self.levels.clear();
            self.levels.resize_with(d, Level::default);
        }

        // Last level first: one slot per distinct index (dedup) or per
        // lookup (no dedup); record each lookup's slot.
        ensure_len_u32(&mut self.lookup_slot, nnz);
        {
            let last = &mut self.levels[d - 1];
            last.values.clear();
            for &j in order.iter() {
                let v = indices[j as usize] as u64;
                assert!(v < capacity, "index {v} exceeds factorized capacity {capacity}");
                let is_new = !dedup || last.values.last() != Some(&v);
                if is_new {
                    last.values.push(v);
                }
                self.lookup_slot[j as usize] = (last.values.len() - 1) as u32;
            }
        }

        let num_slots = self.levels[d - 1].values.len();
        self.slot_lookups.rebuild(num_slots, &self.lookup_slot, &mut scratch.cursor);

        // Build levels top-down from the sorted distinct values. At depth t
        // the prefix list of the (t+1)-deep level divided by m_{t+1} gives
        // the parent prefixes; equal prefixes collapse when deduplicating.
        for t in (0..d).rev() {
            let m_t = dims[t] as u64;
            let (head, tail) = self.levels.split_at_mut(t);
            let cur = &mut tail[0];

            cur.digit.clear();
            cur.digit.extend(cur.values.iter().map(|&v| (v % m_t) as u32));

            let parent_values = &mut scratch.parent_values;
            parent_values.clear();
            parent_values.extend(cur.values.iter().map(|&v| v / m_t));

            if t == 0 {
                cur.parent.clear();
                cur.child_offsets.clear();
            } else {
                // Parent slots: parents are sorted because children are.
                cur.parent.clear();
                let mut distinct = 0usize;
                let mut prev: Option<u64> = None;
                for &pv in parent_values.iter() {
                    let is_new = !dedup || prev != Some(pv);
                    if is_new {
                        distinct += 1;
                        prev = Some(pv);
                    }
                    cur.parent.push((distinct - 1) as u32);
                }
                cur.child_offsets.clear();
                cur.child_offsets.resize(distinct + 1, 0);
                for &p in &cur.parent {
                    cur.child_offsets[p as usize + 1] += 1;
                }
                for i in 1..cur.child_offsets.len() {
                    cur.child_offsets[i] += cur.child_offsets[i - 1];
                }
                // The shallower level's value list: deduped parent prefixes.
                let prev_level = &mut head[t - 1];
                prev_level.values.clear();
                if dedup {
                    let mut last: Option<u64> = None;
                    for &pv in parent_values.iter() {
                        if last != Some(pv) {
                            prev_level.values.push(pv);
                            last = Some(pv);
                        }
                    }
                } else {
                    prev_level.values.extend_from_slice(parent_values);
                }
            }
            cur.digit_groups.rebuild(dims[t], &cur.digit, &mut scratch.cursor);
        }
    }

    /// Rayon-parallel variant of [`LookupPlan::build_into`] — the paper's
    /// Algorithm 1 run as a *parallel* pointer-preparation kernel.
    ///
    /// Produces a plan **bit-identical** to the sequential builder for any
    /// input: the sequential sort key `(value, position)` is a total order,
    /// so the bucketed parallel sort necessarily lands on the same
    /// permutation, and every other plan field is a deterministic function
    /// of that permutation (dedup boundaries, prefix sums and stable
    /// counting sorts do not depend on how work was sharded).
    ///
    /// Below [`PAR_BUILD_CUTOFF`] lookups — or on a single-thread pool, or
    /// for non-monotone offsets — the sequential path is used directly, so
    /// this is never slower where parallelism cannot pay.
    ///
    /// # Panics
    /// Same contract as [`LookupPlan::build`].
    // CONTRACT: zero-alloc
    pub fn par_build_into(
        &mut self,
        indices: &[u32],
        offsets: &[u32],
        dims: &[usize],
        dedup: bool,
        scratch: &mut PlanScratch,
    ) {
        let monotone = offsets.windows(2).all(|w| w[0] <= w[1]);
        if indices.len() < PAR_BUILD_CUTOFF || rayon::current_num_threads() <= 1 || !monotone {
            self.build_into(indices, offsets, dims, dedup, scratch);
        } else {
            self.par_build_impl(indices, offsets, dims, dedup, scratch);
        }
    }

    /// The parallel build without the size cutoff (exercised directly by the
    /// equivalence proptests; requires monotone offsets).
    pub(crate) fn par_build_impl(
        &mut self,
        indices: &[u32],
        offsets: &[u32],
        dims: &[usize],
        dedup: bool,
        scratch: &mut PlanScratch,
    ) {
        let d = dims.len();
        assert!(d >= 2, "TT tables need at least two cores");
        assert!(!offsets.is_empty() && offsets[0] == 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap() as usize, // PANIC-OK: non-empty asserted above
            indices.len(),
            "offsets must cover all indices"
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let capacity: u64 = dims.iter().map(|&m| m as u64).product();
        let nnz = indices.len();
        let batch_size = offsets.len() - 1;

        self.dims.clear();
        self.dims.extend_from_slice(dims);
        self.batch_size = batch_size;
        self.nnz = nnz;
        self.dedup = dedup;
        self.sample_offsets.clear();
        self.sample_offsets.extend_from_slice(offsets);

        // Parallel CSR expansion: each sample's (disjoint) lookup range gets
        // its sample id.
        ensure_len_u32(&mut self.sample_of_lookup, nnz);
        {
            let w = AtomicWriter::new(&mut self.sample_of_lookup[..]);
            let parts = shard::num_parts(batch_size, 64);
            (0..parts).into_par_iter().for_each(|p| {
                for s in shard::part_range(batch_size, parts, p) {
                    for j in offsets[s] as usize..offsets[s + 1] as usize {
                        w.set(j, s as u32);
                    }
                }
            });
        }

        // Radix-partitioned sort: stable-partition positions into buckets
        // monotone in the index value, then sort each bucket by the total
        // key (value, position) — together equal to one global sort.
        const BUCKETS: usize = 256;
        let bucket_of = |j: usize| -> u32 {
            let v = indices[j] as u128;
            (((v * BUCKETS as u128) / capacity.max(1) as u128) as u32).min(BUCKETS as u32 - 1)
        };
        shard::sharded_counting_sort(
            nnz,
            BUCKETS,
            bucket_of,
            &mut scratch.bucket_offsets,
            &mut scratch.order,
            &mut scratch.part_hist,
        );
        shard::for_each_segment_mut(&mut scratch.order, &scratch.bucket_offsets, &|_, seg| {
            seg.sort_unstable_by_key(|&j| (indices[j as usize], j));
        });

        // Out-of-capacity indices sort to a suffix; report the first
        // violating rank exactly like the sequential scan would.
        let viol = scratch.order.partition_point(|&j| (indices[j as usize] as u64) < capacity);
        if viol < nnz {
            let v = indices[scratch.order[viol] as usize] as u64;
            // PANIC-OK: documented contract panic — mirrors the sequential builder.
            panic!("index {v} exceeds factorized capacity {capacity}");
        }

        if self.levels.len() != d {
            self.levels.clear();
            self.levels.resize_with(d, Level::default);
        }

        // Last level, lookup_slot and the slot_lookups boundaries in one
        // parallel dedup scan over the sorted ranks.
        ensure_len_u32(&mut self.lookup_slot, nnz);
        let num_slots = {
            let order = &scratch.order[..nnz];
            let last = &mut self.levels[d - 1];
            ensure_len_u64(&mut last.values, nnz);
            ensure_len_u32(&mut self.slot_lookups.offsets, nnz + 1);
            let vw = AtomicWriter::new(&mut last.values[..]);
            let lw = AtomicWriter::new(&mut self.lookup_slot[..]);
            let ow = AtomicWriter::new(&mut self.slot_lookups.offsets[..]);
            par_scan_emit(
                nnz,
                &mut scratch.chunk_base,
                |r| !dedup || indices[order[r] as usize] != indices[order[r - 1] as usize],
                |r, slot, new| {
                    let j = order[r] as usize;
                    lw.set(j, slot);
                    if new {
                        vw.set(slot as usize, indices[j] as u64);
                        ow.set(slot as usize, r as u32);
                    }
                },
            )
        };
        self.levels[d - 1].values.truncate(num_slots);
        self.slot_lookups.offsets.truncate(num_slots + 1);
        self.slot_lookups.offsets[num_slots] = nnz as u32;
        // Within an equal-value run, ranks ascend by position — exactly the
        // visit order of the sequential cursor scatter, so the sorted order
        // *is* the slot_lookups item list.
        ensure_len_u32(&mut self.slot_lookups.items, nnz);
        self.slot_lookups.items.copy_from_slice(&scratch.order[..nnz]);

        for t in (0..d).rev() {
            let m_t = dims[t] as u64;
            let (head, tail) = self.levels.split_at_mut(t);
            let cur = &mut tail[0];
            let len = cur.values.len();

            // Elementwise digit / parent-prefix maps.
            ensure_len_u32(&mut cur.digit, len);
            ensure_len_u64(&mut scratch.parent_values, len);
            {
                let dw = AtomicWriter::new(&mut cur.digit[..]);
                let pw = AtomicWriter::new(&mut scratch.parent_values[..]);
                let values = &cur.values;
                let parts = shard::num_parts(len, 1024);
                (0..parts).into_par_iter().for_each(|p| {
                    for i in shard::part_range(len, parts, p) {
                        let v = values[i];
                        dw.set(i, (v % m_t) as u32);
                        pw.set(i, v / m_t);
                    }
                });
            }

            if t == 0 {
                cur.parent.clear();
                cur.child_offsets.clear();
            } else {
                // Parent slots, child ranges and the shallower level's
                // values fall out of one dedup scan over the parent
                // prefixes (sorted because the children are).
                let parent_values = &scratch.parent_values[..len];
                ensure_len_u32(&mut cur.parent, len);
                ensure_len_u32(&mut cur.child_offsets, len + 1);
                let prev = &mut head[t - 1];
                ensure_len_u64(&mut prev.values, len);
                let distinct = {
                    let rw = AtomicWriter::new(&mut cur.parent[..]);
                    let cw = AtomicWriter::new(&mut cur.child_offsets[..]);
                    let pv = AtomicWriter::new(&mut prev.values[..]);
                    par_scan_emit(
                        len,
                        &mut scratch.chunk_base,
                        |r| !dedup || parent_values[r] != parent_values[r - 1],
                        |r, slot, new| {
                            rw.set(r, slot);
                            if new {
                                cw.set(slot as usize, r as u32);
                                pv.set(slot as usize, parent_values[r]);
                            }
                        },
                    )
                };
                cur.child_offsets.truncate(distinct + 1);
                cur.child_offsets[distinct] = len as u32;
                prev.values.truncate(distinct);
            }

            // Sharded Csr::rebuild: stable counting sort by digit.
            let digit = &cur.digit;
            shard::sharded_counting_sort(
                len,
                dims[t],
                |i| digit[i],
                &mut cur.digit_groups.offsets,
                &mut cur.digit_groups.items,
                &mut scratch.part_hist,
            );
        }
    }

    /// Number of row slots (unique rows when deduplicating).
    pub fn num_rows(&self) -> usize {
        self.levels.last().map_or(0, Level::len)
    }

    /// Total GEMM tasks the forward chain will execute — the work metric the
    /// reuse optimization reduces (levels beyond the first each cost one
    /// task per slot).
    pub fn forward_tasks(&self) -> usize {
        self.levels.iter().skip(1).map(Level::len).sum()
    }
}

/// Parallel run-length scan. Position `0` is always *new*; position `r > 0`
/// is new iff `is_new(r)`. Every position's slot is `(#new <= r) - 1`, and
/// `emit(r, slot, new)` is called exactly once per position (in parallel,
/// sharded over deterministic part ranges whose choice cannot affect the
/// emitted values). Returns the slot count.
///
/// `chunk_base` is grow-only scratch for the per-part prefix.
fn par_scan_emit<N, E>(len: usize, chunk_base: &mut Vec<u32>, is_new: N, emit: E) -> usize
where
    N: Fn(usize) -> bool + Sync,
    E: Fn(usize, u32, bool) + Sync,
{
    if len == 0 {
        return 0;
    }
    let parts = shard::num_parts(len, 1024);
    ensure_len_u32(chunk_base, parts);
    chunk_base.par_chunks_mut(1).enumerate().for_each(|(p, c)| {
        let mut cnt = 0u32;
        for r in shard::part_range(len, parts, p) {
            if r == 0 || is_new(r) {
                cnt += 1;
            }
        }
        c[0] = cnt;
    });
    let mut total = 0u32;
    for slot in chunk_base.iter_mut().take(parts) {
        let c = *slot;
        *slot = total;
        total += c;
    }
    let base = &chunk_base[..parts];
    (0..parts).into_par_iter().for_each(|p| {
        // Number of slots opened before this part; rank 0 is always new, so
        // `count` is at least 1 before the first emit of any part.
        let mut count = base[p];
        for r in shard::part_range(len, parts, p) {
            let new = r == 0 || is_new(r);
            if new {
                count += 1;
            }
            emit(r, count - 1, new);
        }
    });
    total as usize
}

/// Asserts every field of two plans is identical (the bit-for-bit
/// equivalence contract between the sequential and parallel builders).
#[cfg(test)]
pub(crate) fn assert_plans_identical(a: &LookupPlan, b: &LookupPlan) {
    assert_eq!(a.dims, b.dims);
    assert_eq!(a.batch_size, b.batch_size);
    assert_eq!(a.nnz, b.nnz);
    assert_eq!(a.dedup, b.dedup);
    assert_eq!(a.lookup_slot, b.lookup_slot, "lookup_slot");
    assert_eq!(a.sample_of_lookup, b.sample_of_lookup, "sample_of_lookup");
    assert_eq!(a.sample_offsets, b.sample_offsets, "sample_offsets");
    assert_eq!(a.slot_lookups.offsets, b.slot_lookups.offsets, "slot_lookups offsets");
    assert_eq!(a.slot_lookups.items, b.slot_lookups.items, "slot_lookups items");
    assert_eq!(a.levels.len(), b.levels.len());
    for (t, (x, y)) in a.levels.iter().zip(&b.levels).enumerate() {
        assert_eq!(x.values, y.values, "level {t} values");
        assert_eq!(x.parent, y.parent, "level {t} parent");
        assert_eq!(x.digit, y.digit, "level {t} digit");
        assert_eq!(x.child_offsets, y.child_offsets, "level {t} child_offsets");
        assert_eq!(x.digit_groups.offsets, y.digit_groups.offsets, "level {t} digit offsets");
        assert_eq!(x.digit_groups.items, y.digit_groups.items, "level {t} digit items");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_plan(dedup: bool) -> LookupPlan {
        // dims 2x2x2, indices span two samples
        LookupPlan::build(&[5, 4, 5, 0], &[0, 2, 4], &[2, 2, 2], dedup)
    }

    #[test]
    fn dedup_collapses_duplicates() {
        let p = simple_plan(true);
        assert_eq!(p.num_rows(), 3); // {0, 4, 5}
        assert_eq!(p.levels[2].values, vec![0, 4, 5]);
        // lookup 0 and 2 share the slot of value 5
        assert_eq!(p.lookup_slot[0], p.lookup_slot[2]);
    }

    #[test]
    fn no_dedup_keeps_every_lookup() {
        let p = simple_plan(false);
        assert_eq!(p.num_rows(), 4);
        assert_ne!(p.lookup_slot[0], p.lookup_slot[2]);
    }

    #[test]
    fn prefix_levels_share_slots() {
        let p = simple_plan(true);
        // values {0,4,5}: depth-2 prefixes {0,2,2} -> dedup {0,2}
        assert_eq!(p.levels[1].values, vec![0, 2]);
        // depth-1 prefixes {0,1}
        assert_eq!(p.levels[0].values, vec![0, 1]);
        // 4 = (1,0,0), 5 = (1,0,1): same depth-2 parent
        assert_eq!(p.levels[2].parent, vec![0, 1, 1]);
    }

    #[test]
    fn digits_match_mixed_radix_decomposition() {
        let p = simple_plan(true);
        // last level digits: value % 2 for {0,4,5}
        assert_eq!(p.levels[2].digit, vec![0, 0, 1]);
        // level 1 digits for {0, 2}: (0/1)%2... depth-2 prefix of 2 has digit 0
        assert_eq!(p.levels[1].digit, vec![0, 0]);
        assert_eq!(p.levels[0].digit, vec![0, 1]);
    }

    #[test]
    fn child_ranges_are_contiguous_and_complete() {
        let p = simple_plan(true);
        let lvl = &p.levels[2];
        assert_eq!(lvl.child_offsets, vec![0, 1, 3]);
        for (slot, &parent) in lvl.parent.iter().enumerate() {
            let range = lvl.child_offsets[parent as usize]..lvl.child_offsets[parent as usize + 1];
            assert!(range.contains(&(slot as u32)));
        }
    }

    #[test]
    fn digit_groups_partition_slots() {
        let p = simple_plan(true);
        for lvl in &p.levels {
            let mut seen = vec![false; lvl.len()];
            for g in 0..lvl.digit_groups.num_groups() {
                for &item in lvl.digit_groups.group(g) {
                    assert_eq!(lvl.digit[item as usize] as usize, g);
                    assert!(!seen[item as usize]);
                    seen[item as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn slot_lookups_inverts_lookup_slot() {
        for dedup in [true, false] {
            let p = simple_plan(dedup);
            for slot in 0..p.num_rows() {
                for &j in p.slot_lookups.group(slot) {
                    assert_eq!(p.lookup_slot[j as usize] as usize, slot);
                }
            }
            let total: usize = (0..p.num_rows()).map(|s| p.slot_lookups.group(s).len()).sum();
            assert_eq!(total, p.nnz);
        }
    }

    #[test]
    fn sample_of_lookup_matches_offsets() {
        let p = simple_plan(true);
        assert_eq!(p.sample_of_lookup, vec![0, 0, 1, 1]);
    }

    #[test]
    fn reuse_reduces_forward_tasks() {
        let dense = LookupPlan::build(&[1, 1, 1, 1, 2, 3], &[0, 6], &[2, 2, 2], false);
        let dedup = LookupPlan::build(&[1, 1, 1, 1, 2, 3], &[0, 6], &[2, 2, 2], true);
        assert!(dedup.forward_tasks() < dense.forward_tasks());
    }

    #[test]
    #[should_panic(expected = "exceeds factorized capacity")]
    fn out_of_range_index_panics() {
        let _ = LookupPlan::build(&[8], &[0, 1], &[2, 2, 2], true);
    }

    #[test]
    fn empty_batch_is_fine() {
        let p = LookupPlan::build(&[], &[0], &[2, 2, 2], true);
        assert_eq!(p.batch_size, 0);
        assert_eq!(p.num_rows(), 0);
        assert_eq!(p.forward_tasks(), 0);
    }

    /// A skewed synthetic batch: hot head plus a pseudo-random tail.
    fn skewed_batch(nnz: usize, rows: u32, samples: usize) -> (Vec<u32>, Vec<u32>) {
        let indices: Vec<u32> = (0..nnz)
            .map(|i| {
                if i % 3 == 0 {
                    (i % 7) as u32
                } else {
                    ((i as u64 * 48271) % rows as u64) as u32
                }
            })
            .collect();
        let per = nnz / samples;
        let mut offsets: Vec<u32> = (0..samples as u32).map(|s| s * per as u32).collect();
        offsets.push(nnz as u32);
        (indices, offsets)
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let (indices, offsets) = skewed_batch(9000, 500, 64);
        let dims = vec![8usize, 8, 8];
        for dedup in [true, false] {
            let seq = LookupPlan::build(&indices, &offsets, &dims, dedup);
            let mut par = LookupPlan::default();
            par.par_build_impl(&indices, &offsets, &dims, dedup, &mut PlanScratch::default());
            assert_plans_identical(&seq, &par);
        }
    }

    #[test]
    fn parallel_build_recycles_into_dirty_plan() {
        // A parallel rebuild into a plan that previously analyzed a larger,
        // differently-shaped batch must fully overwrite the stale state.
        let dims = vec![8usize, 8, 8];
        let (big_i, big_o) = skewed_batch(12_000, 400, 32);
        let (small_i, small_o) = skewed_batch(5000, 90, 16);
        let mut scratch = PlanScratch::default();
        let mut par = LookupPlan::default();
        par.par_build_impl(&big_i, &big_o, &dims, false, &mut scratch);
        par.par_build_impl(&small_i, &small_o, &[4, 8, 16], true, &mut scratch);
        let seq = LookupPlan::build(&small_i, &small_o, &[4, 8, 16], true);
        assert_plans_identical(&seq, &par);
    }

    #[test]
    #[should_panic(expected = "exceeds factorized capacity")]
    fn parallel_build_rejects_out_of_capacity() {
        let mut indices = vec![3u32; 5000];
        indices[4321] = 512; // capacity of 8x8x8
        let offsets = vec![0u32, 5000];
        let mut par = LookupPlan::default();
        par.par_build_impl(&indices, &offsets, &[8, 8, 8], true, &mut PlanScratch::default());
    }

    #[test]
    fn par_build_into_small_batches_take_sequential_path() {
        // Below the cutoff the wrapper must still produce the right plan.
        let p = {
            let mut plan = LookupPlan::default();
            plan.par_build_into(
                &[5, 4, 5, 0],
                &[0, 2, 4],
                &[2, 2, 2],
                true,
                &mut PlanScratch::default(),
            );
            plan
        };
        assert_plans_identical(&p, &simple_plan(true));
    }

    #[test]
    fn four_core_plans_work() {
        let p = LookupPlan::build(&[10, 11, 26, 10], &[0, 4], &[3, 3, 3, 3], true);
        assert_eq!(p.levels.len(), 4);
        assert_eq!(p.num_rows(), 3);
        // 10 = (0,1,0,1), 11 = (0,1,0,2), 26 = (0,2,2,2)
        assert_eq!(p.levels[3].values, vec![10, 11, 26]);
        assert_eq!(p.levels[2].values, vec![3, 8]);
        assert_eq!(p.levels[1].values, vec![1, 2]);
        assert_eq!(p.levels[0].values, vec![0]);
    }
}
