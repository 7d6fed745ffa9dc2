//! Sharded parameter-tier routing (table-wise + row-range sharding).
//!
//! The single [`HostServer`] of paper Figure 9 owns every hosted table;
//! this module splits that tier into N independent shards the way
//! "Two-dimensional Sparse Parallelism" partitions DLRM tables: each
//! table's row space is cut into fixed-size **row ranges**, and every
//! `(table, range)` cell is placed on a shard by **consistent hashing**
//! over a virtual-node ring, so both table-wise and row-wise partitions
//! fall out of one placement function and adding a shard only moves the
//! ranges that hash to its virtual nodes.
//!
//! The [`ShardRouter`] is the seam the rest of the system sees:
//!
//! * a gather has two halves, written once and run by both the threaded
//!   trainer's router thread and the simulator: [`ShardRouter::fan_out`]
//!   computes per table the batch's sorted unique rows, each shard's
//!   local rows and the slots that put them back; each shard answers its
//!   request with [`HostServer::serve_rows`]; and [`ShardRouter::stitch`]
//!   reassembles the replies into a [`PrefetchedBatch`] byte-identical to
//!   the single-server gather, stamped with the **minimum** reply
//!   watermark (the global staleness stamp is stitched from the
//!   per-shard stamp domains);
//! * [`ShardRouter::scatter_push`] splits one worker [`GradientPush`]
//!   into one push **per shard** — every shard receives a push for every
//!   batch (possibly with empty per-table gradients), so each shard's
//!   stamp domain advances exactly once per batch and the existing
//!   [`HostServer::apply_checked`] dedup/gap machinery works unchanged
//!   per shard.
//!
//! Why the min-stamp reassembly preserves byte-identity: a worker cache
//! entry always holds the freshest worker-predicted post-update row, and
//! the cache keeps any entry with `pushed_at >= applied_through`. Taking
//! the minimum over shards only *lowers* the stamp, which only makes the
//! cache keep entries longer — and when the minimum watermark passes an
//! entry's `pushed_at`, the shard owning that row has necessarily
//! applied the update, so the served row already equals the cached
//! prediction. Per-shard skew therefore never changes trained bytes.
//!
//! [`HostServer`]: crate::server::HostServer
//! [`HostServer::serve_rows`]: crate::server::HostServer::serve_rows
//! [`HostServer::apply_checked`]: crate::server::HostServer::apply_checked

use crate::replica::splitmix64;
use crate::server::{GradientPush, PrefetchedBatch, ShardRows};
use el_data::MiniBatch;
use el_dlrm::embedding_bag::{EmbeddingBag, SparseGrad};
use el_tensor::Matrix;
use std::borrow::Cow;
use std::fmt;

/// Virtual nodes per shard on the consistent-hash ring. More nodes
/// smooth the range distribution; 16 keeps the ring tiny while holding
/// the max/mean shard load under ~2x for small shard counts.
const VNODES_PER_SHARD: u64 = 16;

/// Typed failures of the routing layer.
///
/// Placement errors are plain data (no formatting, no allocation) so the
/// hot [`ShardLayout::route`] path stays allocation-free even on the
/// error branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouterError {
    /// The layout does not place this table.
    UnknownTable(usize),
    /// A row index beyond the table's placed row count.
    RowOutOfRange {
        /// Table the row was addressed in.
        table: usize,
        /// The offending row index.
        row: u32,
        /// Rows the layout placed for that table.
        rows: u32,
    },
    /// The shard slice handed to a router operation does not match the
    /// layout's shard count.
    ShardCountMismatch {
        /// Shards the layout places onto.
        expected: u32,
        /// Shards the caller provided.
        got: u32,
    },
    /// The sharded tier serves `UniqueRows` mode only; pooled-embedding
    /// payloads cannot be row-partitioned.
    PooledUnsupported,
    /// A shard's reply does not answer the gather being stitched: it is
    /// for another batch, or it carries fewer tables than were asked.
    ReplyMismatch {
        /// The shard whose reply was rejected.
        shard: u32,
    },
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::UnknownTable(t) => write!(f, "layout places no table {t}"),
            RouterError::RowOutOfRange { table, row, rows } => {
                write!(f, "row {row} out of range for table {table} ({rows} rows placed)")
            }
            RouterError::ShardCountMismatch { expected, got } => {
                write!(f, "layout places {expected} shards but {got} were provided")
            }
            RouterError::PooledUnsupported => {
                write!(f, "the sharded tier serves UniqueRows mode only")
            }
            RouterError::ReplyMismatch { shard } => {
                write!(f, "shard {shard}'s reply does not answer the gather being stitched")
            }
        }
    }
}

impl std::error::Error for RouterError {}

/// Sharding knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of host-server shards (1 = the single-server degenerate).
    pub num_shards: u32,
    /// Rows per placement range; each `(table, range)` cell is placed
    /// independently on the ring.
    pub rows_per_range: u32,
    /// Seed of the consistent-hash ring (placements are a pure function
    /// of this seed plus the table list).
    pub placement_seed: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { num_shards: 1, rows_per_range: 64, placement_seed: 0 }
    }
}

/// Placement of one table's row ranges onto shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableOwnership {
    /// Table id in the model.
    pub table_id: usize,
    /// Total rows placed for this table.
    pub rows: u32,
    /// Owning shard of each row range (`range = row / rows_per_range`).
    pub owners: Vec<u32>,
    /// Per range: how many of the table's earlier rows the same shard
    /// owns — the base of the range's rows inside the shard's sub-table,
    /// which stores its owned rows in ascending global order.
    pub local_base: Vec<u32>,
}

/// Where one `(table, row)` lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowRoute {
    /// Owning shard.
    pub shard: u32,
    /// Row index inside that shard's sub-table for the table.
    pub local: u32,
}

/// The full placement: every hosted table's ranges mapped onto
/// `num_shards` shards by consistent hashing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardLayout {
    num_shards: u32,
    rows_per_range: u32,
    placement_seed: u64,
    tables: Vec<TableOwnership>,
}

impl ShardLayout {
    /// Places `tables` (`(table id, rows)`) under `cfg`. The placement
    /// is a pure function of the config and the table list, so every
    /// participant (trainer, shards, serving tier, simulator) derives
    /// the identical layout independently.
    pub fn place(cfg: &ShardConfig, tables: &[(usize, usize)]) -> Self {
        let num_shards = cfg.num_shards.max(1);
        let rows_per_range = cfg.rows_per_range.max(1);
        // the virtual-node ring: (point, shard), sorted by point
        let mut ring: Vec<(u64, u32)> =
            Vec::with_capacity((num_shards as u64 * VNODES_PER_SHARD) as usize);
        for s in 0..num_shards {
            for v in 0..VNODES_PER_SHARD {
                let point = splitmix64(cfg.placement_seed ^ splitmix64((u64::from(s) << 20) | v));
                ring.push((point, s));
            }
        }
        ring.sort_unstable();
        let owner_of = |key: u64| -> u32 {
            let idx = ring.partition_point(|(p, _)| *p < key);
            ring[if idx == ring.len() { 0 } else { idx }].1
        };
        let tables = tables
            .iter()
            .map(|&(table_id, rows)| {
                let rows = rows as u32;
                let num_ranges = (rows as usize).div_ceil(rows_per_range as usize);
                let mut owners = Vec::with_capacity(num_ranges);
                let mut local_base = Vec::with_capacity(num_ranges);
                // running count of this table's rows owned by each shard
                let mut owned_so_far = vec![0u32; num_shards as usize];
                for range in 0..num_ranges {
                    let key = splitmix64(
                        cfg.placement_seed
                            ^ splitmix64(
                                (table_id as u64).wrapping_mul(0x517C_C1B7_2722_0A95)
                                    ^ ((range as u64) << 1 | 1),
                            ),
                    );
                    let shard = owner_of(key);
                    owners.push(shard);
                    local_base.push(owned_so_far[shard as usize]);
                    let start = range as u32 * rows_per_range;
                    let len = rows_per_range.min(rows - start);
                    owned_so_far[shard as usize] += len;
                }
                TableOwnership { table_id, rows, owners, local_base }
            })
            .collect();
        Self { num_shards, rows_per_range, placement_seed: cfg.placement_seed, tables }
    }

    /// Places the tables a [`crate::server::HostServer`] hosts (id + row
    /// count taken from the bags themselves).
    pub fn place_for(cfg: &ShardConfig, tables: &[(usize, EmbeddingBag)]) -> Self {
        let sizes: Vec<(usize, usize)> =
            tables.iter().map(|(t, bag)| (*t, bag.num_rows())).collect();
        Self::place(cfg, &sizes)
    }

    /// Number of shards this layout places onto.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// Per-table ownership records, in placement order.
    pub fn tables(&self) -> &[TableOwnership] {
        &self.tables
    }

    /// Maps `(table_id, row)` to its owning shard and local row index.
    ///
    /// The hot path of every scatter and of the serving read tier: a
    /// linear scan over the (few) hosted tables plus two array reads —
    /// no allocation on either branch.
    // CONTRACT: zero-alloc
    pub fn route(&self, table_id: usize, row: u32) -> Result<RowRoute, RouterError> {
        let mut ownership = None;
        for t in &self.tables {
            if t.table_id == table_id {
                ownership = Some(t);
                break;
            }
        }
        let Some(t) = ownership else {
            return Err(RouterError::UnknownTable(table_id));
        };
        if row >= t.rows {
            return Err(RouterError::RowOutOfRange { table: table_id, row, rows: t.rows });
        }
        let range = (row / self.rows_per_range) as usize;
        let shard = t.owners[range];
        let local = t.local_base[range] + (row % self.rows_per_range);
        Ok(RowRoute { shard, local })
    }

    /// Routes a sorted slice of rows of one table into `out`'s per-shard
    /// buffers: `locals` receives the shard-local row indices, `slots`
    /// the positions in `rows` (so a gather can be reassembled and a
    /// push's gradient values can be copied out).
    ///
    /// Per-shard outputs stay sorted when `rows` is sorted: ranges are
    /// monotone in the row index and `local_base` grows with the range.
    /// The caller recycles `out` across batches ([`ShardScatter::reset`]
    /// keeps the capacity), so the steady state allocates nothing.
    // CONTRACT: zero-alloc
    pub fn scatter_into(
        &self,
        table_id: usize,
        rows: &[u32],
        out: &mut ShardScatter,
    ) -> Result<(), RouterError> {
        for (slot, &row) in rows.iter().enumerate() {
            let route = self.route(table_id, row)?;
            let shard = route.shard as usize;
            out.locals[shard].push(route.local);
            out.slots[shard].push(slot as u32);
        }
        Ok(())
    }

    /// The global rows of `table_id` owned by `shard`, ascending — the
    /// order the shard's sub-table stores them in.
    pub fn owned_rows(&self, table_id: usize, shard: u32) -> Result<Vec<u32>, RouterError> {
        let t = self
            .tables
            .iter()
            .find(|t| t.table_id == table_id)
            .ok_or(RouterError::UnknownTable(table_id))?;
        let mut owned = Vec::new();
        for (range, &owner) in t.owners.iter().enumerate() {
            if owner == shard {
                let start = range as u32 * self.rows_per_range;
                let end = (start + self.rows_per_range).min(t.rows);
                owned.extend(start..end);
            }
        }
        Ok(owned)
    }
}

/// Recycled per-shard scatter buffers (see [`ShardLayout::scatter_into`]).
#[derive(Clone, Debug, Default)]
pub struct ShardScatter {
    /// Per shard: shard-local row indices.
    pub locals: Vec<Vec<u32>>,
    /// Per shard: positions in the scattered slice.
    pub slots: Vec<Vec<u32>>,
}

impl ShardScatter {
    /// Empty buffers; size them with [`ShardScatter::reset`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the buffers and ensures one pair per shard, keeping any
    /// existing capacity.
    pub fn reset(&mut self, num_shards: usize) {
        self.locals.resize_with(num_shards, Vec::new);
        self.slots.resize_with(num_shards, Vec::new);
        for v in &mut self.locals {
            v.clear();
        }
        for v in &mut self.slots {
            v.clear();
        }
    }
}

/// Splits a single server's hosted tables into per-shard sub-tables.
///
/// Every shard receives **every** table (possibly with zero rows — the
/// dimension is preserved), so shard servers are uniform: any push can
/// name any table and per-shard table validation
/// ([`crate::server::HostServer::apply_checked`]) still holds.
pub fn split_tables(
    tables: &[(usize, EmbeddingBag)],
    layout: &ShardLayout,
) -> Result<Vec<Vec<(usize, EmbeddingBag)>>, RouterError> {
    split_with(tables.iter().map(|(t, bag)| (*t, Cow::Borrowed(bag))), layout)
}

/// [`split_tables`] by move: each table is dropped as soon as it has been
/// split, and a shard that owns every row of a table receives the bag
/// itself — so a run never holds the unsplit tables beside the shards'.
pub(crate) fn split_tables_owned(
    tables: Vec<(usize, EmbeddingBag)>,
    layout: &ShardLayout,
) -> Result<Vec<Vec<(usize, EmbeddingBag)>>, RouterError> {
    split_with(tables.into_iter().map(|(t, bag)| (t, Cow::Owned(bag))), layout)
}

fn split_with<'a>(
    tables: impl Iterator<Item = (usize, Cow<'a, EmbeddingBag>)>,
    layout: &ShardLayout,
) -> Result<Vec<Vec<(usize, EmbeddingBag)>>, RouterError> {
    let num_shards = layout.num_shards();
    let mut shards: Vec<Vec<(usize, EmbeddingBag)>> = (0..num_shards).map(|_| Vec::new()).collect();
    for (t, whole) in tables {
        let owned =
            (0..num_shards).map(|s| layout.owned_rows(t, s)).collect::<Result<Vec<_>, _>>()?;
        let sole_owner = owned.iter().position(|rows| rows.len() == whole.num_rows());
        let mut parts: Vec<EmbeddingBag> = owned
            .iter()
            .enumerate()
            .map(|(s, rows)| {
                // the sole owner's part is the table itself, installed below
                let rows = if sole_owner == Some(s) { &[][..] } else { rows };
                EmbeddingBag { weight: whole.gather_rows(rows) }
            })
            .collect();
        if let Some(s) = sole_owner {
            parts[s] = whole.into_owned();
        }
        for (sub, part) in shards.iter_mut().zip(parts) {
            sub.push((t, part));
        }
    }
    Ok(shards)
}

/// Reassembles per-shard sub-tables into the global hosted tables —
/// the inverse of [`split_tables`] (byte-exact: rows are copied, never
/// recomputed).
pub fn merge_tables(
    shards: &[Vec<(usize, EmbeddingBag)>],
    layout: &ShardLayout,
) -> Result<Vec<(usize, EmbeddingBag)>, RouterError> {
    let borrowed = shards
        .iter()
        .map(|sub| sub.iter().map(|(t, bag)| (*t, Cow::Borrowed(bag))).collect())
        .collect();
    merge_with(borrowed, layout)
}

/// [`merge_tables`] by move — the inverse of [`split_tables_owned`]: a
/// table that lives whole on one shard is taken back as is.
pub(crate) fn merge_tables_owned(
    shards: Vec<Vec<(usize, EmbeddingBag)>>,
    layout: &ShardLayout,
) -> Result<Vec<(usize, EmbeddingBag)>, RouterError> {
    let owned = shards
        .into_iter()
        .map(|sub| sub.into_iter().map(|(t, bag)| (t, Cow::Owned(bag))).collect())
        .collect();
    merge_with(owned, layout)
}

fn merge_with(
    mut shards: Vec<Vec<(usize, Cow<'_, EmbeddingBag>)>>,
    layout: &ShardLayout,
) -> Result<Vec<(usize, EmbeddingBag)>, RouterError> {
    if shards.len() != layout.num_shards() as usize {
        return Err(RouterError::ShardCountMismatch {
            expected: layout.num_shards(),
            got: shards.len() as u32,
        });
    }
    let mut merged = Vec::with_capacity(layout.tables().len());
    for t in layout.tables() {
        // this table's `(owned global rows, sub-table)` on every shard
        let mut parts = Vec::with_capacity(shards.len());
        for (s, sub) in shards.iter_mut().enumerate() {
            let at = sub
                .iter()
                .position(|(id, _)| *id == t.table_id)
                .ok_or(RouterError::UnknownTable(t.table_id))?;
            let (_, part) = sub.swap_remove(at);
            let owned = layout.owned_rows(t.table_id, s as u32)?;
            if part.num_rows() != owned.len() {
                return Err(RouterError::RowOutOfRange {
                    table: t.table_id,
                    row: part.num_rows() as u32,
                    rows: owned.len() as u32,
                });
            }
            parts.push((owned, part));
        }
        let bag = match parts.iter().position(|(owned, _)| owned.len() == t.rows as usize) {
            Some(s) => parts.swap_remove(s).1.into_owned(),
            None => {
                let mut bag =
                    EmbeddingBag { weight: Matrix::zeros(t.rows as usize, parts[0].1.dim()) };
                for (owned, part) in &parts {
                    bag.scatter_rows(owned, &part.weight);
                }
                bag
            }
        };
        merged.push((t.table_id, bag));
    }
    Ok(merged)
}

/// What one shard is asked to serve for a gather: `(table id,
/// shard-local rows)` per placed table, in layout order.
pub type ShardRequest = Vec<(usize, Vec<u32>)>;

/// A gather between its two halves: what [`ShardRouter::fan_out`] sent
/// and [`ShardRouter::stitch`] needs to put the replies back together.
#[derive(Debug)]
pub struct PendingGather {
    /// Sequence number of the batch being gathered.
    seq: u64,
    /// The batch itself, handed on to the worker with its rows.
    batch: MiniBatch,
    /// Per placed table: `(table id, unique sorted rows, per shard the
    /// slots of the unique rows that shard serves)`.
    tables: Vec<(usize, Vec<u32>, Vec<Vec<u32>>)>,
}

/// The scatter/gather front of the sharded parameter tier.
pub struct ShardRouter {
    layout: ShardLayout,
    scratch: ShardScatter,
}

impl ShardRouter {
    /// A router over the given placement.
    pub fn new(layout: ShardLayout) -> Self {
        Self { layout, scratch: ShardScatter::new() }
    }

    /// The placement this router routes with.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// The fan-out half of a gather: per placed table, the batch's
    /// globally unique rows (sorted) are routed to their owning shards.
    /// Returns the pending gather, which the stitch half
    /// ([`ShardRouter::stitch`]) completes, and one request per shard:
    /// `(table id, shard-local rows)` in layout order, for
    /// [`crate::server::HostServer::serve_rows`].
    pub fn fan_out(
        &mut self,
        batch: MiniBatch,
        seq: u64,
    ) -> Result<(PendingGather, Vec<ShardRequest>), RouterError> {
        let num_shards = self.layout.num_shards() as usize;
        let mut tables = Vec::with_capacity(self.layout.tables().len());
        let mut requests: Vec<ShardRequest> = vec![Vec::new(); num_shards];
        for t in self.layout.tables() {
            let mut unique: Vec<u32> = batch.fields[t.table_id].indices.clone();
            unique.sort_unstable();
            unique.dedup();
            self.scratch.reset(num_shards);
            self.layout.scatter_into(t.table_id, &unique, &mut self.scratch)?;
            for (request, locals) in requests.iter_mut().zip(&self.scratch.locals) {
                request.push((t.table_id, locals.clone()));
            }
            tables.push((t.table_id, unique, self.scratch.slots.clone()));
        }
        Ok((PendingGather { seq, batch, tables }, requests))
    }

    /// The stitch half of a gather: turns the shards' replies (one per
    /// shard, in shard order) into the global [`PrefetchedBatch`], every
    /// row back in its slot, byte-identical to the single-server gather.
    /// The staleness stamp is the **minimum** reply watermark (see the
    /// module docs for why this preserves byte-identity under shard
    /// skew). A table that one shard served whole passes through with no
    /// copy. A reply for another batch, or with fewer tables than asked,
    /// is [`RouterError::ReplyMismatch`].
    pub fn stitch(
        &self,
        pending: PendingGather,
        replies: Vec<ShardRows>,
    ) -> Result<PrefetchedBatch, RouterError> {
        let PendingGather { seq, batch, tables: plan } = pending;
        if replies.len() != self.layout.num_shards() as usize {
            return Err(RouterError::ShardCountMismatch {
                expected: self.layout.num_shards(),
                got: replies.len() as u32,
            });
        }
        if let Some(s) = replies.iter().position(|r| r.seq != seq) {
            return Err(RouterError::ReplyMismatch { shard: s as u32 });
        }
        let applied_through = replies.iter().map(|r| r.applied).min().unwrap_or(0);
        let mut served: Vec<_> = replies.into_iter().map(|r| r.rows.into_iter()).collect();
        let mut tables = Vec::with_capacity(plan.len());
        for (table_id, unique, slots) in plan {
            // this table's served rows, one matrix per shard
            let mut parts = Vec::with_capacity(served.len());
            for (s, rows) in served.iter_mut().enumerate() {
                parts.push(rows.next().ok_or(RouterError::ReplyMismatch { shard: s as u32 })?);
            }
            let rows = match slots.iter().position(|s| s.len() == unique.len()) {
                Some(s) => parts.swap_remove(s),
                None => {
                    let mut rows = Matrix::zeros(unique.len(), parts[0].cols());
                    for (part, shard_slots) in parts.iter().zip(&slots) {
                        for (j, &slot) in shard_slots.iter().enumerate() {
                            rows.row_mut(slot as usize).copy_from_slice(part.row(j));
                        }
                    }
                    rows
                }
            };
            tables.push((table_id, unique, rows));
        }
        Ok(PrefetchedBatch { batch_seq: seq, applied_through, batch, tables, pooled: Vec::new() })
    }

    /// Splits one worker push into one push per shard. Every shard's
    /// push carries **every** table (with an empty gradient when the
    /// shard owns none of the touched rows), so every shard's stamp
    /// domain advances exactly once per batch and per-shard
    /// [`crate::server::HostServer::apply_checked`] sees a gap-free
    /// sequence.
    pub fn scatter_push(&mut self, push: &GradientPush) -> Result<Vec<GradientPush>, RouterError> {
        if !push.pooled.is_empty() {
            return Err(RouterError::PooledUnsupported);
        }
        let num_shards = self.layout.num_shards() as usize;
        let mut out: Vec<GradientPush> = (0..num_shards)
            .map(|_| GradientPush {
                batch_seq: push.batch_seq,
                tables: Vec::with_capacity(push.tables.len()),
                pooled: Vec::new(),
            })
            .collect();
        for (table_id, grad) in &push.tables {
            self.scratch.reset(num_shards);
            self.layout.scatter_into(*table_id, &grad.indices, &mut self.scratch)?;
            for (s, shard_push) in out.iter_mut().enumerate() {
                let locals = &self.scratch.locals[s];
                let mut values = Vec::with_capacity(locals.len() * grad.dim);
                for &slot in &self.scratch.slots[s] {
                    let slot = slot as usize;
                    values.extend_from_slice(&grad.values[slot * grad.dim..(slot + 1) * grad.dim]);
                }
                shard_push.tables.push((
                    *table_id,
                    SparseGrad { indices: locals.clone(), values, dim: grad.dim },
                ));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ApplyOutcome, HostServer, ServerError};
    use el_data::{DatasetSpec, SyntheticDataset};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn bags(rows: &[usize], dim: usize, seed: u64) -> Vec<(usize, EmbeddingBag)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        rows.iter()
            .enumerate()
            .map(|(t, &r)| (t, EmbeddingBag::new(r, dim, 0.2, &mut rng)))
            .collect()
    }

    #[test]
    fn route_places_every_row_exactly_once() {
        let cfg = ShardConfig { num_shards: 3, rows_per_range: 7, placement_seed: 42 };
        let layout = ShardLayout::place(&cfg, &[(0, 50), (1, 23)]);
        for (t, rows) in [(0usize, 50u32), (1, 23)] {
            let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); 3];
            for row in 0..rows {
                let r = layout.route(t, row).unwrap();
                per_shard[r.shard as usize].push(r.local);
            }
            // locals are a bijection onto 0..count per shard
            for (s, locals) in per_shard.iter().enumerate() {
                let mut sorted = locals.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..locals.len() as u32).collect::<Vec<_>>(), "shard {s}");
                assert_eq!(locals.len(), layout.owned_rows(t, s as u32).unwrap().len());
            }
            assert_eq!(per_shard.iter().map(Vec::len).sum::<usize>(), rows as usize);
        }
    }

    #[test]
    fn route_rejects_unknown_and_out_of_range() {
        let cfg = ShardConfig { num_shards: 2, rows_per_range: 8, placement_seed: 1 };
        let layout = ShardLayout::place(&cfg, &[(0, 10)]);
        assert_eq!(layout.route(3, 0), Err(RouterError::UnknownTable(3)));
        assert_eq!(
            layout.route(0, 10),
            Err(RouterError::RowOutOfRange { table: 0, row: 10, rows: 10 })
        );
    }

    #[test]
    fn split_then_merge_is_byte_identical() {
        let tables = bags(&[50, 23, 64], 8, 5);
        let cfg = ShardConfig { num_shards: 4, rows_per_range: 9, placement_seed: 7 };
        let layout = ShardLayout::place_for(&cfg, &tables);
        let shards = split_tables(&tables, &layout).unwrap();
        assert_eq!(shards.len(), 4);
        let merged = merge_tables(&shards, &layout).unwrap();
        assert_eq!(merged.len(), tables.len());
        for ((ta, a), (tb, b)) in tables.iter().zip(&merged) {
            assert_eq!(ta, tb);
            assert_eq!(a.weight.as_slice(), b.weight.as_slice());
        }
    }

    /// The single server over `tables`, the same tables split onto the
    /// shards `cfg` places, and the router over that placement.
    fn tier(
        tables: &[(usize, EmbeddingBag)],
        cfg: ShardConfig,
    ) -> (HostServer, Vec<HostServer>, ShardRouter) {
        let layout = ShardLayout::place_for(&cfg, tables);
        let split = split_tables(tables, &layout).unwrap();
        let shards = split.into_iter().map(|sub| HostServer::new(sub, 0.1)).collect();
        (HostServer::new(tables.to_vec(), 0.1), shards, ShardRouter::new(layout))
    }

    /// Every shard serving its own request of a fan-out.
    fn serve(shards: &mut [HostServer], requests: &[ShardRequest], seq: u64) -> Vec<ShardRows> {
        shards.iter_mut().zip(requests).map(|(s, r)| s.serve_rows(seq, r).unwrap()).collect()
    }

    /// A gather through both halves.
    fn gather(
        router: &mut ShardRouter,
        shards: &mut [HostServer],
        batch: MiniBatch,
        seq: u64,
    ) -> PrefetchedBatch {
        let (pending, requests) = router.fan_out(batch, seq).unwrap();
        router.stitch(pending, serve(shards, &requests, seq)).unwrap()
    }

    fn assert_same_rows(got: &PrefetchedBatch, want: &PrefetchedBatch) {
        assert_eq!(got.batch_seq, want.batch_seq);
        assert_eq!(got.tables.len(), want.tables.len());
        for ((ta, ua, ra), (tb, ub, rb)) in got.tables.iter().zip(&want.tables) {
            assert_eq!((ta, ua), (tb, ub));
            assert_eq!(ra.as_slice(), rb.as_slice());
        }
    }

    #[test]
    fn stitch_stamps_the_slowest_shard_watermark() {
        // A skewed tier: shards at watermarks 5, 2 and 7. The stitched
        // stamp is the minimum — a stamp above any shard's watermark would
        // let the worker's cache evict an entry whose update that shard
        // has not applied — and the rows are the single server's bytes.
        let cfg = ShardConfig { num_shards: 3, rows_per_range: 6, placement_seed: 9 };
        let (mut single, mut shards, mut router) = tier(&bags(&[50, 50], 8, 4), cfg);
        for (shard, applied) in shards.iter_mut().zip([5, 2, 7]) {
            shard.applied = applied;
        }
        let batch = SyntheticDataset::new(DatasetSpec::toy(2, 50, 10_000), 5).batch(0, 16);
        let want = single.gather(batch.clone(), 0);
        let (pending, requests) = router.fan_out(batch, 0).unwrap();
        assert!(
            requests.iter().all(|r| r.iter().any(|(_, locals)| !locals.is_empty())),
            "every shard must serve a share, so the rows are really stitched"
        );
        let got = router.stitch(pending, serve(&mut shards, &requests, 0)).unwrap();
        assert_eq!(got.applied_through, 2);
        assert_same_rows(&got, &want);
        // the shards' H2D meters add up to the single server's
        let h2d: u64 = shards.iter().map(|s| s.meter.h2d_bytes).sum();
        assert_eq!(h2d, single.meter.h2d_bytes);
    }

    #[test]
    fn stitch_rejects_replies_that_do_not_answer_the_gather() {
        let cfg = ShardConfig { num_shards: 2, rows_per_range: 4, placement_seed: 2 };
        let (_, mut shards, mut router) = tier(&bags(&[30, 30], 4, 6), cfg);
        let ds = SyntheticDataset::new(DatasetSpec::toy(2, 30, 10_000), 3);
        type Corrupt = fn(&mut Vec<ShardRows>);
        let cases: [(Corrupt, RouterError); 3] = [
            // a reply for another batch
            (|r| r[1].seq = 2, RouterError::ReplyMismatch { shard: 1 }),
            // a reply with fewer tables than asked
            (|r| drop(r[0].rows.pop()), RouterError::ReplyMismatch { shard: 0 }),
            // a shard that never answered
            (|r| drop(r.pop()), RouterError::ShardCountMismatch { expected: 2, got: 1 }),
        ];
        for (corrupt, want) in cases {
            let (pending, requests) = router.fan_out(ds.batch(3, 8), 3).unwrap();
            let mut replies = serve(&mut shards, &requests, 3);
            corrupt(&mut replies);
            assert_eq!(router.stitch(pending, replies).err(), Some(want));
        }
        // and a shard asked for a table it lacks refuses to serve
        let unknown = shards[0].serve_rows(3, &[(9, vec![0])]);
        assert_eq!(unknown.err(), Some(ServerError::UnknownTable(9)));
    }

    #[test]
    fn scattered_apply_matches_single_server_apply() {
        let ds = SyntheticDataset::new(DatasetSpec::toy(2, 40, 10_000), 3);
        let cfg = ShardConfig { num_shards: 3, rows_per_range: 5, placement_seed: 3 };
        let (mut single, mut shards, mut router) = tier(&bags(&[40, 40], 4, 2), cfg);
        for k in 0..4u64 {
            let pf = single.gather(ds.batch(k, 8), k);
            // unit gradient on every unique row
            let push = GradientPush {
                batch_seq: k,
                tables: pf
                    .tables
                    .iter()
                    .map(|(t, unique, rows)| {
                        (
                            *t,
                            SparseGrad {
                                indices: unique.clone(),
                                values: vec![1.0; rows.len()],
                                dim: rows.cols(),
                            },
                        )
                    })
                    .collect(),
                pooled: vec![],
            };
            assert_eq!(single.apply_checked(&push), Ok(ApplyOutcome::Applied));
            for (shard, sub) in shards.iter_mut().zip(router.scatter_push(&push).unwrap()) {
                assert_eq!(shard.apply_checked(&sub), Ok(ApplyOutcome::Applied));
            }
        }
        let merged = merge_tables(
            &shards.iter().map(|s| s.tables.clone()).collect::<Vec<_>>(),
            router.layout(),
        )
        .unwrap();
        for ((_, a), (_, b)) in single.tables.iter().zip(&merged) {
            assert_eq!(a.weight.as_slice(), b.weight.as_slice());
        }
        // every shard advanced once per batch
        for s in &shards {
            assert_eq!(s.applied, 4);
        }
    }

    #[test]
    fn scatter_push_keeps_duplicate_and_gap_semantics_per_shard() {
        let cfg = ShardConfig { num_shards: 2, rows_per_range: 4, placement_seed: 11 };
        let (_, mut shards, mut router) = tier(&bags(&[30], 4, 8), cfg);
        let push = GradientPush {
            batch_seq: 0,
            tables: vec![(0, SparseGrad { indices: vec![3, 17], values: vec![1.0; 8], dim: 4 })],
            pooled: vec![],
        };
        // every shard gets a sub-push (an empty one where it owns no touched
        // row), so each shard's own stamp domain sees the same sequence
        let future = GradientPush { batch_seq: 5, tables: vec![], pooled: vec![] };
        for (push, want) in [
            (&push, Ok(ApplyOutcome::Applied)),
            (&push, Ok(ApplyOutcome::Duplicate)),
            (&future, Err(ServerError::GradientGap { got: 5, expected: 1 })),
        ] {
            let subs = router.scatter_push(push).unwrap();
            assert_eq!(subs.len(), shards.len());
            for (shard, sub) in shards.iter_mut().zip(&subs) {
                assert_eq!(shard.apply_checked(sub), want);
            }
        }
    }

    #[test]
    fn pooled_pushes_are_rejected() {
        let tables = bags(&[10], 4, 1);
        let layout = ShardLayout::place_for(&ShardConfig::default(), &tables);
        let mut router = ShardRouter::new(layout);
        let push =
            GradientPush { batch_seq: 0, tables: vec![], pooled: vec![(0, Matrix::zeros(2, 4))] };
        assert!(matches!(router.scatter_push(&push), Err(RouterError::PooledUnsupported)));
    }

    proptest! {
        /// Satellite: every row maps to exactly one shard (no orphans, no
        /// double ownership), and per-shard locals are a bijection onto
        /// the shard's sub-table rows — across arbitrary placements and
        /// across a resharding event (two independent layouts).
        #[test]
        fn ownership_partitions_rows(
            num_shards in 1u32..6,
            rows_per_range in 1u32..40,
            seed in 0u64..u64::MAX,
            rows0 in 1usize..120,
            rows1 in 1usize..120,
        ) {
            for placement_seed in [seed, splitmix64(seed)] {
                let cfg = ShardConfig { num_shards, rows_per_range, placement_seed };
                let layout = ShardLayout::place(&cfg, &[(0, rows0), (7, rows1)]);
                for (t, rows) in [(0usize, rows0), (7, rows1)] {
                    let mut seen = vec![0u32; rows];
                    let mut per_shard: Vec<Vec<u32>> =
                        vec![Vec::new(); num_shards as usize];
                    for row in 0..rows as u32 {
                        let r = layout.route(t, row).unwrap();
                        prop_assert!(r.shard < num_shards);
                        seen[row as usize] += 1;
                        per_shard[r.shard as usize].push(r.local);
                    }
                    prop_assert!(seen.iter().all(|&c| c == 1));
                    for (s, locals) in per_shard.iter().enumerate() {
                        let owned = layout.owned_rows(t, s as u32).unwrap();
                        prop_assert_eq!(locals.len(), owned.len());
                        let mut sorted = locals.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        prop_assert_eq!(
                            sorted.len(), locals.len(),
                            "shard {} locals must be unique", s
                        );
                        prop_assert_eq!(
                            sorted.last().copied().map(|m| m as usize + 1).unwrap_or(0),
                            locals.len(),
                            "locals must be dense 0..count"
                        );
                    }
                }
            }
        }

        /// Satellite: scatter→gather round-trips every mini-batch
        /// byte-identically to the single-server gather, for arbitrary
        /// shard counts and placements.
        #[test]
        fn sharded_gather_round_trips_byte_identically(
            num_shards in 1u32..6,
            rows_per_range in 1u32..40,
            placement_seed in 0u64..u64::MAX,
            batch_seed in 0u64..64,
        ) {
            let cfg = ShardConfig { num_shards, rows_per_range, placement_seed };
            let (mut single, mut shards, mut router) = tier(&bags(&[60, 37], 8, 13), cfg);
            let ds = SyntheticDataset::new(DatasetSpec::toy(2, 37, 10_000), 3);
            let batch = ds.batch(batch_seed, 16);
            let want = single.gather(batch.clone(), batch_seed);
            let got = gather(&mut router, &mut shards, batch, batch_seed);
            prop_assert_eq!(got.applied_through, want.applied_through);
            assert_same_rows(&got, &want);
        }

        /// Split→merge is the identity across resharding events: splitting
        /// under one layout, merging, re-splitting under a different
        /// layout and merging again reproduces the original bytes.
        #[test]
        fn resharding_round_trips_tables(
            from_shards in 1u32..5,
            to_shards in 1u32..5,
            rows_per_range in 1u32..30,
            seed in 0u64..u64::MAX,
        ) {
            let tables = bags(&[45, 31], 4, 17);
            let from_cfg = ShardConfig {
                num_shards: from_shards, rows_per_range, placement_seed: seed,
            };
            let to_cfg = ShardConfig {
                num_shards: to_shards,
                rows_per_range: rows_per_range.wrapping_add(3).max(1),
                placement_seed: splitmix64(seed),
            };
            let from_layout = ShardLayout::place_for(&from_cfg, &tables);
            let to_layout = ShardLayout::place_for(&to_cfg, &tables);
            let merged_a =
                merge_tables(&split_tables(&tables, &from_layout).unwrap(), &from_layout)
                    .unwrap();
            let merged_b =
                merge_tables(&split_tables(&merged_a, &to_layout).unwrap(), &to_layout).unwrap();
            for ((ta, a), (tb, b)) in tables.iter().zip(&merged_b) {
                prop_assert_eq!(ta, tb);
                prop_assert_eq!(a.weight.as_slice(), b.weight.as_slice());
            }
        }
    }
}
