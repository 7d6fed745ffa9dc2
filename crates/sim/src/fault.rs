//! Seeded fault plans.
//!
//! A [`FaultPlan`] is the complete, replayable description of everything
//! that goes wrong in one simulated run: which actor fails, when, and how
//! the unreliable gradient links mangle deliveries. Plans are either built
//! explicitly (the hand-written failure-injection tests) or derived
//! deterministically from a seed (the four `from_seed*` derivations, one
//! per sweep domain), so a failing sweep seed reproduces bit-for-bit with
//! `cargo xtask sim <scenario> --seed N`.
//!
//! Every link and host fault names the shard it hits: the single-server
//! tier is shard 0 of a one-shard layout, so "the server dies" *is*
//! `ShardDeath { shard: 0, .. }`. A fault naming a shard or rank the
//! topology does not have never fires.

use el_pipeline::replica::splitmix64;
use std::fmt;

/// One injected fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The worker pauses for `ticks` before computing batch `at_batch`.
    WorkerStall {
        /// Batch whose compute is delayed.
        at_batch: u64,
        /// Stall length in virtual ticks.
        ticks: u64,
    },
    /// The worker dies the moment it dequeues batch `at_batch` — nothing
    /// after that batch is computed, pushed, or retried.
    WorkerDeath {
        /// First batch the worker never trains.
        at_batch: u64,
    },
    /// Delivery of pre-fetched batch `batch` to the worker is delayed by
    /// an extra `ticks`.
    PrefetchDelay {
        /// Delayed batch.
        batch: u64,
        /// Extra delivery latency in ticks.
        ticks: u64,
    },
    /// The whole process (every server *and* the worker) dies once every
    /// shard has applied `after_applied` gradient batches. Recovery —
    /// reopening the checkpoint store and resuming — is driven by
    /// [`crate::recovery::run_with_recovery`], not by the run itself.
    Crash {
        /// Number of applied batches after which the process dies.
        after_applied: u64,
    },
    /// Every member of shard `shard`'s group dies after the group has
    /// applied `after_applied` gradient batches — no more gathering,
    /// applying, or acknowledging on that shard; the other shards keep
    /// running. With one shard this is "the server dies".
    ShardDeath {
        /// The dying shard.
        shard: u32,
        /// Applied batches after which that shard vanishes.
        after_applied: u64,
    },
    /// Shard `shard`'s gradient intake is saturated during
    /// `[start, start + ticks)`: every push delivery to that shard in
    /// the window bounces and must be retransmitted. Other shards are
    /// unaffected, so the same batch's scattered pushes land at
    /// different times — per-shard saturation *is* cross-shard
    /// delivery reordering.
    ShardSaturation {
        /// The saturated shard.
        shard: u32,
        /// First saturated tick.
        start: u64,
        /// Window length in ticks.
        ticks: u64,
    },
    /// The `delivery`-th transmission (1-based) of batch `seq`'s push
    /// toward shard `shard` is dropped by the link.
    DropShardPush {
        /// The shard whose delivery is affected.
        shard: u32,
        /// Batch whose push is affected.
        seq: u64,
        /// Which transmission attempt is dropped.
        delivery: u32,
    },
    /// The `delivery`-th transmission of batch `seq`'s push toward shard
    /// `shard` is duplicated by the link: it arrives twice.
    DuplicateShardPush {
        /// The shard whose delivery is affected.
        shard: u32,
        /// Batch whose push is affected.
        seq: u64,
        /// Which transmission attempt is duplicated.
        delivery: u32,
    },
    /// Every delivery of batch `seq`'s push toward shard `shard` takes an
    /// extra `ticks` — the cross-shard reordering fault: one shard
    /// receives and applies the batch long before its peers do.
    ShardDelay {
        /// The delayed shard.
        shard: u32,
        /// Batch whose deliveries are delayed.
        seq: u64,
        /// Extra delivery latency in ticks.
        ticks: u64,
    },
    /// The current primary of shard `shard`'s replica group dies after
    /// it has applied `after_applied` gradient batches. The worker
    /// suspects it via heartbeat silence and promotes the next alive
    /// backup — training continues from the promoted copy, no cold
    /// restart. Without a backup the group is simply dead.
    PrimaryDeath {
        /// The shard whose primary dies.
        shard: u32,
        /// Applied batches after which the primary vanishes.
        after_applied: u64,
    },
    /// Backup replica `rank` of shard `shard` dies after the group has
    /// applied `after_applied` batches, optionally rejoining later
    /// through the group's catch-up path (a copy of the live primary).
    BackupDeath {
        /// The shard whose backup dies.
        shard: u32,
        /// The dying member's rank within the group.
        rank: u32,
        /// Applied batches after which the backup vanishes.
        after_applied: u64,
        /// Ticks after the death at which the member rejoins via
        /// catch-up (0 = it never rejoins).
        rejoin_after: u64,
    },
    /// Heartbeats from shard `shard`'s primary are dropped during
    /// `[start, start + ticks)` while data traffic flows normally —
    /// the false-suspicion fault: the worker may promote a backup away
    /// from a perfectly healthy primary, which must then step down.
    /// Groups of one exchange no heartbeats, so nothing is lost there.
    HeartbeatLoss {
        /// The shard whose heartbeats are lost.
        shard: u32,
        /// First silent tick.
        start: u64,
        /// Window length in ticks.
        ticks: u64,
    },
    /// All worker traffic to and from shard `shard` (gathers, pushes,
    /// acks, heartbeats) is dropped during `[start, start + ticks)` —
    /// the network-partition fault. Retransmission and failover must
    /// ride it out together.
    Partition {
        /// The partitioned shard.
        shard: u32,
        /// First partitioned tick.
        start: u64,
        /// Window length in ticks.
        ticks: u64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::WorkerStall { at_batch, ticks } => {
                write!(f, "worker stalls {ticks} ticks before batch {at_batch}")
            }
            Fault::WorkerDeath { at_batch } => write!(f, "worker dies at batch {at_batch}"),
            Fault::PrefetchDelay { batch, ticks } => {
                write!(f, "prefetch of batch {batch} delayed {ticks} ticks")
            }
            Fault::Crash { after_applied } => {
                write!(f, "process crashes after applying {after_applied} batches")
            }
            Fault::ShardDeath { shard, after_applied } => {
                write!(f, "shard {shard} dies after applying {after_applied} batches")
            }
            Fault::ShardSaturation { shard, start, ticks } => write!(
                f,
                "shard {shard}'s gradient queue saturated during ticks [{start}, {})",
                start + ticks
            ),
            Fault::DropShardPush { shard, seq, delivery } => {
                write!(f, "delivery {delivery} of push {seq} to shard {shard} dropped")
            }
            Fault::DuplicateShardPush { shard, seq, delivery } => {
                write!(f, "delivery {delivery} of push {seq} to shard {shard} duplicated")
            }
            Fault::ShardDelay { shard, seq, ticks } => {
                write!(f, "push {seq} to shard {shard} delayed {ticks} ticks")
            }
            Fault::PrimaryDeath { shard, after_applied } => {
                write!(f, "shard {shard}'s primary dies after applying {after_applied} batches")
            }
            Fault::BackupDeath { shard, rank, after_applied, rejoin_after } => {
                write!(
                    f,
                    "shard {shard}'s backup {rank} dies after {after_applied} applied batches"
                )?;
                if *rejoin_after > 0 {
                    write!(f, ", rejoining {rejoin_after} ticks later")?;
                }
                Ok(())
            }
            Fault::HeartbeatLoss { shard, start, ticks } => write!(
                f,
                "shard {shard}'s heartbeats lost during ticks [{start}, {})",
                start + ticks
            ),
            Fault::Partition { shard, start, ticks } => {
                write!(f, "shard {shard} partitioned during ticks [{start}, {})", start + ticks)
            }
        }
    }
}

/// A replayable set of faults for one simulated run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected faults, in generation order.
    pub faults: Vec<Fault>,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() {
            return write!(f, "(fault-free)");
        }
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "- {fault}")?;
        }
        Ok(())
    }
}

/// The splitmix64 counter stream every seeded derivation draws from: the
/// `n`-th draw is `splitmix64(salted_seed + n)`, so a derivation's plan is
/// a pure function of its seed *and the order of its draws*.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan containing exactly the given faults.
    pub fn with(faults: Vec<Fault>) -> Self {
        Self { faults }
    }

    /// Derives a plan for the **single-server** domain: between zero and
    /// three faults — worker stalls and deaths, prefetch delays, server
    /// death, intake saturation, dropped and duplicated pushes (all as
    /// their shard-0 spelling) and process crashes. Every parameter comes
    /// from a splitmix64 stream of the seed, so the same seed always
    /// yields the same plan.
    pub fn from_seed(seed: u64, num_batches: u64) -> Self {
        Self::link_faults(seed, num_batches, None)
    }

    /// Derives a plan for a **sharded** run: like [`FaultPlan::from_seed`]
    /// but every host and link fault draws the shard it hits
    /// (independent shard death, cross-shard delivery reordering,
    /// per-shard saturation), and a per-shard delivery delay takes the
    /// place of the process crash. Same determinism contract: one seed,
    /// one plan, bit-for-bit.
    pub fn from_seed_sharded(seed: u64, num_batches: u64, num_shards: u32) -> Self {
        Self::link_faults(seed, num_batches, Some(u64::from(num_shards.max(1))))
    }

    /// The shared derivation behind [`FaultPlan::from_seed`] (`shards =
    /// None`: no shard is ever drawn, every fault lands on shard 0) and
    /// [`FaultPlan::from_seed_sharded`]. The two domains keep their own
    /// draw sequences so every historical sweep seed still derives the
    /// plan it always did.
    fn link_faults(seed: u64, num_batches: u64, shards: Option<u64>) -> Self {
        let mut d = Draws(seed ^ 0xFA01_7FA0_17FA_017F);
        let n = num_batches.max(1);
        let shard = |d: &mut Draws| shards.map_or(0, |s| (d.next() % s) as u32);
        let count = (d.next() % 4) as usize; // 0..=3 faults
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let fault = match d.next() % 8 {
                0 => Fault::WorkerStall { at_batch: d.next() % n, ticks: 1 + d.next() % 64 },
                1 => Fault::WorkerDeath { at_batch: d.next() % n },
                2 => Fault::ShardDeath { shard: shard(&mut d), after_applied: d.next() % n },
                3 => Fault::PrefetchDelay { batch: d.next() % n, ticks: 1 + d.next() % 48 },
                4 => Fault::ShardSaturation {
                    shard: shard(&mut d),
                    // runs take roughly 10 ticks per batch; place the
                    // window somewhere it can actually bite
                    start: d.next() % (n * 10),
                    ticks: 5 + d.next() % 60,
                },
                5 => Fault::DropShardPush {
                    shard: shard(&mut d),
                    seq: d.next() % n,
                    delivery: 1 + (d.next() % 2) as u32,
                },
                6 => Fault::DuplicateShardPush {
                    shard: shard(&mut d),
                    seq: d.next() % n,
                    delivery: 1 + (d.next() % 2) as u32,
                },
                _ if shards.is_none() => Fault::Crash { after_applied: d.next() % n },
                _ => Fault::ShardDelay {
                    shard: shard(&mut d),
                    seq: d.next() % n,
                    ticks: 1 + d.next() % 40,
                },
            };
            faults.push(fault);
        }
        Self { faults }
    }

    /// Derives a plan for a **replicated** run: kill-the-primary and
    /// kill-the-backup schedules for a K-replica sharded tier. With a
    /// spare to promote, every seed kills at least one primary
    /// mid-training (that is the sweep's whole point — a fallback kill is
    /// injected when the draws produce none); deaths per shard are capped
    /// at `replicas - 1` so the last copy always survives — a group of
    /// one is never killed at all — and adjacent-watermark kills on the
    /// same shard exercise death *during* a promotion. Same determinism
    /// contract: one seed, one plan, bit-for-bit.
    pub fn from_seed_failover(seed: u64, num_batches: u64, num_shards: u32, replicas: u32) -> Self {
        let mut d = Draws(seed ^ 0xFA11_0FE4_FA11_0FE4);
        let n = num_batches.max(1);
        let shards = u64::from(num_shards.max(1));
        // deaths a shard can absorb: primary AND backup deaths (rejoining
        // or not) stay under this budget so every sweep seed can complete
        let spares = replicas.saturating_sub(1);
        let mut deaths = vec![0u32; shards as usize];
        let count = 1 + (d.next() % 4) as usize; // 1..=4 faults
        let mut faults = Vec::with_capacity(count + 1);
        for _ in 0..count {
            let fault = match d.next() % 4 {
                0 | 1 => {
                    let shard = (d.next() % shards) as u32;
                    let after_applied = d.next() % n;
                    if deaths[shard as usize] >= spares {
                        continue; // never schedule away the last copy
                    }
                    deaths[shard as usize] += 1;
                    Fault::PrimaryDeath { shard, after_applied }
                }
                2 => {
                    let shard = (d.next() % shards) as u32;
                    let rank = 1 + (d.next() % u64::from(spares.max(1))) as u32;
                    let after_applied = d.next() % n;
                    let rejoin_after =
                        if d.next().is_multiple_of(2) { 8 + d.next() % 40 } else { 0 };
                    if deaths[shard as usize] >= spares {
                        continue;
                    }
                    deaths[shard as usize] += 1;
                    Fault::BackupDeath { shard, rank, after_applied, rejoin_after }
                }
                _ => Fault::WorkerStall { at_batch: d.next() % n, ticks: 1 + d.next() % 32 },
            };
            faults.push(fault);
        }
        if spares > 0 && !faults.iter().any(|f| matches!(f, Fault::PrimaryDeath { .. })) {
            // the sweep's contract: every seed kills at least one primary
            let first = splitmix64(seed ^ 0xC4A5_11C4_A511_C4A5) % shards;
            let after_applied = splitmix64(seed ^ 0x11C4_A511_C4A5_11C4) % n;
            let shard = (0..shards)
                .map(|step| ((first + step) % shards) as u32)
                .find(|&s| deaths[s as usize] < spares);
            match shard {
                Some(shard) => faults.push(Fault::PrimaryDeath { shard, after_applied }),
                // every shard is at its death budget (only possible in
                // tiny configs): replace the plan with one clean kill
                None => faults = vec![Fault::PrimaryDeath { shard: first as u32, after_applied }],
            }
        }
        Self { faults }
    }

    /// Derives a plan of **network faults** for a replicated run:
    /// heartbeat-loss windows (false suspicion → spurious promotion →
    /// fenced step-down) and full partitions (retransmission + failover
    /// riding out total silence), with an optional primary kill mixed
    /// in. Windows are bounded so every seed's run can still finish.
    pub fn from_seed_netfault(seed: u64, num_batches: u64, num_shards: u32) -> Self {
        let mut d = Draws(seed ^ 0x4E7F_A017_4E7F_A017);
        let n = num_batches.max(1);
        let shards = u64::from(num_shards.max(1));
        let count = 1 + (d.next() % 3) as usize; // 1..=3 faults
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let fault = match d.next() % 4 {
                0 | 1 => Fault::HeartbeatLoss {
                    shard: (d.next() % shards) as u32,
                    start: d.next() % (n * 10),
                    ticks: 20 + d.next() % 56, // long enough to trip suspicion
                },
                2 => Fault::Partition {
                    shard: (d.next() % shards) as u32,
                    start: d.next() % (n * 10),
                    ticks: 10 + d.next() % 66, // bounded: the run must finish
                },
                _ => Fault::PrimaryDeath {
                    shard: (d.next() % shards) as u32,
                    after_applied: d.next() % n,
                },
            };
            faults.push(fault);
        }
        Self { faults }
    }

    /// Stall ticks injected before computing `batch`, if any (summed over
    /// duplicate entries).
    pub fn stall_before(&self, batch: u64) -> Option<u64> {
        let total: u64 = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::WorkerStall { at_batch, ticks } if *at_batch == batch => Some(*ticks),
                _ => None,
            })
            .sum();
        (total > 0).then_some(total)
    }

    /// True when the worker dies upon dequeuing `batch`.
    pub fn kills_worker_at(&self, batch: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::WorkerDeath { at_batch } if *at_batch == batch))
    }

    /// Extra prefetch-delivery latency for `batch`.
    pub fn prefetch_delay(&self, batch: u64) -> u64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::PrefetchDelay { batch: b, ticks } if *b == batch => Some(*ticks),
                _ => None,
            })
            .sum()
    }

    /// The applied-count after which the whole process crashes, if any
    /// (the earliest wins when several are injected).
    pub fn crash_after(&self) -> Option<u64> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::Crash { after_applied } => Some(*after_applied),
                _ => None,
            })
            .min()
    }

    /// The applied-count after which `shard` dies, if any (earliest wins).
    pub fn shard_death_after(&self, shard: u32) -> Option<u64> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::ShardDeath { shard: s, after_applied } if *s == shard => {
                    Some(*after_applied)
                }
                _ => None,
            })
            .min()
    }

    /// True when `shard`'s gradient intake is saturated at tick `t`.
    pub fn shard_saturated_at(&self, shard: u32, t: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::ShardSaturation { shard: s, start, ticks }
                if *s == shard && (*start..*start + *ticks).contains(&t))
        })
    }

    /// True when transmission `delivery` of push `seq` toward `shard` is
    /// dropped.
    pub fn shard_drops(&self, shard: u32, seq: u64, delivery: u32) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::DropShardPush { shard: sh, seq: s, delivery: d }
                if *sh == shard && *s == seq && *d == delivery)
        })
    }

    /// True when transmission `delivery` of push `seq` toward `shard` is
    /// duplicated.
    pub fn shard_duplicates(&self, shard: u32, seq: u64, delivery: u32) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::DuplicateShardPush { shard: sh, seq: s, delivery: d }
                if *sh == shard && *s == seq && *d == delivery)
        })
    }

    /// Extra delivery latency for push `seq` toward `shard` (summed over
    /// duplicate entries).
    pub fn shard_delay(&self, shard: u32, seq: u64) -> u64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::ShardDelay { shard: sh, seq: s, ticks } if *sh == shard && *s == seq => {
                    Some(*ticks)
                }
                _ => None,
            })
            .sum()
    }

    /// Applied-watermarks at which `shard`'s primary dies, sorted
    /// ascending (one promotion per entry).
    pub fn primary_deaths(&self, shard: u32) -> Vec<u64> {
        let mut deaths: Vec<u64> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::PrimaryDeath { shard: s, after_applied } if *s == shard => {
                    Some(*after_applied)
                }
                _ => None,
            })
            .collect();
        deaths.sort_unstable();
        deaths
    }

    /// Backup deaths scheduled for `shard`: `(rank, after_applied,
    /// rejoin_after)` tuples in plan order.
    pub fn backup_deaths(&self, shard: u32) -> Vec<(u32, u64, u64)> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::BackupDeath { shard: s, rank, after_applied, rejoin_after }
                    if *s == shard =>
                {
                    Some((*rank, *after_applied, *rejoin_after))
                }
                _ => None,
            })
            .collect()
    }

    /// True when `shard`'s heartbeats are dropped at tick `t`.
    pub fn heartbeat_lost_at(&self, shard: u32, t: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::HeartbeatLoss { shard: s, start, ticks }
                if *s == shard && (*start..*start + *ticks).contains(&t))
        })
    }

    /// True when all traffic to and from `shard` is dropped at tick `t`.
    pub fn partitioned_at(&self, shard: u32, t: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::Partition { shard: s, start, ticks }
                if *s == shard && (*start..*start + *ticks).contains(&t))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The historical sweep seeds must keep deriving the plans they always
    /// did: these were printed by the pre-unification simulator (whose
    /// single-server faults are spelled here as their shard-0 case).
    #[test]
    fn derivations_keep_their_draw_order() {
        assert_eq!(
            FaultPlan::from_seed(11, 24).faults,
            [
                Fault::WorkerStall { at_batch: 16, ticks: 42 },
                Fault::DuplicateShardPush { shard: 0, seq: 11, delivery: 1 },
                Fault::ShardDeath { shard: 0, after_applied: 20 },
            ]
        );
        assert_eq!(
            FaultPlan::from_seed(35, 24).faults,
            [
                Fault::PrefetchDelay { batch: 12, ticks: 25 },
                Fault::WorkerStall { at_batch: 8, ticks: 58 },
                Fault::DropShardPush { shard: 0, seq: 1, delivery: 2 },
            ]
        );
        assert_eq!(
            FaultPlan::from_seed(38, 24).faults,
            [
                Fault::Crash { after_applied: 6 },
                Fault::PrefetchDelay { batch: 3, ticks: 13 },
                Fault::WorkerStall { at_batch: 8, ticks: 41 },
            ]
        );
        assert_eq!(
            FaultPlan::from_seed_sharded(7, 24, 3).faults,
            [
                Fault::PrefetchDelay { batch: 16, ticks: 43 },
                Fault::ShardSaturation { shard: 0, start: 119, ticks: 40 },
            ]
        );
        assert_eq!(
            FaultPlan::from_seed_sharded(2, 24, 3).faults,
            [Fault::ShardDelay { shard: 2, seq: 8, ticks: 30 }]
        );
        assert_eq!(
            FaultPlan::from_seed_failover(8, 24, 3, 3).faults,
            [
                Fault::BackupDeath { shard: 1, rank: 2, after_applied: 3, rejoin_after: 13 },
                Fault::WorkerStall { at_batch: 13, ticks: 10 },
                Fault::PrimaryDeath { shard: 2, after_applied: 16 },
            ]
        );
        assert_eq!(
            FaultPlan::from_seed_failover(500, 24, 4, 2).faults,
            [
                Fault::PrimaryDeath { shard: 2, after_applied: 20 },
                Fault::BackupDeath { shard: 0, rank: 1, after_applied: 18, rejoin_after: 0 },
            ]
        );
        assert_eq!(
            FaultPlan::from_seed_netfault(0, 24, 3).faults,
            [
                Fault::HeartbeatLoss { shard: 0, start: 39, ticks: 38 },
                Fault::HeartbeatLoss { shard: 1, start: 165, ticks: 47 },
                Fault::HeartbeatLoss { shard: 2, start: 183, ticks: 67 },
            ]
        );
    }

    /// The single-server and the sharded domain draw the same seven kinds
    /// (on shard 0 only / on any shard) plus one of their own.
    #[test]
    fn link_fault_seeds_cover_every_kind_of_their_domain() {
        type Derive = fn(u64) -> FaultPlan;
        let domains: [(Derive, u32); 2] = [
            (|seed| FaultPlan::from_seed(seed, 24), 1),
            (|seed| FaultPlan::from_seed_sharded(seed, 24, 3), 3),
        ];
        for (derive, shards) in domains {
            let mut kinds = [false; 8];
            let mut any_fault_free = false;
            for seed in 0..500u64 {
                let plan = derive(seed);
                assert_eq!(plan, derive(seed), "seed {seed} is not deterministic");
                any_fault_free |= plan.faults.is_empty();
                for f in &plan.faults {
                    let (kind, shard) = match *f {
                        Fault::WorkerStall { .. } => (0, 0),
                        Fault::WorkerDeath { .. } => (1, 0),
                        Fault::ShardDeath { shard, .. } => (2, shard),
                        Fault::PrefetchDelay { .. } => (3, 0),
                        Fault::ShardSaturation { shard, .. } => (4, shard),
                        Fault::DropShardPush { shard, .. } => (5, shard),
                        Fault::DuplicateShardPush { shard, .. } => (6, shard),
                        Fault::Crash { .. } if shards == 1 => (7, 0),
                        Fault::ShardDelay { shard, .. } if shards > 1 => (7, shard),
                        _ => panic!("{shards}-shard seeds must not draw `{f}`"),
                    };
                    assert!(shard < shards, "`{f}` names a shard outside the tier");
                    kinds[kind] = true;
                }
            }
            assert!(kinds.iter().all(|&k| k), "{shards} shards: 500 seeds cover {kinds:?}");
            assert!(any_fault_free, "the sweep must include fault-free baselines");
        }
    }

    #[test]
    fn failover_seeds_always_kill_a_primary_within_the_spare_budget() {
        let mut saw_backup_death = false;
        let mut saw_rejoin = false;
        let mut saw_adjacent = false;
        for (shards, replicas) in [(3u32, 3u32), (4, 2)] {
            for seed in 0..500u64 {
                let plan = FaultPlan::from_seed_failover(seed, 24, shards, replicas);
                assert_eq!(plan, FaultPlan::from_seed_failover(seed, 24, shards, replicas));
                assert!(
                    plan.faults.iter().any(|f| matches!(f, Fault::PrimaryDeath { .. })),
                    "seed {seed} kills no primary — the sweep's contract is broken"
                );
                for shard in 0..shards {
                    let deaths = plan.primary_deaths(shard);
                    let backups = plan.backup_deaths(shard);
                    assert!(
                        deaths.len() + backups.len() <= (replicas - 1) as usize,
                        "seed {seed} schedules away shard {shard}'s last copy: {plan}"
                    );
                    saw_adjacent |= deaths.windows(2).any(|w| w[1] - w[0] <= 1);
                    for (rank, _, rejoin) in backups {
                        assert!(rank >= 1 && rank < replicas, "rank {rank} outside the group");
                        saw_backup_death = true;
                        saw_rejoin |= rejoin > 0;
                    }
                }
            }
        }
        assert!(saw_backup_death, "the seeds must kill some backup");
        assert!(saw_rejoin, "the seeds must exercise the catch-up rejoin path");
        assert!(saw_adjacent, "the seeds must kill during a promotion window");
        // a group of one has no spare, so nothing may die (seed 0 used to
        // derive "shard 2's primary dies" for the only copy)
        for (seed, replicas) in (0..200u64).flat_map(|seed| [(seed, 0u32), (seed, 1)]) {
            let plan = FaultPlan::from_seed_failover(seed, 24, 3, replicas);
            assert!(
                plan.faults.iter().all(|f| matches!(f, Fault::WorkerStall { .. })),
                "seed {seed} at {replicas} replicas kills the only copy: {plan}"
            );
        }
    }

    #[test]
    fn netfault_seeds_cover_both_window_kinds_and_stay_bounded() {
        let mut kinds = [false; 3];
        for seed in 0..500u64 {
            let plan = FaultPlan::from_seed_netfault(seed, 24, 3);
            assert_eq!(plan, FaultPlan::from_seed_netfault(seed, 24, 3));
            assert!(!plan.faults.is_empty(), "netfault seeds always inject something");
            for f in &plan.faults {
                match f {
                    Fault::HeartbeatLoss { ticks, .. } => {
                        assert!(*ticks <= 76, "unbounded window stalls the run");
                        kinds[0] = true;
                    }
                    Fault::Partition { ticks, .. } => {
                        assert!(*ticks <= 76, "unbounded window stalls the run");
                        kinds[1] = true;
                    }
                    Fault::PrimaryDeath { .. } => kinds[2] = true,
                    other => panic!("netfault seeds must not draw {other}"),
                }
            }
        }
        assert!(kinds.iter().all(|&k| k), "500 netfault seeds must cover all kinds: {kinds:?}");
    }

    #[test]
    fn queries_answer_from_the_plan() {
        let plan = FaultPlan::with(vec![
            Fault::WorkerStall { at_batch: 3, ticks: 10 },
            Fault::WorkerDeath { at_batch: 7 },
            Fault::PrefetchDelay { batch: 2, ticks: 9 },
            Fault::Crash { after_applied: 9 },
            Fault::ShardDeath { shard: 1, after_applied: 5 },
            Fault::ShardSaturation { shard: 0, start: 50, ticks: 10 },
            Fault::DropShardPush { shard: 2, seq: 4, delivery: 1 },
            Fault::DuplicateShardPush { shard: 0, seq: 6, delivery: 2 },
            Fault::ShardDelay { shard: 1, seq: 3, ticks: 7 },
            Fault::PrimaryDeath { shard: 0, after_applied: 7 },
            Fault::PrimaryDeath { shard: 0, after_applied: 3 },
            Fault::BackupDeath { shard: 1, rank: 2, after_applied: 5, rejoin_after: 12 },
            Fault::HeartbeatLoss { shard: 2, start: 40, ticks: 10 },
            Fault::Partition { shard: 1, start: 80, ticks: 20 },
        ]);
        assert_eq!(plan.stall_before(3), Some(10));
        assert_eq!(plan.stall_before(4), None);
        assert!(plan.kills_worker_at(7) && !plan.kills_worker_at(6));
        assert_eq!(plan.prefetch_delay(2), 9);
        assert_eq!(plan.prefetch_delay(3), 0);
        assert_eq!(plan.crash_after(), Some(9));
        assert_eq!(FaultPlan::none().crash_after(), None);
        assert_eq!(plan.shard_death_after(1), Some(5));
        assert_eq!(plan.shard_death_after(0), None);
        assert!(plan.shard_saturated_at(0, 50) && plan.shard_saturated_at(0, 59));
        assert!(!plan.shard_saturated_at(0, 60) && !plan.shard_saturated_at(1, 55));
        assert!(plan.shard_drops(2, 4, 1) && !plan.shard_drops(1, 4, 1));
        assert!(plan.shard_duplicates(0, 6, 2) && !plan.shard_duplicates(0, 6, 1));
        assert_eq!(plan.shard_delay(1, 3), 7);
        assert_eq!(plan.shard_delay(0, 3), 0);
        assert_eq!(plan.primary_deaths(0), vec![3, 7], "sorted ascending");
        assert!(plan.primary_deaths(1).is_empty());
        assert_eq!(plan.backup_deaths(1), vec![(2, 5, 12)]);
        assert!(plan.heartbeat_lost_at(2, 40) && plan.heartbeat_lost_at(2, 49));
        assert!(!plan.heartbeat_lost_at(2, 50) && !plan.heartbeat_lost_at(0, 45));
        assert!(plan.partitioned_at(1, 80) && plan.partitioned_at(1, 99));
        assert!(!plan.partitioned_at(1, 100) && !plan.partitioned_at(0, 90));
    }

    #[test]
    fn display_round_trips_the_story() {
        let plan = FaultPlan::with(vec![Fault::WorkerDeath { at_batch: 7 }]);
        assert_eq!(plan.to_string(), "- worker dies at batch 7");
        assert_eq!(FaultPlan::none().to_string(), "(fault-free)");
    }
}
