//! Replicated parameter shards: primary/backup groups over the sharded
//! tier (DESIGN.md §15).
//!
//! Each `HostServer` shard becomes a K-member [`ReplicaGroup`]: one
//! primary plus K-1 backups fed by a sequenced [`GradientLog`]. The
//! primary's already-stamped, exactly-once [`HostServer::apply_checked`]
//! intake is appended to every alive backup under the *same* stamp domain,
//! so replication is idempotent and primary and backups are byte-identical
//! at every applied watermark — which is what makes promotion free: a
//! promoted backup resumes from its own watermark and the min-stamp stitch
//! of the sharded gather path (DESIGN.md §14) already tolerates the skew.
//!
//! The module also provides the clock-agnostic failure-detection pieces
//! the simulator and the trainer share: [`HeartbeatConfig`] (typed
//! heartbeat interval / suspicion timeout with deterministic seeded
//! jitter) and [`FailureDetector`] (a last-heard watermark over abstract
//! `u64` ticks, so virtual-clock simulation and wall-clock serving use the
//! same arithmetic).

use crate::ckpt::ServerCheckpoint;
use crate::server::{ApplyOutcome, GradientPush, HostServer, ServerError};
use std::collections::VecDeque;
use std::fmt;

/// SplitMix64 — the one-instruction-wide seed mixer used for deterministic
/// jitter (same constants as `el_sim::clock::splitmix64`; duplicated here
/// because el-sim depends on this crate, not the other way around).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Replication knobs for the sharded parameter tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Members per shard group (primary + backups). `1` is the
    /// unreplicated degenerate: no log, no failover.
    pub replicas: u32,
    /// Gradient-log retention: when the log holds this many entries a
    /// snapshot is refreshed and the log trimmed, bounding catch-up memory.
    pub log_capacity: usize,
    /// Deterministic failover drill schedule: `(shard, watermark)` pairs —
    /// the shard's primary is killed (and a backup promoted) right after
    /// its applied count reaches the watermark. Used by the failover tests
    /// to prove promotion never changes trained bytes.
    pub kill_primary_at: Vec<(u32, u64)>,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self { replicas: 1, log_capacity: 64, kill_primary_at: Vec::new() }
    }
}

/// Typed failures of the replication layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicaError {
    /// Every member of the group is dead; the shard cannot be served.
    NoAliveMembers,
    /// A rank outside the group was addressed.
    UnknownRank {
        /// The rank asked for.
        rank: u32,
        /// Members in the group.
        members: u32,
    },
    /// The addressed member is dead (kill or catch-up on a corpse).
    DeadMember(u32),
    /// Catch-up needed log entries older than the retained snapshot — the
    /// caller must re-seed from a full checkpoint instead.
    LogTrimmed {
        /// First sequence the rejoiner needed.
        needed: u64,
        /// Oldest sequence the log still holds.
        base: u64,
    },
    /// A member's intake failed (protocol bug surfaced as data).
    Server(ServerError),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::NoAliveMembers => write!(f, "no alive members left in the group"),
            ReplicaError::UnknownRank { rank, members } => {
                write!(f, "rank {rank} outside the {members}-member group")
            }
            ReplicaError::DeadMember(r) => write!(f, "member {r} is dead"),
            ReplicaError::LogTrimmed { needed, base } => {
                write!(f, "gradient log trimmed: need seq {needed}, log starts at {base}")
            }
            ReplicaError::Server(e) => write!(f, "member intake failed: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<ServerError> for ReplicaError {
    fn from(e: ServerError) -> Self {
        ReplicaError::Server(e)
    }
}

/// Bounded sequenced log of applied gradient pushes, replayed to catch a
/// rejoining replica up from a snapshot watermark.
pub struct GradientLog {
    base: u64,
    entries: VecDeque<GradientPush>,
    capacity: usize,
}

impl GradientLog {
    /// An empty log whose first entry will be `base`.
    pub fn new(base: u64, capacity: usize) -> Self {
        Self { base, entries: VecDeque::new(), capacity: capacity.max(1) }
    }

    /// Oldest retained sequence number.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Sequence number the next append must carry.
    pub fn next_seq(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Whether the log is at its retention capacity.
    pub fn full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends the push applied at `next_seq`. Out-of-sequence appends are
    /// a protocol bug reported as a typed error.
    pub fn append(&mut self, push: GradientPush) -> Result<(), ReplicaError> {
        if push.batch_seq != self.next_seq() {
            return Err(ReplicaError::Server(ServerError::GradientGap {
                got: push.batch_seq,
                expected: self.next_seq(),
            }));
        }
        self.entries.push_back(push);
        Ok(())
    }

    /// Drops entries below `watermark` (a snapshot now covers them).
    pub fn truncate_below(&mut self, watermark: u64) {
        while self.base < watermark {
            if self.entries.pop_front().is_none() {
                self.base = watermark;
                return;
            }
            self.base += 1;
        }
    }

    /// Entries from `watermark` on, or a typed error when the log no
    /// longer reaches back that far. The iterator spans both halves of
    /// the ring, so retention settings whose trims wrap the underlying
    /// allocation replay exactly like ones that don't.
    pub fn entries_from(
        &self,
        watermark: u64,
    ) -> Result<impl Iterator<Item = &GradientPush> + '_, ReplicaError> {
        if watermark < self.base {
            return Err(ReplicaError::LogTrimmed { needed: watermark, base: self.base });
        }
        let skip = (watermark - self.base) as usize;
        Ok(self.entries.iter().skip(skip))
    }
}

/// One shard's replica group: lockstep primary + backups over the same
/// exactly-once stamp domain.
pub struct ReplicaGroup {
    members: Vec<Option<HostServer>>,
    primary: usize,
    log: GradientLog,
    /// Catch-up base; `None` in a group of one, which has nobody to catch
    /// up and therefore keeps neither a snapshot nor log entries.
    snapshot: Option<ServerCheckpoint>,
    shard: u32,
    num_shards: u32,
    failovers: u64,
}

/// Clones a server's durable state (tables, lr, applied) into a fresh
/// member with its own meters.
fn clone_member(server: &HostServer) -> HostServer {
    let mut m = HostServer::new(server.tables.clone(), server.lr);
    m.applied = server.applied;
    m
}

impl ReplicaGroup {
    /// Wraps `server` (shard `shard` of `num_shards`) in a group of
    /// `replicas` byte-identical members. With backups, the initial
    /// snapshot is taken immediately, so catch-up is possible from the
    /// first batch on; a group of one is the bare server.
    pub fn new(
        server: HostServer,
        replicas: u32,
        shard: u32,
        num_shards: u32,
        log_capacity: usize,
    ) -> Self {
        let replicas = replicas.max(1);
        let snapshot =
            (replicas > 1).then(|| ServerCheckpoint::capture_shard(&server, shard, num_shards));
        let log = GradientLog::new(server.applied, log_capacity);
        let mut members = Vec::with_capacity(replicas as usize);
        for _ in 1..replicas {
            members.push(Some(clone_member(&server)));
        }
        members.insert(0, Some(server));
        Self { members, primary: 0, log, snapshot, shard, num_shards, failovers: 0 }
    }

    /// Number of members (alive or dead).
    pub fn members(&self) -> u32 {
        self.members.len() as u32
    }

    /// Number of alive members.
    pub fn alive(&self) -> u32 {
        self.members.iter().filter(|m| m.is_some()).count() as u32
    }

    /// Promotions performed so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// The primary's applied watermark (0 if the whole group is dead).
    pub fn applied(&self) -> u64 {
        self.members[self.primary].as_ref().map_or(0, |s| s.applied)
    }

    /// Borrows the primary.
    pub fn primary(&self) -> Result<&HostServer, ReplicaError> {
        self.members[self.primary].as_ref().ok_or(ReplicaError::NoAliveMembers)
    }

    /// Mutably borrows the primary (for gather-side meter accounting —
    /// gathers read the primary only, so backups stay byte-identical).
    pub fn primary_mut(&mut self) -> Result<&mut HostServer, ReplicaError> {
        self.members[self.primary].as_mut().ok_or(ReplicaError::NoAliveMembers)
    }

    /// Applies one push through the whole group: exactly-once intake at
    /// the primary, then the stamped push goes to the log and to every
    /// alive backup (idempotent over the same stamp domain). Duplicates
    /// are absorbed at the primary and never re-replicated. A backup
    /// whose intake rejects a lockstep push has diverged from the stamp
    /// domain; it is killed (it can rejoin via [`ReplicaGroup::catch_up`])
    /// rather than aborting mid-replication, which would leave the
    /// primary ahead of the log and the remaining backups.
    pub fn apply_checked(&mut self, push: &GradientPush) -> Result<ApplyOutcome, ReplicaError> {
        // Refresh the snapshot from the *pre-push* primary before a full
        // log would trim away the entry this push is about to append.
        let replicated = self.snapshot.is_some();
        if replicated && self.log.full() {
            self.checkpoint();
        }
        let rank = self.primary;
        let primary = self.members[rank].as_mut().ok_or(ReplicaError::NoAliveMembers)?;
        let outcome = primary.apply_checked(push)?;
        if outcome == ApplyOutcome::Duplicate {
            return Ok(outcome);
        }
        // Log before replicating: the log and the primary share the stamp
        // domain, so this append cannot gap once the primary accepted the
        // push, and a backup failure below never strands an unlogged seq.
        if replicated {
            self.log.append(push.clone())?;
        }
        for (r, member) in self.members.iter_mut().enumerate() {
            if r == rank {
                continue;
            }
            // Lockstep keeps backups at the primary's watermark, so this
            // is Applied (or Duplicate right after a catch-up); an Err is
            // a diverged member, removed so the group stays consistent.
            if member.as_mut().is_some_and(|b| b.apply_checked(push).is_err()) {
                *member = None;
            }
        }
        Ok(outcome)
    }

    /// Refreshes the retained snapshot from the primary's *pre-push* state
    /// and trims the log below it, bounding replay length. No-op when the
    /// group is dead or has no backups to catch up.
    pub fn checkpoint(&mut self) {
        if let (Some(primary), Some(snapshot)) =
            (self.members[self.primary].as_ref(), self.snapshot.as_mut())
        {
            *snapshot = ServerCheckpoint::capture_shard(primary, self.shard, self.num_shards);
            self.log.truncate_below(snapshot.applied);
        }
    }

    /// Kills the current primary and promotes the next alive rank
    /// (cyclically). Because replication is lockstep, the promoted backup
    /// is byte-identical to the dead primary at the same watermark —
    /// training continues without a cold restart. Returns the new primary
    /// rank.
    pub fn kill_primary(&mut self) -> Result<u32, ReplicaError> {
        self.members[self.primary] = None;
        let n = self.members.len();
        for step in 1..n {
            let r = (self.primary + step) % n;
            if self.members[r].is_some() {
                self.primary = r;
                self.failovers += 1;
                return Ok(r as u32);
            }
        }
        Err(ReplicaError::NoAliveMembers)
    }

    /// Kills a backup by rank (killing the primary through this is a
    /// typed error — use [`ReplicaGroup::kill_primary`], which promotes).
    pub fn kill_backup(&mut self, rank: u32) -> Result<(), ReplicaError> {
        let idx = rank as usize;
        if idx >= self.members.len() {
            return Err(ReplicaError::UnknownRank { rank, members: self.members() });
        }
        if idx == self.primary {
            return Err(ReplicaError::DeadMember(rank));
        }
        if self.members[idx].take().is_none() {
            return Err(ReplicaError::DeadMember(rank));
        }
        Ok(())
    }

    /// Revives a dead member through the catch-up path: restore the
    /// retained snapshot, then replay the gradient log from the snapshot
    /// watermark. The rejoined member lands byte-identical to the primary
    /// and resumes receiving lockstep appends. A group of one retains
    /// nothing to revive its only member from: [`ReplicaError::NoAliveMembers`].
    pub fn catch_up(&mut self, rank: u32) -> Result<(), ReplicaError> {
        let idx = rank as usize;
        if idx >= self.members.len() {
            return Err(ReplicaError::UnknownRank { rank, members: self.members() });
        }
        if self.members[idx].is_some() {
            return Ok(()); // already alive: nothing to do
        }
        let snapshot = self.snapshot.as_ref().ok_or(ReplicaError::NoAliveMembers)?;
        let mut revived = snapshot.clone().restore();
        for push in self.log.entries_from(revived.applied)? {
            revived.apply_checked(push)?;
        }
        self.members[idx] = Some(revived);
        Ok(())
    }

    /// Whether every alive member is byte-identical (same watermark, same
    /// table bytes) — the replication invariant the failover tests assert.
    pub fn verify_consistent(&self) -> bool {
        let Ok(primary) = self.primary() else { return false };
        self.members.iter().flatten().all(|m| {
            m.applied == primary.applied
                && m.tables.len() == primary.tables.len()
                && m.tables.iter().zip(&primary.tables).all(|((ia, a), (ib, b))| {
                    ia == ib && a.weight.as_slice() == b.weight.as_slice()
                })
        })
    }

    /// Consumes the group, returning the final primary (the state the
    /// trainer merges).
    pub fn into_primary(mut self) -> Result<HostServer, ReplicaError> {
        self.members[self.primary].take().ok_or(ReplicaError::NoAliveMembers)
    }
}

/// Heartbeat schedule with deterministic seeded jitter: interval `every`
/// plus `splitmix64(seed ^ n) % (jitter + 1)` for the n-th beat — the same
/// seed always yields the same schedule, so seeded sim replays stay
/// bit-for-bit while distinct shards decorrelate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Base ticks between heartbeats.
    pub every: u64,
    /// Ticks of silence before suspicion.
    pub suspicion_after: u64,
    /// Maximum jitter added to each interval.
    pub jitter: u64,
    /// Jitter seed (mix in the shard/rank identity).
    pub seed: u64,
}

impl HeartbeatConfig {
    /// Maximum jitter a beat interval of `every` ticks carries (half the
    /// interval, at least one tick).
    pub fn max_jitter(every: u64) -> u64 {
        (every / 2).max(1)
    }

    /// Minimum safe suspicion timeout for a beat interval of `every`
    /// ticks: one full interval plus its maximum jitter plus one tick,
    /// so a single maximally jittered heartbeat gap can never trip the
    /// detector on its own.
    pub fn min_suspicion(every: u64) -> u64 {
        every + Self::max_jitter(every) + 1
    }

    /// Delay before the `n`-th heartbeat.
    pub fn delay(&self, n: u64) -> u64 {
        self.every + splitmix64(self.seed ^ n) % (self.jitter + 1)
    }
}

/// Clock-agnostic failure detector over abstract `u64` ticks: records the
/// last time a heartbeat was heard and reports suspicion after a typed
/// timeout. Works identically under the simulator's virtual clock and a
/// wall-clock tick source.
#[derive(Clone, Copy, Debug)]
pub struct FailureDetector {
    suspicion_after: u64,
    last_heard: u64,
}

impl FailureDetector {
    /// A detector that considers `now` the moment it last heard from the
    /// peer (grace on creation and on failover).
    pub fn new(suspicion_after: u64, now: u64) -> Self {
        Self { suspicion_after: suspicion_after.max(1), last_heard: now }
    }

    /// Records a heartbeat (monotone: a late-delivered old beat never
    /// moves the watermark backwards).
    pub fn record_heartbeat(&mut self, now: u64) {
        self.last_heard = self.last_heard.max(now);
    }

    /// Ticks since the peer was last heard.
    pub fn silent_for(&self, now: u64) -> u64 {
        now.saturating_sub(self.last_heard)
    }

    /// `Some(silent_for)` once silence reaches the suspicion timeout.
    pub fn suspected(&self, now: u64) -> Option<u64> {
        let silent = self.silent_for(now);
        (silent >= self.suspicion_after).then_some(silent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_dlrm::embedding_bag::{EmbeddingBag, SparseGrad};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn test_server(seed: u64) -> HostServer {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let tables = vec![
            (1usize, EmbeddingBag::new(40, 8, 0.2, &mut rng)),
            (2usize, EmbeddingBag::new(30, 8, 0.2, &mut rng)),
        ];
        HostServer::new(tables, 0.05)
    }

    fn push_for(seq: u64) -> GradientPush {
        let h = splitmix64(seq.wrapping_mul(0x9E37));
        let idx = (h % 30) as u32;
        GradientPush {
            batch_seq: seq,
            tables: vec![
                (1, SparseGrad { indices: vec![idx], values: vec![0.5; 8], dim: 8 }),
                (2, SparseGrad { indices: vec![idx / 2], values: vec![-0.25; 8], dim: 8 }),
            ],
            pooled: vec![],
        }
    }

    fn digest(server: &HostServer) -> Vec<Vec<f32>> {
        server.tables.iter().map(|(_, b)| b.weight.as_slice().to_vec()).collect()
    }

    #[test]
    fn lockstep_replication_keeps_members_byte_identical() {
        let mut group = ReplicaGroup::new(test_server(1), 3, 0, 1, 16);
        for seq in 0..10 {
            assert_eq!(group.apply_checked(&push_for(seq)).unwrap(), ApplyOutcome::Applied);
            assert!(group.verify_consistent(), "diverged at seq {seq}");
        }
        // duplicates are absorbed once, never re-applied anywhere
        assert_eq!(group.apply_checked(&push_for(3)).unwrap(), ApplyOutcome::Duplicate);
        assert!(group.verify_consistent());
        assert_eq!(group.applied(), 10);
    }

    #[test]
    fn promotion_is_byte_identical_to_the_never_failed_run() {
        let mut plain = test_server(2);
        let mut group = ReplicaGroup::new(test_server(2), 2, 0, 1, 32);
        for seq in 0..6 {
            plain.apply_checked(&push_for(seq)).unwrap();
            group.apply_checked(&push_for(seq)).unwrap();
        }
        let new_primary = group.kill_primary().unwrap();
        assert_eq!(new_primary, 1);
        assert_eq!(group.applied(), 6, "promoted backup resumes at the same watermark");
        for seq in 6..12 {
            plain.apply_checked(&push_for(seq)).unwrap();
            group.apply_checked(&push_for(seq)).unwrap();
        }
        assert_eq!(digest(group.primary().unwrap()), digest(&plain));
        assert_eq!(group.failovers(), 1);
    }

    #[test]
    fn catch_up_replays_snapshot_plus_log() {
        let mut group = ReplicaGroup::new(test_server(3), 3, 0, 1, 64);
        for seq in 0..4 {
            group.apply_checked(&push_for(seq)).unwrap();
        }
        group.kill_backup(2).unwrap();
        for seq in 4..9 {
            group.apply_checked(&push_for(seq)).unwrap();
        }
        group.catch_up(2).unwrap();
        assert!(group.verify_consistent(), "rejoined member must match the primary");
        // and the rejoined member keeps receiving lockstep appends
        group.apply_checked(&push_for(9)).unwrap();
        assert!(group.verify_consistent());
    }

    #[test]
    fn catch_up_beyond_retention_is_a_typed_error() {
        // capacity 2: the log trims aggressively, but checkpoints refresh
        // the snapshot, so catch-up still succeeds from the snapshot
        let mut group = ReplicaGroup::new(test_server(4), 2, 0, 1, 2);
        group.kill_backup(1).unwrap();
        for seq in 0..8 {
            group.apply_checked(&push_for(seq)).unwrap();
        }
        group.catch_up(1).unwrap();
        assert!(group.verify_consistent());
        // a log asked for pre-base entries reports LogTrimmed
        let log = GradientLog::new(5, 4);
        assert_eq!(
            log.entries_from(2).err(),
            Some(ReplicaError::LogTrimmed { needed: 2, base: 5 })
        );
    }

    #[test]
    fn catch_up_survives_log_ring_wraparound() {
        // A non-power-of-two retention (3) makes the VecDeque ring wrap
        // after the first trims, so entries_from must span both halves
        // of the ring. Exercise catch-up at every stop point well past
        // several wraps, for several awkward capacities.
        for capacity in [3usize, 5, 6, 7] {
            for stop in 1u64..16 {
                let mut group = ReplicaGroup::new(test_server(7), 2, 0, 1, capacity);
                group.kill_backup(1).unwrap();
                for seq in 0..stop {
                    group.apply_checked(&push_for(seq)).unwrap();
                }
                group.catch_up(1).unwrap_or_else(|e| {
                    panic!("catch_up failed at stop {stop}, capacity {capacity}: {e}")
                });
                assert!(
                    group.verify_consistent(),
                    "rejoined member diverged at stop {stop}, capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn diverged_backup_is_killed_not_poisoning_the_group() {
        let mut group = ReplicaGroup::new(test_server(8), 3, 0, 1, 16);
        for seq in 0..3 {
            group.apply_checked(&push_for(seq)).unwrap();
        }
        // Force a stamp-domain divergence on backup 1: the next lockstep
        // push is stamped ahead of its watermark, so its intake reports a
        // gap instead of applying.
        group.members[1].as_mut().unwrap().applied -= 1;
        assert_eq!(group.apply_checked(&push_for(3)).unwrap(), ApplyOutcome::Applied);
        assert_eq!(group.alive(), 2, "the diverged backup must be killed");
        assert!(group.verify_consistent(), "survivors stay byte-identical");
        // The group keeps making progress and the dead member can rejoin.
        group.apply_checked(&push_for(4)).unwrap();
        group.catch_up(1).unwrap();
        assert!(group.verify_consistent());
        group.apply_checked(&push_for(5)).unwrap();
        assert!(group.verify_consistent());
        assert_eq!(group.applied(), 6);
    }

    #[test]
    fn suspicion_clamp_covers_a_maximally_jittered_gap() {
        assert_eq!(HeartbeatConfig::max_jitter(8), 4);
        assert_eq!(HeartbeatConfig::min_suspicion(8), 13);
        assert_eq!(HeartbeatConfig::min_suspicion(1), 3);
        // At the clamped timeout, no maximally jittered beat looks late.
        for every in [1, 2, 8, 31] {
            let hb = HeartbeatConfig {
                every,
                suspicion_after: HeartbeatConfig::min_suspicion(every),
                jitter: HeartbeatConfig::max_jitter(every),
                seed: 0xE1 ^ every,
            };
            assert!((0..256).all(|n| hb.delay(n) < hb.suspicion_after));
        }
    }

    #[test]
    fn killing_everyone_is_a_typed_error() {
        let mut group = ReplicaGroup::new(test_server(5), 2, 0, 1, 8);
        group.kill_primary().unwrap();
        assert_eq!(group.kill_primary(), Err(ReplicaError::NoAliveMembers));
        assert!(group.primary().is_err());
    }

    #[test]
    fn kill_backup_rejects_primary_and_unknown_ranks() {
        let mut group = ReplicaGroup::new(test_server(6), 2, 0, 1, 8);
        assert_eq!(group.kill_backup(0), Err(ReplicaError::DeadMember(0)));
        assert!(matches!(group.kill_backup(7), Err(ReplicaError::UnknownRank { rank: 7, .. })));
        group.kill_backup(1).unwrap();
        assert_eq!(group.kill_backup(1), Err(ReplicaError::DeadMember(1)));
    }

    #[test]
    fn failure_detector_suspects_after_typed_timeout() {
        let mut det = FailureDetector::new(30, 100);
        assert_eq!(det.suspected(129), None);
        assert_eq!(det.suspected(130), Some(30));
        det.record_heartbeat(125);
        assert_eq!(det.suspected(130), None);
        assert_eq!(det.silent_for(140), 15);
        // a late old beat never regresses the watermark
        det.record_heartbeat(60);
        assert_eq!(det.silent_for(140), 15);
    }

    #[test]
    fn heartbeat_jitter_is_deterministic_and_bounded() {
        let hb = HeartbeatConfig { every: 8, suspicion_after: 30, jitter: 4, seed: 0xE1 };
        let a: Vec<u64> = (0..32).map(|n| hb.delay(n)).collect();
        let b: Vec<u64> = (0..32).map(|n| hb.delay(n)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().all(|&d| (8..=12).contains(&d)));
        let other = HeartbeatConfig { seed: 0xE2, ..hb };
        assert_ne!(a, (0..32).map(|n| other.delay(n)).collect::<Vec<_>>());
    }

    #[test]
    fn group_of_one_keeps_no_snapshot_and_no_log() {
        // `replicas == 1` is the unreplicated degenerate: the bare server,
        // no table copy, no retained pushes — whatever the log capacity.
        let mut plain = test_server(9);
        let mut group = ReplicaGroup::new(test_server(9), 1, 0, 1, 4);
        assert!(group.snapshot.is_none());
        for seq in 0..10 {
            plain.apply_checked(&push_for(seq)).unwrap();
            assert_eq!(group.apply_checked(&push_for(seq)).unwrap(), ApplyOutcome::Applied);
            assert_eq!(group.log.next_seq(), 0, "nothing may be logged for nobody");
        }
        assert_eq!(group.apply_checked(&push_for(3)).unwrap(), ApplyOutcome::Duplicate);
        group.checkpoint();
        assert!(group.snapshot.is_none());
        assert_eq!(digest(group.primary().unwrap()), digest(&plain));
        // the existing typed errors, not a revival from state it never kept
        assert_eq!(group.catch_up(0), Ok(()), "alive: nothing to do");
        assert!(matches!(group.catch_up(1), Err(ReplicaError::UnknownRank { rank: 1, .. })));
        assert_eq!(group.kill_primary(), Err(ReplicaError::NoAliveMembers));
        assert_eq!(group.catch_up(0), Err(ReplicaError::NoAliveMembers));
        assert!(group.into_primary().is_err());
    }

    proptest! {
        /// Satellite: promotion at an *arbitrary* applied-watermark prefix
        /// yields final tables byte-equal to the never-failed run — the
        /// lockstep invariant that makes failover free, for any kill
        /// point, group size, and log retention.
        #[test]
        fn promotion_at_any_watermark_is_byte_identical(
            kill_at in 0u64..20,
            replicas in 2u32..4,
            log_capacity in 1usize..16,
            model_seed in 0u64..1_000,
        ) {
            let total = 20u64;
            let mut plain = test_server(model_seed);
            let mut group =
                ReplicaGroup::new(test_server(model_seed), replicas, 0, 1, log_capacity);
            for seq in 0..total {
                plain.apply_checked(&push_for(seq)).unwrap();
                group.apply_checked(&push_for(seq)).unwrap();
                if seq + 1 == kill_at {
                    group.kill_primary().unwrap();
                }
            }
            if kill_at == 0 {
                group.kill_primary().unwrap();
            }
            prop_assert!(group.verify_consistent());
            prop_assert_eq!(digest(group.primary().unwrap()), digest(&plain));
        }
    }
}
