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
//! Everything a group does once a failure is known — [`ReplicaGroup::kill`],
//! the cyclic [`ReplicaGroup::promote`] step with its fence, and the
//! [`ReplicaGroup::catch_up`] rejoin — is written once, here: the
//! simulator's failover scenarios and the trainer's kill drill drive the
//! same calls. Detecting a failure is not: heartbeats and the suspicion
//! timeout live with their only user, the simulator (`el_sim::clock`).

use crate::ckpt::ServerCheckpoint;
use crate::server::{ApplyOutcome, GradientPush, HostServer, ServerError};
use std::collections::VecDeque;
use std::fmt;

/// SplitMix64 — the seed mixer of every deterministic derivation in the
/// workspace (placement, retry jitter, and the simulator's fault plans,
/// latencies and pseudo-loss): small, stateless and well distributed.
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

/// One member of a [`ReplicaGroup`]. Death only clears `alive`: the
/// server keeps the state it died with, so a corpse can still be checked
/// against the sequential reference at its own watermark.
struct Member {
    server: HostServer,
    alive: bool,
}

/// One shard's replica group: lockstep primary + backups over the same
/// exactly-once stamp domain.
pub struct ReplicaGroup {
    members: Vec<Member>,
    primary: usize,
    log: GradientLog,
    /// Catch-up base; `None` in a group of one, which has nobody to catch
    /// up and therefore keeps neither a snapshot nor log entries.
    snapshot: Option<ServerCheckpoint>,
    shard: u32,
    num_shards: u32,
    failovers: u64,
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
            // a fresh member with its own meters: tables, lr, applied
            let mut backup = HostServer::new(server.tables.clone(), server.lr);
            backup.applied = server.applied;
            members.push(Member { server: backup, alive: true });
        }
        members.insert(0, Member { server, alive: true });
        Self { members, primary: 0, log, snapshot, shard, num_shards, failovers: 0 }
    }

    /// Number of members (alive or dead).
    pub fn members(&self) -> u32 {
        self.members.len() as u32
    }

    /// Number of alive members.
    pub fn alive(&self) -> u32 {
        self.members.iter().filter(|m| m.alive).count() as u32
    }

    /// Promotions performed so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// The group watermark: the maximum applied count over all members,
    /// the dead included. Lockstep keeps alive members equal and a
    /// rejoiner lands at the watermark, so a corpse is never ahead of a
    /// survivor, and a group with no survivor stays at the watermark it
    /// died with.
    pub fn applied(&self) -> u64 {
        self.members.iter().map(|m| m.server.applied).max().unwrap_or(0)
    }

    /// The rank holding the primary role (alive or not).
    pub fn primary_rank(&self) -> u32 {
        self.primary as u32
    }

    /// Member `rank`'s state — a dead member keeps what it died with —
    /// and whether it is alive; `None` for a rank the group lacks.
    pub fn member(&self, rank: u32) -> Option<(&HostServer, bool)> {
        self.members.get(rank as usize).map(|m| (&m.server, m.alive))
    }

    /// The primary's index; [`ReplicaError::DeadMember`] while the role
    /// sits on a dead rank.
    fn live_primary(&self) -> Result<usize, ReplicaError> {
        let rank = self.primary;
        self.members[rank].alive.then_some(rank).ok_or(ReplicaError::DeadMember(rank as u32))
    }

    /// Borrows the primary; [`ReplicaError::DeadMember`] while the role
    /// sits on a dead rank.
    pub fn primary(&self) -> Result<&HostServer, ReplicaError> {
        Ok(&self.members[self.live_primary()?].server)
    }

    /// Mutably borrows the primary (for gather-side meter accounting —
    /// gathers read the primary only, so backups stay byte-identical).
    pub fn primary_mut(&mut self) -> Result<&mut HostServer, ReplicaError> {
        let rank = self.live_primary()?;
        Ok(&mut self.members[rank].server)
    }

    /// Applies one push through the whole group: exactly-once intake at
    /// the primary, then the stamped push goes to the log and to every
    /// alive backup (idempotent over the same stamp domain). Duplicates
    /// are absorbed at the primary and never re-replicated. A dead
    /// primary is the typed [`ReplicaError::DeadMember`]: intake waits
    /// for a promotion onto a live rank. A backup whose intake rejects a
    /// lockstep push has diverged from the stamp domain; it is killed (it
    /// can rejoin via [`ReplicaGroup::catch_up`]) rather than aborting
    /// mid-replication, which would leave the primary ahead of the log
    /// and the remaining backups.
    pub fn apply_checked(&mut self, push: &GradientPush) -> Result<ApplyOutcome, ReplicaError> {
        let rank = self.live_primary()?;
        // Refresh the snapshot from the *pre-push* primary before a full
        // log would trim away the entry this push is about to append.
        let replicated = self.snapshot.is_some();
        if replicated && self.log.full() {
            self.checkpoint();
        }
        let outcome = self.members[rank].server.apply_checked(push)?;
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
            // Lockstep keeps backups at the primary's watermark, so this
            // is Applied (or Duplicate right after a catch-up); an Err is
            // a diverged member, removed so the group stays consistent.
            if r != rank && member.alive && member.server.apply_checked(push).is_err() {
                member.alive = false;
            }
        }
        Ok(outcome)
    }

    /// Refreshes the retained snapshot from the primary's *pre-push* state
    /// and trims the log below it, bounding replay length. No-op while the
    /// primary is dead or when the group has no backups to catch up.
    pub fn checkpoint(&mut self) {
        let primary = &self.members[self.primary];
        if let (true, Some(snapshot)) = (primary.alive, self.snapshot.as_mut()) {
            *snapshot =
                ServerCheckpoint::capture_shard(&primary.server, self.shard, self.num_shards);
            self.log.truncate_below(snapshot.applied);
        }
    }

    /// Kills member `rank`, primary or backup, keeping its state. Killing
    /// the primary moves no role: the group takes no intake until
    /// [`ReplicaGroup::promote`] hands the role on.
    pub fn kill(&mut self, rank: u32) -> Result<(), ReplicaError> {
        let members = self.members();
        let member = self
            .members
            .get_mut(rank as usize)
            .ok_or(ReplicaError::UnknownRank { rank, members })?;
        if !member.alive {
            return Err(ReplicaError::DeadMember(rank));
        }
        member.alive = false;
        Ok(())
    }

    /// The failover step: hands the primary role to the next rank
    /// cyclically and counts one failover. The step does not skip dead
    /// ranks — a promotion onto a corpse makes the next apply the typed
    /// [`ReplicaError::DeadMember`] and the caller promotes again. Because
    /// replication is lockstep, a live promoted backup is byte-identical
    /// to the old primary at the same watermark, so training continues
    /// without a cold restart. Returns the deposed rank when it is still
    /// alive: it is fenced off the write path and stays on as a backup,
    /// its bytes kept current by lockstep.
    pub fn promote(&mut self) -> Option<u32> {
        let deposed = self.primary;
        self.primary = (deposed + 1) % self.members.len();
        self.failovers += 1;
        (self.members[deposed].alive && self.primary != deposed).then_some(deposed as u32)
    }

    /// Revives a dead member through the catch-up path: restore the
    /// retained snapshot, then replay the gradient log from the snapshot
    /// watermark. The rejoined member lands byte-identical to the primary
    /// and resumes receiving lockstep appends. A group of one retains
    /// nothing to revive its only member from: [`ReplicaError::NoAliveMembers`].
    pub fn catch_up(&mut self, rank: u32) -> Result<(), ReplicaError> {
        let members = self.members();
        let member =
            self.members.get(rank as usize).ok_or(ReplicaError::UnknownRank { rank, members })?;
        if member.alive {
            return Ok(()); // already alive: nothing to do
        }
        let snapshot = self.snapshot.as_ref().ok_or(ReplicaError::NoAliveMembers)?;
        let mut revived = snapshot.clone().restore();
        for push in self.log.entries_from(revived.applied)? {
            revived.apply_checked(push)?;
        }
        self.members[rank as usize] = Member { server: revived, alive: true };
        Ok(())
    }

    /// Whether every alive member is byte-identical (same watermark, same
    /// table bytes) to a live primary — the replication invariant the
    /// failover tests assert.
    pub fn verify_consistent(&self) -> bool {
        let Ok(primary) = self.primary() else { return false };
        self.members.iter().filter(|m| m.alive).all(|m| {
            m.server.applied == primary.applied
                && m.server.tables.len() == primary.tables.len()
                && m.server.tables.iter().zip(&primary.tables).all(|((ia, a), (ib, b))| {
                    ia == ib && a.weight.as_slice() == b.weight.as_slice()
                })
        })
    }

    /// The rank [`ReplicaGroup::survivor`] picks.
    fn survivor_rank(&self) -> usize {
        let key = |(r, m): &(usize, &Member)| (m.alive, *r == self.primary, m.server.applied);
        self.members.iter().enumerate().max_by_key(key).map_or(self.primary, |(r, _)| r)
    }

    /// The member whose state stands for the group in a merge of the
    /// shards: the primary when alive, else a survivor (byte-identical by
    /// lockstep), else the most advanced corpse.
    pub fn survivor(&self) -> &HostServer {
        &self.members[self.survivor_rank()].server
    }

    /// Consumes the group, returning the state the trainer merges (the
    /// [`ReplicaGroup::survivor`]); [`ReplicaError::NoAliveMembers`] once
    /// every member is dead.
    pub fn into_primary(mut self) -> Result<HostServer, ReplicaError> {
        if self.alive() == 0 {
            return Err(ReplicaError::NoAliveMembers);
        }
        let rank = self.survivor_rank();
        Ok(self.members.swap_remove(rank).server)
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
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // low bits must differ across consecutive seeds (used modulo small n)
        let lows: std::collections::HashSet<u64> = (0..64).map(|x| splitmix64(x) % 16).collect();
        assert!(lows.len() > 8);
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
        let mut group = ReplicaGroup::new(test_server(2), 3, 0, 1, 32);
        for seq in 0..6 {
            plain.apply_checked(&push_for(seq)).unwrap();
            group.apply_checked(&push_for(seq)).unwrap();
        }
        // a promotion away from a live primary fences it: it stays on as
        // a backup, byte-identical through further applies
        assert_eq!(group.promote(), Some(0), "the live deposed primary is fenced");
        assert_eq!((group.primary_rank(), group.alive()), (1, 3));
        for seq in 6..9 {
            plain.apply_checked(&push_for(seq)).unwrap();
            group.apply_checked(&push_for(seq)).unwrap();
            assert!(group.verify_consistent(), "fenced member diverged at seq {seq}");
        }
        // a dead primary is deposed without a fence
        group.kill(1).unwrap();
        assert_eq!(group.promote(), None);
        assert_eq!(group.applied(), 9, "promoted backup resumes at the same watermark");
        for seq in 9..12 {
            plain.apply_checked(&push_for(seq)).unwrap();
            group.apply_checked(&push_for(seq)).unwrap();
        }
        assert_eq!(digest(group.primary().unwrap()), digest(&plain));
        assert_eq!(digest(group.member(0).unwrap().0), digest(&plain));
        assert_eq!(group.failovers(), 2);
    }

    #[test]
    fn catch_up_replays_snapshot_plus_log() {
        let mut group = ReplicaGroup::new(test_server(3), 3, 0, 1, 64);
        for seq in 0..4 {
            group.apply_checked(&push_for(seq)).unwrap();
        }
        group.kill(2).unwrap();
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
        group.kill(1).unwrap();
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
                group.kill(1).unwrap();
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
        group.members[1].server.applied -= 1;
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
    fn promotion_onto_a_dead_rank_is_a_typed_error_until_the_next_step() {
        let mut group = ReplicaGroup::new(test_server(5), 3, 0, 1, 8);
        group.apply_checked(&push_for(0)).unwrap();
        group.kill(1).unwrap();
        group.kill(0).unwrap();
        assert_eq!(group.primary().err(), Some(ReplicaError::DeadMember(0)));
        // the cyclic step does not skip the corpse at rank 1
        assert_eq!(group.promote(), None);
        assert_eq!(group.apply_checked(&push_for(1)), Err(ReplicaError::DeadMember(1)));
        assert_eq!(group.promote(), None);
        assert_eq!(group.apply_checked(&push_for(1)), Ok(ApplyOutcome::Applied));
        assert_eq!((group.primary_rank(), group.failovers(), group.applied()), (2, 2, 2));
        // corpses keep the state they died with
        assert_eq!(group.member(1).map(|(m, alive)| (m.applied, alive)), Some((1, false)));
        group.kill(2).unwrap();
        assert!(group.primary().is_err());
        assert_eq!(group.survivor().applied, 2, "the most advanced corpse stands for the group");
        assert_eq!(group.into_primary().err(), Some(ReplicaError::NoAliveMembers));
    }

    #[test]
    fn kill_rejects_unknown_and_dead_ranks() {
        let mut group = ReplicaGroup::new(test_server(6), 2, 0, 1, 8);
        assert!(matches!(group.kill(7), Err(ReplicaError::UnknownRank { rank: 7, .. })));
        group.kill(1).unwrap();
        assert_eq!(group.kill(1), Err(ReplicaError::DeadMember(1)));
        // the primary dies like any member; its role stays put
        group.kill(0).unwrap();
        assert_eq!((group.primary_rank(), group.alive()), (0, 0));
        assert_eq!(group.kill(0), Err(ReplicaError::DeadMember(0)));
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
        assert_eq!(group.promote(), None, "the role has nowhere to move");
        group.kill(0).unwrap();
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
                    group.kill(group.primary_rank()).unwrap();
                    group.promote();
                }
            }
            if kill_at == 0 {
                group.kill(group.primary_rank()).unwrap();
                group.promote();
            }
            prop_assert!(group.verify_consistent());
            prop_assert_eq!(digest(group.primary().unwrap()), digest(&plain));
        }
    }
}
