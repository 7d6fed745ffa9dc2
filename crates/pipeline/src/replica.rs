//! Replicated parameter shards: primary/backup groups over the sharded
//! tier (DESIGN.md §15).
//!
//! Each `HostServer` shard becomes a K-member [`ReplicaGroup`]: one
//! primary plus K-1 backups. The primary's already-stamped, exactly-once
//! [`HostServer::apply_checked`] intake is applied to every alive backup
//! under the *same* stamp domain, so replication is idempotent and
//! primary and backups are byte-identical at every applied watermark.
//! That makes promotion free — a promoted backup resumes from its own
//! watermark and the min-stamp stitch of the sharded gather path
//! (DESIGN.md §14) already tolerates the skew — and makes rejoin a copy:
//! [`ReplicaGroup::catch_up`] copies the live primary, so a group holds
//! its K members and nothing else.
//!
//! Everything a group does once a failure is known — [`ReplicaGroup::kill`],
//! the cyclic [`ReplicaGroup::promote`] step with its fence, and the
//! [`ReplicaGroup::catch_up`] rejoin — is written once, here: the
//! simulator's failover scenarios and the trainer's kill drill drive the
//! same calls. Detecting a failure is not: heartbeats and the suspicion
//! timeout live with their only user, the simulator (`el_sim::clock`).

use crate::server::{ApplyOutcome, GradientPush, HostServer, ServerError};
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
    /// unreplicated degenerate: no backups, no failover.
    pub replicas: u32,
    /// Read by nothing: catch-up copies the live primary, so no group
    /// retains a log. Kept only while the benchmark package (`perf/`)
    /// names the field.
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
    /// The addressed member is dead (kill on a corpse, or intake and
    /// catch-up while the primary role sits on one).
    DeadMember(u32),
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

/// One member of a [`ReplicaGroup`]. Death only clears `alive`: the
/// server keeps the state it died with, so a corpse can still be checked
/// against the sequential reference at its own watermark.
struct Member {
    server: HostServer,
    alive: bool,
}

/// A fresh member holding `server`'s tables, `lr` and `applied`, with
/// its own meters.
fn copy_of(server: &HostServer) -> Member {
    let mut copy = HostServer::new(server.tables.clone(), server.lr);
    copy.applied = server.applied;
    Member { server: copy, alive: true }
}

/// One shard's replica group: lockstep primary + backups over the same
/// exactly-once stamp domain.
pub struct ReplicaGroup {
    members: Vec<Member>,
    primary: usize,
    failovers: u64,
}

impl ReplicaGroup {
    /// Wraps `server` in a group of `replicas` byte-identical members; a
    /// group of one is the bare server. The shard identity and the log
    /// capacity are read by nothing (catch-up copies the live primary):
    /// the parameters stay only while the benchmark package (`perf/`)
    /// calls this signature.
    pub fn new(
        server: HostServer,
        replicas: u32,
        _shard: u32,
        _num_shards: u32,
        _log_capacity: usize,
    ) -> Self {
        let mut members = Vec::with_capacity(replicas.max(1) as usize);
        members.extend((1..replicas).map(|_| copy_of(&server)));
        members.insert(0, Member { server, alive: true });
        Self { members, primary: 0, failovers: 0 }
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
    /// the primary, then the stamped push goes to every alive backup
    /// (idempotent over the same stamp domain). Duplicates are absorbed
    /// at the primary and never re-replicated. A dead primary is the
    /// typed [`ReplicaError::DeadMember`]: intake waits for a promotion
    /// onto a live rank. A backup whose intake rejects a lockstep push
    /// has diverged from the stamp domain; it is killed (it can rejoin
    /// via [`ReplicaGroup::catch_up`]) rather than aborting
    /// mid-replication, which would leave the primary ahead of the
    /// remaining backups. Nothing is copied or retained per push.
    // CONTRACT: zero-alloc
    pub fn apply_checked(&mut self, push: &GradientPush) -> Result<ApplyOutcome, ReplicaError> {
        let rank = self.live_primary()?;
        let outcome = self.members[rank].server.apply_checked(push)?;
        if outcome == ApplyOutcome::Duplicate {
            return Ok(outcome);
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

    /// Revives a dead member by copying the live primary: its tables,
    /// `lr` and `applied`, with fresh meters. Lockstep makes the primary
    /// the group's state at its watermark, so the rejoiner lands
    /// byte-identical to it and resumes receiving lockstep appends. A
    /// primary role on a dead rank is [`ReplicaError::DeadMember`]
    /// (promote first); a group with no live member — a group of one
    /// whose only member died included — is [`ReplicaError::NoAliveMembers`].
    pub fn catch_up(&mut self, rank: u32) -> Result<(), ReplicaError> {
        let members = self.members();
        let member =
            self.members.get(rank as usize).ok_or(ReplicaError::UnknownRank { rank, members })?;
        if member.alive {
            return Ok(()); // already alive: nothing to do
        }
        if self.alive() == 0 {
            return Err(ReplicaError::NoAliveMembers);
        }
        self.members[rank as usize] = copy_of(self.primary()?);
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
    fn catch_up_copies_the_live_primary() {
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
        assert_eq!(group.member(2).map(|(m, alive)| (m.applied, alive)), Some((9, true)));
        // and the rejoined member keeps receiving lockstep appends
        group.apply_checked(&push_for(9)).unwrap();
        assert!(group.verify_consistent());
    }

    #[test]
    fn catch_up_under_a_dead_primary_role_is_a_typed_error() {
        let mut group = ReplicaGroup::new(test_server(4), 3, 0, 1, 8);
        for seq in 0..3 {
            group.apply_checked(&push_for(seq)).unwrap();
        }
        group.kill(2).unwrap();
        group.kill(0).unwrap();
        // rank 1 lives, but the role sits on the corpse at rank 0
        assert_eq!(group.catch_up(2), Err(ReplicaError::DeadMember(0)));
        assert_eq!(group.catch_up(0), Err(ReplicaError::DeadMember(0)));
        assert_eq!(group.member(2).map(|(_, alive)| alive), Some(false));
        group.promote();
        group.catch_up(2).unwrap();
        group.catch_up(0).unwrap();
        assert_eq!(group.alive(), 3);
        assert!(group.verify_consistent());
        // with every member dead there is no state to copy
        for rank in 0..3 {
            group.kill(rank).unwrap();
        }
        assert_eq!(group.catch_up(1), Err(ReplicaError::NoAliveMembers));
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
    fn group_of_one_is_the_bare_server() {
        // `replicas == 1` is the unreplicated degenerate: the bare server,
        // no table copy — whatever the log capacity.
        let mut plain = test_server(9);
        let mut group = ReplicaGroup::new(test_server(9), 1, 0, 1, 4);
        assert_eq!(group.members(), 1);
        for seq in 0..10 {
            plain.apply_checked(&push_for(seq)).unwrap();
            assert_eq!(group.apply_checked(&push_for(seq)).unwrap(), ApplyOutcome::Applied);
        }
        assert_eq!(group.apply_checked(&push_for(3)).unwrap(), ApplyOutcome::Duplicate);
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
        /// point and group size.
        #[test]
        fn promotion_at_any_watermark_is_byte_identical(
            kill_at in 0u64..20,
            replicas in 2u32..4,
            model_seed in 0u64..1_000,
        ) {
            let total = 20u64;
            let mut plain = test_server(model_seed);
            let mut group = ReplicaGroup::new(test_server(model_seed), replicas, 0, 1, 0);
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

        /// Arbitrary apply/kill/promote/catch-up schedules: every
        /// rejoiner lands byte-identical to the live primary at its
        /// watermark, stays identical through later lockstep applies,
        /// and the primary always equals the never-failed run. Each op
        /// is `(code, rank)`: codes 0-3 apply the next push, 4 kills
        /// `rank`, 5 promotes, 6-7 catch `rank` up.
        #[test]
        fn rejoin_under_any_schedule_matches_the_live_primary(
            replicas in 2u32..5,
            ops in proptest::collection::vec((0u8..8, 0u32..4), 1..80),
            model_seed in 0u64..1_000,
        ) {
            let mut plain = test_server(model_seed);
            let mut group = ReplicaGroup::new(test_server(model_seed), replicas, 0, 1, 0);
            let mut seq = 0u64;
            for (code, rank) in ops {
                let rank = rank % replicas;
                match code {
                    0..=3 => match group.apply_checked(&push_for(seq)) {
                        Ok(outcome) => {
                            prop_assert_eq!(outcome, ApplyOutcome::Applied);
                            plain.apply_checked(&push_for(seq)).unwrap();
                            seq += 1;
                        }
                        Err(e) => prop_assert_eq!(e, ReplicaError::DeadMember(group.primary_rank())),
                    },
                    4 => {
                        let _ = group.kill(rank);
                    }
                    5 => {
                        group.promote();
                    }
                    _ => {
                        let was_alive = group.member(rank).is_some_and(|(_, alive)| alive);
                        let expected = if was_alive {
                            Ok(())
                        } else if group.alive() == 0 {
                            Err(ReplicaError::NoAliveMembers)
                        } else if group.primary().is_err() {
                            Err(ReplicaError::DeadMember(group.primary_rank()))
                        } else {
                            Ok(())
                        };
                        prop_assert_eq!(group.catch_up(rank), expected.clone());
                        if !was_alive && expected.is_ok() {
                            let (rejoiner, alive) = group.member(rank).unwrap();
                            let primary = group.primary().unwrap();
                            prop_assert!(alive);
                            prop_assert_eq!(rejoiner.applied, primary.applied);
                            prop_assert_eq!(digest(rejoiner), digest(primary));
                        }
                    }
                }
                if let Ok(primary) = group.primary() {
                    prop_assert!(group.verify_consistent());
                    prop_assert_eq!(primary.applied, seq);
                    prop_assert_eq!(digest(primary), digest(&plain));
                }
            }
        }
    }
}
