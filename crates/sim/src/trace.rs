//! The observable history of one simulated run.
//!
//! Every protocol-relevant action appends a [`TraceEvent`]; the invariant
//! checker consumes the trace after the run. Traces derive `PartialEq` so
//! replay determinism can be asserted structurally, not just on final
//! state.

/// One observed protocol action, in virtual-time order. Every intake,
/// apply and acknowledgement names the shard it happened on (and the
/// member's rank where members differ), so one vocabulary describes every
/// `(shards, replicas)` topology: the single server is shard 0, rank 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The tier gathered batch `seq`, stamping it with its progress.
    Gathered {
        /// Batch sequence number.
        seq: u64,
        /// The stitched stamp: the minimum per-shard applied watermark
        /// at gather time.
        applied_through: u64,
    },
    /// During a gather, one shard reported its own applied watermark —
    /// the per-shard stamp the global `Gathered` stamp is stitched
    /// (min'd) from.
    Stamped {
        /// The reporting shard.
        shard: u32,
        /// Batch sequence number being gathered.
        seq: u64,
        /// That shard's applied watermark at gather time.
        applied: u64,
    },
    /// The worker synchronized batch `seq`'s pre-fetched rows against its
    /// embedding cache and began computing.
    PrefetchSynced {
        /// Batch sequence number.
        seq: u64,
        /// The staleness stamp the batch carried.
        applied_through: u64,
    },
    /// The worker transmitted batch `seq`'s push toward one shard
    /// (attempt `delivery`, 1-based).
    PushSent {
        /// Destination shard.
        shard: u32,
        /// Batch sequence number.
        seq: u64,
        /// Transmission attempt.
        delivery: u32,
    },
    /// A push delivery reached a shard's primary.
    PushDelivered {
        /// Receiving shard.
        shard: u32,
        /// Batch sequence number.
        seq: u64,
    },
    /// A delivered push bounced off a saturated shard intake.
    PushBounced {
        /// Bouncing shard.
        shard: u32,
        /// Batch sequence number.
        seq: u64,
    },
    /// A delivered push duplicated one that shard had already applied or
    /// buffered; it was ignored (and re-acknowledged when already
    /// applied).
    DuplicateIgnored {
        /// Deduplicating shard.
        shard: u32,
        /// Batch sequence number.
        seq: u64,
    },
    /// One member of a shard's group applied batch `seq` to its
    /// sub-tables (primaries and backups alike — the per-member stamp
    /// domain the exactly-once invariant is checked over).
    Applied {
        /// The member's shard.
        shard: u32,
        /// The member's rank within the group.
        rank: u32,
        /// Batch sequence number.
        seq: u64,
    },
    /// The worker received one shard's acknowledgement for batch `seq`.
    Acked {
        /// Acknowledging shard.
        shard: u32,
        /// Batch sequence number.
        seq: u64,
    },
    /// The worker exhausted its retry budget (or, with nothing in flight,
    /// its promotion fuse) toward one shard and stopped.
    GaveUp {
        /// Unreachable shard.
        shard: u32,
        /// The push it gave up on (the batch it was waiting to train when
        /// the fuse blew).
        seq: u64,
    },
    /// The worker died (fault injection).
    WorkerDied {
        /// Batch it died on.
        at_batch: u64,
    },
    /// A shard's primary died (fault injection). With backups
    /// the group keeps the shard's state; without, the shard is gone and
    /// its peers keep running.
    PrimaryDied {
        /// The shard whose primary died.
        shard: u32,
        /// The dead member's rank within the group.
        rank: u32,
        /// Batches it had applied when it died.
        applied: u64,
    },
    /// A backup replica died (fault injection).
    BackupDied {
        /// The shard whose backup died.
        shard: u32,
        /// The dead member's rank.
        rank: u32,
        /// Batches the group had applied when it died.
        applied: u64,
    },
    /// A checkpoint was made durable through the session's sink.
    CheckpointSaved {
        /// Applied-batch watermark the checkpoint captured.
        applied: u64,
    },
    /// A checkpoint save failed mid-protocol (storage fault); the
    /// process died with it.
    CheckpointFailed {
        /// Applied-batch watermark of the attempted checkpoint.
        applied: u64,
    },
    /// The whole process crashed (fault injection).
    CrashInjected {
        /// Batches applied when the process died.
        applied: u64,
    },
    /// The session resumed from recovered durable state instead of the
    /// initial tables.
    Resumed {
        /// Applied-batch watermark of the recovered checkpoint (zero for
        /// a cold restart).
        applied: u64,
    },
    /// The worker's failure detector crossed the suspicion timeout for a
    /// shard's primary.
    PrimarySuspected {
        /// The suspected shard.
        shard: u32,
        /// The rank that held the primary role.
        rank: u32,
        /// Heartbeat silence in ticks when suspicion fired.
        silent_for: u64,
    },
    /// The worker promoted a backup to primary and rerouted traffic.
    Promoted {
        /// The shard that failed over.
        shard: u32,
        /// The newly-promoted member's rank.
        rank: u32,
        /// The promoted member's applied watermark at promotion.
        applied: u64,
    },
    /// A falsely-deposed primary learned of the promotion and stepped
    /// down to backup (fencing).
    SteppedDown {
        /// The shard whose old primary stepped down.
        shard: u32,
        /// The stepping-down member's rank.
        rank: u32,
    },
    /// A dead member rejoined via the group's catch-up (a copy of the
    /// live primary).
    CatchupInstalled {
        /// The rejoining member's shard.
        shard: u32,
        /// The rejoining member's rank.
        rank: u32,
        /// Applied watermark after the copy (the group's watermark).
        applied: u64,
    },
}

/// The full history of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in virtual-time order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Appends an event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// Number of events matching `pred`.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// True when any event matches `pred`.
    pub fn any(&self, pred: impl Fn(&TraceEvent) -> bool) -> bool {
        self.events.iter().any(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_any_filter() {
        let mut t = Trace::default();
        t.push(TraceEvent::Applied { shard: 0, rank: 0, seq: 0 });
        t.push(TraceEvent::Applied { shard: 0, rank: 0, seq: 1 });
        t.push(TraceEvent::Acked { shard: 0, seq: 0 });
        assert_eq!(t.count(|e| matches!(e, TraceEvent::Applied { .. })), 2);
        assert!(t.any(|e| matches!(e, TraceEvent::Acked { seq: 0, .. })));
        assert!(!t.any(|e| matches!(e, TraceEvent::GaveUp { .. })));
    }
}
