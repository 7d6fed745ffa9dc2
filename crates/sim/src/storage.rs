//! Fault-injecting storage for crash-recovery scenarios.
//!
//! [`FaultyStorage`] wraps the pipeline crate's deterministic
//! [`MemStorage`] and counts every [`Storage`]-trait call as one *storage
//! operation*. A seeded [`StorageFaultPlan`] can kill the process at any
//! operation index — i.e. between any two steps of the checkpoint store's
//! atomic write protocol — or tear a `write_file` so that only a prefix
//! of the bytes reaches the platter. Two further fault kinds corrupt the
//! newest *durable* checkpoint after the crash (a flipped bit, a
//! truncated tail), modelling at-rest rot the recovery scan must detect
//! by checksum and route around.
//!
//! Like [`crate::fault::FaultPlan`], plans derive deterministically from
//! a seed (and the operations a fault-free run performs, which the
//! operation-indexed faults are drawn from), so a failing crash-sweep
//! seed replays bit-for-bit.

use el_pipeline::ckpt::{CkptError, MemStorage, Storage};
use el_pipeline::replica::splitmix64;
use parking_lot::Mutex;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// One injected storage fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageFault {
    /// The process dies *instead of* executing storage operation `op`
    /// (a 0-based count over all [`Storage`]-trait calls). Everything the
    /// protocol made durable before that operation survives; nothing
    /// else does.
    CrashAtOp {
        /// Operation index at which the process dies.
        op: u64,
    },
    /// If storage operation `op` is a `write_file`, only the leading
    /// `keep_permille`/1000 of the bytes are written — and *those reach
    /// the platter* — before the process dies. The classic torn write.
    TornWriteAtOp {
        /// Operation index of the torn write.
        op: u64,
        /// How much of the payload survives, in 1/1000ths.
        keep_permille: u16,
    },
    /// After the crash, one bit of the newest durable checkpoint file
    /// flips at rest (bit rot the frame checksums must catch).
    BitFlipAtRest {
        /// Seed selecting the flipped byte and bit.
        pos_seed: u64,
    },
    /// After the crash, the newest durable checkpoint file is truncated
    /// at rest to `keep_permille`/1000 of its length.
    TruncateAtRest {
        /// How much of the file survives, in 1/1000ths.
        keep_permille: u16,
    },
}

impl fmt::Display for StorageFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageFault::CrashAtOp { op } => write!(f, "process dies at storage op {op}"),
            StorageFault::TornWriteAtOp { op, keep_permille } => {
                write!(f, "write at storage op {op} torn to {keep_permille}/1000 of its bytes")
            }
            StorageFault::BitFlipAtRest { pos_seed } => {
                write!(
                    f,
                    "one bit of the newest durable checkpoint flips at rest (seed {pos_seed})"
                )
            }
            StorageFault::TruncateAtRest { keep_permille } => {
                write!(
                    f,
                    "newest durable checkpoint truncated at rest to {keep_permille}/1000 of its \
                     length"
                )
            }
        }
    }
}

/// A replayable set of storage faults for one crash-recovery scenario.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StorageFaultPlan {
    /// The injected faults, in generation order.
    pub faults: Vec<StorageFault>,
}

impl fmt::Display for StorageFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() {
            return write!(f, "(storage-fault-free)");
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

impl StorageFaultPlan {
    /// The empty (fault-free) plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan containing exactly the given faults.
    pub fn with(faults: Vec<StorageFault>) -> Self {
        Self { faults }
    }

    /// Derives a plan deterministically from `seed`: zero to two faults,
    /// every parameter from a splitmix64 stream. Operation indices are
    /// drawn from `ops`, what a fault-free run performs once the plan is
    /// armed (in the crash sweeps every one is a step of a checkpoint
    /// write or of retention): a crash from all of them, a torn write
    /// from the `write_file`s. A run that never touches storage gets
    /// `ops.range.start`, which nothing reaches.
    pub fn from_seed(seed: u64, ops: &ArmedOps) -> Self {
        let mut ctr = seed ^ 0x57_0F_A0_17_57_0F_A0_17;
        let mut draw = move || {
            ctr = ctr.wrapping_add(1);
            splitmix64(ctr)
        };
        let first = ops.range.start;
        let span = ops.range.end.saturating_sub(first).max(1);
        let write_at = |d: u64| match ops.writes.len() as u64 {
            0 => first,
            n => ops.writes[(d % n) as usize],
        };
        let count = (draw() % 3) as usize; // 0..=2 faults
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let fault = match draw() % 4 {
                0 => StorageFault::CrashAtOp { op: first + draw() % span },
                1 => StorageFault::TornWriteAtOp {
                    op: write_at(draw()),
                    keep_permille: (draw() % 1000) as u16,
                },
                2 => StorageFault::BitFlipAtRest { pos_seed: draw() },
                _ => StorageFault::TruncateAtRest { keep_permille: (draw() % 1000) as u16 },
            };
            faults.push(fault);
        }
        Self { faults }
    }

    /// True when the process dies instead of executing operation `op`.
    pub fn crashes_at(&self, op: u64) -> bool {
        self.faults.iter().any(|f| matches!(f, StorageFault::CrashAtOp { op: o } if *o == op))
    }

    /// The surviving fraction of a torn write at operation `op`, if any.
    pub fn torn_at(&self, op: u64) -> Option<u16> {
        self.faults.iter().find_map(|f| match f {
            StorageFault::TornWriteAtOp { op: o, keep_permille } if *o == op => {
                Some(*keep_permille)
            }
            _ => None,
        })
    }

    /// Applies the at-rest faults (bit flips, truncation) to the newest
    /// durable checkpoint file. Called by the recovery driver after the
    /// crash, before the post-crash scan.
    pub fn apply_at_rest(&self, mem: &MemStorage) {
        let newest = mem
            .durable_snapshot()
            .into_iter()
            .filter(|(n, _)| n.starts_with("ckpt-") && n.ends_with(".elck"))
            // zero-padded sequence numbers make lexicographic max the newest
            .max_by(|a, b| a.0.cmp(&b.0));
        let Some((name, mut bytes)) = newest else { return };
        let mut touched = false;
        for fault in &self.faults {
            match fault {
                StorageFault::BitFlipAtRest { pos_seed } if !bytes.is_empty() => {
                    let pos = (splitmix64(*pos_seed) % bytes.len() as u64) as usize;
                    let bit = splitmix64(pos_seed.wrapping_add(0xB17)) % 8;
                    bytes[pos] ^= 1 << bit;
                    touched = true;
                }
                StorageFault::TruncateAtRest { keep_permille } => {
                    let keep = bytes.len() * usize::from(*keep_permille) / 1000;
                    bytes.truncate(keep);
                    touched = true;
                }
                _ => {}
            }
        }
        if touched {
            mem.corrupt_file(&name, bytes);
        }
    }
}

/// The storage operations a run performed once its plan was armed: what
/// [`StorageFaultPlan::from_seed`] draws operation indices from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArmedOps {
    /// Indices of every operation performed.
    pub range: Range<u64>,
    /// Indices of the `write_file`s among them.
    pub writes: Vec<u64>,
}

/// Mutable injection state shared by all clones of a [`FaultyStorage`].
#[derive(Default)]
struct FaultCtl {
    plan: StorageFaultPlan,
    /// Storage operations executed so far.
    op: u64,
    /// What was executed since the plan was armed.
    armed: ArmedOps,
    /// Once dead, every further operation fails (the process is gone).
    dead: bool,
}

/// A [`Storage`] wrapper that injects the operation-indexed faults of a
/// [`StorageFaultPlan`] into a shared [`MemStorage`]. Clones share both
/// the backing store and the operation counter, so a [`crate::sim::CkptSink`]
/// and the recovery driver observe one consistent fault timeline.
#[derive(Clone)]
pub struct FaultyStorage {
    mem: Arc<MemStorage>,
    ctl: Arc<Mutex<FaultCtl>>,
}

impl FaultyStorage {
    /// Fresh empty storage with `plan` armed.
    pub fn new(plan: StorageFaultPlan) -> Self {
        Self {
            mem: Arc::new(MemStorage::new()),
            ctl: Arc::new(Mutex::new(FaultCtl { plan, ..FaultCtl::default() })),
        }
    }

    /// Replaces the armed plan (used to open the store fault-free before
    /// the faulted run begins); [`FaultyStorage::armed_ops`] counts from
    /// here.
    pub fn arm(&self, plan: StorageFaultPlan) {
        let mut ctl = self.ctl.lock();
        ctl.plan = plan;
        ctl.armed = ArmedOps { range: ctl.op..ctl.op, writes: Vec::new() };
    }

    /// The shared backing store (for [`MemStorage::crash`] and the
    /// post-crash recovery scan, which bypasses injection).
    pub fn mem(&self) -> &Arc<MemStorage> {
        &self.mem
    }

    /// The operations executed since the plan was armed.
    pub fn armed_ops(&self) -> ArmedOps {
        self.ctl.lock().armed.clone()
    }

    /// Counts one operation (a `write_file` when `write`); returns its
    /// index and any torn-write fraction assigned to it, or the injected
    /// death.
    fn begin_op(&self, write: bool) -> Result<(u64, Option<u16>), CkptError> {
        let mut ctl = self.ctl.lock();
        if ctl.dead {
            return Err(CkptError::Io("simulated process death: storage unavailable".into()));
        }
        let op = ctl.op;
        ctl.op += 1;
        ctl.armed.range.end = ctl.op;
        if write {
            ctl.armed.writes.push(op);
        }
        if ctl.plan.crashes_at(op) {
            ctl.dead = true;
            return Err(CkptError::Io(format!("simulated crash at storage op {op}")));
        }
        Ok((op, ctl.plan.torn_at(op)))
    }

    fn die(&self, msg: String) -> CkptError {
        self.ctl.lock().dead = true;
        CkptError::Io(msg)
    }
}

impl Storage for FaultyStorage {
    fn write_file(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        let (op, torn) = self.begin_op(true)?;
        if let Some(keep_permille) = torn {
            let keep = bytes.len() * usize::from(keep_permille) / 1000;
            // The torn prefix reached the platter: write it and force
            // durability so the post-crash view contains the fragment.
            self.mem.write_file(name, &bytes[..keep])?;
            self.mem.sync_file(name)?;
            return Err(self.die(format!(
                "simulated torn write of `{name}` at storage op {op}: {keep}/{} bytes persisted",
                bytes.len()
            )));
        }
        self.mem.write_file(name, bytes)
    }

    fn sync_file(&self, name: &str) -> Result<(), CkptError> {
        self.begin_op(false)?;
        self.mem.sync_file(name)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), CkptError> {
        self.begin_op(false)?;
        self.mem.rename(from, to)
    }

    fn sync_dir(&self) -> Result<(), CkptError> {
        self.begin_op(false)?;
        self.mem.sync_dir()
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        self.begin_op(false)?;
        self.mem.read_file(name)
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        self.begin_op(false)?;
        self.mem.list()
    }

    fn remove_file(&self, name: &str) -> Result<(), CkptError> {
        self.begin_op(false)?;
        self.mem.remove_file(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_diverse() {
        let ops = ArmedOps { range: 3..8, writes: vec![3, 6] };
        let mut kinds = [false; 4];
        let (mut crashed, mut torn) = ([false; 8], [false; 8]);
        for seed in 0..500u64 {
            let plan = StorageFaultPlan::from_seed(seed, &ops);
            assert_eq!(plan, StorageFaultPlan::from_seed(seed, &ops));
            for f in &plan.faults {
                match *f {
                    StorageFault::CrashAtOp { op } => crashed[op as usize] = true,
                    StorageFault::TornWriteAtOp { op, .. } => torn[op as usize] = true,
                    _ => {}
                }
                kinds[match f {
                    StorageFault::CrashAtOp { .. } => 0,
                    StorageFault::TornWriteAtOp { .. } => 1,
                    StorageFault::BitFlipAtRest { .. } => 2,
                    StorageFault::TruncateAtRest { .. } => 3,
                }] = true;
            }
        }
        assert!(kinds.iter().all(|&k| k), "500 seeds must cover all kinds: {kinds:?}");
        let at = |hit: [bool; 8]| (0..8).filter(|&i| hit[i]).collect::<Vec<_>>();
        assert_eq!(at(crashed), [3, 4, 5, 6, 7], "crashes land on every armed op");
        assert_eq!(at(torn), [3, 6], "torn writes land on the writes");
        assert!(
            (0..100u64).any(|s| StorageFaultPlan::from_seed(s, &ops).faults.is_empty()),
            "the sweep must include storage-fault-free baselines"
        );
        // a run that never touches storage draws an index nothing reaches
        let none = ArmedOps { range: 1..1, writes: Vec::new() };
        for seed in 0..50u64 {
            for f in &StorageFaultPlan::from_seed(seed, &none).faults {
                if let StorageFault::CrashAtOp { op } | StorageFault::TornWriteAtOp { op, .. } = f {
                    assert_eq!(*op, 1);
                }
            }
        }
    }

    #[test]
    fn crash_at_op_kills_the_process_permanently() {
        let st =
            FaultyStorage::new(StorageFaultPlan::with(vec![StorageFault::CrashAtOp { op: 1 }]));
        st.write_file("a", b"hello").unwrap(); // op 0
        assert!(st.sync_file("a").is_err()); // op 1: dies
        assert!(st.read_file("a").is_err(), "a dead process cannot read");
        // the un-synced write never became durable
        st.mem().crash();
        assert!(st.mem().durable_snapshot().is_empty());
    }

    #[test]
    fn torn_write_persists_exactly_the_prefix() {
        let st = FaultyStorage::new(StorageFaultPlan::with(vec![StorageFault::TornWriteAtOp {
            op: 0,
            keep_permille: 500,
        }]));
        assert!(st.write_file("f", &[7u8; 10]).is_err());
        assert!(st.list().is_err(), "the torn write killed the process");
        st.mem().crash();
        let snap = st.mem().durable_snapshot();
        assert_eq!(snap.get("f").map(Vec::len), Some(5), "half the bytes reached the platter");
    }

    #[test]
    fn at_rest_faults_hit_only_the_newest_checkpoint() {
        let mem = MemStorage::new();
        let put = |name: &str, bytes: &[u8]| {
            mem.write_file(name, bytes).unwrap();
            mem.sync_file(name).unwrap();
        };
        put("ckpt-00000000.elck", &[1u8; 8]);
        put("ckpt-00000001.elck", &[2u8; 8]);
        put("ckpt-00000002.elck.tmp", &[3u8; 8]);
        let plan =
            StorageFaultPlan::with(vec![StorageFault::TruncateAtRest { keep_permille: 500 }]);
        plan.apply_at_rest(&mem);
        let snap = mem.durable_snapshot();
        assert_eq!(snap["ckpt-00000000.elck"].len(), 8, "older checkpoint untouched");
        assert_eq!(snap["ckpt-00000001.elck"].len(), 4, "newest checkpoint truncated");
        assert_eq!(snap["ckpt-00000002.elck.tmp"].len(), 8, "temp file untouched");
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let mem = MemStorage::new();
        mem.write_file("ckpt-00000000.elck", &[0u8; 16]).unwrap();
        mem.sync_file("ckpt-00000000.elck").unwrap();
        StorageFaultPlan::with(vec![StorageFault::BitFlipAtRest { pos_seed: 42 }])
            .apply_at_rest(&mem);
        let bytes = mem.durable_snapshot()["ckpt-00000000.elck"].clone();
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped: {bytes:?}");
    }
}
