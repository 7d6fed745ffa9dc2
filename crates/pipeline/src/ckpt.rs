//! Crash-consistent checkpoints: the one durable format of a training run
//! (DESIGN.md §11).
//!
//! A [`TrainingCheckpoint`] holds whichever halves of the training state a
//! writer owns: the device model ([`el_dlrm::checkpoint::DlrmCheckpoint`],
//! MLPs, TT cores and optimizer accumulators), the [`HostServer`]'s hosted
//! tables and applied-gradient stamp, and the loader cursor. The CLI saves
//! a model with no server, the pipeline trainer saves both, and the
//! simulator's parameter tier saves a server with no model. Every one of
//! them is made durable the same way:
//!
//! * **Framed format** — sections (`meta`, `model`, `server`) each carry
//!   an FNV-1a checksum, and the file ends in a whole-file checksum
//!   trailer, so *any* single-byte flip or truncation is detected and
//!   surfaces as a typed [`CkptError::Corrupt`] — never a panic, never a
//!   silently wrong model.
//! * **Atomic write protocol** — [`write_atomic`]: temp file → fsync file
//!   → rename → fsync directory, expressed over a pluggable [`Storage`]
//!   trait at protocol-step granularity so the simulator can crash
//!   between every step and tear the temp write itself.
//! * **Store semantics** — [`CkptStore`] names checkpoints by a
//!   monotonically increasing sequence number, retains the newest K,
//!   maintains an advisory manifest, and recovers by *scanning* for the
//!   newest checkpoint that passes verification ([`CkptStore::latest_valid`])
//!   rather than trusting any single file.
//!
//! What is *not* in a checkpoint: kernel workspaces, caches, queues — all
//! rebuilt on resume — and the [`crate::server::ServerMode`], which is run
//! configuration the caller re-supplies.

use crate::server::HostServer;
use el_dlrm::checkpoint::DlrmCheckpoint;
use el_dlrm::embedding_bag::EmbeddingBag;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

pub use el_dlrm::checkpoint::CkptError;

// ---------------------------------------------------------------------------
// FNV-1a checksums
// ---------------------------------------------------------------------------

/// Streaming FNV-1a (64-bit). Every byte fed through `update` permutes the
/// state bijectively (xor, then multiply by an odd prime), so two inputs
/// differing in any single byte can never collide — exactly the property
/// the corruption matrix needs from a non-cryptographic checksum.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Final digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Framed container format
// ---------------------------------------------------------------------------

/// Magic bytes opening every framed checkpoint file.
pub const FRAME_MAGIC: [u8; 4] = *b"ELCK";
/// Container layout version (independent of the payload formats inside).
pub const FRAME_VERSION: u32 = 1;

/// A named payload inside the framed container.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// Section name (`meta`, `model`, ...).
    pub name: String,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Encodes sections into the framed byte layout:
///
/// ```text
/// "ELCK" | version u32 | nsections u32
/// per section: name_len u32 | name | payload_len u64 | payload
///            | fnv1a(name ++ payload) u64
/// trailer: fnv1a(everything above) u64          (all integers little-endian)
/// ```
pub fn encode_frames(sections: &[Section]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for s in sections {
        out.extend_from_slice(&(s.name.len() as u32).to_le_bytes());
        out.extend_from_slice(s.name.as_bytes());
        out.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&s.payload);
        let mut h = Fnv1a::new();
        h.update(s.name.as_bytes());
        h.update(&s.payload);
        out.extend_from_slice(&h.finish().to_le_bytes());
    }
    out.extend_from_slice(&fnv1a(&out).to_le_bytes());
    out
}

/// Bounds-checked little-endian reader; every overrun is a typed
/// corruption error, never a slice panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CkptError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CkptError::Corrupt(format!("{what} runs past end of file")))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self, what: &str) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }
}

/// Decodes a framed container, verifying the whole-file trailer *first*
/// (so arbitrary corruption is caught before any structural parsing) and
/// then each section checksum.
pub fn decode_frames(bytes: &[u8]) -> Result<Vec<Section>, CkptError> {
    if bytes.len() < FRAME_MAGIC.len() + 4 + 4 + 8 {
        return Err(CkptError::Corrupt(format!("file too short ({} bytes)", bytes.len())));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let want = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    let got = fnv1a(body);
    if got != want {
        return Err(CkptError::Corrupt(format!(
            "whole-file checksum mismatch (stored {want:#018x}, computed {got:#018x})"
        )));
    }
    let mut cur = Cursor { bytes: body, pos: 0 };
    if cur.take(4, "magic")? != FRAME_MAGIC {
        return Err(CkptError::Corrupt("bad magic (not a checkpoint file)".into()));
    }
    let version = cur.u32("frame version")?;
    if version == 0 || version > FRAME_VERSION {
        return Err(CkptError::Version { got: version, supported: FRAME_VERSION });
    }
    let nsections = cur.u32("section count")?;
    if nsections > 1 << 16 {
        return Err(CkptError::Corrupt(format!("implausible section count {nsections}")));
    }
    let mut sections = Vec::with_capacity(nsections as usize);
    for i in 0..nsections {
        let name_len = cur.u32("section name length")?;
        if name_len > 1 << 12 {
            return Err(CkptError::Corrupt(format!("implausible name length {name_len}")));
        }
        let name = std::str::from_utf8(cur.take(name_len as usize, "section name")?)
            .map_err(|_| CkptError::Corrupt(format!("section {i} name is not UTF-8")))?
            .to_owned();
        let payload_len = cur.u64("payload length")?;
        let payload = cur.take(payload_len as usize, "section payload")?.to_vec();
        let want = cur.u64("section checksum")?;
        let mut h = Fnv1a::new();
        h.update(name.as_bytes());
        h.update(&payload);
        if h.finish() != want {
            return Err(CkptError::Corrupt(format!("section `{name}` checksum mismatch")));
        }
        sections.push(Section { name, payload });
    }
    if cur.pos != body.len() {
        return Err(CkptError::Corrupt(format!(
            "{} trailing bytes after last section",
            body.len() - cur.pos
        )));
    }
    Ok(sections)
}

// ---------------------------------------------------------------------------
// Training-state payloads
// ---------------------------------------------------------------------------

/// Payload format version of [`TrainingCheckpoint`] (the `meta` section).
///
/// * v1 — always a `model` section, plus a `workers` section of per-worker
///   cursors that was always empty; both still decode (the decoder skips
///   sections it does not read).
/// * v2 — no `workers` section, and the `model` section is absent when
///   the writer holds no model (a parameter tier's checkpoint).
pub const TRAINING_CKPT_FORMAT: u32 = 2;

/// The `meta` section.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CkptMeta {
    format: u32,
    next_batch: u64,
}

/// One hosted table with its id in the worker model. (A named struct
/// rather than a `(usize, EmbeddingBag)` tuple because the vendored serde
/// derives only cover structs and enums.)
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HostedTableCheckpoint {
    /// Table index in the worker model.
    pub id: usize,
    /// The hosted table.
    pub table: EmbeddingBag,
}

/// Snapshot of a [`HostServer`]: hosted tables, learning rate, and the
/// applied-gradient stamp (the push-sequence watermark workers staleness-
/// synchronize against).
///
/// Every writer saves the merged tables, so `shard` and `num_shards` are
/// always `0` and `1` (the single-server degenerate of the sharded
/// tier, `crate::router`); they stay because dropping them changes the
/// on-disk format.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServerCheckpoint {
    /// Hosted tables with their model table ids.
    pub tables: Vec<HostedTableCheckpoint>,
    /// Learning rate applied to pushed gradients.
    pub lr: f32,
    /// Gradient batches applied so far.
    pub applied: u64,
    /// Which shard of the layout this snapshot captures (0 for the
    /// single-server tier).
    pub shard: u32,
    /// Shards in the layout this snapshot was taken under (1 for the
    /// single-server tier).
    pub num_shards: u32,
}

impl ServerCheckpoint {
    /// A single-tier snapshot (shard 0 of 1) of `tables` after `applied`
    /// gradient batches at learning rate `lr`.
    pub fn of_tables(tables: Vec<(usize, EmbeddingBag)>, lr: f32, applied: u64) -> Self {
        Self {
            tables: tables
                .into_iter()
                .map(|(id, table)| HostedTableCheckpoint { id, table })
                .collect(),
            lr,
            applied,
            shard: 0,
            num_shards: 1,
        }
    }

    /// The hosted tables, each with its model table id.
    pub fn into_tables(self) -> Vec<(usize, EmbeddingBag)> {
        self.tables.into_iter().map(|h| (h.id, h.table)).collect()
    }

    /// Rebuilds a server (fresh meters/timers; `applied` restored so
    /// staleness stamps continue from where the run stopped — callers that
    /// renumber batch sequences from zero, like the pipeline trainer's
    /// per-segment schedule, reset it themselves).
    pub fn restore(self) -> HostServer {
        let (lr, applied) = (self.lr, self.applied);
        let mut server = HostServer::new(self.into_tables(), lr);
        server.applied = applied;
        server
    }
}

/// Everything needed to continue a training run byte-identically, as far
/// as the writer holds it: the worker model (with optimizer
/// accumulators), the server state, and the loader cursor.
pub struct TrainingCheckpoint {
    /// Worker model snapshot; `None` for a parameter tier's checkpoint,
    /// which holds no model.
    pub model: Option<DlrmCheckpoint>,
    /// Host parameter-server state; `None` when no tables are hosted.
    pub server: Option<ServerCheckpoint>,
    /// Next dataset batch index the run would train.
    pub next_batch: u64,
}

impl TrainingCheckpoint {
    /// Serializes into the framed container.
    pub fn to_framed_bytes(&self) -> Vec<u8> {
        fn json<T: serde::Serialize>(v: &T) -> Vec<u8> {
            serde_json::to_vec(v).expect("serializing to a Vec cannot fail")
        }
        let meta = CkptMeta { format: TRAINING_CKPT_FORMAT, next_batch: self.next_batch };
        let mut sections = vec![Section { name: "meta".into(), payload: json(&meta) }];
        if let Some(model) = &self.model {
            sections.push(Section { name: "model".into(), payload: model.to_bytes() });
        }
        sections.push(Section { name: "server".into(), payload: json(&self.server) });
        encode_frames(&sections)
    }

    /// Decodes and fully verifies a framed container.
    pub fn from_framed_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        Self::from_sections(&decode_frames(bytes)?)
    }

    /// Decodes the payloads of verified sections; sections it does not
    /// read are skipped.
    fn from_sections(sections: &[Section]) -> Result<Self, CkptError> {
        let find = |name: &str| sections.iter().find(|s| s.name == name).map(|s| &s.payload[..]);
        let meta =
            find("meta").ok_or_else(|| CkptError::Corrupt("missing `meta` section".into()))?;
        let meta: CkptMeta = parse_json(meta, "meta")?;
        if meta.format == 0 || meta.format > TRAINING_CKPT_FORMAT {
            return Err(CkptError::Version { got: meta.format, supported: TRAINING_CKPT_FORMAT });
        }
        let server =
            find("server").ok_or_else(|| CkptError::Corrupt("missing `server` section".into()))?;
        Ok(Self {
            model: find("model").map(DlrmCheckpoint::from_bytes).transpose()?,
            server: parse_json(server, "server")?,
            next_batch: meta.next_batch,
        })
    }
}

/// JSON-parses a section payload with a typed corruption error.
fn parse_json<T: serde::Deserialize>(bytes: &[u8], what: &str) -> Result<T, CkptError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| CkptError::Corrupt(format!("`{what}` section not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| CkptError::Corrupt(format!("`{what}` section: {e}")))
}

// ---------------------------------------------------------------------------
// Storage: the atomic-protocol surface
// ---------------------------------------------------------------------------

/// Flat-namespace storage at atomic-protocol-step granularity. Durability
/// is explicit: `write_file` alone promises nothing across a crash;
/// `sync_file` makes a file's contents durable; `rename`/`remove_file`
/// are namespace edits that become durable at the next `sync_dir`.
///
/// The production implementation is [`FsStorage`]; [`MemStorage`] models
/// the same semantics deterministically in memory so the simulator can
/// crash between any two steps and inspect what actually survived.
pub trait Storage: Send + Sync {
    /// Creates or replaces `name` with `bytes` (volatile until synced).
    fn write_file(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError>;
    /// Makes `name`'s current contents (and its existence) durable.
    fn sync_file(&self, name: &str) -> Result<(), CkptError>;
    /// Atomically renames `from` to `to` (durable at next `sync_dir`).
    fn rename(&self, from: &str, to: &str) -> Result<(), CkptError>;
    /// Makes all pending namespace edits durable.
    fn sync_dir(&self) -> Result<(), CkptError>;
    /// Reads a file's current contents.
    fn read_file(&self, name: &str) -> Result<Vec<u8>, CkptError>;
    /// Lists current file names (any order).
    fn list(&self) -> Result<Vec<String>, CkptError>;
    /// Removes `name` (durable at next `sync_dir`).
    fn remove_file(&self, name: &str) -> Result<(), CkptError>;
}

/// Replaces `name` with `bytes` atomically with respect to crashes — the
/// one write protocol every durable file goes through:
///
/// 1. write the temp file `name.tmp` (same directory, so the rename
///    cannot cross filesystems),
/// 2. `sync_file` it (contents durable before the name switch),
/// 3. `rename` it over `name` (atomic replacement),
/// 4. `sync_dir` (the new directory entry itself durable).
///
/// A crash at any point leaves `name` holding either the complete old
/// bytes or the complete new bytes — never a torn mix, and never nothing.
/// A step that fails without a crash leaves no temp file behind.
pub fn write_atomic<S: Storage + ?Sized>(
    storage: &S,
    name: &str,
    bytes: &[u8],
) -> Result<(), CkptError> {
    let tmp = format!("{name}.tmp");
    let renamed = storage
        .write_file(&tmp, bytes)
        .and_then(|()| storage.sync_file(&tmp))
        .and_then(|()| storage.rename(&tmp, name));
    if renamed.is_err() {
        // best effort: the error to report is the step's, not this one's
        let _ = storage.remove_file(&tmp);
    }
    renamed?;
    storage.sync_dir()
}

impl<S: Storage + ?Sized> Storage for Arc<S> {
    fn write_file(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        (**self).write_file(name, bytes)
    }
    fn sync_file(&self, name: &str) -> Result<(), CkptError> {
        (**self).sync_file(name)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), CkptError> {
        (**self).rename(from, to)
    }
    fn sync_dir(&self) -> Result<(), CkptError> {
        (**self).sync_dir()
    }
    fn read_file(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        (**self).read_file(name)
    }
    fn list(&self) -> Result<Vec<String>, CkptError> {
        (**self).list()
    }
    fn remove_file(&self, name: &str) -> Result<(), CkptError> {
        (**self).remove_file(name)
    }
}

/// Real-filesystem storage rooted at a directory.
pub struct FsStorage {
    root: PathBuf,
}

impl FsStorage {
    /// Opens (creating if needed) the root directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    fn path(&self, name: &str) -> Result<PathBuf, CkptError> {
        if name.is_empty() || name.contains(['/', '\\']) || name == "." || name == ".." {
            return Err(CkptError::Io(format!("invalid storage name `{name}`")));
        }
        Ok(self.root.join(name))
    }
}

impl Storage for FsStorage {
    fn write_file(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        Ok(std::fs::write(self.path(name)?, bytes)?)
    }

    fn sync_file(&self, name: &str) -> Result<(), CkptError> {
        Ok(std::fs::File::open(self.path(name)?)?.sync_all()?)
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), CkptError> {
        Ok(std::fs::rename(self.path(from)?, self.path(to)?)?)
    }

    fn sync_dir(&self) -> Result<(), CkptError> {
        // Some filesystems refuse to open a directory for writing; opening
        // read-only for fsync is the portable idiom. Failure to *open* is
        // best-effort tolerated, a failing sync is not.
        match std::fs::File::open(&self.root) {
            Ok(d) => Ok(d.sync_all()?),
            Err(_) => Ok(()),
        }
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        Ok(std::fs::read(self.path(name)?)?)
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(CkptError::from)? {
            let entry = entry.map_err(CkptError::from)?;
            if entry.file_type().map_err(CkptError::from)?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(names)
    }

    fn remove_file(&self, name: &str) -> Result<(), CkptError> {
        Ok(std::fs::remove_file(self.path(name)?)?)
    }
}

/// A pending namespace edit not yet made durable by `sync_dir`.
#[derive(Clone, Debug)]
enum NsOp {
    Rename { from: String, to: String },
    Remove(String),
}

#[derive(Default)]
struct MemState {
    /// What a running process sees.
    current: BTreeMap<String, Vec<u8>>,
    /// What survives a crash.
    durable: BTreeMap<String, Vec<u8>>,
    /// Namespace edits applied to `current` but not yet to `durable`.
    pending_ns: Vec<NsOp>,
}

/// Deterministic in-memory storage with an explicit durability model:
/// `current` is the live view, `durable` is what a crash reverts to.
/// Contents become durable at `sync_file`; renames/removals at `sync_dir`.
/// Share one `Arc<MemStorage>` between a store and a fault injector, call
/// [`MemStorage::crash`] to simulate power loss, then reopen a store on
/// the surviving state.
#[derive(Default)]
pub struct MemStorage {
    state: Mutex<MemState>,
}

impl MemStorage {
    /// Empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates power loss: the live view reverts to exactly what had
    /// been made durable; pending namespace edits are lost.
    pub fn crash(&self) {
        let mut st = self.state.lock();
        st.current = st.durable.clone();
        st.pending_ns.clear();
    }

    /// Snapshot of the durable view (what a post-crash scan would see).
    pub fn durable_snapshot(&self) -> BTreeMap<String, Vec<u8>> {
        self.state.lock().durable.clone()
    }

    /// Overwrites a file in **both** views — the hook torn-write/bit-flip
    /// injection uses to model corruption that reached the platter.
    pub fn corrupt_file(&self, name: &str, bytes: Vec<u8>) {
        let mut st = self.state.lock();
        st.current.insert(name.to_owned(), bytes.clone());
        st.durable.insert(name.to_owned(), bytes);
    }
}

impl Storage for MemStorage {
    fn write_file(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        self.state.lock().current.insert(name.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn sync_file(&self, name: &str) -> Result<(), CkptError> {
        let mut st = self.state.lock();
        let bytes = st
            .current
            .get(name)
            .cloned()
            .ok_or_else(|| CkptError::Io(format!("sync_file: no such file `{name}`")))?;
        st.durable.insert(name.to_owned(), bytes);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), CkptError> {
        let mut st = self.state.lock();
        let bytes = st
            .current
            .remove(from)
            .ok_or_else(|| CkptError::Io(format!("rename: no such file `{from}`")))?;
        st.current.insert(to.to_owned(), bytes);
        st.pending_ns.push(NsOp::Rename { from: from.to_owned(), to: to.to_owned() });
        Ok(())
    }

    fn sync_dir(&self) -> Result<(), CkptError> {
        let mut st = self.state.lock();
        let ops = std::mem::take(&mut st.pending_ns);
        for op in ops {
            match op {
                // A renamed file keeps whatever durability its contents
                // had: synced contents follow the name, unsynced contents
                // stay lost-on-crash.
                NsOp::Rename { from, to } => {
                    if let Some(bytes) = st.durable.remove(&from) {
                        st.durable.insert(to, bytes);
                    }
                }
                NsOp::Remove(name) => {
                    st.durable.remove(&name);
                }
            }
        }
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        self.state
            .lock()
            .current
            .get(name)
            .cloned()
            .ok_or_else(|| CkptError::Io(format!("read: no such file `{name}`")))
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        Ok(self.state.lock().current.keys().cloned().collect())
    }

    fn remove_file(&self, name: &str) -> Result<(), CkptError> {
        let mut st = self.state.lock();
        st.current
            .remove(name)
            .ok_or_else(|| CkptError::Io(format!("remove: no such file `{name}`")))?;
        st.pending_ns.push(NsOp::Remove(name.to_owned()));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The checkpoint store
// ---------------------------------------------------------------------------

/// Advisory index of the store's contents, itself written atomically.
/// Recovery never *trusts* it — [`CkptStore::latest_valid`] scans and
/// verifies actual checkpoint files — but tooling uses it to cross-check
/// (`ckpt verify` reports drift) and humans use it to see the store state
/// without decoding every file.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Manifest {
    /// Entries, oldest first.
    pub entries: Vec<ManifestEntry>,
}

/// One checkpoint the manifest knows about.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// File name in the store.
    pub name: String,
    /// Monotonic sequence number parsed from the name.
    pub seq: u64,
    /// File size in bytes.
    pub bytes: usize,
    /// Whole-file FNV-1a digest.
    pub checksum: u64,
}

/// Result of verifying one checkpoint file.
#[derive(Clone, Debug)]
pub struct CkptInfo {
    /// File size in bytes.
    pub bytes: usize,
    /// Whole-file FNV-1a digest.
    pub checksum: u64,
    /// `(section name, payload bytes)` in file order.
    pub sections: Vec<(String, usize)>,
    /// The loader cursor the checkpoint would resume at.
    pub next_batch: u64,
    /// Number of hosted server tables captured.
    pub server_tables: usize,
}

/// File name of the advisory manifest.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

fn ckpt_name(seq: u64) -> String {
    format!("ckpt-{seq:08}.elck")
}

fn parse_ckpt_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".elck")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// A retention-managed checkpoint store over any [`Storage`].
pub struct CkptStore<S: Storage> {
    storage: S,
    retain: usize,
    next_seq: u64,
}

impl<S: Storage> CkptStore<S> {
    /// Opens a store, deriving the next sequence number from the files
    /// actually present (a stale or missing manifest cannot confuse it).
    /// `retain` is clamped to at least 1.
    pub fn open(storage: S, retain: usize) -> Result<Self, CkptError> {
        let next_seq =
            storage.list()?.iter().filter_map(|n| parse_ckpt_name(n)).max().map_or(0, |m| m + 1);
        Ok(Self { storage, retain: retain.max(1), next_seq })
    }

    /// Saves a checkpoint with the full atomic protocol ([`write_atomic`]),
    /// applies retention, and rewrites the manifest. Returns the durable
    /// file name. Any error leaves previously saved checkpoints untouched.
    pub fn save(&mut self, ckpt: &TrainingCheckpoint) -> Result<String, CkptError> {
        let name = ckpt_name(self.next_seq);
        write_atomic(&self.storage, &name, &ckpt.to_framed_bytes())?;
        // The checkpoint is durable from here on; retention and the
        // manifest are follow-up work whose failure must not lose it.
        self.next_seq += 1;
        self.apply_retention()?;
        self.write_manifest()?;
        Ok(name)
    }

    fn apply_retention(&mut self) -> Result<(), CkptError> {
        let mut seqs: Vec<u64> =
            self.storage.list()?.iter().filter_map(|n| parse_ckpt_name(n)).collect();
        seqs.sort_unstable();
        let excess = seqs.len().saturating_sub(self.retain);
        for &seq in &seqs[..excess] {
            self.storage.remove_file(&ckpt_name(seq))?;
        }
        if excess > 0 {
            self.storage.sync_dir()?;
        }
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), CkptError> {
        let manifest = self.scan_manifest()?;
        let bytes = serde_json::to_vec(&manifest).expect("manifest serializes");
        write_atomic(&self.storage, MANIFEST_NAME, &bytes)
    }

    /// Builds a manifest by scanning the storage (entries for every
    /// present checkpoint file, valid or not).
    pub fn scan_manifest(&self) -> Result<Manifest, CkptError> {
        let mut entries = Vec::new();
        let mut names: Vec<(u64, String)> = self
            .storage
            .list()?
            .into_iter()
            .filter_map(|n| parse_ckpt_name(&n).map(|seq| (seq, n)))
            .collect();
        names.sort_unstable();
        for (seq, name) in names {
            let bytes = self.storage.read_file(&name)?;
            entries.push(ManifestEntry { name, seq, bytes: bytes.len(), checksum: fnv1a(&bytes) });
        }
        Ok(Manifest { entries })
    }

    /// Reads the stored manifest, if present and parseable (advisory:
    /// corruption here is reported as `None`, never an error).
    pub fn read_manifest(&self) -> Option<Manifest> {
        let bytes = self.storage.read_file(MANIFEST_NAME).ok()?;
        let text = std::str::from_utf8(&bytes).ok()?;
        serde_json::from_str(text).ok()
    }

    /// Checkpoint file names present, newest first.
    pub fn names_newest_first(&self) -> Result<Vec<String>, CkptError> {
        let mut seqs: Vec<u64> =
            self.storage.list()?.iter().filter_map(|n| parse_ckpt_name(n)).collect();
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        Ok(seqs.into_iter().map(ckpt_name).collect())
    }

    /// Scans newest-to-oldest for the first checkpoint that passes full
    /// verification (trailer, section checksums, payload decode) and
    /// returns it. Corrupt or torn files are skipped — that is the
    /// fallback path the corruption matrix exercises.
    pub fn latest_valid(&self) -> Result<(String, TrainingCheckpoint), CkptError> {
        for name in self.names_newest_first()? {
            let Ok(bytes) = self.storage.read_file(&name) else { continue };
            if let Ok(ckpt) = TrainingCheckpoint::from_framed_bytes(&bytes) {
                return Ok((name, ckpt));
            }
        }
        Err(CkptError::NoValidCheckpoint)
    }

    /// Fully verifies one checkpoint file by name.
    pub fn verify(&self, name: &str) -> Result<CkptInfo, CkptError> {
        let bytes = self.storage.read_file(name)?;
        verify_bytes(&bytes)
    }
}

/// Fully verifies checkpoint bytes: frame trailer, per-section checksums,
/// and payload decode — the same decode [`CkptStore::latest_valid`] runs.
/// Returns a summary on success.
pub fn verify_bytes(bytes: &[u8]) -> Result<CkptInfo, CkptError> {
    let sections = decode_frames(bytes)?;
    let ckpt = TrainingCheckpoint::from_sections(&sections)?;
    Ok(CkptInfo {
        bytes: bytes.len(),
        checksum: fnv1a(bytes),
        sections: sections.iter().map(|s| (s.name.clone(), s.payload.len())).collect(),
        next_batch: ckpt.next_batch,
        server_tables: ckpt.server.map_or(0, |s| s.tables.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ckpt(next_batch: u64) -> TrainingCheckpoint {
        use el_dlrm::{DlrmConfig, DlrmModel};
        use rand::SeedableRng;
        let cfg = DlrmConfig {
            num_dense: 2,
            table_cardinalities: vec![50, 50],
            dim: 4,
            bottom_hidden: vec![8],
            top_hidden: vec![8],
            tt_threshold: usize::MAX,
            tt_rank: 4,
            lr: 0.05,
            optimizer: el_dlrm::OptimizerKind::Sgd,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let model = DlrmModel::new(&cfg, &mut rng);
        TrainingCheckpoint {
            model: Some(DlrmCheckpoint::capture(&model)),
            server: None,
            next_batch,
        }
    }

    /// Round-trips one shard's checkpoint through JSON for every shard
    /// of a layout: the format keeps the shard identity and the tables.
    fn shard_ckpt_roundtrip(num_shards: u32) {
        use crate::router::{split_tables, ShardConfig, ShardLayout};
        use el_dlrm::embedding_bag::EmbeddingBag;
        use rand::SeedableRng;

        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let tables = vec![
            (1usize, EmbeddingBag::new(40, 4, 0.2, &mut rng)),
            (2usize, EmbeddingBag::new(25, 4, 0.2, &mut rng)),
        ];
        let cfg = ShardConfig { num_shards, rows_per_range: 7, placement_seed: 5 };
        let layout = ShardLayout::place_for(&cfg, &tables);
        let shards = split_tables(&tables, &layout).unwrap();
        for (s, sub) in shards.into_iter().enumerate() {
            let mut server = HostServer::new(sub, 0.05);
            server.applied = 11;
            let ckpt = ServerCheckpoint {
                shard: s as u32,
                num_shards,
                ..ServerCheckpoint::of_tables(server.tables.clone(), server.lr, server.applied)
            };
            let text = serde_json::to_string(&ckpt).unwrap();
            let decoded: ServerCheckpoint = serde_json::from_str(&text).unwrap();
            assert_eq!((decoded.shard, decoded.num_shards), (s as u32, num_shards));
            let restored = decoded.restore();
            assert_eq!(restored.applied, 11);
            assert_eq!(restored.tables.len(), server.tables.len());
            for ((ta, a), (tb, b)) in server.tables.iter().zip(&restored.tables) {
                assert_eq!(ta, tb);
                assert_eq!(a.weight.as_slice(), b.weight.as_slice());
            }
        }
    }

    #[test]
    fn shard_checkpoints_round_trip_per_layout() {
        for shards in [1, 2, 4] {
            shard_ckpt_roundtrip(shards);
        }
    }

    #[test]
    fn single_server_capture_is_the_degenerate_shard() {
        let ckpt = ServerCheckpoint::of_tables(Vec::new(), 0.1, 0);
        assert_eq!((ckpt.shard, ckpt.num_shards), (0, 1));
    }

    #[test]
    fn frames_round_trip() {
        let sections = vec![
            Section { name: "a".into(), payload: vec![1, 2, 3] },
            Section { name: "empty".into(), payload: vec![] },
        ];
        let bytes = encode_frames(&sections);
        assert_eq!(decode_frames(&bytes).unwrap(), sections);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode_frames(&[Section { name: "s".into(), payload: vec![7; 64] }]);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(decode_frames(&bad), Err(CkptError::Corrupt(_))),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_frames(&[Section { name: "s".into(), payload: vec![9; 32] }]);
        for len in 0..bytes.len() {
            assert!(
                matches!(decode_frames(&bytes[..len]), Err(CkptError::Corrupt(_))),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn mem_storage_crash_semantics() {
        let s = MemStorage::new();
        s.write_file("a.tmp", b"hello").unwrap();
        s.crash();
        assert!(s.read_file("a.tmp").is_err(), "unsynced write must not survive a crash");

        s.write_file("a.tmp", b"hello").unwrap();
        s.sync_file("a.tmp").unwrap();
        s.rename("a.tmp", "a").unwrap();
        s.crash(); // rename not yet sync_dir'ed
        assert_eq!(s.read_file("a.tmp").unwrap(), b"hello", "synced temp survives");
        assert!(s.read_file("a").is_err(), "unsynced rename must not survive");

        s.rename("a.tmp", "a").unwrap();
        s.sync_dir().unwrap();
        s.crash();
        assert_eq!(s.read_file("a").unwrap(), b"hello", "synced rename survives");
        assert!(s.read_file("a.tmp").is_err());
    }

    #[test]
    fn store_saves_and_recovers_latest_valid() {
        let storage = Arc::new(MemStorage::new());
        let mut store = CkptStore::open(Arc::clone(&storage), 3).unwrap();
        for b in [4u64, 8, 12] {
            store.save(&tiny_ckpt(b)).unwrap();
        }
        let (name, ckpt) = store.latest_valid().unwrap();
        assert_eq!(name, "ckpt-00000002.elck");
        assert_eq!(ckpt.next_batch, 12);
    }

    #[test]
    fn retention_keeps_newest_k() {
        let storage = Arc::new(MemStorage::new());
        let mut store = CkptStore::open(Arc::clone(&storage), 2).unwrap();
        for b in 0..5u64 {
            store.save(&tiny_ckpt(b)).unwrap();
        }
        let names = store.names_newest_first().unwrap();
        assert_eq!(names, vec!["ckpt-00000004.elck", "ckpt-00000003.elck"]);
        let manifest = store.read_manifest().expect("manifest present");
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(manifest.entries.last().unwrap().seq, 4);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let storage = Arc::new(MemStorage::new());
        let mut store = CkptStore::open(Arc::clone(&storage), 4).unwrap();
        store.save(&tiny_ckpt(5)).unwrap();
        let newest = store.save(&tiny_ckpt(9)).unwrap();
        let mut bytes = storage.read_file(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        storage.corrupt_file(&newest, bytes);
        let (name, ckpt) = store.latest_valid().unwrap();
        assert_eq!(name, "ckpt-00000000.elck");
        assert_eq!(ckpt.next_batch, 5);
    }

    #[test]
    fn reopen_after_crash_continues_sequence() {
        let storage = Arc::new(MemStorage::new());
        let mut store = CkptStore::open(Arc::clone(&storage), 3).unwrap();
        store.save(&tiny_ckpt(1)).unwrap();
        store.save(&tiny_ckpt(2)).unwrap();
        drop(store);
        storage.crash();
        let mut store = CkptStore::open(Arc::clone(&storage), 3).unwrap();
        let name = store.save(&tiny_ckpt(3)).unwrap();
        assert_eq!(name, "ckpt-00000002.elck");
        assert_eq!(store.latest_valid().unwrap().1.next_batch, 3);
    }

    #[test]
    fn fs_storage_full_protocol_round_trip() {
        let dir = std::env::temp_dir().join(format!("el_ckpt_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = FsStorage::open(&dir).unwrap();
        let mut store = CkptStore::open(storage, 2).unwrap();
        let name = store.save(&tiny_ckpt(7)).unwrap();
        let info = store.verify(&name).unwrap();
        assert_eq!(info.next_batch, 7);
        assert!(info.sections.iter().any(|(n, _)| n == "model"));
        assert_eq!(store.latest_valid().unwrap().1.next_batch, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_without_truncating_first() {
        // A save must leave the previous file fully intact until the
        // rename, so after any number of re-saves over one name the file
        // is a complete, loadable checkpoint and no temp litter remains.
        let dir = std::env::temp_dir().join(format!("el_ckpt_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = FsStorage::open(&dir).unwrap();
        for b in 0..3u64 {
            write_atomic(&storage, "model.elck", &tiny_ckpt(b).to_framed_bytes()).unwrap();
            let bytes = storage.read_file("model.elck").unwrap();
            let ckpt = TrainingCheckpoint::from_framed_bytes(&bytes).unwrap();
            assert_eq!(ckpt.next_batch, b, "every save must leave a loadable file");
            assert!(ckpt.model.unwrap().restore().is_ok());
        }
        assert_eq!(storage.list().unwrap(), ["model.elck"], "temp litter left behind");
        // a rename that fails (the target is a non-empty directory) is an
        // error and removes the temp file it could not move
        std::fs::create_dir_all(dir.join("taken.elck").join("inside")).unwrap();
        assert!(write_atomic(&storage, "taken.elck", b"bytes").is_err());
        assert_eq!(storage.list().unwrap(), ["model.elck"], "failed write left its temp file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_v1_files_with_a_workers_section_still_decode() {
        let ckpt = tiny_ckpt(6);
        let json = |v: &str| v.as_bytes().to_vec();
        let v1 = encode_frames(&[
            Section { name: "meta".into(), payload: json(r#"{"format":1,"next_batch":6}"#) },
            Section { name: "model".into(), payload: ckpt.model.as_ref().unwrap().to_bytes() },
            Section { name: "server".into(), payload: json("null") },
            Section { name: "workers".into(), payload: json(r#"[{"worker":0,"next_batch":6}]"#) },
        ]);
        let info = verify_bytes(&v1).unwrap();
        assert_eq!((info.next_batch, info.sections.len()), (6, 4));
        let back = TrainingCheckpoint::from_framed_bytes(&v1).unwrap();
        assert_eq!(back.to_framed_bytes(), ckpt.to_framed_bytes(), "v1 re-frames as v2");
    }

    #[test]
    fn verify_bytes_rejects_garbage() {
        assert!(matches!(verify_bytes(b"not a checkpoint"), Err(CkptError::Corrupt(_))));
        assert!(matches!(verify_bytes(b""), Err(CkptError::Corrupt(_))));
    }
}
