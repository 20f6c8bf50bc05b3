//! The disk-backed persistent cache tier.
//!
//! [`DiskTier`] persists finished [`JobOutput`]s under a cache directory,
//! one file per deterministic 64-bit job key, so a restarted server warms
//! up from its own past work instead of re-solving everything. It sits
//! *under* the in-memory sharded map (see [`crate::cache`] for the
//! lookup/promotion order) and is built around three invariants:
//!
//! 1. **Crash-consistent writes, self-healing after power loss.** An
//!    entry is serialized to a `.tmp-` file and atomically renamed into
//!    place; nothing is fsynced. A process killed at any instant
//!    (`SIGKILL` included) leaves either the complete old state or the
//!    complete new state at the final path — never a torn entry — because
//!    written data already sits in the kernel's page cache. Leftover
//!    `.tmp-` files from a kill-mid-write are swept (and counted) at
//!    startup. A power loss can lose what the page cache had not yet
//!    written back: a renamed file may read back zero-length, truncated,
//!    zero-filled, or with the contents of an earlier write. The
//!    validation of invariant 2 quarantines every invalid outcome, and an
//!    earlier valid write of the same content key holds the same result
//!    (a stream checkpoint's holds an earlier chunk's state, which the
//!    stream resumes from), so an entry may be lost (costing a re-solve)
//!    but a bad entry is never served.
//! 2. **Checksummed, versioned format.** Every file carries a magic tag,
//!    a format version, its own key, and a trailing FNV-1a checksum over
//!    the payload. A file that fails any of these checks — foreign bytes,
//!    a version from a future format, a flipped bit, a truncation — is
//!    *quarantined*: deleted, counted in `corrupt_evicted`, and the job
//!    transparently re-solved. Corruption is never served.
//! 3. **Byte-budget eviction.** The tier tracks its total on-disk bytes
//!    and evicts least-recently-accessed entries (LRU by a monotonic
//!    in-process access clock, seeded from file mtimes at startup) until
//!    it fits the configured budget.
//!
//! # On-disk format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SICACHE1"
//! 8       4     version (u32 LE) — currently 1
//! 12      8     job key (u64 LE) — must match the filename
//! 20      8     n_values (u64 LE)
//! 28      8     n_metrics (u64 LE)
//! 36      8×n   values, f64 LE bit patterns (bit-exact round trip)
//! ...           metrics: [name_len u32 LE][name UTF-8][value f64 LE]…
//! end-8   8     FNV-1a checksum (u64 LE) over everything before it
//! ```
//!
//! Values round-trip through `f64::to_bits`, so a disk-served result is
//! bit-identical to the solve that produced it — the restart gate in
//! `si_loadgen --restart` asserts exactly this.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cache::{CacheTier, TierStats};
use crate::jobspec::{Fnv1a, JobOutput};
use crate::lock_recover;
use crate::service::SiService;

const MAGIC: &[u8; 8] = b"SICACHE1";
const FORMAT_VERSION: u32 = 1;
/// Fixed-size prefix: magic + version + key + n_values + n_metrics.
const HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 8;
/// Trailing checksum.
const FOOTER_BYTES: usize = 8;

/// Sizing and placement knobs for the disk tier.
#[derive(Debug, Clone)]
pub struct DiskTierConfig {
    /// Directory holding the cache files (created if absent).
    pub dir: PathBuf,
    /// Total bytes of cache files to keep; least-recently-accessed
    /// entries are evicted once the sum exceeds this.
    pub budget_bytes: u64,
}

impl DiskTierConfig {
    /// A tier rooted at `dir` with the default 256 MiB budget.
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DiskTierConfig {
            dir: dir.into(),
            budget_bytes: 256 << 20,
        }
    }
}

/// One resident entry in the in-memory index of the on-disk state.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    bytes: u64,
    /// Monotonic access clock; smallest = least recently used.
    last_access: u64,
}

#[derive(Debug, Default)]
struct Index {
    entries: HashMap<u64, IndexEntry>,
    total_bytes: u64,
    clock: u64,
}

impl Index {
    fn touch(&mut self, key: u64) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_access = clock;
        }
    }

    fn insert(&mut self, key: u64, bytes: u64) {
        self.clock += 1;
        if let Some(old) = self.entries.insert(
            key,
            IndexEntry {
                bytes,
                last_access: self.clock,
            },
        ) {
            self.total_bytes -= old.bytes;
        }
        self.total_bytes += bytes;
    }

    fn remove(&mut self, key: u64) {
        if let Some(old) = self.entries.remove(&key) {
            self.total_bytes -= old.bytes;
        }
    }

    /// The least-recently-accessed key, if any.
    fn lru(&self) -> Option<u64> {
        self.entries
            .iter()
            .min_by_key(|(key, e)| (e.last_access, **key))
            .map(|(key, _)| *key)
    }
}

/// A content-addressed, crash-consistent, byte-budgeted persistent cache tier.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    budget_bytes: u64,
    index: Mutex<Index>,
    /// Distinguishes concurrent writers' temp files.
    write_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    corrupt_evicted: AtomicU64,
    /// `.tmp-` leftovers swept at startup (a previous process died
    /// mid-write, before its atomic rename).
    tmp_swept: AtomicU64,
    /// I/O errors on store (the entry is simply not persisted).
    write_errors: AtomicU64,
}

impl DiskTier {
    /// Opens (or creates) the tier at `config.dir`, sweeping `.tmp-`
    /// leftovers and indexing existing entries by file size and mtime.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/scan failures.
    pub fn open(config: DiskTierConfig) -> std::io::Result<DiskTier> {
        fs::create_dir_all(&config.dir)?;
        let mut index = Index::default();
        // Seed the LRU order from mtimes: oldest files get the smallest
        // access stamps, so a budget-shrinking restart evicts them first.
        let mut found: Vec<(u64, u64, std::time::SystemTime)> = Vec::new();
        let mut tmp_swept = 0u64;
        for entry in fs::read_dir(&config.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(".tmp-") {
                // A writer died between create and rename: the final path
                // was never touched, so the leftover is pure garbage.
                let _ = fs::remove_file(entry.path());
                tmp_swept += 1;
                continue;
            }
            let Some(key) = entry_key(name) else { continue };
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            found.push((key, meta.len(), mtime));
        }
        found.sort_by_key(|&(key, _, mtime)| (mtime, key));
        for (key, bytes, _) in found {
            index.insert(key, bytes);
        }
        let tier = DiskTier {
            dir: config.dir,
            budget_bytes: config.budget_bytes.max(1),
            index: Mutex::new(index),
            write_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_evicted: AtomicU64::new(0),
            tmp_swept: AtomicU64::new(tmp_swept),
            write_errors: AtomicU64::new(0),
        };
        // A restart may come up with a smaller budget than the directory
        // currently holds; enforce it immediately.
        tier.evict_to_budget();
        Ok(tier)
    }

    /// The directory this tier persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `.tmp-` files swept at startup (kill-mid-write leftovers).
    #[must_use]
    pub fn tmp_swept(&self) -> u64 {
        self.tmp_swept.load(Ordering::Relaxed)
    }

    fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.sic"))
    }

    /// Removes a file that failed validation and counts the quarantine.
    fn quarantine(&self, key: u64) {
        let _ = fs::remove_file(self.path_for(key));
        lock_recover(&self.index).remove(key);
        self.corrupt_evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Evicts LRU entries until the directory fits the byte budget.
    fn evict_to_budget(&self) {
        loop {
            // Pick the victim under the lock, delete outside it.
            let victim = {
                let mut index = lock_recover(&self.index);
                if index.total_bytes <= self.budget_bytes {
                    return;
                }
                let Some(victim) = index.lru() else { return };
                index.remove(victim);
                victim
            };
            let _ = fs::remove_file(self.path_for(victim));
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads the raw serialized bytes for `key` — magic, checksum and
    /// all — but only after validating them, so a peer warming its cache
    /// over `GET /v1/cache/:key` can never receive a torn or corrupt
    /// entry. A file that fails validation is quarantined exactly as a
    /// [`CacheTier::load`] would (`corrupt_evicted` increments, the next
    /// read is a clean miss).
    ///
    /// This is the transfer format of the replica-warming protocol: the
    /// bytes round-trip unchanged into a peer's [`DiskTier::ingest`].
    #[must_use]
    pub(crate) fn read_validated(&self, key: u64) -> Option<Vec<u8>> {
        let bytes = match fs::read(self.path_for(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(_) => {
                self.quarantine(key);
                return None;
            }
        };
        if decode(key, &bytes).is_none() {
            self.quarantine(key);
            return None;
        }
        lock_recover(&self.index).touch(key);
        Some(bytes)
    }

    /// Validates and persists an entry serialized by a *peer* tier (the
    /// receiving half of the warming protocol). The bytes must be a
    /// complete, checksummed format-v1 entry for exactly this `key`;
    /// anything else is dropped without touching the directory. Returns
    /// whether the entry landed.
    pub(crate) fn ingest(&self, key: u64, bytes: &[u8]) -> bool {
        if decode(key, bytes).is_none() {
            return false;
        }
        self.write_atomic(key, bytes)
    }

    /// write → rename, no fsync: a kill at any instant leaves either no
    /// entry (tmp swept at next startup) or the complete entry. After a
    /// power loss the renamed file may hold any of the outcomes listed in
    /// the module doc; validation on read rejects the invalid ones.
    fn write_atomic(&self, key: u64, buf: &[u8]) -> bool {
        let seq = self.write_seq.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let tmp = self.dir.join(format!(".tmp-{key:016x}-{pid}-{seq}"));
        let final_path = self.path_for(key);
        let written = fs::write(&tmp, buf).and_then(|()| fs::rename(&tmp, &final_path));
        match written {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                lock_recover(&self.index).insert(key, buf.len() as u64);
                self.evict_to_budget();
                true
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Test/chaos hook: plants a *torn* entry at `key`'s final path — a
    /// valid prefix cut off mid-payload, as a non-atomic writer killed
    /// mid-write would leave. The tier must refuse to serve it: the next
    /// load quarantines the file and the job re-solves.
    #[doc(hidden)]
    pub fn plant_torn_entry_for_test(&self, key: u64, out: &JobOutput) {
        let buf = encode(key, out);
        let torn = &buf[..buf.len() / 2];
        fs::write(self.path_for(key), torn).expect("plant torn entry");
        lock_recover(&self.index).insert(key, torn.len() as u64);
    }

    /// Test/chaos hook: plants a `.tmp-` leftover, as a writer killed
    /// *before* its atomic rename would leave. Startup must sweep it.
    #[doc(hidden)]
    pub fn plant_tmp_leftover_for_test(dir: &Path, key: u64) {
        let _ = fs::create_dir_all(dir);
        fs::write(
            dir.join(format!(".tmp-{key:016x}-dead")),
            b"partial write, never renamed",
        )
        .expect("plant tmp leftover");
    }
}

impl CacheTier for DiskTier {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn load(&self, key: u64) -> Option<Arc<JobOutput>> {
        let path = self.path_for(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                // Unreadable (permissions, I/O error): treat as corrupt —
                // better to re-solve than to serve a maybe.
                self.quarantine(key);
                return None;
            }
        };
        match decode(key, &bytes) {
            Some(out) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                lock_recover(&self.index).touch(key);
                Some(Arc::new(out))
            }
            None => {
                self.quarantine(key);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&self, key: u64, out: &Arc<JobOutput>) {
        let buf = encode(key, out);
        self.write_atomic(key, &buf);
    }

    fn stats(&self) -> TierStats {
        let (entries, bytes) = {
            let index = lock_recover(&self.index);
            (index.entries.len() as u64, index.total_bytes)
        };
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt_evicted: self.corrupt_evicted.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

/// Parses `"{key:016x}.sic"` back to its key; any other spelling of a
/// key is not an entry.
fn entry_key(name: &str) -> Option<u64> {
    SiService::parse_job_id(name.strip_suffix(".sic")?)
}

/// Serializes one entry, checksum included.
fn encode(key: u64, out: &JobOutput) -> Vec<u8> {
    let metric_bytes: usize = out.metrics.iter().map(|(k, _)| 4 + k.len() + 8).sum();
    let mut buf =
        Vec::with_capacity(HEADER_BYTES + out.values.len() * 8 + metric_bytes + FOOTER_BYTES);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&(out.values.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(out.metrics.len() as u64).to_le_bytes());
    for v in &out.values {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for (name, value) in &out.metrics {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    let mut hasher = Fnv1a::new();
    hasher.mix_bytes(&buf);
    buf.extend_from_slice(&hasher.finish().to_le_bytes());
    buf
}

/// Validates and deserializes one entry; `None` means corrupt/foreign
/// (wrong magic, future version, key mismatch, truncation, checksum
/// failure) and the caller must quarantine.
fn decode(key: u64, bytes: &[u8]) -> Option<JobOutput> {
    if bytes.len() < HEADER_BYTES + FOOTER_BYTES {
        return None;
    }
    let (payload, footer) = bytes.split_at(bytes.len() - FOOTER_BYTES);
    let mut hasher = Fnv1a::new();
    hasher.mix_bytes(payload);
    if hasher.finish() != u64::from_le_bytes(footer.try_into().ok()?) {
        return None;
    }
    let mut r = Reader(payload);
    if r.take(8)? != MAGIC {
        return None;
    }
    if u32::from_le_bytes(r.take(4)?.try_into().ok()?) != FORMAT_VERSION {
        return None;
    }
    if u64::from_le_bytes(r.take(8)?.try_into().ok()?) != key {
        return None;
    }
    let n_values = u64::from_le_bytes(r.take(8)?.try_into().ok()?) as usize;
    let n_metrics = u64::from_le_bytes(r.take(8)?.try_into().ok()?) as usize;
    // Reject fields that promise more than the file holds before
    // allocating for them.
    if n_values.checked_mul(8)? > r.0.len() {
        return None;
    }
    let mut values = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        values.push(f64::from_bits(u64::from_le_bytes(
            r.take(8)?.try_into().ok()?,
        )));
    }
    let mut metrics = Vec::with_capacity(n_metrics.min(1024));
    for _ in 0..n_metrics {
        let name_len = u32::from_le_bytes(r.take(4)?.try_into().ok()?) as usize;
        let name = String::from_utf8(r.take(name_len)?.to_vec()).ok()?;
        let value = f64::from_bits(u64::from_le_bytes(r.take(8)?.try_into().ok()?));
        metrics.push((name, value));
    }
    if !r.0.is_empty() {
        return None; // trailing garbage under a (coincidentally) valid checksum
    }
    Some(JobOutput { values, metrics })
}

/// A bounds-checked byte cursor.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "si-disk-tier-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn output(n: usize, seed: f64) -> Arc<JobOutput> {
        Arc::new(JobOutput {
            values: (0..n).map(|k| seed + k as f64 * 0.125).collect(),
            metrics: vec![("scenarios".to_string(), n as f64)],
        })
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let dir = tmpdir("roundtrip");
        let tier = DiskTier::open(DiskTierConfig::at(&dir)).unwrap();
        let out = Arc::new(JobOutput {
            values: vec![1.5, -0.0, f64::MIN_POSITIVE, 1e300],
            metrics: vec![("newton_iterations".to_string(), 7.0)],
        });
        tier.store(42, &out);
        let back = tier.load(42).expect("stored entry loads");
        assert_eq!(back.values.len(), out.values.len());
        for (a, b) in back.values.iter().zip(out.values.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.metrics, out.metrics);
        let stats = tier.stats();
        assert_eq!((stats.writes, stats.hits, stats.entries), (1, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let tier = DiskTier::open(DiskTierConfig::at(&dir)).unwrap();
            tier.store(7, &output(3, 1.0));
        }
        let tier = DiskTier::open(DiskTierConfig::at(&dir)).unwrap();
        assert_eq!(tier.load(7).unwrap().values, output(3, 1.0).values);
        assert_eq!(tier.stats().entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// ISSUE 8 satellite: the byte budget is enforced LRU-by-access and
    /// the eviction counters are exact.
    #[test]
    fn byte_budget_evicts_lru_with_exact_counters() {
        let dir = tmpdir("budget");
        let one_entry = encode(0, &output(16, 0.0)).len() as u64;
        // Room for exactly two entries.
        let tier = DiskTier::open(DiskTierConfig {
            dir: dir.clone(),
            budget_bytes: one_entry * 2,
        })
        .unwrap();
        tier.store(1, &output(16, 1.0));
        tier.store(2, &output(16, 2.0));
        assert_eq!(tier.stats().evictions, 0);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(tier.load(1).is_some());
        tier.store(3, &output(16, 3.0));
        let stats = tier.stats();
        assert_eq!(stats.evictions, 1, "exactly one eviction: {stats:?}");
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= one_entry * 2);
        assert!(tier.load(2).is_none(), "LRU entry 2 must be evicted");
        assert!(tier.load(1).is_some(), "recently-touched entry 1 survives");
        assert!(tier.load(3).is_some(), "newest entry 3 survives");
        let _ = fs::remove_dir_all(&dir);
    }

    /// ISSUE 10 satellite: every read path refreshes LRU recency — a
    /// `load` hit and a `read_validated` hit (the warming/transfer path)
    /// both move the entry to the back of the eviction order, so an
    /// entry kept hot by *either* path survives a budget squeeze.
    #[test]
    fn read_paths_refresh_lru_recency() {
        let dir = tmpdir("recency");
        let one_entry = encode(0, &output(16, 0.0)).len() as u64;
        let tier = DiskTier::open(DiskTierConfig {
            dir: dir.clone(),
            budget_bytes: one_entry * 3,
        })
        .unwrap();
        tier.store(1, &output(16, 1.0));
        tier.store(2, &output(16, 2.0));
        tier.store(3, &output(16, 3.0));
        // Access order is 1, 2, 3. Touch 1 via `load` and 2 via
        // `read_validated`; the untouched 3 becomes the LRU victim.
        assert!(tier.load(1).is_some());
        assert!(tier.read_validated(2).is_some());
        tier.store(4, &output(16, 4.0));
        let stats = tier.stats();
        assert_eq!(stats.evictions, 1, "exactly one eviction: {stats:?}");
        assert!(
            tier.load(3).is_none(),
            "untouched entry 3 must be the victim"
        );
        assert!(tier.load(1).is_some(), "`load` must refresh recency");
        assert!(
            tier.load(2).is_some(),
            "`read_validated` must refresh recency"
        );
        assert!(tier.load(4).is_some(), "newest entry survives");
        let _ = fs::remove_dir_all(&dir);
    }

    /// ISSUE 8 satellite: a pre-seeded corrupt file is quarantined —
    /// `corrupt_evicted` increments, the file is gone, and the key reads
    /// as a miss (so the job transparently re-solves).
    #[test]
    fn corrupt_files_are_quarantined_never_served() {
        let dir = tmpdir("corrupt");
        let tier = DiskTier::open(DiskTierConfig::at(&dir)).unwrap();
        let out = output(8, 4.0);
        tier.store(9, &out);

        // Flip one payload bit.
        let path = tier.path_for(9);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        assert!(tier.load(9).is_none(), "corrupt entry must not be served");
        assert_eq!(tier.stats().corrupt_evicted, 1);
        assert!(!path.exists(), "corrupt file must be deleted");
        // The key is reusable: a fresh store serves again.
        tier.store(9, &out);
        assert!(tier.load(9).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Foreign files (wrong magic), future versions, wrong-key files, and
    /// truncations are all quarantined, not served.
    #[test]
    fn foreign_and_torn_files_are_rejected() {
        let dir = tmpdir("foreign");
        let tier = DiskTier::open(DiskTierConfig::at(&dir)).unwrap();
        let out = output(4, 2.0);

        // Wrong magic.
        fs::write(tier.path_for(1), b"NOTCACHEgarbage").unwrap();
        assert!(tier.load(1).is_none());
        // Future version: valid checksum, version 2.
        let mut buf = encode(2, &out);
        buf[8..12].copy_from_slice(&2u32.to_le_bytes());
        let body_len = buf.len() - FOOTER_BYTES;
        let mut hasher = Fnv1a::new();
        hasher.mix_bytes(&buf[..body_len]);
        let sum = hasher.finish().to_le_bytes();
        buf[body_len..].copy_from_slice(&sum);
        fs::write(tier.path_for(2), &buf).unwrap();
        assert!(tier.load(2).is_none());
        // Key mismatch: entry for key 3 stored at key 4's path.
        fs::write(tier.path_for(4), encode(3, &out)).unwrap();
        assert!(tier.load(4).is_none());
        // Torn entry via the chaos hook.
        tier.plant_torn_entry_for_test(5, &out);
        assert!(tier.load(5).is_none());
        assert_eq!(tier.stats().corrupt_evicted, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    /// What a power loss can leave at a renamed entry's final path when
    /// its data never fully reached the disk: nothing (zero-length), a
    /// prefix (truncated mid-payload), or the right size but no contents
    /// (zero-filled). `valid` is the entry that was written.
    fn invalid_power_loss_outcomes(valid: &[u8]) -> [(&'static str, Vec<u8>); 3] {
        [
            ("zero-length", Vec::new()),
            ("truncated mid-payload", valid[..valid.len() / 2].to_vec()),
            ("zero-filled", vec![0; valid.len()]),
        ]
    }

    /// Every invalid power-loss outcome is refused by both read paths —
    /// `load` (the service) and `read_validated` (a peer) — quarantined
    /// and counted in `corrupt_evicted`.
    #[test]
    fn invalid_power_loss_outcomes_are_quarantined_on_every_read_path() {
        let dir = tmpdir("power-loss-tier");
        let tier = DiskTier::open(DiskTierConfig::at(&dir)).unwrap();
        let out = output(8, 5.0);
        tier.store(31, &out);
        let path = tier.path_for(31);
        let valid = fs::read(&path).unwrap();
        for (outcome, bytes) in invalid_power_loss_outcomes(&valid) {
            fs::write(&path, &bytes).unwrap();
            assert!(tier.load(31).is_none(), "{outcome} served by load");
            assert!(!path.exists(), "{outcome}: not deleted by load");
            fs::write(&path, &bytes).unwrap();
            assert!(
                tier.read_validated(31).is_none(),
                "{outcome} served to a peer"
            );
            assert!(!path.exists(), "{outcome}: not deleted by read_validated");
        }
        assert_eq!(tier.stats().corrupt_evicted, 6);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The durability model end to end: after each power-loss outcome at
    /// a stored result's final path, a restarted service either re-solves
    /// (invalid file: quarantined, counted, never served) or serves the
    /// stale entry (the content key's earlier valid write) — and its
    /// answer is bit-identical to the first solve either way.
    #[test]
    fn power_loss_outcomes_cost_a_re_solve_never_a_wrong_answer() {
        use crate::jobspec::JobSpec;
        use crate::service::ServiceConfig;

        let dir = tmpdir("power-loss-service");
        let service = || {
            SiService::new(ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                cache_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            })
        };
        let spec = JobSpec::DelayLineDc {
            stages: 3,
            bias_ua: 20.0,
            input_ua: 1.5,
        };
        let (first, cached) = service().submit_blocking(&spec, None).unwrap();
        assert!(!cached);
        let path = dir.join(format!("{:016x}.sic", spec.job_key()));
        // Each re-solve below rewrites the file, so these bytes are the
        // earlier write that a lost rename would leave behind.
        let earlier_write = fs::read(&path).unwrap();
        let outcomes = invalid_power_loss_outcomes(&earlier_write)
            .map(|(outcome, bytes)| (outcome, bytes, false))
            .into_iter()
            .chain([("stale earlier write", earlier_write.clone(), true)]);
        for (outcome, bytes, valid) in outcomes {
            fs::write(&path, &bytes).unwrap();
            // A restart: the memory tier is empty, so the file decides.
            let svc = service();
            let (again, cached) = svc.submit_blocking(&spec, None).unwrap();
            assert_eq!(cached, valid, "{outcome}: served from disk?");
            assert_eq!(again.metrics, first.metrics, "{outcome}");
            let bits = |o: &JobOutput| o.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&again), bits(&first), "{outcome}: not bit-identical");
            let m = svc.metrics();
            let corrupt = m.get("cache").unwrap().get("corrupt_evicted").unwrap();
            assert_eq!(
                corrupt.as_f64(),
                Some(if valid { 0.0 } else { 1.0 }),
                "{outcome}"
            );
            svc.shutdown();
            assert_eq!(
                fs::read(&path).unwrap(),
                earlier_write,
                "{outcome}: entry not healed"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A writer killed before its rename leaves only a `.tmp-` file; the
    /// next startup sweeps it and the final path stays absent.
    #[test]
    fn tmp_leftovers_are_swept_at_startup() {
        let dir = tmpdir("sweep");
        DiskTier::plant_tmp_leftover_for_test(&dir, 77);
        let tier = DiskTier::open(DiskTierConfig::at(&dir)).unwrap();
        assert_eq!(tier.tmp_swept(), 1);
        assert!(tier.load(77).is_none());
        assert!(
            !dir.join(".tmp-000000000000004d-dead").exists(),
            "tmp leftover must be deleted"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A file named by another spelling of a key (a `+` sign, uppercase
    /// digits) is not an entry: indexing it would count bytes under a key
    /// whose `path_for` is a different file.
    #[test]
    fn aliased_entry_names_are_not_indexed() {
        let dir = tmpdir("alias");
        let key = 0x0c62_dc37_4ccc_c65a;
        fs::create_dir_all(&dir).unwrap();
        for alias in ["+c62dc374cccc65a.sic", "0C62DC374CCCC65A.sic"] {
            fs::write(dir.join(alias), encode(key, &output(3, 1.0))).unwrap();
        }
        let tier = DiskTier::open(DiskTierConfig::at(&dir)).unwrap();
        assert_eq!(tier.stats().entries, 0);
        assert!(tier.load(key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// ISSUE 9 satellite: eviction strictly follows the access clock —
    /// with four resident entries and a budget squeeze to one, victims
    /// fall in exact least-recently-*accessed* order, not insertion
    /// order.
    #[test]
    fn byte_budget_eviction_follows_access_order_exactly() {
        let dir = tmpdir("evict-order");
        let one_entry = encode(0, &output(16, 0.0)).len() as u64;
        let tier = DiskTier::open(DiskTierConfig {
            dir: dir.clone(),
            budget_bytes: one_entry * 4,
        })
        .unwrap();
        for k in 1..=4 {
            tier.store(k, &output(16, k as f64));
        }
        // Access order now: 1 < 2 < 3 < 4. Touch 2 then 1, making the
        // LRU order 3 < 4 < 2 < 1.
        assert!(tier.load(2).is_some());
        assert!(tier.load(1).is_some());
        // Each new store displaces exactly the current LRU victim.
        tier.store(5, &output(16, 5.0)); // evicts 3
        assert!(!tier.path_for(3).exists(), "3 is the LRU, evicted first");
        assert!(tier.path_for(4).exists());
        tier.store(6, &output(16, 6.0)); // evicts 4
        assert!(!tier.path_for(4).exists(), "4 evicted second");
        assert!(tier.path_for(2).exists());
        tier.store(7, &output(16, 7.0)); // evicts 2
        assert!(!tier.path_for(2).exists(), "2 evicted third");
        assert!(tier.path_for(1).exists(), "most-recently-touched survives");
        assert_eq!(tier.stats().evictions, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    /// ISSUE 9 satellite: `read_validated` (the `GET /v1/cache/:key`
    /// source) serves only checksummed-valid bytes. A corrupt entry is
    /// quarantined — `corrupt_evicted` increments, the file is deleted —
    /// and never leaves the process.
    #[test]
    fn read_validated_never_serves_corrupt_bytes() {
        let dir = tmpdir("read-validated");
        let tier = DiskTier::open(DiskTierConfig::at(&dir)).unwrap();
        let out = output(8, 3.0);
        tier.store(11, &out);

        // The happy path returns the exact on-disk serialization.
        let bytes = tier.read_validated(11).expect("valid entry is served");
        assert_eq!(bytes, encode(11, &out));
        // Absent keys are a plain miss, not a quarantine.
        assert!(tier.read_validated(12).is_none());
        assert_eq!(tier.stats().corrupt_evicted, 0);

        // Flip a payload bit: the read must refuse and quarantine.
        let path = tier.path_for(11);
        let mut raw = fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x10;
        fs::write(&path, &raw).unwrap();
        assert!(tier.read_validated(11).is_none());
        assert_eq!(tier.stats().corrupt_evicted, 1);
        assert!(!path.exists(), "corrupt file must be quarantined");
        // A torn prefix is likewise refused.
        tier.plant_torn_entry_for_test(13, &out);
        assert!(tier.read_validated(13).is_none());
        assert_eq!(tier.stats().corrupt_evicted, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// ISSUE 9: `ingest` round-trips `read_validated` bytes between two
    /// tiers bit-exactly, and drops anything that fails validation
    /// (corrupt payloads, key mismatches) without touching the directory.
    #[test]
    fn ingest_validates_peer_bytes_before_persisting() {
        let src_dir = tmpdir("ingest-src");
        let dst_dir = tmpdir("ingest-dst");
        let src = DiskTier::open(DiskTierConfig::at(&src_dir)).unwrap();
        let dst = DiskTier::open(DiskTierConfig::at(&dst_dir)).unwrap();
        let out = output(8, 6.0);
        src.store(21, &out);

        // Peer transfer: read from src, ingest into dst, serve bit-exact.
        let bytes = src.read_validated(21).unwrap();
        assert!(dst.ingest(21, &bytes));
        let back = dst.load(21).expect("ingested entry is servable");
        for (a, b) in back.values.iter().zip(out.values.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(dst.stats().writes, 1);

        // A corrupt transfer is refused before any write.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(!dst.ingest(22, &bad));
        // Valid bytes under the wrong key are refused too: the key in the
        // header must match the slot being filled.
        assert!(!dst.ingest(23, &bytes));
        assert!(!dst.path_for(22).exists());
        assert!(!dst.path_for(23).exists());
        assert_eq!(dst.stats().writes, 1, "no write for refused ingests");
        let _ = fs::remove_dir_all(&src_dir);
        let _ = fs::remove_dir_all(&dst_dir);
    }

    /// Reopening with a smaller budget evicts down to it immediately,
    /// oldest mtimes first.
    #[test]
    fn reopen_with_smaller_budget_evicts_immediately() {
        let dir = tmpdir("shrink");
        let one_entry = encode(0, &output(16, 0.0)).len() as u64;
        {
            let tier = DiskTier::open(DiskTierConfig::at(&dir)).unwrap();
            for k in 0..4 {
                tier.store(k, &output(16, k as f64));
            }
        }
        let tier = DiskTier::open(DiskTierConfig {
            dir: dir.clone(),
            budget_bytes: one_entry * 2,
        })
        .unwrap();
        let stats = tier.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
