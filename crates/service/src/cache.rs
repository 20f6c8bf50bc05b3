//! The content-addressed result cache with single-flight deduplication,
//! in memory and optionally on disk.
//!
//! Keys are [`JobSpec::job_key`](crate::jobspec::JobSpec::job_key) values;
//! entries are `Arc`-shared [`JobOutput`]s. Storage is a sharded in-memory
//! map, optionally backed by the persistent [`DiskTier`]:
//!
//! - **Lookup order**: memory first, then disk.
//! - **Promotion**: a disk hit is written into memory, so the next lookup
//!   is a memory hit.
//! - **Write-through**: a freshly computed result is stored in memory and
//!   on disk, so it survives a process restart.
//! - **Never cache errors**: only successful outputs are stored; a
//!   transient non-convergence must not poison the key, in memory or on
//!   disk.
//!
//! When several clients ask for the same key concurrently, exactly one
//! (the *leader*) computes; the rest (*followers*) wait on the flight and
//! receive the leader's result — the "single-flight" discipline that
//! keeps a thundering herd of identical jobs from multiplying solver
//! work. Leader and followers wait the same way: each holds a `Waiter`
//! on the flight and blocks on its condvar until the result is published
//! or the caller's own deadline passes. The in-flight table is sharded
//! separately from storage, so a disk probe never holds a flight lock. A
//! disk hit is single-flight too: concurrent callers coalesce onto the one
//! caller doing the disk read.
//!
//! Batch jobs ([`JobSpec::DelayLineDcBatch`](crate::jobspec::JobSpec))
//! cache at the same granularity as everything else: one key, one entry,
//! holding *all* scenarios' values. A batch is published only by the one
//! `complete` call that carries its full output; a leader that dies
//! mid-batch (worker panic between scenarios) goes through the same
//! abandoned-flight path as any other crash, so a partial batch can never
//! become a ready entry — in memory or on disk.
//!
//! # Crash safety
//!
//! Two independent mechanisms make a panicking leader survivable:
//!
//! 1. `LeadGuard` owns a handle back to the cache. If the leader
//!    unwinds without calling `ResultCache::complete`, the guard's
//!    `Drop` completes the flight with [`ServiceError::Internal`], so
//!    followers are *released with a typed error* — never stranded, and
//!    never handed a poisoned mutex.
//! 2. Every lock acquisition recovers from poisoning via
//!    [`std::sync::PoisonError::into_inner`]. The shard maps and flight
//!    slots hold only `Arc`s and plain enums whose invariants are
//!    re-established by the completing write, so a poisoned lock carries
//!    no torn state worth propagating; recoveries are counted in
//!    `CacheStats::poison_recoveries` so chaos runs can assert they
//!    stay observable.
//!
//! Process-kill crash safety — a `SIGKILL` mid-disk-write — is the disk
//! tier's own atomic-rename discipline; see [`crate::disk`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::disk::DiskTier;
use crate::error::ServiceError;
use crate::jobspec::JobOutput;

const SHARDS: usize = 16;

type JobResult = Result<Arc<JobOutput>, ServiceError>;

/// A persistent key→output store under the memory map; [`DiskTier`] is
/// the one implementation.
///
/// A tier is a plain store: no single-flight, no error caching, no TTLs
/// — those live in `ResultCache`. Implementations must be cheap to
/// probe on a miss and must never serve a value they cannot vouch for
/// (the disk tier quarantines anything failing its checksum instead of
/// returning it).
pub trait CacheTier: Send + Sync + std::fmt::Debug {
    /// Stable tag used in metrics and logs (`"disk"`).
    fn name(&self) -> &'static str;
    /// Looks up `key`, returning a shared output on a hit. May mutate
    /// internal bookkeeping (LRU clocks, hit counters) but must not
    /// block on anything slower than its own medium.
    fn load(&self, key: u64) -> Option<Arc<JobOutput>>;
    /// Stores `out` under `key`, overwriting any previous entry. Errors
    /// are absorbed (a tier that cannot store simply misses later).
    fn store(&self, key: u64, out: &Arc<JobOutput>);
    /// Monotonic counters plus occupancy gauges for this tier.
    fn stats(&self) -> TierStats;
}

/// Counters and gauges one [`CacheTier`] reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// Loads that found a valid entry.
    pub hits: u64,
    /// Loads that found nothing (or quarantined what they found).
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries evicted to fit the tier's budget.
    pub evictions: u64,
    /// Entries quarantined because validation failed (corrupt, foreign,
    /// torn, or version-mismatched files).
    pub corrupt_evicted: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently resident (0 where not tracked).
    pub bytes: u64,
}

/// One in-progress computation that its leader and followers wait on.
#[derive(Debug, Default)]
struct Flight {
    slot: Mutex<Option<JobResult>>,
    done: Condvar,
}

/// What [`ResultCache::get_or_lead`] tells the caller to do.
#[derive(Debug)]
pub(crate) enum CacheOutcome {
    /// The result was already cached (in memory, or promoted from disk).
    Hit(Arc<JobOutput>),
    /// Another thread is computing this key: wait on its flight.
    Follow(Waiter),
    /// The caller is the leader: it must compute and then call
    /// [`ResultCache::complete`] with the outcome.
    Lead(LeadGuard),
}

/// Proof of leadership for one key. The leader normally consumes the
/// guard via [`ResultCache::complete`]; if it unwinds instead (panic,
/// early return), `Drop` completes the flight with
/// [`ServiceError::Internal`] so waiters wake with a typed error
/// instead of waiting forever.
#[derive(Debug)]
pub(crate) struct LeadGuard {
    key: u64,
    flight: Arc<Flight>,
    cache: Arc<CacheInner>,
    completed: bool,
}

/// A wait on one key's flight, held by its followers and, through
/// [`LeadGuard::waiter`], by its leader.
#[derive(Debug)]
pub(crate) struct Waiter {
    flight: Arc<Flight>,
    cache: Arc<CacheInner>,
}

/// Monotonic counters describing cache behavior since startup.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheStats {
    /// Lookups answered from the in-memory tier.
    pub hits: u64,
    /// Lookups that became leaders (the job actually ran).
    pub misses: u64,
    /// Lookups that waited on another thread's in-flight computation.
    pub coalesced: u64,
    /// Ready entries currently resident in memory.
    pub entries: u64,
    /// Flights completed by [`LeadGuard`]'s drop backstop because the
    /// leader unwound without publishing (worker panic).
    pub abandoned_flights: u64,
    /// Poisoned locks recovered via `into_inner` (a thread panicked while
    /// holding a cache lock; the data survived).
    pub poison_recoveries: u64,
    /// Lookups answered from the disk tier (and promoted to memory).
    pub disk_hits: u64,
    /// Disk-tier probes that found nothing servable.
    pub disk_misses: u64,
    /// Entries persisted to disk.
    pub disk_writes: u64,
    /// Disk entries evicted to fit the byte budget.
    pub disk_evictions: u64,
    /// Disk files quarantined as corrupt/foreign/torn — deleted, counted,
    /// and the job re-solved; never served.
    pub corrupt_evicted: u64,
    /// Disk entries currently resident.
    pub disk_entries: u64,
    /// Bytes currently resident on disk.
    pub disk_bytes: u64,
}

#[derive(Debug)]
struct CacheInner {
    /// Ready results in memory, sharded by key.
    memory: Vec<Mutex<HashMap<u64, Arc<JobOutput>>>>,
    /// The persistent tier under memory, when configured.
    disk: Option<Arc<DiskTier>>,
    /// In-flight computations, sharded like memory but independent of
    /// it: a disk probe never holds a flight lock.
    flights: Vec<Mutex<HashMap<u64, Arc<Flight>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    abandoned_flights: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl CacheInner {
    /// Locks `m`, recovering (and counting) mutex poisoning: the caller
    /// gets a usable guard either way.
    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|poisoned| self.recover(poisoned))
    }

    /// Counts a recovered poisoning and returns what it guarded.
    fn recover<T>(&self, poisoned: PoisonError<T>) -> T {
        self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    }

    fn memory_shard(&self, key: u64) -> &Mutex<HashMap<u64, Arc<JobOutput>>> {
        &self.memory[(key as usize) % SHARDS]
    }

    fn flight_shard(&self, key: u64) -> &Mutex<HashMap<u64, Arc<Flight>>> {
        &self.flights[(key as usize) % SHARDS]
    }

    fn memory_load(&self, key: u64) -> Option<Arc<JobOutput>> {
        self.lock(self.memory_shard(key)).get(&key).cloned()
    }

    fn memory_store(&self, key: u64, out: &Arc<JobOutput>) {
        self.lock(self.memory_shard(key))
            .insert(key, Arc::clone(out));
    }

    fn disk_load(&self, key: u64) -> Option<Arc<JobOutput>> {
        self.disk.as_ref()?.load(key)
    }

    /// Publishes a flight's result: successes are stored in memory (and,
    /// when `write_through`, on disk); all followers wake with a clone.
    /// Errors are stored nowhere — the key is simply freed for the next
    /// leader.
    fn publish(&self, key: u64, result: JobResult, write_through: bool) {
        if let Ok(out) = &result {
            self.memory_store(key, out);
            if let Some(disk) = self.disk.as_ref().filter(|_| write_through) {
                disk.store(key, out);
            }
        }
        let flight = self.lock(self.flight_shard(key)).remove(&key);
        if let Some(flight) = flight {
            let mut slot = self.lock(&flight.slot);
            *slot = Some(result);
            flight.done.notify_all();
        }
    }
}

/// A sharded, single-flight, content-addressed cache of job results.
#[derive(Debug)]
pub(crate) struct ResultCache {
    inner: Arc<CacheInner>,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new()
    }
}

impl ResultCache {
    /// An in-memory-only cache (no persistence).
    #[must_use]
    pub fn new() -> Self {
        ResultCache::build(None)
    }

    /// A cache with the persistent disk tier under the memory tier.
    #[must_use]
    pub(crate) fn with_disk(disk: Arc<DiskTier>) -> Self {
        ResultCache::build(Some(disk))
    }

    fn build(disk: Option<Arc<DiskTier>>) -> Self {
        fn shards<T>() -> Vec<Mutex<HashMap<u64, T>>> {
            (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect()
        }
        ResultCache {
            inner: Arc::new(CacheInner {
                memory: shards(),
                disk,
                flights: shards(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                abandoned_flights: AtomicU64::new(0),
                poison_recoveries: AtomicU64::new(0),
            }),
        }
    }

    /// The persistent tier, when one is configured.
    #[must_use]
    pub(crate) fn disk_tier(&self) -> Option<&Arc<DiskTier>> {
        self.inner.disk.as_ref()
    }

    /// Looks up `key`; on a miss in memory and on disk the caller becomes
    /// the leader and must call [`ResultCache::complete`]. Blocks
    /// (briefly) if another thread is already computing the key. A disk
    /// hit is promoted to memory before returning.
    pub(crate) fn get_or_lead(&self, key: u64) -> CacheOutcome {
        let inner = &self.inner;
        if let Some(out) = inner.memory_load(key) {
            inner.hits.fetch_add(1, Ordering::Relaxed);
            return CacheOutcome::Hit(out);
        }
        let (flight, follows) = match inner.lock(inner.flight_shard(key)).entry(key) {
            Entry::Occupied(entry) => (Arc::clone(entry.get()), true),
            Entry::Vacant(entry) => (Arc::clone(entry.insert(Arc::default())), false),
        };
        if follows {
            inner.coalesced.fetch_add(1, Ordering::Relaxed);
            return CacheOutcome::Follow(Waiter {
                flight,
                cache: Arc::clone(inner),
            });
        }
        // Leader candidate. A racing leader may have completed between
        // the memory probe and the flight insertion: re-check memory
        // before paying for a disk read or a solve.
        if let Some(out) = inner.memory_load(key) {
            inner.hits.fetch_add(1, Ordering::Relaxed);
            inner.publish(key, Ok(Arc::clone(&out)), false);
            return CacheOutcome::Hit(out);
        }
        // Probe disk; a hit is promoted (published to memory, not written
        // back to disk) and releases any followers that coalesced while
        // the disk read ran.
        if let Some(out) = inner.disk_load(key) {
            inner.publish(key, Ok(Arc::clone(&out)), false);
            return CacheOutcome::Hit(out);
        }
        inner.misses.fetch_add(1, Ordering::Relaxed);
        CacheOutcome::Lead(LeadGuard {
            key,
            flight,
            cache: Arc::clone(inner),
            completed: false,
        })
    }

    /// Publishes the leader's result: successes are written to memory and
    /// disk, failures free the key. Either way, all followers wake with a
    /// clone of `result`.
    pub(crate) fn complete(&self, mut guard: LeadGuard, result: JobResult) {
        guard.completed = true;
        self.inner.publish(guard.key, result, true);
    }

    /// A memory-tier-only probe that counts a cache hit when it lands
    /// and nothing when it does not. The HTTP front end uses it to
    /// decide whether a request can be answered inline on the event
    /// loop; a miss falls back to a full submission, which does its own
    /// counting (so a probe-then-submit sequence counts exactly once).
    pub(crate) fn memory_hit(&self, key: u64) -> Option<Arc<JobOutput>> {
        let out = self.inner.memory_load(key)?;
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
        Some(out)
    }

    /// A non-leading lookup: returns the cached result if ready in memory
    /// or on disk, without counting a cache-level hit or joining an in-flight
    /// computation. A disk hit is still promoted to memory. Used by
    /// `GET /v1/jobs/:id`, which must not block or become a leader.
    pub(crate) fn peek(&self, key: u64) -> Option<Arc<JobOutput>> {
        let inner = &self.inner;
        if let Some(out) = inner.memory_load(key) {
            return Some(out);
        }
        let out = inner.disk_load(key)?;
        inner.memory_store(key, &out);
        Some(out)
    }

    /// Whether a leader is currently computing `key`. A pure probe: it
    /// never joins the flight, blocks on its result, or counts anything.
    /// `GET /v1/jobs/:id` uses it to distinguish "still running" (202)
    /// from "submitted but nothing in flight and nothing cached" (404).
    #[must_use]
    pub fn in_flight(&self, key: u64) -> bool {
        let inner = &self.inner;
        inner.lock(inner.flight_shard(key)).contains_key(&key)
    }

    /// Current counter snapshot, memory and disk.
    pub fn stats(&self) -> CacheStats {
        let inner = &self.inner;
        let entries = inner
            .memory
            .iter()
            .map(|s| inner.lock(s).len() as u64)
            .sum();
        let disk = inner.disk.as_ref().map(|d| d.stats()).unwrap_or_default();
        CacheStats {
            hits: inner.hits.load(Ordering::Relaxed),
            misses: inner.misses.load(Ordering::Relaxed),
            coalesced: inner.coalesced.load(Ordering::Relaxed),
            entries,
            abandoned_flights: inner.abandoned_flights.load(Ordering::Relaxed),
            poison_recoveries: inner.poison_recoveries.load(Ordering::Relaxed),
            disk_hits: disk.hits,
            disk_misses: disk.misses,
            disk_writes: disk.writes,
            disk_evictions: disk.evictions,
            corrupt_evicted: disk.corrupt_evicted,
            disk_entries: disk.entries,
            disk_bytes: disk.bytes,
        }
    }
}

impl LeadGuard {
    /// A wait on this guard's own flight: the leader waits for the result
    /// it hands to a worker the same way its followers do.
    #[must_use]
    pub(crate) fn waiter(&self) -> Waiter {
        Waiter {
            flight: Arc::clone(&self.flight),
            cache: Arc::clone(&self.cache),
        }
    }
}

impl Waiter {
    /// Blocks until the flight's result is published, or until
    /// `deadline_at` passes ([`ServiceError::DeadlineExceeded`]); `None`
    /// waits for the result. The leader always publishes — by `complete`,
    /// by disk promotion, or by its guard's drop backstop — so a wait
    /// without a deadline cannot strand; poisoned waits recover the
    /// guard.
    ///
    /// # Errors
    ///
    /// The leader's error, or [`ServiceError::DeadlineExceeded`].
    pub fn wait(&self, deadline_at: Option<Instant>) -> JobResult {
        let (cache, done) = (&self.cache, &self.flight.done);
        let mut slot = cache.lock(&self.flight.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = match deadline_at {
                None => done.wait(slot).unwrap_or_else(|p| cache.recover(p)),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(ServiceError::DeadlineExceeded);
                    }
                    let waited = done.wait_timeout(slot, left);
                    waited.unwrap_or_else(|p| cache.recover(p)).0
                }
            };
        }
    }
}

impl Drop for LeadGuard {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // The leader unwound (panic or early return) without publishing.
        // Complete with a typed error so followers are released and the
        // key is evicted — the crash-safe half of single-flight.
        self.completed = true;
        self.cache.abandoned_flights.fetch_add(1, Ordering::Relaxed);
        self.cache.publish(
            self.key,
            Err(ServiceError::Internal(
                "leader abandoned the flight (worker panic or unwind)".to_string(),
            )),
            false,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskTier, DiskTierConfig};
    use std::thread;

    fn output(v: f64) -> Arc<JobOutput> {
        Arc::new(JobOutput {
            values: vec![v],
            metrics: vec![],
        })
    }

    #[test]
    fn miss_then_hit() {
        let cache = ResultCache::new();
        let guard = match cache.get_or_lead(7) {
            CacheOutcome::Lead(g) => g,
            other => panic!("expected Lead, got {other:?}"),
        };
        cache.complete(guard, Ok(output(1.0)));
        match cache.get_or_lead(7) {
            CacheOutcome::Hit(out) => assert_eq!(out.values, vec![1.0]),
            other => panic!("expected Hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // No disk tier: the disk counters stay zero.
        assert_eq!(
            (stats.disk_hits, stats.disk_misses, stats.disk_writes),
            (0, 0, 0)
        );
    }

    #[test]
    fn followers_coalesce_onto_one_leader() {
        let cache = Arc::new(ResultCache::new());
        let guard = match cache.get_or_lead(42) {
            CacheOutcome::Lead(g) => g,
            other => panic!("expected Lead, got {other:?}"),
        };
        let mut joins = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            joins.push(thread::spawn(move || match cache.get_or_lead(42) {
                CacheOutcome::Follow(waiter) => waiter.wait(None).unwrap().values[0],
                other => panic!("expected Follow, got {other:?}"),
            }));
        }
        // A wait whose deadline has passed ends without the result; the
        // flight goes on.
        let leader = guard.waiter();
        assert_eq!(
            leader.wait(Some(Instant::now())),
            Err(ServiceError::DeadlineExceeded)
        );
        // Give followers time to park, then publish.
        thread::sleep(std::time::Duration::from_millis(20));
        cache.complete(guard, Ok(output(9.0)));
        for j in joins {
            assert_eq!(j.join().unwrap(), 9.0);
        }
        assert_eq!(leader.wait(None).unwrap().values, vec![9.0]);
        assert_eq!(cache.stats().coalesced, 4);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn errors_propagate_but_are_not_cached() {
        let cache = ResultCache::new();
        let guard = match cache.get_or_lead(3) {
            CacheOutcome::Lead(g) => g,
            other => panic!("expected Lead, got {other:?}"),
        };
        cache.complete(guard, Err(ServiceError::Analysis("diverged".into())));
        // The key is free again: the next lookup leads, not hits.
        match cache.get_or_lead(3) {
            CacheOutcome::Lead(g) => cache.complete(g, Ok(output(2.0))),
            other => panic!("expected Lead after error, got {other:?}"),
        }
        assert_eq!(cache.stats().entries, 1);
    }

    /// Regression (ISSUE 5): a leader that panics mid-job must release
    /// its followers with a typed error and leave the key usable, not
    /// strand them or poison the shard for every later request.
    #[test]
    fn panicking_leader_releases_followers_and_frees_the_key() {
        let cache = Arc::new(ResultCache::new());
        let guard = match cache.get_or_lead(11) {
            CacheOutcome::Lead(g) => g,
            other => panic!("expected Lead, got {other:?}"),
        };
        let mut followers = Vec::new();
        for _ in 0..3 {
            let cache = Arc::clone(&cache);
            followers.push(thread::spawn(move || match cache.get_or_lead(11) {
                CacheOutcome::Follow(waiter) => waiter.wait(None),
                other => panic!("expected Follow, got {other:?}"),
            }));
        }
        thread::sleep(std::time::Duration::from_millis(20));
        // The "worker": panics while owning the guard.
        let leader = thread::spawn(move || {
            let _guard = guard;
            panic!("injected worker panic");
        });
        assert!(leader.join().is_err());
        for f in followers {
            let result = f.join().expect("follower must not be stranded");
            assert!(
                matches!(result, Err(ServiceError::Internal(_))),
                "followers get the typed abandonment error, got {result:?}"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.abandoned_flights, 1);
        // The key is free: the next caller leads and can cache normally.
        match cache.get_or_lead(11) {
            CacheOutcome::Lead(g) => cache.complete(g, Ok(output(5.0))),
            other => panic!("expected Lead after abandonment, got {other:?}"),
        }
        match cache.get_or_lead(11) {
            CacheOutcome::Hit(out) => assert_eq!(out.values, vec![5.0]),
            other => panic!("expected Hit, got {other:?}"),
        }
    }

    /// Regression (ISSUE 6): a leader that dies *mid-batch* — after some
    /// scenarios solved but before `complete` — must cache nothing. The
    /// only publishable value is the full output passed to `complete`;
    /// the abandonment backstop evicts the key, so the next caller leads
    /// again and recomputes the whole batch.
    #[test]
    fn abandoned_batch_flight_caches_no_partial_scenarios() {
        let cache = Arc::new(ResultCache::new());
        let guard = match cache.get_or_lead(6) {
            CacheOutcome::Lead(g) => g,
            other => panic!("expected Lead, got {other:?}"),
        };
        // The "worker" solves scenario 0 of 3, then panics before the
        // batch completes. Its partial values die with the stack frame.
        let leader = thread::spawn(move || {
            let _guard = guard;
            let _partial = [1.0_f64]; // scenario 0 of 3
            panic!("injected fault: worker panic mid-batch");
        });
        assert!(leader.join().is_err());
        assert!(cache.peek(6).is_none(), "partial batch must not be cached");
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().abandoned_flights, 1);
        // The next caller leads and publishes the complete batch.
        match cache.get_or_lead(6) {
            CacheOutcome::Lead(g) => cache.complete(
                g,
                Ok(Arc::new(JobOutput {
                    values: vec![1.0, 2.0, 3.0],
                    metrics: vec![("scenarios".to_string(), 3.0)],
                })),
            ),
            other => panic!("expected Lead after abandonment, got {other:?}"),
        }
        assert_eq!(cache.peek(6).unwrap().values.len(), 3);
    }

    /// Regression (ISSUE 5): a poisoned shard mutex — a thread panicked
    /// while holding it — must not turn every later lookup on that shard
    /// into a panic. The old code `.expect("cache shard poisoned")`ed.
    #[test]
    fn poisoned_shard_recovers_instead_of_panicking() {
        let cache = ResultCache::new();
        // Seed an entry, then poison its shard.
        match cache.get_or_lead(21) {
            CacheOutcome::Lead(g) => cache.complete(g, Ok(output(7.0))),
            other => panic!("expected Lead, got {other:?}"),
        }
        // Poison the shard's mutex: a throwaway thread panics holding it.
        let shard = cache.inner.memory_shard(21);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                panic!("deliberate poison for test");
            });
            assert!(handle.join().is_err(), "poison thread must panic");
        });
        // Data survives the poison: hit still served, peek still works,
        // stats still readable, new keys on the shard still lead.
        match cache.get_or_lead(21) {
            CacheOutcome::Hit(out) => assert_eq!(out.values, vec![7.0]),
            other => panic!("expected Hit through poisoned shard, got {other:?}"),
        }
        assert_eq!(cache.peek(21).unwrap().values, vec![7.0]);
        let same_shard_key = 21 + 16; // SHARDS = 16
        match cache.get_or_lead(same_shard_key) {
            CacheOutcome::Lead(g) => cache.complete(g, Ok(output(8.0))),
            other => panic!("expected Lead, got {other:?}"),
        }
        let stats = cache.stats();
        assert!(
            stats.poison_recoveries >= 1,
            "recovery must be counted: {stats:?}"
        );
        assert_eq!(stats.entries, 2);
    }

    fn disk_cache(tag: &str) -> (ResultCache, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "si-cache-tiered-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Arc::new(DiskTier::open(DiskTierConfig::at(&dir)).unwrap());
        (ResultCache::with_disk(disk), dir)
    }

    /// ISSUE 8: a completed job is written through to disk, and a *fresh*
    /// cache over the same directory serves it — as a disk hit promoted
    /// to memory — without any leader running.
    #[test]
    fn write_through_survives_a_cache_restart() {
        let (cache, dir) = disk_cache("restart");
        match cache.get_or_lead(99) {
            CacheOutcome::Lead(g) => cache.complete(g, Ok(output(6.5))),
            other => panic!("expected Lead, got {other:?}"),
        }
        assert_eq!(cache.stats().disk_writes, 1);
        drop(cache);

        // "Restart": a brand-new cache (empty memory tier) on the dir.
        let disk = Arc::new(DiskTier::open(DiskTierConfig::at(&dir)).unwrap());
        let cache = ResultCache::with_disk(disk);
        match cache.get_or_lead(99) {
            CacheOutcome::Hit(out) => assert_eq!(out.values, vec![6.5]),
            other => panic!("expected disk Hit after restart, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.misses, 0, "no leader ran");
        // Promotion: the second lookup is a pure memory hit.
        match cache.get_or_lead(99) {
            CacheOutcome::Hit(_) => {}
            other => panic!("expected memory Hit after promotion, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.disk_hits), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ISSUE 8: errors never reach the disk tier either.
    #[test]
    fn errors_are_never_persisted() {
        let (cache, dir) = disk_cache("errors");
        match cache.get_or_lead(5) {
            CacheOutcome::Lead(g) => {
                cache.complete(g, Err(ServiceError::Analysis("diverged".into())));
            }
            other => panic!("expected Lead, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.disk_writes, 0);
        assert_eq!(stats.disk_entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ISSUE 8: an abandoned (panicked) leader writes nothing to disk —
    /// the drop backstop publishes an error, and errors are not
    /// persisted.
    #[test]
    fn abandoned_flight_persists_nothing() {
        let (cache, dir) = disk_cache("abandon");
        let guard = match cache.get_or_lead(13) {
            CacheOutcome::Lead(g) => g,
            other => panic!("expected Lead, got {other:?}"),
        };
        let leader = thread::spawn(move || {
            let _guard = guard;
            panic!("injected worker panic");
        });
        assert!(leader.join().is_err());
        let stats = cache.stats();
        assert_eq!(stats.abandoned_flights, 1);
        assert_eq!(stats.disk_writes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The disk probe happens under flight leadership, so concurrent
    /// callers of an on-disk key coalesce onto ONE disk read.
    #[test]
    fn disk_promotion_is_single_flight() {
        let (cache, dir) = disk_cache("singleflight");
        match cache.get_or_lead(31) {
            CacheOutcome::Lead(g) => cache.complete(g, Ok(output(3.25))),
            other => panic!("expected Lead, got {other:?}"),
        }
        drop(cache);
        let disk = Arc::new(DiskTier::open(DiskTierConfig::at(&dir)).unwrap());
        let cache = Arc::new(ResultCache::with_disk(disk));
        let mut joins = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            joins.push(thread::spawn(move || match cache.get_or_lead(31) {
                CacheOutcome::Hit(out) => out.values[0],
                CacheOutcome::Follow(waiter) => waiter.wait(None).unwrap().values[0],
                other => panic!("expected Hit/Follow, got {other:?}"),
            }));
        }
        for j in joins {
            assert_eq!(j.join().unwrap(), 3.25);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 0, "nobody led a solve");
        assert!(
            stats.disk_hits <= 2,
            "concurrent lookups must coalesce onto few disk reads, saw {}",
            stats.disk_hits
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
