//! The fixed worker pool with bounded-queue admission control.
//!
//! Each worker thread owns one [`EngineWorkspace`] for its whole life, so
//! every job it runs reuses the same factorization buffers, sparse
//! symbolic cache, and telemetry collector — the service-shaped version
//! of the engine's "workspace reuse" discipline. The queue between the
//! acceptor and the workers is a `sync_channel` of fixed depth: when it
//! is full, `WorkerPool::try_submit` fails *immediately* with
//! [`ServiceError::Overloaded`] instead of queueing unboundedly — load
//! shedding at admission, where it is cheap, rather than at timeout,
//! where it is not.
//!
//! Worker threads are also where results become durable: the task
//! closure calls the cache's `complete` — which writes through to the
//! persistent disk tier when one is configured — on the worker, before
//! any waiter on the flight wakes. Persistence costs worker time, never the
//! listener's event loop, and any result a caller has observed is
//! already on disk.
//!
//! Shutdown is graceful by construction: dropping the sender ends the
//! channel, each worker drains what was already admitted, publishes its
//! final telemetry snapshot, and exits; `WorkerPool::shutdown` joins
//! them all.
//!
//! Workers are **panic-proof**: each task runs under `catch_unwind`, so a
//! panicking job can neither kill its worker thread (shrinking the pool
//! one crash at a time) nor take the whole process down. After a panic
//! the worker retires its possibly-corrupt [`EngineWorkspace`] — its
//! telemetry is merged into a retired-stats accumulator first, and the
//! swap is counted in [`EngineStats::workspace_resets`] — and continues
//! with a fresh one. Cleanup owed by the task itself (releasing cache
//! followers, dropping cancellation flags) happens via drop guards inside
//! the task closure, which run during the unwind.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use si_analog::engine::EngineWorkspace;
use si_analog::telemetry::EngineStats;

use crate::error::ServiceError;
use crate::lock_recover;

/// A unit of work: runs on a worker's workspace.
pub(crate) type Task = Box<dyn FnOnce(&mut EngineWorkspace) + Send>;

/// Pool sizing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoolConfig {
    /// Number of worker threads (each with its own workspace).
    pub workers: usize,
    /// Maximum number of admitted-but-unstarted jobs.
    pub queue_capacity: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            queue_capacity: 64,
        }
    }
}

/// Live pool counters.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PoolStats {
    /// Jobs accepted into the queue since startup.
    pub submitted: u64,
    /// Jobs a worker finished running.
    pub executed: u64,
    /// Jobs rejected by admission control.
    pub rejected: u64,
    /// Jobs admitted and currently waiting or running.
    pub in_flight: u64,
    /// Task panics caught by workers (each one also retired a workspace).
    pub panics_caught: u64,
}

/// A fixed pool of solver workers behind a bounded queue.
///
/// Shutdown state lives behind mutexes so a shared (`Arc`-held) pool can
/// still be drained by any handle — the HTTP server and a signal handler
/// both see the same pool without a `&mut`.
pub(crate) struct WorkerPool {
    sender: Mutex<Option<SyncSender<Task>>>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    stats_slots: Vec<Arc<Mutex<EngineStats>>>,
    queue_capacity: usize,
    submitted: AtomicU64,
    executed: Arc<AtomicU64>,
    rejected: AtomicU64,
    panics_caught: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawns `config.workers` threads, each owning a stats-enabled
    /// workspace.
    #[must_use]
    pub fn new(config: PoolConfig) -> Self {
        let workers = config.workers.max(1);
        let capacity = config.queue_capacity.max(1);
        let (sender, receiver) = mpsc::sync_channel::<Task>(capacity);
        let receiver = Arc::new(Mutex::new(receiver));
        let executed = Arc::new(AtomicU64::new(0));
        let panics_caught = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(workers);
        let mut stats_slots = Vec::with_capacity(workers);
        for k in 0..workers {
            let receiver = Arc::clone(&receiver);
            let slot = Arc::new(Mutex::new(EngineStats::new()));
            let slot_for_worker = Arc::clone(&slot);
            let executed = Arc::clone(&executed);
            let panics = Arc::clone(&panics_caught);
            stats_slots.push(slot);
            handles.push(
                thread::Builder::new()
                    .name(format!("si-worker-{k}"))
                    .spawn(move || worker_loop(&receiver, &slot_for_worker, &executed, &panics))
                    .expect("spawn worker thread"),
            );
        }
        WorkerPool {
            sender: Mutex::new(Some(sender)),
            handles: Mutex::new(handles),
            stats_slots,
            queue_capacity: capacity,
            submitted: AtomicU64::new(0),
            executed,
            rejected: AtomicU64::new(0),
            panics_caught,
        }
    }

    /// The admission-control entry point: queues the task or rejects it
    /// *now*.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the queue is full,
    /// [`ServiceError::ShuttingDown`] after [`WorkerPool::shutdown`].
    pub(crate) fn try_submit(&self, task: Task) -> Result<(), ServiceError> {
        // Clone the sender out so the solve-length send never holds the
        // shutdown lock.
        let sender = {
            let guard = lock_recover(&self.sender);
            match guard.as_ref() {
                Some(s) => s.clone(),
                None => return Err(ServiceError::ShuttingDown),
            }
        };
        match sender.try_send(task) {
            Ok(()) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Overloaded {
                    queue_capacity: self.queue_capacity,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::ShuttingDown),
        }
    }

    /// The configured queue depth.
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Whether the pool still admits work: `false` once
    /// [`WorkerPool::shutdown`] has taken the sender. The `/readyz`
    /// readiness probe reports this without burning a queue slot.
    #[must_use]
    pub(crate) fn is_admitting(&self) -> bool {
        lock_recover(&self.sender).is_some()
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.stats_slots.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        let submitted = self.submitted.load(Ordering::Relaxed);
        let executed = self.executed.load(Ordering::Relaxed);
        PoolStats {
            submitted,
            executed,
            rejected: self.rejected.load(Ordering::Relaxed),
            in_flight: submitted.saturating_sub(executed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
        }
    }

    /// Engine telemetry merged across every worker's workspace — the
    /// scheduling-independent totals (see [`EngineStats::merge`]).
    pub(crate) fn merged_engine_stats(&self) -> EngineStats {
        let mut total = EngineStats::new();
        for slot in &self.stats_slots {
            let snap = lock_recover(slot);
            total.merge(&snap);
        }
        total
    }

    /// Stops admitting, drains the queue, and joins every worker. Safe to
    /// call twice and from any handle.
    pub fn shutdown(&self) {
        drop(lock_recover(&self.sender).take());
        let handles: Vec<_> = lock_recover(&self.handles).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    receiver: &Arc<Mutex<Receiver<Task>>>,
    slot: &Arc<Mutex<EngineStats>>,
    executed: &Arc<AtomicU64>,
    panics_caught: &Arc<AtomicU64>,
) {
    let mut ws = EngineWorkspace::new();
    ws.enable_stats();
    // Telemetry of workspaces this worker retired after a panic; the
    // published snapshot is always `retired + live`, so counters never
    // move backwards when a workspace is replaced.
    let mut retired = EngineStats::new();
    loop {
        // Hold the receiver lock only for the dequeue, not the solve.
        let task = {
            let rx = lock_recover(receiver);
            rx.recv()
        };
        let Ok(task) = task else {
            // Channel closed and drained: final snapshot, then exit.
            publish_stats(&ws, &retired, slot);
            return;
        };
        // A panicking task must not kill the worker: catch the unwind,
        // retire the (possibly mid-solve) workspace, and keep serving.
        // The workspace is only observed through its telemetry after a
        // panic — never solved with again — so the unwind-safety assert
        // is sound.
        if catch_unwind(AssertUnwindSafe(|| task(&mut ws))).is_err() {
            panics_caught.fetch_add(1, Ordering::Relaxed);
            if let Some(stats) = ws.stats() {
                retired.merge(stats);
            }
            retired.workspace_resets += 1;
            ws = EngineWorkspace::new();
            ws.enable_stats();
        }
        executed.fetch_add(1, Ordering::Relaxed);
        publish_stats(&ws, &retired, slot);
    }
}

fn publish_stats(ws: &EngineWorkspace, retired: &EngineStats, slot: &Arc<Mutex<EngineStats>>) {
    let mut snapshot = retired.clone();
    if let Some(stats) = ws.stats() {
        snapshot.merge(stats);
    }
    *lock_recover(slot) = snapshot;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn runs_tasks_and_counts_them() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 2,
            queue_capacity: 8,
        });
        let (tx, rx) = channel();
        for k in 0..6 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move |_ws| {
                tx.send(k).unwrap();
            }))
            .unwrap();
        }
        let mut got: Vec<i32> = (0..6).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        pool.shutdown();
        let stats = pool.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.executed, 6);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 1,
            queue_capacity: 1,
        });
        let (release_tx, release_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        // Occupy the single worker...
        pool.try_submit(Box::new(move |_ws| {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }))
        .unwrap();
        started_rx.recv().unwrap();
        // ...fill the queue slot...
        pool.try_submit(Box::new(|_ws| {})).unwrap();
        // ...and overflow: this must be a typed, immediate rejection.
        let err = pool
            .try_submit(Box::new(|_ws| {}))
            .expect_err("queue should be full");
        assert_eq!(err, ServiceError::Overloaded { queue_capacity: 1 });
        release_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(pool.stats().rejected, 1);
        assert_eq!(pool.stats().executed, 2);
    }

    #[test]
    fn shutdown_drains_admitted_work() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 1,
            queue_capacity: 16,
        });
        let (tx, rx) = channel();
        for _ in 0..10 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move |_ws| {
                std::thread::sleep(Duration::from_millis(1));
                tx.send(()).unwrap();
            }))
            .unwrap();
        }
        pool.shutdown();
        // Every admitted task ran before shutdown returned.
        assert_eq!(rx.try_iter().count(), 10);
        assert!(pool.try_submit(Box::new(|_ws| {})).is_err());
    }

    /// Regression (ISSUE 5): a panicking task must not kill its worker
    /// thread — the pool keeps executing later tasks at full strength.
    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 1, // a single worker: if the panic killed it, nothing runs after
            queue_capacity: 8,
        });
        let (tx, rx) = channel();
        pool.try_submit(Box::new(|_ws| panic!("injected task panic")))
            .unwrap();
        for k in 0..3 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move |_ws| tx.send(k).unwrap()))
                .unwrap();
        }
        let mut got: Vec<i32> = (0..3)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("worker died after the panic")
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        pool.shutdown();
        let stats = pool.stats();
        assert_eq!(stats.panics_caught, 1);
        assert_eq!(
            stats.executed, 4,
            "the panicked task still counts as executed"
        );
        assert_eq!(stats.in_flight, 0);
    }

    /// Telemetry from before a panic survives the workspace swap: the
    /// merged counters include the retired workspace's solves plus the
    /// reset marker.
    #[test]
    fn workspace_reset_preserves_retired_telemetry() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let spec = crate::jobspec::JobSpec::DelayLineDc {
            stages: 2,
            bias_ua: 20.0,
            input_ua: 1.0,
        };
        let (tx, rx) = channel();
        let solve = |tx: std::sync::mpsc::Sender<()>, spec: crate::jobspec::JobSpec| {
            Box::new(move |ws: &mut EngineWorkspace| {
                spec.run(ws).unwrap();
                tx.send(()).unwrap();
            })
        };
        pool.try_submit(solve(tx.clone(), spec.clone())).unwrap();
        rx.recv().unwrap();
        // The task's send fires before the worker publishes its stats
        // snapshot; poll rather than racing the publication.
        let mut before = pool.merged_engine_stats();
        for _ in 0..200 {
            if before.solves >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
            before = pool.merged_engine_stats();
        }
        assert!(before.solves >= 1);
        pool.try_submit(Box::new(|_ws| panic!("injected"))).unwrap();
        pool.try_submit(solve(tx, spec)).unwrap();
        rx.recv().unwrap();
        pool.shutdown();
        let after = pool.merged_engine_stats();
        assert_eq!(after.workspace_resets, 1);
        assert!(
            after.solves > before.solves,
            "pre-panic solves were lost: {} -> {}",
            before.solves,
            after.solves
        );
    }

    #[test]
    fn worker_stats_merge_across_workspaces() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 2,
            queue_capacity: 8,
        });
        let (tx, rx) = channel();
        for _ in 0..4 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move |ws| {
                let spec = crate::jobspec::JobSpec::DelayLineDc {
                    stages: 2,
                    bias_ua: 20.0,
                    input_ua: 1.0,
                };
                let out = spec.run(ws).unwrap();
                tx.send(out).unwrap();
            }))
            .unwrap();
        }
        for _ in 0..4 {
            rx.recv().unwrap();
        }
        pool.shutdown();
        let stats = pool.merged_engine_stats();
        assert!(stats.solves >= 4, "merged solves {}", stats.solves);
        assert_eq!(stats.convergence_failures, 0);
    }

    /// ISSUE 6: batch-run telemetry flows from worker workspaces into the
    /// merged snapshot — `batch_runs`/`batch_scenarios` total across
    /// workers exactly like the scalar solve counters.
    #[test]
    fn batch_telemetry_surfaces_in_merged_stats() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 2,
            queue_capacity: 8,
        });
        let (tx, rx) = channel();
        for _ in 0..3 {
            let tx = tx.clone();
            pool.try_submit(Box::new(move |ws| {
                let spec = crate::jobspec::JobSpec::DelayLineDcBatch {
                    stages: 2,
                    bias_ua: 20.0,
                    inputs_ua: vec![0.5, 1.0, 2.0, 4.0],
                };
                let out = spec.run(ws).unwrap();
                tx.send(out).unwrap();
            }))
            .unwrap();
        }
        for _ in 0..3 {
            rx.recv().unwrap();
        }
        pool.shutdown();
        let stats = pool.merged_engine_stats();
        assert_eq!(stats.batch_runs, 3);
        assert_eq!(stats.batch_scenarios, 12);
        // Every scenario after a batch's first warm-started from a
        // converged neighbour, and none were rejected.
        assert_eq!(stats.warm_starts, 9);
        assert_eq!(stats.warm_start_rejected, 0);
    }
}
