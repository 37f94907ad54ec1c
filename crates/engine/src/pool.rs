//! A std-only worker pool: threads, a tenant-fair priority queue, graceful shutdown,
//! and per-job panic isolation.
//!
//! Jobs are boxed closures scheduled by ([`Priority`] descending, then round-robin
//! across tenants, then submission order within a tenant). The fairness property:
//! while several tenants have work queued in the same priority band, they take
//! turns one job at a time — a tenant flooding the queue delays its *own* backlog,
//! not everyone else's. Workers catch panics per job, so one poisoned exploration
//! cannot take down the pool; the panic count is exposed for monitoring.
//! [`WorkerPool::shutdown`] drains already-queued jobs before the workers exit;
//! dropping the pool instead discards the queue.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use linx_metrics::{Clock, Gauge, HistogramSnapshot, LatencyHistogram};

use crate::api::Priority;
use crate::quota::TenantId;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued closure stamped with its enqueue time, so the dequeuing worker can
/// record how long it waited for a slot.
struct QueuedJob {
    job: Job,
    enqueued_micros: u64,
}

/// One priority band: a FIFO lane per tenant, served round-robin.
///
/// `rotation` holds the tenants with queued work in service order; the front
/// tenant runs one job, then rotates to the back. A tenant joins the back of the
/// rotation, so a newcomer can never pre-empt tenants already waiting for their
/// turn. Every tenant in the rotation has a non-empty lane.
#[derive(Default)]
struct Band {
    lanes: HashMap<TenantId, VecDeque<QueuedJob>>,
    rotation: VecDeque<TenantId>,
}

impl Band {
    fn push(&mut self, tenant: TenantId, job: QueuedJob) {
        let lane = self.lanes.entry(tenant).or_insert_with_key(|tenant| {
            self.rotation.push_back(tenant.clone());
            VecDeque::new()
        });
        lane.push_back(job);
    }

    fn pop(&mut self) -> Option<QueuedJob> {
        let front = self.rotation.pop_front()?;
        let lane = self
            .lanes
            .get_mut(&front)
            .expect("rotation entry has a lane");
        let job = lane
            .pop_front()
            .expect("lanes in the rotation are non-empty");
        if lane.is_empty() {
            self.lanes.remove(&front);
        } else {
            self.rotation.push_back(front);
        }
        Some(job)
    }

    fn queued_for(&self, tenant: &TenantId) -> usize {
        self.lanes.get(tenant).map_or(0, VecDeque::len)
    }
}

/// The pool's queue: one round-robin [`Band`] per [`Priority`], scanned
/// high-to-low so priorities strictly dominate tenant fairness.
#[derive(Default)]
struct FairQueue {
    /// Index 0 = High, 1 = Normal, 2 = Low (scan order).
    bands: [Band; 3],
    len: usize,
    /// Jobs queued per band right now (same index order as `bands`), maintained
    /// on push/pop/clear so queue-depth gauges cost no band traversal.
    band_len: [usize; 3],
}

fn band_index(priority: Priority) -> usize {
    match priority {
        Priority::High => 0,
        Priority::Normal => 1,
        Priority::Low => 2,
    }
}

impl FairQueue {
    fn push(&mut self, priority: Priority, tenant: TenantId, job: QueuedJob) {
        let band = band_index(priority);
        self.bands[band].push(tenant, job);
        self.band_len[band] += 1;
        self.len += 1;
    }

    /// Pop the next job in (priority, tenant-fair) order, returning it together
    /// with the band index it came from so the worker can label its timings.
    fn pop(&mut self) -> Option<(QueuedJob, usize)> {
        for (i, band) in self.bands.iter_mut().enumerate() {
            if let Some(job) = band.pop() {
                self.band_len[i] -= 1;
                self.len -= 1;
                return Some((job, i));
            }
        }
        None
    }

    fn clear(&mut self) {
        *self = FairQueue::default();
    }

    fn queued_for(&self, tenant: &TenantId) -> usize {
        self.bands.iter().map(|b| b.queued_for(tenant)).sum()
    }
}

struct QueueState {
    queue: FairQueue,
    shutting_down: bool,
}

struct PoolShared {
    state: Mutex<QueueState>,
    work_available: Condvar,
    completed: AtomicU64,
    panicked: AtomicU64,
    clock: Clock,
    /// Jobs executing right now, per priority band (0 = High, 1 = Normal, 2 = Low).
    in_flight: [Gauge; 3],
    /// Enqueue-to-dequeue wait per priority band.
    queue_wait: [LatencyHistogram; 3],
    /// Closure execution time per priority band.
    execute: [LatencyHistogram; 3],
}

/// Point-in-time pool counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Jobs that ran to completion (including ones whose panic was caught).
    pub completed: u64,
    /// Jobs whose execution panicked (caught; the worker survived).
    pub panicked: u64,
    /// Jobs waiting in the queue.
    pub queued: u64,
    /// Worker threads.
    pub workers: u64,
    /// Jobs waiting in the queue right now, per priority band
    /// (index 0 = High, 1 = Normal, 2 = Low — [`crate::telemetry::BANDS`] order).
    pub queued_now: [u64; 3],
    /// Jobs executing right now, per priority band (same index order).
    pub in_flight_now: [u64; 3],
}

/// A fixed-size pool of worker threads draining a tenant-fair priority queue.
///
/// Only [`WorkerPool::shutdown`], which consumes the pool, and dropping it stop
/// the workers, so a [`WorkerPool::submit`] through `&self` never meets a
/// stopped pool.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool with `workers` threads (at least one), timing against the
    /// real clock.
    pub fn new(workers: usize) -> Self {
        WorkerPool::with_clock(workers, Clock::real())
    }

    /// Spawn a pool whose queue-wait and execution histograms read `clock`.
    /// Tests pass a manual clock to make the timings deterministic.
    pub fn with_clock(workers: usize, clock: Clock) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(QueueState {
                queue: FairQueue::default(),
                shutting_down: false,
            }),
            work_available: Condvar::new(),
            completed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            clock,
            in_flight: std::array::from_fn(|_| Gauge::new()),
            queue_wait: std::array::from_fn(|_| LatencyHistogram::new()),
            execute: std::array::from_fn(|_| LatencyHistogram::new()),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("linx-engine-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueue a job on `tenant`'s lane of the `priority` band.
    pub fn submit(
        &self,
        priority: Priority,
        tenant: TenantId,
        job: impl FnOnce() + Send + 'static,
    ) {
        // Stamp the enqueue time before taking the lock so lock contention on a
        // busy pool counts as queue wait, not as unmeasured time.
        let queued = QueuedJob {
            job: Box::new(job),
            enqueued_micros: self.shared.clock.now_micros(),
        };
        self.shared
            .state
            .lock()
            .expect("pool lock")
            .queue
            .push(priority, tenant, queued);
        self.shared.work_available.notify_one();
    }

    /// Total jobs currently queued (not yet executing) across all bands and
    /// tenants. One lock acquisition; cheap enough for per-submission
    /// load-shed checks.
    pub fn queued_total(&self) -> usize {
        self.shared.state.lock().expect("pool lock").queue.len
    }

    /// Jobs currently queued (not yet executing) for one tenant, across all
    /// priority bands.
    pub fn queued_for(&self, tenant: &TenantId) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool lock")
            .queue
            .queued_for(tenant)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> PoolStats {
        let (queued, queued_now) = {
            let state = self.shared.state.lock().expect("pool lock");
            (
                state.queue.len as u64,
                state.queue.band_len.map(|n| n as u64),
            )
        };
        PoolStats {
            completed: self.shared.completed.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
            queued,
            workers: self.workers.len() as u64,
            queued_now,
            in_flight_now: std::array::from_fn(|i| self.shared.in_flight[i].get()),
        }
    }

    /// Snapshot of the enqueue-to-dequeue wait distribution per priority band
    /// (index 0 = High, 1 = Normal, 2 = Low).
    pub fn queue_wait_latency(&self) -> [HistogramSnapshot; 3] {
        std::array::from_fn(|i| self.shared.queue_wait[i].snapshot())
    }

    /// Snapshot of the job execution-time distribution per priority band
    /// (index 0 = High, 1 = Normal, 2 = Low).
    pub fn execute_latency(&self) -> [HistogramSnapshot; 3] {
        std::array::from_fn(|i| self.shared.execute[i].snapshot())
    }

    /// Let queued jobs drain and join every worker. Returns the pool's final
    /// counters (all workers joined, queue empty), so a drain can report how
    /// much work completed.
    pub fn shutdown(mut self) -> PoolStats {
        let workers = self.workers.len() as u64;
        self.stop(false);
        PoolStats {
            workers,
            ..self.stats()
        }
    }

    /// Tell the workers to exit once the queue is empty (after emptying it
    /// when `drop_queue`), and join them. In-flight jobs run to completion:
    /// threads cannot be safely interrupted.
    fn stop(&mut self, drop_queue: bool) {
        {
            // `Drop` calls this, so a poisoned lock is recovered instead of
            // panicking: raising the flag and emptying the queue leave any state valid.
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.shutting_down = true;
            if drop_queue {
                state.queue.clear();
            }
        }
        self.shared.work_available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for WorkerPool {
    /// Dropping without [`WorkerPool::shutdown`] discards the queue, so the
    /// process never waits on a forgotten pool's backlog.
    fn drop(&mut self) {
        self.stop(true);
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let (queued, band) = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if let Some(next) = state.queue.pop() {
                    break next;
                }
                if state.shutting_down {
                    return;
                }
                state = shared
                    .work_available
                    .wait(state)
                    .expect("pool condvar wait");
            }
        };
        let run_start = shared.clock.now_micros();
        shared.queue_wait[band].record(run_start.saturating_sub(queued.enqueued_micros));
        shared.in_flight[band].inc();
        // Panic isolation: a panicking job is recorded and the worker keeps serving.
        // (The closure owns its captures, so no shared state outlives the unwind in a
        // partially-updated form; job authors communicate results via channels, whose
        // disconnect the receiver observes.)
        if catch_unwind(AssertUnwindSafe(queued.job)).is_err() {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
        }
        shared.in_flight[band].dec();
        shared.execute[band].record(shared.clock.now_micros().saturating_sub(run_start));
        shared.completed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Block the pool's single worker until the returned sender fires, so the queue
    /// order behind it is observable deterministically.
    fn gate(pool: &WorkerPool) -> mpsc::Sender<()> {
        let (started_tx, started_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.submit(Priority::High, TenantId::default(), move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        gate_tx
    }

    #[test]
    fn executes_jobs_and_counts_completions() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..20 {
            let tx = tx.clone();
            pool.submit(Priority::Normal, TenantId::default(), move || {
                tx.send(i).unwrap()
            });
        }
        drop(tx);
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn priority_order_is_respected_by_a_single_worker() {
        let pool = WorkerPool::new(1);
        let open = gate(&pool);

        let (tx, rx) = mpsc::channel();
        for (priority, tag) in [
            (Priority::Low, "low"),
            (Priority::Normal, "normal-1"),
            (Priority::High, "high"),
            (Priority::Normal, "normal-2"),
        ] {
            let tx = tx.clone();
            pool.submit(priority, TenantId::default(), move || tx.send(tag).unwrap());
        }
        open.send(()).unwrap();
        let order: Vec<&str> = rx.iter().take(4).collect();
        assert_eq!(order, vec!["high", "normal-1", "normal-2", "low"]);
        pool.shutdown();
    }

    #[test]
    fn equal_weight_tenants_interleave_within_a_band() {
        let pool = WorkerPool::new(1);
        let open = gate(&pool);

        let (tx, rx) = mpsc::channel();
        // Tenant A floods before tenant B submits anything.
        for _ in 0..4 {
            let tx = tx.clone();
            pool.submit(Priority::Normal, TenantId::new("a"), move || {
                tx.send("a").unwrap()
            });
        }
        for _ in 0..2 {
            let tx = tx.clone();
            pool.submit(Priority::Normal, TenantId::new("b"), move || {
                tx.send("b").unwrap()
            });
        }
        assert_eq!(pool.queued_for(&TenantId::new("a")), 4);
        open.send(()).unwrap();
        let order: Vec<&str> = rx.iter().take(6).collect();
        assert_eq!(
            order,
            vec!["a", "b", "a", "b", "a", "a"],
            "round-robin alternation, then A drains its own backlog"
        );
        pool.shutdown();
    }

    #[test]
    fn panicking_job_is_isolated_and_pool_survives() {
        let pool = WorkerPool::new(2);
        pool.submit(Priority::Normal, TenantId::default(), || panic!("boom"));
        let (tx, rx) = mpsc::channel();
        pool.submit(Priority::Normal, TenantId::default(), move || {
            tx.send(42).unwrap()
        });
        assert_eq!(rx.recv().unwrap(), 42);
        // Wait for both jobs to be accounted.
        while pool.stats().completed < 2 {
            std::thread::yield_now();
        }
        let stats = pool.stats();
        assert_eq!(stats.panicked, 1);
        pool.shutdown();
    }

    #[test]
    fn band_gauges_track_current_queue_depth_and_in_flight() {
        let pool = WorkerPool::new(1);
        let open = gate(&pool); // the gate job is High priority and now executing
        let stats = pool.stats();
        assert_eq!(stats.in_flight_now, [1, 0, 0]);
        assert_eq!(stats.queued_now, [0, 0, 0]);

        let (tx, rx) = mpsc::channel();
        for (priority, n) in [
            (Priority::High, 1),
            (Priority::Normal, 2),
            (Priority::Low, 3),
        ] {
            for _ in 0..n {
                let tx = tx.clone();
                pool.submit(priority, TenantId::default(), move || tx.send(()).unwrap());
            }
        }
        assert_eq!(pool.stats().queued_now, [1, 2, 3]);
        assert_eq!(pool.stats().queued, 6);

        open.send(()).unwrap();
        drop(tx);
        assert_eq!(rx.iter().count(), 6);
        pool.shutdown();
    }

    #[test]
    fn band_latency_histograms_record_per_band() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        for (priority, band) in [
            (Priority::High, 0),
            (Priority::Normal, 1),
            (Priority::Low, 2),
        ] {
            let tx = tx.clone();
            pool.submit(priority, TenantId::default(), move || {
                tx.send(band).unwrap()
            });
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 3);
        while pool.stats().completed < 3 {
            std::thread::yield_now();
        }
        let waits = pool.queue_wait_latency();
        let execs = pool.execute_latency();
        for band in 0..3 {
            assert_eq!(waits[band].count, 1, "one queue wait in band {band}");
            assert_eq!(execs[band].count, 1, "one execution in band {band}");
        }
        assert_eq!(pool.stats().in_flight_now, [0, 0, 0]);
        pool.shutdown();
    }

    #[test]
    fn graceful_shutdown_drains_the_queue() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.submit(Priority::Normal, TenantId::default(), move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                tx.send(i).unwrap();
            });
        }
        pool.shutdown();
        drop(tx);
        assert_eq!(rx.iter().count(), 10, "graceful shutdown drains the queue");
    }
}
