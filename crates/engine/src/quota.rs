//! Per-tenant admission control: tenant identities, the one in-flight cap, and
//! the [`QuotaTable`] that enforces it in front of the worker pool.
//!
//! Every [`crate::ExploreRequest`] carries a [`TenantId`]. Before a request may
//! occupy a worker-pool slot, the engine asks the quota table to admit it; a tenant
//! that already has `max_in_flight` requests admitted (queued plus executing) is
//! refused with [`crate::JobError::QuotaExceeded`] instead of being allowed to crowd
//! out everyone else's queue positions. Requests that cost no pool slot — result-cache
//! hits and single-flight coalesced attachments — bypass admission entirely: quotas
//! protect workers, not lookups.
//!
//! Every tenant gets the same cap (`--max-in-flight` on the CLI). One shared
//! `Arc<QuotaTable>` sits in front of every engine shard (the [`crate::Router`] does
//! exactly this), making the cap tenant-global rather than per-shard.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use linx_metrics::{Clock, HistogramSnapshot, LatencyHistogram};

/// Identifies the principal a request is billed to.
///
/// Cheap to clone (the name is behind an `Arc`); compared, hashed, and displayed by
/// name. Requests that never set a tenant all share [`TenantId::default`], so a
/// single-tenant deployment behaves exactly as before quotas existed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// A tenant id with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        TenantId(Arc::from(name.as_ref()))
    }

    /// The tenant name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    /// The anonymous tenant every untagged request is billed to.
    fn default() -> Self {
        TenantId::new("default")
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        TenantId::new(name)
    }
}

impl From<String> for TenantId {
    fn from(name: String) -> Self {
        TenantId::new(name)
    }
}

/// The admission cap every tenant gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum requests admitted at once (queued + executing). Further submissions
    /// are refused until earlier ones respond.
    pub max_in_flight: usize,
}

impl Default for TenantQuota {
    /// Unlimited admission.
    fn default() -> Self {
        TenantQuota::limited(usize::MAX)
    }
}

impl TenantQuota {
    /// A quota admitting at most `max_in_flight` requests per tenant at once.
    pub fn limited(max_in_flight: usize) -> Self {
        TenantQuota { max_in_flight }
    }
}

/// What held a refused tenant's slots. Exposed per-reason in the metrics
/// (`linx_quota_throttled_total{reason=...}`) so operators can tell a backlog
/// waiting for workers from work that is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThrottleReason {
    /// Queued requests alone filled the tenant's `max_in_flight` slots.
    QueueCap,
    /// The tenant's `max_in_flight` slots were full, at least one of them
    /// held by an executing request.
    InFlightCap,
}

impl ThrottleReason {
    /// The metric-label form of the reason.
    pub fn as_str(&self) -> &'static str {
        match self {
            ThrottleReason::QueueCap => "queue_cap",
            ThrottleReason::InFlightCap => "in_flight_cap",
        }
    }
}

impl fmt::Display for ThrottleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a request was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuotaExceeded {
    /// The tenant whose budget was exhausted.
    pub tenant: TenantId,
    /// The tenant's requests waiting for a worker at refusal time.
    pub queued: usize,
    /// The tenant's requests executing at refusal time.
    pub running: usize,
    /// What held the tenant's slots.
    pub reason: ThrottleReason,
}

impl fmt::Display for QuotaExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tenant '{}' exceeded its admission quota ({} queued, {} running)",
            self.tenant, self.queued, self.running
        )
    }
}

#[derive(Debug, Default)]
struct TenantState {
    /// Requests admitted and waiting for a worker.
    queued: usize,
    /// Requests currently executing.
    running: usize,
}

/// Point-in-time admission-control counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuotaStats {
    /// Requests admitted past the quota gate.
    pub admitted: u64,
    /// Requests refused because a tenant budget was exhausted.
    pub throttled: u64,
    /// Requests currently admitted and waiting for a worker, across all tenants.
    pub queued: u64,
    /// Requests currently executing, across all tenants.
    pub running: u64,
    /// Tenants with at least one admitted request.
    pub tenants: u64,
    /// Refusals of a tenant whose slots all held queued requests
    /// ([`ThrottleReason::QueueCap`]).
    pub throttled_queue: u64,
    /// Refusals of a tenant with at least one request executing
    /// ([`ThrottleReason::InFlightCap`]).
    pub throttled_in_flight: u64,
}

/// Tracks each tenant's admitted requests against the one cap and admits or
/// refuses requests.
///
/// Thread-safe; the engine consults it on every submission that needs a worker-pool
/// slot. Share one table across engine shards (via `Arc`) to make the cap global.
///
/// # Examples
///
/// ```
/// use linx_engine::{QuotaTable, TenantId, TenantQuota};
///
/// let table = QuotaTable::new(TenantQuota::limited(1));
/// let greedy = TenantId::new("greedy");
///
/// assert!(table.try_admit(&greedy).is_ok());
/// assert!(table.try_admit(&greedy).is_err(), "second request exceeds max_in_flight");
/// assert!(table.try_admit(&TenantId::new("modest")).is_ok(), "the cap is per tenant");
/// table.start(&greedy); // queued -> running
/// table.finish(&greedy); // running -> done; budget freed
/// assert!(table.try_admit(&greedy).is_ok());
/// ```
#[derive(Debug)]
pub struct QuotaTable {
    /// Every tenant's cap on admitted requests.
    max_in_flight: usize,
    tenants: Mutex<HashMap<TenantId, TenantState>>,
    admitted: AtomicU64,
    throttled: AtomicU64,
    throttled_queue: AtomicU64,
    throttled_in_flight: AtomicU64,
    clock: Clock,
    admit_micros: LatencyHistogram,
}

impl Default for QuotaTable {
    fn default() -> Self {
        QuotaTable::unlimited()
    }
}

impl QuotaTable {
    /// A table applying `quota` to every tenant.
    pub fn new(quota: TenantQuota) -> Self {
        QuotaTable::with_clock(quota, Clock::real())
    }

    /// A table whose admission-latency histogram reads `clock`. Tests pass a
    /// manual clock; [`QuotaTable::new`] uses the real one.
    pub fn with_clock(quota: TenantQuota, clock: Clock) -> Self {
        QuotaTable {
            max_in_flight: quota.max_in_flight,
            tenants: Mutex::new(HashMap::new()),
            admitted: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            throttled_queue: AtomicU64::new(0),
            throttled_in_flight: AtomicU64::new(0),
            clock,
            admit_micros: LatencyHistogram::new(),
        }
    }

    /// A table that admits everything (the single-tenant default).
    pub fn unlimited() -> Self {
        QuotaTable::new(TenantQuota::default())
    }

    /// Admit one request for `tenant`, or refuse it if the tenant's slots are
    /// full. An admitted request counts as queued until [`QuotaTable::start`]
    /// moves it to running; every admission must eventually be balanced by
    /// [`QuotaTable::finish`] (or [`QuotaTable::cancel`] if it never ran).
    pub fn try_admit(&self, tenant: &TenantId) -> Result<(), QuotaExceeded> {
        let admit_start = self.clock.now_micros();
        let mut tenants = self.tenants.lock().expect("quota lock");
        let state = tenants.entry(tenant.clone()).or_default();
        let cap = self.max_in_flight;
        if state.queued + state.running >= cap {
            let reason = if state.queued >= cap {
                ThrottleReason::QueueCap
            } else {
                ThrottleReason::InFlightCap
            };
            let refusal = QuotaExceeded {
                tenant: tenant.clone(),
                queued: state.queued,
                running: state.running,
                reason,
            };
            // Don't let the entry `or_default` may have just created outlive the
            // refusal: a client cycling tenant names must not grow the table.
            Self::gc_entry(&mut tenants, tenant);
            drop(tenants);
            self.throttled.fetch_add(1, Ordering::Relaxed);
            match reason {
                ThrottleReason::QueueCap => &self.throttled_queue,
                ThrottleReason::InFlightCap => &self.throttled_in_flight,
            }
            .fetch_add(1, Ordering::Relaxed);
            self.admit_micros
                .record(self.clock.now_micros().saturating_sub(admit_start));
            return Err(refusal);
        }
        state.queued += 1;
        drop(tenants);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.admit_micros
            .record(self.clock.now_micros().saturating_sub(admit_start));
        Ok(())
    }

    /// Mark one admitted request as executing (queued → running).
    pub fn start(&self, tenant: &TenantId) {
        let mut tenants = self.tenants.lock().expect("quota lock");
        if let Some(state) = tenants.get_mut(tenant) {
            state.queued = state.queued.saturating_sub(1);
            state.running += 1;
        }
    }

    /// Mark one executing request as finished, freeing its budget.
    pub fn finish(&self, tenant: &TenantId) {
        let mut tenants = self.tenants.lock().expect("quota lock");
        if let Some(state) = tenants.get_mut(tenant) {
            state.running = state.running.saturating_sub(1);
            Self::gc_entry(&mut tenants, tenant);
        }
    }

    /// Release one admitted-but-never-started request (e.g. it coalesced onto an
    /// identical submission after admission, or it expired in the queue).
    pub fn cancel(&self, tenant: &TenantId) {
        let mut tenants = self.tenants.lock().expect("quota lock");
        if let Some(state) = tenants.get_mut(tenant) {
            state.queued = state.queued.saturating_sub(1);
            Self::gc_entry(&mut tenants, tenant);
        }
    }

    /// Drop a tenant entry once it holds no budget, so the table stays bounded
    /// by *active* tenants rather than every tenant ever seen.
    fn gc_entry(tenants: &mut HashMap<TenantId, TenantState>, tenant: &TenantId) {
        if let Some(state) = tenants.get(tenant) {
            if state.queued == 0 && state.running == 0 {
                tenants.remove(tenant);
            }
        }
    }

    /// Sweep every dead tenant entry (no budget held) out of the table and
    /// return how many were dropped.
    ///
    /// The per-request paths already garbage-collect the entry they touch, but a
    /// long-lived process can still accumulate residue through paths that decrement
    /// without collecting (e.g. `start` on a tenant whose queued count was already
    /// drained by a concurrent `cancel`). [`crate::Router`] runs this sweep at idle
    /// points (after each batch) and at shutdown, so a router-shared table stays
    /// bounded by *active* tenants no matter how many distinct tenant names pass
    /// through it.
    pub fn gc(&self) -> usize {
        let mut tenants = self.tenants.lock().expect("quota lock");
        let before = tenants.len();
        tenants.retain(|_, state| state.queued > 0 || state.running > 0);
        before - tenants.len()
    }

    /// Admit one request and receive a guard that balances the admission no matter
    /// how the request ends. See [`AdmissionGuard`].
    pub fn admit_guarded(
        self: &Arc<Self>,
        tenant: &TenantId,
    ) -> Result<AdmissionGuard, QuotaExceeded> {
        self.try_admit(tenant)?;
        Ok(AdmissionGuard {
            table: Arc::clone(self),
            tenant: tenant.clone(),
            started: false,
            done: false,
        })
    }

    /// Counters snapshot.
    pub fn stats(&self) -> QuotaStats {
        let tenants = self.tenants.lock().expect("quota lock");
        let (queued, running) = tenants.values().fold((0u64, 0u64), |(q, r), s| {
            (q + s.queued as u64, r + s.running as u64)
        });
        QuotaStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
            queued,
            running,
            tenants: tenants.len() as u64,
            throttled_queue: self.throttled_queue.load(Ordering::Relaxed),
            throttled_in_flight: self.throttled_in_flight.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the admission-decision latency distribution (time spent inside
    /// [`QuotaTable::try_admit`], both admissions and refusals).
    pub fn admit_latency(&self) -> HistogramSnapshot {
        self.admit_micros.snapshot()
    }
}

/// One admission's budget slot, released automatically when dropped.
///
/// Produced by [`QuotaTable::admit_guarded`] and carried inside the worker-pool job:
/// [`AdmissionGuard::start`] marks the queued→running transition and
/// [`AdmissionGuard::finish`] consumes the guard when the job completes. If the
/// guard is instead *dropped* — the job expired in the queue, the pool was dropped
/// with the job still queued, the submission coalesced after admission, or the job
/// panicked past its own handler — the budget is handed back anyway ([`QuotaTable::cancel`] if the job
/// never started, [`QuotaTable::finish`] if it did). This is what keeps a quota
/// table shared across engine shards leak-free: no request path can strand a
/// tenant's in-flight budget.
#[derive(Debug)]
pub struct AdmissionGuard {
    table: Arc<QuotaTable>,
    tenant: TenantId,
    started: bool,
    done: bool,
}

impl AdmissionGuard {
    /// Mark the admitted request as executing (queued → running).
    pub fn start(&mut self) {
        if !self.started {
            self.table.start(&self.tenant);
            self.started = true;
        }
    }

    /// Mark the request as finished, consuming the guard and freeing its budget.
    pub fn finish(mut self) {
        self.start(); // a finish without an explicit start still balances
        self.table.finish(&self.tenant);
        self.done = true;
    }
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        if self.started {
            self.table.finish(&self.tenant);
        } else {
            self.table.cancel(&self.tenant);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_table_admits_everything() {
        let table = QuotaTable::unlimited();
        let t = TenantId::new("anyone");
        for _ in 0..1000 {
            assert!(table.try_admit(&t).is_ok());
        }
        assert_eq!(table.stats().admitted, 1000);
        assert_eq!(table.stats().throttled, 0);
    }

    #[test]
    fn one_cap_bounds_queued_plus_running() {
        let table = QuotaTable::new(TenantQuota::limited(3));
        let t = TenantId::new("bounded");
        for _ in 0..3 {
            assert!(table.try_admit(&t).is_ok());
        }
        let err = table.try_admit(&t).unwrap_err();
        assert_eq!((err.queued, err.running), (3, 0));
        // A started request moves from queued to running and keeps its slot.
        table.start(&t);
        let err = table.try_admit(&t).unwrap_err();
        assert_eq!(
            (err.queued, err.running),
            (2, 1),
            "max_in_flight caps queued+running"
        );
        // Finishing it frees the slot for exactly one more admission.
        table.finish(&t);
        assert!(table.try_admit(&t).is_ok());
        assert!(table.try_admit(&t).is_err());
    }

    #[test]
    fn cancel_releases_an_admission_without_a_run() {
        let table = QuotaTable::new(TenantQuota::limited(1));
        let t = TenantId::new("c");
        assert!(table.try_admit(&t).is_ok());
        assert!(table.try_admit(&t).is_err());
        table.cancel(&t);
        assert!(table.try_admit(&t).is_ok());
    }

    #[test]
    fn inactive_default_quota_tenants_are_garbage_collected() {
        let table = QuotaTable::unlimited();
        let t = TenantId::new("transient");
        table.try_admit(&t).unwrap();
        table.start(&t);
        table.finish(&t);
        assert_eq!(
            table.stats().tenants,
            0,
            "no residue after the last request"
        );
    }

    #[test]
    fn refused_unknown_tenants_leave_no_table_entry() {
        let table = QuotaTable::new(TenantQuota::limited(0));
        for i in 0..100 {
            let t = TenantId::new(format!("drive-by-{i}"));
            assert!(table.try_admit(&t).is_err());
        }
        let stats = table.stats();
        assert_eq!(stats.throttled, 100);
        assert_eq!(stats.tenants, 0, "refusals must not grow the table");
    }

    #[test]
    fn dropping_an_admission_guard_releases_the_budget() {
        let table = Arc::new(QuotaTable::new(TenantQuota::limited(1)));
        let t = TenantId::new("guarded");

        // Never started (the job expired in the queue): cancel path.
        let guard = table.admit_guarded(&t).unwrap();
        assert!(table.try_admit(&t).is_err());
        drop(guard);
        // Started but never finished (the job unwound): finish path.
        let mut guard = table.admit_guarded(&t).unwrap();
        guard.start();
        drop(guard);
        // Explicit finish consumes the guard exactly once.
        let guard = table.admit_guarded(&t).unwrap();
        assert!(
            table.try_admit(&t).is_err(),
            "the guard holds the only slot"
        );
        guard.finish();
        assert!(table.try_admit(&t).is_ok(), "no double release, no leak");
        let stats = table.stats();
        assert_eq!(stats.queued + stats.running, 1, "only the live admission");
    }

    #[test]
    fn gc_sweeps_dead_entries_and_keeps_live_ones() {
        let table = QuotaTable::unlimited();
        // A live admission and a dead entry that its own finish collects.
        let live = TenantId::new("live");
        table.try_admit(&live).unwrap();
        let dead = TenantId::new("dead");
        table.try_admit(&dead).unwrap();
        table.start(&dead);
        table.finish(&dead);
        assert_eq!(table.gc(), 0, "per-request gc already collected 'dead'");
        assert_eq!(table.stats().tenants, 1);
        // Drain the live one, then sweep.
        table.cancel(&live);
        assert_eq!(table.gc(), 0, "cancel collects its own entry");
        assert_eq!(table.stats().tenants, 0);
    }

    #[test]
    fn refusals_carry_the_tripped_budget_as_a_reason() {
        let table = QuotaTable::with_clock(TenantQuota::limited(2), Clock::manual(0));
        let t = TenantId::new("reasoned");
        table.try_admit(&t).unwrap();
        table.try_admit(&t).unwrap();
        // Queued requests hold both slots.
        let err = table.try_admit(&t).unwrap_err();
        assert_eq!(err.reason, ThrottleReason::QueueCap);
        // Once one of them executes, the cap is full with work in flight.
        table.start(&t);
        let err = table.try_admit(&t).unwrap_err();
        assert_eq!(err.reason, ThrottleReason::InFlightCap);
        let stats = table.stats();
        assert_eq!(stats.throttled_queue, 1);
        assert_eq!(stats.throttled_in_flight, 1);
        assert_eq!(stats.throttled, 2);
        assert_eq!(table.admit_latency().count, 4, "every decision is timed");
        assert_eq!(ThrottleReason::QueueCap.to_string(), "queue_cap");
        assert_eq!(ThrottleReason::InFlightCap.as_str(), "in_flight_cap");
    }

    #[test]
    fn tenant_ids_display_and_default() {
        assert_eq!(TenantId::default().as_str(), "default");
        assert_eq!(TenantId::from("acme").to_string(), "acme");
        assert_eq!(TenantId::from("a".to_string()), TenantId::new("a"));
    }
}
