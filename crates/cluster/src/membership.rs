//! Member tracking: liveness, restart detection, and the cached view of
//! each node's receptor-shard table.
//!
//! The health thread probes `GET /healthz` on every member at a fixed
//! interval, with per-member exponential backoff once a member starts
//! failing (a dead node must not stall the probe round that everyone
//! else shares). A member is marked [`MemberState::Dead`] after
//! `dead_after` *consecutive* failures — one lost packet does not
//! trigger re-dispatch — and revives on the first successful probe.
//!
//! Two more signals ride on the probe round:
//!
//! * **restart detection** — `/healthz` carries the node's boot-random
//!   id; a changed id behind the same address means the process
//!   restarted (grid cache cold, in-flight sub-jobs gone), so the
//!   cached shard table is dropped even though the socket kept
//!   answering;
//! * **shard-table refresh** — alive members also serve `GET /stats`
//!   (a few hundred bytes), parsed on every probe into the member's
//!   cached shard table. The router reads this cache; it never blocks
//!   on a network round-trip.
//!
//! Dispatch-path failures (`report_failure`) feed the same consecutive
//! counter, so a member that refuses connections mid-campaign goes dead
//! without waiting for the next probe round.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mudock_serve::net::client::{self, ClientError};
use mudock_serve::wire::{self, Json};

use crate::metrics::ClusterMetrics;

/// Liveness of one member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberState {
    Alive,
    Dead,
}

impl MemberState {
    pub fn name(self) -> &'static str {
        match self {
            MemberState::Alive => "alive",
            MemberState::Dead => "dead",
        }
    }
}

/// The cached parse of one member's `GET /stats` body.
#[derive(Clone, Debug, Default)]
pub struct MemberStats {
    /// Receptor-shard fingerprints the node has seen (grid cache or
    /// spill tier) — the affinity signal.
    pub shard_keys: Vec<u64>,
    /// Jobs queued across all shards.
    pub queued: u64,
    /// Jobs actively executing across all shards.
    pub active: u64,
}

/// Mutable per-member tracking, behind the member's lock.
#[derive(Debug)]
struct MemberInner {
    state: MemberState,
    /// Boot-random id from `/healthz`; `None` until first contact.
    node: Option<u64>,
    consecutive_failures: u32,
    /// Times the node id changed behind this address.
    restarts: u64,
    /// Cached shard table, refreshed by the probe round.
    stats: MemberStats,
    /// Probe backoff: skip probing until this instant.
    next_probe: Option<Instant>,
}

/// One member node: its address plus tracked state. Sub-job dispatch
/// counts ride in an atomic so the router can read occupancy without
/// the lock.
pub struct Member {
    pub addr: String,
    inner: Mutex<MemberInner>,
    /// Sub-jobs dispatched by *this* coordinator and not yet terminal —
    /// the freshest occupancy signal we have (remote stats lag).
    inflight: AtomicUsize,
}

/// Point-in-time view of one member, for `/stats`.
#[derive(Clone, Debug)]
pub struct MemberSnapshot {
    pub addr: String,
    pub state: MemberState,
    pub node: Option<u64>,
    pub consecutive_failures: u32,
    pub restarts: u64,
    pub inflight: usize,
    pub shard_count: usize,
}

impl Member {
    fn new(addr: String) -> Member {
        Member {
            addr,
            inner: Mutex::new(MemberInner {
                // Optimistic until proven otherwise: jobs submitted
                // before the first probe round should dispatch.
                state: MemberState::Alive,
                node: None,
                consecutive_failures: 0,
                restarts: 0,
                stats: MemberStats::default(),
                next_probe: None,
            }),
            inflight: AtomicUsize::new(0),
        }
    }

    pub fn state(&self) -> MemberState {
        self.inner.lock().unwrap().state
    }

    /// Locally-tracked in-flight sub-jobs.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    pub fn begin_subjob(&self) {
        self.inflight.fetch_add(1, Ordering::SeqCst);
    }

    pub fn end_subjob(&self) {
        // Saturating: a double-end is a bug upstream, but must not wrap
        // the occupancy signal into "infinitely busy".
        let _ = self
            .inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Does the cached shard table hold this receptor fingerprint?
    pub fn has_shard(&self, fingerprint: u64) -> bool {
        self.inner
            .lock()
            .unwrap()
            .stats
            .shard_keys
            .contains(&fingerprint)
    }

    /// Remote occupancy (queued + active) from the cached stats.
    pub fn remote_load(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.stats.queued + inner.stats.active
    }

    pub fn snapshot(&self) -> MemberSnapshot {
        let inner = self.inner.lock().unwrap();
        MemberSnapshot {
            addr: self.addr.clone(),
            state: inner.state,
            node: inner.node,
            consecutive_failures: inner.consecutive_failures,
            restarts: inner.restarts,
            inflight: self.inflight(),
            shard_count: inner.stats.shard_keys.len(),
        }
    }
}

/// The member set plus the probe/backoff policy.
pub struct Membership {
    members: Vec<Arc<Member>>,
    /// Consecutive failures before a member is marked dead.
    dead_after: u32,
    /// Base probe spacing; failures back off exponentially from here.
    probe_interval: Duration,
    metrics: Arc<ClusterMetrics>,
}

impl Membership {
    pub fn new(
        addrs: &[String],
        dead_after: u32,
        probe_interval: Duration,
        metrics: Arc<ClusterMetrics>,
    ) -> Membership {
        let members: Vec<Arc<Member>> = addrs
            .iter()
            .map(|a| Arc::new(Member::new(a.clone())))
            .collect();
        metrics.members_alive.set(members.len() as i64);
        metrics.members_dead.set(0);
        Membership {
            members,
            dead_after: dead_after.max(1),
            probe_interval,
            metrics,
        }
    }

    pub fn members(&self) -> &[Arc<Member>] {
        &self.members
    }

    pub fn alive(&self) -> Vec<Arc<Member>> {
        self.members
            .iter()
            .filter(|m| m.state() == MemberState::Alive)
            .cloned()
            .collect()
    }

    pub fn snapshot(&self) -> Vec<MemberSnapshot> {
        self.members.iter().map(|m| m.snapshot()).collect()
    }

    /// One probe round: health-check every member whose backoff has
    /// elapsed, refresh alive members' shard tables. Runs on the health
    /// thread; dispatch never waits on this.
    pub fn probe_all(&self) {
        for member in &self.members {
            {
                let inner = member.inner.lock().unwrap();
                if let Some(next) = inner.next_probe {
                    if Instant::now() < next {
                        continue;
                    }
                }
            }
            self.probe(member);
        }
        self.publish_gauges();
    }

    /// Probe one member: `/healthz` for liveness + identity, then (on
    /// success) `/stats` for the shard table.
    fn probe(&self, member: &Arc<Member>) {
        let mut conn = client::Client::new(&member.addr);
        match conn.health() {
            Ok(health) => {
                self.record_success(member, health.node);
                self.refresh_stats(member, &mut conn);
            }
            Err(_) => self.record_failure(member),
        }
    }

    /// A dispatch-path error against this member. Connect-refused and
    /// timeouts count toward death (the node is unreachable or wedged);
    /// HTTP/decode errors do not — the node answered, the request was
    /// just bad.
    pub fn report_failure(&self, member: &Arc<Member>, err: &ClientError) {
        match err {
            ClientError::ConnectRefused(_) | ClientError::Timeout(_) | ClientError::Io(_) => {
                self.record_failure(member);
                self.publish_gauges();
            }
            ClientError::Http { .. } | ClientError::Wire(_) => {}
        }
    }

    fn record_success(&self, member: &Arc<Member>, node: Option<u64>) {
        let mut inner = member.inner.lock().unwrap();
        inner.state = MemberState::Alive;
        inner.consecutive_failures = 0;
        inner.next_probe = None;
        if let (Some(old), Some(new)) = (inner.node, node) {
            if old != new {
                // Same address, new boot: the node restarted. Its grid
                // cache is cold and its job table empty — drop the
                // cached shard view so affinity re-learns from scratch.
                inner.restarts += 1;
                inner.stats = MemberStats::default();
                self.metrics.member_restarts.inc();
            }
        }
        if node.is_some() {
            inner.node = node;
        }
    }

    fn record_failure(&self, member: &Arc<Member>) {
        let mut inner = member.inner.lock().unwrap();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        self.metrics.probe_failures.inc();
        if inner.consecutive_failures >= self.dead_after {
            inner.state = MemberState::Dead;
        }
        // Exponential backoff, capped at 32× the base interval: a dead
        // member keeps being probed (it may come back) but cheaply.
        let shift = inner.consecutive_failures.min(5);
        inner.next_probe = Some(Instant::now() + self.probe_interval * (1u32 << shift));
    }

    /// Refresh the cached shard table from the member's `/stats`.
    fn refresh_stats(&self, member: &Arc<Member>, conn: &mut client::Client) {
        // Stats failing while healthz succeeds is odd but not fatal;
        // keep the stale cache and let liveness stand.
        let resp = conn.request("GET", "/stats", None).and_then(|r| r.ok());
        if let Some(stats) = resp.ok().and_then(|r| parse_member_stats(&r.body)) {
            member.inner.lock().unwrap().stats = stats;
        }
    }

    fn publish_gauges(&self) {
        let alive = self
            .members
            .iter()
            .filter(|m| m.state() == MemberState::Alive)
            .count();
        self.metrics.members_alive.set(alive as i64);
        self.metrics
            .members_dead
            .set((self.members.len() - alive) as i64);
    }
}

/// Unit-test hook: plant a shard table without a network round.
#[cfg(test)]
pub(crate) fn set_shards_for_test(member: &Member, keys: &[u64]) {
    member.inner.lock().unwrap().stats.shard_keys = keys.to_vec();
}

/// Pull the affinity + occupancy signals out of a node's `GET /stats`
/// body: the shard table's `%016x` keys and the summed queue depths.
fn parse_member_stats(body: &str) -> Option<MemberStats> {
    let v = wire::parse(body).ok()?;
    let mut stats = MemberStats::default();
    if let Some(Json::Arr(shards)) = v.get("shards") {
        for shard in shards {
            let key = shard.get("key").and_then(Json::as_str);
            if let Some(k) = key.and_then(|k| u64::from_str_radix(k, 16).ok()) {
                stats.shard_keys.push(k);
            }
            let num = |field: &str| shard.get(field).and_then(Json::as_u64).unwrap_or(0);
            stats.queued += num("queued");
            stats.active += num("active");
        }
    }
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_obs::Registry;

    fn membership(addrs: &[&str]) -> Membership {
        let metrics = Arc::new(ClusterMetrics::register(&Registry::new()));
        Membership::new(
            &addrs.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            3,
            Duration::from_millis(10),
            metrics,
        )
    }

    #[test]
    fn members_start_alive_and_die_after_consecutive_failures() {
        let ms = membership(&["127.0.0.1:1", "127.0.0.1:2"]);
        let m = &ms.members()[0];
        assert_eq!(m.state(), MemberState::Alive);
        ms.record_failure(m);
        ms.record_failure(m);
        assert_eq!(m.state(), MemberState::Alive, "two failures is not dead");
        ms.record_failure(m);
        assert_eq!(m.state(), MemberState::Dead);
        assert_eq!(ms.alive().len(), 1);
        // A successful probe revives it and resets the counter.
        ms.record_success(m, Some(7));
        assert_eq!(m.state(), MemberState::Alive);
        assert_eq!(m.snapshot().consecutive_failures, 0);
    }

    #[test]
    fn node_id_change_counts_a_restart_and_drops_the_shard_cache() {
        let ms = membership(&["127.0.0.1:1"]);
        let m = &ms.members()[0];
        ms.record_success(m, Some(1));
        {
            let mut inner = m.inner.lock().unwrap();
            inner.stats.shard_keys.push(0xabc);
        }
        assert!(m.has_shard(0xabc));
        ms.record_success(m, Some(2));
        assert!(!m.has_shard(0xabc), "restart must invalidate the cache");
        assert_eq!(m.snapshot().restarts, 1);
        // Same id again: no further restart counted.
        ms.record_success(m, Some(2));
        assert_eq!(m.snapshot().restarts, 1);
    }

    #[test]
    fn stats_parse_reads_shard_keys_and_occupancy() {
        let body = r#"{"shards":[
            {"key":"00000000000000ff","queued":2,"active":1,"weight":1.0,"submitted":3},
            {"key":"0000000000000a00","queued":0,"active":1,"weight":1.0,"submitted":1}
        ],"shard_count":2}"#;
        let stats = parse_member_stats(body).expect("parses");
        assert_eq!(stats.shard_keys, vec![0xff, 0xa00]);
        assert_eq!(stats.queued, 2);
        assert_eq!(stats.active, 2);
    }

    #[test]
    fn inflight_never_wraps() {
        let ms = membership(&["127.0.0.1:1"]);
        let m = &ms.members()[0];
        m.end_subjob();
        assert_eq!(m.inflight(), 0);
        m.begin_subjob();
        assert_eq!(m.inflight(), 1);
    }
}
