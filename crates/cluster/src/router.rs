//! Routing: which member gets a (sub-)job.
//!
//! This is the node job queue's receptor-affinity idea lifted one
//! level: instead of arbitrating executor slots between per-receptor
//! shards inside a node, the coordinator steers a submission to the
//! *node* whose shard table already holds that receptor's grid
//! fingerprint — in memory or in the spill tier, either way the grids
//! exist there and the dominant fixed cost (an AutoGrid build) is
//! already paid.
//!
//! Decision order:
//!
//! 1. **Affinity** — among alive members whose cached shard table
//!    (see [`Membership`](crate::membership::Membership)) contains the
//!    receptor fingerprint, pick the least-loaded. Applies to
//!    whole-job placement only; see [`Router::route`] for why
//!    scattered windows opt out.
//! 2. **Occupancy fallback** — no member known to hold the receptor:
//!    pick the least-loaded alive member, where load is
//!    locally-tracked in-flight sub-jobs plus the member's
//!    remotely-reported `queued + active`.
//!
//! Ties break by round-robin position, so a burst of fresh receptors
//! against an idle cluster spreads across members instead of piling on
//! member zero — which is also what makes the CI smoke's
//! distinct-member assertion deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::membership::Member;

/// Why a member was chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteReason {
    /// The member's shard table already holds the receptor.
    Affinity,
    /// Fallback: the least-occupied alive member.
    Occupancy,
}

/// Round-robin cursor shared across decisions (one per coordinator).
#[derive(Default)]
pub struct Router {
    cursor: AtomicUsize,
}

impl Router {
    pub fn new() -> Router {
        Router::default()
    }

    /// Pick a member among `candidates` (the alive set, possibly minus
    /// members being failed over from). Returns `None` when no
    /// candidate is left.
    ///
    /// `fingerprint` is `Some` only for **whole-job** placement: a
    /// scattered job's windows all share one receptor fingerprint, so
    /// honoring affinity there would pile every window onto the first
    /// member whose shard table lists the receptor — the probe round
    /// races the placements and can flip `has_shard` mid-fan-out,
    /// collapsing the scatter onto one node. Scattered windows pass
    /// `None` and spread by occupancy instead: the fan-out needs K
    /// members either way, and each pays its grid build exactly once.
    pub fn route(
        &self,
        candidates: &[Arc<Member>],
        fingerprint: Option<u64>,
    ) -> Option<(Arc<Member>, RouteReason)> {
        if candidates.is_empty() {
            return None;
        }
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % candidates.len();
        if let Some(fp) = fingerprint {
            let with_affinity: Vec<&Arc<Member>> =
                candidates.iter().filter(|m| m.has_shard(fp)).collect();
            if !with_affinity.is_empty() {
                let m = Self::least_loaded(&with_affinity, start);
                return Some((Arc::clone(m), RouteReason::Affinity));
            }
        }
        let all: Vec<&Arc<Member>> = candidates.iter().collect();
        let m = Self::least_loaded(&all, start);
        Some((Arc::clone(m), RouteReason::Occupancy))
    }

    /// Minimal `(load, round-robin distance)` over the pool. Load mixes
    /// the coordinator's own in-flight count (fresh) with the member's
    /// last-reported queue depth (laggy but covers foreign clients).
    fn least_loaded<'a>(pool: &[&'a Arc<Member>], start: usize) -> &'a Arc<Member> {
        pool.iter()
            .enumerate()
            .min_by_key(|(i, m)| {
                let load = m.inflight() as u64 + m.remote_load();
                let rr_distance = (i + pool.len() - start % pool.len()) % pool.len();
                (load, rr_distance)
            })
            .map(|(_, m)| *m)
            .expect("pool is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::Membership;
    use crate::metrics::ClusterMetrics;
    use mudock_obs::Registry;
    use std::time::Duration;

    fn members(n: usize) -> Vec<Arc<Member>> {
        let addrs: Vec<String> = (0..n).map(|i| format!("127.0.0.1:{}", 4000 + i)).collect();
        let metrics = Arc::new(ClusterMetrics::register(&Registry::new()));
        Membership::new(&addrs, 3, Duration::from_millis(10), metrics)
            .members()
            .to_vec()
    }

    #[test]
    fn empty_candidate_set_routes_nowhere() {
        let r = Router::new();
        assert!(r.route(&[], Some(1)).is_none());
    }

    #[test]
    fn round_robin_spreads_equal_load() {
        let ms = members(2);
        let r = Router::new();
        let (first, reason) = r.route(&ms, Some(0xf00)).expect("two candidates");
        assert_eq!(reason, RouteReason::Occupancy);
        // The chosen member now carries an in-flight sub-job; the next
        // equal-affinity decision must land on the other one.
        first.begin_subjob();
        let (second, _) = r.route(&ms, Some(0xbaa)).expect("two candidates");
        assert_ne!(first.addr, second.addr, "load must spread");
    }

    #[test]
    fn affinity_beats_an_idle_stranger() {
        let ms = members(3);
        let r = Router::new();
        crate::membership::set_shards_for_test(&ms[2], &[0xf00d]);
        // The affinity holder is busier than the idle members — it
        // still wins: a queued job there beats an AutoGrid rebuild
        // elsewhere.
        ms[2].begin_subjob();
        for _ in 0..4 {
            let (m, reason) = r.route(&ms, Some(0xf00d)).expect("candidates");
            assert_eq!(reason, RouteReason::Affinity);
            assert_eq!(m.addr, ms[2].addr);
        }
        // A receptor nobody holds falls back to occupancy.
        let (_, reason) = r.route(&ms, Some(0xbeef)).expect("candidates");
        assert_eq!(reason, RouteReason::Occupancy);
    }

    #[test]
    fn scattered_windows_ignore_affinity_and_spread() {
        // One member holds the shard; a scattered fan-out (fingerprint
        // None) must still spread across members instead of piling onto
        // the holder.
        let ms = members(2);
        let r = Router::new();
        crate::membership::set_shards_for_test(&ms[0], &[0xf00d]);
        let (first, reason) = r.route(&ms, None).expect("candidates");
        assert_eq!(reason, RouteReason::Occupancy);
        first.begin_subjob();
        let (second, reason) = r.route(&ms, None).expect("candidates");
        assert_eq!(reason, RouteReason::Occupancy);
        assert_ne!(
            first.addr, second.addr,
            "windows must land on distinct members"
        );
    }

    #[test]
    fn inflight_load_beats_round_robin() {
        let ms = members(2);
        let r = Router::new();
        ms[0].begin_subjob();
        ms[0].begin_subjob();
        for _ in 0..4 {
            let (m, _) = r.route(&ms, Some(7)).expect("candidates");
            assert_eq!(m.addr, ms[1].addr, "idle member wins regardless of cursor");
        }
    }
}
