//! Receptor-aware sharding: partition executor capacity across targets.
//!
//! A screening node serves many receptors at once, but the executors
//! pull from one queue — so without arbitration, a burst of jobs
//! against a single hot target drains ahead of everyone else and
//! occupies every slot, exactly the multi-target degradation the
//! docking mini-app literature warns about. The `ShardRouter` groups
//! jobs into *shards* keyed by the grid content fingerprint
//! ([`mudock_grids::grid_cache_key`] over the receptor and its lattice)
//! and arbitrates every dequeue:
//!
//! * **fair share** — among eligible jobs, pick the one whose shard has
//!   the lowest `active / weight` occupancy ratio, so slots spread
//!   across receptors instead of pooling on the loudest one; ties fall
//!   back to priority, then submission order (the pre-sharding rules);
//! * **capacity partitioning** — each shard is soft-capped at
//!   `job_slots / shards` concurrent executors (configured shard count,
//!   or the number of live shards when unset). The cap is *soft*: it
//!   only defers a job while some under-cap shard has work queued.
//!   Work-conserving by construction — an executor never idles while
//!   any job is queued;
//! * **passthrough** — jobs whose campaign opted out with
//!   [`ShardPolicy::SingleQueue`](mudock_core::ShardPolicy) all join
//!   one shared *unsharded* group: among themselves they keep plain
//!   priority/FIFO order regardless of receptor, while the group as a
//!   whole competes for slots (and is capped) like any single shard —
//!   opting out is an ordering choice, never a way to outrank the
//!   fairness machinery.
//!
//! The router never owns jobs; it only answers "which queued job runs
//! next" for the queue's `pop` ([`crate::queue`]) and keeps the
//! per-shard depth/occupancy counters that `GET /stats` reports.

use std::collections::HashMap;
use std::sync::Mutex;

use mudock_grids::grid_cache_key;

use crate::job::JobSpec;
use crate::queue::QueuedJob;

/// Everything the queue needs to place one job in a shard, computed
/// once at submission (hashing the receptor is O(atoms) — not a cost
/// to pay per dequeue).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardInfo {
    /// Grid content fingerprint of the job's receptor + lattice.
    pub key: u64,
    /// Relative scheduling weight from the campaign's `ShardPolicy`.
    pub weight: f32,
    /// False for `ShardPolicy::SingleQueue` passthrough jobs.
    pub sharded: bool,
}

/// The shard a [`JobSpec`] belongs to, plus its scheduling stance.
pub(crate) fn shard_info(spec: &JobSpec) -> ShardInfo {
    let dims = spec.campaign.dims_for(&spec.receptor);
    ShardInfo {
        key: grid_cache_key(&spec.receptor, &dims),
        weight: spec.campaign.shard.weight(),
        sharded: spec.campaign.shard.is_sharded(),
    }
}

/// Point-in-time view of one shard (one row of `GET /stats`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardStat {
    /// Grid content fingerprint identifying the receptor + lattice.
    pub key: u64,
    /// Jobs waiting in the queue for this shard right now.
    pub queued: usize,
    /// Jobs executing for this shard right now.
    pub active: usize,
    /// Effective scheduling weight (the most recent submission's).
    pub weight: f32,
    /// Jobs ever submitted against this shard (monotonic).
    pub submitted: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct ShardState {
    queued: usize,
    active: usize,
    weight: f32,
    submitted: u64,
    /// Logical timestamp of the last touch — orders drained-shard
    /// retention when the map is over [`MAX_RETAINED_SHARDS`].
    last_seen: u64,
}

/// Cap on *drained* shard groups kept for `/stats`. Shard keys are
/// client-controlled (any receptor hashes to one), so without a bound
/// a client looping over distinct receptors would grow the map — and
/// every `/stats` body — forever. Live shards (work queued or
/// running) are bounded by queue capacity + executor slots and are
/// never pruned; this cap only limits the history.
const MAX_RETAINED_SHARDS: usize = 512;

struct RouterInner {
    /// Per-receptor shard groups.
    shards: HashMap<u64, ShardState>,
    /// The one shared group every `ShardPolicy::SingleQueue` job joins.
    /// Tracking it (instead of scoring passthrough jobs a flat zero)
    /// means opting out is never a strictly-better scheduling position:
    /// the group competes for slots like any single shard and is
    /// subject to the same cap, while its *members* keep plain
    /// priority/FIFO order among themselves regardless of receptor.
    unsharded: ShardState,
    /// Logical clock feeding `ShardState::last_seen`.
    tick: u64,
}

impl RouterInner {
    fn group_mut(&mut self, info: ShardInfo) -> &mut ShardState {
        self.tick += 1;
        let tick = self.tick;
        let s = if info.sharded {
            self.shards.entry(info.key).or_default()
        } else {
            &mut self.unsharded
        };
        s.last_seen = tick;
        s
    }

    /// Drop the coldest *drained* shards beyond the retention cap.
    /// Called after inserts; live shards always survive.
    fn prune_drained(&mut self) {
        while self.shards.len() > MAX_RETAINED_SHARDS {
            let coldest = self
                .shards
                .iter()
                .filter(|(_, s)| s.active == 0 && s.queued == 0)
                .min_by_key(|(_, s)| s.last_seen)
                .map(|(&k, _)| k);
            match coldest {
                Some(k) => {
                    self.shards.remove(&k);
                }
                // Everything is live — bounded by queue + slots, keep.
                None => break,
            }
        }
    }
}

/// Arbitrates executor slots across per-receptor shard groups.
pub(crate) struct ShardRouter {
    /// Executor slots being partitioned (`ServeConfig::job_slots`).
    job_slots: usize,
    /// Configured shard-group count (`ServeConfig::shards`); 0 derives
    /// the per-shard cap from the number of live shards instead.
    configured: usize,
    inner: Mutex<RouterInner>,
}

impl ShardRouter {
    pub fn new(job_slots: usize, configured: usize) -> ShardRouter {
        ShardRouter {
            job_slots: job_slots.max(1),
            configured,
            inner: Mutex::new(RouterInner {
                shards: HashMap::new(),
                unsharded: ShardState::default(),
                tick: 0,
            }),
        }
    }

    /// Record a submission (queue push) into its group.
    pub fn enqueued(&self, info: ShardInfo) {
        let mut inner = self.inner.lock().unwrap();
        let s = inner.group_mut(info);
        s.queued += 1;
        s.weight = info.weight; // latest submission's weight wins
        s.submitted += 1;
        inner.prune_drained();
    }

    /// Record that a selected job left the queue for an executor.
    fn started(&self, info: ShardInfo) {
        let mut inner = self.inner.lock().unwrap();
        let s = inner.group_mut(info);
        s.queued = s.queued.saturating_sub(1);
        s.active += 1;
    }

    /// Record that an executor finished (or discarded) a job.
    pub fn finished(&self, info: ShardInfo) {
        let mut inner = self.inner.lock().unwrap();
        let s = inner.group_mut(info);
        s.active = s.active.saturating_sub(1);
    }

    /// Concurrent-executor cap per shard given `live` shards with work.
    fn cap(&self, live: usize) -> usize {
        let groups = if self.configured > 0 {
            self.configured
        } else {
            live.max(1)
        };
        (self.job_slots / groups).max(1)
    }

    /// Pick the next job to run from `jobs` and account it as started.
    /// Returns the index into `jobs`, or `None` when `jobs` is empty.
    ///
    /// Selection order: soft-capped groups are deferred while an
    /// under-cap group has work; within the eligible pool, lowest
    /// `active / weight` occupancy first, then highest priority, then
    /// FIFO. Passthrough jobs all score through the one unsharded
    /// group, so they arbitrate against receptor shards as a single
    /// peer group (never a free pass). With a single shard — or only
    /// passthrough jobs — this degenerates to exactly the pre-sharding
    /// priority/FIFO order.
    pub fn select(&self, jobs: &[QueuedJob]) -> Option<usize> {
        if jobs.is_empty() {
            return None;
        }
        let pick = {
            let inner = self.inner.lock().unwrap();
            let busy = |s: &ShardState| s.active > 0 || s.queued > 0;
            let live =
                inner.shards.values().filter(|s| busy(s)).count() + busy(&inner.unsharded) as usize;
            let cap = self.cap(live);
            // Ratios come from the *group's* stored weight (the latest
            // submission's, as documented on ShardStat), never a
            // queued job's own: one weight per shard keeps intra-shard
            // ordering strictly priority-then-FIFO — a job cannot jump
            // its own receptor's queue by claiming a big weight.
            let occupancy = |j: &QueuedJob| -> (f32, bool) {
                let (active, weight) = if j.shard.sharded {
                    inner
                        .shards
                        .get(&j.shard.key)
                        .map_or((0, j.shard.weight), |s| (s.active, s.weight))
                } else {
                    (inner.unsharded.active, inner.unsharded.weight)
                };
                (active as f32 / weight.max(1e-6), active < cap)
            };
            let best = |pool: &mut dyn Iterator<Item = usize>| {
                pool.min_by(|&a, &b| {
                    let (ra, _) = occupancy(&jobs[a]);
                    let (rb, _) = occupancy(&jobs[b]);
                    ra.partial_cmp(&rb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| jobs[b].spec.priority.cmp(&jobs[a].spec.priority))
                        .then_with(|| jobs[a].seq.cmp(&jobs[b].seq))
                })
            };
            let mut eligible = (0..jobs.len()).filter(|&i| occupancy(&jobs[i]).1);
            // Work-conserving: when every queued job sits in an
            // over-cap shard, run the best of them anyway.
            best(&mut eligible).or_else(|| best(&mut (0..jobs.len())))
        };
        if let Some(i) = pick {
            self.started(jobs[i].shard);
        }
        pick
    }

    /// Per-shard counters, sorted by fingerprint for stable reporting.
    /// Shards persist after draining — up to [`MAX_RETAINED_SHARDS`],
    /// beyond which the coldest drained shards are dropped — so
    /// `/stats` keeps showing what recently ran without growing with
    /// every receptor a long-lived node ever saw. The unsharded
    /// passthrough group is accounting-only and not listed: it names
    /// no receptor.
    pub fn snapshot(&self) -> Vec<ShardStat> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<ShardStat> = inner
            .shards
            .iter()
            .map(|(&key, s)| ShardStat {
                key,
                queued: s.queued,
                active: s.active,
                weight: s.weight,
                submitted: s.submitted,
            })
            .collect();
        out.sort_unstable_by_key(|s| s.key);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobShared, Priority};
    use mudock_core::{Campaign, ShardPolicy};
    use std::sync::Arc;

    fn job(seq: u64, key: u64, priority: Priority, policy: ShardPolicy) -> QueuedJob {
        let campaign = Campaign::builder().shard(policy).build().unwrap();
        let mut spec = JobSpec::from(campaign);
        spec.priority = priority;
        QueuedJob {
            spec,
            shared: JobShared::new(seq),
            seq,
            shard: ShardInfo {
                key,
                weight: policy.weight(),
                sharded: policy.is_sharded(),
            },
        }
    }

    /// Drive the router as the queue would: enqueue everything, then
    /// pop via `select`, removing the chosen job each time.
    fn drain_order(router: &ShardRouter, mut jobs: Vec<QueuedJob>) -> Vec<u64> {
        for j in &jobs {
            router.enqueued(j.shard);
        }
        let mut order = Vec::new();
        while let Some(i) = router.select(&jobs) {
            let j = jobs.remove(i);
            order.push(j.seq);
        }
        order
    }

    #[test]
    fn single_shard_degenerates_to_priority_then_fifo() {
        let router = ShardRouter::new(4, 0);
        let jobs = vec![
            job(0, 1, Priority::Normal, ShardPolicy::FairShare),
            job(1, 1, Priority::Low, ShardPolicy::FairShare),
            job(2, 1, Priority::High, ShardPolicy::FairShare),
            job(3, 1, Priority::Normal, ShardPolicy::FairShare),
        ];
        // Without finished() calls the shard's active count grows with
        // every pop, but a single shard still orders by priority/FIFO —
        // the occupancy ratio is common to every candidate.
        assert_eq!(drain_order(&router, jobs), vec![2, 0, 3, 1]);
    }

    #[test]
    fn underserved_shard_preempts_the_hot_one() {
        let router = ShardRouter::new(2, 0);
        // Shard 1 is already running a job; shard 2's job must be
        // selected next even though shard 1's queued job is earlier
        // *and* higher priority — fairness dominates priority across
        // shards.
        let running = job(0, 1, Priority::Normal, ShardPolicy::FairShare);
        router.enqueued(running.shard);
        let started = router.select(std::slice::from_ref(&running));
        assert_eq!(started, Some(0));
        let queued = vec![
            job(1, 1, Priority::High, ShardPolicy::FairShare),
            job(2, 2, Priority::Normal, ShardPolicy::FairShare),
        ];
        for j in &queued {
            router.enqueued(j.shard);
        }
        assert_eq!(router.select(&queued), Some(1), "shard 2 is idle");
    }

    #[test]
    fn soft_cap_defers_but_never_starves() {
        // 4 slots across a configured 2 shards → cap 2 per shard.
        let router = ShardRouter::new(4, 2);
        let hot: Vec<QueuedJob> = (0..3)
            .map(|i| job(i, 1, Priority::Normal, ShardPolicy::FairShare))
            .collect();
        for j in &hot {
            router.enqueued(j.shard);
        }
        // Two hot-shard jobs start; the third is at the cap…
        assert_eq!(router.select(&hot), Some(0));
        assert_eq!(router.select(&hot[1..]), Some(0));
        // …but with nothing else queued, work conservation runs it.
        assert_eq!(
            router.select(&hot[2..]),
            Some(0),
            "an executor must not idle while work is queued"
        );
        router.finished(hot[0].shard);

        // Back at the cap (2 active), a cold-shard job wins even
        // though the hot job outranks it on priority.
        let pool = vec![
            job(10, 1, Priority::High, ShardPolicy::FairShare),
            job(11, 2, Priority::Low, ShardPolicy::FairShare),
        ];
        for j in &pool {
            router.enqueued(j.shard);
        }
        assert_eq!(router.select(&pool), Some(1), "over-cap shard defers");
    }

    #[test]
    fn weight_cannot_jump_the_queue_within_a_shard() {
        let router = ShardRouter::new(4, 0);
        // Shard 1 busy; its queue holds an earlier High fair-share job
        // and a later Low job claiming a huge weight. The weight tilts
        // the whole *shard's* ratio, never one job's — intra-shard
        // order stays priority-then-FIFO.
        let running = job(0, 1, Priority::Normal, ShardPolicy::FairShare);
        router.enqueued(running.shard);
        router.select(std::slice::from_ref(&running));
        let pool = vec![
            job(1, 1, Priority::High, ShardPolicy::FairShare),
            job(2, 1, Priority::Low, ShardPolicy::Weighted(512.0)),
        ];
        for j in &pool {
            router.enqueued(j.shard);
        }
        assert_eq!(router.select(&pool), Some(0), "priority beats weight");
    }

    #[test]
    fn weights_tilt_the_occupancy_ratio() {
        let router = ShardRouter::new(8, 0);
        // Shard 1 (weight 4) has 2 active → ratio 0.5; shard 2
        // (weight 1) has 1 active → ratio 1.0. The weighted shard may
        // take the slot despite having more jobs in flight.
        for _ in 0..2 {
            let j = job(0, 1, Priority::Normal, ShardPolicy::Weighted(4.0));
            router.enqueued(j.shard);
            router.select(std::slice::from_ref(&j));
        }
        let j2 = job(1, 2, Priority::Normal, ShardPolicy::FairShare);
        router.enqueued(j2.shard);
        router.select(std::slice::from_ref(&j2));

        let pool = vec![
            job(2, 2, Priority::Normal, ShardPolicy::FairShare),
            job(3, 1, Priority::Normal, ShardPolicy::Weighted(4.0)),
        ];
        for j in &pool {
            router.enqueued(j.shard);
        }
        assert_eq!(router.select(&pool), Some(1));
    }

    #[test]
    fn single_queue_jobs_form_one_unsharded_group() {
        let router = ShardRouter::new(2, 2);
        // With its receptor's shard saturated, a sharded job defers —
        // but a passthrough job belongs to the (idle) unsharded group
        // and takes the slot, even against the same receptor.
        let sharded = job(0, 1, Priority::Normal, ShardPolicy::FairShare);
        router.enqueued(sharded.shard);
        router.select(std::slice::from_ref(&sharded));
        let pool = vec![
            job(1, 1, Priority::Normal, ShardPolicy::FairShare),
            job(2, 1, Priority::Low, ShardPolicy::SingleQueue),
        ];
        router.enqueued(pool[0].shard);
        router.enqueued(pool[1].shard);
        assert_eq!(router.select(&pool), Some(1));
        let snap = router.snapshot();
        assert_eq!(snap.len(), 1, "passthrough jobs never create shards");
        assert_eq!(snap[0].submitted, 2);
    }

    #[test]
    fn single_queue_cannot_monopolize_the_node() {
        // Opting out must never be a strictly-better scheduling
        // position: a busy unsharded group defers to an idle receptor
        // shard, and ties resolve by priority — so a flood of
        // passthrough submissions cannot starve sharded clients.
        let router = ShardRouter::new(2, 0);
        let running = job(0, 0, Priority::Normal, ShardPolicy::SingleQueue);
        router.enqueued(running.shard);
        router.select(std::slice::from_ref(&running)); // unsharded active: 1
        let pool = vec![
            job(1, 0, Priority::High, ShardPolicy::SingleQueue),
            job(2, 9, Priority::Low, ShardPolicy::FairShare),
        ];
        for j in &pool {
            router.enqueued(j.shard);
        }
        // live groups = unsharded (busy) + shard 9 → cap 1: the
        // passthrough backlog is at its cap, the idle shard wins.
        assert_eq!(router.select(&pool), Some(1));

        // At equal occupancy (both groups busy), priority decides —
        // the passthrough job holds no trump card.
        let tie = vec![
            job(3, 0, Priority::Low, ShardPolicy::SingleQueue),
            job(4, 9, Priority::High, ShardPolicy::FairShare),
        ];
        for j in &tie {
            router.enqueued(j.shard);
        }
        assert_eq!(router.select(&tie), Some(1));
    }

    #[test]
    fn snapshot_reports_depth_and_occupancy() {
        let router = ShardRouter::new(4, 0);
        let a = job(0, 10, Priority::Normal, ShardPolicy::FairShare);
        let b1 = job(1, 20, Priority::Normal, ShardPolicy::Weighted(2.0));
        let b2 = job(2, 20, Priority::Normal, ShardPolicy::Weighted(2.0));
        for j in [&a, &b1, &b2] {
            router.enqueued(j.shard);
        }
        router.select(std::slice::from_ref(&a)); // a starts
        let snap = router.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            (
                snap[0].key,
                snap[0].active,
                snap[0].queued,
                snap[0].submitted
            ),
            (10, 1, 0, 1)
        );
        assert_eq!(
            (snap[1].key, snap[1].active, snap[1].queued, snap[1].weight),
            (20, 0, 2, 2.0)
        );
        router.finished(a.shard);
        let snap = router.snapshot();
        assert_eq!(snap[0].active, 0);
        assert_eq!(snap.len(), 2, "drained shards stay visible in stats");
    }

    #[test]
    fn drained_shard_retention_is_bounded_and_live_shards_survive() {
        let router = ShardRouter::new(2, 0);
        // A client looping over distinct receptors: every key drains
        // (enqueue → start → finish) before the next arrives.
        for key in 0..(MAX_RETAINED_SHARDS as u64 + 40) {
            let j = job(key, key + 1, Priority::Normal, ShardPolicy::FairShare);
            router.enqueued(j.shard);
            router.select(std::slice::from_ref(&j));
            router.finished(j.shard);
        }
        let snap = router.snapshot();
        assert_eq!(snap.len(), MAX_RETAINED_SHARDS, "history is capped");
        // The coldest entries went first: the earliest keys are gone,
        // the most recent survive.
        assert!(snap.iter().all(|s| s.key > 40));

        // A live (still-active) shard is never pruned, no matter how
        // much colder it is than the churn around it.
        let live = job(9999, 0xdead_beef, Priority::Normal, ShardPolicy::FairShare);
        router.enqueued(live.shard);
        router.select(std::slice::from_ref(&live)); // stays active
        for key in 0..(MAX_RETAINED_SHARDS as u64 + 10) {
            let j = job(
                key,
                0x1_0000 + key,
                Priority::Normal,
                ShardPolicy::FairShare,
            );
            router.enqueued(j.shard);
            router.select(std::slice::from_ref(&j));
            router.finished(j.shard);
        }
        assert!(
            router
                .snapshot()
                .iter()
                .any(|s| s.key == 0xdead_beef && s.active == 1),
            "live shards must survive retention pruning"
        );
    }

    #[test]
    fn shard_info_keys_by_receptor_content() {
        let with_receptor = |seed| JobSpec {
            receptor: Arc::new(mudock_molio::synthetic_receptor(seed, 30, 5.0)),
            ..JobSpec::default()
        };
        let (a, b, a2) = (with_receptor(1), with_receptor(2), with_receptor(1));
        assert_eq!(shard_info(&a).key, shard_info(&a2).key);
        assert_ne!(shard_info(&a).key, shard_info(&b).key);
        assert!(shard_info(&a).sharded);
        assert_eq!(shard_info(&a).weight, 1.0);
    }
}
