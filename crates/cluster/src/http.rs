//! The coordinator's tier of the job API.
//!
//! The routes, status codes, content types, submission checks, job
//! table and retention are `serve::net`'s own ([`JobTier`] says what a
//! tier may supply), mounted on the same frontend a node runs — so a
//! client cannot tell it is not talking to a single `mudock serve`,
//! bar `"role":"coordinator"` and a `/stats` that describes members
//! instead of shards. Nothing here blocks the event loop: a started
//! submission fans out on its own gather thread
//! ([`scatter::run`]), and reads are lock-scoped views of a [`ClusterJob`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mudock_grids::grid_cache_key;
use mudock_mol::Molecule;
use mudock_serve::wire::{JobStatus, Json, Submission};
use mudock_serve::{Body, JobId, JobTier};

use crate::scatter::{self, ClusterJob, Gather};
use crate::ClusterConfig;

/// Everything the coordinator's side of a request can reach.
pub(crate) struct CoordinatorTier {
    pub gather: Arc<Gather>,
    pub cfg: ClusterConfig,
    pub next_id: AtomicU64,
    /// Boot-random coordinator identity, as `/healthz` serves it.
    pub node_id: u64,
}

impl JobTier for CoordinatorTier {
    type Job = ClusterJob;

    const ROLE: Option<&'static str> = Some("coordinator");

    fn stats(&self) -> Json {
        let members: Vec<Json> = self
            .gather
            .membership
            .snapshot()
            .into_iter()
            .map(|m| {
                Json::Obj(vec![
                    ("addr".into(), Json::str(m.addr)),
                    ("state".into(), Json::str(m.state.name())),
                    (
                        "node".into(),
                        match m.node {
                            Some(id) => Json::str(format!("{id:016x}")),
                            None => Json::Null,
                        },
                    ),
                    (
                        "consecutive_failures".into(),
                        Json::u64(m.consecutive_failures as u64),
                    ),
                    ("restarts".into(), Json::u64(m.restarts)),
                    ("inflight".into(), Json::usize(m.inflight)),
                    ("stats_generation".into(), Json::u64(m.stats_generation)),
                    ("shard_count".into(), Json::usize(m.shard_count)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("role".into(), Json::str("coordinator")),
            ("node".into(), Json::str(format!("{:016x}", self.node_id))),
            ("members".into(), Json::Arr(members)),
        ])
    }

    fn start(
        &self,
        sub: Submission,
        receptor: Arc<Molecule>,
    ) -> Result<(JobId, Arc<ClusterJob>), String> {
        // The receptor was loaded coordinator-side purely to compute the
        // same grid fingerprint members publish in their shard tables —
        // that key is what affinity routing matches on. The receptor
        // *source* (not the parsed molecule) is what gets forwarded.
        let fingerprint = grid_cache_key(&receptor, &sub.campaign.dims_for(&receptor));
        drop(receptor);

        let alive = self.gather.membership.alive();
        if alive.is_empty() {
            return Err("no cluster members are alive".into());
        }
        // Scatter only whole-stream submissions with a known length; a
        // pre-sliced submission (another coordinator upstream?) passes
        // through as a single part.
        let slices = match sub.slice {
            Some(s) => vec![Some(s)],
            None => scatter::plan_slices(
                sub.ligands.len_hint(),
                alive.len().min(self.cfg.max_parts.max(1)),
                self.cfg.scatter_min_ligands,
            ),
        };

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(ClusterJob::new(
            id,
            sub.campaign.name.clone(),
            sub.campaign.top_k,
            slices,
        ));
        self.gather.metrics.jobs_submitted.inc();

        let (runner_job, gather) = (Arc::clone(&job), Arc::clone(&self.gather));
        std::thread::Builder::new()
            .name(format!("cluster-job-{id}"))
            .spawn(move || scatter::run(runner_job, sub, fingerprint, &gather))
            .ok();
        Ok((id, job))
    }

    /// Node clients (`client::Client::wait`) work against the
    /// coordinator unchanged. Stage timings are a node-level concept —
    /// per-part timings live on the members — so they read as empty.
    fn status(&self, job: &ClusterJob) -> JobStatus {
        job.status()
    }

    fn is_terminal(&self, job: &ClusterJob) -> bool {
        job.is_terminal()
    }

    fn results(&self, job: &ClusterJob) -> std::io::Result<Body> {
        Ok(Body::Text(job.results()))
    }

    fn cancel(&self, job: &ClusterJob) {
        job.cancel();
    }
}
