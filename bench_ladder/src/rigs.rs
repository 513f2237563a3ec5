//! The four ways a job stream is docked: bare in process, through a
//! `ScreenService`, over the wire to a `NetServer`, and through a
//! `cluster::Coordinator` in front of member nodes. Each is a [`Rig`]
//! whose `pass` is one rep; the end-to-end runs and the ladder share
//! them.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mudock_cluster::{ClusterConfig, Coordinator};
use mudock_core::{screen, screen_campaign};
use mudock_grids::{GridBuilder, GridSet, SimdLevel};
use mudock_obs::StageTimings;
use mudock_serve::net::client::Client;
use mudock_serve::{
    JobSpec, JobState, NetConfig, NetServer, Priority, ScreenService, ServeConfig, SpillConfig,
};

use crate::inputs::Job;
use crate::oracle::{ranking_of_summary, ranking_of_top, Ranking};
use crate::replay::dock_traced;
use crate::spec::{CACHE_CAPACITY, CLUSTER_MEMBERS, POLL_INTERVAL, SPILL_CAPACITY};
use crate::trace::Recorder;

/// One way of docking a fixed job stream. `pass` is one rep: it docks
/// every job once, in order, one at a time (a closed loop with one
/// client), and returns each job's ranking.
pub trait Rig {
    fn pass(&mut self, rec: &Recorder) -> Result<Vec<Ranking>, String>;

    /// Stage timings of the jobs docked so far (empty for a rig with
    /// no service behind it).
    fn stages(&self) -> &[StageTimings] {
        &[]
    }
}

pub fn ligands_per_pass(jobs: &[Job]) -> usize {
    jobs.iter().map(|j| j.ligands.len()).sum()
}

/// Built grid sets of a run, by receptor and build level.
#[derive(Default)]
pub struct GridPool {
    built: Vec<((usize, SimdLevel), Arc<GridSet>)>,
}

impl GridPool {
    /// The grids `job` docks on at `level`, built on first use exactly
    /// as the service's cache builds them (all maps).
    pub fn get(&mut self, job: &Job, level: SimdLevel) -> Arc<GridSet> {
        let key = (job.receptor_index, level);
        if let Some((_, g)) = self.built.iter().find(|(k, _)| *k == key) {
            return Arc::clone(g);
        }
        let grids = Arc::new(GridBuilder::new(&job.receptor, job.dims()).build_simd(level));
        self.built.push((key, Arc::clone(&grids)));
        grids
    }
}

/// In-process `core::screen` of one job on pre-built grids. Under a
/// recording [`Recorder`] the same job is docked by the harness-side
/// replay instead, which is where the GA-level spans come from.
pub struct DockRig {
    pub grids: Arc<GridSet>,
    pub job: Job,
    pub threads: usize,
}

impl Rig for DockRig {
    fn pass(&mut self, rec: &Recorder) -> Result<Vec<Ranking>, String> {
        let params = self.job.campaign.dock_params();
        if rec.enabled() {
            let (ranking, _) = dock_traced(&self.grids, &self.job.ligands, &params, rec, false)?;
            return Ok(vec![ranking]);
        }
        let summary = screen(&self.grids, &self.job.ligands, &params, self.threads);
        Ok(vec![ranking_of_summary(&summary)])
    }
}

/// The ladder's bottom rung: `core::screen_campaign` per job, on grids
/// built beforehand.
pub struct BareRig {
    pub jobs: Vec<(Job, Arc<GridSet>)>,
    pub threads: usize,
}

impl Rig for BareRig {
    fn pass(&mut self, rec: &Recorder) -> Result<Vec<Ranking>, String> {
        Ok(self
            .jobs
            .iter()
            .map(|(job, grids)| {
                let summary = rec.span("core.screen_campaign", || {
                    screen_campaign(grids, &job.ligands, &job.campaign, self.threads)
                });
                ranking_of_summary(&summary)
            })
            .collect())
    }
}

fn serve_config(dir: &Path, threads: usize) -> ServeConfig {
    ServeConfig {
        total_threads: threads,
        cache_capacity: CACHE_CAPACITY,
        spill: Some(SpillConfig {
            dir: dir.join("spill"),
            capacity: SPILL_CAPACITY,
        }),
        ..ServeConfig::default()
    }
}

fn start_service(dir: &Path, threads: usize) -> Result<Arc<ScreenService>, String> {
    ScreenService::try_start(serve_config(dir, threads))
        .map(Arc::new)
        .map_err(|e| format!("service start in {}: {e}", dir.display()))
}

/// In-process `ScreenService`, no socket.
pub struct ServiceRig {
    pub service: Arc<ScreenService>,
    jobs: Vec<Job>,
    stages: Vec<StageTimings>,
}

impl ServiceRig {
    pub fn start(dir: &Path, jobs: Vec<Job>, threads: usize) -> Result<ServiceRig, String> {
        Ok(ServiceRig {
            service: start_service(dir, threads)?,
            jobs,
            stages: Vec::new(),
        })
    }
}

impl Rig for ServiceRig {
    fn pass(&mut self, rec: &Recorder) -> Result<Vec<Ranking>, String> {
        let mut rankings = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let handle = rec
                .span("service.submit", || {
                    self.service.submit(JobSpec {
                        receptor: Arc::clone(&job.receptor),
                        ligands: job.source.clone(),
                        ..JobSpec::from(job.campaign.clone())
                    })
                })
                .map_err(|e| format!("submit refused: {e:?}"))?;
            let outcome = rec.span("service.wait", || handle.wait());
            if outcome.state != JobState::Completed {
                return Err(format!(
                    "job {} ended {:?}: {:?}",
                    outcome.name, outcome.state, outcome.error
                ));
            }
            self.stages.push(handle.stage_timings());
            rankings.push(ranking_of_top(&outcome.top));
        }
        Ok(rankings)
    }

    fn stages(&self) -> &[StageTimings] {
        &self.stages
    }
}

impl Drop for ServiceRig {
    fn drop(&mut self) {
        self.service.shutdown();
    }
}

/// A `ScreenService` behind a `NetServer` on an ephemeral loopback
/// port, with one event loop.
pub struct Node {
    pub service: Arc<ScreenService>,
    server: NetServer,
}

impl Node {
    pub fn start(dir: &Path, threads: usize) -> Result<Node, String> {
        let service = start_service(dir, threads)?;
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig {
                results_dir: dir.join("results"),
                event_loops: 1,
                ..NetConfig::default()
            },
        )
        .map_err(|e| format!("loopback bind: {e}"))?;
        Ok(Node { service, server })
    }

    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.server.shutdown();
        self.service.shutdown();
    }
}

/// One client thread on one keep-alive connection: submit, poll until
/// terminal, fetch the results.
struct WireClient {
    client: Client,
    jobs: Vec<Job>,
    stages: Vec<StageTimings>,
}

impl WireClient {
    fn new(addr: String, jobs: Vec<Job>) -> WireClient {
        WireClient {
            client: Client::new(addr),
            jobs,
            stages: Vec::new(),
        }
    }

    fn pass(&mut self, rec: &Recorder) -> Result<Vec<Ranking>, String> {
        let mut rankings = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let client = &mut self.client;
            let id = rec
                .span("net.submit", || {
                    client.submit(
                        &job.campaign,
                        &job.receptor_source,
                        &job.source,
                        Priority::Normal,
                    )
                })
                .map_err(|e| format!("submit: {e:?}"))?;
            // A status can name a terminal state and carry no outcome:
            // the server reads the outcome before the state, and the job
            // may finish in between. Such a status is not final yet.
            let (status, outcome) = loop {
                let mut status = rec
                    .span("net.poll", || client.poll(id))
                    .map_err(|e| format!("poll: {e:?}"))?;
                if let Some(outcome) = status.outcome.take() {
                    break (status, outcome);
                }
                if !status.is_terminal() {
                    rec.span("client.sleep", || std::thread::sleep(POLL_INTERVAL));
                }
            };
            let body = rec
                .span("net.results", || client.results(id))
                .map_err(|e| format!("results: {e:?}"))?;
            if status.state != JobState::Completed {
                return Err(format!("job {id} ended {:?}", status.state));
            }
            if body.lines().count() != job.ligands.len() {
                return Err(format!(
                    "job {id}: {} result lines for {} ligands",
                    body.lines().count(),
                    job.ligands.len()
                ));
            }
            self.stages.extend(status.stages);
            rankings.push(ranking_of_top(&outcome.top));
        }
        Ok(rankings)
    }
}

/// The whole wire path: `NetServer` + `net::client::Client`.
pub struct NetRig {
    wire: WireClient,
    pub node: Node,
}

impl NetRig {
    pub fn start(dir: &Path, jobs: Vec<Job>, threads: usize) -> Result<NetRig, String> {
        let node = Node::start(dir, threads)?;
        Ok(NetRig {
            wire: WireClient::new(node.addr(), jobs),
            node,
        })
    }
}

impl Rig for NetRig {
    fn pass(&mut self, rec: &Recorder) -> Result<Vec<Ranking>, String> {
        self.wire.pass(rec)
    }

    fn stages(&self) -> &[StageTimings] {
        &self.wire.stages
    }
}

/// The ladder's top rung: a coordinator scattering every job over
/// [`CLUSTER_MEMBERS`] member nodes, which share the docking threads.
pub struct ClusterRig {
    wire: WireClient,
    coordinator: Option<Coordinator>,
    pub members: Vec<Node>,
}

impl ClusterRig {
    pub fn start(dir: &Path, jobs: Vec<Job>, threads: usize) -> Result<ClusterRig, String> {
        let per_member = (threads / CLUSTER_MEMBERS).max(1);
        let members = (0..CLUSTER_MEMBERS)
            .map(|m| Node::start(&dir.join(format!("member-{m}")), per_member))
            .collect::<Result<Vec<Node>, String>>()?;
        let coordinator = Coordinator::bind(
            "127.0.0.1:0",
            ClusterConfig {
                nodes: members.iter().map(Node::addr).collect(),
                health_interval: Duration::from_millis(50),
                scatter_min_ligands: 2,
                poll_interval: POLL_INTERVAL,
                event_loops: 1,
                ..ClusterConfig::default()
            },
        )
        .map_err(|e| format!("coordinator bind: {e}"))?;
        Ok(ClusterRig {
            wire: WireClient::new(coordinator.local_addr().to_string(), jobs),
            coordinator: Some(coordinator),
            members,
        })
    }

    /// Jobs the members have accepted so far: the coordinator's
    /// sub-jobs.
    pub fn subjobs(&self) -> u64 {
        self.members
            .iter()
            .map(|m| m.service.stats().jobs_submitted)
            .sum()
    }
}

impl Rig for ClusterRig {
    fn pass(&mut self, rec: &Recorder) -> Result<Vec<Ranking>, String> {
        self.wire.pass(rec)
    }
}

impl Drop for ClusterRig {
    fn drop(&mut self) {
        if let Some(c) = self.coordinator.take() {
            c.shutdown();
        }
    }
}

/// A fresh directory under `root` for one rig.
pub fn rig_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
