//! The network API in one process: bind the HTTP frontend on a loopback
//! socket, then drive it exactly as a remote client would — submit a
//! campaign, poll for progress, stream the JSONL results, and read the
//! service stats.
//!
//! ```text
//! cargo run --release --example net_client
//! ```
//!
//! Two-process form of the same loop (any HTTP client works — the API
//! is plain JSON over HTTP/1.1):
//!
//! ```text
//! mudock serve --listen 127.0.0.1:7979           # terminal A
//! mudock submit --addr 127.0.0.1:7979 --demo 16  # terminal B → prints the id
//! mudock poll --addr 127.0.0.1:7979 1 --wait
//! mudock poll --addr 127.0.0.1:7979 1 --results
//! ```

use std::sync::Arc;

use mudock::core::{Campaign, ChunkPolicy};
use mudock::grids::GridDims;
use mudock::mol::Vec3;
use mudock::serve::net::client::Client;
use mudock::serve::{
    LigandSource, NetConfig, NetServer, Priority, ReceptorSource, ScreenService, ServeConfig,
};

fn main() {
    // A screening node: the docking service plus its network frontend.
    let service = Arc::new(ScreenService::start(ServeConfig {
        total_threads: mudock::pool::default_threads(),
        ..ServeConfig::default()
    }));
    let mut server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("loopback bind");
    let addr = server.local_addr().to_string();
    println!("node listening on {addr}");

    // The client side: a validated campaign, a receptor, and a ligand
    // stream — all of it serialized by the wire codec, nothing shared
    // in-process.
    let campaign = Campaign::builder()
        .name("net-demo")
        .population(12)
        .generations(8)
        .seed(7)
        .search_radius(4.0)
        .top_k(5)
        .chunk(ChunkPolicy::Fixed(4))
        .grid_dims(GridDims::centered(Vec3::ZERO, 11.0, 0.6))
        .build()
        .expect("a valid campaign");
    // One keep-alive connection for the whole session.
    let mut client = Client::new(&addr);
    let id = client
        .submit(
            &campaign,
            &ReceptorSource::Synth {
                seed: 0xd0c6,
                atoms: 300,
                radius: 9.0,
            },
            &LigandSource::synth(7, 20),
            Priority::Normal,
        )
        .expect("submit over the socket");
    println!("submitted job {id}");

    // Poll until terminal, showing progress as it stands each time the
    // server answers: at the latest after `POLL_WAIT` (1 s), and at
    // once when the job ends.
    loop {
        let status = client.poll(id).expect("poll");
        println!(
            "  job {id}: {} ({} ligands, {} chunks)",
            mudock::serve::wire::state_name(status.state),
            status.ligands_done,
            status.chunks_done
        );
        if status.is_terminal() {
            let outcome = status.outcome.expect("terminal outcome");
            println!("top {} ligands:", outcome.top.len());
            for (rank, r) in outcome.top.iter().enumerate() {
                println!("  {:>3}  {:<34} {:>10.3}", rank + 1, r.name, r.score);
            }
            break;
        }
    }

    // The per-ligand stream the job wrote while running.
    let results = client.results(id).expect("results");
    println!("{} JSONL result lines", results.lines().count());

    let stats = client.request("GET", "/stats", None).expect("stats").body;
    println!("stats: {stats}");

    server.shutdown();
    service.shutdown();
}
