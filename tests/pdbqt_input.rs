//! PDBQT text from outside: bytes that are not ASCII inside the fixed
//! columns are a typed parse error (a skipped library model, a refused
//! receptor), never a panic; the writer keeps its columns past serial
//! 999; and bond perception on a cell grid finds exactly the bonds, in
//! the order, of the all-pairs test it replaced.

use std::sync::Arc;

use mudock::core::{Campaign, ChunkPolicy};
use mudock::ff::types::AtomType;
use mudock::grids::GridDims;
use mudock::mol::{Atom, Bond, Molecule, Vec3};
use mudock::molio::pdbqt::BOND_TOLERANCE;
use mudock::molio::{mediate_like_set, parse, perceive_bonds, synthetic_receptor, write};
use mudock::serve::net::client::Client;
use mudock::serve::wire::{self, Json};
use mudock::serve::{
    JobSpec, JobState, LigandSource, NetConfig, NetServer, Priority, ReceptorSource, ScreenService,
    ServeConfig,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `text` with bytes `at` and `at + 1` replaced by `é` (two bytes, so
/// every column stays where it was), so a column boundary at `at + 1`
/// falls inside the character.
fn with_e_acute_at(text: &str, at: usize) -> String {
    format!("{}é{}", &text[..at], &text[at + 2..])
}

fn one_ligand() -> String {
    write(&mediate_like_set(3, 1).pop().unwrap())
}

/// The first ATOM line of `text` with `é` at byte `at` of it.
fn poisoned(text: &str, at: usize) -> String {
    let mut done = false;
    text.lines()
        .map(|line| {
            if !done && line.starts_with("ATOM") {
                done = true;
                assert!(line.len() >= 78, "a fixed-column line: {line:?}");
                with_e_acute_at(line, at)
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn non_ascii_bytes_in_fixed_columns_are_a_parse_error() {
    let text = one_ligand();
    // Inside the serial, x, y, z and charge columns and at the type.
    for at in [10, 29, 37, 45, 53, 75, 76] {
        let e = parse(&poisoned(&text, at)).expect_err("a cut character cannot parse");
        assert!(e.line >= 1, "at byte {at}: {e}");
        assert!(e.message.contains("non-ASCII"), "at byte {at}: {e}");
    }
    // Outside every column that is read, the byte is harmless.
    assert!(parse(&poisoned(&text, 14)).is_ok());
}

fn tiny_campaign() -> mudock::core::CampaignSpec {
    Campaign::builder()
        .name("pdbqt-input")
        .population(8)
        .generations(2)
        .seed(42)
        .search_radius(3.0)
        .top_k(3)
        .chunk(ChunkPolicy::Fixed(2))
        .grid_dims(GridDims::centered(Vec3::ZERO, 6.0, 1.0))
        .build()
        .expect("the test campaign is valid")
}

#[test]
fn an_inline_library_skips_a_model_with_non_ascii_columns() {
    let good = one_ligand();
    let bad = poisoned(&good, 10);
    let library = format!("MODEL 1\n{good}ENDMDL\nMODEL 2\n{bad}ENDMDL\nMODEL 3\n{good}ENDMDL\n");
    let service = ScreenService::start(ServeConfig {
        total_threads: 1,
        job_slots: 1,
        ..ServeConfig::default()
    });
    let outcome = service
        .submit(JobSpec {
            receptor: Arc::new(synthetic_receptor(7, 40, 5.0)),
            ligands: LigandSource::from_pdbqt(library),
            ..JobSpec::from(tiny_campaign())
        })
        .expect("queued")
        .wait();
    assert_eq!(outcome.state, JobState::Completed, "{:?}", outcome.error);
    assert_eq!(outcome.ligands_done, 2, "the poisoned model is skipped");
    service.shutdown();
}

#[test]
fn an_inline_receptor_with_non_ascii_columns_is_refused_like_any_malformed_one() {
    let service = Arc::new(ScreenService::start(ServeConfig {
        total_threads: 1,
        job_slots: 1,
        ..ServeConfig::default()
    }));
    let results_dir =
        std::env::temp_dir().join(format!("mudock-pdbqt-input-{}", std::process::id()));
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            results_dir: results_dir.clone(),
            ..NetConfig::default()
        },
    )
    .expect("loopback bind");
    let receptor = write(&synthetic_receptor(7, 40, 5.0));
    let mut client = Client::new(server.local_addr().to_string());
    let mut refusal = |text: String| {
        let body = wire::submission_to_json(
            &tiny_campaign(),
            &ReceptorSource::Pdbqt(text),
            &LigandSource::synth(1, 2),
            Priority::Normal,
        )
        .unwrap()
        .encode();
        let reply = client
            .request("POST", "/jobs", Some(&body))
            .expect("exchange");
        let error = wire::parse(&reply.body)
            .ok()
            .and_then(|v| v.get("error").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_else(|| panic!("not the wire error shape: {}", reply.body));
        (reply.status, error)
    };
    let (status, error) = refusal(poisoned(&receptor, 10));
    assert!(
        error.contains("receptor.pdbqt") && error.contains("non-ASCII"),
        "{error}"
    );
    // The same answer a receptor with an unreadable coordinate gets.
    let mut bad_x = receptor.clone();
    let at = bad_x.find("ATOM").unwrap() + 32;
    bad_x.replace_range(at..at + 1, "x");
    let (bad_x_status, bad_x_error) = refusal(bad_x);
    assert!(bad_x_error.contains("bad x"), "{bad_x_error}");
    assert_eq!(status, bad_x_status);
    assert_eq!(status, 400);
    assert!(client.healthy(), "the node keeps serving");
    drop(client);
    server.shutdown();
    service.shutdown();
    std::fs::remove_dir_all(&results_dir).ok();
}

fn bonds(m: &Molecule) -> Vec<(u32, u32, bool)> {
    m.bonds.iter().map(|b| (b.i, b.j, b.rotatable)).collect()
}

fn assert_same_atoms(a: &Molecule, b: &Molecule) {
    assert_eq!(a.atoms.len(), b.atoms.len());
    for (i, (x, y)) in a.atoms.iter().zip(&b.atoms).enumerate() {
        assert_eq!(x.ty, y.ty, "atom {i}");
        assert!(
            (x.pos - y.pos).norm() < 1e-3,
            "atom {i}: {:?} vs {:?}",
            x.pos,
            y.pos
        );
        assert!((x.charge - y.charge).abs() < 1e-3, "atom {i}");
    }
}

#[test]
fn a_written_receptor_of_1500_atoms_reads_back() {
    let receptor = synthetic_receptor(11, 1500, 12.0);
    let text = write(&receptor);
    for line in text.lines().filter(|l| l.starts_with("ATOM")) {
        assert_eq!(&line[16..21], " LIG ", "name column overflow: {line:?}");
    }
    let back = parse(&text).expect("reads back");
    assert_same_atoms(&receptor, &back);

    // Two-letter elements leave two digits for the serial.
    let mut halides = Molecule::new("halides");
    for i in 0..1200 {
        let ty = [AtomType::Cl, AtomType::Br, AtomType::C][i % 3];
        let pos = Vec3::new(
            (i % 10) as f32 * 3.0,
            (i / 10 % 10) as f32 * 3.0,
            (i / 100) as f32 * 3.0,
        );
        halides.atoms.push(Atom::new(pos, ty, -0.125));
    }
    halides.bonds.push(Bond::new(0, 1199, true));
    let back = parse(&write(&halides)).expect("reads back");
    assert_same_atoms(&halides, &back);
    assert_eq!(bonds(&back), bonds(&halides));
}

/// The test bond perception used to run: every pair, in `(i, j)` order.
fn all_pairs(atoms: &[Atom]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for i in 0..atoms.len() {
        for j in (i + 1)..atoms.len() {
            let (a, b) = (&atoms[i], &atoms[j]);
            let max_d = a.ty.covalent_radius() + b.ty.covalent_radius() + BOND_TOLERANCE;
            if a.pos.distance(b.pos) <= max_d {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

#[test]
fn grid_bond_perception_finds_the_all_pairs_bonds_in_order() {
    let mut rng = StdRng::seed_from_u64(0xb0d5);
    for case in 0..60 {
        let n = match case {
            0..=2 => case,
            _ => rng.random_range(3..700),
        };
        // Dense clumps, a uniform gas, a long thin rod, a huge spread.
        let extent = [2.0f32, 15.0, 60.0, 1.0e6][case % 4];
        let mut mol = Molecule::new("random");
        for k in 0..n {
            let ty = AtomType::ALL[rng.random_range(0..AtomType::ALL.len())];
            let mut p = Vec3::new(
                rng.random_range(-extent..extent),
                rng.random_range(-extent..extent) * if case % 4 == 2 { 0.02 } else { 1.0 },
                rng.random_range(-extent..extent),
            );
            match k % 97 {
                13 => p.x = f32::NAN,
                29 => p.y = f32::INFINITY,
                41 if k > 0 => p = mol.atoms[k - 1].pos, // a duplicate position
                _ => {}
            }
            mol.atoms.push(Atom::new(p, ty, 0.0));
        }
        let want = all_pairs(&mol.atoms);
        perceive_bonds(&mut mol);
        let got: Vec<(u32, u32)> = mol.bonds.iter().map(|b| (b.i, b.j)).collect();
        assert_eq!(got, want, "case {case}: {n} atoms over ±{extent}");
        assert!(mol.bonds.iter().all(|b| !b.rotatable));
    }
    // A real receptor, too.
    let mut receptor = synthetic_receptor(5, 1500, 12.0);
    let want = all_pairs(&receptor.atoms);
    assert!(!want.is_empty());
    perceive_bonds(&mut receptor);
    let got: Vec<(u32, u32)> = receptor.bonds.iter().map(|b| (b.i, b.j)).collect();
    assert_eq!(got, want);
}
