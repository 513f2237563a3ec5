//! Property tests on the wire codec: every [`CampaignSpec`] the builder
//! accepts must survive `CampaignSpec → JSON text → CampaignSpec`
//! unchanged — across all [`StopPolicy`]/[`ChunkPolicy`]/
//! [`BackendPolicy`] variants — and malformed input must be rejected
//! with the right [`WireError`] class (never a panic, never a silently
//! defaulted field).

use std::time::Duration;

use mudock_core::{
    Backend, BackendPolicy, Campaign, CampaignError, CampaignSpec, ChunkPolicy, GaParams,
    SolisWetsParams, StopPolicy, MAX_CHUNK,
};
use mudock_grids::GridDims;
use mudock_mol::Vec3;
use mudock_serve::wire::{self, WireError};
use mudock_simd::SimdLevel;
use proptest::prelude::*;

fn backend_policy() -> impl Strategy<Value = BackendPolicy> {
    // Only host-supported pins: the builder (rightly) refuses the rest,
    // and round-tripping starts from a *valid* spec.
    let mut options = vec![
        BackendPolicy::Detect,
        BackendPolicy::Fixed(Backend::Reference),
        BackendPolicy::Fixed(Backend::AutoVec),
    ];
    for l in SimdLevel::available() {
        options.push(BackendPolicy::Fixed(Backend::Explicit(l)));
    }
    prop::sample::select(options)
}

fn stop_policy() -> impl Strategy<Value = StopPolicy> {
    prop_oneof!(
        (0u64..2).prop_map(|_| StopPolicy::Complete),
        (1u64..u64::MAX).prop_map(StopPolicy::MaxEvaluations),
        (1u64..300_000_000_000u64).prop_map(|ns| StopPolicy::Deadline(Duration::from_nanos(ns))),
        (1usize..64, 0.0f32..4.0)
            .prop_map(|(window, epsilon)| StopPolicy::RankingStable { window, epsilon }),
    )
}

fn chunk_policy() -> impl Strategy<Value = ChunkPolicy> {
    prop_oneof!(
        (1usize..=MAX_CHUNK).prop_map(ChunkPolicy::Fixed),
        (1u64..120_000_000_000u64).prop_map(|ns| ChunkPolicy::Adaptive {
            target: Duration::from_nanos(ns),
        }),
    )
}

fn ga_params() -> impl Strategy<Value = GaParams> {
    (
        (2usize..500, 1usize..2000, 1usize..8),
        (0.0f32..1.0, 0.0f32..1.0),
        (0.01f32..2.0, 0.01f32..1.0, 0.01f32..2.0),
        0usize..2,
    )
        .prop_map(
            |((population, generations, tournament), (crossover, mutation), sigmas, elitism)| {
                GaParams {
                    population,
                    generations,
                    tournament,
                    crossover_rate: crossover,
                    mutation_rate: mutation,
                    sigma_translation: sigmas.0,
                    sigma_rotation: sigmas.1,
                    sigma_torsion: sigmas.2,
                    elitism: elitism.min(population - 1),
                }
            },
        )
}

fn campaign_spec() -> impl Strategy<Value = CampaignSpec> {
    (
        (0u64..u64::MAX, 1usize..200),
        ga_params(),
        backend_policy(),
        stop_policy(),
        chunk_policy(),
        (0u64..4, 0.5f32..20.0, 0u64..4, 5.0f32..14.0),
    )
        .prop_map(
            |(
                (seed, top_k),
                ga,
                backend,
                stop,
                chunk,
                (with_radius, radius, with_dims, extent),
            )| {
                let mut b = Campaign::builder()
                    .name(format!("prop-{seed:x}"))
                    .seed(seed)
                    .top_k(top_k)
                    .ga(ga)
                    .backend(backend)
                    .stop(stop)
                    .chunk(chunk);
                if with_radius == 0 {
                    b = b.search_radius(radius);
                }
                if with_dims == 0 {
                    b = b.grid_dims(GridDims::centered(
                        Vec3::new(extent - 9.0, 0.25 * extent, -extent),
                        extent,
                        0.375 + extent / 40.0,
                    ));
                }
                if with_dims == 1 {
                    b = b.local_search(SolisWetsParams {
                        max_evals: 50 + top_k,
                        fraction: (radius / 20.0).min(1.0),
                        ..SolisWetsParams::default()
                    });
                }
                b.build().expect("generated campaigns are valid")
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn campaign_specs_round_trip_exactly(spec in campaign_spec()) {
        let text = wire::campaign_to_json(&spec).encode();
        let parsed = wire::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{text}: {e}")))?;
        let back = wire::campaign_from_json(&parsed)
            .map_err(|e| TestCaseError::fail(format!("{text}: {e}")))?;
        // CampaignSpec is PartialEq over every field, so this covers
        // the GA shape, all three policies (incl. exact Duration nanos
        // and f32 epsilon bits), seed, top-k, radius, and dims.
        prop_assert_eq!(&back, &spec, "wire text: {}", text);
        // And a second trip is a fixed point (no drift on re-encode).
        let text2 = wire::campaign_to_json(&back).encode();
        prop_assert_eq!(text2, text);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(bytes in prop::collection::vec(0u32..128, 0..200)) {
        let text: String = bytes.iter().filter_map(|&b| char::from_u32(b)).collect();
        // Must return, never panic; success is fine (the text may
        // happen to be valid JSON).
        let _ = wire::parse(&text);
    }

    #[test]
    fn json_escape_output_always_reparses(bytes in prop::collection::vec(0u32..0x11_0000, 0..60)) {
        let s: String = bytes.iter().filter_map(|&b| char::from_u32(b)).collect();
        let encoded = wire::Json::str(s.clone()).encode();
        let back = wire::parse(&encoded)
            .map_err(|e| TestCaseError::fail(format!("{encoded:?}: {e}")))?;
        prop_assert_eq!(back, wire::Json::Str(s));
    }
}

/// `{"pinned": L}` is the spelling older clients send for
/// `{"fixed": L}`: it decodes to the same policy and re-encodes in the
/// `fixed` form.
#[test]
fn pinned_decodes_as_an_alias_of_fixed() {
    let decode = |backend: &str| {
        let text = format!(r#"{{"name": "alias", "backend": {backend}}}"#);
        wire::campaign_from_json(&wire::parse(&text).unwrap()).unwrap()
    };
    let pinned = decode(r#"{"pinned": "scalar"}"#);
    assert_eq!(
        pinned.backend,
        BackendPolicy::Fixed(Backend::Explicit(SimdLevel::Scalar))
    );
    assert_eq!(pinned, decode(r#"{"fixed": "scalar"}"#));
    let text = wire::campaign_to_json(&pinned).encode();
    assert!(text.contains(r#""backend":{"fixed":"scalar"}"#), "{text}");
}

/// Malformed submissions must map onto the documented [`WireError`]
/// classes — and thereby the right HTTP status.
#[test]
fn malformed_inputs_map_to_the_right_wire_errors() {
    type Case = (&'static str, fn(&WireError) -> bool, u16);
    // (body, expected-class check, http status)
    let cases: Vec<Case> = vec![
        // Not JSON at all → Syntax → 400.
        ("{]", |e| matches!(e, WireError::Syntax { .. }), 400),
        ("", |e| matches!(e, WireError::Syntax { .. }), 400),
        // Structurally JSON, required members absent → Missing → 400.
        (
            "{}",
            |e| matches!(e, WireError::Missing { field: "campaign" }),
            400,
        ),
        (
            r#"{"campaign": {"name": "x"}}"#,
            |e| matches!(e, WireError::Missing { field: "receptor" }),
            400,
        ),
        // Wrong types / unknown variants → Invalid → 400.
        (
            r#"{"campaign": {"name": "x", "backend": {"pinned": "avx9000"}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { .. }),
            400,
        ),
        // The retired SSE2 level: refused under both spellings, never
        // remapped to another backend.
        (
            r#"{"campaign": {"name": "x", "backend": {"fixed": "sse2"}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { message, .. } if message.contains("autovec")),
            400,
        ),
        (
            r#"{"campaign": {"name": "x", "backend": {"pinned": "sse2"}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { message, .. } if message.contains("autovec")),
            400,
        ),
        (
            r#"{"campaign": {"name": "x", "stop": {"surprise": 3}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { .. }),
            400,
        ),
        (
            r#"{"campaign": {"name": "x", "seed": -4},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { .. }),
            400,
        ),
        // A huge exponent parses to f64 infinity (and 1e300 overflows
        // the f32 narrowing): both must be typed 400s, never an inf
        // smuggled into a GA sigma the builder does not re-validate.
        (
            r#"{"campaign": {"name": "x", "ga": {"sigma_translation": 1e999}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { .. }),
            400,
        ),
        (
            r#"{"campaign": {"name": "x", "ga": {"mutation_rate": 1e300}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { .. }),
            400,
        ),
        (
            r#"{"campaign": {"name": "x"}, "priority": "urgent",
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { .. }),
            400,
        ),
        // Valid wire shape, invalid campaign → Campaign → 422.
        (
            r#"{"campaign": {"name": "x", "top_k": 0},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Campaign(_)),
            422,
        ),
        (
            r#"{"campaign": {"name": "x", "chunk": {"fixed": 0}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Campaign(_)),
            422,
        ),
        (
            r#"{"campaign": {"name": "x", "ga": {"population": 1}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Campaign(_)),
            422,
        ),
        // A finite σ past the ceiling once wrapped a torsion forever
        // and wedged the executor that docked it.
        (
            r#"{"campaign": {"name": "x", "ga": {"sigma_torsion": 1e9}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Campaign(CampaignError::InvalidGa(_))),
            422,
        ),
        (
            r#"{"campaign": {"name": "x", "ga": {"mutation_rate": 2.0}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Campaign(CampaignError::InvalidGa(_))),
            422,
        ),
        // The retired shard stances: every one but "fair_share" (what
        // every receptor now gets) is refused, never remapped.
        (
            r#"{"campaign": {"name": "x", "shard": "single_queue"},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { message, .. } if message.contains("equal share")),
            400,
        ),
        (
            r#"{"campaign": {"name": "x", "shard": {"weighted": 2.0}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { message, .. } if message.contains("equal share")),
            400,
        ),
        (
            r#"{"campaign": {"name": "x", "shard": {"weighted": 0.0}},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { message, .. } if message.contains("equal share")),
            400,
        ),
        (
            r#"{"campaign": {"name": "x", "shard": "round_robin"},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { message, .. } if message.contains("equal share")),
            400,
        ),
        (
            r#"{"campaign": {"name": "x", "shard": 1},
                "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
                "ligands": {"synth": {"count": 2}}}"#,
            |e| matches!(e, WireError::Invalid { message, .. } if message.contains("equal share")),
            400,
        ),
    ];
    for (body, check, status) in cases {
        let err = wire::parse(body)
            .and_then(|v| wire::submission_from_json(&v).map(|_| ()))
            .expect_err(body);
        assert!(check(&err), "{body}: unexpected error {err:?}");
        assert_eq!(err.http_status(), status, "{body}: {err:?}");
    }
}

/// `"shard": "fair_share"` is what every earlier encoder wrote: it still
/// decodes, to the spec the member's absence gives, and the encoder no
/// longer writes it.
#[test]
fn a_fair_share_stance_decodes_to_the_default_spec() {
    let decode = |text: &str| wire::campaign_from_json(&wire::parse(text).unwrap()).unwrap();
    let old = decode(r#"{"name": "old", "shard": "fair_share"}"#);
    assert_eq!(old, Campaign::builder().name("old").build().unwrap());
    assert_eq!(old, decode(r#"{"name": "old"}"#));
    let text = wire::campaign_to_json(&old).encode();
    assert!(!text.contains("shard"), "{text}");
}

/// The scatter window (`slice`) must round-trip exactly, stay optional,
/// and reject empty windows — a sub-job that docks nothing is always a
/// coordinator bug, never a request worth accepting.
#[test]
fn submission_slices_round_trip_and_reject_empty_windows() {
    use mudock_serve::ReceptorSource;
    use mudock_serve::{LigandSlice, LigandSource, Priority};

    let spec = Campaign::builder().name("sliced").build().unwrap();
    let receptor = ReceptorSource::Synth {
        seed: 1,
        atoms: 30,
        radius: 5.0,
    };
    let ligands = LigandSource::synth(9, 40);
    for slice in [
        None,
        Some(LigandSlice::new(0, 40)),
        Some(LigandSlice::new(13, 7)),
        Some(LigandSlice::new(usize::MAX - 1, 1)),
    ] {
        let text =
            wire::sliced_submission_to_json(&spec, &receptor, &ligands, slice, Priority::Normal)
                .expect("encodes")
                .encode();
        let back = wire::submission_from_json(&wire::parse(&text).unwrap()).expect(&text);
        assert_eq!(back.slice, slice, "wire text: {text}");
    }

    // take == 0 → Invalid → 400.
    let empty = r#"{"campaign": {"name": "x"},
        "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
        "ligands": {"synth": {"count": 2}},
        "slice": {"skip": 0, "take": 0}}"#;
    let err = wire::parse(empty)
        .and_then(|v| wire::submission_from_json(&v).map(|_| ()))
        .expect_err("an empty window must be rejected");
    assert!(matches!(err, WireError::Invalid { .. }), "{err:?}");
    assert_eq!(err.http_status(), 400);

    // A missing member of the slice object → Missing → 400.
    let half = r#"{"campaign": {"name": "x"},
        "receptor": {"synth": {"seed": 1, "atoms": 30, "radius": 5.0}},
        "ligands": {"synth": {"count": 2}},
        "slice": {"skip": 3}}"#;
    let err = wire::parse(half)
        .and_then(|v| wire::submission_from_json(&v).map(|_| ()))
        .expect_err("a half-window must be rejected");
    assert!(
        matches!(
            err,
            WireError::Missing {
                field: "slice.take"
            }
        ),
        "{err:?}"
    );
}
