//! The wire parser on generated and hostile input.
//!
//! Three properties over generated documents — valid ones round-trip
//! through `encode` → `parse`, mutated bytes never panic and any error
//! lands inside the input, and the 64-deep nesting boundary holds —
//! plus a table pinning the exact offset and message of every error the
//! parser reports. The table's values were captured from the resumable
//! push parser this one replaced (and a differential run of both agreed
//! on every input), so a change to any offset is a dialect change.

use mudock_serve::wire::{self, Json, Num, WireError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

// --------------------------------------------------------------------
// Document generation (hand-rolled: the tree is recursive, which the
// offline proptest shim's combinators don't model).
// --------------------------------------------------------------------

/// Strings exercising every escape path: plain ASCII, mandatory
/// escapes, `\u` hex (BMP + surrogate pairs), and multi-byte UTF-8.
fn gen_string(rng: &mut StdRng) -> String {
    let len = rng.random_range(0usize..12);
    let mut s = String::new();
    for _ in 0..len {
        match rng.random_range(0u32..10) {
            0 => s.push('"'),
            1 => s.push('\\'),
            2 => s.push('\n'),
            3 => s.push('\t'),
            4 => s.push('\u{1F}'), // control char → \u escape on encode
            5 => s.push('é'),      // 2-byte UTF-8
            6 => s.push('✓'),      // 3-byte UTF-8
            7 => s.push('🜚'),      // 4-byte UTF-8 (surrogate pair in \u)
            _ => s.push((b'a' + (rng.random_range(0u32..26) as u8)) as char),
        }
    }
    s
}

fn gen_num(rng: &mut StdRng) -> Num {
    match rng.random_range(0u32..4) {
        0 => Num::from_u64(rng.random::<u64>()),
        1 => Num::from_f64(-(rng.random::<f64>()) * 1e9),
        2 => Num::from_f32(rng.random::<f32>() * 1e-3),
        _ => Num::from_usize(rng.random_range(0usize..1000)),
    }
}

fn gen_json(rng: &mut StdRng, depth: usize) -> Json {
    let pick = if depth == 0 {
        rng.random_range(0u32..4) // leaves only
    } else {
        rng.random_range(0u32..6)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.random::<bool>()),
        2 => Json::Num(gen_num(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = rng.random_range(0usize..5);
            Json::Arr((0..n).map(|_| gen_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.random_range(0usize..5);
            Json::Obj(
                (0..n)
                    .map(|_| (gen_string(rng), gen_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Random insignificant whitespace around the document (it counts
/// toward error offsets like any other byte).
fn pad(rng: &mut StdRng, text: String) -> String {
    let ws = [" ", "\t", "\n", "\r\n", ""];
    let pre = ws[rng.random_range(0usize..ws.len())];
    let post = ws[rng.random_range(0usize..ws.len())];
    format!("{pre}{text}{post}")
}

/// Corrupt an encoded document: flip, insert, delete, or truncate at a
/// random byte. Most mutations produce malformed documents; some stay
/// valid (e.g. deleting a digit).
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        bytes.push(b'{');
        return;
    }
    let at = rng.random_range(0usize..bytes.len());
    match rng.random_range(0u32..4) {
        0 => bytes[at] = rng.random_range(0u32..=255) as u8,
        1 => bytes.insert(at, rng.random_range(0u32..=255) as u8),
        2 => {
            bytes.remove(at);
        }
        _ => bytes.truncate(at),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn valid_documents_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = gen_json(&mut rng, 4);
        let text = pad(&mut rng, doc.encode());
        prop_assert_eq!(wire::parse(&text), Ok(doc), "encode/parse broke: {}", text);
    }

    #[test]
    fn mutated_documents_fail_inside_the_input(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = gen_json(&mut rng, 3);
        let mut bytes = pad(&mut rng, doc.encode()).into_bytes();
        for _ in 0..rng.random_range(1usize..4) {
            mutate(&mut rng, &mut bytes);
        }
        let got = wire::parse_bytes(&bytes);
        if let Err(e) = &got {
            let WireError::Syntax { offset, .. } = e else {
                return Err(TestCaseError::fail(format!("not a syntax error: {e:?}")));
            };
            prop_assert!(*offset <= bytes.len(), "offset {} past {} bytes", offset, bytes.len());
        }
        // Text and bytes are one parser.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            prop_assert_eq!(&wire::parse(text), &got);
        }
    }

    #[test]
    fn nesting_stops_at_64_levels(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.random_range(56usize..72);
        let scalar = rng.random::<bool>();
        let mut openers: Vec<&str> = (0..depth)
            .map(|_| ["[", "[ ", "{\"k\":", "{\"k\": "][rng.random_range(0usize..4)])
            .collect();
        if !scalar {
            openers[depth - 1] = ["[", "{"][rng.random_range(0usize..2)];
        }
        let mut text = openers.concat();
        if scalar {
            text.push('1');
        }
        for opener in openers.iter().rev() {
            text.push(if opener.starts_with('[') { ']' } else { '}' });
        }
        // A scalar sits one level below its innermost container; an
        // empty innermost container parses no value inside it.
        let levels = if scalar { depth + 1 } else { depth };
        let got = wire::parse(&text);
        if levels <= 64 {
            prop_assert!(got.is_ok(), "{} levels refused: {:?}", levels, got);
        } else {
            let offset = openers[..64].concat().len();
            prop_assert_eq!(got, Err(WireError::Syntax {
                offset,
                message: "nesting deeper than 64".into(),
            }));
        }
    }
}

/// Every error message the parser reports, at its exact offset.
#[test]
fn every_error_is_reported_at_its_pinned_offset() {
    let deep_array = "[".repeat(65);
    let deep_scalar = "[".repeat(64) + "1";
    let table: &[(&[u8], usize, &str)] = &[
        (b"", 0, "unexpected end of input"),
        (b"   ", 3, "unexpected end of input"),
        (b"{", 1, "expected '\"'"),
        (b"{\"a\" 1}", 5, "expected ':'"),
        (b"{\"a\": 1 \"b\": 2}", 8, "expected ',' or '}' in object"),
        (b"[1 2]", 3, "expected ',' or ']' in array"),
        (
            b"{\"a\": 1} junk",
            9,
            "trailing characters after the top-level value",
        ),
        (b"tru", 0, "expected 'true'"),
        (b"[fals]", 1, "expected 'false'"),
        (b"nul", 0, "expected 'null'"),
        (b"-", 1, "expected digits"),
        (b"-x", 1, "expected digits"),
        (b"1.", 2, "expected digits after '.'"),
        (b"1.e5", 2, "expected digits after '.'"),
        (b"1e", 2, "expected digits in exponent"),
        (b"1e+", 3, "expected digits in exponent"),
        (b"@", 0, "unexpected character '@'"),
        (b"[1, }", 4, "unexpected character '}'"),
        (deep_array.as_bytes(), 64, "nesting deeper than 64"),
        (deep_scalar.as_bytes(), 64, "nesting deeper than 64"),
        (b"\"unterminated", 13, "unterminated string"),
        (b"\"\xc3\xa9", 3, "unterminated string"),
        (b"\"\\", 2, "unterminated escape"),
        (b"\"\\u12", 3, "truncated \\u escape"),
        (b"\"\\u12\"", 3, "truncated \\u escape"),
        (b"\"\\ud800\\u", 9, "truncated \\u escape"),
        (b"\"\\ud800\\u12", 9, "truncated \\u escape"),
        (b"\"\\uzzzz\"", 3, "bad \\u escape digits"),
        (b"\"\\ud800none\"", 7, "unpaired high surrogate"),
        (b"\"\\ud800", 7, "unpaired high surrogate"),
        (b"\"\\ud800\\u0041\"", 13, "invalid low surrogate"),
        (b"\"\\udc00\"", 7, "unpaired low surrogate"),
        (b"\"a\x01b\"", 3, "unescaped control character in string"),
        (b"\"\\q\"", 3, "unknown escape '\\q'"),
        // UTF-8: reported just past the first bad group (a byte ≥ 0x80
        // and up to three continuation bytes), one per group length.
        (b"\"ab\x80\"", 4, "invalid UTF-8 in string"),
        (b"\"ab\xc3\"", 4, "invalid UTF-8 in string"),
        (b"\"ab\xe2\x9c\"", 5, "invalid UTF-8 in string"),
        (b"\"ab\xf0\x9f\x9c\"", 6, "invalid UTF-8 in string"),
        (b"\"ab\xf0\x9f\x9c\x9a\x9a\"", 8, "invalid UTF-8 in string"),
        (b"\"\xc3\xa9\xff\"", 4, "invalid UTF-8 in string"),
        (b"\"\xe9", 2, "invalid UTF-8 in string"),
    ];
    for &(input, offset, message) in table {
        assert_eq!(
            wire::parse_bytes(input),
            Err(WireError::Syntax {
                offset,
                message: message.into(),
            }),
            "{:?}",
            String::from_utf8_lossy(input)
        );
    }
}
