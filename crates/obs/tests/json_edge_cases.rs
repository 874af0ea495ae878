//! Edge-case battery for the hand-rolled `obs::json` parser.
//!
//! This parser now guards two on-disk schemas — the `RunManifest`
//! artifacts and the live-telemetry `*.series.jsonl` lines — so its
//! behaviour at the margins (escapes, nesting depth, integer boundaries,
//! malformed input) is load-bearing for CI, not just a convenience.

use obs::json::Json;
use proptest::prelude::*;

#[test]
fn every_escape_sequence_round_trips() {
    let s = "quote:\" backslash:\\ newline:\n return:\r tab:\t".to_string();
    let doc = Json::Str(s.clone());
    for text in [doc.to_string(), doc.to_compact()] {
        assert_eq!(
            Json::parse(&text).unwrap(),
            Json::Str(s.clone()),
            "in {text:?}"
        );
    }
}

#[test]
fn parses_escapes_the_writer_never_emits() {
    // \/  \b  \f and \uXXXX are legal JSON even though the writer does
    // not produce them.
    let v = Json::parse(r#""a\/b\bc\fd\u0041\u00e9""#).unwrap();
    assert_eq!(v.as_str(), Some("a/b\u{8}c\u{c}dA\u{e9}"));
}

#[test]
fn control_characters_are_u_escaped_on_write() {
    let doc = Json::Str("bell\u{7}end".into());
    let text = doc.to_compact();
    assert!(text.contains("\\u0007"), "{text}");
    assert_eq!(Json::parse(&text).unwrap(), doc);
}

#[test]
fn lone_surrogates_decode_to_replacement() {
    let v = Json::parse(r#""x\ud800y""#).unwrap();
    assert_eq!(v.as_str(), Some("x\u{fffd}y"));
}

#[test]
fn bad_unicode_escapes_are_rejected() {
    for bad in [r#""\u12""#, r#""\uzzzz""#, r#""\u""#, r#""\x41""#] {
        assert!(Json::parse(bad).is_err(), "should reject {bad}");
    }
}

#[test]
fn non_ascii_strings_survive_both_writers() {
    let s = "ünïcode → 測定 🎯".to_string();
    let doc = Json::Obj(vec![("k".into(), Json::Str(s.clone()))]);
    for text in [doc.to_string(), doc.to_compact()] {
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("k").and_then(Json::as_str), Some(s.as_str()));
    }
}

#[test]
fn deep_nesting_round_trips() {
    // 200 levels of alternating array/object nesting: far beyond anything
    // the manifests produce, shallow enough not to test the OS stack.
    let mut doc = Json::UInt(7);
    for i in 0..200 {
        doc = if i % 2 == 0 {
            Json::Arr(vec![doc])
        } else {
            Json::Obj(vec![("d".into(), doc)])
        };
    }
    for text in [doc.to_string(), doc.to_compact()] {
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}

#[test]
fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"d\":"] {
        let err = Json::parse(&open.repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
    }
    // 512 nested arrays still parse; one more does not.
    let deepest = format!("{}{}", "[".repeat(512), "]".repeat(512));
    assert!(Json::parse(&deepest).is_ok());
    let past = format!("{}{}", "[".repeat(513), "]".repeat(513));
    assert!(Json::parse(&past).is_err());
}

#[test]
fn u64_boundaries_stay_exact() {
    for n in [
        0u64,
        1,
        (1 << 53) - 1, // last f64-exact integer
        1 << 53,
        (1 << 53) + 1, // first integer a float path would corrupt
        u64::MAX - 1,
        u64::MAX,
    ] {
        let back = Json::parse(&Json::UInt(n).to_compact()).unwrap();
        assert_eq!(back.as_u64(), Some(n), "u64 {n} must survive");
    }
}

#[test]
fn i64_and_overflow_numbers_classify_correctly() {
    assert_eq!(Json::parse("-1").unwrap(), Json::Int(-1));
    assert_eq!(
        Json::parse(&i64::MIN.to_string()).unwrap(),
        Json::Int(i64::MIN)
    );
    // One past u64::MAX no longer fits an integer: it degrades to float
    // rather than failing.
    let over = "18446744073709551616"; // 2^64
    assert!(matches!(Json::parse(over).unwrap(), Json::Float(_)));
    // Exponent forms are floats even when integral.
    assert!(matches!(Json::parse("1e3").unwrap(), Json::Float(_)));
    assert!(matches!(Json::parse("-2.5").unwrap(), Json::Float(_)));
}

#[test]
fn malformed_documents_error_instead_of_panicking() {
    let cases = [
        "",
        "   ",
        "{",
        "}",
        "[",
        "]",
        "[1,",
        "[1 2]",
        "{\"a\":}",
        "{\"a\" 1}",
        "{\"a\":1,}",
        "{\"a\":1 \"b\":2}",
        "{a:1}",
        "\"unterminated",
        "\"bad escape \\q\"",
        "tru",
        "falsé",
        "nul",
        "+1",
        "--2",
        "1.2.3",
        "0x10",
        "1 2",
        "[1]]",
        "{\"a\":1}{",
        "\u{feff}{}", // BOM is not whitespace
    ];
    for bad in cases {
        assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
    }
}

#[test]
fn error_messages_carry_byte_offsets() {
    let err = Json::parse("{\"a\": !}").unwrap_err();
    assert!(err.contains("byte 6"), "{err}");
    let err = Json::parse("[1, 2,]").unwrap_err();
    assert!(err.contains("byte"), "{err}");
}

#[test]
fn duplicate_keys_are_preserved_in_order() {
    // The tree is insertion-ordered and does not dedup — lookups return
    // the first match, round-trips keep both.
    let v = Json::parse("{\"k\":1,\"k\":2}").unwrap();
    assert_eq!(v.get("k").and_then(Json::as_u64), Some(1));
    assert_eq!(v.as_obj().unwrap().len(), 2);
    assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
}

#[test]
fn compact_writer_matches_pretty_writer_semantically() {
    let doc = Json::Obj(vec![
        ("empty_arr".into(), Json::Arr(vec![])),
        ("empty_obj".into(), Json::Obj(vec![])),
        (
            "nested".into(),
            Json::Arr(vec![
                Json::Null,
                Json::Bool(false),
                Json::Str("s".into()),
                Json::Obj(vec![("n".into(), Json::UInt(3))]),
            ]),
        ),
    ]);
    let compact = doc.to_compact();
    assert!(
        !compact.contains('\n'),
        "compact stays on one line: {compact}"
    );
    assert!(
        !compact.contains(": "),
        "no decorative whitespace: {compact}"
    );
    assert_eq!(
        Json::parse(&compact).unwrap(),
        Json::parse(&doc.to_string()).unwrap()
    );
}

#[test]
fn nonfinite_floats_write_as_null() {
    assert_eq!(Json::Float(f64::NAN).to_compact(), "null");
    assert_eq!(Json::Float(f64::INFINITY).to_compact(), "null");
    assert_eq!(Json::Float(1.25).to_compact(), "1.25");
}

/// Pieces of JSON and of broken JSON, and any character at all: joined
/// at random they reach every branch of the parser, truncated escapes,
/// numbers and multi-byte characters included.
fn fragment() -> impl Strategy<Value = String> {
    let pieces = vec![
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        "\\u",
        "\\u00e9",
        "\\ud800",
        "-",
        "0",
        "7",
        ".",
        "1e",
        "E+",
        "18446744073709551616",
        "null",
        "tru",
        "false",
        " ",
        "\n",
        "é",
        "𝄞",
    ];
    prop_oneof![
        prop::sample::select(pieces).prop_map(str::to_string),
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?').to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_096))]

    /// `obstool` parses whatever file it is given: any text gets a
    /// document or an error, never a panic.
    #[test]
    fn parse_never_panics_on_arbitrary_text(pieces in prop::collection::vec(fragment(), 0..48)) {
        let text = pieces.concat();
        if let Err(e) = Json::parse(&text) {
            prop_assert!(!e.is_empty(), "an error names what failed in {text:?}");
        }
    }
}
