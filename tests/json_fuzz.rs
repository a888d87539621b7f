//! Fuzzing the wire protocol's JSON parser directly, not through a live
//! socket: `Json::parse` is the first code every request line reaches, so
//! it must turn any input into a value or a clean error.
//!
//! - **No panics.** Arbitrary strings built from JSON-significant tokens
//!   and random scalars, and valid request lines with random byte
//!   mutations (flips, insertions, deletions, duplicated spans,
//!   truncations), parse or fail without panicking.
//! - **Round trip.** `parse(dump(v)) == v` for generated values whose
//!   numbers are finite, compared bit for bit (`-0.0`, subnormals and
//!   `f64::MAX` included), with strings that need every escape.
//! - **Bounded nesting.** Up to 128 nested containers parse; one more is
//!   an error, and so is unclosed nesting thousands of levels deep —
//!   never a stack overflow, which would abort the whole process.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub::service::json::Json;

/// Request lines in the shapes the wire protocol accepts.
const REQUEST_LINES: [&str; 6] = [
    r#"{"query": [[7.17, 4.27], [7.27, 4.26]], "algo": "pss", "measure": "dtw", "k": 3}"#,
    r#"{"v":2,"id":"req-7","query":[[0,0],[1.5e-3,-2E+2]],"algo":"exact","measure":"frechet","k":10,"index":true}"#,
    r#"{"cmd":"stats"}"#,
    r#"{"v":2,"id":42,"cmd":"reload","corpus_bin":"a.ssub"}"#,
    r#"{"id":"aé😀\n\"\\\/","cmd":"ping","trace":false,"note":null}"#,
    "  {\"cmd\" :\t\"info\" }\r\n",
];

/// Fragments that steer random input into the parser's branches.
const TOKENS: [&str; 28] = [
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud83d", "\\udc00", "\\u00e9", "true",
    "fals", "null", "-", "0", "1e", "e+", ".", "9", " ", "\n", "é", "😀", "\u{1}", "a", "\"k\":",
];

/// A random Unicode scalar value.
fn any_char(rng: &mut StdRng) -> char {
    loop {
        if let Some(c) = char::from_u32(rng.gen_range(0..0x11_0000u32)) {
            return c;
        }
    }
}

/// A string biased toward the characters that need escaping.
fn gen_string(rng: &mut StdRng) -> String {
    const TRICKY: [char; 10] = [
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', '\u{2028}',
    ];
    (0..rng.gen_range(0..12usize))
        .map(|_| match rng.gen_range(0..3) {
            0 => TRICKY[rng.gen_range(0..TRICKY.len())],
            1 => rng.gen_range(b' '..b'~') as char,
            _ => any_char(rng),
        })
        .collect()
}

/// A finite number: integers, fractions, arbitrary bit patterns and the
/// edge values.
fn gen_num(rng: &mut StdRng) -> f64 {
    const EDGES: [f64; 9] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        -f64::MAX,
        1e21,
        1e-7,
        9_007_199_254_740_993.0,
    ];
    match rng.gen_range(0..4) {
        0 => rng.gen_range(-1e6..1e6f64).round(),
        1 => rng.gen_range(-1.0..1.0f64),
        2 => loop {
            let x = f64::from_bits(rng.gen::<u64>());
            if x.is_finite() {
                break x;
            }
        },
        _ => EDGES[rng.gen_range(0..EDGES.len())],
    }
}

/// A value nested at most `depth` levels deep.
fn gen_value(rng: &mut StdRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::Num(gen_num(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => Json::Arr(
            (0..rng.gen_range(0..5usize))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..5usize))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Structural equality with numbers compared by their bits.
fn same_bits(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same_bits(a, b))
        }
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && same_bits(va, vb))
        }
        _ => a == b,
    }
}

/// Applies 1–4 random byte mutations to `line`.
fn mutate(rng: &mut StdRng, line: &str) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..5usize) {
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..5) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                bytes.splice(at..at, token.bytes());
            }
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => {
                let end = rng.gen_range(at..=bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

/// Parses `input`; a panic fails the test, any result is fine.
fn parse_anything(input: &str) {
    if let Ok(value) = Json::parse(input) {
        // Whatever parses also re-serialises to something that parses.
        assert!(Json::parse(&value.dump()).is_ok(), "{input:?}");
    }
}

/// `depth` containers, mixing arrays and objects, around `0` — closed
/// when `closed`.
fn nested(rng: &mut StdRng, depth: usize, closed: bool) -> String {
    let arrays: Vec<bool> = (0..depth).map(|_| rng.gen()).collect();
    let mut text: String = arrays
        .iter()
        .map(|&arr| if arr { "[" } else { "{\"k\":" })
        .collect();
    text.push('0');
    if closed {
        text.extend(arrays.iter().rev().map(|&arr| if arr { ']' } else { '}' }));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input: String = (0..rng.gen_range(0..40usize))
            .map(|_| match rng.gen_range(0..3) {
                0 => any_char(&mut rng).to_string(),
                _ => TOKENS[rng.gen_range(0..TOKENS.len())].to_string(),
            })
            .collect();
        parse_anything(&input);
    }

    #[test]
    fn mutated_request_lines_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = REQUEST_LINES[rng.gen_range(0..REQUEST_LINES.len())];
        let bytes = mutate(&mut rng, line);
        if let Ok(text) = std::str::from_utf8(&bytes) {
            parse_anything(text);
        }
        parse_anything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn dump_then_parse_round_trips_bit_for_bit(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = gen_value(&mut rng, 4);
        let text = value.dump();
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        prop_assert!(same_bits(&parsed, &value), "{text}");
    }

    #[test]
    fn nesting_past_128_is_an_error(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.gen_range(1..=300usize);
        let result = Json::parse(&nested(&mut rng, depth, true));
        if depth <= 128 {
            prop_assert!(result.is_ok(), "depth {depth}: {result:?}");
        } else {
            let err = result.expect_err("too deep");
            prop_assert!(err.msg.contains("nesting too deep"), "depth {depth}: {err}");
        }
        let depth = rng.gen_range(129..20_000usize);
        prop_assert!(Json::parse(&nested(&mut rng, depth, false)).is_err());
    }
}

#[test]
fn request_lines_parse() {
    for line in REQUEST_LINES {
        let value = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(same_bits(&Json::parse(&value.dump()).unwrap(), &value));
    }
}
