//! A minimal JSON value, parser and writer over `std` only.
//!
//! The workspace builds offline with no serialization crate, so the
//! wire layer carries its own ~200-line JSON implementation. Scope is exactly what the line protocol needs:
//!
//! * every value nests `Null | Bool | Num(f64) | Str | Arr | Obj`;
//! * objects preserve insertion order (`Vec` of pairs, not a map) so
//!   responses read stably in logs and tests;
//! * `f64`s are written with Rust's shortest round-trip formatting, so
//!   a score travels the wire **bit-identically** — the property the
//!   serve-vs-direct identity checks in `BENCH_serve.json` rest on;
//! * the parser is a recursive-descent reader with a nesting-depth cap
//!   (malformed or adversarial input fails with a message, never a
//!   stack overflow).

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integers; see
    /// [`Json::as_u64`] for checked integer reads).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A numeric value from anything convertible to `f64` losslessly
    /// enough for the protocol (counts, ids, epochs, latencies).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Member lookup on an object (first match wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a single-line JSON string.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Shortest round-trip float formatting; integers print without the
/// trailing `.0` (both re-parse to the identical `f64`). Non-finite
/// values have no JSON spelling and serialize as `null` — the engine's
/// ingestion contract rejects them long before they could reach a
/// response.
fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else {
        // `{}` on f64 is Rust's shortest representation that parses
        // back to the same bits.
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with a byte offset into the input line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parse exactly one JSON value; trailing non-whitespace is an error
/// (the line protocol carries one value per line).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'s> {
    bytes: &'s [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("invalid literal (expected '{lit}')")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| ParseError {
            message: format!("invalid number '{text}'"),
            at: start,
        })?;
        if !n.is_finite() {
            return Err(ParseError {
                message: format!("number '{text}' overflows f64"),
                at: start,
            });
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // A surrogate pair: require the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                            // hex4 leaves pos one past the last digit;
                            // skip the shared increment below.
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar (input is &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Json::obj(vec![
            ("verb", Json::str("query")),
            (
                "group",
                Json::Arr(vec![Json::num(1u32), Json::num(2u32), Json::num(3u32)]),
            ),
            ("k", Json::num(10u32)),
            ("nested", Json::obj(vec![("ok", Json::Bool(true))])),
            ("nothing", Json::Null),
        ]);
        let line = v.to_line();
        assert_eq!(parse(&line).unwrap(), v);
        assert!(!line.contains('\n'), "single line");
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            -2.5e-7,
            f64::MAX,
            f64::MIN_POSITIVE,
            1.25,
            -0.0,
            123_456_789.123_456_79,
        ] {
            let line = Json::Num(x).to_line();
            let back = parse(&line).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {line}");
        }
    }

    #[test]
    fn integers_print_clean_and_read_back() {
        assert_eq!(Json::num(42u32).to_line(), "42");
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "a\"b\\c\nd\te\u{0007}é👀";
        let line = Json::str(nasty).to_line();
        assert_eq!(parse(&line).unwrap().as_str(), Some(nasty));
        // Standard escapes parse too.
        assert_eq!(
            parse(r#""\u00e9\ud83d\udc40\/""#).unwrap().as_str(),
            Some("é👀/")
        );
    }

    #[test]
    fn malformed_input_errors_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "1e999",
            "nan",
            "[1] []",
            "{\"a\":}",
            "\"\\u12\"",
            "\"\\ud800x\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
        // Depth cap, not stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }
}

/// Round-trip fuzz for the hand-rolled codec: arbitrary values —
/// including non-finite-adjacent floats, control characters, astral
/// unicode, and deep nesting — serialize and parse back **exactly**;
/// malformed or truncated input fails with a typed [`ParseError`],
/// never a panic.
#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Finite `f64` from arbitrary bits: non-finite patterns (exponent
    /// all-ones) get their exponent cleared, landing on the adjacent
    /// subnormal with the same sign and mantissa — so the generator
    /// sweeps right up against the NaN/Inf boundary without crossing it.
    fn finite(bits: u64) -> f64 {
        let f = f64::from_bits(bits);
        if f.is_finite() {
            f
        } else {
            f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF)
        }
    }

    /// Any scalar value (surrogate codepoints remapped below the
    /// surrogate block, keeping the full control/BMP/astral spread).
    fn char_of(code: u32) -> char {
        let code = code % 0x11_0000;
        let code = if (0xD800..0xE000).contains(&code) {
            code - 0x800
        } else {
            code
        };
        char::from_u32(code).unwrap_or('\u{FFFD}')
    }

    fn string_strategy() -> impl Strategy<Value = String> {
        collection::vec((0u32..0x11_0000).prop_map(char_of), 0..8usize)
            .prop_map(|chars| chars.into_iter().collect())
    }

    fn leaf_strategy() -> BoxedStrategy<Json> {
        (0u8..4, any::<bool>(), any::<u64>(), string_strategy())
            .prop_map(|(sel, b, bits, s)| match sel {
                0 => Json::Null,
                1 => Json::Bool(b),
                2 => Json::Num(finite(bits)),
                _ => Json::Str(s),
            })
            .boxed()
    }

    /// Arbitrary trees up to `depth` levels of arrays/objects over the
    /// leaves (the vendored proptest has no `prop_recursive`; explicit
    /// depth-bounded recursion plays the same role).
    fn json_strategy(depth: usize) -> BoxedStrategy<Json> {
        if depth == 0 {
            return leaf_strategy();
        }
        let inner = json_strategy(depth - 1);
        (
            0u8..4,
            leaf_strategy(),
            collection::vec(inner.clone(), 0..4usize),
            collection::vec((string_strategy(), inner), 0..4usize),
        )
            .prop_map(|(sel, leaf, arr, obj)| match sel {
                0 => Json::Arr(arr),
                1 => Json::Obj(obj),
                _ => leaf,
            })
            .boxed()
    }

    /// Bytes drawn from a JSON-shaped pool — quotes, brackets, escapes,
    /// digit/keyword fragments — so random lines land near the grammar
    /// instead of failing on the first byte.
    fn soup_strategy() -> impl Strategy<Value = String> {
        const POOL: &[char] = &[
            '{', '}', '[', ']', '"', ',', ':', '\\', 'u', 'n', 't', 'r', 'e', 'f', 'a', 'l', 's',
            '0', '1', '9', '-', '+', '.', 'E', ' ', 'é', '👀', '\u{0007}', 'd', '8',
        ];
        collection::vec(0usize..POOL.len(), 0..40usize)
            .prop_map(|picks| picks.into_iter().map(|i| POOL[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn values_round_trip_exactly(v in json_strategy(3)) {
            let line = v.to_line();
            let back = parse(&line);
            prop_assert_eq!(back.as_ref(), Ok(&v), "via {}", line);
            // And the serialized form is a fixed point: re-serializing
            // the parsed value reproduces the line byte-for-byte.
            prop_assert_eq!(back.unwrap().to_line(), line);
        }

        #[test]
        fn floats_round_trip_bit_for_bit(bits in any::<u64>()) {
            let x = finite(bits);
            let line = Json::Num(x).to_line();
            let back = parse(&line).unwrap().as_f64().unwrap();
            prop_assert_eq!(back.to_bits(), x.to_bits(), "{} via {}", x, line);
        }

        #[test]
        fn nesting_beyond_the_cap_fails_typed(n in 0usize..200) {
            let line = "[".repeat(n) + &"]".repeat(n);
            match parse(&line) {
                // The outermost value sits at depth 0, so the cap
                // admits MAX_DEPTH + 1 brackets.
                Ok(_) => prop_assert!(n <= MAX_DEPTH + 1, "depth {} accepted", n),
                Err(e) => {
                    prop_assert!(n > MAX_DEPTH + 1 || n == 0, "depth {} rejected: {}", n, e);
                    prop_assert!(e.at <= line.len());
                }
            }
        }

        #[test]
        fn malformed_input_never_panics(soup in soup_strategy()) {
            // Ok or Err are both acceptable; panicking or running away
            // is not. A typed error must point inside the input.
            if let Err(e) = parse(&soup) {
                prop_assert!(e.at <= soup.len(), "error at {} in {:?}", e.at, soup);
            }
        }

        #[test]
        fn truncated_lines_never_panic(v in json_strategy(2), cut_seed in any::<u64>()) {
            let line = v.to_line();
            let mut cut = (cut_seed as usize) % (line.len() + 1);
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            if let Err(e) = parse(&line[..cut]) {
                prop_assert!(e.at <= cut);
            }
        }
    }
}
