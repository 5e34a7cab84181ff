//! Minimal hand-rolled JSON tree: a writer for the bench harness's
//! machine-readable output and a parser so tests and the serve row cache
//! ([`crate::canon::document_from_rows`]) can read it back — no external
//! dependencies.
//!
//! Only what the bench schema needs is supported: objects preserve
//! insertion order, integers and floats are distinct variants (so `u64`
//! counters survive exactly), and non-finite floats serialize as `null`.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (counters, cycle counts); `i128` so the full `u64`
    /// range (e.g. RNG seeds) survives without wrapping.
    Int(i128),
    /// A float (rates, fractions, milliseconds).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer if this is an integer that fits `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => (*i).try_into().ok(),
            _ => None,
        }
    }

    /// The integer if this is a non-negative integer that fits `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => (*i).try_into().ok(),
            _ => None,
        }
    }

    /// Numeric view: integers widen to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset on malformed input,
    /// trailing garbage, or arrays and objects nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // Integral floats keep a decimal point so the parser reads
            // them back as `Num`, not `Int` — exact round-tripping.
            Json::Num(x) if x.is_finite() && x.trunc() == *x => write!(f, "{x:.1}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    silo_types::write_json_escaped(f, s)?;
    f.write_str("\"")
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets a corrupt row
/// cache file overflow the stack, which aborts the process
/// rather than returning an error. silo-bench/v1 documents nest 6 deep.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one nesting level down, refusing to
    /// go beyond [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match c {
                b'"' => {
                    return String::from_utf8(out)
                        .map_err(|_| "invalid UTF-8 in string".to_string());
                }
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            // Exactly four hex digits, no sign.
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| {
                                    h.iter().try_fold(0, |code, &d| {
                                        Some(code * 16 + char::from(d).to_digit(16)?)
                                    })
                                })
                                .ok_or_else(|| {
                                    format!("\\u needs four hex digits at byte {}", self.pos)
                                })?;
                            self.pos += 4;
                            let ch = char::from_u32(code)
                                .ok_or_else(|| "surrogate \\u escape unsupported".to_string())?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                c => out.push(c),
            }
        }
    }

    /// One number in the RFC 8259 grammar: `-? (0 | [1-9][0-9]*)
    /// (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. Integers without a fraction or
    /// exponent stay [`Json::Int`].
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b"-");
        if !self.eat(b"0") && self.digits() == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        let mut is_float = false;
        if self.eat(b".") {
            is_float = true;
            if self.digits() == 0 {
                return Err(format!("no digit after '.' at byte {}", self.pos));
            }
        }
        if self.eat(b"eE") {
            is_float = true;
            self.eat(b"+-");
            if self.digits() == 0 {
                return Err(format!("no digit in exponent at byte {}", self.pos));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII slice of a valid str");
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{text}'"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| format!("bad integer '{text}'"))
        }
    }

    /// Consumes the next byte if it is one of `any`.
    fn eat(&mut self, any: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|c| any.contains(&c));
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_back() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("sweep \"q\"\n".into())),
            ("count".into(), Json::Int(42)),
            ("neg".into(), Json::Int(-7)),
            ("rate".into(), Json::Num(2.5)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "items".into(),
                Json::Arr(vec![Json::Int(1), Json::Num(0.125), Json::Str("x".into())]),
            ),
        ]);
        let text = v.to_string();
        let back = Json::parse(&text).expect("round trip");
        assert_eq!(back, v);
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let v = Json::parse(r#"{"a": {"b": [1, 2.5, "s"]}, "n": 3}"#).expect("parse");
        let arr = v.get("a").and_then(|a| a.get("b")).and_then(Json::as_arr);
        let arr = arr.expect("array");
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("s"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn integral_floats_round_trip_as_floats() {
        // 1.0 must serialize as "1.0", not "1", or it comes back as Int.
        for x in [0.0, 1.0, -3.0, 42.0] {
            let text = Json::Num(x).to_string();
            assert!(text.contains('.'), "'{text}' lost its decimal point");
            assert_eq!(Json::parse(&text), Ok(Json::Num(x)));
        }
    }

    #[test]
    fn u64_range_integers_survive() {
        let v = Json::Int(u64::MAX as i128);
        let back = Json::parse(&v.to_string()).expect("parse");
        assert_eq!(back, v);
        assert_eq!(back.as_u64(), Some(u64::MAX));
        assert_eq!(back.as_i64(), None, "u64::MAX does not fit i64");
        assert_eq!(back.as_f64(), Some(u64::MAX as f64));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, ]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        // `\u` takes exactly four hex digits, and numbers follow the
        // RFC 8259 grammar: no leading zero before a digit, a digit after
        // '.' and in the exponent.
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u041""#,
            r#""\u00g1""#,
            "01",
            "-01",
            "1.",
            "-.5",
            ".5",
            "1.e5",
            "1e",
            "1e+",
            "-",
            "+1",
            "[01]",
            "[1.]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn accepts_every_rfc_8259_number_form() {
        for (text, want) in [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("10", Json::Int(10)),
            ("-0.5", Json::Num(-0.5)),
            ("1e5", Json::Num(1e5)),
            ("1E+5", Json::Num(1e5)),
            ("2.5e-3", Json::Num(2.5e-3)),
        ] {
            assert_eq!(Json::parse(text), Ok(want), "{text}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.contains("nesting deeper than 128"), "{e}");
        let deep = "{\"k\":".repeat(1_000_000);
        assert!(Json::parse(&deep).is_err());

        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn parses_whitespace_and_unicode_escapes() {
        let v = Json::parse(" { \"k\" : \"\\u0041\\t\\u00E9\" } ").expect("parse");
        assert_eq!(v.get("k").and_then(Json::as_str), Some("A\té"));
    }
}
