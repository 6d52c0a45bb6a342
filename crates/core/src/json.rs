//! The workspace's one JSON module. Every document the suite writes is
//! built as a [`Json`] value and laid out here; every document it reads
//! back goes through [`parse`] and the typed field reader [`Json::at`].
//!
//! The documents are *deterministic* — ordered keys, numbers kept as
//! their text, no timing in the pinned reports — so byte equality
//! doubles as a result check (the goldens and the benchmark's FNV
//! counters rest on it). There are two layouts:
//!
//! * [`Json::render`], one compact line: journals, snapshots, traces,
//!   stage checkpoints and `--serve` records ([`jsonl`] writes a stream
//!   of them);
//! * [`Json::render_pretty`], the report layout: objects as blocks, one
//!   field per line, and the arrays a report names as its `rows` one
//!   compact element per line.
//!
//! Reading narrows through [`Field`], whose `u32` and `usize` impls are
//! range-checked: a count that does not fit is a [`FieldError`], never a
//! silent wrap.

/// Appends `s` to `out` escaped for a JSON string literal (the quotes
/// are the caller's). Panic payloads, fault descriptions and embedded
/// snapshots carry quotes, backslashes and newlines.
fn escape(s: &str, out: &mut String) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// A JSON value. Numbers keep their text (`Num`), so 64-bit counters
/// round-trip without a float detour and fixed-decimal figures keep
/// their digits; objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (linear scan; documents are small).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is a parseable `Num`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object field `key`, or a [`FieldError`] naming it.
    pub fn field(&self, key: &str) -> Result<&Json, FieldError> {
        self.get(key).ok_or_else(|| FieldError {
            key: key.to_string(),
            wanted: None,
        })
    }

    /// The object field `key` read as a `T` — the one typed reader every
    /// decoder in the workspace uses.
    ///
    /// # Errors
    ///
    /// A [`FieldError`] when the field is missing or does not hold a
    /// `T` (a number out of `T`'s range included).
    pub fn at<T: Field>(&self, key: &str) -> Result<T, FieldError> {
        T::read(self.field(key)?).ok_or_else(|| FieldError {
            key: key.to_string(),
            wanted: Some(std::any::type_name::<T>()),
        })
    }

    /// The object field `key` as an array slice, for element-wise
    /// decoding.
    ///
    /// # Errors
    ///
    /// A [`FieldError`] when the field is missing or not an array.
    pub fn arr(&self, key: &str) -> Result<&[Json], FieldError> {
        self.field(key)?.as_arr().ok_or_else(|| FieldError {
            key: key.to_string(),
            wanted: Some("array"),
        })
    }

    /// Renders the value as one compact line (`", "` / `": "`
    /// separators — the house style for JSONL records). Deterministic:
    /// numbers render their text verbatim and objects keep their key
    /// order, so `parse(render(v)) == v` and `render(parse(s))` is a
    /// canonical form that is byte-stable under re-parsing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => {
                out.push('"');
                escape(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    escape(k, out);
                    out.push_str("\": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders the value as a newline-terminated report document:
    ///
    /// * an object is a block, one field per line, indented two spaces
    ///   per level;
    /// * an array under a key listed in `rows` holds one compact
    ///   element per line (an empty one renders as `[`, a blank line,
    ///   `]`);
    /// * a top-level array holds one block per element;
    /// * everything else is compact, as [`Json::render`] writes it.
    ///
    /// Each report names its own `rows`, so the layout is a property of
    /// the report, not of the caller. `parse` reads it back to the same
    /// value.
    pub fn render_pretty(&self, rows: &[&str]) -> String {
        let mut out = String::new();
        match self {
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str("  ");
                    v.pretty_into(&mut out, rows, 1);
                }
                out.push_str("\n]");
            }
            v => v.pretty_into(&mut out, rows, 0),
        }
        out.push('\n');
        out
    }

    /// Writes `self` at nesting `depth`: objects as blocks, everything
    /// else compact.
    fn pretty_into(&self, out: &mut String, rows: &[&str], depth: usize) {
        let Json::Obj(fields) = self else {
            return self.render_into(out);
        };
        let pad = "  ".repeat(depth + 1);
        out.push_str("{\n");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&pad);
            out.push('"');
            escape(k, out);
            out.push_str("\": ");
            match v {
                Json::Arr(items) if rows.contains(&k.as_str()) => {
                    out.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        if j > 0 {
                            out.push_str(",\n");
                        }
                        out.push_str(&pad);
                        out.push_str("  ");
                        item.render_into(out);
                    }
                    out.push('\n');
                    out.push_str(&pad);
                    out.push(']');
                }
                v => v.pretty_into(out, rows, depth + 1),
            }
        }
        out.push('\n');
        out.push_str(&pad[2..]);
        out.push('}');
    }

    /// Builds a `Num` from an unsigned integer.
    pub fn num(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Builds a `Num` with `places` decimals (`{:.N}`), for the
    /// fixed-precision figures reports carry (mean latencies, timings);
    /// `null` when `v` is not finite.
    pub fn fixed(v: f64, places: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.places$}"))
        } else {
            Json::Null
        }
    }

    /// Builds a `Num`, or `null` for `None`.
    pub fn opt_num(v: Option<u64>) -> Json {
        v.map_or(Json::Null, Json::num)
    }

    /// Builds a `Str`.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an `Arr` of unsigned integers.
    pub fn num_arr<I: IntoIterator<Item = u64>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Json::num).collect())
    }

    /// Builds an `Arr` of strings.
    pub fn str_arr<I: IntoIterator<Item = S>, S: Into<String>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Json::str).collect())
    }

    /// Builds an `Obj` from `(key, value)` pairs, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// Renders `lines` as JSONL: one [`Json::render`] line per value, each
/// newline-terminated — the layout of every checkpoint stream.
pub fn jsonl<'a>(lines: impl IntoIterator<Item = &'a Json>) -> String {
    let mut out = String::new();
    for line in lines {
        line.render_into(&mut out);
        out.push('\n');
    }
    out
}

/// A field [`Json::at`] could not read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The field's key.
    pub key: String,
    /// What the reader wanted; `None` when the field is missing.
    pub wanted: Option<&'static str>,
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.wanted {
            None => write!(f, "missing field `{}`", self.key),
            Some(wanted) => write!(f, "field `{}` is not a valid {wanted}", self.key),
        }
    }
}

impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.to_string()
    }
}

/// A type [`Json::at`] reads a field as. The narrowing impls (`u32`,
/// `usize`) reject a number that does not fit instead of wrapping it.
pub trait Field: Sized {
    /// `v` as a `Self`, when it holds one.
    fn read(v: &Json) -> Option<Self>;
}

impl Field for u64 {
    fn read(v: &Json) -> Option<u64> {
        v.as_u64()
    }
}

impl Field for u32 {
    fn read(v: &Json) -> Option<u32> {
        u32::try_from(v.as_u64()?).ok()
    }
}

impl Field for usize {
    fn read(v: &Json) -> Option<usize> {
        usize::try_from(v.as_u64()?).ok()
    }
}

impl Field for i64 {
    fn read(v: &Json) -> Option<i64> {
        match v {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

impl Field for bool {
    fn read(v: &Json) -> Option<bool> {
        v.as_bool()
    }
}

impl Field for String {
    fn read(v: &Json) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

impl<T: Field> Field for Option<T> {
    fn read(v: &Json) -> Option<Option<T>> {
        match v {
            Json::Null => Some(None),
            v => T::read(v).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn read(v: &Json) -> Option<Vec<T>> {
        v.as_arr()?.iter().map(T::read).collect()
    }
}

/// Parses one JSON value; trailing content (other than whitespace) is
/// an error. Errors carry the byte offset they were detected at.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

/// A parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII")
            .to_string();
        Ok(Json::Num(raw))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy one UTF-8 scalar verbatim
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_arr_quotes_escapes_and_joins() {
        assert_eq!(Json::str_arr(Vec::<String>::new()).render(), "[]");
        assert_eq!(Json::str_arr(["a"]).render(), "[\"a\"]");
        assert_eq!(Json::str_arr(["a", "b"]).render(), "[\"a\", \"b\"]");
        assert_eq!(Json::str_arr(["q\"x"]).render(), "[\"q\\\"x\"]");
    }

    #[test]
    fn opt_num_renders_null() {
        assert_eq!(Json::opt_num(None).render(), "null");
        assert_eq!(Json::opt_num(Some(7)).render(), "7");
        assert_eq!(Json::fixed(2.0 / 3.0, 1).render(), "0.7");
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a \"quoted\" \\ back\nslash\ttab \u{1} end";
        let rendered = Json::obj([("k", Json::str(nasty))]).render();
        let parsed = parse(&rendered).expect("escaped string parses");
        assert_eq!(parsed.get("k").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        let v = parse(
            "{\"n\": null, \"t\": true, \"u\": 18446744073709551615, \
             \"neg\": -3, \"f\": 1.5, \"a\": [1, \"two\", []], \"o\": {\"x\": 0}}",
        )
        .expect("valid JSON");
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert_eq!(v.get("t").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("u").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("o").and_then(|o| o.get("x")).and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(v.at::<Option<u64>>("n"), Ok(None));
        assert_eq!(v.at::<Option<u64>>("u"), Ok(Some(u64::MAX)));
    }

    #[test]
    fn typed_reader_range_checks_every_narrowing() {
        let v = parse(
            "{\"big\": 4294967297, \"max\": 4294967295, \"neg\": -3, \"s\": \"x\", \
             \"v\": [[1, 2], []], \"o\": [1, null]}",
        )
        .unwrap();
        assert_eq!(v.at::<u64>("big"), Ok(4_294_967_297));
        assert_eq!(v.at::<u32>("max"), Ok(u32::MAX));
        let err = v.at::<u32>("big").unwrap_err();
        assert_eq!(err.key, "big");
        assert!(err.to_string().contains("u32"), "{err}");
        assert!(v.at::<u64>("neg").is_err());
        assert_eq!(v.at::<i64>("neg"), Ok(-3));
        assert_eq!(v.at::<String>("s"), Ok("x".to_string()));
        assert!(v.at::<bool>("s").is_err());
        assert_eq!(v.at::<Vec<Vec<u64>>>("v"), Ok(vec![vec![1, 2], vec![]]));
        assert_eq!(v.at::<Vec<Option<u32>>>("o"), Ok(vec![Some(1), None]));
        assert!(v.at::<Vec<u32>>("o").is_err());
        assert_eq!(v.arr("v").map(<[Json]>::len), Ok(2));
        assert!(v.arr("s").is_err());
        let missing = v.at::<u64>("nope").unwrap_err();
        assert_eq!(missing.wanted, None);
        assert_eq!(missing.to_string(), "missing field `nope`");
    }

    #[test]
    fn rejects_torn_prefixes() {
        // every proper prefix of a journal-style line must fail to
        // parse — the torn-line recovery guarantee rests on this
        let line = "{\"job\": 3, \"result\": {\"kind\": \"closure\", \"bins\": [{\"b\": 1}]}}";
        for cut in 1..line.len() {
            assert!(
                parse(&line[..cut]).is_err(),
                "prefix of length {cut} unexpectedly parsed"
            );
        }
        assert!(parse(line).is_ok());
    }

    #[test]
    fn render_round_trips_and_canonicalizes() {
        let source = "{\"n\": null, \"t\": true, \"u\": 18446744073709551615, \
                      \"s\": \"a \\\"b\\\"\\n\", \"a\": [1, [], {\"x\": 0}]}";
        let v = parse(source).expect("valid JSON");
        let rendered = v.render();
        assert_eq!(parse(&rendered).expect("render parses"), v);
        // canonical: rendering the re-parse is byte-stable
        assert_eq!(parse(&rendered).expect("render parses").render(), rendered);
        assert_eq!(Json::num(7).render(), "7");
        assert_eq!(Json::num_arr([1, 2]).render(), "[1, 2]");
        assert_eq!(
            parse("{\"a\": [3, 5, 8]}").unwrap().at::<Vec<u64>>("a"),
            Ok(vec![3, 5, 8])
        );
    }

    #[test]
    fn parses_unicode_escapes() {
        let v = parse("\"\\u00e9\\ud83d\\ude00\"").expect("unicode escapes");
        assert_eq!(v.as_str(), Some("é😀"));
        assert!(parse("\"\\ud83d\"").is_err(), "lone surrogate must fail");
    }

    #[test]
    fn pretty_renders_empty_rows_as_a_blank_line() {
        let v = Json::obj([("n", Json::num(1)), ("bins", Json::Arr(vec![]))]);
        assert_eq!(
            v.render_pretty(&["bins"]),
            "{\n  \"n\": 1,\n  \"bins\": [\n\n  ]\n}\n"
        );
        // not a row: compact
        assert_eq!(v.render_pretty(&[]), "{\n  \"n\": 1,\n  \"bins\": []\n}\n");
    }

    #[test]
    fn pretty_indents_nested_objects_and_their_rows() {
        let row = Json::obj([("a", Json::num(1)), ("o", Json::obj([("x", Json::Null)]))]);
        let v = Json::obj([
            ("kind", Json::str("outer")),
            (
                "inner",
                Json::obj([
                    ("rows", Json::Arr(vec![row.clone(), row])),
                    ("flat", Json::num_arr([1, 2])),
                ]),
            ),
        ]);
        assert_eq!(
            v.render_pretty(&["rows"]),
            "{\n  \"kind\": \"outer\",\n  \"inner\": {\n    \"rows\": [\n      \
             {\"a\": 1, \"o\": {\"x\": null}},\n      {\"a\": 1, \"o\": {\"x\": null}}\n    \
             ],\n    \"flat\": [1, 2]\n  }\n}\n"
        );
    }

    #[test]
    fn pretty_escapes_keys_and_lays_out_top_level_arrays() {
        let key = "we\"ird\nkey";
        let v = Json::obj([(key, Json::str("v\\"))]);
        let pretty = v.render_pretty(&[]);
        assert_eq!(pretty, "{\n  \"we\\\"ird\\nkey\": \"v\\\\\"\n}\n");
        assert_eq!(parse(&pretty), Ok(v.clone()));
        let top = Json::Arr(vec![v, Json::num(3)]);
        assert_eq!(
            top.render_pretty(&[]),
            "[\n  {\n    \"we\\\"ird\\nkey\": \"v\\\\\"\n  },\n  3\n]\n"
        );
        assert_eq!(Json::Arr(vec![]).render_pretty(&[]), "[\n\n]\n");
    }

    #[cfg(feature = "proptest")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        const CHARS: [char; 14] = [
            'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀',
        ];

        fn arb_string() -> impl Strategy<Value = String> {
            prop::collection::vec(0usize..CHARS.len(), 0..6)
                .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
        }

        /// Keys mix the `rows` candidates with arbitrary text.
        fn arb_key() -> impl Strategy<Value = String> {
            prop_oneof![
                Just("bins".to_string()),
                Just("runs".to_string()),
                arb_string()
            ]
        }

        fn arb_json() -> impl Strategy<Value = Json> {
            let leaf = prop_oneof![
                Just(Json::Null),
                any::<bool>().prop_map(Json::Bool),
                any::<u64>().prop_map(Json::num),
                any::<i64>().prop_map(|i| Json::Num(i.to_string())),
                (any::<i32>(), 0usize..4).prop_map(|(v, p)| Json::fixed(v as f64 / 7.0, p)),
                arb_string().prop_map(Json::Str),
            ];
            leaf.prop_recursive(4, 32, 4, |inner| {
                prop_oneof![
                    prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
                    prop::collection::vec((arb_key(), inner), 0..4).prop_map(Json::Obj),
                ]
            })
        }

        fn arb_rows() -> impl Strategy<Value = Vec<&'static str>> {
            prop::collection::vec(prop_oneof![Just("bins"), Just("runs"), Just("x")], 0..3)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Both layouts parse back to the value, and re-rendering
            /// the parse reproduces them byte for byte. A compact line
            /// holds no raw control character (strings escape them),
            /// so it is valid JSON and one JSONL record.
            #[test]
            fn both_layouts_round_trip_byte_stable(v in arb_json(), rows in arb_rows()) {
                let line = v.render();
                prop_assert!(!line.bytes().any(|b| b < 0x20), "raw control in {:?}", line);
                let back = parse(&line).map_err(|e| e.to_string())?;
                prop_assert_eq!(&back, &v);
                prop_assert_eq!(back.render(), line);
                let pretty = v.render_pretty(&rows);
                let back = parse(&pretty).map_err(|e| e.to_string())?;
                prop_assert_eq!(&back, &v);
                prop_assert_eq!(back.render_pretty(&rows), pretty);
            }
        }
    }
}
