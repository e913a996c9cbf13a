//! The workspace's one JSON implementation: value tree, reader, and the two
//! writers.
//!
//! Every artifact the repo ships or caches goes through here: experiment
//! results (`ecn_delay_core::json::ToJson` builds a [`Value`],
//! [`Value::render_pretty`] writes it), store keys and cached records
//! ([`Value::render_canonical`], [`parse`]), fault specs and `SimError`
//! records, the simlint report, `simreport`, and this crate's own JSONL
//! exporters ([`write_f64`] / [`write_str`]). It lives in `obs` because
//! `obs` is the one crate every JSON user already links.
//!
//! One convention everywhere: floats use Rust's shortest round-trip
//! `Display` with a forced `.0` (a float-typed field never prints as a bare
//! integer) and non-finite floats are `null`; integers are lossless `i128`
//! (seeds and digests exceed the exact range of `f64`); strings escape `"`,
//! `\`, `\n`, `\r`, `\t` and write any other control character as `\u00XX`.
//!
//! A tree holds scalars, strings, objects and three kinds of array: the
//! general [`Value::Arr`], and two packed float arrays, [`Value::Nums`]
//! (`[x, …]`) and [`Value::Pairs`] (`[[t, x], …]`), which store 8 bytes per
//! float instead of a boxed [`Value::Num`] each. Results build the packed
//! forms (`ecn_delay_core::json::ToJson` packs slices of floats and of
//! float pairs); both writers render a packed array byte for byte as the
//! `Arr` of `Num`s it stands for, and `==` takes the two for equal.
//! [`parse`] reads back everything the writers can write, and builds only
//! `Arr`s, so `parse(v.render_pretty()) == v` for every tree of finite
//! floats.

use std::fmt::Write as _;

/// A JSON value tree.
///
/// 32 bytes (the `i128` sets the alignment); a variant that grows it grows
/// every tree, parsed ones included.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null` (also written for non-finite floats, which JSON cannot carry).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, kept losslessly.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An array of floats, packed: renders and compares as the `Arr` of
    /// [`Value::Num`]s it stands for.
    Nums(Vec<f64>),
    /// An array of float pairs, packed: renders and compares as the `Arr`
    /// of two-element `Arr`s of [`Value::Num`]s it stands for.
    Pairs(Vec<[f64; 2]>),
    /// An object, as an ordered key/value list: insertion order is kept by
    /// [`Value::render_pretty`], and duplicates are rejected at parse time.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object entry by key, if this value is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content widened to `f64`; `Null` reads as NaN (the writers
    /// render non-finite floats as `null`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(n) => Some(*n),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Non-negative integer content, if it fits `u64` exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Array items, if this is an [`Value::Arr`]. `None` for a packed
    /// array ([`Value::Nums`], [`Value::Pairs`]), which has no `Value`s to
    /// lend: those are built from results, and [`parse`] never makes one.
    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render with two-space indentation (the layout `serde_json`'s pretty
    /// printer used, so downstream plotting scripts keep working). Object
    /// keys keep their insertion order; the output is byte-stable across
    /// runs and platforms.
    pub fn render_pretty(&self) -> String {
        let mut s = String::new();
        self.write_pretty(&mut s, 0);
        s
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(x) => write_f64(out, *x),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                write_pretty_items(out, depth, items, |out, depth, v| {
                    v.write_pretty(out, depth)
                });
            }
            Value::Nums(xs) => write_pretty_items(out, depth, xs, |out, _, x| write_f64(out, *x)),
            Value::Pairs(ps) => write_pretty_items(out, depth, ps, |out, depth, p| {
                write_pretty_items(out, depth, p.as_slice(), |out, _, x| write_f64(out, *x));
            }),
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Render the canonical form store keys hash: object keys sorted
    /// bytewise (recursively), no whitespace, `-0.0` normalized to `0.0`.
    /// Two renderings of one config — different key order, different
    /// whitespace, `1.50` vs `1.5` — collide; any semantic change does not.
    pub fn render_canonical(&self) -> String {
        let mut s = String::new();
        self.write_canonical(&mut s);
        s
    }

    fn write_canonical(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(x) => write_f64_canonical(out, *x),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => write_canonical_items(out, items, |out, v| v.write_canonical(out)),
            Value::Nums(xs) => {
                write_canonical_items(out, xs, |out, x| write_f64_canonical(out, *x))
            }
            Value::Pairs(ps) => write_canonical_items(out, ps, |out, p| {
                write_canonical_items(out, p.as_slice(), |out, x| write_f64_canonical(out, *x));
            }),
            Value::Obj(entries) => {
                let mut sorted: Vec<&(String, Value)> = entries.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                out.push('{');
                for (n, (key, value)) in sorted.into_iter().enumerate() {
                    if n > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write_canonical(out);
                }
                out.push('}');
            }
        }
    }
}

/// `v == Value::Nums(xs.to_vec())`, without building it.
fn is_nums(v: &Value, xs: &[f64]) -> bool {
    match v {
        Value::Arr(items) => {
            items.len() == xs.len() && items.iter().zip(xs).all(|(v, x)| *v == Value::Num(*x))
        }
        Value::Nums(ys) => ys == xs,
        // Equal only when both are empty: a pair is not a number.
        Value::Pairs(ps) => ps.is_empty() && xs.is_empty(),
        _ => false,
    }
}

/// Equality up to storage: a packed array equals its expansion.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Pairs(a), Value::Pairs(b)) => a == b,
            (Value::Nums(xs), v) | (v, Value::Nums(xs)) => is_nums(v, xs),
            (Value::Pairs(ps), Value::Arr(items)) | (Value::Arr(items), Value::Pairs(ps)) => {
                items.len() == ps.len() && items.iter().zip(ps).all(|(v, p)| is_nums(v, p))
            }
            _ => false,
        }
    }
}

/// The pretty layout of an array whose items `write_item` renders one by
/// one, each at `depth + 1`.
fn write_pretty_items<T>(
    out: &mut String,
    depth: usize,
    items: &[T],
    write_item: impl Fn(&mut String, usize, &T),
) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        indent(out, depth + 1);
        write_item(out, depth + 1, item);
    }
    out.push('\n');
    indent(out, depth);
    out.push(']');
}

/// The canonical layout of an array whose items `write_item` renders.
fn write_canonical_items<T>(out: &mut String, items: &[T], write_item: impl Fn(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_item(out, item);
    }
    out.push(']');
}

/// Normalize the one float with two bit patterns; everything else
/// round-trips exactly through shortest `Display`.
fn write_f64_canonical(out: &mut String, x: f64) {
    write_f64(
        out,
        if x.to_bits() == (-0.0f64).to_bits() {
            0.0
        } else {
            x
        },
    );
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Append `x` in the workspace float convention: shortest round-trip
/// formatting with a forced `.0` for integral values, `null` for non-finite
/// values.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let start = out.len();
        let _ = write!(out, "{x}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a JSON string literal with the minimal escape set.
pub fn write_str(out: &mut String, s: &str) {
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

/// Parse a complete JSON document. Errors name the failing byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(r.msg("trailing characters after document"));
    }
    Ok(v)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn msg(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.msg(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.msg("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.msg("invalid literal"))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect_byte(b'{')?;
        let mut entries: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.msg(&format!("duplicate key {key:?}")));
            }
            self.expect_byte(b':')?;
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(entries)),
                _ => return Err(self.msg("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(self.msg("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bump() != Some(b'"') {
            return Err(self.msg("expected string"));
        }
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.msg("unsupported escape")),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(_) => {
                    // Re-read the full UTF-8 scalar from the source slice.
                    let start = self.pos - 1;
                    let rest = &self.bytes[start..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.msg("invalid UTF-8 in string"))?;
                    let Some(ch) = s.chars().next() else {
                        return Err(self.msg("unterminated string"));
                    };
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
                None => return Err(self.msg("unterminated string")),
            }
        }
    }

    /// The scalar after `\u`: four hex digits, or a high surrogate followed
    /// by `\u` and a low one. A surrogate without its partner is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.msg("lone surrogate in \\u escape"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.msg("lone surrogate in \\u escape"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        // Only a lone low surrogate is left to fail here.
        char::from_u32(code).ok_or_else(|| self.msg("lone surrogate in \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let digit = self.bump().and_then(|b| (b as char).to_digit(16));
            v = v * 16 + digit.ok_or_else(|| self.msg("invalid \\u escape"))?;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.msg("invalid number"))?;
        // Fraction/exponent-free numbers stay lossless integers.
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(self.msg(&format!("invalid number {text:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64_text(x: f64) -> String {
        let mut s = String::new();
        write_f64(&mut s, x);
        s
    }

    #[test]
    fn f64_formatting_matches_core_json_convention() {
        assert_eq!(f64_text(1.0), "1.0");
        assert_eq!(f64_text(0.25), "0.25");
        assert_eq!(f64_text(f64::NAN), "null");
        assert_eq!(f64_text(2.5e-7), "0.00000025");
    }

    #[test]
    fn scalars_render() {
        assert_eq!(Value::Null.render_pretty(), "null");
        assert_eq!(Value::Bool(true).render_pretty(), "true");
        assert_eq!(Value::Int(42).render_pretty(), "42");
        assert_eq!(Value::Int(-7).render_pretty(), "-7");
        assert_eq!(Value::Num(1.5).render_pretty(), "1.5");
        assert_eq!(Value::Num(2.0).render_pretty(), "2.0");
        assert_eq!(Value::Num(f64::NAN).render_pretty(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render_pretty(), "null");
    }

    #[test]
    fn floats_round_trip() {
        for &x in &[0.1, 1e-9, std::f64::consts::PI, 1e300, -2.5e-17] {
            let s = Value::Num(x).render_pretty();
            let back: f64 = s.parse().expect("parseable float");
            assert_eq!(back, x, "render of {x} was {s}");
        }
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Value::Str("a\"b\\c\nd".into()).render_pretty(),
            r#""a\"b\\c\nd""#
        );
        assert_eq!(Value::Str("\u{1}".into()).render_pretty(), "\"\\u0001\"");
    }

    #[test]
    fn arrays_and_objects_pretty_print() {
        let v = Value::Obj(vec![
            (
                "xs".to_string(),
                Value::Arr(vec![Value::Int(1), Value::Int(2)]),
            ),
            ("empty".to_string(), Value::Arr(vec![])),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn integers_stay_lossless() {
        let v = parse("{\"seed\": 18446744073709551615}").expect("parses");
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(u64::MAX));
        let v = parse("9007199254740993").expect("parses"); // 2^53 + 1
        assert_eq!(v, Value::Int(9_007_199_254_740_993));
    }

    #[test]
    fn floats_and_null_read_back() {
        let v = parse("{\"x\": 0.125, \"y\": null, \"n\": 3}").expect("parses");
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(0.125));
        assert!(v.get("y").and_then(Value::as_f64).is_some_and(f64::is_nan));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(3.0));
    }

    #[test]
    fn structural_accessors() {
        let v = parse("{\"cells\": [{\"p\": \"dcqcn\"}], \"ok\": true}").expect("parses");
        let cells = v.get("cells").and_then(Value::items).expect("array");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("p").and_then(Value::as_str), Some("dcqcn"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn errors_carry_byte_offsets() {
        for (doc, needle) in [
            ("", "expected a JSON value"),
            ("{\"a\": 1} x", "trailing characters"),
            ("{\"a\": 1, \"a\": 2}", "duplicate key"),
            ("[1, 2", "expected ',' or ']'"),
            ("{\"a\" 1}", "expected ':'"),
        ] {
            let e = parse(doc).expect_err(doc);
            assert!(e.contains(needle), "{doc:?}: {e}");
            assert!(e.contains("at byte"), "{doc:?}: {e}");
        }
    }

    #[test]
    fn unicode_escapes_read_back() {
        assert_eq!(
            parse(r#""\u0001\b\f\u00e9\u20ac\ud83d\ude00""#),
            Ok(Value::Str("\u{1}\u{8}\u{c}é€😀".into()))
        );
        for (doc, needle) in [
            (r#""\ud83d""#, "lone surrogate in \\u escape at byte 7"),
            (
                r#""\ud83d\u0041""#,
                "lone surrogate in \\u escape at byte 13",
            ),
            (r#""\ude00""#, "lone surrogate in \\u escape at byte 7"),
            (r#""\u12g4""#, "invalid \\u escape at byte 6"),
            (r#""\u12"#, "invalid \\u escape at byte 5"),
        ] {
            assert_eq!(parse(doc), Err(needle.to_string()), "{doc}");
        }
    }

    /// SplitMix64: `obs` sits at the bottom of the crate graph, below
    /// `desim::rng`.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }

        fn string(&mut self) -> String {
            const ALPHABET: [char; 16] = [
                'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1b}', '\u{7f}',
                'é', '€', '😀',
            ];
            (0..self.below(7)).map(|_| self.pick(&ALPHABET)).collect()
        }

        fn int(&mut self) -> i128 {
            const EDGES: [i128; 8] = [
                0,
                -1,
                i128::MIN,
                i128::MAX,
                u64::MAX as i128,
                i64::MIN as i128,
                i64::MAX as i128,
                (1 << 53) + 1,
            ];
            match self.below(3) {
                0 => self.pick(&EDGES),
                1 => self.next() as i64 as i128,
                _ => ((self.next() as i128) << 64) | self.next() as i128,
            }
        }

        fn float(&mut self) -> f64 {
            const EDGES: [f64; 12] = [
                0.0,
                -0.0,
                1.0,
                -2.5e-7,
                1e300, // prints as 301 digits without a '.'
                1e21,
                f64::MAX,
                f64::MIN_POSITIVE,
                5e-324, // smallest subnormal
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            if self.below(2) == 0 {
                self.pick(&EDGES)
            } else {
                // Any bit pattern: subnormals, huge exponents, NaN payloads.
                f64::from_bits(self.next())
            }
        }

        fn nums(&mut self) -> Vec<f64> {
            (0..self.below(5)).map(|_| self.float()).collect()
        }

        fn pairs(&mut self) -> Vec<[f64; 2]> {
            (0..self.below(5))
                .map(|_| [self.float(), self.float()])
                .collect()
        }

        fn tree(&mut self, depth: usize) -> Value {
            let leaves_only = depth >= 6;
            match self.below(if leaves_only { 7 } else { 9 }) {
                0 => Value::Null,
                1 => Value::Bool(self.below(2) == 0),
                2 => Value::Int(self.int()),
                3 => Value::Num(self.float()),
                4 => Value::Str(self.string()),
                5 => Value::Nums(self.nums()),
                6 => Value::Pairs(self.pairs()),
                7 => Value::Arr((0..self.below(4)).map(|_| self.tree(depth + 1)).collect()),
                _ => {
                    let mut entries: Vec<(String, Value)> = Vec::new();
                    for _ in 0..self.below(4) {
                        let key = self.string();
                        if entries.iter().all(|(k, _)| *k != key) {
                            entries.push((key, self.tree(depth + 1)));
                        }
                    }
                    Value::Obj(entries)
                }
            }
        }
    }

    /// `v` with every packed array written out as the `Arr` of `Num`s it
    /// stands for.
    fn expand(v: &Value) -> Value {
        match v {
            Value::Nums(xs) => Value::Arr(xs.iter().map(|x| Value::Num(*x)).collect()),
            Value::Pairs(ps) => Value::Arr(
                ps.iter()
                    .map(|p| expand(&Value::Nums(p.to_vec())))
                    .collect(),
            ),
            Value::Arr(items) => Value::Arr(items.iter().map(expand).collect()),
            Value::Obj(entries) => Value::Obj(
                entries
                    .iter()
                    .map(|(k, e)| (k.clone(), expand(e)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// What a rendering of `v` must read back as: non-finite floats are
    /// `null`; the canonical form also sorts keys and drops the sign of zero.
    /// A packed array stays packed unless it holds a `null`.
    fn read_back(v: &Value, canonical: bool) -> Value {
        let float = |x: f64| {
            if canonical && x.to_bits() == (-0.0f64).to_bits() {
                0.0
            } else {
                x
            }
        };
        match v {
            Value::Num(x) if !x.is_finite() => Value::Null,
            Value::Num(x) => Value::Num(float(*x)),
            Value::Nums(xs) if xs.iter().all(|x| x.is_finite()) => {
                Value::Nums(xs.iter().map(|x| float(*x)).collect())
            }
            Value::Pairs(ps) if ps.iter().flatten().all(|x| x.is_finite()) => {
                Value::Pairs(ps.iter().map(|p| p.map(float)).collect())
            }
            Value::Nums(_) | Value::Pairs(_) => read_back(&expand(v), canonical),
            Value::Arr(items) => {
                Value::Arr(items.iter().map(|i| read_back(i, canonical)).collect())
            }
            Value::Obj(entries) => {
                let mut out: Vec<(String, Value)> = entries
                    .iter()
                    .map(|(k, e)| (k.clone(), read_back(e, canonical)))
                    .collect();
                if canonical {
                    out.sort_by(|a, b| a.0.cmp(&b.0));
                }
                Value::Obj(out)
            }
            other => other.clone(),
        }
    }

    /// The `Debug` form of a tree: equal exactly when the trees are equal
    /// *and* their floats have the same bits (`==` takes `-0.0` for `0.0`).
    fn bits(v: &Value) -> String {
        format!("{v:?}")
    }

    /// The reader builds only `Arr`s, so a packed array reads back as its
    /// expansion: equal under `==`, and bit for bit once expanded.
    #[test]
    fn random_trees_round_trip_through_both_renderers() {
        let mut rng = Rng(0x5eed_0019);
        for case in 0..2000 {
            let v = rng.tree(0);
            let pretty = v.render_pretty();
            let back = parse(&pretty).unwrap_or_else(|e| panic!("case {case}: {e}\n{pretty}"));
            let want = read_back(&v, false);
            assert_eq!(back, want, "case {case}");
            assert_eq!(want, back, "case {case}");
            assert_eq!(bits(&back), bits(&expand(&want)), "case {case}");

            let canon = v.render_canonical();
            let back = parse(&canon).unwrap_or_else(|e| panic!("case {case}: {e}\n{canon}"));
            let want = read_back(&v, true);
            assert_eq!(back, want, "case {case}");
            assert_eq!(want, back, "case {case}");
            assert_eq!(bits(&back), bits(&expand(&want)), "case {case}");
            assert_eq!(back.render_canonical(), canon, "case {case}");
        }
    }

    #[test]
    fn a_value_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    /// Both writers render a packed array byte for byte as its expansion,
    /// at any depth: empty, `-0.0`, subnormal and non-finite floats
    /// included (`Rng::float` draws them half the time).
    #[test]
    fn packed_arrays_render_as_their_expansion() {
        let mut rng = Rng(0x5eed_0040);
        for case in 0..2000 {
            let v = rng.tree(0);
            let e = expand(&v);
            assert_eq!(v.render_pretty(), e.render_pretty(), "case {case}");
            assert_eq!(v.render_canonical(), e.render_canonical(), "case {case}");
        }
        let v = Value::Pairs(vec![[-0.0, 0.25], [f64::NAN, 1.0]]);
        assert_eq!(
            v.render_pretty(),
            "[\n  [\n    -0.0,\n    0.25\n  ],\n  [\n    null,\n    1.0\n  ]\n]"
        );
        assert_eq!(v.render_canonical(), "[[0.0,0.25],[null,1.0]]");
        assert_eq!(Value::Nums(vec![]).render_pretty(), "[]");
        assert_eq!(Value::Pairs(vec![]).render_canonical(), "[]");
    }

    #[test]
    fn a_packed_array_equals_its_expansion_only() {
        let num = Value::Num;
        let nums = Value::Nums(vec![1.0, 2.0]);
        assert_eq!(nums, Value::Arr(vec![num(1.0), num(2.0)]));
        assert_ne!(nums, Value::Arr(vec![Value::Int(1), Value::Int(2)]));
        assert_ne!(nums, Value::Nums(vec![1.0]));
        assert_ne!(nums, Value::Pairs(vec![[1.0, 2.0]]));
        assert_ne!(Value::Nums(vec![f64::NAN]), Value::Nums(vec![f64::NAN]));

        let pairs = Value::Pairs(vec![[1.0, 2.0]]);
        assert_eq!(pairs, Value::Arr(vec![nums.clone()]));
        assert_eq!(
            pairs,
            Value::Arr(vec![Value::Arr(vec![num(1.0), num(2.0)])])
        );
        assert_ne!(pairs, Value::Arr(vec![num(1.0), num(2.0)]));
        assert_ne!(pairs, Value::Pairs(vec![[1.0, 3.0]]));

        let empty = [
            Value::Arr(vec![]),
            Value::Nums(vec![]),
            Value::Pairs(vec![]),
        ];
        for a in &empty {
            for b in &empty {
                assert_eq!(a, b);
            }
            assert_ne!(a, &Value::Null);
        }
    }

    /// A packed array is an array to the writers and to `==` only: the
    /// accessors have no `Value`s to lend.
    #[test]
    fn accessors_answer_none_for_a_packed_array() {
        for v in [Value::Nums(vec![1.0]), Value::Pairs(vec![[1.0, 2.0]])] {
            assert_eq!(v.items(), None);
            assert_eq!(v.get("x"), None);
            assert_eq!(v.as_f64(), None);
            assert_eq!(v.as_u64(), None);
            assert_eq!(v.as_str(), None);
        }
    }
}
