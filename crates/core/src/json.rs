//! Minimal, dependency-free JSON emission for experiment results.
//!
//! The workspace builds offline with no external crates, so instead of
//! `serde`/`serde_json` the experiment layer serializes through the
//! [`ToJson`] trait and the [`Json`] value tree defined here. Output is
//! pretty-printed with two-space indentation and is byte-stable across
//! runs and platforms: floats use Rust's shortest round-trip `Display`,
//! integers are emitted losslessly, and object keys keep the declaration
//! order given to [`impl_to_json!`](crate::impl_to_json).
//!
//! Implement [`ToJson`] for a result struct with one line:
//!
//! ```
//! use ecn_delay_core::impl_to_json;
//!
//! struct Row { n_flows: usize, rate_gbps: f64 }
//! impl_to_json!(Row { n_flows, rate_gbps });
//! ```

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also emitted for non-finite floats, which JSON cannot carry).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, emitted losslessly.
    Int(i128),
    /// A floating-point number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved in the output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Render with two-space indentation (the layout `serde_json`'s pretty
    /// printer used, so downstream plotting scripts keep working).
    pub fn render_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // Shortest round-trip formatting; force a ".0" so a
                    // float-typed field never prints as a bare integer.
                    let s = format!("{x}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
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
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
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
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Types that can serialize themselves into a [`Json`] tree.
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

macro_rules! impl_int {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        })*
    };
}
impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson, D: ToJson> ToJson for (A, B, C, D) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![
            self.0.to_json(),
            self.1.to_json(),
            self.2.to_json(),
            self.3.to_json(),
        ])
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

/// Implement [`ToJson`] for a struct by listing its fields, preserving the
/// listed order in the emitted object.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field))),*
                ])
            }
        }
    };
}

/// Implement [`ToJson`] for a fieldless enum (or any `Debug` type whose
/// `Debug` form is its stable wire name), serializing as a string.
#[macro_export]
macro_rules! impl_to_json_debug {
    ($($ty:ty),* $(,)?) => {
        $(impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(format!("{self:?}"))
            }
        })*
    };
}

// Serializable views of foreign (workspace-crate) types used in results.

impl ToJson for desim::stats::TimeSeries {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("resolution_secs".to_string(), self.resolution().to_json()),
            ("points".to_string(), self.points().to_json()),
        ])
    }
}

impl ToJson for desim::SimTime {
    fn to_json(&self) -> Json {
        Json::Num(self.as_secs_f64())
    }
}

impl ToJson for desim::SimDuration {
    fn to_json(&self) -> Json {
        Json::Num(self.as_secs_f64())
    }
}

impl ToJson for netsim::FctRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("flow".to_string(), self.flow.to_json()),
            ("size_bytes".to_string(), self.size_bytes.to_json()),
            ("start_s".to_string(), self.start_s.to_json()),
            ("fct_s".to_string(), self.fct_s.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render_pretty(), "null");
        assert_eq!(true.to_json().render_pretty(), "true");
        assert_eq!(42u64.to_json().render_pretty(), "42");
        assert_eq!((-7i32).to_json().render_pretty(), "-7");
        assert_eq!(1.5f64.to_json().render_pretty(), "1.5");
        assert_eq!(2.0f64.to_json().render_pretty(), "2.0");
        assert_eq!(f64::NAN.to_json().render_pretty(), "null");
        assert_eq!(f64::INFINITY.to_json().render_pretty(), "null");
    }

    #[test]
    fn floats_round_trip() {
        for &x in &[0.1, 1e-9, std::f64::consts::PI, 1e300, -2.5e-17] {
            let s = x.to_json().render_pretty();
            let back: f64 = s.parse().expect("parseable float");
            assert_eq!(back, x, "render of {x} was {s}");
        }
    }

    #[test]
    fn strings_escape() {
        assert_eq!("a\"b\\c\nd".to_json().render_pretty(), r#""a\"b\\c\nd""#);
        assert_eq!("\u{1}".to_json().render_pretty(), "\"\\u0001\"");
    }

    #[test]
    fn arrays_and_objects_pretty_print() {
        let v = Json::Obj(vec![
            ("xs".to_string(), vec![1u32, 2].to_json()),
            ("empty".to_string(), Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn struct_macro_preserves_field_order() {
        struct Demo {
            b: u32,
            a: f64,
        }
        impl_to_json!(Demo { b, a });
        let d = Demo { b: 1, a: 0.5 };
        assert_eq!(
            d.to_json().render_pretty(),
            "{\n  \"b\": 1,\n  \"a\": 0.5\n}"
        );
    }

    #[test]
    fn tuples_and_options() {
        let t = (1u32, 2.5f64, "x".to_string());
        assert_eq!(t.to_json().render_pretty(), "[\n  1,\n  2.5,\n  \"x\"\n]");
        let none: Option<u32> = None;
        assert_eq!(none.to_json().render_pretty(), "null");
        assert_eq!(Some(3u8).to_json().render_pretty(), "3");
    }
}
