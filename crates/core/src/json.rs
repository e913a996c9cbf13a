//! [`ToJson`]: how experiment results become a JSON tree.
//!
//! The tree, its reader and its writers are `obs::json`; [`Json`] is that
//! module's `Value` under the name result code has always used. What lives
//! here is the conversion: the [`ToJson`] trait, its impls for scalars,
//! containers and the `desim`/`netsim` types results carry (the orphan rule
//! wants trait and impls in one crate, and this is the one that sees those
//! types), and the two macros. Object keys keep the declaration order given
//! to [`impl_to_json!`](crate::impl_to_json), so `render_pretty` output is
//! byte-stable across runs and platforms.
//!
//! `Vec<T>`, `[T]` and `[T; N]` ask their element type how a slice of it
//! renders, through the provided method [`ToJson::slice_to_json`]: `f64`
//! answers a packed `Json::Nums`, a pair whose two sides answer
//! [`ToJson::as_num`] (`f64` is the one type that does) a packed
//! `Json::Pairs`, and every other type the default, an `Arr` of each
//! item's `to_json`. So a `(t, x)` series costs 16 bytes a point in the
//! tree instead of about 112, and renders to the same bytes.
//!
//! Implement [`ToJson`] for a result struct with one line:
//!
//! ```
//! use ecn_delay_core::impl_to_json;
//!
//! struct Row { n_flows: usize, rate_gbps: f64 }
//! impl_to_json!(Row { n_flows, rate_gbps });
//! ```

pub use obs::json::Value as Json;

/// Types that can serialize themselves into a [`Json`] tree.
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;

    /// Overridden to `Some(x)` by a type whose [`ToJson::to_json`] is
    /// always `Json::Num(x)`: what lets a slice of pairs of it pack.
    fn as_num(&self) -> Option<f64> {
        None
    }

    /// A slice of this type as JSON, the hook `Vec<T>`, `[T]` and `[T; N]`
    /// render through. The default is an `Arr` of each item's `to_json`;
    /// floats answer a packed `Json::Nums`, pairs of floats a packed
    /// `Json::Pairs`. Either renders byte for byte as that `Arr`.
    fn slice_to_json(items: &[Self]) -> Json
    where
        Self: Sized,
    {
        arr(items)
    }
}

fn arr<T: ToJson>(items: &[T]) -> Json {
    Json::Arr(items.iter().map(ToJson::to_json).collect())
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

    fn as_num(&self) -> Option<f64> {
        Some(*self)
    }

    fn slice_to_json(items: &[f64]) -> Json {
        Json::Nums(items.to_vec())
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
        T::slice_to_json(self)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        T::slice_to_json(self)
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        T::slice_to_json(self)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }

    fn slice_to_json(items: &[(A, B)]) -> Json {
        let pairs: Option<Vec<[f64; 2]>> = items
            .iter()
            .map(|(a, b)| Some([a.as_num()?, b.as_num()?]))
            .collect();
        pairs.map_or_else(|| arr(items), Json::Pairs)
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
    fn scalars_convert() {
        assert_eq!(true.to_json(), Json::Bool(true));
        assert_eq!(42u64.to_json(), Json::Int(42));
        assert_eq!((-7i32).to_json(), Json::Int(-7));
        assert_eq!(1.5f64.to_json(), Json::Num(1.5));
        assert_eq!(0.5f32.to_json(), Json::Num(0.5));
        assert_eq!("x".to_json(), Json::Str("x".to_string()));
        assert_eq!(f64::NAN.to_json().render_pretty(), "null");
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

    fn pretty(v: &impl ToJson) -> String {
        v.to_json().render_pretty()
    }

    /// Slices of floats and of float pairs pack; the text is the one the
    /// nested `Arr`s wrote.
    #[test]
    fn float_slices_and_float_pair_slices_pack() {
        let nums = vec![1.0, -0.0, 2.5];
        assert!(matches!(nums.to_json(), Json::Nums(_)));
        assert_eq!(pretty(&nums), "[\n  1.0,\n  -0.0,\n  2.5\n]");

        let pair_text = "[\n  [\n    0.0,\n    1.5\n  ],\n  [\n    0.125,\n    null\n  ]\n]";
        let pairs = vec![(0.0, 1.5), (0.125, f64::NAN)];
        assert!(matches!(pairs.to_json(), Json::Pairs(_)));
        assert_eq!(pretty(&pairs), pair_text);

        let array = [(0.0, 1.5), (0.125, f64::NAN)];
        assert!(matches!(array.to_json(), Json::Pairs(_)));
        assert_eq!(pretty(&array), pair_text);

        let nested = vec![vec![(1.0, 2.0)], vec![]];
        let Json::Arr(rows) = nested.to_json() else {
            panic!("an outer Arr");
        };
        assert!(rows.iter().all(|r| matches!(r, Json::Pairs(_))));
        assert_eq!(
            pretty(&nested),
            "[\n  [\n    [\n      1.0,\n      2.0\n    ]\n  ],\n  []\n]"
        );

        let mut ts = desim::stats::TimeSeries::new(0.0);
        ts.record(desim::SimTime::from_millis(2), 3.0);
        let Some(points) = ts.to_json().get("points").cloned() else {
            panic!("a points field");
        };
        assert!(matches!(points, Json::Pairs(_)));
        assert_eq!(
            ts.to_json().render_pretty(),
            "{\n  \"resolution_secs\": 0.0,\n  \"points\": [\n    [\n      0.002,\n      3.0\n    ]\n  ]\n}"
        );
    }

    /// A pair with a side that is not an `f64` stays a nested `Arr`: an
    /// integer renders without `.0`, and a time or a string is not packed.
    #[test]
    fn pairs_with_a_non_float_side_stay_nested() {
        let nested = |v: Json| match v {
            Json::Arr(items) => items.iter().all(|i| matches!(i, Json::Arr(_))),
            _ => false,
        };
        let counts = vec![(0.5, 3usize)];
        assert!(nested(counts.to_json()));
        assert_eq!(pretty(&counts), "[\n  [\n    0.5,\n    3\n  ]\n]");

        let times = vec![(desim::SimTime::from_millis(2), 1.0)];
        assert!(nested(times.to_json()));
        assert_eq!(pretty(&times), "[\n  [\n    0.002,\n    1.0\n  ]\n]");

        let named = vec![("q".to_string(), 1.0)];
        assert!(nested(named.to_json()));
        assert_eq!(pretty(&named), "[\n  [\n    \"q\",\n    1.0\n  ]\n]");
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
