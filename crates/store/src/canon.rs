//! Scenario-spec canonicalization and content addressing.
//!
//! A store key must identify a scenario by *meaning*, not by the accidents
//! of its serialization: two renderings of the same config — different key
//! order, different whitespace, `1.50` vs `1.5` — must collide, and any
//! semantic change must not. Canonical form is therefore
//! `obs::json::Value::render_canonical`: keys sorted bytewise
//! (recursively), no whitespace, integers lossless, floats in the workspace
//! convention with `-0.0` normalized to `0.0`, strings re-escaped with the
//! minimal escape set.
//!
//! The key is a 64-bit FNV-1a fold over `experiment id ++ 0x00 ++ canonical
//! config` — the same hash family as the `ext_incast` report digests, so
//! the whole repo speaks one fingerprint dialect.

/// FNV-1a offset basis (matches `ext_incast::report_digest`).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (matches `ext_incast::report_digest`).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Content-addressed identity of one scenario spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpecKey(pub u64);

impl SpecKey {
    /// 16-hex-digit rendering used in paths and logs.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Two-hex-digit shard prefix (256-way fan-out keeps directory listings
    /// short at atlas scale).
    pub fn shard(&self) -> String {
        format!("{:02x}", self.0 >> 56)
    }
}

/// Fold bytes into a running FNV-1a state.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Canonicalize a config document (see module docs). Errors are parse
/// failures with byte offsets.
pub fn canonical(config_json: &str) -> Result<String, String> {
    Ok(obs::json::parse(config_json)?.render_canonical())
}

/// Compute the store key for `(experiment id, config JSON)`. The id and the
/// canonicalized config are hashed with a `0x00` separator so the pair
/// `("a", "b…")` can never collide with `("ab", "…")`.
pub fn spec_key(experiment: &str, config_json: &str) -> Result<SpecKey, String> {
    let canon = canonical(config_json)?;
    let h = fnv1a(FNV_OFFSET, experiment.as_bytes());
    let h = fnv1a(h, &[0u8]);
    Ok(SpecKey(fnv1a(h, canon.as_bytes())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_and_whitespace_are_immaterial() {
        let a = canonical("{\"b\": 1, \"a\": {\"y\": 2, \"x\": 3}}").expect("parses");
        let b = canonical("{ \"a\" : {\"x\":3,\"y\":2},\n \"b\":1 }").expect("parses");
        assert_eq!(a, b);
        assert_eq!(a, "{\"a\":{\"x\":3,\"y\":2},\"b\":1}");
        assert_eq!(
            spec_key("exp", "{\"b\": 1, \"a\": 2}").expect("key"),
            spec_key("exp", "{\"a\":2,\"b\":1}").expect("key"),
        );
    }

    #[test]
    fn float_renderings_normalize() {
        assert_eq!(canonical("1.50").expect("parses"), "1.5");
        assert_eq!(canonical("1e1").expect("parses"), "10.0");
        assert_eq!(canonical("-0.0").expect("parses"), "0.0");
        // Shortest round-trip keeps distinct values distinct.
        assert_ne!(
            canonical("0.1").expect("parses"),
            canonical("0.10000000000000002").expect("parses"),
        );
    }

    #[test]
    fn integers_survive_beyond_f64_precision() {
        let a = canonical("9007199254740993").expect("parses"); // 2^53 + 1
        let b = canonical("9007199254740992").expect("parses"); // 2^53
        assert_eq!(a, "9007199254740993");
        assert_ne!(a, b);
    }

    #[test]
    fn semantic_changes_change_the_key() {
        let base = spec_key("ext_incast", "{\"k\": 8, \"seed\": 1}").expect("key");
        let seed = spec_key("ext_incast", "{\"k\": 8, \"seed\": 2}").expect("key");
        let exp = spec_key("ext_incast2", "{\"k\": 8, \"seed\": 1}").expect("key");
        assert_ne!(base, seed);
        assert_ne!(base, exp);
        // The 0x00 separator keeps (id, config) boundaries unambiguous.
        assert_ne!(
            spec_key("ab", "{}").expect("key"),
            spec_key("a", "{}").expect("key"),
        );
    }

    #[test]
    fn key_paths_are_stable_hex() {
        let k = spec_key("fig3", "{}").expect("key");
        assert_eq!(k.hex().len(), 16);
        assert_eq!(k.shard(), k.hex()[..2].to_string());
        // Pin the value: the canonical form and FNV fold must never drift,
        // or every existing store silently invalidates.
        assert_eq!(spec_key("fig3", "{ }").expect("key"), k);
    }

    #[test]
    fn string_escapes_round_trip() {
        let c = canonical("{\"s\": \"a\\\"b\\\\c\\n\"}").expect("parses");
        assert_eq!(c, "{\"s\":\"a\\\"b\\\\c\\n\"}");
        let again = canonical(&c).expect("canonical form re-parses");
        assert_eq!(c, again);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(canonical("{\"a\": }").is_err());
        assert!(spec_key("x", "not json").is_err());
    }
}
