//! Property tests for the store: canonicalization invariance under random
//! specs, quarantine of arbitrarily corrupted records, and convergence of
//! racing same-key writers. Randomness comes from `desim::SimRng` so every
//! failure is reproducible from the printed seed.

use desim::rng::SimRng;
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "store_prop_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Build a random (but valid) spec object: random key subset, random value
/// kinds, in a random order.
fn random_spec(rng: &mut SimRng) -> String {
    const KEYS: [&str; 8] = [
        "seed", "k", "bytes", "label", "rates", "nested", "flag", "scale",
    ];
    let mut picked: Vec<&str> = KEYS
        .iter()
        .copied()
        .filter(|_| rng.next_f64() < 0.7)
        .collect();
    if picked.is_empty() {
        picked.push("seed");
    }
    // Fisher–Yates so field order varies run to run.
    for i in (1..picked.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        picked.swap(i, j);
    }
    let mut body = Vec::new();
    for key in &picked {
        let value = match rng.next_below(5) {
            0 => format!("{}", rng.next_below(1_000_000)),
            1 => format!("{:.6}", rng.uniform(-1e3, 1e3)),
            2 => format!("\"s{}\"", rng.next_below(100)),
            3 => format!("[{}, {}]", rng.next_below(100), rng.uniform(0.0, 1.0)),
            _ => format!("{{\"inner\": {}}}", rng.next_below(10)),
        };
        body.push(format!("\"{key}\": {value}"));
    }
    format!("{{{}}}", body.join(", "))
}

/// Reorder the top-level fields of a flat-ish spec by rebuilding it from a
/// rotated field list. Only safe for the specs `random_spec` emits.
fn rotate_fields(spec: &str) -> String {
    let inner = spec
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .expect("spec is an object");
    // Split on top-level commas only.
    let mut fields = Vec::new();
    let (mut depth, mut start, mut in_str) = (0i32, 0usize, false);
    let bytes = inner.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'{' | b'[' if !in_str => depth += 1,
            b'}' | b']' if !in_str => depth -= 1,
            b',' if !in_str && depth == 0 => {
                fields.push(inner[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    let tail = inner[start..].trim();
    if !tail.is_empty() {
        fields.push(tail.to_string());
    }
    let shift = 1.min(fields.len().saturating_sub(1));
    fields.rotate_left(shift);
    format!("{{{}}}", fields.join(", "))
}

#[test]
fn canonicalization_is_idempotent_and_order_invariant_on_random_specs() {
    let seed = 0xeccd_2016;
    let mut rng = SimRng::new(seed);
    for trial in 0..200 {
        let spec = random_spec(&mut rng);
        let canon = store::canon::canonical(&spec)
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial}: canonical({spec}): {e}"));
        let again = store::canon::canonical(&canon)
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial}: re-canonical: {e}"));
        assert_eq!(canon, again, "seed {seed} trial {trial}: not idempotent");

        let rotated = rotate_fields(&spec);
        let canon_rot = store::canon::canonical(&rotated)
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial}: canonical({rotated}): {e}"));
        assert_eq!(
            canon, canon_rot,
            "seed {seed} trial {trial}: field order changed the canonical form\n  {spec}\n  {rotated}"
        );
        assert_eq!(
            store::spec_key("exp", &spec).unwrap().hex(),
            store::spec_key("exp", &rotated).unwrap().hex(),
            "seed {seed} trial {trial}: field order changed the key"
        );
    }
}

#[test]
fn canonical_form_of_a_control_character_is_a_fixed_point() {
    // A raw 0x01 inside a string canonicalizes to a `\u00XX` escape: every
    // writer emitted it, and no reader accepted it until reader and writers
    // became one module.
    let canon = store::canon::canonical("{\"note\": \"a\u{1}b\"}").expect("parses");
    assert_eq!(canon, "{\"note\":\"a\\u0001b\"}");
    assert_eq!(store::canon::canonical(&canon), Ok(canon.clone()));
}

#[test]
fn random_payloads_round_trip_through_put_get() {
    let root = tmp("roundtrip");
    let st = store::Store::open(&root).expect("open");
    let seed = 0x51de_cafe;
    let mut rng = SimRng::new(seed);
    for trial in 0..50u64 {
        let spec = format!("{{\"trial\": {trial}}}");
        let key = st.key("prop", &spec).expect("key");
        let len = rng.next_below(4096) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        st.put(&key, &payload).expect("put");
        assert_eq!(
            st.get(&key).as_deref(),
            Some(payload.as_slice()),
            "seed {seed} trial {trial}: payload of {len} bytes did not round-trip"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncation_at_any_point_quarantines_instead_of_serving() {
    let root = tmp("truncate");
    let st = store::Store::open(&root).expect("open");
    let mut rng = SimRng::new(0x0bad_f11e);
    for trial in 0..25 {
        let spec = format!("{{\"trial\": {trial}}}");
        let key = st.key("prop", &spec).expect("key");
        st.put(&key, b"a perfectly good record payload")
            .expect("put");
        let path = st.record_path(&key);
        let full = std::fs::read(&path).expect("read record");
        let cut = 1 + rng.next_below(full.len() as u64 - 1) as usize;
        std::fs::write(&path, &full[..cut]).expect("truncate");
        assert_eq!(
            st.get(&key),
            None,
            "trial {trial}: truncation at byte {cut}/{} served data",
            full.len()
        );
        assert!(
            !path.exists(),
            "trial {trial}: corrupt record left under its final name"
        );
    }
    let quarantined = std::fs::read_dir(root.join("corrupt"))
        .expect("corrupt dir")
        .count();
    assert_eq!(
        quarantined, 25,
        "every truncated record must be quarantined"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn single_bit_flips_quarantine_instead_of_serving() {
    let root = tmp("bitflip");
    let st = store::Store::open(&root).expect("open");
    let mut rng = SimRng::new(0xf11e_f00d);
    for trial in 0..25 {
        let spec = format!("{{\"trial\": {trial}}}");
        let key = st.key("prop", &spec).expect("key");
        st.put(&key, b"payload protected by an fnv checksum")
            .expect("put");
        let path = st.record_path(&key);
        let mut bytes = std::fs::read(&path).expect("read record");
        let bit = rng.next_below(bytes.len() as u64 * 8);
        // In-bounds by construction: bit / 8 < bytes.len().
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).expect("flip");
        assert_eq!(
            st.get(&key),
            None,
            "trial {trial}: record served after flipping bit {bit}"
        );
        assert!(
            !path.exists(),
            "trial {trial}: corrupt record left under its final name"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_same_key_writers_converge_to_one_valid_record() {
    let root = tmp("race");
    let st = store::Store::open(&root).expect("open");
    let key = st.key("prop", "{\"race\": 1}").expect("key");
    // Determinism gives every writer the same bytes for the same key, so
    // racing writers are the realistic failure mode a concurrent sweep
    // produces. All of them must land whole.
    let payload = b"the one true record for this spec".to_vec();
    let results = desim::par::par_map((0..16u32).collect::<Vec<_>>(), {
        let (root, payload) = (root.clone(), payload.clone());
        move |_| {
            let st = store::Store::open(&root).expect("open in writer");
            let key = st.key("prop", "{\"race\": 1}").expect("key in writer");
            st.put(&key, &payload).is_ok()
        }
    });
    assert!(results.iter().all(|&ok| ok), "a racing put failed");
    assert_eq!(
        st.get(&key).as_deref(),
        Some(payload.as_slice()),
        "record invalid after 16 concurrent writers"
    );
    let _ = std::fs::remove_dir_all(&root);
}
