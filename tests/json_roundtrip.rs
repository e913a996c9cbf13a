//! The JSON reader and writer agree with what the repository ships.
//!
//! `obs::json` is the one JSON implementation of the workspace. Its unit
//! tests round-trip random trees; this file holds it to the real thing:
//! every checked-in `results/*.json` must parse and re-render to the same
//! bytes — which pins the float convention, the escape set, the integer
//! width and the layout at once, against ≈ 23 MB the code did not generate
//! for the test — and every reader error must keep its text and byte offset,
//! because fault-spec and store diagnostics quote them.

use obs::json::parse;

#[test]
fn every_checked_in_result_re_renders_byte_for_byte() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("results/ is checked in")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 26, "only {} results found", files.len());
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable result");
        let tree = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // `==` on a 6 MB string, not `assert_eq!`: a mismatch should name
        // the file, not print it.
        assert!(
            tree.render_pretty() == text,
            "{} does not re-render to its own bytes",
            path.display()
        );
    }
}

#[test]
fn reader_errors_keep_their_text_and_byte_offset() {
    for (doc, error) in [
        (
            "{\"a\": 1} x",
            "trailing characters after document at byte 9",
        ),
        ("{\"a\": 1, \"a\": 2}", "duplicate key \"a\" at byte 12"),
        ("[\"a\\qb\"]", "unsupported escape at byte 5"),
        (
            "{\"a\": 1 \"b\": 2}",
            "expected ',' or '}' in object at byte 9",
        ),
        ("[1, 1e999]", "invalid number \"1e999\" at byte 9"),
    ] {
        assert_eq!(parse(doc), Err(error.to_string()), "{doc}");
    }
}
