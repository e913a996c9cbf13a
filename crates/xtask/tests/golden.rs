//! Golden-file test: the `--format json` report for a fixed input must be
//! byte-identical across runs and across refactors of the engine. Regenerate
//! the expectation with `SIMLINT_BLESS=1 cargo test -p xtask --test golden`.

use std::path::Path;

use xtask::report::render_report;
use xtask::{lint_source, Scope};

fn fixture(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn json_report_is_golden_and_byte_stable() {
    let input = fixture("fixtures/golden/input.rs");
    let src = std::fs::read_to_string(&input).expect("read golden input");
    // Lint under a stable relative path so the report does not embed the
    // machine-specific checkout location.
    let violations = lint_source(Path::new("fixtures/golden/input.rs"), &src, Scope::STRICT);
    assert!(
        !violations.is_empty(),
        "golden input no longer triggers any rules"
    );
    let first = render_report(&violations);
    let second = render_report(&violations);
    assert_eq!(first, second, "report rendering is not deterministic");

    let expected_path = fixture("fixtures/golden/expected.json");
    if std::env::var_os("SIMLINT_BLESS").is_some() {
        std::fs::write(&expected_path, &first).expect("bless expected.json");
        return;
    }
    let expected = std::fs::read_to_string(&expected_path)
        .expect("read expected.json (run with SIMLINT_BLESS=1 to create it)");
    assert_eq!(
        first, expected,
        "JSON report drifted from fixtures/golden/expected.json; \
         re-bless with SIMLINT_BLESS=1 if the change is intentional"
    );
}
