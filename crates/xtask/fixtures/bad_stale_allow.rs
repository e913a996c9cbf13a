//! Fixture: an allow directive that suppresses nothing is itself a finding —
//! it silently rots as the code under it changes.

// simlint: allow(index-literal) — nothing below actually indexes
pub fn innocuous() -> u32 {
    42
}
