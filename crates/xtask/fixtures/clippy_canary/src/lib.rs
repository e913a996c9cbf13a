//! One instance of everything the root `clippy.toml` and the sim crates'
//! `#![deny(clippy::…)]` header ban. `xtask selftest` fails unless clippy
//! reports each line marked `// canary:`.
#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp
)]

pub fn canary(p: &std::path::Path, opt: Option<u32>, res: Result<u32, ()>, a: f64, b: f64) -> bool {
    let _ = std::collections::HashMap::<u32, u32>::new(); // canary: HashMap
    let _ = std::collections::HashSet::<u32>::new(); // canary: HashSet
    let _ = std::time::SystemTime::UNIX_EPOCH; // canary: SystemTime
    let _ = std::thread::Builder::new(); // canary: Builder
    let _ = std::time::Instant::now(); // canary: Instant::now
    let _ = std::thread::spawn(|| {}); // canary: thread::spawn
    std::thread::scope(|_| {}); // canary: thread::scope
    let _ = std::fs::write(p, b"x"); // canary: fs::write
    let _ = std::fs::File::create(p); // canary: File::create
    let _ = obs::span::drain(); // canary: span::drain
    let _ = obs::span::Stopwatch::start().elapsed_ms(); // canary: Stopwatch::elapsed_ms
    let _ = opt.unwrap(); // canary: unwrap
    let _ = res.expect("canary"); // canary: expect
    a == b // canary: float_cmp
}
