//! The one command-line parser of the `bench` binaries.
//!
//! `figs <id>|--all [flags]` and `ext_incast [flags]` share two flags, both
//! off by default:
//!
//! * `--obs <dir>` — record the run's trace, metrics, time series and
//!   flight recorder into `<dir>`, see [`crate::obs_cli`];
//! * `--store <dir>` — serve and record results through a crash-safe
//!   store, see [`crate::store_cli`].
//!
//! An entry's own flags (`ENTRY_FLAGS`) are legal for that entry alone and
//! each takes a value; the parser hands them back in command-line order and
//! the entry reads their values. Nothing is skipped: an unknown flag, a flag
//! another entry takes, or a flag at the end of the line with its value
//! missing is a [`Usage`] error — one JSON line on stderr and exit status 2.
//! So are an `--obs` directory that cannot be created and a `--store` that
//! cannot be opened, before any work runs.

use std::path::PathBuf;

/// `(entry, flag)`: the flags one entry takes besides the shared two.
const ENTRY_FLAGS: &[(&str, &str)] = &[
    ("ext_faults", "--faults"),
    ("ext_incast", "--k"),
    ("ext_incast", "--senders"),
    ("ext_incast", "--bytes"),
    ("ext_incast", "--seed"),
    ("ext_incast", "--inject-panic"),
];

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    /// `figs`' leading word: a figure id or `--all`.
    pub entry: Option<String>,
    /// `--obs <dir>`.
    pub obs: Option<PathBuf>,
    /// `--store <dir>`.
    pub store: Option<PathBuf>,
    /// The entry's own flags in command-line order, each with its value.
    pub own: Vec<(&'static str, String)>,
}

/// A rejected invocation: which flag and why.
#[derive(Debug)]
pub struct Usage {
    flag: String,
    reason: String,
}

impl Usage {
    /// `flag` was rejected because of `reason`.
    pub fn new(flag: impl Into<String>, reason: impl Into<String>) -> Self {
        Usage {
            flag: flag.into(),
            reason: reason.into(),
        }
    }

    /// Print the diagnostic — a line for people, then one line of JSON so
    /// scripts can tell usage errors from simulation failures — and exit
    /// with status 2.
    pub fn exit(&self, program: &str) -> ! {
        eprintln!("{program}: {}: {}", self.flag, self.reason);
        let (mut flag, mut reason) = (String::new(), String::new());
        obs::json::write_str(&mut flag, &self.flag);
        obs::json::write_str(&mut reason, &self.reason);
        eprintln!("{{\"error\": \"invalid_usage\", \"flag\": {flag}, \"reason\": {reason}}}");
        std::process::exit(2);
    }
}

/// Parse the process arguments, create the `--obs` directory and open the
/// `--store`. With `entry` named (`ext_incast`) every word is a flag or a
/// flag's value; without (`figs`) the first word, when it is `--all` or not
/// a flag, selects the entry. A usage error exits.
pub fn parse(entry: Option<&str>) -> Args {
    let words: Vec<String> = std::env::args().skip(1).collect();
    parse_words(&words, entry)
        .and_then(|args| {
            if let Some(dir) = &args.obs {
                std::fs::create_dir_all(dir).map_err(|e| {
                    Usage::new("--obs", format!("cannot create {}: {e}", dir.display()))
                })?;
            }
            if let Some(dir) = &args.store {
                store::Store::open(dir).map_err(|e| {
                    Usage::new("--store", format!("cannot open {}: {e}", dir.display()))
                })?;
            }
            Ok(args)
        })
        .unwrap_or_else(|u| u.exit(entry.unwrap_or("figs")))
}

fn parse_words(words: &[String], entry: Option<&str>) -> Result<Args, Usage> {
    let mut args = Args::default();
    let mut words = words.iter().peekable();
    if entry.is_none() {
        args.entry = words
            .next_if(|w| *w == "--all" || !w.starts_with("--"))
            .cloned();
    }
    let entry = entry.or(args.entry.as_deref());
    while let Some(word) = words.next() {
        let mut value = |flag: &str| {
            words
                .next()
                .cloned()
                .ok_or_else(|| Usage::new(flag, "missing value"))
        };
        match word.as_str() {
            "--obs" => args.obs = Some(value("--obs")?.into()),
            "--store" => args.store = Some(value("--store")?.into()),
            other => {
                let &(_, flag) = ENTRY_FLAGS
                    .iter()
                    .find(|&&(of, flag)| Some(of) == entry && flag == other)
                    .ok_or_else(|| Usage::new(other, "unknown flag"))?;
                args.own.push((flag, value(flag)?));
            }
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, entry: Option<&str>) -> Args {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_words(&words, entry).expect(line)
    }

    #[test]
    fn flags_take_their_values() {
        let a = parse("fig3 --obs --store --store s", None);
        assert_eq!(a.entry.as_deref(), Some("fig3"));
        // A value is a value even when it looks like a flag.
        assert_eq!((a.obs, a.store), (Some("--store".into()), Some("s".into())));
        let a = parse("--seed 2 --k 4", Some("ext_incast"));
        assert_eq!(a.own, [("--seed", "2".into()), ("--k", "4".into())]);
        let a = parse("--all --obs d", None);
        assert_eq!(
            (a.entry.as_deref(), a.obs),
            (Some("--all"), Some("d".into()))
        );
    }
}
