//! The one command-line parser of the `bench` binaries.
//!
//! `figs <id>|--all [flags]` and `ext_incast [flags]` share six flags, all
//! off by default:
//!
//! * `--trace` / `--metrics` / `--timeseries` / `--flight <path>` — see
//!   [`crate::obs_cli`];
//! * `--store <dir>` / `--no-store` — see [`crate::store_cli`]; `--no-store`
//!   wins wherever it stands.
//!
//! An entry's own flags (`ENTRY_FLAGS`) are legal for that entry alone and
//! each takes a value; the parser hands them back in command-line order and
//! the entry reads their values. Nothing is skipped: an unknown flag, a flag
//! another entry takes, or a flag at the end of the line with its value
//! missing is a [`Usage`] error — one JSON line on stderr and exit status 2.

use std::path::PathBuf;

/// `(entry, flag)`: the flags one entry takes besides the shared six.
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
    /// `--trace <path>`.
    pub trace: Option<PathBuf>,
    /// `--metrics <path>`.
    pub metrics: Option<PathBuf>,
    /// `--timeseries <path>`.
    pub timeseries: Option<PathBuf>,
    /// `--flight <path>`.
    pub flight: Option<PathBuf>,
    /// `--store <dir>`; `None` when `--no-store` was given too.
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

/// Parse the process arguments. With `entry` named (`ext_incast`) every
/// word is a flag or a flag's value; without (`figs`) the first word, when
/// it is `--all` or not a flag, selects the entry. A usage error exits.
pub fn parse(entry: Option<&str>) -> Args {
    let words: Vec<String> = std::env::args().skip(1).collect();
    parse_words(&words, entry).unwrap_or_else(|u| u.exit(entry.unwrap_or("figs")))
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
    let mut no_store = false;
    while let Some(word) = words.next() {
        let mut value = |flag: &str| {
            words
                .next()
                .cloned()
                .ok_or_else(|| Usage::new(flag, "missing value"))
        };
        match word.as_str() {
            "--trace" => args.trace = Some(value("--trace")?.into()),
            "--metrics" => args.metrics = Some(value("--metrics")?.into()),
            "--timeseries" => args.timeseries = Some(value("--timeseries")?.into()),
            "--flight" => args.flight = Some(value("--flight")?.into()),
            "--store" => args.store = Some(value("--store")?.into()),
            "--no-store" => no_store = true,
            other => {
                let &(_, flag) = ENTRY_FLAGS
                    .iter()
                    .find(|&&(of, flag)| Some(of) == entry && flag == other)
                    .ok_or_else(|| Usage::new(other, "unknown flag"))?;
                args.own.push((flag, value(flag)?));
            }
        }
    }
    if no_store {
        args.store = None;
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
    fn flags_take_their_values_and_no_store_wins() {
        let a = parse(
            "fig3 --trace t --timeseries --flight --flight f --store s",
            None,
        );
        assert_eq!(a.entry.as_deref(), Some("fig3"));
        // A value is a value even when it looks like a flag.
        assert_eq!(
            (a.trace, a.timeseries, a.flight, a.store),
            (
                Some("t".into()),
                Some("--flight".into()),
                Some("f".into()),
                Some("s".into())
            )
        );
        for line in ["--no-store --store s", "--store s --no-store"] {
            assert_eq!(parse(line, Some("ext_incast")).store, None);
        }
        let a = parse("--seed 2 --k 4", Some("ext_incast"));
        assert_eq!(a.own, [("--seed", "2".into()), ("--k", "4".into())]);
        let a = parse("--all --metrics d", None);
        assert_eq!(
            (a.entry.as_deref(), a.metrics),
            (Some("--all"), Some("d".into()))
        );
    }
}
