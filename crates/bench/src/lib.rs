//! Support library of the `repro` binary (`src/bin/repro.rs`).
//!
//! `repro` is a thin driver over `rc4_attacks::Registry`: it regenerates
//! every table, figure and end-to-end attack of the paper at a chosen scale,
//! drives the dataset store, fleet campaigns and the resident job server,
//! and hosts `repro bench`, the repository's one kernel benchmark harness
//! and CI perf gate. The end-to-end benchmark is the separate `e2ebench/`
//! package.
//!
//! The library holds the flag parser that every `repro` subcommand shares:
//! a subcommand declares its flags in a [`FlagTable`] and reads the parsed
//! [`Flags`] through typed getters.

use std::fmt::Display;
use std::str::FromStr;

/// Result of one command-line step. The error is the message and the
/// process exit code: 0 for `--help` (the message is the usage, printed on
/// stdout), 2 for a usage error, 1 for a runtime error.
pub type CliResult<T> = Result<T, (String, u8)>;

/// A usage error (exit 2).
pub fn fail<T>(msg: impl Into<String>) -> CliResult<T> {
    Err((msg.into(), 2))
}

/// A runtime error (exit 1).
pub fn runtime<T>(e: impl Display) -> CliResult<T> {
    Err((e.to_string(), 1))
}

/// Writes `args` to stdout, the one way `repro` prints results.
///
/// A closed pipe (`repro list | head -1`) means the reader wants nothing
/// more: the span trace is flushed and the process exits 0. Any other write
/// error exits 1 with a message on stderr.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let Err(e) = std::io::stdout().lock().write_fmt(args) else {
        return;
    };
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        rc4_obs::trace::flush();
        std::process::exit(0);
    }
    eprintln!("repro: cannot write to stdout: {e}");
    std::process::exit(1);
}

/// Parses a `u64` written in decimal or as `0x`-prefixed hex (seeds are
/// usually quoted in hex in the experiment docs).
pub fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("expected an integer, got '{text}'"))
}

/// The flags one subcommand accepts.
pub struct FlagTable {
    /// Flags that take no value, such as `--json`.
    pub switches: &'static [&'static str],
    /// Flags that consume the next argument as their value, such as
    /// `--seed N`.
    pub valued: &'static [&'static str],
}

impl FlagTable {
    /// Parses `args` against the table. `--help` or `-h` returns `usage`
    /// with exit 0; a valued flag at the end of `args` or an unknown
    /// `--flag` is a usage error naming it, with `usage` appended. Every
    /// other argument is a positional.
    pub fn parse(&self, args: &[String], usage: &'static str) -> CliResult<Flags> {
        let mut flags = Flags {
            usage,
            switches: Vec::new(),
            values: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_str();
            if arg == "--help" || arg == "-h" {
                return Err((usage.to_string(), 0));
            } else if let Some(&flag) = self.switches.iter().find(|&&f| f == arg) {
                flags.switches.push(flag);
            } else if let Some(&flag) = self.valued.iter().find(|&&f| f == arg) {
                let Some(value) = it.next() else {
                    return flags.usage_error(format!("{flag} requires a value"));
                };
                flags.values.push((flag, value.clone()));
            } else if arg.starts_with("--") {
                return flags.usage_error(format!("unknown flag '{arg}'"));
            } else {
                flags.positional.push(arg.to_string());
            }
        }
        Ok(flags)
    }
}

/// The parsed command line of one subcommand. A valued flag given more
/// than once keeps its last value.
pub struct Flags {
    usage: &'static str,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    /// The non-flag arguments, in order.
    pub positional: Vec<String>,
}

impl Flags {
    /// A usage error: `msg`, then the subcommand's usage (exit 2).
    pub fn usage_error<T>(&self, msg: impl Display) -> CliResult<T> {
        fail(format!("{msg}\n{}", self.usage))
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// `flag`'s value as a decimal or `0x`-hex integer.
    pub fn u64(&self, flag: &str) -> CliResult<Option<u64>> {
        self.value(flag)
            .map(|v| parse_u64(v).or_else(|msg| fail(format!("{flag}: {msg}"))))
            .transpose()
    }

    /// `flag`'s value as a decimal or `0x`-hex `usize`.
    pub fn usize(&self, flag: &str) -> CliResult<Option<usize>> {
        self.u64(flag)?
            .map(|v| usize::try_from(v).or_else(|_| fail(format!("{flag}: {v} is too large"))))
            .transpose()
    }

    /// `flag`'s value as a `usize` of at least `min`.
    pub fn at_least(&self, flag: &str, min: usize) -> CliResult<Option<usize>> {
        match self.usize(flag)? {
            Some(v) if v < min => fail(format!("{flag} must be at least {min}")),
            v => Ok(v),
        }
    }

    /// `flag`'s value parsed as `T`; `what` names the expected form in the
    /// error ("a number").
    pub fn parse<T: FromStr>(&self, flag: &str, what: &str) -> CliResult<Option<T>> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .or_else(|_| fail(format!("{flag} expects {what}, got '{v}'")))
            })
            .transpose()
    }

    /// The positionals, failing (exit 2) when there are more than `max`.
    pub fn at_most(&self, max: usize) -> CliResult<&[String]> {
        match self.positional.get(max) {
            Some(extra) => self.usage_error(format!("unexpected argument '{extra}'")),
            None => Ok(&self.positional),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: FlagTable = FlagTable {
        switches: &["--json"],
        valued: &["--seed", "--out"],
    };
    const USAGE: &str = "usage: test [--json] [--seed N] [--out FILE]";

    fn parse(args: &[&str]) -> CliResult<Flags> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        TABLE.parse(&args, USAGE)
    }

    #[test]
    fn a_missing_value_names_the_flag() {
        let Err((msg, 2)) = parse(&["--json", "--seed"]) else {
            panic!("a trailing valued flag must be a usage error");
        };
        assert!(msg.starts_with("--seed requires a value\n"), "{msg}");
        assert!(msg.ends_with(USAGE), "{msg}");
    }

    #[test]
    fn an_unknown_flag_prints_usage() {
        let Err((msg, 2)) = parse(&["--frobnicate"]) else {
            panic!("an unknown flag must be a usage error");
        };
        assert_eq!(msg, format!("unknown flag '--frobnicate'\n{USAGE}"));
    }

    #[test]
    fn help_exits_zero_with_the_usage() {
        for help in ["--help", "-h"] {
            let Err((msg, 0)) = parse(&["--json", help, "--bogus"]) else {
                panic!("{help} must exit 0");
            };
            assert_eq!(msg, USAGE);
        }
    }

    #[test]
    fn hex_and_decimal_integers_both_parse() {
        let flags = parse(&["--seed", "0xF166"]).unwrap();
        assert_eq!(flags.u64("--seed").unwrap(), Some(0xF166));
        let flags = parse(&["--seed", "61798"]).unwrap();
        assert_eq!(flags.usize("--seed").unwrap(), Some(61798));
        assert_eq!(flags.u64("--out").unwrap(), None);
        let flags = parse(&["--seed", "0xZZ"]).unwrap();
        let Err((msg, 2)) = flags.u64("--seed") else {
            panic!("a malformed integer must be a usage error");
        };
        assert_eq!(msg, "--seed: expected an integer, got '0xZZ'");
        assert_eq!(parse_u64("0X10"), Ok(16));
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let flags = parse(&["--seed", "1", "--json", "--seed", "2", "a.ds"]).unwrap();
        assert_eq!(flags.u64("--seed").unwrap(), Some(2));
        assert!(flags.switch("--json"));
        assert!(!flags.switch("--out"));
        assert_eq!(flags.positional, ["a.ds"]);
    }

    #[test]
    fn range_and_positional_checks_are_usage_errors() {
        let flags = parse(&["--seed", "0", "a", "b"]).unwrap();
        assert_eq!(flags.at_least("--seed", 1).unwrap_err().1, 2);
        assert_eq!(flags.at_most(2).unwrap(), ["a", "b"]);
        assert!(flags
            .at_most(1)
            .unwrap_err()
            .0
            .contains("unexpected argument 'b'"));
        let flags = parse(&["--out", "x"]).unwrap();
        assert!(flags.parse::<f64>("--out", "a number").is_err());
    }
}
