//! The `tcd` front door: `tcd list`, or `tcd <experiment> [--flag]
//! [--key=value] [--key value]` dispatched through the [`REGISTRY`].
//!
//! An experiment pulls the flags it understands out of an [`Args`] and
//! then calls [`Args::finish`]; anything left over — a typo, a key
//! without its value — is a usage error (exit status 2) raised before
//! any work runs, so a mistyped `--smoke` cannot start the explorer's
//! full 5,000-iteration sweep, and a flag given to an experiment that
//! takes none is refused rather than ignored.

use std::process::ExitCode;

use crate::experiments::REGISTRY;

const USAGE: &str = "usage: tcd list\n       tcd <experiment> [flags]";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(2)
}

/// The flags of one `tcd <experiment>` invocation. Each accessor removes
/// what it matched; the first malformed flag is remembered for `finish`.
pub struct Args {
    experiment: &'static str,
    rest: Vec<String>,
    /// What the experiment asked for, for the usage line.
    accepted: String,
    error: Option<String>,
}

impl Args {
    pub fn new(experiment: &'static str, args: impl IntoIterator<Item = String>) -> Self {
        Args { experiment, rest: args.into_iter().collect(), accepted: String::new(), error: None }
    }

    /// Records a rejection (the first one wins).
    pub fn reject(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// `--flag`: true when present.
    pub fn flag(&mut self, name: &str) -> bool {
        self.accepted += &format!(" [{name}]");
        if self.rest.iter().any(|a| a.strip_prefix(name).is_some_and(|v| v.starts_with('='))) {
            self.reject(format!("{name} takes no value"));
        }
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    /// `--key=value` or `--key value`.
    pub fn value(&mut self, name: &str) -> Option<String> {
        self.accepted += &format!(" [{name}=<v>]");
        let inline = |a: &str| a.strip_prefix(name)?.strip_prefix('=').map(str::to_string);
        let at = self.rest.iter().position(|a| a == name || inline(a).is_some())?;
        let arg = self.rest.remove(at);
        if let Some(v) = inline(&arg) {
            return Some(v);
        }
        if self.rest.get(at).is_some_and(|v| !v.starts_with("--")) {
            return Some(self.rest.remove(at));
        }
        self.reject(format!("{name} needs a value"));
        None
    }

    /// An integer value, decimal or `0x` hexadecimal.
    pub fn int(&mut self, name: &str) -> Option<u64> {
        let v = self.value(name)?;
        let parsed = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        };
        if let Err(e) = &parsed {
            self.reject(format!("{name}: {e} (got '{v}')"));
        }
        parsed.ok()
    }

    /// The rejection, if any: the first malformed flag, or whatever no
    /// accessor claimed, followed by the usage line.
    pub fn rejection(&mut self) -> Option<String> {
        let msg = match (self.error.take(), self.rest.first()) {
            (Some(e), _) => e,
            (None, Some(a)) if a.starts_with("--") => format!("unknown flag {a}"),
            (None, Some(a)) => format!("unexpected argument '{a}'"),
            (None, None) => return None,
        };
        let name = self.experiment;
        Some(format!("tcd {name}: {msg}\nusage: tcd {name}{}", self.accepted))
    }

    /// Ends flag parsing: `Err` is the usage exit status, already reported.
    pub fn finish(&mut self) -> Result<(), ExitCode> {
        self.rejection().map_or(Ok(()), |msg| Err(usage_error(&msg)))
    }

    /// Runs an experiment that takes no flags.
    pub fn no_flags(&mut self, run: fn()) -> ExitCode {
        match self.finish() {
            Ok(()) => {
                run();
                ExitCode::SUCCESS
            }
            Err(code) => code,
        }
    }
}

/// One line per registered experiment: `name  about`.
pub fn list() -> String {
    REGISTRY.iter().map(|e| format!("{:<16} {}\n", e.name, e.about)).collect()
}

/// Dispatches `tcd <args…>` (program name already stripped).
pub fn main(args: impl IntoIterator<Item = String>) -> ExitCode {
    let mut args = args.into_iter();
    let Some(cmd) = args.next() else { return usage_error(USAGE) };
    if cmd == "list" {
        let mut rest = Args::new("list", args);
        return rest.no_flags(|| print!("{}", list()));
    }
    match REGISTRY.iter().find(|e| e.name == cmd) {
        Some(e) => (e.run)(&mut Args::new(e.name, args)),
        None => usage_error(&format!("tcd: unknown experiment '{cmd}'\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new("x", list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_and_both_value_forms_parse() {
        let mut a = args(&["--smoke", "--label=a b", "--iters", "12", "--root-seed=0xC1"]);
        assert!(a.flag("--smoke"));
        assert!(!a.flag("--check"));
        assert_eq!(a.value("--label").as_deref(), Some("a b"));
        assert_eq!(a.int("--iters"), Some(12));
        assert_eq!(a.int("--root-seed"), Some(0xC1));
        assert_eq!(a.int("--absent"), None);
        assert_eq!(a.rejection(), None);

        let mut a = args(&["--root-seed", "0x2EC0", "--label", "x"]);
        assert_eq!(a.int("--root-seed"), Some(0x2EC0));
        assert_eq!(a.value("--label").as_deref(), Some("x"));
        assert_eq!(a.rejection(), None);
    }

    #[test]
    fn each_malformed_command_line_is_rejected() {
        let rejection = |list: &[&str]| {
            let mut a = args(list);
            a.flag("--smoke");
            a.value("--label");
            a.int("--iters");
            a.rejection().expect("must be rejected")
        };
        assert_eq!(
            rejection(&["--smok"]),
            "tcd x: unknown flag --smok\nusage: tcd x [--smoke] [--label=<v>] [--iters=<v>]"
        );
        for (list, why) in [
            (&["--label"][..], "--label needs a value"),
            (&["--label", "--smoke"], "--label needs a value"),
            (&["--iters="], "--iters: "),
            (&["--iters=ten"], "--iters: "),
            (&["--iters=0xZZ"], "--iters: "),
            (&["--smoke=1"], "--smoke takes no value"),
            (&["stray"], "unexpected argument 'stray'"),
            (&["--labels=x"], "unknown flag --labels=x"),
        ] {
            assert!(rejection(list).contains(why), "{list:?}");
        }
        // A flag-free experiment rejects every flag; an experiment's own
        // rejection wins over leftovers.
        assert!(args(&["--smoke"]).rejection().unwrap().contains("unknown flag --smoke"));
        let mut a = args(&["--zzz"]);
        a.reject("unknown preset loud".into());
        assert!(a.rejection().unwrap().contains("unknown preset loud"));
    }
}
