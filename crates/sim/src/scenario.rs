//! The simulation keys and the two ways to give them: declarative
//! scenario files (`--scenario` on the CLI, [`Scenario::load`] from
//! library code) and `silo-sim` flags ([`Scenario::from_args`]).
//!
//! Every key is declared once, in [`KEYS`]: its scenario name, its
//! command-line spellings, its [`ValueKind`] (which picks the one
//! parser both forms share), an example and its help text. The
//! [`Scenario`] record, its [`Scenario::merge`], the scenario-file and
//! flag parsers, and the key rows of `silo-sim --help`
//! ([`options_help`]) are all generated from that table.
//!
//! Scenario format, one directive per line (`#` starts a comment, blank
//! lines are skipped; list values are comma-separated):
//!
//! ```text
//! # Fig. 11-style three-way comparison.
//! systems   = SILO, baseline, baseline-2x
//! workloads = uniform-private, zipf:theta=0.9,footprint=4x
//! workload  = pointer-chase:dependent=0.8      # appends one more
//! cores     = 16          # multiple values create a sweep axis
//! scale     = 64
//! mlp       = 8
//! vault     = table2
//! seed      = 42
//! refs      = 4000        # per-core reference-count override
//! threads   = 4
//! warmup    = 6400        # telemetry: refs of cache warmup (0 = off)
//! epoch     = 16000       # telemetry: refs per timeline epoch
//! check     = 50000       # invariant-oracle sweep period (refs)
//! profile   = on          # hot-loop self-profiler (1/0/true/false/on/off)
//! ```
//!
//! A flag takes the same value as its key (`--cores 4,8` is
//! `cores = 4,8`), and a key given twice is an error in both forms.
//! Workload lists use the same grammar as `--workloads`
//! ([`WorkloadSpec::split_list`]): preset names, `base:key=value`
//! custom parameterizations keeping their comma-separated parameters,
//! and `trace:file=PATH` replays of `.silotrace` captures. Every
//! scenario parse failure is a typed [`ConfigError::Scenario`] naming
//! the 1-based line, and workload-spec failures restate the accepted
//! grammar.

use crate::error::ConfigError;
use crate::workload::WorkloadSpec;
use std::path::Path;

/// How a key's value is written. One parser per kind serves scenario
/// files and flags alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueKind {
    /// Comma-separated names (`SILO, baseline`).
    Names,
    /// Comma-separated workload specs in the `--workloads` grammar.
    Workloads,
    /// One workload spec; the key may repeat, and each line appends.
    Workload,
    /// Comma-separated integers; two or more make a sweep axis.
    Numbers,
    /// One integer.
    Number,
    /// `1`/`0`, `true`/`false`, `on`/`off`; as a flag, a bare switch
    /// meaning on.
    Bool,
}

impl ValueKind {
    /// The placeholder `--help` shows after a flag of this kind (empty
    /// for switches).
    pub fn metavar(self) -> &'static str {
        match self {
            ValueKind::Names | ValueKind::Workloads | ValueKind::Numbers => "LIST",
            ValueKind::Workload => "SPEC",
            ValueKind::Number => "N",
            ValueKind::Bool => "",
        }
    }
}

/// One simulation key: how it is spelled, parsed, and documented.
#[derive(Debug)]
pub struct Key {
    /// The scenario-file key.
    pub name: &'static str,
    /// Its `silo-sim` spellings, primary first. The `--sweep-*` aliases
    /// also turn on sweep mode.
    pub flags: &'static [&'static str],
    /// How its value is written.
    pub kind: ValueKind,
    /// A valid value that differs from the default.
    pub example: &'static str,
    /// One-line help text.
    pub help: &'static str,
    set: fn(&mut Scenario, &str) -> Result<(), String>,
    is_set: fn(&Scenario) -> bool,
}

/// Dispatches a value to the parser of its [`ValueKind`].
macro_rules! parse_as {
    (Names, $v:expr) => {
        names($v)
    };
    (Workloads, $v:expr) => {
        workloads($v)
    };
    (Numbers, $v:expr) => {
        numbers($v)
    };
    (Number, $v:expr) => {
        number($v)
    };
    (Bool, $v:expr) => {
        boolean($v)
    };
}

/// Declares the keys: one [`Scenario`] field each, plus the appending
/// key, which adds to a list field and has no field of its own.
macro_rules! simulation_keys {
    (
        append $app_name:literal to $app_field:ident, $app_example:literal, $app_help:literal;
        $(
            $(#[$doc:meta])*
            $field:ident: $ty:ty = $name:literal, $kind:ident, [$($flag:literal),*],
                $example:literal, $help:literal;
        )*
    ) => {
        /// A set of simulation settings, every field optional: parsed
        /// from a scenario file or from flags, and merged onto a
        /// [`crate::SimulationBuilder`] (later merges win).
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Scenario {
            $( $(#[$doc])* pub $field: Option<$ty>, )*
        }

        /// Every simulation key, in `--help` order.
        pub const KEYS: &[Key] = &[
            $(
                Key {
                    name: $name,
                    flags: &[$($flag),*],
                    kind: ValueKind::$kind,
                    example: $example,
                    help: $help,
                    set: |s, v| {
                        s.$field = Some(parse_as!($kind, v)?);
                        Ok(())
                    },
                    is_set: |s| s.$field.is_some(),
                },
            )*
            Key {
                name: $app_name,
                flags: &[],
                kind: ValueKind::Workload,
                example: $app_example,
                help: $app_help,
                set: |s, v| {
                    s.$app_field.get_or_insert_with(Vec::new).push(workload(v)?);
                    Ok(())
                },
                is_set: |_| false,
            },
        ];

        impl Scenario {
            /// Overlays `over`: every key it sets replaces this one's
            /// value, and every key it leaves unset keeps it.
            pub fn merge(&mut self, over: &Scenario) {
                $(
                    if over.$field.is_some() {
                        self.$field.clone_from(&over.$field);
                    }
                )*
            }
        }
    };
}

simulation_keys! {
    append "workload" to workloads, "pointer-chase:dependent=0.8",
        "appends one workload spec to the list; may repeat";
    /// Registry names of the systems to compare.
    systems: Vec<String> = "systems", Names, ["--systems"], "SILO,baseline,baseline-2x",
        "systems to compare, in report order (default SILO,baseline; see --list-systems)";
    /// Workload spec strings (preset names or custom parameterizations).
    workloads: Vec<String> = "workloads", Workloads, ["--workloads"],
        "uniform-private,zipf-shared",
        "workloads: presets, custom specs like zipf:theta=0.9,footprint=4x, or \
         trace:file=PATH to replay a .silotrace capture (default: every preset)";
    /// Core-count axis.
    cores: Vec<usize> = "cores", Numbers, ["--cores", "--sweep-cores"], "4,8",
        "core counts / mesh nodes (default 16, max 64)";
    /// Capacity-scale axis.
    scales: Vec<u64> = "scale", Numbers, ["--scale", "--sweep-scale"], "32,64",
        "capacity scaling factors for caches AND working sets (default 64; 1 = full \
         256 MiB vaults)";
    /// MSHR-count axis.
    mlps: Vec<usize> = "mlp", Numbers, ["--mlp", "--sweep-mlp"], "4,8",
        "MSHRs per core (default 8)";
    /// Vault-design names.
    vaults: Vec<String> = "vault", Names, ["--vault-design", "--sweep-vault"], "table2,latency",
        "vault designs: 'table2' (the Table II constants, default), or derived from the \
         silo-dram sweep: 'latency' (256 MiB-class) or 'capacity' (512 MiB-class)";
    /// Workload RNG seed.
    seed: u64 = "seed", Number, ["--seed"], "7",
        "workload RNG seed (default 42)";
    /// Per-core reference-count override.
    refs: usize = "refs", Number, ["--refs"], "2000",
        "references per core (default: per-workload preset)";
    /// Worker threads.
    threads: usize = "threads", Number, ["--threads"], "2",
        "worker threads (default: available parallelism, at least 4); results do not \
         depend on it";
    /// Telemetry warmup window in references (0 disables it).
    warmup: u64 = "warmup", Number, ["--warmup"], "6400",
        "telemetry: treat the first N references (summed across cores) as cache \
         warmup: measurement counters reset, simulated state is kept (0 = off)";
    /// Telemetry epoch length in references.
    epoch: u64 = "epoch", Number, ["--epoch"], "16000",
        "telemetry: record a timeline epoch every N references (IPC, served levels, \
         LLC latency percentiles, link utilization, vault occupancy)";
    /// Run-time invariant oracle period in references (`--check`).
    check: u64 = "check", Number, ["--check"], "50000",
        "run-time invariant oracle: every N references, re-verify the engine's \
         structural invariants (directory consistency, occupancy accounting) and the \
         run loop's cross-layer assertions (MSHR bounds, counter monotonicity); \
         results stay bit-identical to an unchecked run";
    /// Hot-loop self-profiler toggle (`--profile`).
    profile: bool = "profile", Bool, ["--profile"], "on",
        "hot-loop self-profiler: sample per-phase wall-clock (trace pull, engine \
         step, timing, telemetry) for every run, attribute engine and timing time to \
         lap-probe sub-phases (lookup / directory / fill / writeback and mesh / bank / \
         mshr), and print the phase tree; results stay bit-identical to an \
         unprofiled run (mutually exclusive with check)";
}

/// Grammar reminder appended to workload-spec failures, so a scenario
/// author sees the accepted forms without leaving the error message.
const SPEC_HINT: &str = " (workload specs are preset names, base:key=value custom \
     forms like zipf:theta=0.9,footprint=4x, or trace:file=PATH replays \
     of .silotrace captures — see --list-workloads)";

fn spec_reason(e: &ConfigError) -> String {
    format!("{e}{SPEC_HINT}")
}

/// The non-empty items of a comma-separated list.
fn list(value: &str) -> Result<Vec<&str>, String> {
    let items: Vec<&str> = value
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect();
    if items.is_empty() {
        return Err("needs at least one value".into());
    }
    Ok(items)
}

fn names(value: &str) -> Result<Vec<String>, String> {
    Ok(list(value)?.into_iter().map(str::to_string).collect())
}

fn numbers<T: std::str::FromStr>(value: &str) -> Result<Vec<T>, String> {
    list(value)?.into_iter().map(number).collect()
}

fn number<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    let value = value.trim();
    value
        .parse()
        .map_err(|_| format!("'{value}' is not a valid number"))
}

fn boolean(value: &str) -> Result<bool, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        _ => Err("use 1/0, true/false, or on/off".into()),
    }
}

/// Validates one spec here, so a malformed parameter is reported
/// against its line or flag rather than later by the builder.
fn workload(value: &str) -> Result<String, String> {
    WorkloadSpec::parse(value).map_err(|e| spec_reason(&e))?;
    Ok(value.trim().to_string())
}

fn workloads(value: &str) -> Result<Vec<String>, String> {
    let items = WorkloadSpec::split_list(value).map_err(|e| spec_reason(&e))?;
    if items.is_empty() {
        return Err("needs at least one value".into());
    }
    for item in &items {
        WorkloadSpec::parse(item).map_err(|e| spec_reason(&e))?;
    }
    Ok(items)
}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError::Scenario {
        line,
        message: message.into(),
    }
}

fn bad_flag(flag: &str, value: &str, reason: impl Into<String>) -> ConfigError {
    ConfigError::BadValue {
        what: flag.into(),
        value: value.into(),
        reason: reason.into(),
    }
}

impl Scenario {
    /// Parses a scenario document.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Scenario`] with the offending 1-based line
    /// number for any syntax problem: missing `=`, unknown or duplicate
    /// keys, unparseable values, or empty lists.
    pub fn parse(text: &str) -> Result<Scenario, ConfigError> {
        let mut s = Scenario::default();
        // Appended specs land after the `workloads` list wherever their
        // lines appear, so they are collected apart until the end.
        let mut appended = Scenario::default();
        for (i, raw) in text.lines().enumerate() {
            let n = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once('=')
                .ok_or_else(|| err(n, format!("expected 'key = value', got '{line}'")))?;
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            if value.is_empty() {
                return Err(err(n, format!("key '{name}' has no value")));
            }
            let key = KEYS
                .iter()
                .find(|k| k.name == name)
                .ok_or_else(|| err(n, format!("unknown key '{name}'")))?;
            if (key.is_set)(&s) {
                return Err(err(n, format!("duplicate key '{name}'")));
            }
            let target = if key.kind == ValueKind::Workload {
                &mut appended
            } else {
                &mut s
            };
            (key.set)(target, value)
                .map_err(|reason| err(n, format!("bad {name} value '{value}': {reason}")))?;
        }
        if let Some(more) = appended.workloads {
            s.workloads.get_or_insert_with(Vec::new).extend(more);
        }
        Ok(s)
    }

    /// Reads and parses a scenario file.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Io`] when the file cannot be read and
    /// [`ConfigError::Scenario`] for parse failures.
    pub fn load(path: &Path) -> Result<Scenario, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError::Io(format!("cannot read {}: {e}", path.display())))?;
        Scenario::parse(&text)
    }

    /// Parses `silo-sim` flags that all spell keys, such as
    /// `["--cores", "4,8", "--profile"]`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadValue`] naming the flag for an
    /// unknown flag, a missing or malformed value, or a key given twice.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Scenario, ConfigError> {
        let mut s = Scenario::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if s.apply_flag(&flag, &mut args)?.is_none() {
                return Err(bad_flag("argument", &flag, "not a simulation-key flag"));
            }
        }
        Ok(s)
    }

    /// Applies one flag if it spells a key, taking its value from `args`
    /// (a switch such as `--profile` takes none). Returns the key, or
    /// `None` when `flag` spells no key, leaving `args` untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadValue`] naming the flag for a missing
    /// or malformed value, or for a key this record already holds.
    pub fn apply_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<Option<&'static Key>, ConfigError> {
        let Some(key) = KEYS.iter().find(|k| k.flags.contains(&flag)) else {
            return Ok(None);
        };
        let value = if key.kind == ValueKind::Bool {
            "on".to_string()
        } else {
            args.next()
                .ok_or_else(|| bad_flag(flag, "", "the flag needs a value"))?
        };
        if (key.is_set)(self) {
            return Err(bad_flag(
                flag,
                &value,
                format!("duplicate key '{}' (give each setting once)", key.name),
            ));
        }
        (key.set)(self, &value).map_err(|reason| bad_flag(flag, &value, reason))?;
        Ok(Some(key))
    }
}

/// Column where `--help` descriptions start, and the line width they
/// wrap to.
const HELP_INDENT: usize = 25;
const HELP_WIDTH: usize = 79;

/// One `--help` row: the flag column, then `text` word-wrapped into the
/// description column.
fn help_row(out: &mut String, flag: &str, text: &str) {
    let mut line = format!("    {flag:<width$}", width = HELP_INDENT - 5);
    for word in text.split_whitespace() {
        // A line holds a word once it reaches the description column.
        if line.len() >= HELP_INDENT && line.len() + 1 + word.len() > HELP_WIDTH {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(HELP_INDENT - 1);
        }
        line.push(' ');
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

/// The key rows of `silo-sim --help`: `--scenario` naming every key,
/// then each key's flag with its aliases and an example.
pub fn options_help() -> String {
    let mut out = String::new();
    let names: Vec<&str> = KEYS.iter().map(|k| k.name).collect();
    help_row(
        &mut out,
        "--scenario FILE",
        &format!(
            "load a declarative scenario file of 'key = value' lines (keys: {}); \
             flags override it",
            names.join(", ")
        ),
    );
    for key in KEYS.iter().filter(|k| !k.flags.is_empty()) {
        let mut text = key.help.to_string();
        if key.kind != ValueKind::Bool {
            text.push_str(&format!(", e.g. {}", key.example));
        }
        for alias in &key.flags[1..] {
            text.push_str(&format!("; alias {alias}"));
        }
        let flag = format!("{} {}", key.flags[0], key.kind.metavar());
        help_row(&mut out, flag.trim_end(), &text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_scenario() {
        let s = Scenario::parse(
            "# three-way comparison\n\
             systems = SILO, baseline, baseline-2x\n\
             workloads = uniform-private, zipf:theta=0.9,footprint=4x\n\
             workload = pointer-chase:dependent=0.8  # appended\n\
             cores = 4, 8\n\
             scale = 64\n\
             mlp = 8\n\
             vault = table2\n\
             seed = 42\n\
             refs = 4000\n\
             threads = 2\n\
             warmup = 800\n\
             epoch = 1000\n\
             check = 5000\n\
             profile = off\n",
        )
        .expect("valid scenario");
        assert_eq!(
            s.systems.as_deref(),
            Some(&["SILO".to_string(), "baseline".into(), "baseline-2x".into()][..])
        );
        assert_eq!(
            s.workloads.as_deref(),
            Some(
                &[
                    "uniform-private".to_string(),
                    "zipf:theta=0.9,footprint=4x".into(),
                    "pointer-chase:dependent=0.8".into(),
                ][..]
            )
        );
        assert_eq!(s.cores.as_deref(), Some(&[4usize, 8][..]));
        assert_eq!(s.scales.as_deref(), Some(&[64u64][..]));
        assert_eq!(s.seed, Some(42));
        assert_eq!(s.refs, Some(4000));
        assert_eq!(s.threads, Some(2));
        assert_eq!(s.warmup, Some(800));
        assert_eq!(s.epoch, Some(1000));
        assert_eq!(s.check, Some(5000));
        assert_eq!(s.profile, Some(false));
    }

    #[test]
    fn profile_accepts_every_boolean_spelling() {
        for (value, want) in [
            ("1", true),
            ("true", true),
            ("ON", true),
            ("0", false),
            ("False", false),
            ("off", false),
        ] {
            let s = Scenario::parse(&format!("profile = {value}\n")).expect(value);
            assert_eq!(s.profile, Some(want), "profile = {value}");
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let s = Scenario::parse("\n# all comments\n\n  # indented\n").expect("empty is fine");
        assert_eq!(s, Scenario::default());
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        for (text, needle) in [
            ("cores 16", "expected 'key = value'"),
            ("warp = 9", "unknown key"),
            ("cores = twelve", "bad cores value"),
            ("cores =", "no value"),
            ("seed = 1\nseed = 2", "duplicate key"),
            ("workloads = footprint=4x", "must follow"),
            ("workloads = zipf:theta=skewed", "not a number"),
            ("workload = zipf:bogus=1", "unknown parameter"),
            ("warmup = soon", "bad warmup value"),
            ("epoch = -5", "bad epoch value"),
            ("check = never", "bad check value"),
            ("profile = maybe", "bad profile value"),
            ("profile = 1\nprofile = 0", "duplicate key"),
            ("cores = ,", "at least one value"),
            ("systems = ,", "at least one value"),
            ("vault = ,", "at least one value"),
        ] {
            let e = Scenario::parse(text).expect_err(text);
            match e {
                ConfigError::Scenario { line, message } => {
                    assert!(line >= 1, "{text}: line {line}");
                    assert!(
                        message.contains(needle),
                        "'{text}' produced '{message}', wanted '{needle}'"
                    );
                }
                other => panic!("'{text}' produced non-scenario error {other:?}"),
            }
        }
    }

    #[test]
    fn workload_spec_errors_restate_the_grammar() {
        for text in [
            "workloads = zipf:bogus=1",
            "workload = trace:file=",
            "workloads = footprint=4x",
        ] {
            let e = Scenario::parse(text).expect_err(text);
            let msg = e.to_string();
            assert!(
                msg.contains("base:key=value") && msg.contains("trace:file=PATH"),
                "'{text}' error must document the spec grammar, got: {msg}"
            );
        }
    }

    #[test]
    fn load_reports_missing_files_as_io_errors() {
        let e = Scenario::load(Path::new("/nonexistent/x.scenario")).expect_err("missing");
        assert!(matches!(e, ConfigError::Io(_)));
    }
}
