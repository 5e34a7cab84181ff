//! Deterministic fuzzing of the two settings parsers: seeded byte
//! mutations of scenario documents fed to [`Scenario::parse`], and
//! random flag vectors built from the key table's spellings fed to
//! [`Scenario::from_args`]. Neither may panic, each failure must be the
//! parser's own typed error, and whatever parses must build (or fail to
//! build) without panicking either. Seeds are fixed, so a failure
//! reproduces exactly.

use silo_sim::scenario::{ValueKind, KEYS};
use silo_sim::{ConfigError, Rng, Scenario, Simulation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Documents from the scenario tests: valid ones, and one per error.
const CORPUS: &[&str] = &[
    "systems = SILO, baseline, baseline-2x\nworkloads = uniform-private, \
     zipf:theta=0.9,footprint=4x\nworkload = pointer-chase:dependent=0.8  # appended\n\
     cores = 4, 8\nscale = 64\nmlp = 8\nvault = table2\nseed = 42\nrefs = 4000\n\
     threads = 2\nwarmup = 800\nepoch = 1000\ncheck = 5000\nprofile = off\n",
    "\n# all comments\n\n  # indented\n",
    "cores 16",
    "warp = 9",
    "cores = twelve",
    "cores =",
    "seed = 1\nseed = 2",
    "workloads = footprint=4x",
    "workloads = zipf:theta=skewed",
    "workload = zipf:bogus=1",
    "workload = trace:file=",
    "epoch = -5",
    "profile = maybe",
    "cores = ,",
    "vault = latency, capacity\nscale = 32, 64\nmlp = 4",
    "workloads = zipf:footprint=64MiB,refs=100,gap=3\nworkload = uniform:shared=0.5",
];

/// Bytes the mutator inserts: the grammar's punctuation, digits,
/// letters, whitespace, and the lead bytes of multi-byte and invalid
/// UTF-8.
const ALPHABET: &[u8] = b"=,#:\n\r\t 0123456789-.xXeE+abcMiB\xc3\xa9\xe2\x80\x94\xff";

/// The example scenario plus the corpus.
fn seeds() -> Vec<Vec<u8>> {
    let example = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/paper_fig11.scenario");
    let mut out = vec![std::fs::read(example).expect("example scenario")];
    out.extend(CORPUS.iter().map(|t| t.as_bytes().to_vec()));
    out
}

fn pick<'a, T>(rng: &mut Rng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// Applies one to four random edits: overwrite, insert or delete a
/// byte, delete a range, or splice in part of another seed.
fn mutate(rng: &mut Rng, input: &[u8], seeds: &[Vec<u8>]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..=rng.below(4) {
        let at = rng.below(out.len() as u64 + 1) as usize;
        match rng.below(5) {
            0 if at < out.len() => out[at] = *pick(rng, ALPHABET),
            1 => out.insert(at, *pick(rng, ALPHABET)),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => {
                let end = at + rng.below(16) as usize;
                out.drain(at..end.min(out.len()));
            }
            _ => {
                let other = pick(rng, seeds);
                let from = rng.below(other.len() as u64 + 1) as usize;
                let to = from + rng.below(40) as usize;
                let piece = other[from..to.min(other.len())].to_vec();
                out.splice(at..at, piece);
            }
        }
    }
    out
}

/// Building may fail (unknown names, missing trace files, bad axis
/// values), but only with a typed error, never a panic.
fn build_does_not_panic(s: &Scenario, input: &str) {
    let built = catch_unwind(AssertUnwindSafe(|| {
        Simulation::builder().scenario(s).build().map(drop)
    }));
    assert!(built.is_ok(), "build panicked on {input:?}");
}

#[test]
fn mutated_scenarios_fail_with_typed_errors_never_panics() {
    let seeds = seeds();
    let mut rng = Rng::new(0x5ce0_a210);
    for _ in 0..10_000 {
        let input = pick(&mut rng, &seeds).clone();
        let bytes = mutate(&mut rng, &input, &seeds);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let parsed = catch_unwind(|| Scenario::parse(&text));
        match parsed {
            Err(_) => panic!("Scenario::parse panicked on {text:?}"),
            Ok(Ok(s)) => build_does_not_panic(&s, &text),
            Ok(Err(ConfigError::Scenario { line, message })) => {
                assert!(line >= 1 && !message.is_empty(), "{text:?}");
            }
            Ok(Err(other)) => panic!("{text:?} produced a non-scenario error {other:?}"),
        }
    }
}

#[test]
fn random_flag_vectors_fail_with_typed_errors_never_panics() {
    let keyed: Vec<_> = KEYS.iter().filter(|k| !k.flags.is_empty()).collect();
    let examples: Vec<&str> = KEYS.iter().map(|k| k.example).collect();
    let junk = [
        "",
        ",",
        "-1",
        "0",
        "on",
        "99999999999999999999999",
        "--cores",
        "--bogus",
        "zipf:",
        "a,,b",
    ];
    let mut rng = Rng::new(0xf1a9_5eed);
    for _ in 0..10_000 {
        let mut args = Vec::new();
        for _ in 0..=rng.below(4) {
            let key = *pick(&mut rng, &keyed);
            args.push(String::from(*pick(&mut rng, key.flags)));
            let value = match rng.below(10) {
                _ if key.kind == ValueKind::Bool => continue,
                0..=5 => key.example.to_string(),
                6 | 7 => String::from(*pick(&mut rng, &examples)),
                8 => String::from(*pick(&mut rng, &junk)),
                _ => {
                    let seeds = [key.example.as_bytes().to_vec()];
                    String::from_utf8_lossy(&mutate(&mut rng, &seeds[0], &seeds)).into_owned()
                }
            };
            args.push(value);
        }
        if rng.below(10) == 0 {
            let at = rng.below(args.len() as u64 + 1) as usize;
            args.insert(at, String::from(*pick(&mut rng, &junk)));
        }
        let parsed = catch_unwind(|| Scenario::from_args(args.clone()));
        match parsed {
            Err(_) => panic!("Scenario::from_args panicked on {args:?}"),
            Ok(Ok(s)) => build_does_not_panic(&s, &format!("{args:?}")),
            Ok(Err(ConfigError::BadValue { what, reason, .. })) => {
                assert!(
                    what.starts_with("--") || what == "argument",
                    "{args:?}: error names '{what}'"
                );
                assert!(!reason.is_empty(), "{args:?}");
            }
            Ok(Err(other)) => panic!("{args:?} produced a non-flag error {other:?}"),
        }
    }
}
