//! Deterministic fuzzing of the input parsers: seeded byte mutations of
//! scenario documents fed to [`Scenario::parse`], random flag vectors
//! built from the key table's spellings fed to [`Scenario::from_args`],
//! mutated `silo-bench/v1` documents plus generated trees fed to
//! [`Json::parse`] (the row cache's reader), and mutated recorded
//! `.silotrace` files fed to `silo_trace::verify_stream` and replayed
//! through `TraceReader`. None may panic, each failure must be the
//! parser's own error, whatever parses must build (or fail to build)
//! without panicking either, and printed trees must parse back to
//! themselves. Seeds are fixed, so a failure reproduces exactly.

use silo_sim::scenario::{ValueKind, KEYS};
use silo_sim::{ConfigError, Json, Rng, Scenario, Simulation, WorkloadSpec};
use silo_trace::{verify_stream, TraceError, TraceHeader, TraceReader, TraceSource, TraceWriter};
use silo_types::{AccessKind, LineAddr, MemRef};
use std::io::BufReader;
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
/// byte from `alphabet`, delete a range, or splice in part of another
/// seed.
fn mutate(rng: &mut Rng, input: &[u8], seeds: &[Vec<u8>], alphabet: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..=rng.below(4) {
        let at = rng.below(out.len() as u64 + 1) as usize;
        match rng.below(5) {
            0 if at < out.len() => out[at] = *pick(rng, alphabet),
            1 => out.insert(at, *pick(rng, alphabet)),
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
        let bytes = mutate(&mut rng, &input, &seeds, ALPHABET);
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
                    String::from_utf8_lossy(&mutate(&mut rng, &seeds[0], &seeds, ALPHABET))
                        .into_owned()
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

/// A real `silo-bench/v1` document: the pinned 4-core golden fixture.
const BENCH_DOC: &str = include_str!("golden/bench_pinned.json");

/// Bytes the JSON mutator inserts: structure, escapes, number
/// characters, literal letters, whitespace, and the lead bytes of
/// multi-byte and invalid UTF-8.
const JSON_ALPHABET: &[u8] =
    b"{}[]:,\"\\/u0123456789abcdefABCDEF-+.eE ntrls\n\t\xc3\xa9\xed\xa0\xff";

#[test]
fn mutated_bench_documents_fail_with_errors_never_panics() {
    let doc = BENCH_DOC.as_bytes().to_vec();
    // Short fragments make edits hit numbers and escapes more often
    // than one 12 KiB document alone would.
    let seeds = vec![
        doc.clone(),
        br#"{"a":[1,-0,0.5,-2.5e-3,1E+9,true,false,null],"s":"\u00e9\n\"x\\"}"#.to_vec(),
        b"[[[[[[[[[[[[[[[[0]]]]]]]]]]]]]]]]".to_vec(),
    ];
    let mut rng = Rng::new(0x0b5e_55ed);
    for i in 0..3_000 {
        let input = if i % 3 == 0 {
            &doc
        } else {
            pick(&mut rng, &seeds)
        };
        let bytes = mutate(&mut rng, input, &seeds, JSON_ALPHABET);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let parsed = catch_unwind(|| Json::parse(&text));
        match parsed {
            Err(_) => panic!("Json::parse panicked on {text:?}"),
            // Whatever parses prints as JSON that parses again (out-of-range
            // floats print as null, so the value itself need not survive).
            Ok(Ok(v)) => assert!(Json::parse(&v.to_string()).is_ok(), "{text:?}"),
            Ok(Err(e)) => assert!(!e.is_empty(), "{text:?}"),
        }
    }
}

/// A random string: ASCII, escapes, control characters, multi-byte and
/// astral characters.
fn random_string(rng: &mut Rng) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
        '—', '\u{ffff}', '😀',
    ];
    (0..rng.below(8)).map(|_| *pick(rng, CHARS)).collect()
}

/// A finite float: small fractions, integral values, and arbitrary bit
/// patterns (subnormals and values near `f64::MAX` included).
fn random_finite_float(rng: &mut Rng) -> f64 {
    loop {
        let x = match rng.below(3) {
            0 => rng.f64() - 0.5,
            1 => (rng.below(2001) as f64) - 1000.0,
            _ => f64::from_bits(rng.next_u64()),
        };
        if x.is_finite() {
            return x;
        }
    }
}

/// A random tree at most `depth` levels of arrays and objects deep.
fn random_tree(rng: &mut Rng, depth: usize) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::Int((i128::from(rng.next_u64() as i64) << 64) | i128::from(rng.next_u64())),
        3 => Json::Num(random_finite_float(rng)),
        4 => Json::Str(random_string(rng)),
        5 => Json::Arr(
            (0..rng.below(5))
                .map(|_| random_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|_| (random_string(rng), random_tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn generated_trees_round_trip_through_print_and_parse() {
    let mut rng = Rng::new(0x7ee5_0f15);
    for _ in 0..3_000 {
        let tree = random_tree(&mut rng, 5);
        let text = tree.to_string();
        assert_eq!(Json::parse(&text).as_ref(), Ok(&tree), "{text}");
    }
    // Around the nesting limit: up to it round trips, past it is an error.
    let max = silo_sim::json::MAX_DEPTH;
    for depth in [max - 1, max, max + 1, 4 * max] {
        let mut tree = random_tree(&mut rng, 0);
        for _ in 0..depth {
            tree = if rng.chance(0.5) {
                Json::Arr(vec![tree])
            } else {
                Json::Obj(vec![(random_string(&mut rng), tree)])
            };
        }
        let parsed = Json::parse(&tree.to_string());
        if depth <= max {
            assert_eq!(parsed, Ok(tree), "depth {depth}");
        } else {
            assert!(parsed.is_err(), "depth {depth} parsed");
        }
    }
}

/// Encodes per-core streams as a `.silotrace`, round-robin, the way the
/// simulator records them.
fn encode_trace(name: &str, traces: &[Vec<MemRef>]) -> Vec<u8> {
    let header = TraceHeader {
        cores: traces.len(),
        refs_per_core: traces.iter().map(Vec::len).max().unwrap_or(0) as u64,
        seed: 9,
        name: name.into(),
        provenance: "parser fuzz corpus".into(),
    };
    let mut w = TraceWriter::new(Vec::new(), &header).expect("writer");
    for i in 0..header.refs_per_core as usize {
        for (core, t) in traces.iter().enumerate() {
            if let Some(&mr) = t.get(i) {
                w.write(core, mr).expect("write");
            }
        }
    }
    w.finish().expect("finish")
}

/// Two recorded traces: a generated workload, and one whose records
/// reach the longest encodings (two-byte tags at 20 cores, five-byte
/// gaps, ten-byte line deltas).
fn trace_corpus() -> Vec<Vec<u8>> {
    let spec = WorkloadSpec {
        refs_per_core: 150,
        ..WorkloadSpec::parse("shared-mix").expect("preset")
    };
    let generated = encode_trace("shared-mix", &spec.generate(4, 64, 9));
    let kinds = [AccessKind::IFetch, AccessKind::Read, AccessKind::Write];
    let extreme: Vec<Vec<MemRef>> = (0..20u64)
        .map(|core| {
            (0..12u64)
                .map(|i| MemRef {
                    line: LineAddr::new(if i % 2 == 0 { core } else { core ^ 1 << 63 }),
                    kind: kinds[(i % 3) as usize],
                    gap_instructions: if i % 4 == 1 { u32::MAX } else { i as u32 },
                    dependent: i % 5 == 0,
                })
                .collect()
        })
        .collect();
    vec![generated, encode_trace("extreme", &extreme)]
}

/// Offsets of every record of a valid trace, then of the sentinel.
fn record_starts(bytes: &[u8]) -> Vec<usize> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    // magic 8 + version 4 + cores 4 + refs_per_core 8 + seed 8 = 32.
    let provenance = 36 + u32_at(32);
    let mut at = provenance + 4 + u32_at(provenance);
    let mut starts = Vec::new();
    loop {
        starts.push(at);
        if bytes[at] == 0x06 {
            return starts;
        }
        for _field in 0..3 {
            while bytes[at] & 0x80 != 0 {
                at += 1;
            }
            at += 1;
        }
    }
}

fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// Length of the varint at the front of `bytes`.
fn varint_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|b| b & 0x80 == 0)
        .expect("terminated")
        + 1
}

/// Verifies `bytes` and replays them round-robin, both through a read
/// buffer of `capacity` bytes so that fields straddle buffer ends.
/// Neither may panic; returns the verdict and the records replayed.
fn check_trace(bytes: &[u8], capacity: usize) -> (Result<u64, TraceError>, u64) {
    let verdict = catch_unwind(|| verify_stream(BufReader::with_capacity(capacity, bytes)))
        .unwrap_or_else(|_| panic!("verify panicked on {bytes:02x?}"));
    let replayed = catch_unwind(|| {
        let Ok(mut r) = TraceReader::new(BufReader::with_capacity(capacity, bytes)) else {
            return 0;
        };
        let cores = r.header().cores;
        let mut live = vec![true; cores];
        let mut n = 0;
        while live.contains(&true) {
            for (core, live) in live.iter_mut().enumerate() {
                match r.next(core) {
                    Some(_) => n += 1,
                    None => *live = false,
                }
            }
        }
        n
    })
    .unwrap_or_else(|_| panic!("replay panicked on {bytes:02x?}"));
    (verdict.map(|s| s.records), replayed)
}

#[test]
fn mutated_traces_fail_with_typed_errors_never_panics() {
    let corpus = trace_corpus();
    let mut rng = Rng::new(0x5110_7ace);
    for trace in &corpus {
        let (verdict, replayed) = check_trace(trace, 8192);
        assert_eq!(verdict, Ok(replayed), "the corpus verifies");
        assert_eq!(replayed as usize, record_starts(trace).len() - 1);
    }
    let alphabet: &[u8] = b"\x00\x01\x06\x07\x7f\x80\x81\xfe\xff";
    for round in 0..4_000 {
        let trace = pick(&mut rng, &corpus);
        let starts = record_starts(trace);
        let records = starts.len() - 1;
        let capacity = 1 + rng.below(64) as usize;
        let i = rng.below(records as u64) as usize;
        let (start, end) = (starts[i], starts[i + 1]);
        let mut bad = trace.clone();
        // Every targeted corruption damages record `i` (or, last, only
        // the checksum): verify must reject it, and replay must stop
        // after exactly the `i` records before it.
        let stops_at = match round % 6 {
            0 => {
                // An overlong varint in place of one field: nine or more
                // continuation bytes, then a tenth byte above 1.
                let field = rng.below(3);
                let mut at = start;
                for _ in 0..field {
                    at += varint_len(&bad[at..]);
                }
                let len = varint_len(&bad[at..]);
                let mut long: Vec<u8> = (0..9).map(|_| 0x80 | rng.below(128) as u8).collect();
                long.push(2 + rng.below(254) as u8);
                long.extend((0..rng.below(4)).map(|_| rng.below(256) as u8));
                bad.splice(at..at + len, long);
                i
            }
            1 | 2 => {
                // A reserved kind, or a core at or above the header's.
                let cores = u64::from(bad[12]);
                let tag = if round % 6 == 1 {
                    rng.below(cores) << 3 | 3 << 1 | rng.below(2)
                } else {
                    (cores + rng.below(5000)) << 3 | rng.below(3) << 1 | rng.below(2)
                };
                let len = varint_len(&bad[start..]);
                bad.splice(start..start + len, varint(tag));
                i
            }
            3 => {
                // Truncation inside the record (or its one-byte tag).
                bad.truncate(start + 1 + rng.below((end - start - 1) as u64) as usize);
                i
            }
            4 => {
                let last = bad.len() - 1 - rng.below(8) as usize;
                bad[last] ^= 1 << rng.below(8);
                records
            }
            _ => {
                // Untargeted edits: anything may happen but a panic, and
                // a file that still verifies must replay in full.
                let seeds = [trace.clone()];
                let bad = mutate(&mut rng, trace, &seeds, alphabet);
                let (verdict, replayed) = check_trace(&bad, capacity);
                if let Ok(total) = verdict {
                    assert_eq!(replayed, total, "round {round}: {bad:02x?}");
                }
                continue;
            }
        };
        let (verdict, replayed) = check_trace(&bad, capacity);
        assert!(
            matches!(&verdict, Err(TraceError::Corrupt(m)) if !m.is_empty()),
            "round {round}: corrupt trace verified as {verdict:?}"
        );
        assert_eq!(
            replayed, stops_at as u64,
            "round {round}: replay did not stop at the damaged record"
        );
    }
}
