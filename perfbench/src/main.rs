//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench compare RESULT_A.json RESULT_B.json
//! ```
//!
//! A run prints its host stamp and sample counts on one line, then the
//! result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! Both also go to `.bench_work/result-<workload>-seed<N>-trace<T>.json`,
//! which `compare` reads.

use perfbench::host::HostStamp;
use perfbench::json::{quote, Value};
use perfbench::report::{self, Better};
use perfbench::Params;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                     perfbench compare RESULT_A.json RESULT_B.json";

/// Scratch directory, relative to the directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.get(1..) {
            Some([a, b]) => compare(Path::new(a), Path::new(b)),
            _ => usage("compare takes two result files"),
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let work_dir = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let params = Params::new(&args.workload, args.seed, args.seconds, work_dir.clone());
    let host = HostStamp::current(args.seed);
    let outcome = match perfbench::run(&args.workload, &params, args.trace) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    for failure in outcome.failures.iter().take(20) {
        eprintln!("perfbench: failed: {failure}");
    }
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, n)| format!("{}:{n}", quote(k)))
        .collect();
    let info = format!(
        "{{\"workload\":{},\"trace\":{},\"host\":{},\"samples\":{{{}}}}}",
        quote(&args.workload),
        args.trace,
        host.to_json(),
        samples.join(",")
    );
    let result = outcome.result_json();
    let file = work_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let saved = format!("{{\"info\":{info},\"result\":{result}}}\n");
    if let Err(e) = std::fs::write(&file, saved) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    if args.trace {
        eprintln!(
            "perfbench: trace written to {}",
            perfbench::trace_path(&params, &args.workload).display()
        );
    }
    println!("{info}");
    println!("{result}");
    ExitCode::SUCCESS
}

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// A saved result file, as `compare` reads it.
struct Saved {
    workload: String,
    host: HostStamp,
    metrics: Vec<(String, f64)>,
}

fn load(path: &Path) -> Result<Saved, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Value::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    let info = v.get("info").ok_or("no info object")?;
    let workload = info
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("no workload")?
        .to_string();
    let host = info
        .get("host")
        .and_then(HostStamp::from_json)
        .ok_or("no host stamp")?;
    let metrics = match v.get("result").and_then(|r| r.get("metrics")) {
        Some(Value::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{}: no metrics", path.display())),
    };
    Ok(Saved {
        workload,
        host,
        metrics,
    })
}

/// Prints B against A per metric, or reports the pair incomparable
/// (exit 3) when they come from different hosts or workloads.
fn compare(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(why) = a.host.incomparable(&b.host) {
        println!("incomparable: different hosts: {why}");
        return ExitCode::from(3);
    }
    if a.workload != b.workload {
        println!(
            "incomparable: different workloads: {} vs {}",
            a.workload, b.workload
        );
        return ExitCode::from(3);
    }
    println!(
        "{}: A = {} (seed {}), B = {} (seed {})",
        a.workload, a.host.git_rev, a.host.seed, b.host.git_rev, b.host.seed
    );
    for (name, va) in &a.metrics {
        let Some(&(_, vb)) = b.metrics.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let def = report::lookup(name);
        let verdict = match (def.map(|d| d.better), vb.partial_cmp(va)) {
            (_, Some(std::cmp::Ordering::Equal)) => "same",
            (Some(Better::Higher), Some(std::cmp::Ordering::Greater))
            | (Some(Better::Lower), Some(std::cmp::Ordering::Less)) => "better",
            (Some(_), Some(_)) => "worse",
            _ => "",
        };
        println!(
            "  {name:<40} {va:>14.6} -> {vb:>14.6} {:<8} B/A {:.4} {verdict}",
            def.map_or("", |d| d.unit),
            report::per(vb, *va)
        );
    }
    ExitCode::SUCCESS
}
