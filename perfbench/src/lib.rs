//! `perfbench`: the benchmark of the SILO reproduction.
//!
//! One invocation runs one workload for a time budget, checks the
//! simulator's outputs, and prints every metric by name with its unit.
//! Untraced runs give the end-to-end metrics; traced runs give the
//! per-layer metrics and a Chrome trace. See `README.md` beside this
//! package for the metric table and why each workload exists.

#![forbid(unsafe_code)]

pub mod host;
pub mod json;
pub mod layers;
pub mod report;
pub mod served;
pub mod sim;

use report::Outcome;
use std::path::PathBuf;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = [
    sim::REPLAY_PRIVATE_16C.name,
    sim::WRITE_SHARE_64C.name,
    served::NAME,
];

/// The seed whose output digests are committed in `golden.txt`.
pub const DEFAULT_SEED: u64 = 42;

const GOLDEN: &str = include_str!("../golden.txt");

/// What one invocation runs.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    /// Time budget of the measured phase.
    pub seconds: f64,
    /// Smoke-test size: a few hundred references per core.
    pub tiny: bool,
    /// The digest the simulated output must have, when known.
    pub expected_digest: Option<String>,
    /// Scratch directory for traces, caches, and results.
    pub work_dir: PathBuf,
}

impl Params {
    /// Full-size parameters; the committed digest is expected at the
    /// default seed.
    pub fn new(workload: &str, seed: u64, seconds: f64, work_dir: PathBuf) -> Self {
        Params {
            seed,
            seconds,
            tiny: false,
            expected_digest: (seed == DEFAULT_SEED)
                .then(|| golden_digest(workload))
                .flatten(),
            work_dir,
        }
    }
}

/// The committed digest of `workload` at [`DEFAULT_SEED`].
pub fn golden_digest(workload: &str) -> Option<String> {
    GOLDEN.lines().find_map(|line| {
        let (name, digest) = line.split_once(' ')?;
        (name == workload).then(|| digest.trim().to_string())
    })
}

/// Where a traced run of `workload` writes its Chrome trace.
pub fn trace_path(p: &Params, workload: &str) -> PathBuf {
    p.work_dir
        .join(format!("trace-{workload}-seed{}.json", p.seed))
}

/// Runs `workload`, traced or not.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(workload: &str, p: &Params, trace: bool) -> Result<Outcome, String> {
    let trace_out = trace_path(p, workload);
    let sim = [sim::REPLAY_PRIVATE_16C, sim::WRITE_SHARE_64C]
        .into_iter()
        .find(|w| w.name == workload);
    Ok(match (sim, trace) {
        (Some(w), false) => w.run(p),
        (Some(w), true) => w.run_traced(p, &trace_out),
        (None, false) if workload == served::NAME => served::run(p),
        (None, true) if workload == served::NAME => served::run_traced(p, &trace_out),
        (None, _) => {
            return Err(format!(
                "unknown workload '{workload}' (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}
