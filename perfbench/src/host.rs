//! The host stamp carried by every result: what ran, where, and with
//! which seed. Results whose hosts differ are incomparable.

use crate::json::{quote, Value};
use crate::report::fnv_hex;
use std::path::{Path, PathBuf};

/// Where and what a result was measured on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostStamp {
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// The compiler that built the benchmark and the simulator.
    pub rustc: String,
    /// Git revision of the checkout, or `none` outside a git checkout.
    pub git_rev: String,
    /// Content hash of the simulator's sources (`crates/`, `examples/`),
    /// which identifies the code where no git revision exists.
    pub source_digest: String,
    /// Workload seed of the run.
    pub seed: u64,
}

impl HostStamp {
    /// Stamps the current host for a run with `seed`.
    pub fn current(seed: u64) -> Self {
        let root = repo_root();
        HostStamp {
            cpu: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_rev: git_rev(&root).unwrap_or_else(|| "none".to_string()),
            source_digest: source_digest(&root),
            seed,
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\":{},\"nproc\":{},\"rustc\":{},\"git_rev\":{},\"source_digest\":{},\"seed\":{}}}",
            quote(&self.cpu),
            self.nproc,
            quote(&self.rustc),
            quote(&self.git_rev),
            quote(&self.source_digest),
            self.seed
        )
    }

    /// Reads a stamp back from its JSON object.
    pub fn from_json(v: &Value) -> Option<Self> {
        let s = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        Some(HostStamp {
            cpu: s("cpu")?,
            nproc: v.get("nproc")?.as_f64()? as usize,
            rustc: s("rustc")?,
            git_rev: s("git_rev")?,
            source_digest: s("source_digest")?,
            seed: v.get("seed")?.as_f64()? as u64,
        })
    }

    /// Why results stamped `self` and `other` cannot be compared, if
    /// they cannot: a different CPU model, CPU count, or compiler.
    /// Revisions and seeds may differ; that is what a comparison is for.
    pub fn incomparable(&self, other: &HostStamp) -> Option<String> {
        let mut diffs = Vec::new();
        if self.cpu != other.cpu {
            diffs.push(format!("cpu '{}' vs '{}'", self.cpu, other.cpu));
        }
        if self.nproc != other.nproc {
            diffs.push(format!("nproc {} vs {}", self.nproc, other.nproc));
        }
        if self.rustc != other.rustc {
            diffs.push(format!("rustc '{}' vs '{}'", self.rustc, other.rustc));
        }
        (!diffs.is_empty()).then(|| diffs.join("; "))
    }
}

/// The repository checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves `.git/HEAD` by hand (loose or packed ref), so no `git`
/// process is started.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
}

fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "examples"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    fnv_hex(&bytes)
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}
