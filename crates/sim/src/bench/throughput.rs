//! The hot-loop throughput benchmark: refs/sec per (system, workload).
//!
//! Simulator capacity is measured in *references per second of host
//! time*: every design-space sweep point costs `cores × refs` simulated
//! references, so refs/sec is the unit that converts "how fast is the
//! inner loop" into "how many sweep points per minute". This module
//! runs a fixed matrix — each selected system × each selected workload
//! at one core count, seed, and reference count — times every cell, and
//! renders the rows into the `silo-hotloop/v1` JSON schema so the
//! numbers can be committed as a trajectory (`BENCH_hotloop.json`) and
//! compared across PRs.
//!
//! The default matrix ([`ThroughputSpec::hotloop_matrix`]) is every
//! builtin system × {zipf-shared, uniform-private, pointer-chase} on
//! 8 cores at seed 42: a cache-friendly skewed workload, a
//! capacity-stressing uniform one, and a dependent-miss chain, so the
//! three qualitatively different hot-path regimes (SRAM-hit dominated,
//! vault/directory dominated, MSHR-serialised) are all represented.
//!
//! Wall-clock is host-dependent by nature; everything else about a cell
//! (the simulated stats) is deterministic, and row *order* is fixed by
//! the matrix regardless of the worker-thread count.

use crate::bench::{par_map, SCHEMA_HOTLOOP};
use crate::config::SystemConfig;
use crate::error::ConfigError;
use crate::json::Json;
use crate::registry::{run_system, SystemRegistry, SystemSpec};
use crate::run::RunOptions;
use crate::workload::WorkloadSpec;
use std::time::Instant;

/// The benchmark matrix: systems × workloads at one (cores, refs, seed)
/// point.
#[derive(Clone, Debug)]
pub struct ThroughputSpec {
    /// Template config; `cores` overrides its core count.
    pub base: SystemConfig,
    /// Systems to time, in row order.
    pub systems: Vec<SystemSpec>,
    /// Workloads to time, in column order.
    pub workloads: Vec<WorkloadSpec>,
    /// Core count of every cell.
    pub cores: usize,
    /// References per core of every cell.
    pub refs_per_core: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl ThroughputSpec {
    /// The tracked hot-loop matrix: every builtin system ×
    /// {zipf-shared, uniform-private, pointer-chase}, 8 cores, seed 42,
    /// `refs_per_core` references per core. This is the matrix behind
    /// `silo-sim bench` and the committed `BENCH_hotloop.json`
    /// trajectory; changing it invalidates cross-PR comparisons.
    pub fn hotloop_matrix(refs_per_core: usize) -> Self {
        let workloads = ["zipf-shared", "uniform-private", "pointer-chase"]
            .iter()
            .map(|n| {
                let mut w = WorkloadSpec::by_name(n).expect("builtin preset");
                w.refs_per_core = refs_per_core;
                w
            })
            .collect();
        ThroughputSpec {
            base: SystemConfig::paper_16core(),
            systems: SystemRegistry::builtin().specs().to_vec(),
            workloads,
            cores: 8,
            refs_per_core,
            seed: 42,
        }
    }

    /// The (system, workload) cells in row order: system-major, so each
    /// system's three workload rows are adjacent in reports.
    fn cells(&self) -> Vec<(SystemSpec, WorkloadSpec)> {
        let mut cells = Vec::with_capacity(self.systems.len() * self.workloads.len());
        for sys in &self.systems {
            for w in &self.workloads {
                cells.push((sys.clone(), w.clone()));
            }
        }
        cells
    }
}

/// One timed cell of the matrix.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Registry name of the system.
    pub system: String,
    /// Workload name.
    pub workload: String,
    /// References processed (deterministic: `cores × refs_per_core` for
    /// generated workloads).
    pub refs: u64,
    /// Host wall-clock of the run, in milliseconds.
    pub wall_ms: f64,
}

impl ThroughputRow {
    /// References simulated per second of host wall-clock.
    pub fn refs_per_sec(&self) -> f64 {
        self.refs as f64 / (self.wall_ms.max(1e-9) / 1e3)
    }
}

/// Runs every cell of the matrix and returns one row per cell, in
/// matrix order (system-major) regardless of `threads`. Cells fan out
/// across up to `threads` OS threads; the simulated side of every cell
/// is deterministic, only `wall_ms` depends on the host.
pub fn run_throughput(spec: &ThroughputSpec, threads: usize) -> Vec<ThroughputRow> {
    let cells = spec.cells();
    if cells.is_empty() {
        return Vec::new();
    }
    let cfg = spec.base.with_cores(spec.cores);
    cfg.validate().expect("throughput config is valid");
    let run_cell = |(sys, w): &(SystemSpec, WorkloadSpec)| {
        let mut source = w
            .source(cfg.cores, cfg.scale, spec.seed)
            .expect("builtin workloads always yield a source");
        let t = Instant::now();
        let stats = run_system(sys, &cfg, &w.name, &mut *source, &RunOptions::default())
            .expect("plain runs cannot fail")
            .stats;
        ThroughputRow {
            system: stats.system,
            workload: stats.workload,
            refs: stats.served.total(),
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
        }
    };
    par_map(&cells, threads, run_cell)
}

/// Geometric mean of the rows' refs/sec (0.0 for an empty matrix).
pub fn geomean_refs_per_sec(rows: &[ThroughputRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let rps: Vec<f64> = rows.iter().map(ThroughputRow::refs_per_sec).collect();
    silo_types::geomean(&rps)
}

/// Renders one benchmark run as a `snapshots[]` entry of the
/// `silo-hotloop/v1` document.
pub fn snapshot_json(label: &str, spec: &ThroughputSpec, rows: &[ThroughputRow]) -> Json {
    Json::Obj(vec![
        ("label".into(), Json::Str(label.into())),
        ("cores".into(), Json::Int(spec.cores as i128)),
        (
            "refs_per_core".into(),
            Json::Int(spec.refs_per_core as i128),
        ),
        ("seed".into(), Json::Int(spec.seed as i128)),
        (
            "geomean_refs_per_sec".into(),
            Json::Num(geomean_refs_per_sec(rows)),
        ),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("system".into(), Json::Str(r.system.clone())),
                            ("workload".into(), Json::Str(r.workload.clone())),
                            ("refs".into(), Json::Int(r.refs as i128)),
                            ("wall_ms".into(), Json::Num(r.wall_ms)),
                            ("refs_per_sec".into(), Json::Num(r.refs_per_sec())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Wraps snapshots into the top-level `silo-hotloop/v1` document.
pub fn hotloop_doc(snapshots: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA_HOTLOOP.into())),
        ("snapshots".into(), Json::Arr(snapshots)),
    ])
}

/// Loads the snapshots of an existing `silo-hotloop/v1` file.
///
/// # Errors
///
/// Returns [`ConfigError::Trace`] (reused as the generic "file problem"
/// variant) when the file cannot be read, parsed, or has the wrong
/// schema.
pub fn load_snapshots(path: &std::path::Path) -> Result<Vec<Json>, ConfigError> {
    let err = |message: String| ConfigError::Trace {
        path: path.display().to_string(),
        message,
    };
    let text = std::fs::read_to_string(path).map_err(|e| err(e.to_string()))?;
    let doc = Json::parse(&text).map_err(err)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA_HOTLOOP) => {}
        other => {
            return Err(err(format!(
                "expected schema {SCHEMA_HOTLOOP:?}, found {other:?}"
            )))
        }
    }
    let snapshots = doc
        .get("snapshots")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("missing snapshots array".into()))?;
    Ok(snapshots.to_vec())
}

/// Appends a snapshot to a `silo-hotloop/v1` file (creating it when
/// absent), so repeated `silo-sim bench --json` runs grow a trajectory.
///
/// # Errors
///
/// Propagates parse/IO failures as [`ConfigError`].
pub fn append_snapshot(path: &std::path::Path, snapshot: Json) -> Result<usize, ConfigError> {
    let mut snapshots = if path.exists() {
        load_snapshots(path)?
    } else {
        Vec::new()
    };
    snapshots.push(snapshot);
    let n = snapshots.len();
    std::fs::write(path, format!("{}\n", hotloop_doc(snapshots))).map_err(|e| {
        ConfigError::Trace {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    })?;
    Ok(n)
}

/// One matched row of a [`compare_rows`] comparison.
#[derive(Clone, Debug)]
pub struct RowDelta {
    /// Registry name of the system.
    pub system: String,
    /// Workload name.
    pub workload: String,
    /// This run's refs/sec.
    pub now: f64,
    /// The reference snapshot's refs/sec.
    pub then: f64,
    /// `now / then`.
    pub ratio: f64,
}

/// Per-row refs/sec ratio of `rows` against the matching rows of a
/// reference snapshot (matched by system + workload), plus the geomean
/// of the ratios. Rows with no counterpart are skipped.
pub fn compare_rows(rows: &[ThroughputRow], reference: &Json) -> (Vec<RowDelta>, Option<f64>) {
    let Some(ref_rows) = reference.get("rows").and_then(Json::as_arr) else {
        return (Vec::new(), None);
    };
    let lookup = |system: &str, workload: &str| -> Option<f64> {
        ref_rows.iter().find_map(|r| {
            (r.get("system").and_then(Json::as_str) == Some(system)
                && r.get("workload").and_then(Json::as_str) == Some(workload))
            .then(|| r.get("refs_per_sec").and_then(Json::as_f64))
            .flatten()
        })
    };
    let mut out = Vec::new();
    let mut ratios = Vec::new();
    for r in rows {
        let Some(then) = lookup(&r.system, &r.workload) else {
            continue;
        };
        let now = r.refs_per_sec();
        if then > 0.0 && now > 0.0 {
            let ratio = now / then;
            ratios.push(ratio);
            out.push(RowDelta {
                system: r.system.clone(),
                workload: r.workload.clone(),
                now,
                then,
                ratio,
            });
        }
    }
    let geo = (!ratios.is_empty()).then(|| silo_types::geomean(&ratios));
    (out, geo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ThroughputSpec {
        let mut spec = ThroughputSpec::hotloop_matrix(400);
        spec.cores = 2;
        spec.systems.truncate(2);
        spec.workloads.truncate(2);
        spec
    }

    #[test]
    fn matrix_covers_every_builtin_system_and_three_workloads() {
        let spec = ThroughputSpec::hotloop_matrix(100);
        assert_eq!(spec.cores, 8);
        assert_eq!(spec.seed, 42);
        assert!(spec.systems.len() >= 4);
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["zipf-shared", "uniform-private", "pointer-chase"]);
        assert!(spec.workloads.iter().all(|w| w.refs_per_core == 100));
    }

    #[test]
    fn rows_come_back_in_matrix_order_with_positive_throughput() {
        let spec = tiny_spec();
        let rows = run_throughput(&spec, 1);
        assert_eq!(rows.len(), 4);
        let mut i = 0;
        for sys in &spec.systems {
            for w in &spec.workloads {
                assert_eq!(rows[i].system, sys.name());
                assert_eq!(rows[i].workload, w.name);
                assert_eq!(rows[i].refs, 2 * 400);
                assert!(rows[i].refs_per_sec() > 0.0);
                i += 1;
            }
        }
        assert!(geomean_refs_per_sec(&rows) > 0.0);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let spec = tiny_spec();
        let rows = run_throughput(&spec, 2);
        let doc = hotloop_doc(vec![snapshot_json("test", &spec, &rows)]);
        let parsed = Json::parse(&doc.to_string()).expect("round trip");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(SCHEMA_HOTLOOP)
        );
        let snaps = parsed.get("snapshots").and_then(Json::as_arr).unwrap();
        assert_eq!(snaps.len(), 1);
        let r = snaps[0].get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(r.len(), rows.len());
        let (deltas, geo) = compare_rows(&rows, &snaps[0]);
        assert_eq!(deltas.len(), rows.len());
        let g = geo.expect("all rows matched");
        assert!((g - 1.0).abs() < 1e-9, "self-comparison must be 1.0x: {g}");
    }
}
