//! `silo-sim`: the timing core of the SILO reproduction, usable as a
//! library or through the `silo-sim` CLI.
//!
//! The coherence engines in `silo-coherence` are functional: each access
//! yields an [`silo_coherence::AccessResult`] listing the critical-path
//! protocol steps and the background work. This crate prices those steps
//! — mesh hops through `silo-noc`, DRAM bank occupancy through
//! `silo-dram`'s next-free-time reservations — models per-core miss
//! overlap from [`silo_types::MemRef`]'s `gap_instructions`/`dependent`
//! fields, and aggregates `silo_types::stats` into per-workload results.
//!
//! The public API is scenario-first:
//!
//! * [`registry`] — a [`SystemRegistry`] of named [`SystemSpec`]
//!   factories producing [`AnyEngine`] engines: the paper's
//!   SILO/baseline pair plus sensitivity variants (`silo-no-forward`,
//!   `baseline-2x`), extensible at runtime.
//! * [`builder`] — [`Simulation::builder`] composes configs, systems,
//!   workloads, and sweep axes; `build()` returns typed
//!   [`ConfigError`]s instead of panicking.
//! * [`scenario`] — the table of simulation keys ([`scenario::KEYS`])
//!   and the [`Scenario`] record generated from it, read from a
//!   dependency-free `key = value` file (`--scenario`) or from the
//!   `silo-sim` flags that spell the same keys.
//!
//! Every simulation goes through one loop with one entry point:
//! [`run()`] drives a [`Protocol`] engine and its [`TimingModel`] over a
//! [`TraceSource`], and [`run_system`] does the same for a registered
//! [`SystemSpec`]. A [`RunOptions`] carries the telemetry
//! [`MeterConfig`] and a [`RunMode`] — plain, checked by the run-time
//! invariant oracle, or profiled — and every mode returns bit-identical
//! statistics and telemetry in a [`RunOutput`].
//!
//! The [`mod@bench`] module fans sweeps over (workload × cores × scale ×
//! mlp × vault design) out across OS threads and emits machine-readable
//! `silo-bench/v1` JSON through the dependency-free [`json`] module.
//!
//! The run loop streams: every run pulls references one at a time from
//! a [`TraceSource`] (`silo-trace`) — the lazy synthetic generator
//! ([`SyntheticTrace`]), an in-memory slice, or a `.silotrace` replay
//! file — so trace length is bounded by disk, not RAM.
//! [`bench::record_traces`] (CLI `--record-traces DIR`) captures
//! generated workloads to versioned, checksummed binary files, the
//! `trace:file=PATH` workload spec replays them with result rows
//! byte-identical to the original synthetic run at the same seed, and
//! `silo-sim trace-info FILE` inspects captures.
//!
//! Measurement runs through the `silo-telemetry` subsystem: a
//! [`MeterConfig`] (`--warmup` / `--epoch`, scenario `warmup =` /
//! `epoch =`) adds a warmup window that resets measurement counters
//! while preserving simulated state, plus an epoch-sampled timeline
//! (IPC, served-by-level counts, LLC latency percentiles, mesh link
//! utilization, vault occupancy) exported as CSV by the [`mod@timeline`]
//! module and as an additive `telemetry` object in the JSON.
//!
//! # Library example
//!
//! ```
//! use silo_sim::{ConfigError, Simulation};
//!
//! let sim = Simulation::builder()
//!     .systems(["SILO", "baseline", "baseline-2x"])
//!     .workloads(["uniform-private", "zipf:theta=0.9,footprint=4x"])
//!     .cores([4])
//!     .refs_per_core(500)
//!     .seed(7)
//!     .threads(2)
//!     .build()?;
//! let records = sim.run();
//! assert_eq!(records.len(), 2); // one record per workload
//! for record in &records {
//!     assert_eq!(record.runs.len(), 3); // one run per system
//!     let speedup = record.speedup().expect("SILO and baseline ran");
//!     assert!(speedup.is_finite());
//! }
//! # Ok::<(), ConfigError>(())
//! ```
//!
//! One system over one workload, with a warmup window, epoch sampling,
//! and the invariant oracle sweeping every 100 references:
//!
//! ```
//! use silo_sim::{
//!     run_system, ConfigError, MeterConfig, RunMode, RunOptions, SystemConfig, SystemRegistry,
//!     WorkloadSpec,
//! };
//! use std::num::NonZeroU64;
//!
//! let cfg = SystemConfig::paper_16core().with_cores(4);
//! let spec = WorkloadSpec {
//!     refs_per_core: 500,
//!     ..WorkloadSpec::zipf_shared()
//! };
//! let silo = SystemRegistry::builtin().get("SILO").expect("builtin").clone();
//! let opts = RunOptions {
//!     meter: MeterConfig {
//!         warmup_refs: 200,
//!         epoch_refs: Some(500),
//!     },
//!     mode: RunMode::Checked(NonZeroU64::new(100).expect("nonzero")),
//! };
//! let mut source = spec.source(cfg.cores, cfg.scale, 7)?;
//! let out = run_system(&silo, &cfg, &spec.name, &mut *source, &opts)
//!     .expect("invariants hold");
//! assert_eq!(out.stats.system, "SILO");
//! assert_eq!(out.telemetry.timeline.rows().len(), 4); // 2000 refs / 500
//! assert!(out.profile.is_none()); // only RunMode::Profiled carries one
//! # Ok::<(), ConfigError>(())
//! ```

#![forbid(unsafe_code)]

pub mod bench;
pub mod builder;
pub mod canon;
pub mod config;
pub mod error;
pub mod json;
pub mod registry;
pub mod report;
pub mod run;
pub mod scenario;
pub mod serve;
pub mod timeline;
pub mod timing;
pub mod workload;

pub use bench::{
    record_traces, run_sweep, run_sweep_sequential, BenchRecord, SweepPoint, SweepSpec, SystemRun,
};
pub use builder::{Simulation, SimulationBuilder};
pub use config::{SystemConfig, VaultDesign};
pub use error::ConfigError;
pub use json::Json;
pub use registry::{run_system, SystemInstance, SystemRegistry, SystemSpec};
pub use report::{name_widths, print_report, render_report, render_row};
pub use run::{
    run, AnyEngine, Protocol, RunMode, RunOptions, RunOutput, RunStats, ServedCounts,
    PROFILE_PHASES,
};
pub use scenario::Scenario;
pub use serve::{SimJob, SimJobEngine};
pub use silo_telemetry::{MeterConfig, Telemetry};
pub use silo_trace::{
    SliceTrace, TraceError, TraceHeader, TraceReader, TraceSource, TraceSummary, TraceWriter,
};
pub use timeline::{timeline_csv, write_timeline_csv, TIMELINE_HEADER};
pub use timing::TimingModel;
pub use workload::{Rng, SyntheticTrace, WorkloadSpec};
