//! The system registry: named factories producing protocol engines.
//!
//! A [`SystemSpec`] pairs a name and one-line description with a factory
//! that instantiates a [`Protocol`](crate::Protocol) engine and its
//! [`TimingModel`] from a
//! [`SystemConfig`]. The [`SystemRegistry`] holds the built-in systems —
//! the paper's SILO/baseline pair plus sensitivity variants — and accepts
//! user-defined entries, so comparisons are N-way runtime data instead of
//! a hardcoded pair.
//!
//! Built-in systems:
//!
//! * `SILO` — private die-stacked DRAM vaults, MOESI with O-state
//!   forwarding (the paper's system).
//! * `baseline` — shared, banked, non-inclusive NUCA LLC with MESI.
//! * `silo-no-forward` — SILO with O-state forwarding disabled: a dirty
//!   owner supplying a reader writes back to memory and degrades to S.
//! * `baseline-2x` — the baseline with doubled aggregate LLC capacity.

use crate::config::SystemConfig;
use crate::run::{baseline_engine, run, silo_engine, AnyEngine, RunOptions, RunOutput};
use crate::timing::TimingModel;
use silo_trace::TraceSource;
use silo_types::ByteSize;
use std::fmt;
use std::sync::Arc;

/// A freshly instantiated system: the protocol engine plus the timing
/// model pricing its steps. Built-in factories produce concrete
/// [`AnyEngine`] variants (`.into()` from the engine type), so the run
/// loop dispatches accesses through a match instead of a vtable;
/// user-defined factories can keep boxing (`Box<dyn Protocol>` also
/// converts via `.into()`).
pub struct SystemInstance {
    /// The protocol engine.
    pub engine: AnyEngine,
    /// The priced resources (mesh, banks, memory) of this system.
    pub timing: TimingModel,
}

/// A named, registered system: a factory producing fresh
/// [`SystemInstance`]s from a [`SystemConfig`].
#[derive(Clone)]
pub struct SystemSpec {
    name: String,
    description: String,
    factory: Arc<dyn Fn(&SystemConfig) -> SystemInstance + Send + Sync>,
}

impl SystemSpec {
    /// Registers a new system under `name` with a one-line `description`
    /// and an instantiation factory.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        factory: impl Fn(&SystemConfig) -> SystemInstance + Send + Sync + 'static,
    ) -> Self {
        SystemSpec {
            name: name.into(),
            description: description.into(),
            factory: Arc::new(factory),
        }
    }

    /// The registry name (also the `system` field of result rows).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line description for `--list-systems`.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Builds a fresh engine + timing model for `cfg`.
    pub fn instantiate(&self, cfg: &SystemConfig) -> SystemInstance {
        (self.factory)(cfg)
    }
}

impl fmt::Debug for SystemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemSpec")
            .field("name", &self.name)
            .field("description", &self.description)
            .finish_non_exhaustive()
    }
}

/// The set of runnable systems, looked up by name (case-insensitive).
#[derive(Clone, Debug)]
pub struct SystemRegistry {
    specs: Vec<SystemSpec>,
}

impl SystemRegistry {
    /// The registry of built-in systems (see the module docs).
    pub fn builtin() -> Self {
        let mut r = SystemRegistry { specs: Vec::new() };
        r.register(SystemSpec::new(
            "SILO",
            "private die-stacked DRAM vaults, MOESI with O-state forwarding (the paper's system)",
            |cfg| SystemInstance {
                engine: silo_engine(cfg, true).into(),
                timing: TimingModel::silo(cfg),
            },
        ));
        r.register(SystemSpec::new(
            "baseline",
            "shared, banked, non-inclusive NUCA LLC with an embedded MESI directory",
            |cfg| SystemInstance {
                engine: baseline_engine(cfg).into(),
                timing: TimingModel::baseline(cfg),
            },
        ));
        r.register(SystemSpec::new(
            "silo-no-forward",
            "SILO without O-state forwarding: dirty reads write back to memory (MESI-over-vaults)",
            |cfg| SystemInstance {
                engine: silo_engine(cfg, false).into(),
                timing: TimingModel::silo(cfg),
            },
        ));
        r.register(SystemSpec::new(
            "baseline-2x",
            "the shared-LLC baseline with doubled aggregate LLC capacity",
            |cfg| {
                let mut big = *cfg;
                big.llc_capacity = ByteSize::from_bytes(cfg.llc_capacity.as_bytes() * 2);
                SystemInstance {
                    engine: baseline_engine(&big).into(),
                    timing: TimingModel::baseline(&big),
                }
            },
        ));
        r
    }

    /// Adds (or replaces, by case-insensitive name) a system.
    pub fn register(&mut self, spec: SystemSpec) {
        if let Some(existing) = self
            .specs
            .iter_mut()
            .find(|s| s.name.eq_ignore_ascii_case(&spec.name))
        {
            *existing = spec;
        } else {
            self.specs.push(spec);
        }
    }

    /// Looks a system up by name, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&SystemSpec> {
        self.specs
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
    }

    /// All registered systems, in registration order.
    pub fn specs(&self) -> &[SystemSpec] {
        &self.specs
    }

    /// The classic SILO-vs-baseline pair (the default selection).
    ///
    /// # Panics
    ///
    /// Panics if either name has been removed from the registry.
    pub fn classic_pair(&self) -> Vec<SystemSpec> {
        ["SILO", "baseline"]
            .iter()
            .map(|n| self.get(n).expect("built-in system present").clone())
            .collect()
    }
}

impl Default for SystemRegistry {
    fn default() -> Self {
        SystemRegistry::builtin()
    }
}

/// Instantiates `sys` for `cfg` and drives it over `source` with
/// [`run`]. The result's `system` field is the registry name, regardless
/// of what the underlying engine calls itself — so variants like
/// `silo-no-forward` and user-registered systems label their rows
/// correctly. For the built-in `SILO` / `baseline` entries the results
/// are bit-identical to calling [`run`] on the concrete engine.
///
/// # Errors
///
/// Only under [`crate::run::RunMode::Checked`]: the first invariant
/// violation, naming the system and the reference count at detection.
/// A violation indicates a simulator bug.
pub fn run_system(
    sys: &SystemSpec,
    cfg: &SystemConfig,
    workload_name: &str,
    source: &mut dyn TraceSource,
    opts: &RunOptions,
) -> Result<RunOutput, String> {
    let mut inst = sys.instantiate(cfg);
    let mut out = run(
        &mut inst.engine,
        &mut inst.timing,
        cfg,
        workload_name,
        source,
        opts,
    )
    .map_err(|e| format!("{}: invariant violation {e}", sys.name()))?;
    out.stats.system = sys.name().to_string();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    #[test]
    fn builtin_registry_has_at_least_four_described_systems() {
        let r = SystemRegistry::builtin();
        assert!(r.specs().len() >= 4);
        for s in r.specs() {
            assert!(!s.name().is_empty());
            assert!(!s.description().is_empty(), "{} lacks a blurb", s.name());
        }
        for name in ["SILO", "baseline", "silo-no-forward", "baseline-2x"] {
            assert!(r.get(name).is_some(), "missing builtin '{name}'");
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let r = SystemRegistry::builtin();
        assert_eq!(r.get("silo").map(SystemSpec::name), Some("SILO"));
        assert_eq!(
            r.get("BASELINE-2X").map(SystemSpec::name),
            Some("baseline-2x")
        );
        assert!(r.get("ghost").is_none());
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = SystemRegistry::builtin();
        let n = r.specs().len();
        r.register(SystemSpec::new("SILO", "replaced", |cfg| SystemInstance {
            engine: silo_engine(cfg, true).into(),
            timing: TimingModel::silo(cfg),
        }));
        assert_eq!(r.specs().len(), n);
        assert_eq!(r.get("SILO").map(SystemSpec::description), Some("replaced"));
    }

    #[test]
    fn run_system_labels_rows_with_the_registry_name() {
        let cfg = SystemConfig::paper_16core().with_cores(2);
        let w = WorkloadSpec {
            refs_per_core: 300,
            ..WorkloadSpec::uniform_private()
        };
        let r = SystemRegistry::builtin();
        for name in ["SILO", "baseline", "silo-no-forward", "baseline-2x"] {
            let mut source = w.source(cfg.cores, cfg.scale, 1).expect("source");
            let stats = run_system(
                r.get(name).expect("builtin"),
                &cfg,
                &w.name,
                &mut *source,
                &RunOptions::default(),
            )
            .expect("plain runs cannot fail")
            .stats;
            assert_eq!(stats.system, name);
            assert!(stats.instructions > 0);
        }
    }

    #[test]
    fn classic_pair_is_silo_then_baseline() {
        let pair = SystemRegistry::builtin().classic_pair();
        let names: Vec<&str> = pair.iter().map(SystemSpec::name).collect();
        assert_eq!(names, ["SILO", "baseline"]);
    }
}
