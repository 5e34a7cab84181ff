//! Per-layer timing for the traced runs: a timed [`Protocol`] wrapper
//! around each engine, and isolation passes that call one layer's public
//! functions on the workload's own reference stream.
//!
//! Per-access work is aggregated as a count plus nanoseconds; only whole
//! runs and passes become spans.

use crate::report::{median, per};
use silo_cache::{ReplacementPolicy, SetAssocCache};
use silo_coherence::{AccessResult, CoherenceStats, DuplicateTagDirectory, ServedBy, State};
use silo_dram::BankArray;
use silo_noc::{Mesh, NodeId};
use silo_sim::{
    AnyEngine, Protocol, SystemConfig, SystemInstance, SystemRegistry, SystemSpec, TimingModel,
    TraceSource,
};
use silo_telemetry::{EpochEnv, ServiceLevel, Timeline};
use silo_types::{AccessKind, Cycles, MemRef};
use std::hint::black_box;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The compared systems, in run order; `EngineAcc` slots follow it.
pub const SYSTEMS: [&str; 2] = ["SILO", "baseline"];

/// Every `CHARGE_STRIDE`-th LLC access result is kept for the
/// `TimingModel::charge` isolation pass, up to `CHARGE_SAMPLES` per
/// system.
const CHARGE_STRIDE: u64 = 8;
const CHARGE_SAMPLES: usize = 200_000;

/// What the timed wrapper saw of one engine, summed over runs.
#[derive(Debug, Default)]
pub struct EngineAcc {
    pub accesses: u64,
    pub ns: u64,
    pub steps: u64,
    llc_accesses: u64,
    /// Sampled LLC access results, replayed by [`charge_ns`].
    pub charge_samples: Vec<AccessResult>,
    /// Served level of every access of the first SILO run, replayed by
    /// [`telemetry_record_ns`].
    pub levels: Vec<ServiceLevel>,
}

/// Per-system accumulators shared between the registry factories and
/// the benchmark.
pub type SharedAcc = Arc<Mutex<[EngineAcc; 2]>>;

/// An engine whose `access_into` is timed. Everything else forwards.
struct TimedEngine {
    inner: AnyEngine,
    slot: usize,
    acc: EngineAcc,
    sink: SharedAcc,
    collect_levels: bool,
}

impl Protocol for TimedEngine {
    fn access(&mut self, core: usize, mr: MemRef) -> AccessResult {
        self.inner.access(core, mr)
    }

    fn access_into(&mut self, core: usize, mr: MemRef, out: &mut AccessResult) {
        let t = Instant::now();
        self.inner.access_into(core, mr, out);
        self.acc.ns += t.elapsed().as_nanos() as u64;
        self.acc.accesses += 1;
        self.acc.steps += out.steps.len() as u64;
        if out.llc_access {
            self.acc.llc_accesses += 1;
            if self.acc.llc_accesses % CHARGE_STRIDE == 0
                && self.acc.charge_samples.len() < CHARGE_SAMPLES
            {
                self.acc.charge_samples.push(out.clone());
            }
        }
        if self.collect_levels {
            self.acc.levels.push(service_level(out.served_by()));
        }
    }

    fn prefetch(&self, core: usize, mr: MemRef) {
        self.inner.prefetch(core, mr);
    }

    fn system_name(&self) -> &str {
        self.inner.system_name()
    }

    fn coherence_stats(&self) -> CoherenceStats {
        self.inner.coherence_stats()
    }

    fn reset_coherence_stats(&mut self) {
        self.inner.reset_coherence_stats();
    }
}

impl Drop for TimedEngine {
    fn drop(&mut self) {
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        let into = &mut sink[self.slot];
        into.accesses += self.acc.accesses;
        into.ns += self.acc.ns;
        into.steps += self.acc.steps;
        into.llc_accesses += self.acc.llc_accesses;
        if into.levels.is_empty() {
            into.levels = std::mem::take(&mut self.acc.levels);
        }
        let room = CHARGE_SAMPLES.saturating_sub(into.charge_samples.len());
        let take = room.min(self.acc.charge_samples.len());
        into.charge_samples
            .extend(self.acc.charge_samples.drain(..take));
    }
}

/// The built-in registry with `SILO` and `baseline` replaced by timed
/// wrappers of themselves (registered as custom engines), feeding `acc`.
pub fn timed_registry(acc: &SharedAcc) -> SystemRegistry {
    let builtin = SystemRegistry::builtin();
    let mut registry = SystemRegistry::builtin();
    for (slot, name) in SYSTEMS.into_iter().enumerate() {
        let spec = builtin.get(name).expect("built-in system").clone();
        let sink = Arc::clone(acc);
        let description = format!("{} (per-access timed)", spec.description());
        registry.register(SystemSpec::new(name, description, move |cfg| {
            let inst = spec.instantiate(cfg);
            let collect_levels = slot == 0
                && sink.lock().unwrap_or_else(PoisonError::into_inner)[0]
                    .levels
                    .is_empty();
            let timed: Box<dyn Protocol> = Box::new(TimedEngine {
                inner: inst.engine,
                slot,
                acc: EngineAcc::default(),
                sink: Arc::clone(&sink),
                collect_levels,
            });
            SystemInstance {
                engine: AnyEngine::Custom(timed),
                timing: inst.timing,
            }
        }));
    }
    registry
}

fn service_level(s: ServedBy) -> ServiceLevel {
    match s {
        ServedBy::L1 => ServiceLevel::L1,
        ServedBy::L2 => ServiceLevel::L2,
        ServedBy::LocalVault => ServiceLevel::LocalVault,
        ServedBy::RemoteVault => ServiceLevel::RemoteVault,
        ServedBy::SharedLlc => ServiceLevel::SharedLlc,
        ServedBy::Memory => ServiceLevel::Memory,
    }
}

/// One reference of a workload stream, tagged with its core.
pub type Ref = (usize, MemRef);

/// Pulls `source` to exhaustion round-robin across `cores` (the order
/// the run loop consumes), calling `f` per reference; returns the count.
pub fn drain(source: &mut dyn TraceSource, cores: usize, mut f: impl FnMut(usize, MemRef)) -> u64 {
    let mut done = vec![false; cores];
    let mut live = cores;
    let mut n = 0;
    while live > 0 {
        for (core, done) in done.iter_mut().enumerate() {
            if *done {
                continue;
            }
            match source.next(core) {
                Some(mr) => {
                    f(core, mr);
                    n += 1;
                }
                None => {
                    *done = true;
                    live -= 1;
                }
            }
        }
    }
    n
}

/// Repetitions of each isolation pass; the median is reported.
const PASSES: usize = 3;

/// Median nanoseconds per operation of `PASSES` runs of `pass`, each
/// given fresh state from `fresh` and returning its operation count.
fn ns_per_op<S>(mut fresh: impl FnMut() -> S, mut pass: impl FnMut(&mut S) -> u64) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let mut state = fresh();
            let t = Instant::now();
            let ops = pass(&mut state);
            per(t.elapsed().as_nanos() as f64, ops as f64)
        })
        .collect();
    median(&samples)
}

/// Results of the SRAM cache pass.
pub struct CacheLayer {
    pub get_ns: f64,
    pub insert_ns: f64,
    pub hit_ratio: f64,
    /// The references that missed the L1s, in stream order: the stream
    /// the directory, mesh, and DRAM passes see.
    pub misses: Vec<Ref>,
}

type L1Pair = (SetAssocCache<()>, SetAssocCache<()>);

/// Private L1-I/L1-D caches per core, as `cfg` sizes them.
fn l1s(cfg: &SystemConfig) -> Vec<L1Pair> {
    let spec = cfg.node_spec;
    let mk = |cap: silo_types::ByteSize| {
        SetAssocCache::with_capacity_rounded(
            cap.scaled_down(cfg.scale),
            spec.l1_ways,
            ReplacementPolicy::Lru,
        )
    };
    (0..cfg.cores)
        .map(|_| (mk(spec.l1i_capacity), mk(spec.l1d_capacity)))
        .collect()
}

fn l1_of(pair: &mut L1Pair, kind: AccessKind) -> &mut SetAssocCache<()> {
    if matches!(kind, AccessKind::IFetch) {
        &mut pair.0
    } else {
        &mut pair.1
    }
}

/// `SetAssocCache`: a natural probe-then-fill pass gives the hit ratio
/// and the miss stream; `get` is timed over the whole stream against the
/// warmed caches, `insert` over the miss stream into empty ones.
pub fn cache_layer(cfg: &SystemConfig, stream: &[Ref]) -> CacheLayer {
    let mut warm = l1s(cfg);
    let mut misses = Vec::new();
    for &(c, mr) in stream {
        let l1 = l1_of(&mut warm[c], mr.kind);
        if l1.get(mr.line).is_none() {
            l1.insert(mr.line, ());
            misses.push((c, mr));
        }
    }
    let hit_ratio = per((stream.len() - misses.len()) as f64, stream.len() as f64);
    let get_ns = ns_per_op(
        || (),
        |()| {
            for &(c, mr) in stream {
                black_box(l1_of(&mut warm[c], mr.kind).get(mr.line).is_some());
            }
            stream.len() as u64
        },
    );
    let insert_ns = ns_per_op(
        || l1s(cfg),
        |caches| {
            for &(c, mr) in &misses {
                black_box(l1_of(&mut caches[c], mr.kind).insert(mr.line, ()));
            }
            misses.len() as u64
        },
    );
    CacheLayer {
        get_ns,
        insert_ns,
        hit_ratio,
        misses,
    }
}

/// `DuplicateTagDirectory` at the workload's node count: `set_state`
/// (M for writes, S otherwise) over the miss stream, then `lookup_view`
/// over it against the filled directory. Returns (lookup, update) ns.
pub fn directory_layer(cores: usize, misses: &[Ref]) -> (f64, f64) {
    let fill = |dir: &mut DuplicateTagDirectory| {
        for &(c, mr) in misses {
            let state = if mr.kind.is_write() {
                State::M
            } else {
                State::S
            };
            black_box(dir.set_state(mr.line, c, state));
        }
        misses.len() as u64
    };
    let update = ns_per_op(|| DuplicateTagDirectory::new(cores), fill);
    let mut filled = DuplicateTagDirectory::new(cores);
    fill(&mut filled);
    let lookup = ns_per_op(
        || (),
        |()| {
            for &(_, mr) in misses {
                black_box(filled.lookup_view(mr.line));
            }
            misses.len() as u64
        },
    );
    (lookup, update)
}

/// `Mesh::send` from each missing core to the line's home node.
pub fn noc_layer(cfg: &SystemConfig, misses: &[Ref]) -> f64 {
    ns_per_op(
        || Mesh::new(cfg.mesh_width, cfg.mesh_height, cfg.hop_cycles),
        |mesh| {
            for &(c, mr) in misses {
                let home = mesh.home_of(mr.line);
                black_box(mesh.send(NodeId(c), home));
            }
            misses.len() as u64
        },
    )
}

/// `BankArray::access` of one vault's banks for each miss, issued two
/// cycles apart.
pub fn dram_layer(cfg: &SystemConfig, misses: &[Ref]) -> f64 {
    ns_per_op(
        || BankArray::new(cfg.vault_banks, cfg.vault_access),
        |banks| {
            for (i, &(_, mr)) in misses.iter().enumerate() {
                black_box(banks.access(Cycles(2 * i as u64), mr.line));
            }
            misses.len() as u64
        },
    )
}

/// `TimingModel::charge` over the sampled LLC access results of both
/// systems, each through a fresh model of its own kind, issued twenty
/// cycles apart.
pub fn charge_ns(cfg: &SystemConfig, acc: &[EngineAcc; 2]) -> f64 {
    ns_per_op(
        || [TimingModel::silo(cfg), TimingModel::baseline(cfg)],
        |models| {
            let mut n = 0u64;
            for (model, a) in models.iter_mut().zip(acc) {
                for r in &a.charge_samples {
                    n += 1;
                    black_box(model.charge(Cycles(20 * n), r));
                }
            }
            n
        },
    )
}

/// `Timeline::record_ref` (plus `flush` at every epoch boundary) over the
/// served-level sequence of one SILO run. The latency fed is a stand-in:
/// the histogram's cost does not depend on it.
pub fn telemetry_record_ns(levels: &[ServiceLevel], epoch_refs: u64, warmup_refs: u64) -> f64 {
    let flits = vec![0u64; 64];
    ns_per_op(
        || Timeline::new(epoch_refs),
        |timeline| {
            for (i, &level) in levels.iter().enumerate() {
                let latency = (level != ServiceLevel::L1).then_some(100 + (i as u64 & 1023));
                timeline.record_ref(level, 1, latency);
                if timeline.epoch_full() {
                    timeline.flush(&EpochEnv {
                        cycles: i as u64,
                        mesh_messages: 0,
                        link_flits: &flits,
                        vault_busy_cycles: 0,
                        vault_banks: 1,
                        warmup_refs,
                    });
                }
            }
            levels.len() as u64
        },
    )
}
