//! The simulation loop: drives a protocol engine over a workload trace
//! and prices every access with a [`TimingModel`].
//!
//! Core model (Sec. V-A: in-order scale-out cores with a few MSHRs):
//! each core retires `gap_instructions` at base CPI 1 between references,
//! SRAM hits are absorbed by the pipeline, and misses overlap up to the
//! MSHR limit unless the reference is `dependent` on the previous miss
//! (pointer chasing), which serialises.
//!
//! There is one entry point, [`run`], configured by [`RunOptions`]:
//!
//! * the loop is *streaming*: it pulls references one at a time from a
//!   [`TraceSource`] — a lazy synthetic generator, a `.silotrace` file
//!   reader, or an in-memory [`silo_trace::SliceTrace`] — so trace
//!   length is bounded by disk, not RAM;
//! * [`RunOptions::meter`] drives the telemetry subsystem: a
//!   [`MeterConfig`] warmup window resets the measurement aggregates
//!   mid-run (cache, directory, and bank-timing state are preserved) and
//!   an epoch [`silo_telemetry::Timeline`] samples IPC, served-by-level
//!   counts, LLC latency percentiles, mesh link utilization, and vault
//!   occupancy every `epoch_refs` references;
//! * [`RunOptions::mode`] selects the plain loop, the run-time invariant
//!   oracle ([`RunMode::Checked`]) or the hot-loop self-profiler
//!   ([`RunMode::Profiled`]), all bit-identical in their results.
//!
//! [`crate::registry::run_system`] is the same call for a registered
//! [`crate::SystemSpec`]: it instantiates the system and labels the row
//! with the registry name.

use crate::config::SystemConfig;
use crate::timing::{TimingModel, TimingProbe, TIMING_SUBPHASES, TP_MSHR};
use silo_coherence::{
    AccessResult, CoherenceStats, EngineProbe, PrivateMoesi, PrivateMoesiConfig, ServedBy,
    SharedMesi, SharedMesiConfig, ENGINE_SUBPHASES, EP_DIR,
};
use silo_obs::{Lap, PhaseProfile};
use silo_telemetry::{EpochEnv, MeterConfig, Recorder, ServiceLevel, Telemetry, Timeline};
use silo_trace::TraceSource;
use silo_types::stats::{ratio, Counter, Histogram};
use silo_types::{Cycles, MemRef};
use std::num::NonZeroU64;
use std::time::Instant;

/// A protocol engine the simulation loop can drive. Object-safe, so the
/// system registry can hand out `Box<dyn Protocol>` factories.
pub trait Protocol {
    /// Executes one reference from `core`.
    fn access(&mut self, core: usize, mr: MemRef) -> AccessResult;
    /// Executes one reference, writing into a caller-owned result so a
    /// hot loop can reuse the step buffers across accesses. The default
    /// delegates to [`Protocol::access`]; the built-in engines override
    /// it with their allocation-free paths.
    fn access_into(&mut self, core: usize, mr: MemRef, out: &mut AccessResult) {
        *out = self.access(core, mr);
    }
    /// [`Protocol::access_into`] with sub-phase wall-clock attribution
    /// for the profiled run path: the engine laps its internal segments
    /// (lookup, directory, fill, writeback) into `probe` as it goes.
    /// The default attributes the whole access to the directory bucket,
    /// so custom engines still show up in the profile tree without
    /// implementing lap placement.
    fn access_into_probed(
        &mut self,
        core: usize,
        mr: MemRef,
        out: &mut AccessResult,
        probe: &mut EngineProbe,
    ) {
        probe.begin();
        self.access_into(core, mr, out);
        probe.lap(EP_DIR);
    }
    /// Hints that `core` will access `line` shortly (the run loop issues
    /// this one round-robin turn ahead of the matching
    /// [`Protocol::access_into`]). Implementations may warm host-side
    /// caches but must not change any observable simulation state.
    fn prefetch(&self, core: usize, mr: MemRef) {
        let _ = (core, mr);
    }
    /// Display name of the system.
    fn system_name(&self) -> &str;
    /// The engine's coherence event counters.
    fn coherence_stats(&self) -> CoherenceStats;
    /// Zeroes the coherence event counters without touching protocol
    /// state (the warmup/measurement boundary).
    fn reset_coherence_stats(&mut self);
    /// Verifies the engine's structural invariants (directory caches,
    /// cache/directory agreement, occupancy). Called by the `--check`
    /// oracle; the default accepts everything so custom engines opt in.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

impl Protocol for PrivateMoesi {
    fn access(&mut self, core: usize, mr: MemRef) -> AccessResult {
        PrivateMoesi::access(self, core, mr)
    }
    #[inline]
    fn access_into(&mut self, core: usize, mr: MemRef, out: &mut AccessResult) {
        PrivateMoesi::access_into(self, core, mr, out);
    }
    #[inline]
    fn access_into_probed(
        &mut self,
        core: usize,
        mr: MemRef,
        out: &mut AccessResult,
        probe: &mut EngineProbe,
    ) {
        PrivateMoesi::access_into_probed(self, core, mr, out, probe);
    }
    #[inline]
    fn prefetch(&self, core: usize, mr: MemRef) {
        self.prefetch_hint(core, mr.line);
    }
    fn system_name(&self) -> &str {
        "SILO"
    }
    fn coherence_stats(&self) -> CoherenceStats {
        self.stats()
    }
    fn reset_coherence_stats(&mut self) {
        self.reset_stats();
    }
    fn check_invariants(&self) -> Result<(), String> {
        self.check()
    }
}

impl Protocol for SharedMesi {
    fn access(&mut self, core: usize, mr: MemRef) -> AccessResult {
        SharedMesi::access(self, core, mr)
    }
    #[inline]
    fn access_into(&mut self, core: usize, mr: MemRef, out: &mut AccessResult) {
        SharedMesi::access_into(self, core, mr, out);
    }
    #[inline]
    fn access_into_probed(
        &mut self,
        core: usize,
        mr: MemRef,
        out: &mut AccessResult,
        probe: &mut EngineProbe,
    ) {
        SharedMesi::access_into_probed(self, core, mr, out, probe);
    }
    #[inline]
    fn prefetch(&self, _core: usize, mr: MemRef) {
        self.prefetch_hint(mr.line);
    }
    fn system_name(&self) -> &str {
        "baseline"
    }
    fn coherence_stats(&self) -> CoherenceStats {
        self.stats()
    }
    fn reset_coherence_stats(&mut self) {
        self.reset_stats();
    }
    fn check_invariants(&self) -> Result<(), String> {
        self.check()
    }
}

/// The engine holder the registry instantiates: built-in systems get
/// concrete variants, so driving one through
/// [`run`]`::<AnyEngine>` turns the per-reference
/// `access` call into a direct (inlinable) match arm instead of a
/// vtable dispatch. User-registered engines keep the boxed fallback —
/// one match + one virtual call, no slower than the old all-dyn path.
pub enum AnyEngine {
    /// The SILO private-vault MOESI engine (either forwarding variant).
    Silo(PrivateMoesi),
    /// The shared-LLC MESI baseline (any capacity).
    Baseline(SharedMesi),
    /// A user-registered engine behind dynamic dispatch.
    Custom(Box<dyn Protocol>),
}

/// Forwards one [`Protocol`] call to the engine an [`AnyEngine`] holds:
/// a direct call for the built-in variants, a virtual one for `Custom`.
macro_rules! dispatch {
    ($self:expr, $e:ident => $call:expr) => {
        match $self {
            AnyEngine::Silo($e) => $call,
            AnyEngine::Baseline($e) => $call,
            AnyEngine::Custom($e) => $call,
        }
    };
}

impl Protocol for AnyEngine {
    #[inline]
    fn access(&mut self, core: usize, mr: MemRef) -> AccessResult {
        dispatch!(self, e => e.access(core, mr))
    }
    #[inline]
    fn access_into(&mut self, core: usize, mr: MemRef, out: &mut AccessResult) {
        dispatch!(self, e => e.access_into(core, mr, out));
    }
    #[inline]
    fn access_into_probed(
        &mut self,
        core: usize,
        mr: MemRef,
        out: &mut AccessResult,
        probe: &mut EngineProbe,
    ) {
        dispatch!(self, e => e.access_into_probed(core, mr, out, probe));
    }
    #[inline]
    fn prefetch(&self, core: usize, mr: MemRef) {
        dispatch!(self, e => e.prefetch(core, mr));
    }
    fn system_name(&self) -> &str {
        dispatch!(self, e => e.system_name())
    }
    fn coherence_stats(&self) -> CoherenceStats {
        dispatch!(self, e => e.coherence_stats())
    }
    fn reset_coherence_stats(&mut self) {
        dispatch!(self, e => e.reset_coherence_stats());
    }
    fn check_invariants(&self) -> Result<(), String> {
        dispatch!(self, e => e.check_invariants())
    }
}

impl From<PrivateMoesi> for AnyEngine {
    fn from(e: PrivateMoesi) -> Self {
        AnyEngine::Silo(e)
    }
}

impl From<SharedMesi> for AnyEngine {
    fn from(e: SharedMesi) -> Self {
        AnyEngine::Baseline(e)
    }
}

impl From<Box<dyn Protocol>> for AnyEngine {
    fn from(e: Box<dyn Protocol>) -> Self {
        AnyEngine::Custom(e)
    }
}

/// Phase labels of the hot-loop self-profiler, in index order: trace
/// pull (source + prefetch hint), engine step (`access_into`), timing
/// (MSHR bookkeeping + `TimingModel::charge`), and telemetry (epoch
/// sampling; zero samples when the meter is disabled).
pub const PROFILE_PHASES: [&str; 4] = ["trace_pull", "engine_step", "timing", "telemetry"];

/// Index of `trace_pull` in [`PROFILE_PHASES`].
const PH_TRACE: usize = 0;
/// Index of `engine_step` in [`PROFILE_PHASES`].
const PH_ENGINE: usize = 1;
/// Index of `timing` in [`PROFILE_PHASES`].
const PH_TIMING: usize = 2;
/// Index of `telemetry` in [`PROFILE_PHASES`].
const PH_TELEMETRY: usize = 3;

/// Index of the first engine sub-phase in the profiled phase tree (the
/// [`ENGINE_SUBPHASES`] buckets, children of `engine_step`).
const PH_ENGINE_CHILD0: usize = PROFILE_PHASES.len();
/// Index of the first timing sub-phase in the profiled phase tree (the
/// [`TIMING_SUBPHASES`] buckets, children of `timing`).
const PH_TIMING_CHILD0: usize = PH_ENGINE_CHILD0 + ENGINE_SUBPHASES.len();

/// The profiled run's full phase tree: the four [`PROFILE_PHASES`]
/// roots, then the [`ENGINE_SUBPHASES`] as children of `engine_step`,
/// then the [`TIMING_SUBPHASES`] as children of `timing`. Each
/// sub-phase group tiles its parent exactly — the lap probes take one
/// clock read per segment boundary, so children sum to the parent by
/// construction.
pub fn profile_phase_tree() -> Vec<(&'static str, Option<usize>)> {
    let mut tree: Vec<(&'static str, Option<usize>)> =
        PROFILE_PHASES.iter().map(|&l| (l, None)).collect();
    tree.extend(ENGINE_SUBPHASES.iter().map(|&l| (l, Some(PH_ENGINE))));
    tree.extend(TIMING_SUBPHASES.iter().map(|&l| (l, Some(PH_TIMING))));
    tree
}

/// Nanoseconds since `t`, saturating at `u64::MAX`.
#[inline]
fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The telemetry-side service-level tag of a coherence classification.
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

/// Builds the SILO engine for a config (the registry factories of both
/// SILO variants).
pub(crate) fn silo_engine(cfg: &SystemConfig, o_state_forwarding: bool) -> PrivateMoesi {
    PrivateMoesi::new(
        cfg.cores,
        &PrivateMoesiConfig {
            node_spec: cfg.node_spec,
            vault_capacity: cfg.vault_capacity,
            scale: cfg.scale,
            ideal_miss_predict: cfg.ideal_miss_predict,
            o_state_forwarding,
        },
    )
}

/// Builds the shared-LLC baseline engine for a config (the registry
/// factories of both baseline variants).
pub(crate) fn baseline_engine(cfg: &SystemConfig) -> SharedMesi {
    SharedMesi::new(
        cfg.cores,
        &SharedMesiConfig {
            node_spec: cfg.node_spec,
            llc_capacity: cfg.llc_capacity,
            llc_ways: cfg.llc_ways,
            scale: cfg.scale,
        },
    )
}

/// Per-service-level access counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServedCounts {
    /// L1 hits.
    pub l1: Counter,
    /// Private L2 hits.
    pub l2: Counter,
    /// Local-vault hits (SILO).
    pub local_vault: Counter,
    /// Remote-vault forwards (SILO).
    pub remote_vault: Counter,
    /// Shared-LLC hits including directory forwards (baseline).
    pub shared_llc: Counter,
    /// Main-memory accesses.
    pub memory: Counter,
}

impl ServedCounts {
    fn record(&mut self, s: ServedBy) {
        match s {
            ServedBy::L1 => self.l1.inc(),
            ServedBy::L2 => self.l2.inc(),
            ServedBy::LocalVault => self.local_vault.inc(),
            ServedBy::RemoteVault => self.remote_vault.inc(),
            ServedBy::SharedLlc => self.shared_llc.inc(),
            ServedBy::Memory => self.memory.inc(),
        }
    }

    /// Total classified accesses.
    pub fn total(&self) -> u64 {
        self.l1.get()
            + self.l2.get()
            + self.local_vault.get()
            + self.remote_vault.get()
            + self.shared_llc.get()
            + self.memory.get()
    }

    /// Fraction of accesses served at the given level.
    pub fn fraction(&self, s: ServedBy) -> f64 {
        let n = match s {
            ServedBy::L1 => self.l1.get(),
            ServedBy::L2 => self.l2.get(),
            ServedBy::LocalVault => self.local_vault.get(),
            ServedBy::RemoteVault => self.remote_vault.get(),
            ServedBy::SharedLlc => self.shared_llc.get(),
            ServedBy::Memory => self.memory.get(),
        };
        ratio(n, self.total())
    }
}

/// Aggregated results of one (system, workload) run.
///
/// `PartialEq` compares every simulated field, so tests can assert two
/// runs are bit-identical (e.g. dyn-dispatch vs. concrete-type paths).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Registry name of the system ("SILO", "baseline", or a variant).
    pub system: String,
    /// Workload name (preset name or the custom spec string).
    pub workload: String,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Makespan: the slowest core's finish cycle.
    pub cycles: Cycles,
    /// Per-level service counts.
    pub served: ServedCounts,
    /// Accesses that missed all SRAM levels (the paper's "LLC accesses").
    pub llc_accesses: u64,
    /// Critical-path latency distribution of LLC accesses.
    pub llc_latency: Histogram,
    /// Mesh messages sent.
    pub mesh_messages: u64,
    /// Total hops traversed by those messages.
    pub mesh_total_hops: u64,
    /// Flits carried by the busiest mesh link.
    pub mesh_max_link_flits: u64,
}

impl RunStats {
    /// Aggregate instructions per cycle (throughput over the makespan).
    pub fn ipc(&self) -> f64 {
        ratio(self.instructions, self.cycles.as_u64().max(1))
    }

    /// Mean critical-path latency of an LLC access, in cycles.
    pub fn mean_llc_latency(&self) -> f64 {
        self.llc_latency.mean()
    }

    /// Mean hops per mesh message (interconnect pressure, Sec. V-D).
    pub fn avg_hops(&self) -> f64 {
        ratio(self.mesh_total_hops, self.mesh_messages)
    }
}

/// A core's MSHR file: the completion times of its outstanding misses,
/// in a fixed-capacity inline buffer sized by `cfg.mlp` so the
/// per-miss path never allocates. Entries are an unordered multiset —
/// the stall rules below depend only on the completion-time *values*
/// (drop everything `<= issue`, stall to the minimum when full), so
/// removal is swap-with-last and the results stay bit-identical to the
/// old growable-`Vec` bookkeeping.
#[derive(Clone, Debug)]
struct Mshrs {
    done: Box<[Cycles]>,
    len: usize,
}

impl Mshrs {
    fn new(mlp: usize) -> Self {
        Mshrs {
            done: vec![Cycles::ZERO; mlp].into_boxed_slice(),
            len: 0,
        }
    }

    /// Retires every miss completed by the issue point.
    #[inline]
    fn drop_completed(&mut self, issue: Cycles) {
        let mut i = 0;
        while i < self.len {
            if self.done[i] <= issue {
                self.len -= 1;
                self.done[i] = self.done[self.len];
            } else {
                i += 1;
            }
        }
    }

    /// Frees a slot for the next miss: while every MSHR is busy, stall
    /// to the earliest-completing one and retire it (not the
    /// oldest-issued — a slow memory access must not pin MSHRs that
    /// vault hits have already vacated). Returns the possibly-delayed
    /// issue time.
    #[inline]
    fn acquire(&mut self, mut issue: Cycles) -> Cycles {
        while self.len >= self.done.len() {
            let mut idx = 0;
            for j in 1..self.len {
                if self.done[j] < self.done[idx] {
                    idx = j;
                }
            }
            issue = issue.max(self.done[idx]);
            self.len -= 1;
            self.done[idx] = self.done[self.len];
        }
        issue
    }

    /// Records a newly issued miss. Call only after [`Mshrs::acquire`],
    /// which guarantees a free slot.
    #[inline]
    fn push(&mut self, done: Cycles) {
        self.done[self.len] = done;
        self.len += 1;
    }
}

/// One core's in-flight state.
#[derive(Clone, Debug)]
struct CoreState {
    /// Retirement cursor (compute cycles consumed so far).
    cursor: Cycles,
    /// Outstanding misses (unordered; completions are not monotonic
    /// across banks and memory).
    mshrs: Mshrs,
    /// Completion of the most recent miss (dependency target).
    last_miss: Cycles,
    /// Latest completion seen (finish time candidate).
    finish: Cycles,
    instructions: u64,
}

impl CoreState {
    fn new(mlp: usize) -> Self {
        CoreState {
            cursor: Cycles::ZERO,
            mshrs: Mshrs::new(mlp),
            last_miss: Cycles::ZERO,
            finish: Cycles::ZERO,
            instructions: 0,
        }
    }
}

/// The two views of the LLC critical-path latency distribution, filled
/// by a single recording call per miss: the fixed-width histogram
/// reported in [`RunStats::llc_latency`] and the log2 histogram
/// exported through the telemetry recorder.
struct LatencyHists {
    linear: Histogram,
    log: Histogram,
}

impl LatencyHists {
    fn new() -> Self {
        LatencyHists {
            linear: Histogram::new(16, 64),
            log: Histogram::log2(),
        }
    }

    #[inline]
    fn record(&mut self, lat: u64) {
        self.linear.record(lat);
        self.log.record(lat);
    }

    fn reset(&mut self) {
        self.linear.reset();
        self.log.reset();
    }
}

/// The slowest core's current position: the makespan so far.
fn makespan(cores: &[CoreState]) -> Cycles {
    cores
        .iter()
        .map(|c| c.finish.max(c.cursor))
        .max()
        .unwrap_or(Cycles::ZERO)
}

/// Cumulative counter values at the warmup boundary; the measurement
/// window reports everything as a delta against these (shared timing
/// resources cannot simply be reset — that would discard bank
/// reservations and change the simulation).
#[derive(Clone, Debug, Default)]
struct MeasureBase {
    instructions: u64,
    cycles: u64,
    mesh_messages: u64,
    mesh_hops: u64,
    link_flits: Vec<u64>,
    vault_busy: u64,
    memory_accesses: u64,
}

/// The cumulative environment snapshot handed to the timeline at an
/// epoch boundary.
fn epoch_env<'a>(
    cores: &[CoreState],
    timing: &'a TimingModel,
    meter: &MeterConfig,
) -> EpochEnv<'a> {
    EpochEnv {
        cycles: makespan(cores).as_u64(),
        mesh_messages: timing.mesh().messages(),
        link_flits: timing.mesh().link_flits(),
        vault_busy_cycles: timing.vault_busy_cycles(),
        vault_banks: timing.vault_banks_total(),
        warmup_refs: meter.warmup_refs,
    }
}

/// How [`run`] drives the loop. All modes return bit-identical
/// statistics and telemetry for the same reference stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RunMode {
    /// The hot loop alone: oracle and profiler compiled out.
    #[default]
    Plain,
    /// The run-time invariant oracle (`--check N`): every `N` references
    /// it replays the engine's invariants and the loop's cross-layer
    /// assertions, and aborts on the first violation.
    Checked(NonZeroU64),
    /// The hot-loop self-profiler (`--profile`): wall-clock samples of
    /// the [`PROFILE_PHASES`], split into the [`profile_phase_tree`]
    /// sub-phases by lap probes.
    Profiled,
}

/// Everything [`run`] needs beyond the engine, timing model and source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Warmup window and epoch sampling (disabled by default).
    pub meter: MeterConfig,
    /// Plain, checked or profiled.
    pub mode: RunMode,
}

/// The results of one [`run`].
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The simulated statistics of the measurement window.
    pub stats: RunStats,
    /// Named counters, latency histograms and the epoch timeline.
    pub telemetry: Telemetry,
    /// The hierarchical phase profile, present only under
    /// [`RunMode::Profiled`].
    pub profile: Option<PhaseProfile>,
}

/// Drives `engine` over `source` and prices every access with `timing`:
/// the one entry point of the simulation loop.
///
/// Cores are interleaved round-robin — one reference per live core per
/// turn — until every stream is exhausted, so replay memory stays
/// bounded by the reader's buffer. Slice-based callers wrap their traces
/// in [`SliceTrace::new`](silo_trace::SliceTrace::new). `opts.mode`
/// picks one of three monomorphizations of the loop; the plain one has
/// every check and clock read compiled out.
///
/// # Errors
///
/// Only under [`RunMode::Checked`]: the first invariant violation,
/// prefixed with the number of references processed when it was
/// detected. A violation indicates a simulator bug.
pub fn run<P: Protocol + ?Sized>(
    engine: &mut P,
    timing: &mut TimingModel,
    cfg: &SystemConfig,
    workload_name: &str,
    source: &mut dyn TraceSource,
    opts: &RunOptions,
) -> Result<RunOutput, String> {
    let meter = &opts.meter;
    match opts.mode {
        RunMode::Plain => {
            run_core::<P, false, false>(engine, timing, cfg, workload_name, source, meter, 0)
        }
        RunMode::Checked(every) => run_core::<P, true, false>(
            engine,
            timing,
            cfg,
            workload_name,
            source,
            meter,
            every.get(),
        ),
        RunMode::Profiled => {
            run_core::<P, false, true>(engine, timing, cfg, workload_name, source, meter, 0)
        }
    }
}

/// Ends the warmup window: zeroes the measurement aggregates and takes
/// counter baselines for the shared resources, but leaves caches,
/// directories, and bank reservations as they are. Executes at most
/// once per run.
fn end_warmup<P: Protocol + ?Sized>(
    engine: &mut P,
    timing: &TimingModel,
    cores: &[CoreState],
    served: &mut ServedCounts,
    llc_accesses: &mut u64,
    llc: &mut LatencyHists,
) -> MeasureBase {
    *served = ServedCounts::default();
    *llc_accesses = 0;
    llc.reset();
    engine.reset_coherence_stats();
    MeasureBase {
        instructions: cores.iter().map(|c| c.instructions).sum(),
        cycles: makespan(cores).as_u64(),
        mesh_messages: timing.mesh().messages(),
        mesh_hops: timing.mesh().total_hops(),
        link_flits: timing.mesh().link_flits().to_vec(),
        vault_busy: timing.vault_busy_cycles(),
        memory_accesses: timing.memory_accesses(),
    }
}

/// Cumulative-counter snapshot the `--check` oracle compares against:
/// these counters are monotone by construction (never reset, not even at
/// the warmup boundary — the measurement window subtracts a baseline
/// instead), so any decrease means corrupted accounting.
#[derive(Clone, Copy, Debug, Default)]
struct OracleBase {
    mesh_messages: u64,
    mesh_hops: u64,
    memory_accesses: u64,
    vault_busy: u64,
}

impl OracleBase {
    fn capture(timing: &TimingModel) -> Self {
        OracleBase {
            mesh_messages: timing.mesh().messages(),
            mesh_hops: timing.mesh().total_hops(),
            memory_accesses: timing.memory_accesses(),
            vault_busy: timing.vault_busy_cycles(),
        }
    }
}

/// One oracle sweep: the engine's own structural invariants, the MSHR
/// occupancy bound, and monotonicity of the cumulative timing counters.
/// `#[cold]` keeps it off the hot loop's inlining budget — with
/// checking disabled the call site is compiled out entirely.
#[cold]
fn oracle_sweep<P: Protocol + ?Sized>(
    engine: &P,
    timing: &TimingModel,
    cores: &[CoreState],
    mlp: usize,
    processed: u64,
    prev: &mut OracleBase,
) -> Result<(), String> {
    engine
        .check_invariants()
        .map_err(|e| format!("after {processed} refs: {e}"))?;
    for (c, core) in cores.iter().enumerate() {
        if core.mshrs.len > mlp {
            return Err(format!(
                "after {processed} refs: core {c} holds {} in-flight misses, MSHR limit {mlp}",
                core.mshrs.len
            ));
        }
    }
    let cur = OracleBase::capture(timing);
    let monotone = [
        ("mesh messages", prev.mesh_messages, cur.mesh_messages),
        ("mesh hops", prev.mesh_hops, cur.mesh_hops),
        ("memory accesses", prev.memory_accesses, cur.memory_accesses),
        ("vault busy cycles", prev.vault_busy, cur.vault_busy),
    ];
    for (name, before, now) in monotone {
        if now < before {
            return Err(format!(
                "after {processed} refs: cumulative {name} went backwards ({before} -> {now})"
            ));
        }
    }
    *prev = cur;
    Ok(())
}

/// The loop behind [`run`]. `CHECKED` and `PROFILED` are const
/// generics so the oracle branch and the profiler's clock reads vanish
/// from the monomorphizations that don't use them instead of costing a
/// per-reference test. Only three monomorphizations exist per engine
/// type, one per [`RunMode`] (the builder rejects combining `--check`
/// with `--profile` — the oracle sweep would dominate the phase
/// timings). `check_every` is read only when `CHECKED`.
fn run_core<P: Protocol + ?Sized, const CHECKED: bool, const PROFILED: bool>(
    engine: &mut P,
    timing: &mut TimingModel,
    cfg: &SystemConfig,
    workload_name: &str,
    source: &mut dyn TraceSource,
    meter: &MeterConfig,
    check_every: u64,
) -> Result<RunOutput, String> {
    let mut profile = PhaseProfile::with_tree(&profile_phase_tree());
    let mut cores: Vec<CoreState> = (0..cfg.cores).map(|_| CoreState::new(cfg.mlp)).collect();
    let mut served = ServedCounts::default();
    let mut llc_accesses = 0u64;
    let mut llc = LatencyHists::new();
    let mut timeline = Timeline::new(meter.epoch_refs.unwrap_or(0));
    if let Some(refs) = source.len_hint() {
        timeline.reserve_for(refs);
    }
    let mut base = MeasureBase::default();
    let mut processed = 0u64;
    let mut warmup_pending = meter.warmup_refs > 0;
    let mut oracle = OracleBase::capture(timing);
    // Hoisted once: a disabled timeline skips the per-reference
    // recording calls entirely, so the un-metered path touches no epoch
    // state inside the loop.
    let sampling = timeline.enabled();
    // One result buffer for the whole run: the engines write into it via
    // `access_into`, reusing the step vectors instead of allocating two
    // per reference.
    let mut res = AccessResult::default();
    // Lap probes for the profiled path: the engine laps its internal
    // segments, the timing phase laps mesh/bank/MSHR work. Folded into
    // `profile` once after the loop; untouched (and compiled out of the
    // hot path) when PROFILED is false.
    let mut eprobe = EngineProbe::new();
    let mut tprobe = TimingProbe::new();

    let mut exhausted = vec![false; cfg.cores];
    let mut live = cfg.cores;
    // Two-phase rounds: pull one reference per live core first (issuing
    // the engine's host-cache prefetch hint for each), then execute the
    // round in the same core order. Per-core streams are independent, so
    // batching the pulls changes neither any stream nor the execution
    // order — only how far ahead of its access each prefetch lands.
    let mut round: Vec<(usize, MemRef)> = Vec::with_capacity(cfg.cores);
    while live > 0 {
        round.clear();
        let t = PROFILED.then(Instant::now);
        for (c, done) in exhausted.iter_mut().enumerate() {
            if *done {
                continue;
            }
            match source.next(c) {
                Some(mr) => {
                    engine.prefetch(c, mr);
                    round.push((c, mr));
                }
                None => {
                    *done = true;
                    live -= 1;
                }
            }
        }
        if let Some(t) = t {
            profile.add(PH_TRACE, elapsed_ns(t));
        }
        for &(c, mr) in &round {
            // The reference instruction itself retires too: charge
            // `gap + 1` cycles to match the `gap + 1` instructions, or a
            // hit-only trace would report IPC above the base-CPI-1 ceiling.
            let instructions = mr.gap_instructions as u64 + 1;
            let mut latency = None;
            let served_by;
            {
                let core = &mut cores[c];
                core.instructions += instructions;
                core.cursor += Cycles(instructions);

                if PROFILED {
                    engine.access_into_probed(c, mr, &mut res, &mut eprobe);
                } else {
                    engine.access_into(c, mr, &mut res);
                }
                served_by = res.served_by();
                served.record(served_by);
                if PROFILED {
                    tprobe.begin();
                }
                if !res.llc_access {
                    // SRAM hit: absorbed by the pipeline at base CPI.
                    core.finish = core.finish.max(core.cursor);
                    if PROFILED {
                        tprobe.lap(TP_MSHR);
                    }
                } else {
                    llc_accesses += 1;

                    // Issue time: dependent misses wait for the previous
                    // miss; independent ones only wait for a free MSHR.
                    let issue = if mr.dependent {
                        core.cursor.max(core.last_miss)
                    } else {
                        core.cursor
                    };
                    core.mshrs.drop_completed(issue);
                    let issue = core.mshrs.acquire(issue);
                    if PROFILED {
                        tprobe.lap(TP_MSHR);
                    }

                    let done = if PROFILED {
                        timing.charge_probed(issue, &res, &mut tprobe)
                    } else {
                        timing.charge(issue, &res)
                    };
                    let lat = (done - issue).as_u64();
                    llc.record(lat);
                    latency = Some(lat);
                    core.mshrs.push(done);
                    core.last_miss = done;
                    core.finish = core.finish.max(done);
                    if mr.dependent {
                        // The pipeline stalls behind a serialised miss.
                        core.cursor = core.cursor.max(done);
                    }
                    if PROFILED {
                        tprobe.lap(TP_MSHR);
                    }
                }
            }

            processed += 1;
            if CHECKED && processed % check_every == 0 {
                oracle_sweep(&*engine, timing, &cores, cfg.mlp, processed, &mut oracle)?;
            }
            if sampling {
                let t = PROFILED.then(Instant::now);
                timeline.record_ref(service_level(served_by), instructions, latency);
                if timeline.epoch_full() {
                    timeline.flush(&epoch_env(&cores, timing, meter));
                }
                if let Some(t) = t {
                    profile.add(PH_TELEMETRY, elapsed_ns(t));
                }
            }
            if warmup_pending && processed >= meter.warmup_refs {
                warmup_pending = false;
                base = end_warmup(
                    &mut *engine,
                    timing,
                    &cores,
                    &mut served,
                    &mut llc_accesses,
                    &mut llc,
                );
            }
        }
    }
    if warmup_pending {
        // The warmup window swallowed the whole trace: still perform the
        // reset so the measurement window is consistently empty instead
        // of silently reporting cold-start full-run numbers.
        base = end_warmup(
            &mut *engine,
            timing,
            &cores,
            &mut served,
            &mut llc_accesses,
            &mut llc,
        );
    }
    timeline.finish(&epoch_env(&cores, timing, meter));

    if PROFILED {
        // Fold the lap-probe buckets into the hierarchical profile: each
        // child gets its accumulated bucket, each parent the probe's
        // total — so children sum to the parent exactly, and the parent
        // sample count is the number of probed calls (one per access).
        for (i, (&ns, &n)) in eprobe.nanos().iter().zip(eprobe.samples()).enumerate() {
            profile.add_bulk(PH_ENGINE_CHILD0 + i, ns, n);
        }
        profile.add_bulk(PH_ENGINE, eprobe.total_nanos(), eprobe.calls());
        for (i, (&ns, &n)) in tprobe.nanos().iter().zip(tprobe.samples()).enumerate() {
            profile.add_bulk(PH_TIMING_CHILD0 + i, ns, n);
        }
        profile.add_bulk(PH_TIMING, tprobe.total_nanos(), tprobe.calls());
    }

    let mesh = timing.mesh();
    let mesh_messages = mesh.messages() - base.mesh_messages;
    let mesh_total_hops = mesh.total_hops() - base.mesh_hops;
    let mesh_max_link_flits = mesh
        .link_flits()
        .iter()
        .enumerate()
        .map(|(l, &f)| f - base.link_flits.get(l).copied().unwrap_or(0))
        .max()
        .unwrap_or(0);
    let stats = RunStats {
        system: engine.system_name().to_string(),
        workload: workload_name.to_string(),
        instructions: cores.iter().map(|c| c.instructions).sum::<u64>() - base.instructions,
        cycles: Cycles(makespan(&cores).as_u64() - base.cycles),
        served,
        llc_accesses,
        llc_latency: llc.linear,
        mesh_messages,
        mesh_total_hops,
        mesh_max_link_flits,
    };

    let cs = engine.coherence_stats();
    let mut recorder = Recorder::new();
    recorder.set("invalidations", cs.invalidations.get());
    recorder.set("o_state_forwards", cs.o_state_forwards.get());
    recorder.set("directory_evictions", cs.directory_evictions.get());
    recorder.set("upgrades", cs.upgrades.get());
    recorder.set("dirty_writebacks", cs.dirty_writebacks.get());
    recorder.set("mesh_messages", mesh_messages);
    recorder.set("mesh_total_hops", mesh_total_hops);
    recorder.set("mesh_max_link_flits", mesh_max_link_flits);
    recorder.set(
        "memory_accesses",
        timing.memory_accesses() - base.memory_accesses,
    );
    recorder.set(
        "vault_busy_cycles",
        timing.vault_busy_cycles() - base.vault_busy,
    );
    *recorder.histogram("llc_latency") = llc.log;
    let telemetry = Telemetry {
        meter: *meter,
        recorder,
        timeline,
    };
    Ok(RunOutput {
        stats,
        telemetry,
        profile: PROFILED.then_some(profile),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use silo_trace::SliceTrace;

    /// [`run`] of the built-in SILO (`silo`) or baseline engine over
    /// `source`.
    fn run_on(
        silo: bool,
        cfg: &SystemConfig,
        source: &mut dyn TraceSource,
        opts: &RunOptions,
    ) -> RunOutput {
        let (mut engine, mut timing): (AnyEngine, _) = if silo {
            (silo_engine(cfg, true).into(), TimingModel::silo(cfg))
        } else {
            (baseline_engine(cfg).into(), TimingModel::baseline(cfg))
        };
        run(&mut engine, &mut timing, cfg, "t", source, opts).expect("clean run")
    }

    fn stats_of(silo: bool, cfg: &SystemConfig, spec: &WorkloadSpec, seed: u64) -> RunStats {
        let mut source = spec.source(cfg.cores, cfg.scale, seed).expect("source");
        run_on(silo, cfg, &mut *source, &RunOptions::default()).stats
    }

    /// SILO over a trace where every core hammers one private line,
    /// 5000 times.
    fn hit_only_stats(cfg: &SystemConfig) -> RunStats {
        use silo_types::{AccessKind, LineAddr};
        let traces: Vec<Vec<MemRef>> = (0..cfg.cores)
            .map(|c| {
                let line = LineAddr::new(((c as u64 + 1) << 32) | 1);
                let mr = MemRef {
                    line,
                    kind: AccessKind::Read,
                    gap_instructions: 3,
                    dependent: false,
                };
                vec![mr; 5_000]
            })
            .collect();
        let opts = RunOptions::default();
        run_on(true, cfg, &mut SliceTrace::new(&traces), &opts).stats
    }

    fn quick_spec() -> WorkloadSpec {
        WorkloadSpec {
            refs_per_core: 2_000,
            ..WorkloadSpec::uniform_private()
        }
    }

    fn quick_cfg() -> SystemConfig {
        SystemConfig::paper_16core().with_cores(4)
    }

    #[test]
    fn silo_run_produces_consistent_stats() {
        let s = stats_of(true, &quick_cfg(), &quick_spec(), 1);
        assert_eq!(s.system, "SILO");
        assert!(s.instructions > 0);
        assert!(s.cycles > Cycles::ZERO);
        assert!(s.ipc() > 0.0);
        assert_eq!(s.served.total(), 4 * 2_000);
        assert_eq!(s.llc_latency.count(), s.llc_accesses);
        assert!(s.served.local_vault.get() > 0, "vault must serve accesses");
    }

    #[test]
    fn baseline_run_uses_llc_not_vaults() {
        let s = stats_of(false, &quick_cfg(), &quick_spec(), 1);
        assert_eq!(s.system, "baseline");
        assert_eq!(s.served.local_vault.get(), 0);
        assert_eq!(s.served.remote_vault.get(), 0);
        assert!(s.served.shared_llc.get() + s.served.memory.get() > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = stats_of(true, &quick_cfg(), &quick_spec(), 9);
        let b = stats_of(true, &quick_cfg(), &quick_spec(), 9);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.llc_accesses, b.llc_accesses);
    }

    #[test]
    fn both_systems_count_the_same_llc_accesses() {
        // Same SRAM geometry and the same trace: the engines agree on
        // which accesses left the SRAM levels up to the two documented
        // divergence sources (vault conflict back-invalidations and
        // upgrade decisions after L1 evictions of shared lines), so a
        // random workload matches only approximately. Exact equality on
        // a divergence-free trace is covered by the integration test
        // `both_engines_agree_on_llc_access_counts`.
        let cfg = quick_cfg();
        let spec = quick_spec();
        let a = stats_of(true, &cfg, &spec, 3);
        let b = stats_of(false, &cfg, &spec, 3);
        let diff = a.llc_accesses.abs_diff(b.llc_accesses) as f64;
        assert!(
            diff / b.llc_accesses as f64 <= 0.01,
            "LLC access counts diverged: {} vs {}",
            a.llc_accesses,
            b.llc_accesses
        );
    }

    #[test]
    fn silo_beats_baseline_on_vault_friendly_workload() {
        // The private working set dwarfs the baseline's scaled LLC but
        // fits the vault: SILO must win (the paper's Fig. 11 direction).
        let cfg = quick_cfg();
        let spec = quick_spec();
        let silo = stats_of(true, &cfg, &spec, 7);
        let base = stats_of(false, &cfg, &spec, 7);
        assert!(
            silo.ipc() > base.ipc(),
            "SILO {} <= baseline {}",
            silo.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn hit_only_workload_never_exceeds_base_cpi() {
        // Every core hammers a single private line: after the cold miss
        // everything is an L1 hit, so throughput is capped by the base
        // CPI of 1 per core. The old loop charged only `gap` cycles for
        // `gap + 1` instructions and reported IPC = (gap+1)/gap > 1 here.
        let s = hit_only_stats(&SystemConfig::paper_16core().with_cores(1));
        assert!(
            s.ipc() <= 1.0,
            "hit-only IPC {} exceeds the base-CPI-1 ceiling",
            s.ipc()
        );
        assert!(s.ipc() > 0.95, "hit-only IPC {} implausibly low", s.ipc());
    }

    #[test]
    fn hit_only_multicore_respects_per_core_ceiling() {
        // Aggregate IPC is throughput over the makespan, so the ceiling
        // for N perfectly pipelined cores is N x base CPI 1.
        let cfg = quick_cfg();
        let s = hit_only_stats(&cfg);
        assert!(
            s.ipc() <= cfg.cores as f64,
            "hit-only aggregate IPC {} exceeds {} x base CPI",
            s.ipc(),
            cfg.cores
        );
    }

    #[test]
    fn profiled_subphases_tile_their_parents_exactly() {
        // The lap probes take one clock read per segment boundary, so
        // the engine and timing children must sum to their parent to the
        // nanosecond — no gaps, no double counting (the ISSUE's 5%
        // budget is met by construction).
        let cfg = SystemConfig::paper_16core().with_cores(8);
        let spec = WorkloadSpec {
            refs_per_core: 2_000,
            ..WorkloadSpec::zipf_shared()
        };
        let mut source = spec.source(cfg.cores, cfg.scale, 5).expect("source");
        let profiled = RunOptions {
            mode: RunMode::Profiled,
            ..RunOptions::default()
        };
        let out = run_on(true, &cfg, &mut *source, &profiled);
        let p = out.profile.expect("profiled runs carry a profile");
        assert_eq!(p.labels().len(), profile_phase_tree().len());
        let engine_children: u64 = p.children(PH_ENGINE).iter().map(|&i| p.nanos()[i]).sum();
        assert_eq!(engine_children, p.nanos()[PH_ENGINE]);
        let timing_children: u64 = p.children(PH_TIMING).iter().map(|&i| p.nanos()[i]).sum();
        assert_eq!(timing_children, p.nanos()[PH_TIMING]);
        // One probed engine call and one timing pass per reference.
        assert_eq!(p.samples()[PH_ENGINE], 8 * 2_000);
        assert_eq!(p.samples()[PH_TIMING], 8 * 2_000);
        // Every access goes through the lookup bucket at least once.
        assert!(p.nanos()[PH_ENGINE_CHILD0] > 0);
        // Profiling must not perturb the simulation.
        let unprofiled = stats_of(true, &cfg, &spec, 5);
        assert_eq!(out.stats, unprofiled);
    }

    #[test]
    fn dependent_refs_serialise_and_slow_the_core() {
        let cfg = quick_cfg();
        let chasing = WorkloadSpec {
            dependent_fraction: 1.0,
            ..quick_spec()
        };
        let overlapped = WorkloadSpec {
            dependent_fraction: 0.0,
            ..quick_spec()
        };
        let slow = stats_of(true, &cfg, &chasing, 2);
        let fast = stats_of(true, &cfg, &overlapped, 2);
        assert!(
            slow.cycles > fast.cycles,
            "serialised {} <= overlapped {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn every_mode_returns_bit_identical_stats_and_telemetry() {
        // The oracle and the profiler only observe: with the meter on
        // (warmup reset plus epoch sampling), all three modes must agree
        // on every simulated field, for both engine families.
        let cfg = quick_cfg();
        let spec = WorkloadSpec {
            refs_per_core: 1_500,
            ..WorkloadSpec::producer_consumer()
        };
        let meter = MeterConfig {
            warmup_refs: 600,
            epoch_refs: Some(1_000),
        };
        let every = NonZeroU64::new(97).expect("nonzero");
        for silo in [true, false] {
            let [plain, checked, profiled] =
                [RunMode::Plain, RunMode::Checked(every), RunMode::Profiled].map(|mode| {
                    let mut source = spec.source(cfg.cores, cfg.scale, 13).expect("source");
                    run_on(silo, &cfg, &mut *source, &RunOptions { meter, mode })
                });
            assert_eq!(plain.telemetry.timeline.rows().len(), 6);
            for out in [&checked, &profiled] {
                assert_eq!(out.stats, plain.stats);
                assert_eq!(out.telemetry, plain.telemetry);
            }
            assert!(plain.profile.is_none() && checked.profile.is_none());
            assert!(profiled.profile.is_some());
        }
    }
}
