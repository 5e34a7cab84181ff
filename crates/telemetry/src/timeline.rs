//! Epoch-sampled time series.
//!
//! A [`Timeline`] slices a run into epochs of `epoch_refs` processed
//! references. The run loop feeds it one [`Timeline::record_ref`] per
//! reference; when an epoch fills (and once more at the end of the run
//! for the final partial epoch) the loop calls [`Timeline::flush`] with
//! an [`EpochEnv`] snapshot of the cumulative environment counters
//! (makespan, mesh traffic, vault occupancy), and the timeline stores
//! the per-epoch deltas as an [`EpochRow`]. Epoch reference counts
//! always sum to the total references processed.

use silo_types::stats::{ratio, Histogram};

/// Which level of the hierarchy served a reference — the telemetry-side
/// mirror of the coherence crate's `ServedBy`, kept here so this crate
/// depends only on `silo-types`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceLevel {
    /// L1 hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Local-vault hit (SILO).
    LocalVault,
    /// Remote-vault forward (SILO).
    RemoteVault,
    /// Shared-LLC hit including directory forwards (baseline).
    SharedLlc,
    /// Main-memory access.
    Memory,
}

impl ServiceLevel {
    /// Number of levels.
    pub const COUNT: usize = 6;

    /// Every level, in report order.
    pub const ALL: [ServiceLevel; ServiceLevel::COUNT] = [
        ServiceLevel::L1,
        ServiceLevel::L2,
        ServiceLevel::LocalVault,
        ServiceLevel::RemoteVault,
        ServiceLevel::SharedLlc,
        ServiceLevel::Memory,
    ];

    /// Dense index for per-level arrays.
    pub const fn index(self) -> usize {
        match self {
            ServiceLevel::L1 => 0,
            ServiceLevel::L2 => 1,
            ServiceLevel::LocalVault => 2,
            ServiceLevel::RemoteVault => 3,
            ServiceLevel::SharedLlc => 4,
            ServiceLevel::Memory => 5,
        }
    }

    /// Snake-case column name used by the CSV/JSON exports.
    pub const fn name(self) -> &'static str {
        match self {
            ServiceLevel::L1 => "l1",
            ServiceLevel::L2 => "l2",
            ServiceLevel::LocalVault => "local_vault",
            ServiceLevel::RemoteVault => "remote_vault",
            ServiceLevel::SharedLlc => "shared_llc",
            ServiceLevel::Memory => "memory",
        }
    }
}

/// Snapshot of the *cumulative* environment counters at an epoch
/// boundary; the timeline differences consecutive snapshots itself.
#[derive(Clone, Copy, Debug)]
pub struct EpochEnv<'a> {
    /// Current makespan (the slowest core's finish cycle so far).
    pub cycles: u64,
    /// Mesh messages sent since the start of the run.
    pub mesh_messages: u64,
    /// Cumulative per-link flit counters.
    pub link_flits: &'a [u64],
    /// Cumulative busy cycles across all vault banks.
    pub vault_busy_cycles: u64,
    /// Total vault banks in the system (zero for vault-less systems).
    pub vault_banks: u64,
    /// The run's warmup window, for flagging epochs that overlap it.
    pub warmup_refs: u64,
}

/// One epoch's measurements (all deltas over the epoch, not cumulative).
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRow {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// True when any reference of this epoch fell inside the warmup
    /// window.
    pub warmup: bool,
    /// References processed in this epoch (the last epoch of a run may
    /// be partial).
    pub refs: u64,
    /// Instructions retired in this epoch.
    pub instructions: u64,
    /// Makespan advance over this epoch.
    pub cycles: u64,
    /// Per-level service counts, indexed by [`ServiceLevel::index`].
    pub served: [u64; ServiceLevel::COUNT],
    /// References that left the SRAM levels this epoch.
    pub llc_accesses: u64,
    /// Median LLC critical-path latency (interpolated).
    pub llc_p50: f64,
    /// 95th-percentile LLC latency.
    pub llc_p95: f64,
    /// 99th-percentile LLC latency.
    pub llc_p99: f64,
    /// Mesh messages sent this epoch.
    pub mesh_messages: u64,
    /// Flits carried by the busiest link this epoch.
    pub mesh_max_link_flits: u64,
    /// Mean flits over links that carried traffic this epoch.
    pub mesh_mean_link_flits: f64,
    /// Busy cycles across all vault banks this epoch.
    pub vault_busy_cycles: u64,
    /// Vault-bank occupancy: busy cycles over available bank-cycles.
    pub vault_occupancy: f64,
}

impl EpochRow {
    /// Aggregate IPC over this epoch (0.0 when the makespan did not
    /// advance).
    pub fn ipc(&self) -> f64 {
        ratio(self.instructions, self.cycles)
    }

    /// Fraction of this epoch's references served at `level`.
    pub fn fraction(&self, level: ServiceLevel) -> f64 {
        ratio(self.served[level.index()], self.refs)
    }
}

/// The in-flight accumulator of the current epoch.
#[derive(Clone, Debug, PartialEq)]
struct Acc {
    refs: u64,
    instructions: u64,
    served: [u64; ServiceLevel::COUNT],
    llc: Histogram,
}

impl Acc {
    fn new() -> Self {
        Acc {
            refs: 0,
            instructions: 0,
            served: [0; ServiceLevel::COUNT],
            llc: Histogram::log2(),
        }
    }
}

/// The epoch time series of one run. Disabled (`epoch_refs == 0`)
/// timelines ignore every call and stay empty.
#[derive(Clone, Debug, PartialEq)]
pub struct Timeline {
    epoch_refs: u64,
    rows: Vec<EpochRow>,
    /// References already flushed into `rows`.
    seen_refs: u64,
    acc: Acc,
    base_cycles: u64,
    base_messages: u64,
    base_flits: Vec<u64>,
    base_vault_busy: u64,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new(0)
    }
}

impl Timeline {
    /// Creates a timeline sampling every `epoch_refs` references; zero
    /// disables sampling entirely.
    pub fn new(epoch_refs: u64) -> Self {
        Timeline {
            epoch_refs,
            rows: Vec::new(),
            seen_refs: 0,
            acc: Acc::new(),
            base_cycles: 0,
            base_messages: 0,
            base_flits: Vec::new(),
            base_vault_busy: 0,
        }
    }

    /// True when epoch sampling is active.
    pub fn enabled(&self) -> bool {
        self.epoch_refs > 0
    }

    /// The configured epoch length in references (zero when disabled).
    pub fn epoch_refs(&self) -> u64 {
        self.epoch_refs
    }

    /// Pre-sizes the row storage for a run expected to process
    /// `expected_refs` references, so epoch flushes rarely reallocate
    /// mid-run. A no-op when sampling is disabled. The expectation is a
    /// hint that may come from an untrusted file header, so at most
    /// 4096 rows are reserved up front: a wrong hint never aborts the
    /// run or changes its rows.
    pub fn reserve_for(&mut self, expected_refs: u64) {
        if self.enabled() {
            let rows = expected_refs.div_ceil(self.epoch_refs).min(4096);
            self.rows.reserve(rows as usize);
        }
    }

    /// Records one processed reference.
    pub fn record_ref(&mut self, level: ServiceLevel, instructions: u64, llc_latency: Option<u64>) {
        if !self.enabled() {
            return;
        }
        self.acc.refs += 1;
        self.acc.instructions += instructions;
        self.acc.served[level.index()] += 1;
        if let Some(lat) = llc_latency {
            self.acc.llc.record(lat);
        }
    }

    /// True when the current epoch has accumulated `epoch_refs`
    /// references and should be flushed.
    pub fn epoch_full(&self) -> bool {
        self.enabled() && self.acc.refs >= self.epoch_refs
    }

    /// Closes the current epoch against the environment snapshot,
    /// appending an [`EpochRow`] of deltas and advancing the baselines.
    /// A no-op when disabled or when the epoch is empty.
    pub fn flush(&mut self, env: &EpochEnv<'_>) {
        if !self.enabled() || self.acc.refs == 0 {
            return;
        }
        let (mut delta_max, mut delta_sum, mut used_links) = (0u64, 0u64, 0u64);
        for (i, &f) in env.link_flits.iter().enumerate() {
            let d = f - self.base_flits.get(i).copied().unwrap_or(0);
            delta_max = delta_max.max(d);
            if d > 0 {
                delta_sum += d;
                used_links += 1;
            }
        }
        let mean = ratio(delta_sum, used_links);
        let cycles = env.cycles - self.base_cycles;
        let vault_busy = env.vault_busy_cycles - self.base_vault_busy;
        self.rows.push(EpochRow {
            epoch: self.rows.len() as u64,
            warmup: self.seen_refs < env.warmup_refs,
            refs: self.acc.refs,
            instructions: self.acc.instructions,
            cycles,
            served: self.acc.served,
            llc_accesses: self.acc.llc.count(),
            llc_p50: self.acc.llc.percentile(0.50),
            llc_p95: self.acc.llc.percentile(0.95),
            llc_p99: self.acc.llc.percentile(0.99),
            mesh_messages: env.mesh_messages - self.base_messages,
            mesh_max_link_flits: delta_max,
            mesh_mean_link_flits: mean,
            vault_busy_cycles: vault_busy,
            vault_occupancy: ratio(vault_busy, env.vault_banks.saturating_mul(cycles)),
        });
        self.seen_refs += self.acc.refs;
        self.acc = Acc::new();
        self.base_cycles = env.cycles;
        self.base_messages = env.mesh_messages;
        // Reuse the baseline buffer across epochs instead of allocating
        // a fresh vector per flush.
        self.base_flits.clear();
        self.base_flits.extend_from_slice(env.link_flits);
        self.base_vault_busy = env.vault_busy_cycles;
    }

    /// Flushes the final partial epoch, if any. Call once when the run
    /// ends so epoch reference counts sum to the total processed.
    pub fn finish(&mut self, env: &EpochEnv<'_>) {
        self.flush(env);
    }

    /// The flushed epoch rows.
    pub fn rows(&self) -> &[EpochRow] {
        &self.rows
    }

    /// Total references covered by the flushed rows.
    pub fn total_refs(&self) -> u64 {
        self.seen_refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(cycles: u64, warmup_refs: u64) -> EpochEnv<'static> {
        EpochEnv {
            cycles,
            mesh_messages: 0,
            link_flits: &[],
            vault_busy_cycles: 0,
            vault_banks: 0,
            warmup_refs,
        }
    }

    #[test]
    fn disabled_timeline_ignores_everything() {
        let mut t = Timeline::default();
        assert!(!t.enabled());
        t.record_ref(ServiceLevel::L1, 4, None);
        assert!(!t.epoch_full());
        t.finish(&env(100, 0));
        assert!(t.rows().is_empty());
        assert_eq!(t.total_refs(), 0);
    }

    #[test]
    fn epochs_fill_flush_and_sum_to_total() {
        let mut t = Timeline::new(10);
        for i in 0..27u64 {
            t.record_ref(ServiceLevel::Memory, 2, Some(100 + i));
            if t.epoch_full() {
                t.flush(&env((t.total_refs() + 10) * 50, 0));
            }
        }
        t.finish(&env(27 * 50, 0));
        assert_eq!(t.rows().len(), 3, "two full epochs plus a partial one");
        assert_eq!(t.rows()[0].refs, 10);
        assert_eq!(t.rows()[2].refs, 7, "last partial epoch is flushed");
        let total: u64 = t.rows().iter().map(|r| r.refs).sum();
        assert_eq!(total, 27, "epoch ref counts sum to total refs");
        assert_eq!(t.total_refs(), 27);
        for (i, r) in t.rows().iter().enumerate() {
            assert_eq!(r.epoch, i as u64);
            assert_eq!(r.llc_accesses, r.refs);
            assert!(r.llc_p50 <= r.llc_p95 && r.llc_p95 <= r.llc_p99);
        }
    }

    #[test]
    fn rows_report_deltas_not_cumulative_values() {
        let mut t = Timeline::new(2);
        let flits_a = [5u64, 0];
        let flits_b = [9u64, 4];
        for _ in 0..2 {
            t.record_ref(ServiceLevel::L1, 3, None);
        }
        t.flush(&EpochEnv {
            cycles: 100,
            mesh_messages: 7,
            link_flits: &flits_a,
            vault_busy_cycles: 40,
            vault_banks: 2,
            warmup_refs: 0,
        });
        for _ in 0..2 {
            t.record_ref(ServiceLevel::L2, 3, None);
        }
        t.flush(&EpochEnv {
            cycles: 150,
            mesh_messages: 10,
            link_flits: &flits_b,
            vault_busy_cycles: 60,
            vault_banks: 2,
            warmup_refs: 0,
        });
        let r = &t.rows()[1];
        assert_eq!(r.cycles, 50);
        assert_eq!(r.mesh_messages, 3);
        assert_eq!(r.mesh_max_link_flits, 4);
        assert!((r.mesh_mean_link_flits - 4.0).abs() < 1e-12);
        assert_eq!(r.vault_busy_cycles, 20);
        assert!((r.vault_occupancy - 20.0 / (2.0 * 50.0)).abs() < 1e-12);
        assert!((r.ipc() - 6.0 / 50.0).abs() < 1e-12);
        assert!((r.fraction(ServiceLevel::L2) - 1.0).abs() < 1e-12);
        assert_eq!(r.fraction(ServiceLevel::L1), 0.0);
    }

    #[test]
    fn warmup_overlapping_epochs_are_flagged() {
        let mut t = Timeline::new(5);
        for i in 0..15u64 {
            t.record_ref(ServiceLevel::L1, 1, None);
            if t.epoch_full() {
                t.flush(&env(i + 1, 7));
            }
        }
        let flags: Vec<bool> = t.rows().iter().map(|r| r.warmup).collect();
        // Epoch 0 covers refs 1..=5, epoch 1 covers 6..=10 (starts at 5
        // < 7, overlaps the warmup window), epoch 2 is pure measurement.
        assert_eq!(flags, [true, true, false]);
    }

    #[test]
    fn service_levels_are_dense_and_named() {
        for (i, l) in ServiceLevel::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
            assert!(!l.name().is_empty());
        }
    }
}
