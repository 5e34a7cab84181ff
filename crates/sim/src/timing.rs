//! Cycle assignment for protocol steps.
//!
//! One [`TimingModel`] owns the contended resources of one simulated
//! machine: the mesh (`silo-noc`), the DRAM structures (`silo-dram`
//! next-free-time bank reservations for vaults and main memory), and the
//! baseline's SRAM LLC banks. [`TimingModel::charge`] walks an access's
//! critical-path steps in order — each step starts when the previous one
//! finished and may queue behind earlier traffic to the same bank — and
//! reserves the background work at the completion time without extending
//! the load-to-use latency.

use crate::config::SystemConfig;
use silo_coherence::{AccessResult, Background, Step};
use silo_dram::BankArray;
use silo_noc::{Mesh, NodeId};
use silo_obs::{Lap, LapProbe, NoProbe};
use silo_types::{set_bits, Cycles};

/// Labels of the timing sub-phases [`TimingModel::charge_probed`] and
/// the run loop's MSHR accounting attribute into, in bucket order.
pub const TIMING_SUBPHASES: [&str; 3] = ["mesh", "bank", "mshr"];

/// [`TIMING_SUBPHASES`] bucket: mesh sends and invalidation rounds.
pub const TP_MESH: usize = 0;
/// [`TIMING_SUBPHASES`] bucket: bank reservations (vault, LLC, memory,
/// probes) and background reservations.
pub const TP_BANK: usize = 1;
/// [`TIMING_SUBPHASES`] bucket: the run loop's MSHR acquire/retire and
/// completion bookkeeping around the charge.
pub const TP_MSHR: usize = 2;

/// The lap probe `charge_probed` attributes into — one bucket per
/// [`TIMING_SUBPHASES`] entry.
pub type TimingProbe = LapProbe<3>;

/// The priced resources of one system (SILO or baseline).
#[derive(Clone, Debug)]
pub struct TimingModel {
    mesh: Mesh,
    /// Per-node vault banks (SILO; also holds the distributed directory).
    vaults: Vec<BankArray>,
    /// Per-node LLC banks (baseline).
    llc: Vec<BankArray>,
    memory: BankArray,
    l1_probe: Cycles,
    vault_access: Cycles,
}

impl TimingModel {
    /// Resources for the SILO system: a mesh, one vault bank-array per
    /// node, and main memory. LLC steps are absent by construction.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent config; the builder API validates
    /// upstream and returns [`crate::ConfigError`] instead.
    pub fn silo(cfg: &SystemConfig) -> Self {
        cfg.validate().expect("invalid SystemConfig");
        TimingModel {
            mesh: Mesh::new(cfg.mesh_width, cfg.mesh_height, cfg.hop_cycles),
            vaults: (0..cfg.cores)
                .map(|_| BankArray::new(cfg.vault_banks, cfg.vault_access))
                .collect(),
            llc: Vec::new(),
            memory: BankArray::new(cfg.memory_banks, cfg.memory_access),
            l1_probe: cfg.l1_probe,
            vault_access: cfg.vault_access,
        }
    }

    /// Resources for the shared-LLC baseline: a mesh, one LLC bank per
    /// node, and main memory. Vault steps are absent by construction.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent config; the builder API validates
    /// upstream and returns [`crate::ConfigError`] instead.
    pub fn baseline(cfg: &SystemConfig) -> Self {
        cfg.validate().expect("invalid SystemConfig");
        TimingModel {
            mesh: Mesh::new(cfg.mesh_width, cfg.mesh_height, cfg.hop_cycles),
            vaults: Vec::new(),
            llc: (0..cfg.cores)
                .map(|_| BankArray::new(cfg.llc_sub_banks, cfg.llc_bank_access))
                .collect(),
            memory: BankArray::new(cfg.memory_banks, cfg.memory_access),
            l1_probe: cfg.l1_probe,
            vault_access: cfg.vault_access,
        }
    }

    /// The mesh (for traffic statistics).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Total busy cycles across all vault banks.
    pub fn vault_busy_cycles(&self) -> u64 {
        self.vaults.iter().map(BankArray::total_busy_cycles).sum()
    }

    /// Total vault banks across all nodes (zero for the baseline), the
    /// denominator of the telemetry occupancy metric.
    pub fn vault_banks_total(&self) -> u64 {
        self.vaults.iter().map(|v| v.len() as u64).sum()
    }

    /// Total accesses to main memory banks.
    pub fn memory_accesses(&self) -> u64 {
        self.memory.total_accesses()
    }

    /// Prices one access issued at `now`: charges every critical-path
    /// step in order and reserves background work at the completion time.
    /// Returns the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if a step names a resource this system does not have (an
    /// engine/model mismatch).
    pub fn charge(&mut self, now: Cycles, r: &AccessResult) -> Cycles {
        self.charge_probed(now, r, &mut NoProbe)
    }

    /// [`TimingModel::charge`] with sub-phase wall-clock attribution:
    /// every step's pricing is lapped into the [`TP_MESH`] or
    /// [`TP_BANK`] bucket of `probe` as it completes, tiling the walk
    /// exactly. The caller owns [`begin`](Lap::begin) and the MSHR
    /// bucket around the call. With [`NoProbe`] every lap compiles out,
    /// which is how [`TimingModel::charge`] shares this body; simulated
    /// results are the same for every probe.
    ///
    /// # Panics
    ///
    /// Panics if a step names a resource this system does not have (an
    /// engine/model mismatch).
    pub fn charge_probed<L: Lap>(
        &mut self,
        now: Cycles,
        r: &AccessResult,
        probe: &mut L,
    ) -> Cycles {
        // Every bank reservation of the access is for the same line, so
        // its bank-interleaving hash is computed once.
        let scrambled = r.line.scramble();
        let mut t = now;
        for step in &r.steps {
            t = self.charge_step(t, scrambled, step);
            let bucket = match step {
                Step::Net { .. } | Step::Invalidations { .. } => TP_MESH,
                _ => TP_BANK,
            };
            probe.lap(bucket);
        }
        for bg in &r.background {
            self.reserve_background(t, scrambled, bg);
            probe.lap(TP_BANK);
        }
        t
    }

    fn charge_step(&mut self, t: Cycles, scrambled: u64, step: &Step) -> Cycles {
        match *step {
            Step::Net { from, to } => t + self.mesh.send(NodeId(from), NodeId(to)),
            Step::VaultAccess { node } => {
                let v = self
                    .vaults
                    .get_mut(node)
                    .expect("vault step in a system without vaults");
                v.access_scrambled(t, scrambled, v.service())
            }
            Step::LlcBank { bank } => {
                let b = self
                    .llc
                    .get_mut(bank)
                    .expect("LLC step in a system without an LLC");
                b.access_scrambled(t, scrambled, b.service())
            }
            Step::L1Probe { .. } => t + self.l1_probe,
            Step::Invalidations { home, mask } => {
                // Parallel round: the farthest round trip plus one probe.
                let mut worst = Cycles::ZERO;
                for node in set_bits(mask) {
                    let there = self.mesh.send(NodeId(home), NodeId(node));
                    let back = self.mesh.send(NodeId(node), NodeId(home));
                    worst = worst.max(there + back);
                }
                t + worst + self.l1_probe
            }
            Step::DirCacheHit => t + self.l1_probe,
            Step::Memory => self
                .memory
                .access_scrambled(t, scrambled, self.memory.service()),
        }
    }

    fn reserve_background(&mut self, t: Cycles, scrambled: u64, bg: &Background) {
        match *bg {
            Background::VaultFill {
                node,
                dirty_writeback,
            } => {
                if let Some(v) = self.vaults.get_mut(node) {
                    v.access_scrambled(t, scrambled, v.service());
                }
                if dirty_writeback {
                    self.memory
                        .access_scrambled(t, scrambled, self.memory.service());
                }
            }
            Background::LlcFill {
                bank,
                dirty_writeback,
            } => {
                if let Some(b) = self.llc.get_mut(bank) {
                    b.access_scrambled(t, scrambled, b.service());
                }
                if dirty_writeback {
                    self.memory
                        .access_scrambled(t, scrambled, self.memory.service());
                }
            }
            Background::DirUpdate { home, ways } => {
                // SILO keeps directory metadata in the home vault's DRAM;
                // the baseline embeds it in the LLC bank. A full-set
                // transition touches `ways` entries back to back.
                if let Some(v) = self.vaults.get_mut(home) {
                    let service = self.vault_access * ways as u64;
                    v.access_scrambled(t, scrambled, service);
                } else if let Some(b) = self.llc.get_mut(home) {
                    let service = b.service() * ways as u64;
                    b.access_scrambled(t, scrambled, service);
                }
            }
            Background::L1Writeback { .. } => {
                // Absorbed by the node's write port; no shared resource.
            }
            Background::MemoryWrite => {
                self.memory
                    .access_scrambled(t, scrambled, self.memory.service());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_coherence::ServedBy;
    use silo_types::LineAddr;

    fn silo_model() -> TimingModel {
        TimingModel::silo(&SystemConfig::paper_16core())
    }

    fn result(steps: Vec<Step>) -> AccessResult {
        AccessResult {
            served: Some(ServedBy::Memory),
            steps,
            background: Vec::new(),
            llc_access: true,
            line: LineAddr::new(9),
            is_write: false,
        }
    }

    #[test]
    fn net_steps_accumulate_mesh_latency() {
        let mut m = silo_model();
        // Node 0 -> 15 is 6 hops at 3 cycles.
        let done = m.charge(Cycles(100), &result(vec![Step::Net { from: 0, to: 15 }]));
        assert_eq!(done, Cycles(118));
        assert_eq!(m.mesh().messages(), 1);
    }

    #[test]
    fn vault_steps_queue_behind_earlier_traffic() {
        let mut m = silo_model();
        let r = result(vec![Step::VaultAccess { node: 3 }]);
        let first = m.charge(Cycles(0), &r);
        let second = m.charge(Cycles(0), &r);
        assert_eq!(first, Cycles(11));
        assert_eq!(second, Cycles(22), "same line -> same bank serializes");
    }

    #[test]
    fn invalidations_charge_farthest_round_trip() {
        let mut m = silo_model();
        // Home 0, victims 1 (1 hop) and 15 (6 hops): worst RT = 36.
        let done = m.charge(
            Cycles(0),
            &result(vec![Step::Invalidations {
                home: 0,
                mask: (1 << 1) | (1 << 15),
            }]),
        );
        assert_eq!(done, Cycles(36 + 3));
    }

    #[test]
    fn memory_step_uses_bank_reservation() {
        let mut m = silo_model();
        let done = m.charge(Cycles(0), &result(vec![Step::Memory]));
        assert_eq!(done, Cycles(100));
        assert_eq!(m.memory_accesses(), 1);
    }

    #[test]
    fn background_does_not_extend_latency() {
        let mut m = silo_model();
        let mut r = result(vec![Step::Memory]);
        r.background.push(Background::VaultFill {
            node: 0,
            dirty_writeback: true,
        });
        let done = m.charge(Cycles(0), &r);
        assert_eq!(done, Cycles(100));
        // But the fill and writeback did occupy resources.
        assert!(m.vault_busy_cycles() > 0);
        assert_eq!(m.memory_accesses(), 2);
    }

    #[test]
    #[should_panic(expected = "without an LLC")]
    fn silo_model_rejects_llc_steps() {
        silo_model().charge(Cycles(0), &result(vec![Step::LlcBank { bank: 0 }]));
    }

    #[test]
    fn baseline_model_prices_llc_banks() {
        let mut m = TimingModel::baseline(&SystemConfig::paper_16core());
        let done = m.charge(Cycles(0), &result(vec![Step::LlcBank { bank: 2 }]));
        assert_eq!(done, Cycles(5));
    }
}
