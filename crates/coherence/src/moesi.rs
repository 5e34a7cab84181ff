//! SILO's all-private hierarchy: directory-based MOESI over per-core
//! DRAM-cache vaults (Sec. V-B).
//!
//! Every core owns an inclusive, direct-mapped DRAM cache vault stacked
//! above it. Coherence state lives with the vault tags; sharers are found
//! through a duplicate-tag directory whose metadata is distributed across
//! the vaults at address-interleaved *home* nodes. The O state lets a
//! dirty block be supplied core-to-core without a main-memory writeback —
//! the common case for the read-mostly sharing of scale-out workloads.
//!
//! The engine is functional + structural: it owns the SRAM nodes, the
//! vault arrays and the directory, performs all state transitions, and
//! emits an [`AccessResult`] whose [`Step`]s the timing simulator prices
//! with mesh hops and bank reservations.

use crate::directory::DuplicateTagDirectory;
use crate::node::{Node, NodeSpec, SramHit};
use crate::state::State;
use crate::stats::CoherenceStats;
use crate::step::{AccessResult, Background, ServedBy, Step};
use crate::{EP_DIR, EP_FILL, EP_L1, EP_WB};
use silo_cache::{ReplacementPolicy, SetAssocCache};
use silo_obs::{Lap, NoProbe};
use silo_types::{set_bits, ByteSize, LineAddr, MemRef};

/// Configuration of the SILO private hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct PrivateMoesiConfig {
    /// Per-core SRAM geometry.
    pub node_spec: NodeSpec,
    /// Capacity of each private vault (256 MiB for the latency-optimized
    /// design point of Table I).
    pub vault_capacity: ByteSize,
    /// Capacity-scaling knob shared with the workload generators.
    pub scale: u64,
    /// Model the ideal vault miss predictor of Sec. V-C: a known local
    /// miss skips the local TAD probe entirely.
    pub ideal_miss_predict: bool,
    /// Keep the O state: a dirty owner supplies readers core-to-core
    /// without a main-memory writeback (the paper's protocol). When
    /// disabled, a dirty owner forwarding to a reader writes the line
    /// back to memory and degrades to S — MESI-over-vaults, the
    /// `silo-no-forward` sensitivity variant.
    pub o_state_forwarding: bool,
}

impl Default for PrivateMoesiConfig {
    fn default() -> Self {
        PrivateMoesiConfig {
            node_spec: NodeSpec::two_level(),
            vault_capacity: ByteSize::from_mib(256),
            scale: 64,
            ideal_miss_predict: true,
            o_state_forwarding: true,
        }
    }
}

/// The SILO protocol engine: N private nodes, N private vaults, one
/// functional duplicate-tag MOESI directory homed by address interleave.
#[derive(Clone, Debug)]
pub struct PrivateMoesi {
    nodes: Vec<Node>,
    /// Direct-mapped vault per core; payload is the MOESI state.
    vaults: Vec<SetAssocCache<State>>,
    dir: DuplicateTagDirectory,
    ideal_miss_predict: bool,
    o_state_forwarding: bool,
    stats: CoherenceStats,
}

impl PrivateMoesi {
    /// Builds the SILO hierarchy for `n_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero or exceeds 64.
    pub fn new(n_cores: usize, cfg: &PrivateMoesiConfig) -> Self {
        let vault_cap = cfg.vault_capacity.scaled_down(cfg.scale);
        PrivateMoesi {
            nodes: (0..n_cores)
                .map(|_| Node::new(&cfg.node_spec, cfg.scale))
                .collect(),
            vaults: (0..n_cores)
                .map(|_| SetAssocCache::with_capacity_rounded(vault_cap, 1, ReplacementPolicy::Lru))
                .collect(),
            dir: DuplicateTagDirectory::new(n_cores),
            ideal_miss_predict: cfg.ideal_miss_predict,
            o_state_forwarding: cfg.o_state_forwarding,
            stats: CoherenceStats::default(),
        }
    }

    /// Coherence event counters since construction (or the last
    /// [`PrivateMoesi::reset_stats`]).
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Zeroes the event counters without touching any protocol state
    /// (the telemetry warmup boundary).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Number of cores/nodes.
    pub fn n_cores(&self) -> usize {
        self.nodes.len()
    }

    /// Directory home node of a line (address-interleaved, scrambled).
    pub fn home_of(&self, line: LineAddr) -> usize {
        silo_types::interleave(line.scramble(), self.nodes.len())
    }

    /// Host-cache prefetch hint for an upcoming access by `core` to
    /// `line`: warms the local vault slot, the hottest and largest array
    /// on the access path. Changes no simulated state.
    #[inline]
    pub fn prefetch_hint(&self, core: usize, line: LineAddr) {
        self.vaults[core].prefetch(line);
    }

    /// The functional directory (for invariant checks and tests).
    pub fn directory(&self) -> &DuplicateTagDirectory {
        &self.dir
    }

    /// Whether dirty reads forward through the O state (the paper's
    /// protocol) instead of writing back to memory (`silo-no-forward`).
    pub fn o_state_forwarding(&self) -> bool {
        self.o_state_forwarding
    }

    /// True when `core`'s SRAM hierarchy (L1-I, L1-D, or L2) holds the
    /// line. Read-only introspection for the model checker.
    pub fn sram_contains(&self, core: usize, line: LineAddr) -> bool {
        self.nodes[core].contains(line)
    }

    /// Total lines resident across all vaults. Under vault/directory
    /// agreement this equals [`DuplicateTagDirectory::total_holders`] —
    /// the cheap cross-layer occupancy invariant the `--check` oracle
    /// replays every N references.
    pub fn vault_occupancy(&self) -> u64 {
        self.vaults.iter().map(|v| v.len() as u64).sum()
    }

    /// Executes one memory reference from `core` and returns the protocol
    /// steps for the timing simulator.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, mr: MemRef) -> AccessResult {
        let mut r = AccessResult::default();
        self.access_into(core, mr, &mut r);
        r
    }

    /// [`PrivateMoesi::access`] writing into a caller-owned result, so a
    /// hot loop can reuse the step buffers instead of allocating two
    /// vectors per access.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_into(&mut self, core: usize, mr: MemRef, r: &mut AccessResult) {
        self.access_into_probed(core, mr, r, &mut NoProbe);
    }

    /// [`PrivateMoesi::access_into`] with sub-phase wall-clock attribution:
    /// every segment of the access is lapped into one of the
    /// [`crate::ENGINE_SUBPHASES`] buckets of `probe`, tiling the call
    /// exactly. This is the one access body: with [`NoProbe`] every lap
    /// compiles out, which is how [`PrivateMoesi::access_into`] shares it, so
    /// simulated results are the same for every probe.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_into_probed<P: Lap>(
        &mut self,
        core: usize,
        mr: MemRef,
        r: &mut AccessResult,
        probe: &mut P,
    ) {
        assert!(core < self.nodes.len(), "core {core} out of range");
        probe.begin();
        r.clear();
        r.line = mr.line;
        r.is_write = mr.kind.is_write();
        match self.nodes[core].probe(mr.line, mr.kind) {
            SramHit::L1 => {
                r.served = Some(ServedBy::L1);
                probe.lap(EP_L1);
                if mr.kind.is_write() {
                    self.write_permission(core, mr.line, r);
                    probe.lap(EP_DIR);
                }
            }
            SramHit::L2 => {
                r.served = Some(ServedBy::L2);
                probe.lap(EP_L1);
                if mr.kind.is_write() {
                    self.write_permission(core, mr.line, r);
                    probe.lap(EP_DIR);
                }
            }
            SramHit::Miss => {
                probe.lap(EP_L1);
                self.sram_miss(core, mr, r, probe);
            }
        }
    }

    /// Ensures `core` may write a line it already caches (SRAM or vault
    /// hit): silent E->M, or an upgrade transaction for S/O copies.
    fn write_permission(&mut self, core: usize, line: LineAddr, r: &mut AccessResult) {
        let state = *self.vaults[core]
            .peek(line)
            .expect("SRAM-resident line must be vault-resident (inclusion)");
        match state {
            State::M => {}
            State::E => {
                // Silent upgrade: no transaction; keep the functional
                // directory in sync so eviction writebacks are exact.
                *self.vaults[core].peek_mut(line).expect("just peeked") = State::M;
                self.dir.set_state(line, core, State::M);
            }
            State::S | State::O => self.upgrade(core, line, r),
            State::I => unreachable!("valid vault state peeked"),
        }
    }

    /// Write-upgrade transaction: invalidate every other holder through
    /// the home directory, then take M.
    fn upgrade(&mut self, core: usize, line: LineAddr, r: &mut AccessResult) {
        r.llc_access = true;
        self.stats.upgrades.inc();
        let home = self.home_of(line);
        r.steps.push(Step::Net {
            from: core,
            to: home,
        });
        r.steps.push(Step::VaultAccess { node: home });
        let mask = self.dir.lookup_view(line).mask & !(1u64 << core);
        if mask != 0 {
            r.steps.push(Step::Invalidations { home, mask });
            self.invalidate_holders(line, mask);
        }
        r.steps.push(Step::Net {
            from: home,
            to: core,
        });
        let touched = mask.count_ones() + 1;
        self.dir.set_state(line, core, State::M);
        *self.vaults[core]
            .peek_mut(line)
            .expect("upgrader holds line") = State::M;
        r.background.push(Background::DirUpdate {
            home,
            ways: touched,
        });
    }

    /// Handles an access that missed every SRAM level.
    fn sram_miss<P: Lap>(&mut self, core: usize, mr: MemRef, r: &mut AccessResult, probe: &mut P) {
        r.llc_access = true;
        let line = mr.line;
        let is_write = mr.kind.is_write();

        // Local vault TAD probe.
        let vstate = self.vaults[core].get(line).copied().unwrap_or(State::I);
        probe.lap(EP_L1);
        if vstate.is_valid() {
            r.steps.push(Step::VaultAccess { node: core });
            r.served = Some(ServedBy::LocalVault);
            if is_write {
                self.write_permission(core, line, r);
            }
            probe.lap(EP_DIR);
            self.fill_sram(core, line, mr);
            probe.lap(EP_FILL);
            return;
        }
        // Known local miss: with the ideal miss predictor the TAD probe is
        // skipped; otherwise the failed DRAM access is on the critical path.
        if !self.ideal_miss_predict {
            r.steps.push(Step::VaultAccess { node: core });
        }

        // Go to the home directory.
        let home = self.home_of(line);
        r.steps.push(Step::Net {
            from: core,
            to: home,
        });
        r.steps.push(Step::VaultAccess { node: home });
        let view = self.dir.lookup_view(line);
        let mask = view.mask & !(1u64 << core);
        let mut dir_ways = 1u32;

        let new_state = if let Some((o, ostate)) = view.owner {
            debug_assert_ne!(o, core, "requester missed its vault, so cannot own");
            // Forward from the owner's vault.
            r.steps.push(Step::Net { from: home, to: o });
            r.steps.push(Step::VaultAccess { node: o });
            r.steps.push(Step::Net { from: o, to: core });
            r.served = Some(ServedBy::RemoteVault);
            if is_write {
                // Invalidate the owner (rides the forward) and, in
                // parallel, any S sharers.
                let sharer_mask = mask & !(1u64 << o);
                if sharer_mask != 0 {
                    r.steps.push(Step::Invalidations {
                        home,
                        mask: sharer_mask,
                    });
                }
                self.invalidate_holders(line, mask);
                dir_ways += mask.count_ones();
                State::M
            } else {
                // MOESI read: dirty owners keep supplying without a
                // writeback (M->O); clean exclusives degrade to S. With
                // O-state forwarding disabled the dirty owner instead
                // writes back to memory and degrades to S.
                let downgraded = match ostate {
                    State::M | State::O if self.o_state_forwarding => {
                        self.stats.o_state_forwards.inc();
                        State::O
                    }
                    State::M | State::O => {
                        r.background.push(Background::MemoryWrite);
                        self.stats.dirty_writebacks.inc();
                        State::S
                    }
                    State::E => State::S,
                    _ => unreachable!("owner must be ownerlike"),
                };
                self.dir.set_state(line, o, downgraded);
                *self.vaults[o].peek_mut(line).expect("owner holds line") = downgraded;
                dir_ways += 1;
                State::S
            }
        } else if mask != 0 {
            // Clean sharers only: forward from the first holder's vault.
            let s = self
                .dir
                .first_holder_except(line, core)
                .expect("mask nonzero implies a holder");
            r.steps.push(Step::Net { from: home, to: s });
            r.steps.push(Step::VaultAccess { node: s });
            r.steps.push(Step::Net { from: s, to: core });
            r.served = Some(ServedBy::RemoteVault);
            if is_write {
                r.steps.push(Step::Invalidations { home, mask });
                self.invalidate_holders(line, mask);
                dir_ways += mask.count_ones();
                State::M
            } else {
                State::S
            }
        } else {
            // Uncached anywhere: main memory.
            r.steps.push(Step::Memory);
            r.steps.push(Step::Net {
                from: home,
                to: core,
            });
            r.served = Some(ServedBy::Memory);
            if is_write {
                State::M
            } else {
                State::E
            }
        };

        self.dir.set_state(line, core, new_state);
        r.background.push(Background::DirUpdate {
            home,
            ways: dir_ways,
        });
        probe.lap(EP_DIR);
        self.fill_vault(core, line, new_state, r, probe);
        self.fill_sram(core, line, mr);
        probe.lap(EP_FILL);
    }

    /// Installs `line` into `core`'s vault, handling the direct-mapped
    /// victim: back-invalidate the SRAM (inclusion), retire the directory
    /// entry at the victim's home, and write dirty data back to memory.
    fn fill_vault<P: Lap>(
        &mut self,
        core: usize,
        line: LineAddr,
        state: State,
        r: &mut AccessResult,
        probe: &mut P,
    ) {
        let victim = self.vaults[core].insert(line, state);
        probe.lap(EP_FILL);
        match victim {
            Some(victim) => {
                self.nodes[core].invalidate(victim.line);
                self.dir.set_state(victim.line, core, State::I);
                self.stats.directory_evictions.inc();
                if victim.payload.is_dirty() {
                    self.stats.dirty_writebacks.inc();
                }
                let vhome = self.home_of(victim.line);
                r.background.push(Background::DirUpdate {
                    home: vhome,
                    ways: 1,
                });
                r.background.push(Background::VaultFill {
                    node: core,
                    dirty_writeback: victim.payload.is_dirty(),
                });
                probe.lap(EP_WB);
            }
            None => {
                r.background.push(Background::VaultFill {
                    node: core,
                    dirty_writeback: false,
                });
                probe.lap(EP_FILL);
            }
        }
    }

    /// Fills the SRAM levels. Node-level victims stay vault-resident, so
    /// no directory maintenance is needed (the directory tracks vaults).
    fn fill_sram(&mut self, core: usize, line: LineAddr, mr: MemRef) {
        self.nodes[core].fill_untracked(line, mr.kind);
    }

    /// Invalidates every node in `mask`: vault, SRAM, and directory.
    /// Invalidated dirty copies need no writeback — they are superseded by
    /// the requester's M copy.
    fn invalidate_holders(&mut self, line: LineAddr, mask: u64) {
        self.stats.invalidations.add(u64::from(mask.count_ones()));
        for node in set_bits(mask) {
            self.vaults[node].invalidate(line);
            self.nodes[node].invalidate(line);
            self.dir.set_state(line, node, State::I);
        }
    }

    /// Verifies the protocol invariants: the directory's MOESI invariants,
    /// directory/vault agreement, and vault-inclusion of the SRAM levels.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check(&self) -> Result<(), String> {
        self.dir.check_invariants()?;
        let (occ, tracked) = (self.vault_occupancy(), self.dir.total_holders());
        if occ != tracked {
            return Err(format!(
                "occupancy: vaults hold {occ} lines, directory tracks {tracked}"
            ));
        }
        for (core, vault) in self.vaults.iter().enumerate() {
            for (line, &state) in vault.iter() {
                let dstate = self.dir.state_of(line, core);
                if dstate != state {
                    return Err(format!(
                        "{line}: vault {core} holds {state}, directory says {dstate}"
                    ));
                }
            }
        }
        for (line, states) in self.dir.iter() {
            for (core, s) in states.iter().enumerate() {
                if s.is_valid() && !self.vaults[core].contains(line) {
                    return Err(format!("{line}: directory {s} at {core} but vault misses"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_types::MemRef;

    fn small() -> PrivateMoesi {
        PrivateMoesi::new(
            4,
            &PrivateMoesiConfig {
                vault_capacity: ByteSize::from_kib(64),
                scale: 1,
                ..PrivateMoesiConfig::default()
            },
        )
    }

    #[test]
    fn cold_read_goes_to_memory_and_takes_e() {
        let mut p = small();
        let l = LineAddr::new(42);
        let r = p.access(0, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::Memory);
        assert!(r.llc_access);
        assert!(r.steps.contains(&Step::Memory));
        assert_eq!(p.directory().state_of(l, 0), State::E);
        p.check().unwrap();
    }

    #[test]
    fn second_access_hits_l1_silently() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::read(l));
        let r = p.access(0, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::L1);
        assert!(!r.llc_access);
        assert!(r.steps.is_empty());
    }

    #[test]
    fn remote_read_forwards_from_owner_vault() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::read(l));
        let r = p.access(1, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::RemoteVault);
        // E owner degrades to S on a clean read.
        assert_eq!(p.directory().state_of(l, 0), State::S);
        assert_eq!(p.directory().state_of(l, 1), State::S);
        p.check().unwrap();
    }

    #[test]
    fn dirty_owner_moves_to_o_without_writeback() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::write(l));
        assert_eq!(p.directory().state_of(l, 0), State::M);
        let r = p.access(1, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::RemoteVault);
        assert_eq!(p.directory().state_of(l, 0), State::O);
        assert_eq!(p.directory().state_of(l, 1), State::S);
        // No memory step anywhere: the O state avoided the writeback.
        assert!(!r.steps.contains(&Step::Memory));
        p.check().unwrap();
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::read(l));
        p.access(1, MemRef::read(l));
        p.access(2, MemRef::read(l));
        let r = p.access(3, MemRef::write(l));
        assert_eq!(r.served_by(), ServedBy::RemoteVault);
        assert!(r
            .steps
            .iter()
            .any(|s| matches!(s, Step::Invalidations { .. })));
        for core in 0..3 {
            assert_eq!(p.directory().state_of(l, core), State::I);
        }
        assert_eq!(p.directory().state_of(l, 3), State::M);
        p.check().unwrap();
    }

    #[test]
    fn upgrade_on_l1_write_hit_to_shared_line() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::read(l));
        p.access(1, MemRef::read(l));
        // Core 0 has the line in L1 (S in vault): write hits SRAM but
        // needs an upgrade transaction.
        let r = p.access(0, MemRef::write(l));
        assert_eq!(r.served_by(), ServedBy::L1);
        assert!(r.llc_access, "upgrade is a coherence transaction");
        assert_eq!(p.directory().state_of(l, 0), State::M);
        assert_eq!(p.directory().state_of(l, 1), State::I);
        p.check().unwrap();
    }

    #[test]
    fn silent_e_to_m_upgrade_is_free() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::read(l));
        let r = p.access(0, MemRef::write(l));
        assert!(!r.llc_access);
        assert!(r.steps.is_empty());
        assert_eq!(p.directory().state_of(l, 0), State::M);
        p.check().unwrap();
    }

    #[test]
    fn vault_conflict_evicts_and_back_invalidates() {
        let mut p = small();
        // 64 KiB direct-mapped vault = 1024 lines; lines l and l+1024
        // conflict.
        let a = LineAddr::new(7);
        let b = LineAddr::new(7 + 1024);
        p.access(0, MemRef::write(a));
        p.access(0, MemRef::read(b));
        assert_eq!(p.directory().state_of(a, 0), State::I, "victim retired");
        assert_eq!(p.directory().state_of(b, 0), State::E);
        // A re-access misses SRAM and vault: memory again.
        let r = p.access(0, MemRef::read(a));
        assert_eq!(r.served_by(), ServedBy::Memory);
        p.check().unwrap();
    }

    #[test]
    fn local_vault_hit_after_sram_eviction() {
        // 128 KiB direct-mapped vault (2048 sets) so the L1-thrashing
        // lines below never alias line 3's vault set.
        let mut p = PrivateMoesi::new(
            4,
            &PrivateMoesiConfig {
                vault_capacity: ByteSize::from_kib(128),
                scale: 1,
                ..PrivateMoesiConfig::default()
            },
        );
        let l = LineAddr::new(3);
        p.access(0, MemRef::read(l));
        // Thrash L1-D (64 KiB, 8-way at scale 1 = 128 sets; same-set
        // lines are 128 apart) to evict l from SRAM only.
        for i in 1..=8 {
            p.access(0, MemRef::read(LineAddr::new(3 + i * 128)));
        }
        let r = p.access(0, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::LocalVault);
        assert_eq!(r.steps, vec![Step::VaultAccess { node: 0 }]);
        p.check().unwrap();
    }

    #[test]
    fn disabled_o_forwarding_writes_back_and_degrades_to_s() {
        let mut p = PrivateMoesi::new(
            4,
            &PrivateMoesiConfig {
                vault_capacity: ByteSize::from_kib(64),
                scale: 1,
                o_state_forwarding: false,
                ..PrivateMoesiConfig::default()
            },
        );
        let l = LineAddr::new(42);
        p.access(0, MemRef::write(l));
        assert_eq!(p.directory().state_of(l, 0), State::M);
        let r = p.access(1, MemRef::read(l));
        // Data still forwards from the owner's vault, but the dirty line
        // goes back to memory and the owner degrades to S, never O.
        assert_eq!(r.served_by(), ServedBy::RemoteVault);
        assert!(r.background.contains(&Background::MemoryWrite));
        assert_eq!(p.directory().state_of(l, 0), State::S);
        assert_eq!(p.directory().state_of(l, 1), State::S);
        p.check().unwrap();
    }

    #[test]
    fn non_ideal_predictor_charges_failed_probe() {
        let mut p = PrivateMoesi::new(
            2,
            &PrivateMoesiConfig {
                vault_capacity: ByteSize::from_kib(64),
                scale: 1,
                ideal_miss_predict: false,
                ..PrivateMoesiConfig::default()
            },
        );
        let r = p.access(0, MemRef::read(LineAddr::new(1)));
        assert_eq!(r.steps.first(), Some(&Step::VaultAccess { node: 0 }));
    }

    #[test]
    fn stats_count_forwards_invalidations_and_evictions() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::write(l));
        p.access(1, MemRef::read(l)); // dirty forward, M -> O
        assert_eq!(p.stats().o_state_forwards.get(), 1);
        p.access(2, MemRef::write(l)); // invalidates owner 0 and sharer 1
        assert_eq!(p.stats().invalidations.get(), 2);
        // Vault conflict: 64 KiB direct-mapped = 1024 lines.
        p.access(2, MemRef::read(LineAddr::new(42 + 1024)));
        assert_eq!(p.stats().directory_evictions.get(), 1);
        assert!(p.stats().dirty_writebacks.get() >= 1, "dirty victim");
        p.reset_stats();
        assert_eq!(p.stats(), crate::CoherenceStats::default());
        p.check().unwrap();
    }

    #[test]
    fn probed_access_matches_unprobed_and_tiles_the_call() {
        let mut plain = small();
        let mut probed = small();
        let mut probe = crate::EngineProbe::new();
        let mut rng = 0xdead_beef_u64;
        let mut r = AccessResult::default();
        for i in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let core = (rng >> 33) as usize % 4;
            let line = LineAddr::new((rng >> 17) % 4096);
            let mr = if i % 3 == 0 {
                MemRef::write(line)
            } else {
                MemRef::read(line)
            };
            probed.access_into_probed(core, mr, &mut r, &mut probe);
            assert_eq!(plain.access(core, mr), r, "probe must not change results");
        }
        probed.check().unwrap();
        assert_eq!(probe.calls(), 2000);
        // Every access starts with an SRAM-probe lap; misses lap again
        // for the vault probe, so lookups meet or exceed the call count.
        assert!(probe.samples()[crate::EP_L1] >= probe.calls());
        assert!(probe.samples()[crate::EP_DIR] > 0);
        assert!(probe.samples()[crate::EP_FILL] > 0);
        assert!(probe.samples()[crate::EP_WB] > 0, "vault conflicts occur");
    }

    #[test]
    fn served_classification_is_always_set() {
        let mut p = small();
        let mut rng = 0x1234_5678_u64;
        for i in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let core = (rng >> 33) as usize % 4;
            let line = LineAddr::new((rng >> 17) % 4096);
            let mr = if i % 3 == 0 {
                MemRef::write(line)
            } else {
                MemRef::read(line)
            };
            let r = p.access(core, mr);
            let _ = r.served_by();
        }
        p.check().unwrap();
    }
}
