//! The conventional baseline: per-core L1s (and optional L2s) over a
//! shared, banked, non-inclusive NUCA LLC with an embedded MESI directory
//! tracking the SRAM-level copies (Sec. V-B).
//!
//! Banks are address-interleaved across the mesh nodes (one bank per
//! tile, as in the paper's Table II baseline). The directory at each bank
//! tracks which cores' SRAM hierarchies hold the line and in what MESI
//! state; dirty L1 victims are written back into the LLC, dirty LLC
//! victims to memory. Because the LLC is non-inclusive, an LLC eviction
//! does not recall SRAM copies — the directory keeps tracking them.

use crate::directory::DuplicateTagDirectory;
use crate::node::{Node, NodeSpec, SramHit};
use crate::state::State;
use crate::stats::CoherenceStats;
use crate::step::{AccessResult, Background, ServedBy, Step};
use crate::{EP_DIR, EP_FILL, EP_L1, EP_WB};
use silo_cache::{ReplacementPolicy, SetAssocCache};
use silo_obs::{Lap, NoProbe};
use silo_types::{set_bits, ByteSize, LineAddr, MemRef};

/// Configuration of the shared-LLC baseline.
#[derive(Clone, Copy, Debug)]
pub struct SharedMesiConfig {
    /// Per-core SRAM geometry.
    pub node_spec: NodeSpec,
    /// Aggregate LLC capacity (16 MiB SRAM NUCA in Table II).
    pub llc_capacity: ByteSize,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Capacity-scaling knob shared with the workload generators.
    pub scale: u64,
}

impl Default for SharedMesiConfig {
    fn default() -> Self {
        SharedMesiConfig {
            node_spec: NodeSpec::two_level(),
            llc_capacity: ByteSize::from_mib(16),
            llc_ways: 16,
            scale: 64,
        }
    }
}

/// Per-LLC-line payload: dirty with respect to memory.
type LlcLine = bool;

/// The shared-LLC MESI engine: N SRAM nodes over N address-interleaved
/// LLC banks with an embedded duplicate-tag directory of SRAM copies.
#[derive(Clone, Debug)]
pub struct SharedMesi {
    nodes: Vec<Node>,
    banks: Vec<SetAssocCache<LlcLine>>,
    /// Tracks SRAM-level copies; way position = core id.
    dir: DuplicateTagDirectory,
    stats: CoherenceStats,
}

impl SharedMesi {
    /// Builds the baseline hierarchy for `n_cores` cores, splitting the
    /// (scaled) LLC capacity evenly across `n_cores` banks (set counts
    /// are floored to powers of two).
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero or exceeds 64.
    pub fn new(n_cores: usize, cfg: &SharedMesiConfig) -> Self {
        let total = cfg.llc_capacity.scaled_down(cfg.scale);
        let per_bank = ByteSize::from_bytes(total.as_bytes() / n_cores as u64);
        SharedMesi {
            nodes: (0..n_cores)
                .map(|_| Node::new(&cfg.node_spec, cfg.scale))
                .collect(),
            banks: (0..n_cores)
                .map(|_| {
                    SetAssocCache::with_capacity_rounded(
                        per_bank,
                        cfg.llc_ways,
                        ReplacementPolicy::Lru,
                    )
                })
                .collect(),
            dir: DuplicateTagDirectory::new(n_cores),
            stats: CoherenceStats::default(),
        }
    }

    /// Coherence event counters since construction (or the last
    /// [`SharedMesi::reset_stats`]). `o_state_forwards` stays zero:
    /// MESI has no O state.
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Zeroes the event counters without touching any protocol state
    /// (the telemetry warmup boundary).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Number of cores (and LLC banks).
    pub fn n_cores(&self) -> usize {
        self.nodes.len()
    }

    /// LLC bank (and mesh node) serving a line; same interleaving as the
    /// SILO directory homes so both systems see the same traffic spread.
    pub fn bank_of(&self, line: LineAddr) -> usize {
        silo_types::interleave(line.scramble(), self.banks.len())
    }

    /// Host-cache prefetch hint for an upcoming access by any core to
    /// `line`: warms the home bank's set. Changes no simulated state.
    #[inline]
    pub fn prefetch_hint(&self, line: LineAddr) {
        self.banks[self.bank_of(line)].prefetch(line);
    }

    /// The functional directory of SRAM copies.
    pub fn directory(&self) -> &DuplicateTagDirectory {
        &self.dir
    }

    /// True when `core`'s SRAM hierarchy holds the line. Read-only
    /// introspection for the model checker.
    pub fn sram_contains(&self, core: usize, line: LineAddr) -> bool {
        self.nodes[core].contains(line)
    }

    /// The LLC's view of `line`: `Some(dirty)` when a bank holds it.
    /// Read-only: no hit/miss or recency accounting.
    pub fn llc_state(&self, line: LineAddr) -> Option<bool> {
        self.banks[self.bank_of(line)].peek(line).copied()
    }

    /// Executes one memory reference from `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, mr: MemRef) -> AccessResult {
        let mut r = AccessResult::default();
        self.access_into(core, mr, &mut r);
        r
    }

    /// [`SharedMesi::access`] writing into a caller-owned result, so a
    /// hot loop can reuse the step buffers instead of allocating two
    /// vectors per access.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_into(&mut self, core: usize, mr: MemRef, r: &mut AccessResult) {
        self.access_into_probed(core, mr, r, &mut NoProbe);
    }

    /// [`SharedMesi::access_into`] with sub-phase wall-clock attribution:
    /// every segment of the access is lapped into one of the
    /// [`crate::ENGINE_SUBPHASES`] buckets of `probe`, tiling the call
    /// exactly. This is the one access body: with [`NoProbe`] every lap
    /// compiles out, which is how [`SharedMesi::access_into`] shares it, so
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

    /// Write to an SRAM-resident line: silent E->M, or an upgrade through
    /// the home bank's directory for S copies.
    fn write_permission(&mut self, core: usize, line: LineAddr, r: &mut AccessResult) {
        match self.dir.state_of(line, core) {
            State::M => {}
            State::E => {
                self.dir.set_state(line, core, State::M);
            }
            State::S => self.upgrade(core, line, r),
            State::I => unreachable!("SRAM-resident line must be directory-tracked"),
            State::O => unreachable!("MESI never reaches O"),
        }
    }

    /// Write-upgrade: invalidate the other SRAM holders via the home
    /// bank's directory and take M.
    fn upgrade(&mut self, core: usize, line: LineAddr, r: &mut AccessResult) {
        r.llc_access = true;
        self.stats.upgrades.inc();
        let bank = self.bank_of(line);
        r.steps.push(Step::Net {
            from: core,
            to: bank,
        });
        r.steps.push(Step::LlcBank { bank });
        let mask = self.dir.lookup_view(line).mask & !(1u64 << core);
        if mask != 0 {
            r.steps.push(Step::Invalidations { home: bank, mask });
            self.invalidate_holders(line, mask);
        }
        r.steps.push(Step::Net {
            from: bank,
            to: core,
        });
        self.dir.set_state(line, core, State::M);
        r.background.push(Background::DirUpdate {
            home: bank,
            ways: mask.count_ones() + 1,
        });
    }

    /// Handles an access that missed every SRAM level.
    fn sram_miss<P: Lap>(&mut self, core: usize, mr: MemRef, r: &mut AccessResult, probe: &mut P) {
        r.llc_access = true;
        let line = mr.line;
        let is_write = mr.kind.is_write();
        let bank = self.bank_of(line);
        r.steps.push(Step::Net {
            from: core,
            to: bank,
        });
        r.steps.push(Step::LlcBank { bank });

        let view = self.dir.lookup_view(line);
        // The requester can hold the line in the *other* L1 (an ifetch
        // probing the L1-I while the line sits in the L1-D): its own state
        // survives and no remote work is needed for reads.
        let own = view.state_of(core);
        let owner = view.owner.filter(|&(o, _)| o != core);
        let mask = view.mask & !(1u64 << core);
        let mut dir_ways = 1u32;

        let new_state = if own.is_valid() {
            r.steps.push(Step::Net {
                from: bank,
                to: core,
            });
            r.served = Some(ServedBy::SharedLlc);
            if is_write && !own.can_write_silently() {
                if mask != 0 {
                    r.steps.push(Step::Invalidations { home: bank, mask });
                    self.invalidate_holders(line, mask);
                    dir_ways += mask.count_ones();
                }
                State::M
            } else if is_write {
                State::M
            } else {
                own
            }
        } else if let Some((o, ostate)) = owner {
            // Cache-to-cache forward through the LLC directory.
            r.steps.push(Step::Net { from: bank, to: o });
            r.steps.push(Step::L1Probe { node: o });
            r.steps.push(Step::Net { from: o, to: core });
            r.served = Some(ServedBy::SharedLlc);
            if is_write {
                // MESI invariant: an M/E owner has no co-sharers, so the
                // forward itself carries the only invalidation.
                self.invalidate_holders(line, 1u64 << o);
                dir_ways += 1;
                State::M
            } else {
                // Owner degrades to S; a dirty owner writes back into the
                // LLC so the S copies stay clean (MESI has no O state).
                if ostate == State::M {
                    self.fill_llc(line, true, r, probe, EP_DIR);
                    r.background.push(Background::L1Writeback { node: o });
                }
                self.dir.set_state(line, o, State::S);
                dir_ways += 1;
                State::S
            }
        } else if self.banks[bank].get(line).is_some() {
            // LLC data hit.
            r.steps.push(Step::Net {
                from: bank,
                to: core,
            });
            r.served = Some(ServedBy::SharedLlc);
            if is_write {
                if mask != 0 {
                    r.steps.push(Step::Invalidations { home: bank, mask });
                    self.invalidate_holders(line, mask);
                    dir_ways += mask.count_ones();
                }
                State::M
            } else if mask == 0 {
                State::E
            } else {
                State::S
            }
        } else {
            // LLC miss with no owner: memory supplies the data. (Sharers
            // may survive in SRAM because the LLC is non-inclusive; their
            // copies are clean, so memory is current.)
            r.steps.push(Step::Memory);
            r.steps.push(Step::Net {
                from: bank,
                to: core,
            });
            r.served = Some(ServedBy::Memory);
            self.fill_llc(line, false, r, probe, EP_DIR);
            if is_write {
                if mask != 0 {
                    r.steps.push(Step::Invalidations { home: bank, mask });
                    self.invalidate_holders(line, mask);
                    dir_ways += mask.count_ones();
                }
                State::M
            } else if mask == 0 {
                State::E
            } else {
                State::S
            }
        };

        self.dir.set_state(line, core, new_state);
        r.background.push(Background::DirUpdate {
            home: bank,
            ways: dir_ways,
        });
        probe.lap(EP_DIR);
        self.fill_sram(core, line, mr, r, probe);
    }

    /// Installs `line` into its LLC bank with the given dirty bit,
    /// accounting the fill and any dirty-victim writeback to memory.
    /// Whatever ran since the caller's last lap is attributed to `seg`
    /// before the insert; the insert itself lands in the fill bucket.
    fn fill_llc<P: Lap>(
        &mut self,
        line: LineAddr,
        dirty: bool,
        r: &mut AccessResult,
        probe: &mut P,
        seg: usize,
    ) {
        probe.lap(seg);
        let bank = self.bank_of(line);
        let dirty_writeback = match self.banks[bank].insert(line, dirty) {
            Some(victim) => victim.payload,
            None => false,
        };
        if dirty_writeback {
            self.stats.dirty_writebacks.inc();
        }
        r.background.push(Background::LlcFill {
            bank,
            dirty_writeback,
        });
        probe.lap(EP_FILL);
    }

    /// Fills the SRAM levels; a node-level victim leaves the directory,
    /// and a dirty victim is written back into the LLC.
    fn fill_sram<P: Lap>(
        &mut self,
        core: usize,
        line: LineAddr,
        mr: MemRef,
        r: &mut AccessResult,
        probe: &mut P,
    ) {
        let victim = self.nodes[core].fill(line, mr.kind);
        probe.lap(EP_FILL);
        if let Some(victim) = victim {
            let prev = self.dir.set_state(victim, core, State::I);
            if prev.is_valid() {
                self.stats.directory_evictions.inc();
            }
            if prev == State::M {
                self.fill_llc(victim, true, r, probe, EP_WB);
                r.background.push(Background::L1Writeback { node: core });
            }
            probe.lap(EP_WB);
        }
    }

    /// Invalidates the SRAM copies named by `mask` and retires their
    /// directory entries. A dirty invalidated copy needs no writeback —
    /// it is superseded by the requester's M copy.
    fn invalidate_holders(&mut self, line: LineAddr, mask: u64) {
        self.stats.invalidations.add(u64::from(mask.count_ones()));
        for node in set_bits(mask) {
            self.nodes[node].invalidate(line);
            self.dir.set_state(line, node, State::I);
        }
    }

    /// Verifies the protocol invariants: MESI directory invariants (no O
    /// state, single writer) and directory/SRAM agreement.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check(&self) -> Result<(), String> {
        self.dir.check_invariants()?;
        for (bank, b) in self.banks.iter().enumerate() {
            if b.len() as u64 > b.capacity_lines() {
                return Err(format!(
                    "bank {bank}: {} resident lines exceed capacity {}",
                    b.len(),
                    b.capacity_lines()
                ));
            }
        }
        for (line, states) in self.dir.iter() {
            for (core, s) in states.iter().enumerate() {
                if *s == State::O {
                    return Err(format!("{line}: MESI directory holds O at {core}"));
                }
                if s.is_valid() && !self.nodes[core].contains(line) {
                    return Err(format!("{line}: directory {s} at {core} but SRAM misses"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_types::{AccessKind, MemRef};

    fn small() -> SharedMesi {
        SharedMesi::new(
            4,
            &SharedMesiConfig {
                llc_capacity: ByteSize::from_kib(256),
                scale: 1,
                ..SharedMesiConfig::default()
            },
        )
    }

    #[test]
    fn cold_read_misses_to_memory_and_fills_llc() {
        let mut m = small();
        let l = LineAddr::new(42);
        let r = m.access(0, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::Memory);
        assert!(r.llc_access);
        assert_eq!(m.directory().state_of(l, 0), State::E);
        assert!(r
            .background
            .iter()
            .any(|b| matches!(b, Background::LlcFill { .. })));
        m.check().unwrap();
    }

    #[test]
    fn second_core_hits_llc() {
        let mut m = small();
        let l = LineAddr::new(42);
        m.access(0, MemRef::read(l));
        // Core 0 holds E in L1: forward through the LLC directory.
        let r = m.access(1, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::SharedLlc);
        assert_eq!(m.directory().state_of(l, 0), State::S);
        assert_eq!(m.directory().state_of(l, 1), State::S);
        m.check().unwrap();
    }

    #[test]
    fn dirty_forward_writes_back_into_llc() {
        let mut m = small();
        let l = LineAddr::new(42);
        m.access(0, MemRef::write(l));
        assert_eq!(m.directory().state_of(l, 0), State::M);
        let r = m.access(1, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::SharedLlc);
        assert!(r
            .background
            .iter()
            .any(|b| matches!(b, Background::L1Writeback { .. })));
        assert_eq!(m.directory().state_of(l, 0), State::S);
        assert_eq!(m.directory().state_of(l, 1), State::S);
        m.check().unwrap();
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut m = small();
        let l = LineAddr::new(42);
        m.access(0, MemRef::read(l));
        m.access(1, MemRef::read(l));
        m.access(2, MemRef::read(l));
        let r = m.access(3, MemRef::write(l));
        assert!(r
            .steps
            .iter()
            .any(|s| matches!(s, Step::Invalidations { .. })));
        for core in 0..3 {
            assert_eq!(m.directory().state_of(l, core), State::I);
        }
        assert_eq!(m.directory().state_of(l, 3), State::M);
        m.check().unwrap();
    }

    #[test]
    fn upgrade_on_sram_write_hit() {
        let mut m = small();
        let l = LineAddr::new(42);
        m.access(0, MemRef::read(l));
        m.access(1, MemRef::read(l));
        let r = m.access(0, MemRef::write(l));
        assert_eq!(r.served_by(), ServedBy::L1);
        assert!(r.llc_access);
        assert_eq!(m.directory().state_of(l, 0), State::M);
        assert_eq!(m.directory().state_of(l, 1), State::I);
        m.check().unwrap();
    }

    #[test]
    fn ifetch_of_data_resident_line_stays_local_state() {
        let mut m = small();
        let l = LineAddr::new(42);
        m.access(0, MemRef::read(l));
        let mr = MemRef {
            line: l,
            kind: AccessKind::IFetch,
            gap_instructions: 0,
            dependent: false,
        };
        let r = m.access(0, mr);
        assert_eq!(r.served_by(), ServedBy::SharedLlc);
        assert_eq!(m.directory().state_of(l, 0), State::E);
        m.check().unwrap();
    }

    #[test]
    fn l1i_eviction_keeps_directory_entry_while_l1d_holds_line() {
        let mut m = small();
        let l = LineAddr::new(5);
        let ifetch = |line| MemRef {
            line,
            kind: AccessKind::IFetch,
            gap_instructions: 0,
            dependent: false,
        };
        m.access(0, ifetch(l));
        m.access(0, MemRef::read(l)); // now in both L1-I and L1-D
                                      // Evict l from the L1-I (128 sets at scale 1) only.
        for i in 1..=8 {
            m.access(0, ifetch(LineAddr::new(5 + i * 128)));
        }
        assert_eq!(
            m.directory().state_of(l, 0),
            State::E,
            "L1-D copy must keep the directory entry alive"
        );
        // The write must hit the surviving copy and upgrade silently.
        let r = m.access(0, MemRef::write(l));
        assert_eq!(r.served_by(), ServedBy::L1);
        assert_eq!(m.directory().state_of(l, 0), State::M);
        m.check().unwrap();
    }

    #[test]
    fn llc_is_non_inclusive_of_sram() {
        // A dirty L1 victim is written back to the LLC and the directory
        // entry retires; re-reading then hits the LLC.
        let mut m = small();
        // L1-D at scale 1 is 64 KiB 8-way = 128 sets; fill 9 lines of the
        // same set to evict the first.
        let l = LineAddr::new(5);
        m.access(0, MemRef::write(l));
        for i in 1..=8 {
            m.access(0, MemRef::write(LineAddr::new(5 + i * 128)));
        }
        assert_eq!(m.directory().state_of(l, 0), State::I, "L1 victim retired");
        let r = m.access(0, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::SharedLlc);
        m.check().unwrap();
    }

    #[test]
    fn stats_count_upgrades_and_invalidations_without_o_forwards() {
        let mut m = small();
        let l = LineAddr::new(42);
        m.access(0, MemRef::read(l));
        m.access(1, MemRef::read(l));
        m.access(0, MemRef::write(l)); // upgrade, invalidates core 1
        let s = m.stats();
        assert_eq!(s.upgrades.get(), 1);
        assert_eq!(s.invalidations.get(), 1);
        assert_eq!(s.o_state_forwards.get(), 0, "MESI has no O state");
        m.reset_stats();
        assert_eq!(m.stats(), crate::CoherenceStats::default());
        m.check().unwrap();
    }

    #[test]
    fn probed_access_matches_unprobed_and_tiles_the_call() {
        let mut plain = small();
        let mut probed = small();
        let mut probe = crate::EngineProbe::new();
        let mut rng = 0xfeed_face_u64;
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
        assert!(probe.samples()[crate::EP_L1] >= probe.calls());
        assert!(probe.samples()[crate::EP_DIR] > 0);
        assert!(probe.samples()[crate::EP_FILL] > 0);
    }

    #[test]
    fn served_classification_is_always_set() {
        let mut m = small();
        let mut rng = 0x8765_4321_u64;
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
            let r = m.access(core, mr);
            let _ = r.served_by();
        }
        m.check().unwrap();
    }
}
