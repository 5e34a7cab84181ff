//! Duplicate-tag directory (Sec. V-B, Fig. 9).
//!
//! The directory is logically an N-way-associative tag store where N is
//! the core count: the way position of an entry encodes which core's
//! vault caches the block, so no sharing vector is needed. Finding the
//! sharers of a block reads all N ways; most updates touch one entry, but
//! a full-set transition (e.g. a block shared by every core moving to
//! exclusive) touches N.
//!
//! Physically the directory is distributed across the vaults in an
//! address-interleaved fashion; this structure is the *functional*
//! content, and the engine emits `DirLookup`/`DirUpdate` steps against the
//! home node so the simulator charges the DRAM accesses. The priced cost
//! is still Fig. 9's 3 bits per way: a `DirUpdate { ways }` step charges
//! one vault access per way touched.
//!
//! The functional entry for 1–64 nodes is one inline 16-byte value: the
//! holder mask plus the owner-like node and its state. That is lossless
//! under the MESI/MOESI single-writer rules: at most one node holds the
//! line in M, O, or E, and every other valid copy is S. So the state of
//! any node is derived as "the owner's stored state, S if masked, I
//! otherwise", and no per-node state vector is stored.

use crate::state::State;
use silo_types::hash::{fx_map_with_capacity, FxHashMap};
use silo_types::LineAddr;

/// Buckets reserved up front: enough to track the hot working set of a
/// scaled run without rehashing, small enough to be free at rest.
const PRESIZE_LINES: usize = 1 << 12;

/// Compact result of one directory lookup: the information the protocol
/// engines act on, without materializing the per-node state vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirView {
    /// Bitmask of nodes holding the line in any valid state.
    pub mask: u64,
    /// The node holding the line in an owner-like state (M, O, or E),
    /// with that state; at most one exists (protocol invariant).
    pub owner: Option<(usize, State)>,
}

impl DirView {
    /// The state of `node` in this view: the owner's state for the
    /// owner, S for any other holder, I otherwise. The same answer as
    /// [`DuplicateTagDirectory::state_of`] at the time of the lookup.
    #[inline]
    pub fn state_of(&self, node: usize) -> State {
        if self.mask >> node & 1 == 0 {
            return State::I;
        }
        match self.owner {
            Some((owner, state)) if owner == node => state,
            _ => State::S,
        }
    }
}

/// [`Entry::owner`] encoding: no owner-like holder. Its node byte (255)
/// matches no node id, so [`Entry::get`] needs no separate test for it.
const NO_OWNER: u16 = u16::MAX;

/// One tracked line: who holds it, and who owns it.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Bitmask of nodes holding the line in any valid state.
    mask: u64,
    /// `state.to_bits() << 8 | node` for the owner-like holder, or
    /// [`NO_OWNER`].
    owner: u16,
}

impl Entry {
    #[inline]
    fn pack_owner(node: usize, state: State) -> u16 {
        u16::from(state.to_bits()) << 8 | node as u16
    }

    /// The owner-like node's id, or 255 when there is none.
    #[inline]
    fn owner_node(self) -> usize {
        usize::from(self.owner & 0xFF)
    }

    #[inline]
    fn get(self, node: usize) -> State {
        if self.mask >> node & 1 == 0 {
            State::I
        } else if self.owner_node() == node {
            State::from_bits((self.owner >> 8) as u8)
        } else {
            State::S
        }
    }

    #[inline]
    fn owner(self) -> Option<(usize, State)> {
        (self.owner != NO_OWNER)
            .then(|| (self.owner_node(), State::from_bits((self.owner >> 8) as u8)))
    }

    fn unpack(self, n_nodes: usize) -> Vec<State> {
        (0..n_nodes).map(|n| self.get(n)).collect()
    }
}

/// The functional duplicate-tag directory: per line, one coherence state
/// per node (way position = node id).
#[derive(Clone, Debug)]
pub struct DuplicateTagDirectory {
    n_nodes: usize,
    entries: FxHashMap<LineAddr, Entry>,
    /// The first line on which [`DuplicateTagDirectory::set_state`]
    /// installed an owner-like state while another node still owned it.
    /// The entry keeps only the newer owner, so the violation is recorded
    /// here for [`DuplicateTagDirectory::check_invariants`].
    double_owner: Option<LineAddr>,
    lookups: u64,
    updates: u64,
}

impl DuplicateTagDirectory {
    /// Creates a directory for `n_nodes` vaults.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero or exceeds 64 (sharer masks are u64).
    pub fn new(n_nodes: usize) -> Self {
        assert!(
            (1..=64).contains(&n_nodes),
            "node count {n_nodes} outside [1, 64]"
        );
        DuplicateTagDirectory {
            n_nodes,
            entries: fx_map_with_capacity(PRESIZE_LINES),
            double_owner: None,
            lookups: 0,
            updates: 0,
        }
    }

    /// Number of nodes (directory ways).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// State of `line` at `node`.
    pub fn state_of(&self, line: LineAddr, node: usize) -> State {
        self.entries.get(&line).map_or(State::I, |e| e.get(node))
    }

    /// Records a directory lookup (sharer scan) and iterates the
    /// per-node states without allocating (I for absent).
    pub fn lookup_states(&mut self, line: LineAddr) -> impl Iterator<Item = State> + '_ {
        self.lookups += 1;
        let entry = self.entries.get(&line).copied();
        (0..self.n_nodes).map(move |n| entry.map_or(State::I, |e| e.get(n)))
    }

    /// Records a directory lookup and returns the compact per-line view
    /// the protocol engines act on: the holder bitmask and the owner-like
    /// node with its state (at most one, by the single-writer invariant).
    /// O(1): both fields are the stored entry.
    pub fn lookup_view(&mut self, line: LineAddr) -> DirView {
        self.lookups += 1;
        match self.entries.get(&line) {
            None => DirView {
                mask: 0,
                owner: None,
            },
            Some(e) => DirView {
                mask: e.mask,
                owner: e.owner(),
            },
        }
    }

    /// Sets the state of `line` at `node`, creating or garbage-collecting
    /// the entry as needed. Returns the previous state.
    ///
    /// Installing an owner-like state while a different node still owns
    /// the line breaks the single-writer rule; the entry keeps the new
    /// owner (the old one reads as S) and the line is reported by
    /// [`DuplicateTagDirectory::check_invariants`]. Engines therefore
    /// retire the old owner before installing a new one.
    pub fn set_state(&mut self, line: LineAddr, node: usize, state: State) -> State {
        assert!(node < self.n_nodes, "node {node} out of range");
        self.updates += 1;
        let bit = 1u64 << node;
        match self.entries.get_mut(&line) {
            Some(e) => {
                let prev = e.get(node);
                if state.is_valid() {
                    e.mask |= bit;
                } else {
                    e.mask &= !bit;
                }
                if state.is_ownerlike() {
                    if e.owner != NO_OWNER && e.owner_node() != node {
                        self.double_owner.get_or_insert(line);
                    }
                    e.owner = Entry::pack_owner(node, state);
                } else if e.owner_node() == node {
                    e.owner = NO_OWNER;
                }
                if e.mask == 0 {
                    self.entries.remove(&line);
                }
                prev
            }
            None => {
                if state.is_valid() {
                    let owner = if state.is_ownerlike() {
                        Entry::pack_owner(node, state)
                    } else {
                        NO_OWNER
                    };
                    self.entries.insert(line, Entry { mask: bit, owner });
                }
                State::I
            }
        }
    }

    /// The node holding the line in an owner-like state (M, O, or E), if
    /// any. At most one such node exists (protocol invariant).
    pub fn owner(&self, line: LineAddr) -> Option<usize> {
        self.entries.get(&line)?.owner().map(|(n, _)| n)
    }

    /// Bitmask of nodes holding the line in any valid state.
    pub fn holders_mask(&self, line: LineAddr) -> u64 {
        self.entries.get(&line).map_or(0, |e| e.mask)
    }

    /// Lowest-numbered node holding the line in any valid state,
    /// excluding `except`.
    pub fn first_holder_except(&self, line: LineAddr, except: usize) -> Option<usize> {
        let m = self.entries.get(&line)?.mask & !(1u64 << except);
        (m != 0).then(|| m.trailing_zeros() as usize)
    }

    /// True when no node caches the line.
    pub fn is_uncached(&self, line: LineAddr) -> bool {
        !self.entries.contains_key(&line)
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the directory tracks nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup operations performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Update operations performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Total valid copies tracked across all lines: the sum of holder
    /// populations. For an inclusive hierarchy (SILO's vaults) this must
    /// equal the sum of the per-node cache occupancies — the cross-layer
    /// occupancy invariant checked by the `--check` oracle.
    pub fn total_holders(&self) -> u64 {
        self.entries
            .values()
            .map(|e| u64::from(e.mask.count_ones()))
            .sum()
    }

    /// Checks the MOESI single-writer invariants for every tracked line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant:
    /// * at most one node in an owner-like state (M/O/E), as recorded by
    ///   [`DuplicateTagDirectory::set_state`];
    /// * no fully-invalid entries survive (garbage collection);
    /// * the owner-like node is one of the holders;
    /// * M and E never coexist with any other valid copy.
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(line) = self.double_owner {
            return Err(format!("{line}: 2 owner-like copies"));
        }
        for (line, e) in &self.entries {
            if e.mask == 0 {
                return Err(format!("{line}: empty entry not collected"));
            }
            let Some((owner, state)) = e.owner() else {
                continue;
            };
            if e.mask >> owner & 1 == 0 {
                return Err(format!(
                    "{line}: owner {owner} outside holder mask {:#x}",
                    e.mask
                ));
            }
            if matches!(state, State::M | State::E) && e.mask.count_ones() > 1 {
                return Err(format!("{line}: M/E coexists with other copies"));
            }
        }
        Ok(())
    }

    /// Test-only: installs a raw entry, bypassing the maintenance in
    /// [`DuplicateTagDirectory::set_state`] — so tests can construct the
    /// corrupt configurations (owner outside the mask, uncollected empty
    /// entry, M beside sharers) that `check_invariants` must reject.
    #[cfg(test)]
    fn install_raw_entry(&mut self, line: LineAddr, mask: u64, owner: Option<(usize, State)>) {
        let owner = owner.map_or(NO_OWNER, |(n, s)| Entry::pack_owner(n, s));
        self.entries.insert(line, Entry { mask, owner });
    }

    /// Iterates over tracked lines and their (unpacked) state vectors.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, Vec<State>)> + '_ {
        self.entries
            .iter()
            .map(|(l, e)| (*l, e.unpack(self.n_nodes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_lines_are_invalid_everywhere() {
        let mut d = DuplicateTagDirectory::new(4);
        assert_eq!(d.state_of(LineAddr::new(1), 0), State::I);
        assert!(d.is_uncached(LineAddr::new(1)));
        let states: Vec<State> = d.lookup_states(LineAddr::new(1)).collect();
        assert_eq!(states, vec![State::I; 4]);
        assert_eq!(d.lookups(), 1);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut d = DuplicateTagDirectory::new(4);
        assert_eq!(d.set_state(LineAddr::new(7), 2, State::M), State::I);
        assert_eq!(d.state_of(LineAddr::new(7), 2), State::M);
        assert_eq!(d.owner(LineAddr::new(7)), Some(2));
        assert_eq!(d.holders_mask(LineAddr::new(7)), 0b0100);
    }

    #[test]
    fn entry_garbage_collected_when_all_invalid() {
        let mut d = DuplicateTagDirectory::new(2);
        d.set_state(LineAddr::new(3), 0, State::S);
        assert_eq!(d.len(), 1);
        d.set_state(LineAddr::new(3), 0, State::I);
        assert_eq!(d.len(), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn setting_invalid_on_absent_line_is_noop() {
        let mut d = DuplicateTagDirectory::new(2);
        d.set_state(LineAddr::new(3), 1, State::I);
        assert!(d.is_empty());
        assert_eq!(d.updates(), 1);
    }

    #[test]
    fn owner_prefers_ownerlike_over_shared() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(9), 0, State::S);
        d.set_state(LineAddr::new(9), 3, State::O);
        assert_eq!(d.owner(LineAddr::new(9)), Some(3));
        assert_eq!(d.holders_mask(LineAddr::new(9)), 0b1001);
    }

    #[test]
    fn first_holder_except_skips_requester() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(9), 1, State::S);
        d.set_state(LineAddr::new(9), 2, State::S);
        assert_eq!(d.first_holder_except(LineAddr::new(9), 1), Some(2));
        assert_eq!(d.first_holder_except(LineAddr::new(9), 0), Some(1));
        d.set_state(LineAddr::new(9), 2, State::I);
        assert_eq!(d.first_holder_except(LineAddr::new(9), 1), None);
    }

    #[test]
    fn lookup_view_matches_vector_lookup() {
        let mut d = DuplicateTagDirectory::new(4);
        assert_eq!(
            d.lookup_view(LineAddr::new(1)),
            DirView {
                mask: 0,
                owner: None
            }
        );
        d.set_state(LineAddr::new(1), 0, State::S);
        d.set_state(LineAddr::new(1), 2, State::O);
        let v = d.lookup_view(LineAddr::new(1));
        assert_eq!(v.mask, 0b0101);
        assert_eq!(v.owner, Some((2, State::O)));
        assert_eq!(d.lookups(), 2);
        for n in 0..4 {
            assert_eq!(v.state_of(n), d.state_of(LineAddr::new(1), n), "node {n}");
        }
        d.set_state(LineAddr::new(1), 2, State::S);
        let v = d.lookup_view(LineAddr::new(1));
        assert_eq!(
            (v.state_of(0), v.state_of(2), v.state_of(3)),
            (State::S, State::S, State::I)
        );
    }

    #[test]
    fn invariants_catch_double_owner() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(5), 0, State::M);
        assert!(d.check_invariants().is_ok());
        d.set_state(LineAddr::new(5), 1, State::M);
        assert!(d.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_exclusive_with_sharer() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(5), 0, State::E);
        d.set_state(LineAddr::new(5), 1, State::S);
        assert!(d.check_invariants().is_err());
    }

    #[test]
    fn owned_with_sharers_is_legal() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(5), 0, State::O);
        d.set_state(LineAddr::new(5), 1, State::S);
        d.set_state(LineAddr::new(5), 2, State::S);
        assert!(d.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_bounds_checked() {
        DuplicateTagDirectory::new(2).set_state(LineAddr::new(0), 5, State::S);
    }

    #[test]
    fn iter_exposes_entries() {
        let mut d = DuplicateTagDirectory::new(2);
        d.set_state(LineAddr::new(1), 0, State::S);
        d.set_state(LineAddr::new(2), 1, State::M);
        assert_eq!(d.iter().count(), 2);
    }

    #[test]
    fn large_entries_track_nodes_beyond_sixteen() {
        // Every operation at node ids above 16.
        let mut d = DuplicateTagDirectory::new(32);
        assert_eq!(d.set_state(LineAddr::new(7), 31, State::O), State::I);
        d.set_state(LineAddr::new(7), 0, State::S);
        d.set_state(LineAddr::new(7), 17, State::S);
        assert_eq!(d.state_of(LineAddr::new(7), 31), State::O);
        assert_eq!(d.state_of(LineAddr::new(7), 17), State::S);
        assert_eq!(d.state_of(LineAddr::new(7), 16), State::I);
        assert_eq!(d.owner(LineAddr::new(7)), Some(31));
        assert_eq!(d.holders_mask(LineAddr::new(7)), 1 << 31 | 1 << 17 | 1);
        let v = d.lookup_view(LineAddr::new(7));
        assert_eq!(v.mask, 1 << 31 | 1 << 17 | 1);
        assert_eq!(v.owner, Some((31, State::O)));
        assert_eq!(d.first_holder_except(LineAddr::new(7), 0), Some(17));
        assert_eq!(d.lookup_states(LineAddr::new(7)).count(), 32);
        assert!(d.check_invariants().is_ok());
    }

    #[test]
    fn lookup_states_matches_lookup_and_counts_once() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(11), 1, State::O);
        d.set_state(LineAddr::new(11), 3, State::S);
        let via_iter: Vec<State> = d.lookup_states(LineAddr::new(11)).collect();
        let via_state_of: Vec<State> = (0..4).map(|n| d.state_of(LineAddr::new(11), n)).collect();
        assert_eq!(via_iter, via_state_of);
        assert_eq!(via_iter, vec![State::I, State::O, State::I, State::S]);
        assert_eq!(d.lookups(), 1, "a lookup counts once; state_of is free");
        // Absent lines iterate all-I without creating an entry.
        assert_eq!(
            d.lookup_states(LineAddr::new(99))
                .filter(|s| s.is_valid())
                .count(),
            0
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn total_holders_sums_valid_copies() {
        let mut d = DuplicateTagDirectory::new(4);
        assert_eq!(d.total_holders(), 0);
        d.set_state(LineAddr::new(1), 0, State::O);
        d.set_state(LineAddr::new(1), 2, State::S);
        d.set_state(LineAddr::new(2), 3, State::M);
        assert_eq!(d.total_holders(), 3);
        d.set_state(LineAddr::new(1), 2, State::I);
        assert_eq!(d.total_holders(), 2);
    }

    /// Each distinct `check_invariants` error message fires for a
    /// deliberately inconsistent entry at a small node count.
    #[test]
    fn small_entry_corruptions_name_each_invariant() {
        let l = LineAddr::new(77);
        // Two O holders: the entry keeps only the second (the first
        // reads as S, a legal O+S line), so only the record shows it.
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(l, 0, State::O);
        d.set_state(l, 1, State::O);
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("2 owner-like copies"), "{e}");

        // O holder whose mask bit was dropped.
        let mut d = DuplicateTagDirectory::new(4);
        d.install_raw_entry(l, 0b0010, Some((0, State::O)));
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("owner 0 outside holder mask"), "{e}");

        // All-invalid entry that survived garbage collection.
        let mut d = DuplicateTagDirectory::new(4);
        d.install_raw_entry(l, 0, None);
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("empty entry not collected"), "{e}");

        // M coexisting with a sharer (SWMR broken).
        let mut d = DuplicateTagDirectory::new(4);
        d.install_raw_entry(l, 0b0011, Some((0, State::M)));
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("M/E coexists"), "{e}");
    }

    /// The same corruptions above 16 nodes, at node ids beyond 16.
    #[test]
    fn large_entry_corruptions_name_each_invariant() {
        let l = LineAddr::new(88);
        let n = 20;

        let mut d = DuplicateTagDirectory::new(n);
        d.set_state(l, 17, State::O);
        d.set_state(l, 19, State::O);
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("2 owner-like copies"), "{e}");

        let mut d = DuplicateTagDirectory::new(n);
        d.install_raw_entry(l, 1 << 3, Some((18, State::O)));
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("owner 18 outside holder mask"), "{e}");

        let mut d = DuplicateTagDirectory::new(n);
        d.install_raw_entry(l, 1 << 2 | 1 << 19, Some((19, State::E)));
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("M/E coexists"), "{e}");
    }

    #[test]
    fn entry_is_at_most_sixteen_bytes() {
        assert!(std::mem::size_of::<Entry>() <= 16);
    }

    /// One legal protocol transition applied to a naive per-node state
    /// vector: the reference the packed directory is compared against.
    /// Returns the `(node, state)` writes in the order an engine issues
    /// them — every retiring owner before the new one.
    fn reference_step(v: &mut [State], node: usize, op: u64) -> Vec<(usize, State)> {
        let before = v.to_vec();
        match op % 4 {
            // Read: a dirty owner keeps supplying as O (MOESI) or
            // writes back and degrades to S (MESI); E degrades to S.
            0 | 1 if !v[node].is_valid() => {
                let forward = op % 4 == 0;
                let owner = v.iter().position(|s| s.is_ownerlike());
                let any = v.iter().any(|s| s.is_valid());
                if let Some(o) = owner {
                    v[o] = match v[o] {
                        State::M | State::O if forward => State::O,
                        _ => State::S,
                    };
                }
                v[node] = if any { State::S } else { State::E };
            }
            0 | 1 => {}
            // Write: invalidate every other holder, take M.
            2 => {
                v.iter_mut().for_each(|s| *s = State::I);
                v[node] = State::M;
            }
            // Eviction.
            _ => v[node] = State::I,
        }
        let mut writes: Vec<(usize, State)> = (0..v.len())
            .filter(|&n| v[n] != before[n])
            .map(|n| (n, v[n]))
            .collect();
        writes.sort_by_key(|&(_, s)| s.is_ownerlike());
        writes
    }

    #[test]
    fn directory_matches_a_naive_state_vector_under_random_legal_transitions() {
        let mut seed = 0x5EED_u64;
        let mut next = || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        const LINES: u64 = 6;
        for n in [4, 16, 20, 64] {
            let mut d = DuplicateTagDirectory::new(n);
            let mut model = vec![vec![State::I; n]; LINES as usize];
            for step in 0..20_000 {
                let li = next() % LINES;
                let line = LineAddr::new(li);
                let v = &mut model[li as usize];
                let node = (next() % n as u64) as usize;
                let before = v.clone();
                for (w, s) in reference_step(v, node, next()) {
                    assert_eq!(d.set_state(line, w, s), before[w], "n={n} step {step}");
                }
                d.check_invariants()
                    .unwrap_or_else(|e| panic!("n={n} step {step}: {e}"));

                let mask = v
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_valid())
                    .fold(0u64, |m, (i, _)| m | 1 << i);
                let owner = v.iter().position(|s| s.is_ownerlike()).map(|o| (o, v[o]));
                for (i, &s) in v.iter().enumerate() {
                    assert_eq!(d.state_of(line, i), s, "n={n} step {step} node {i}");
                }
                assert_eq!(d.lookup_view(line), DirView { mask, owner });
                assert_eq!(d.holders_mask(line), mask);
                assert_eq!(d.owner(line), owner.map(|(o, _)| o));
                let except = (next() % n as u64) as usize;
                let rest = mask & !(1 << except);
                assert_eq!(
                    d.first_holder_except(line, except),
                    (rest != 0).then(|| rest.trailing_zeros() as usize)
                );
                let copies: usize = model
                    .iter()
                    .map(|v| v.iter().filter(|s| s.is_valid()).count())
                    .sum();
                assert_eq!(d.total_holders(), copies as u64);
                let live = model.iter().filter(|v| v.iter().any(|s| s.is_valid()));
                assert_eq!(d.len(), live.count());
            }
        }
    }

    #[test]
    fn well_formed_states_pass_the_extended_invariants() {
        let mut d = DuplicateTagDirectory::new(20);
        d.set_state(LineAddr::new(1), 0, State::O);
        d.set_state(LineAddr::new(1), 17, State::S);
        d.set_state(LineAddr::new(2), 19, State::M);
        d.set_state(LineAddr::new(3), 4, State::E);
        d.check_invariants().unwrap();
    }

    #[test]
    fn large_entries_garbage_collect_and_drop_the_owner_cache() {
        let mut d = DuplicateTagDirectory::new(20);
        d.set_state(LineAddr::new(3), 19, State::M);
        assert_eq!(d.lookup_view(LineAddr::new(3)).owner, Some((19, State::M)));
        // Downgrading the owner clears the owner but keeps the entry;
        // invalidating the last copy collects it.
        d.set_state(LineAddr::new(3), 19, State::S);
        assert_eq!(d.lookup_view(LineAddr::new(3)).owner, None);
        assert_eq!(d.holders_mask(LineAddr::new(3)), 1 << 19);
        assert_eq!(d.set_state(LineAddr::new(3), 19, State::I), State::S);
        assert!(d.is_empty());
    }
}
