//! Set-associative cache array with pluggable replacement.
//!
//! The array stores an arbitrary payload per resident line (coherence
//! state, dirty bit, ...). Small arrays are flat slot arrays indexed by
//! set; large ones allocate sets lazily in a hash map so that
//! multi-hundred-MB caches cost memory proportional to the lines actually
//! touched, which is what makes full-capacity vault simulation cheap.

use silo_types::hash::{fx_map_with_capacity, FxHashMap};
use silo_types::{ByteSize, LineAddr};

/// Upper bound on the number of set buckets reserved up front.
///
/// Pre-sizing avoids rehash-and-move cycles while a run warms the
/// cache, but a full-capacity reservation would defeat the sparse
/// design (a scale-1 vault has millions of sets, almost all untouched).
/// 4096 buckets covers every SRAM-sized array completely and gives the
/// large DRAM-vault tables a rehash-free head start at negligible
/// memory cost.
const PRESIZE_SETS: u64 = 1 << 12;

/// Replacement policy for a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the paper's baseline LLC policy, Table II).
    #[default]
    Lru,
    /// Pseudo-random (deterministic, hash-of-line based).
    Random,
}

/// A line evicted by an insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictionVictim<P> {
    /// The evicted line.
    pub line: LineAddr,
    /// The payload it carried.
    pub payload: P,
}

#[derive(Clone, Debug)]
struct Way<P> {
    line: LineAddr,
    payload: P,
    /// Recency stamp; larger is more recent.
    stamp: u64,
}

/// Storage-dense arrays up to this many lines (`sets * ways`) skip the
/// hash map for a flat slot vector indexed by set: every probe becomes
/// an offset instead of a hash + bucket walk. 64 Ki lines covers every
/// SRAM array and the scale-64 DRAM vaults at a few MB apiece, while
/// full-scale vaults (millions of lines) stay sparse.
const DENSE_MAX_LINES: u64 = 1 << 16;

/// Backing store, specialized by geometry.
///
/// * `DenseDirect` / `Dense` — flat `sets * ways` slots with set `s` at
///   `[s*ways, (s+1)*ways)`, for small arrays (every probe on the
///   simulated LLC path hits one of these, so these are the hot
///   layouts).
/// * `Direct` — sparse direct-mapped (`ways == 1`, e.g. a full-scale
///   SILO vault, Sec. V-A): the single way inline in the map entry.
/// * `Assoc` — sparse set-associative: lazily allocated way lists.
#[derive(Clone, Debug)]
enum Table<P> {
    /// Direct-mapped dense: one `(line, payload)` slot per set, no
    /// recency stamp — with a single way the victim is always the sole
    /// resident line, so recency is unobservable and the slot shrinks
    /// to half a `Way`. This is the layout of every scale-64 vault, the
    /// hottest array in a SILO run.
    DenseDirect(Box<[Option<(LineAddr, P)>]>),
    /// Multi-way LRU dense, struct of arrays, so a set's tag scan reads
    /// one run of `u64`s. Slot `i` is empty when `stamps[i] == 0` (live
    /// stamps start at 1), and then `payloads[i]` is `None` and
    /// `tags[i]` is stale. Every operation is one pass over the set:
    /// the fill pass looks for the line and, at once, the first minimum
    /// stamp, which is the first empty slot if there is one and the LRU
    /// way otherwise. Stamps are globally unique, so the victim is
    /// fixed by stamp value alone and matches the sparse layouts'
    /// choice. Not used for `Random` arrays, whose victim pick depends
    /// on slot order.
    Dense {
        tags: Box<[LineAddr]>,
        stamps: Box<[u64]>,
        payloads: Box<[Option<P>]>,
    },
    Direct(FxHashMap<u64, Way<P>>),
    Assoc(FxHashMap<u64, Vec<Way<P>>>),
}

/// A set-associative cache keyed by [`LineAddr`] with payload `P`.
///
/// With `ways == 1` this degenerates to the direct-mapped organization
/// SILO uses for its DRAM cache vaults (Sec. V-A).
///
/// # Examples
///
/// ```
/// use silo_cache::{ReplacementPolicy, SetAssocCache};
/// use silo_types::{ByteSize, LineAddr};
///
/// let mut l1: SetAssocCache<()> =
///     SetAssocCache::with_capacity(ByteSize::from_kib(64), 8, ReplacementPolicy::Lru);
/// assert!(l1.get(LineAddr::new(42)).is_none());
/// l1.insert(LineAddr::new(42), ());
/// assert!(l1.get(LineAddr::new(42)).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache<P> {
    sets: u64,
    ways: usize,
    policy: ReplacementPolicy,
    table: Table<P>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<P> SetAssocCache<P> {
    /// Creates a cache with an explicit set count and associativity.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: u64, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "need at least one way");
        let buckets = sets.min(PRESIZE_SETS) as usize;
        let lines = sets.saturating_mul(ways as u64);
        let table = if lines <= DENSE_MAX_LINES && ways == 1 {
            Table::DenseDirect(
                std::iter::repeat_with(|| None)
                    .take(lines as usize)
                    .collect(),
            )
        } else if lines <= DENSE_MAX_LINES && policy == ReplacementPolicy::Lru {
            Table::Dense {
                tags: vec![LineAddr::new(0); lines as usize].into(),
                stamps: vec![0; lines as usize].into(),
                payloads: std::iter::repeat_with(|| None)
                    .take(lines as usize)
                    .collect(),
            }
        } else if ways == 1 {
            Table::Direct(fx_map_with_capacity(buckets))
        } else {
            Table::Assoc(fx_map_with_capacity(buckets))
        };
        SetAssocCache {
            sets,
            ways,
            policy,
            table,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Creates a cache sized for `capacity` with the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is not a power of two (capacities
    /// and associativities in this workspace are powers of two) or if the
    /// capacity is smaller than one line per way.
    pub fn with_capacity(capacity: ByteSize, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(ways > 0, "need at least one way");
        let lines = capacity.lines();
        assert!(
            lines >= ways as u64,
            "capacity {capacity} too small for {ways} ways"
        );
        let sets = lines / ways as u64;
        Self::new(sets, ways, policy)
    }

    /// Like [`with_capacity`](Self::with_capacity), but floors the set
    /// count to the previous power of two instead of panicking, flooring
    /// at one set. Used when the capacity is derived (scaled by an
    /// arbitrary factor or split across an arbitrary bank count) and thus
    /// not guaranteed to divide evenly.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn with_capacity_rounded(
        capacity: ByteSize,
        ways: usize,
        policy: ReplacementPolicy,
    ) -> Self {
        assert!(ways > 0, "need at least one way");
        let sets = (capacity.lines() / ways as u64).max(1);
        let sets = 1u64 << (63 - sets.leading_zeros());
        Self::new(sets, ways, policy)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> u64 {
        self.sets * self.ways as u64
    }

    /// Lines currently resident.
    pub fn len(&self) -> usize {
        match &self.table {
            Table::DenseDirect(slots) => slots.iter().filter(|s| s.is_some()).count(),
            Table::Dense { stamps, .. } => stamps.iter().filter(|&&s| s != 0).count(),
            Table::Direct(m) => m.len(),
            Table::Assoc(m) => m.values().map(Vec::len).sum(),
        }
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        match &self.table {
            Table::DenseDirect(slots) => slots.iter().all(Option::is_none),
            Table::Dense { stamps, .. } => stamps.iter().all(|&s| s == 0),
            Table::Direct(m) => m.is_empty(),
            Table::Assoc(m) => m.is_empty(),
        }
    }

    /// Set index of a line (low-order bits, as in a real indexed array).
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> u64 {
        line.as_u64() & (self.sets - 1)
    }

    /// Hints the host CPU to pull the line's set into cache ahead of an
    /// upcoming [`get`](Self::get)/[`insert`](Self::insert). Purely a
    /// performance hint: recency, counters, and contents are untouched,
    /// so issuing it (or not) can never change simulation results. The
    /// run loop issues these one round-robin turn ahead, hiding the
    /// host-memory latency of the multi-MB dense vault arrays. Sparse
    /// tables hash-probe, so they have no slot address to hint and the
    /// call is a no-op (as on non-x86 hosts).
    #[inline]
    #[allow(unsafe_code)] // the crate-level deny's single exception
    pub fn prefetch(&self, line: LineAddr) {
        // Compiled out under Miri: `_mm_prefetch` is a vendor intrinsic
        // the interpreter does not model, and skipping a pure hint
        // cannot change behaviour — this is the only unsafe block in the
        // workspace (every other crate is `#![forbid(unsafe_code)]`).
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            let set = self.set_of(line) as usize;
            // A dense set hints its tag run only; hinting the stamps'
            // line too measured slower.
            let ptr = match &self.table {
                Table::DenseDirect(slots) => std::ptr::addr_of!(slots[set]).cast::<i8>(),
                Table::Dense { tags, .. } => std::ptr::addr_of!(tags[set * self.ways]).cast::<i8>(),
                Table::Direct(_) | Table::Assoc(_) => return,
            };
            // SAFETY: the slot index is in bounds by construction, and a
            // prefetch hint cannot fault or write.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr);
            }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        let _ = line;
    }

    /// Looks up a line, updating recency on hit. Counts hit/miss stats.
    #[inline]
    pub fn get(&mut self, line: LineAddr) -> Option<&mut P> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let ways_n = self.ways;
        let hit = match &mut self.table {
            Table::DenseDirect(slots) => match &mut slots[set as usize] {
                Some((l, p)) if *l == line => Some(p),
                _ => None,
            },
            Table::Dense {
                tags,
                stamps,
                payloads,
            } => dense_find(tags, stamps, set as usize * ways_n, ways_n, line).and_then(|i| {
                stamps[i] = tick;
                payloads[i].as_mut()
            }),
            Table::Direct(m) => match m.get_mut(&set) {
                Some(w) if w.line == line => {
                    w.stamp = tick;
                    Some(&mut w.payload)
                }
                _ => None,
            },
            Table::Assoc(m) => match m.get_mut(&set) {
                Some(ways) => ways.iter_mut().find(|w| w.line == line).map(|w| {
                    w.stamp = tick;
                    &mut w.payload
                }),
                None => None,
            },
        };
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Looks up a line without touching recency or statistics.
    pub fn peek(&self, line: LineAddr) -> Option<&P> {
        let set = self.set_of(line);
        match &self.table {
            Table::DenseDirect(slots) => match &slots[set as usize] {
                Some((l, p)) if *l == line => Some(p),
                _ => None,
            },
            Table::Dense {
                tags,
                stamps,
                payloads,
            } => dense_find(tags, stamps, set as usize * self.ways, self.ways, line)
                .and_then(|i| payloads[i].as_ref()),
            Table::Direct(m) => match m.get(&set) {
                Some(w) if w.line == line => Some(&w.payload),
                _ => None,
            },
            Table::Assoc(m) => m
                .get(&set)?
                .iter()
                .find(|w| w.line == line)
                .map(|w| &w.payload),
        }
    }

    /// Mutable lookup without touching recency or statistics.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut P> {
        let set = self.set_of(line);
        match &mut self.table {
            Table::DenseDirect(slots) => match &mut slots[set as usize] {
                Some((l, p)) if *l == line => Some(p),
                _ => None,
            },
            Table::Dense {
                tags,
                stamps,
                payloads,
            } => dense_find(tags, stamps, set as usize * self.ways, self.ways, line)
                .and_then(|i| payloads[i].as_mut()),
            Table::Direct(m) => match m.get_mut(&set) {
                Some(w) if w.line == line => Some(&mut w.payload),
                _ => None,
            },
            Table::Assoc(m) => m
                .get_mut(&set)?
                .iter_mut()
                .find(|w| w.line == line)
                .map(|w| &mut w.payload),
        }
    }

    /// True when the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts a line, returning the victim if the set was full.
    ///
    /// If the line is already resident its payload is replaced and recency
    /// refreshed; no eviction happens.
    pub fn insert(&mut self, line: LineAddr, payload: P) -> Option<EvictionVictim<P>> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let ways_n = self.ways;
        let evicted = match &mut self.table {
            Table::DenseDirect(slots) => {
                let slot = &mut slots[set as usize];
                match slot {
                    Some((l, p)) if *l == line => {
                        *p = payload;
                        return None;
                    }
                    Some(_) => {
                        let old = slot.replace((line, payload)).expect("slot resident");
                        Some(Way {
                            line: old.0,
                            payload: old.1,
                            stamp: 0,
                        })
                    }
                    None => {
                        *slot = Some((line, payload));
                        return None;
                    }
                }
            }
            Table::Dense {
                tags,
                stamps,
                payloads,
            } => {
                let base = set as usize * ways_n;
                let set_tags = &mut tags[base..base + ways_n];
                let set_stamps = &mut stamps[base..base + ways_n];
                // One pass: the line itself, else the first minimum
                // stamp (an empty slot when there is one, else the LRU
                // way; `Dense` is LRU-only, see `Table`).
                let mut victim = 0;
                let mut oldest = u64::MAX;
                for i in 0..ways_n {
                    let stamp = set_stamps[i];
                    if set_tags[i] == line && stamp != 0 {
                        set_stamps[i] = tick;
                        payloads[base + i] = Some(payload);
                        return None;
                    }
                    if stamp < oldest {
                        victim = i;
                        oldest = stamp;
                    }
                }
                let old_line = std::mem::replace(&mut set_tags[victim], line);
                let old_stamp = std::mem::replace(&mut set_stamps[victim], tick);
                let old_payload = payloads[base + victim].replace(payload);
                if old_stamp == 0 {
                    return None;
                }
                old_payload.map(|payload| Way {
                    line: old_line,
                    payload,
                    stamp: old_stamp,
                })
            }
            Table::Direct(m) => {
                let new_way = Way {
                    line,
                    payload,
                    stamp: tick,
                };
                match m.entry(set) {
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        let w = o.get_mut();
                        if w.line == line {
                            *w = new_way;
                            return None;
                        }
                        // The sole way is the victim under either policy.
                        Some(std::mem::replace(w, new_way))
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(new_way);
                        return None;
                    }
                }
            }
            Table::Assoc(m) => {
                let new_way = Way {
                    line,
                    payload,
                    stamp: tick,
                };
                let ways = m.entry(set).or_default();

                if let Some(w) = ways.iter_mut().find(|w| w.line == line) {
                    *w = new_way;
                    return None;
                }

                if ways.len() < self.ways {
                    ways.push(new_way);
                    return None;
                }

                let victim_idx = match self.policy {
                    ReplacementPolicy::Lru => ways
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.stamp)
                        .map(|(i, _)| i)
                        .expect("set is full, so non-empty"),
                    ReplacementPolicy::Random => (line.scramble() ^ tick) as usize % ways.len(),
                };
                Some(std::mem::replace(&mut ways[victim_idx], new_way))
            }
        };

        evicted.map(|old| {
            self.evictions += 1;
            EvictionVictim {
                line: old.line,
                payload: old.payload,
            }
        })
    }

    /// Removes a line, returning its payload.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<P> {
        let set = self.set_of(line);
        match &mut self.table {
            Table::DenseDirect(slots) => {
                let slot = &mut slots[set as usize];
                if slot.as_ref().is_some_and(|(l, _)| *l == line) {
                    slot.take().map(|(_, p)| p)
                } else {
                    None
                }
            }
            Table::Dense {
                tags,
                stamps,
                payloads,
            } => {
                dense_find(tags, stamps, set as usize * self.ways, self.ways, line).and_then(|i| {
                    stamps[i] = 0;
                    payloads[i].take()
                })
            }
            Table::Direct(m) => {
                if m.get(&set).is_some_and(|w| w.line == line) {
                    m.remove(&set).map(|w| w.payload)
                } else {
                    None
                }
            }
            Table::Assoc(m) => {
                let ways = m.get_mut(&set)?;
                let idx = ways.iter().position(|w| w.line == line)?;
                let w = ways.swap_remove(idx);
                if ways.is_empty() {
                    m.remove(&set);
                }
                Some(w.payload)
            }
        }
    }

    /// Iterates over all resident (line, payload) pairs in arbitrary
    /// order; used by invariant checks and warm-state inspection.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &P)> {
        let (dense_direct, dense, direct, assoc) = match &self.table {
            Table::DenseDirect(s) => (Some(s), None, None, None),
            Table::Dense { tags, payloads, .. } => (None, Some((tags, payloads)), None, None),
            Table::Direct(m) => (None, None, Some(m), None),
            Table::Assoc(m) => (None, None, None, Some(m)),
        };
        dense_direct
            .into_iter()
            .flat_map(|s| s.iter().flatten().map(|(l, p)| (*l, p)))
            .chain(dense.into_iter().flat_map(|(tags, payloads)| {
                tags.iter()
                    .zip(payloads.iter())
                    .filter_map(|(&l, p)| Some((l, p.as_ref()?)))
            }))
            .chain(
                direct
                    .into_iter()
                    .flat_map(|m| m.values().map(|w| (w.line, &w.payload))),
            )
            .chain(assoc.into_iter().flat_map(|m| {
                m.values()
                    .flat_map(|ways| ways.iter().map(|w| (w.line, &w.payload)))
            }))
    }

    /// Hits recorded by [`get`](Self::get).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by [`get`](Self::get).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions caused by [`insert`](Self::insert).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Resets hit/miss/eviction statistics, keeping contents (used at the
    /// warmup/measurement boundary).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    /// Drops all contents and statistics.
    pub fn clear(&mut self) {
        match &mut self.table {
            Table::DenseDirect(slots) => slots.iter_mut().for_each(|s| *s = None),
            Table::Dense {
                stamps, payloads, ..
            } => {
                stamps.fill(0);
                payloads.iter_mut().for_each(|p| *p = None);
            }
            Table::Direct(m) => m.clear(),
            Table::Assoc(m) => m.clear(),
        }
        self.tick = 0;
        self.reset_stats();
    }
}

/// The slot of `line` in the dense set of `ways` slots at `base`, if
/// resident: one pass over the set's tags, skipping empty slots.
#[inline]
fn dense_find(
    tags: &[LineAddr],
    stamps: &[u64],
    base: usize,
    ways: usize,
    line: LineAddr,
) -> Option<usize> {
    let tags = &tags[base..base + ways];
    let stamps = &stamps[base..base + ways];
    (0..ways)
        .find(|&i| tags[i] == line && stamps[i] != 0)
        .map(|i| base + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize) -> SetAssocCache<u32> {
        // 4 sets.
        SetAssocCache::new(4, ways, ReplacementPolicy::Lru)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny(2);
        assert!(c.get(LineAddr::new(5)).is_none());
        c.insert(LineAddr::new(5), 7);
        assert_eq!(c.get(LineAddr::new(5)), Some(&mut 7));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2);
        // Lines 0, 4, 8 all map to set 0.
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        // Touch 0 so 4 becomes LRU.
        c.get(LineAddr::new(0));
        let victim = c.insert(LineAddr::new(8), 8).expect("eviction");
        assert_eq!(victim.line, LineAddr::new(4));
        assert!(c.contains(LineAddr::new(0)));
        assert!(c.contains(LineAddr::new(8)));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(4, 1, ReplacementPolicy::Lru);
        c.insert(LineAddr::new(1), ());
        let v = c.insert(LineAddr::new(5), ()).expect("conflict eviction");
        assert_eq!(v.line, LineAddr::new(1));
        assert!(!c.contains(LineAddr::new(1)));
    }

    #[test]
    fn reinsert_updates_payload_without_eviction() {
        let mut c = tiny(2);
        c.insert(LineAddr::new(3), 1);
        assert!(c.insert(LineAddr::new(3), 9).is_none());
        assert_eq!(c.peek(LineAddr::new(3)), Some(&9));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny(2);
        c.insert(LineAddr::new(3), 1);
        assert_eq!(c.invalidate(LineAddr::new(3)), Some(1));
        assert!(!c.contains(LineAddr::new(3)));
        assert_eq!(c.invalidate(LineAddr::new(3)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_disturb_lru_or_stats() {
        let mut c = tiny(2);
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        // Peek 0; 0 stays LRU because peek must not refresh recency.
        assert_eq!(c.peek(LineAddr::new(0)), Some(&0));
        let victim = c.insert(LineAddr::new(8), 8).expect("eviction");
        assert_eq!(victim.line, LineAddr::new(0));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn with_capacity_sizes_correctly() {
        let c: SetAssocCache<()> =
            SetAssocCache::with_capacity(ByteSize::from_kib(64), 8, ReplacementPolicy::Lru);
        assert_eq!(c.capacity_lines(), 1024);
        assert_eq!(c.sets(), 128);
        assert_eq!(c.ways(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        SetAssocCache::<()>::new(3, 1, ReplacementPolicy::Lru);
    }

    #[test]
    fn with_capacity_rounded_floors_to_power_of_two() {
        // 100 lines / 8 ways = 12 sets -> floored to 8.
        let c: SetAssocCache<()> = SetAssocCache::with_capacity_rounded(
            ByteSize::from_bytes(100 * 64),
            8,
            ReplacementPolicy::Lru,
        );
        assert_eq!(c.sets(), 8);
        // Smaller than one line per way still yields one set.
        let c: SetAssocCache<()> = SetAssocCache::with_capacity_rounded(
            ByteSize::from_bytes(64),
            16,
            ReplacementPolicy::Lru,
        );
        assert_eq!(c.sets(), 1);
        // Exact powers of two are preserved.
        let c: SetAssocCache<()> =
            SetAssocCache::with_capacity_rounded(ByteSize::from_kib(64), 8, ReplacementPolicy::Lru);
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn random_policy_fills_before_evicting() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, 4, ReplacementPolicy::Random);
        for i in 0..4 {
            assert!(c.insert(LineAddr::new(i), ()).is_none());
        }
        assert!(c.insert(LineAddr::new(99), ()).is_some());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn iter_visits_all_lines() {
        let mut c = tiny(4);
        for i in 0..8 {
            c.insert(LineAddr::new(i), i as u32);
        }
        let mut lines: Vec<u64> = c.iter().map(|(l, _)| l.as_u64()).collect();
        lines.sort_unstable();
        assert_eq!(lines, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn clear_and_reset_stats() {
        let mut c = tiny(2);
        c.insert(LineAddr::new(1), 1);
        c.get(LineAddr::new(1));
        c.get(LineAddr::new(2));
        c.reset_stats();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(c.contains(LineAddr::new(1)), "reset_stats keeps contents");
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn peek_mut_allows_payload_update() {
        let mut c = tiny(2);
        c.insert(LineAddr::new(1), 1);
        *c.peek_mut(LineAddr::new(1)).unwrap() = 5;
        assert_eq!(c.peek(LineAddr::new(1)), Some(&5));
        assert!(c.peek_mut(LineAddr::new(2)).is_none());
    }

    /// Sets × ways beyond [`DENSE_MAX_LINES`], forcing the sparse
    /// direct-mapped layout (a full-scale SILO vault).
    fn sparse_direct() -> SetAssocCache<u32> {
        SetAssocCache::new(DENSE_MAX_LINES * 2, 1, ReplacementPolicy::Lru)
    }

    /// Sets × ways beyond [`DENSE_MAX_LINES`] at 4 ways, forcing the
    /// sparse set-associative layout.
    fn sparse_assoc() -> SetAssocCache<u32> {
        SetAssocCache::new(DENSE_MAX_LINES / 2, 4, ReplacementPolicy::Lru)
    }

    #[test]
    fn sparse_direct_mapped_conflicts_like_dense() {
        let mut c = sparse_direct();
        assert!(
            matches!(c.table, Table::Direct(_)),
            "layout above the dense bound"
        );
        let sets = c.sets();
        c.insert(LineAddr::new(1), 10);
        assert_eq!(c.get(LineAddr::new(1)), Some(&mut 10));
        // The conflicting line one stride away evicts the resident one.
        let v = c
            .insert(LineAddr::new(1 + sets), 20)
            .expect("conflict eviction");
        assert_eq!(v.line, LineAddr::new(1));
        assert_eq!(v.payload, 10);
        assert!(!c.contains(LineAddr::new(1)));
        assert_eq!(c.invalidate(LineAddr::new(1 + sets)), Some(20));
        assert!(c.is_empty());
    }

    #[test]
    fn sparse_assoc_evicts_least_recent() {
        let mut c = sparse_assoc();
        assert!(
            matches!(c.table, Table::Assoc(_)),
            "layout above the dense bound"
        );
        let sets = c.sets();
        // Fill set 0's four ways, touch line 0 so `sets` becomes LRU.
        for i in 0..4 {
            assert!(c.insert(LineAddr::new(i * sets), i as u32).is_none());
        }
        c.get(LineAddr::new(0));
        let v = c.insert(LineAddr::new(4 * sets), 4).expect("eviction");
        assert_eq!(v.line, LineAddr::new(sets));
        assert!(c.contains(LineAddr::new(0)));
        assert_eq!(c.len(), 4);
        assert_eq!(c.evictions(), 1);
        let mut lines: Vec<u64> = c.iter().map(|(l, _)| l.as_u64()).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 2 * sets, 3 * sets, 4 * sets]);
    }

    /// The naive model [`SetAssocCache`] must agree with: per set, a
    /// list of `(line, payload)` from least to most recently used.
    struct Reference {
        n_sets: u64,
        sets: std::collections::BTreeMap<u64, Vec<(LineAddr, u32)>>,
        ways: usize,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Reference {
        fn new(sets: u64, ways: usize) -> Self {
            Reference {
                n_sets: sets,
                sets: Default::default(),
                ways,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn set(&mut self, line: LineAddr) -> &mut Vec<(LineAddr, u32)> {
            self.sets.entry(line.as_u64() % self.n_sets).or_default()
        }

        fn position(&mut self, line: LineAddr) -> Option<usize> {
            self.set(line).iter().position(|&(l, _)| l == line)
        }

        /// Moves the line to the most-recent end; returns its payload.
        fn touch(&mut self, line: LineAddr) -> Option<&mut u32> {
            let i = self.position(line)?;
            let set = self.set(line);
            let way = set.remove(i);
            set.push(way);
            set.last_mut().map(|(_, p)| p)
        }

        fn get(&mut self, line: LineAddr) -> Option<&mut u32> {
            if self.position(line).is_some() {
                self.hits += 1;
                self.touch(line)
            } else {
                self.misses += 1;
                None
            }
        }

        fn peek_mut(&mut self, line: LineAddr) -> Option<&mut u32> {
            let i = self.position(line)?;
            self.set(line).get_mut(i).map(|(_, p)| p)
        }

        fn insert(&mut self, line: LineAddr, payload: u32) -> Option<EvictionVictim<u32>> {
            if let Some(p) = self.touch(line) {
                *p = payload;
                return None;
            }
            let ways = self.ways;
            let set = self.set(line);
            let victim = (set.len() == ways).then(|| set.remove(0));
            set.push((line, payload));
            victim.map(|(line, payload)| {
                self.evictions += 1;
                EvictionVictim { line, payload }
            })
        }

        fn invalidate(&mut self, line: LineAddr) -> Option<u32> {
            let i = self.position(line)?;
            Some(self.set(line).remove(i).1)
        }

        fn clear(&mut self) {
            self.sets.clear();
            self.hits = 0;
            self.misses = 0;
            self.evictions = 0;
        }

        fn contents(&self) -> Vec<(u64, u32)> {
            let mut all: Vec<(u64, u32)> = self
                .sets
                .values()
                .flatten()
                .map(|&(l, p)| (l.as_u64(), p))
                .collect();
            all.sort_unstable();
            all
        }
    }

    /// Runs `ops` seeded random operations on `cache` and the reference
    /// side by side, comparing every return value, the counters, `len`
    /// and the contents after each one. Lines come from a few sets and
    /// a few tags per set, so hits, conflicts and evictions all occur.
    fn agree_with_reference(mut cache: SetAssocCache<u32>, seed: u64, ops: usize) {
        let sets = cache.sets();
        let mut model = Reference::new(sets, cache.ways());
        let mut state = seed;
        let mut rand = |n: u64| {
            state += 1;
            LineAddr::new(state).scramble() % n
        };
        let tags = cache.ways() as u64 + 3;
        for step in 0..ops {
            let line = LineAddr::new(rand(sets.min(5)) * 7 % sets + sets * rand(tags));
            let payload = rand(1000) as u32;
            let what = rand(100);
            let ctx = format!("seed {seed} step {step} op {what} line {line:?}");
            match what {
                0..=29 => {
                    let got = cache.get(line).map(|p| *p);
                    assert_eq!(got, model.get(line).map(|p| *p), "get: {ctx}");
                    if let (Some(p), Some(q)) = (cache.peek_mut(line), model.peek_mut(line)) {
                        *p += 1;
                        *q += 1;
                    }
                }
                30..=39 => assert_eq!(cache.peek(line), model.peek_mut(line).map(|p| &*p)),
                40..=49 => {
                    let got = cache.peek_mut(line).map(|p| {
                        *p = payload;
                        payload
                    });
                    let want = model.peek_mut(line).map(|p| {
                        *p = payload;
                        payload
                    });
                    assert_eq!(got, want, "peek_mut: {ctx}");
                }
                50..=84 => assert_eq!(
                    cache.insert(line, payload),
                    model.insert(line, payload),
                    "insert: {ctx}"
                ),
                85..=98 => assert_eq!(
                    cache.invalidate(line),
                    model.invalidate(line),
                    "invalidate: {ctx}"
                ),
                _ => {
                    cache.clear();
                    model.clear();
                }
            }
            assert_eq!(cache.hits(), model.hits, "hits: {ctx}");
            assert_eq!(cache.misses(), model.misses, "misses: {ctx}");
            assert_eq!(cache.evictions(), model.evictions, "evictions: {ctx}");
            let mut contents: Vec<(u64, u32)> =
                cache.iter().map(|(l, &p)| (l.as_u64(), p)).collect();
            contents.sort_unstable();
            assert_eq!(contents, model.contents(), "contents: {ctx}");
            assert_eq!(cache.len(), contents.len(), "len: {ctx}");
            assert_eq!(cache.is_empty(), contents.is_empty(), "is_empty: {ctx}");
        }
    }

    #[test]
    fn every_layout_agrees_with_a_naive_lru_reference() {
        let layouts = [
            ("DenseDirect", 8, 1),
            ("Dense", 8, 2),
            ("Dense", 4, 8),
            ("Dense", 2, 16),
            ("Direct", DENSE_MAX_LINES * 2, 1),
            ("Assoc", DENSE_MAX_LINES / 2, 4),
        ];
        for (name, sets, ways) in layouts {
            let make = || SetAssocCache::new(sets, ways, ReplacementPolicy::Lru);
            let layout = match make().table {
                Table::DenseDirect(_) => "DenseDirect",
                Table::Dense { .. } => "Dense",
                Table::Direct(_) => "Direct",
                Table::Assoc(_) => "Assoc",
            };
            assert_eq!(layout, name, "{sets} sets x {ways} ways");
            for seed in 0..8 {
                agree_with_reference(make(), seed << 32, 3000);
            }
        }
    }

    #[test]
    fn prefetch_is_inert_on_every_layout() {
        let mut caches = [
            SetAssocCache::new(4, 1, ReplacementPolicy::Lru), // DenseDirect
            SetAssocCache::new(4, 2, ReplacementPolicy::Lru), // Dense
            sparse_direct(),                                  // Direct
            sparse_assoc(),                                   // Assoc
        ];
        for c in &mut caches {
            c.insert(LineAddr::new(3), 1);
            c.prefetch(LineAddr::new(3));
            c.prefetch(LineAddr::new(1_000_003));
            assert_eq!(c.hits(), 0, "a prefetch hint records no probe");
            assert_eq!(c.misses(), 0);
            assert_eq!(c.len(), 1, "a prefetch hint moves no lines");
            assert!(c.contains(LineAddr::new(3)));
        }
    }
}
