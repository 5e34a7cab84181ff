//! Bank/channel timing resources.
//!
//! The simulator models contention on DRAM banks (vault banks, main-memory
//! banks) and other serially-occupied resources with *next-free-time*
//! reservations: a request arriving at time `t` to a resource that is busy
//! until `f` starts service at `max(t, f)` and occupies the resource for
//! its service time. With a closed-page policy (assumed throughout the
//! paper, after BuMP) every access pays the full row cycle, so a single
//! occupancy number per access is an accurate model.

use silo_types::{interleave, Cycles, LineAddr};

/// A single serially-occupied resource with next-free-time semantics.
#[derive(Clone, Copy, Debug, Default)]
pub struct BankedResource {
    next_free: Cycles,
    busy_cycles: u64,
    accesses: u64,
}

impl BankedResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource at `now` for `service` cycles; returns the
    /// cycle at which service *completes*.
    pub fn reserve(&mut self, now: Cycles, service: Cycles) -> Cycles {
        let start = now.max(self.next_free);
        let done = start + service;
        self.next_free = done;
        self.busy_cycles += service.as_u64();
        self.accesses += 1;
        done
    }

    /// Cycle at which the resource next becomes free.
    pub fn next_free(&self) -> Cycles {
        self.next_free
    }

    /// Total cycles of service performed.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of reservations made.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Clears reservation state and statistics.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// An array of banks addressed by scrambled line address, such as the
/// banks inside one DRAM vault or the banks of a main-memory channel.
#[derive(Clone, Debug)]
pub struct BankArray {
    banks: Vec<BankedResource>,
    service: Cycles,
}

impl BankArray {
    /// Creates `n_banks` banks each with the given per-access service
    /// (occupancy) time.
    ///
    /// # Panics
    ///
    /// Panics if `n_banks` is zero.
    pub fn new(n_banks: usize, service: Cycles) -> Self {
        assert!(n_banks > 0, "need at least one bank");
        BankArray {
            banks: vec![BankedResource::new(); n_banks],
            service,
        }
    }

    /// Number of banks.
    pub fn len(&self) -> usize {
        self.banks.len()
    }

    /// True when the array has no banks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.banks.is_empty()
    }

    /// Per-access service time.
    pub fn service(&self) -> Cycles {
        self.service
    }

    /// Bank index for a line (scrambled to decorrelate from allocation
    /// patterns).
    pub fn bank_of(&self, line: LineAddr) -> usize {
        interleave(line.scramble(), self.banks.len())
    }

    /// Performs an access for `line` arriving at `now`: reserves the
    /// owning bank and returns the completion time (including any queuing
    /// delay behind earlier accesses to the same bank).
    pub fn access(&mut self, now: Cycles, line: LineAddr) -> Cycles {
        self.access_scrambled(now, line.scramble(), self.service)
    }

    /// [`BankArray::access`] for a line already passed through
    /// [`LineAddr::scramble`], occupying the bank for `service` cycles
    /// (more than [`BankArray::service`] for a multi-line directory
    /// update). A caller pricing several reservations of one line
    /// scrambles it once.
    pub fn access_scrambled(&mut self, now: Cycles, scrambled: u64, service: Cycles) -> Cycles {
        let bank = interleave(scrambled, self.banks.len());
        self.banks[bank].reserve(now, service)
    }

    /// Total accesses across all banks.
    pub fn total_accesses(&self) -> u64 {
        self.banks.iter().map(BankedResource::accesses).sum()
    }

    /// Total busy cycles across all banks.
    pub fn total_busy_cycles(&self) -> u64 {
        self.banks.iter().map(BankedResource::busy_cycles).sum()
    }

    /// Clears all reservations and statistics.
    pub fn reset(&mut self) {
        self.banks.iter_mut().for_each(BankedResource::reset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = BankedResource::new();
        let done = r.reserve(Cycles(100), Cycles(10));
        assert_eq!(done, Cycles(110));
        assert_eq!(r.next_free(), Cycles(110));
    }

    #[test]
    fn busy_resource_queues() {
        let mut r = BankedResource::new();
        r.reserve(Cycles(0), Cycles(50));
        // Arrives at 10 while busy until 50: starts at 50, done at 60.
        let done = r.reserve(Cycles(10), Cycles(10));
        assert_eq!(done, Cycles(60));
        assert_eq!(r.busy_cycles(), 60);
        assert_eq!(r.accesses(), 2);
    }

    #[test]
    fn late_arrival_after_idle_gap() {
        let mut r = BankedResource::new();
        r.reserve(Cycles(0), Cycles(10));
        let done = r.reserve(Cycles(100), Cycles(10));
        assert_eq!(done, Cycles(110));
    }

    #[test]
    fn reset_clears_state() {
        let mut r = BankedResource::new();
        r.reserve(Cycles(0), Cycles(10));
        r.reset();
        assert_eq!(r.next_free(), Cycles::ZERO);
        assert_eq!(r.busy_cycles(), 0);
        assert_eq!(r.accesses(), 0);
    }

    #[test]
    fn bank_array_distributes_lines() {
        let arr = BankArray::new(16, Cycles(20));
        let mut seen = std::collections::HashSet::new();
        for i in 0..256 {
            seen.insert(arr.bank_of(LineAddr::new(i)));
        }
        assert!(seen.len() > 12, "only {} banks used", seen.len());
    }

    #[test]
    fn bank_index_is_the_scrambled_line_modulo_the_bank_count() {
        for n in [1, 3, 16, 20, 64] {
            let mut arr = BankArray::new(n, Cycles(10));
            for i in 0..500 {
                let line = LineAddr::new(i * 977);
                let bank = (line.scramble() % n as u64) as usize;
                assert_eq!(arr.bank_of(line), bank, "{n} banks, line {i}");
                // A pre-scrambled reservation lands on the same bank.
                let before = arr.banks[bank].accesses();
                arr.access_scrambled(Cycles(0), line.scramble(), Cycles(1));
                assert_eq!(arr.banks[bank].accesses(), before + 1);
            }
        }
    }

    #[test]
    fn same_line_maps_to_same_bank() {
        let arr = BankArray::new(16, Cycles(20));
        assert_eq!(
            arr.bank_of(LineAddr::new(42)),
            arr.bank_of(LineAddr::new(42))
        );
    }

    #[test]
    fn bank_conflicts_serialize_but_distinct_banks_overlap() {
        let mut arr = BankArray::new(4, Cycles(100));
        let l = LineAddr::new(7);
        let first = arr.access(Cycles(0), l);
        let second = arr.access(Cycles(0), l);
        assert_eq!(first, Cycles(100));
        assert_eq!(second, Cycles(200), "same bank must serialize");

        // A line in a different bank is unaffected.
        let other = (0..64)
            .map(LineAddr::new)
            .find(|&x| arr.bank_of(x) != arr.bank_of(l))
            .expect("some line maps elsewhere");
        let third = arr.access(Cycles(0), other);
        assert_eq!(third, Cycles(100), "different bank should not queue");
    }

    #[test]
    fn array_statistics_accumulate() {
        let mut arr = BankArray::new(2, Cycles(10));
        for i in 0..8 {
            arr.access(Cycles(i * 5), LineAddr::new(i));
        }
        assert_eq!(arr.total_accesses(), 8);
        assert_eq!(arr.total_busy_cycles(), 80);
        arr.reset();
        assert_eq!(arr.total_accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        BankArray::new(0, Cycles(10));
    }
}
