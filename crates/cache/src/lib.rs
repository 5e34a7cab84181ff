//! Cache array structures for the SILO simulator.
//!
//! Provides the storage-side building blocks used by every evaluated
//! system (Sec. V-A, Table II):
//!
//! * [`SetAssocCache`] — a sparse set-associative cache array with
//!   pluggable replacement, used for L1s, private L2s, the shared NUCA
//!   SRAM/eDRAM LLCs, and (with one way) the direct-mapped TAD-organized
//!   DRAM cache vaults of SILO.
//!
//! Caches here are *functional*: they track contents and produce
//! hit/miss/eviction outcomes. All timing lives in `silo-sim`.

// Policy: unsafe is denied workspace-wide (every other crate is
// `forbid`); the single exception is the `_mm_prefetch` host-cache
// hint in `set_assoc`, which carries its own `#[allow]` + SAFETY note
// and is compiled out under Miri.
#![deny(unsafe_code)]

pub mod set_assoc;

pub use set_assoc::{EvictionVictim, ReplacementPolicy, SetAssocCache};
