//! The two reference-counting schemes a workload can run over: the
//! wait-free scheme under test, and the LFRC baseline (Valois) whose
//! figures the README quotes for context only.

use wfrc_baselines::LfrcDomain;
use wfrc_core::{DomainConfig, Growth, RcObject, ReclaimOutcome, WfrcDomain};
use wfrc_structures::RcMmDomain;

/// What the workloads need from a domain beyond [`RcMmDomain`].
pub trait Scheme<T: RcObject + Default>: RcMmDomain<T> + Sized {
    fn build(threads: usize, capacity: usize, growth: Growth, magazine: usize) -> Self;
    /// Makes `h` quiescent for a segment reclaim the way a thread that
    /// keeps its handle does: returns its magazines to the shared
    /// free-lists. Deferred frees stay where the scheme left them;
    /// `reclaim()` is the call that drains them.
    fn quiesce(h: &Self::Handle<'_>);
    /// Whether [`Scheme::reclaim`] can retire segments: the baseline's
    /// reclaim needs `&mut` access to the domain, so it has none here.
    const RECLAIMS: bool;
    /// One quiescent segment-reclaim attempt (`NoCandidate` where the
    /// scheme cannot reclaim).
    fn reclaim(h: &Self::Handle<'_>) -> ReclaimOutcome;
    fn resident_segments(&self) -> usize;
    /// Nodes in resident segments.
    fn capacity(&self) -> usize;
}

impl<T: RcObject + Default> Scheme<T> for WfrcDomain<T> {
    fn build(threads: usize, capacity: usize, growth: Growth, magazine: usize) -> Self {
        WfrcDomain::new(
            DomainConfig::new(threads, capacity)
                .with_growth(growth)
                .with_magazine(magazine),
        )
    }
    fn quiesce(h: &Self::Handle<'_>) {
        h.flush_magazines();
    }
    const RECLAIMS: bool = true;
    fn reclaim(h: &Self::Handle<'_>) -> ReclaimOutcome {
        h.reclaim()
    }
    fn resident_segments(&self) -> usize {
        WfrcDomain::resident_segments(self)
    }
    fn capacity(&self) -> usize {
        WfrcDomain::capacity(self)
    }
}

impl<T: RcObject + Default> Scheme<T> for LfrcDomain<T> {
    fn build(threads: usize, capacity: usize, growth: Growth, magazine: usize) -> Self {
        let mut d = LfrcDomain::with_growth(threads, capacity, growth);
        if magazine > 0 {
            d.set_magazine(magazine);
        }
        d
    }
    fn quiesce(h: &Self::Handle<'_>) {
        h.flush_magazines();
    }
    const RECLAIMS: bool = false;
    fn reclaim(_: &Self::Handle<'_>) -> ReclaimOutcome {
        ReclaimOutcome::NoCandidate
    }
    fn resident_segments(&self) -> usize {
        self.segment_count()
    }
    fn capacity(&self) -> usize {
        LfrcDomain::capacity(self)
    }
}
