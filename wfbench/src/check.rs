//! Output checks, computed apart from the program under test.
//!
//! Every checker is a pure function of what the workload recorded, so
//! [`self_test`] can feed each one a corrupted result and see it reject.
//! The self-test runs at the start of every benchmark run: a checker that
//! stopped rejecting would otherwise pass broken outputs silently.

use crate::stats::{percentile, Latencies};
use wfrc_core::LeakReport;

/// Order-free fingerprint of a multiset of keys: count, wrapping sum and
/// xor. Two ledgers of the same multiset are equal; dropping, adding or
/// changing one key changes at least the count or the sum.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KeyLedger {
    pub count: u64,
    pub sum: u64,
    pub xor: u64,
}

impl KeyLedger {
    pub fn add(&mut self, key: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(key);
        self.xor ^= key;
    }

    pub fn merge(&mut self, other: &KeyLedger) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
    }
}

/// `pq-paper`: the keys inserted (prefill and workers) are exactly the
/// keys deleted (workers and the final drain), and the single-threaded
/// drain comes out non-decreasing.
pub fn pq_outputs(inserted: &KeyLedger, deleted: &KeyLedger, drain: &[u64]) -> Result<(), String> {
    if inserted != deleted {
        return Err(format!(
            "priority queue lost or invented keys: inserted {inserted:?}, deleted {deleted:?}"
        ));
    }
    if let Some(i) = drain.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!(
            "final drain out of order at position {i}: {} then {}",
            drain[i],
            drain[i + 1]
        ));
    }
    Ok(())
}

/// Deterministic session payload: byte `i` of the value with seed `vseed`.
/// Every byte depends on the seed, so a flipped byte anywhere is caught.
pub fn fill_payload(vseed: u64, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (vseed >> ((i & 7) * 8)) as u8 ^ (i >> 3) as u8;
    }
}

/// `session-cache`: a value read back (`got`) against the benchmark's
/// shadow entry (`expect` = length and payload seed). `scratch` must be at
/// least as long as the longest value.
pub fn session_value(
    key: u64,
    expect: Option<(u32, u64)>,
    got: Option<&[u8]>,
    scratch: &mut [u8],
) -> Result<(), String> {
    match (expect, got) {
        (None, None) => Ok(()),
        (Some(_), None) => Err(format!("key {key}: cached value missing")),
        (None, Some(v)) => Err(format!(
            "key {key}: {} bytes returned for an absent key",
            v.len()
        )),
        (Some((len, vseed)), Some(v)) => {
            let want = &mut scratch[..len as usize];
            fill_payload(vseed, want);
            if v == &want[..] {
                Ok(())
            } else {
                Err(format!("key {key}: payload differs from what was put"))
            }
        }
    }
}

/// `lru-cycles`, once per drained cycle: every popped id was pushed
/// exactly once, and every value a weak read returned had been pushed.
/// Sorts `pushed` and `popped` in place.
pub fn lru_cycle(pushed: &mut [u64], popped: &mut [u64], weak_seen: &[u64]) -> Result<(), String> {
    pushed.sort_unstable();
    popped.sort_unstable();
    if let Some(w) = pushed.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("id {:#x} pushed twice", w[0]));
    }
    if let Some(w) = popped.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("id {:#x} popped twice", w[0]));
    }
    if pushed != popped {
        let missing = pushed.iter().find(|id| popped.binary_search(id).is_err());
        let extra = popped.iter().find(|id| pushed.binary_search(id).is_err());
        return Err(format!(
            "{} ids pushed but {} popped (first never popped: {missing:?}, first never pushed: {extra:?})",
            pushed.len(),
            popped.len()
        ));
    }
    if let Some(id) = weak_seen
        .iter()
        .find(|id| pushed.binary_search(id).is_err())
    {
        return Err(format!(
            "weak read returned {id:#x}, which was never pushed"
        ));
    }
    Ok(())
}

/// All workloads, at teardown: the leak audit is clean with no weak count
/// left, and the arena is back to the segments it started with.
pub fn teardown(leak: &LeakReport, resident: usize, start_resident: usize) -> Result<(), String> {
    if !leak.is_clean() || leak.weak_count != 0 {
        return Err(format!("leak audit not clean at teardown: {leak}"));
    }
    if resident != start_resident {
        return Err(format!(
            "{resident} arena segments resident after the last reclaim, started with {start_resident}"
        ));
    }
    Ok(())
}

fn must_reject(what: &str, r: Result<(), String>) -> Result<(), String> {
    match r {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("checker accepted {what}")),
    }
}

fn must_accept(what: &str, r: Result<(), String>) -> Result<(), String> {
    r.map_err(|e| format!("checker rejected {what}: {e}"))
}

/// Feeds every checker one good and several corrupted results, and checks
/// the percentile code against ranks computed by hand.
pub fn self_test() -> Result<(), String> {
    // pq-paper: a dropped key, a changed key, an out-of-order drain.
    let mut ins = KeyLedger::default();
    for k in [5, 1, 9, 9, 3] {
        ins.add(k);
    }
    let mut del = KeyLedger::default();
    for k in [9, 1, 3, 9, 5] {
        del.add(k);
    }
    must_accept(
        "a matching pq ledger",
        pq_outputs(&ins, &del, &[1, 3, 3, 7]),
    )?;
    let mut dropped = KeyLedger::default();
    for k in [9, 1, 3, 9] {
        dropped.add(k);
    }
    must_reject(
        "a pq drain that dropped a key",
        pq_outputs(&ins, &dropped, &[]),
    )?;
    let mut changed = KeyLedger::default();
    for k in [9, 1, 3, 9, 6] {
        changed.add(k);
    }
    must_reject(
        "a pq delete that changed a key",
        pq_outputs(&ins, &changed, &[]),
    )?;
    must_reject("an out-of-order drain", pq_outputs(&ins, &del, &[1, 4, 2]))?;

    // session-cache: a flipped payload byte, a short value, a lost key.
    let mut scratch = [0u8; 64];
    let mut good = [0u8; 40];
    fill_payload(0xDEAD_BEEF_0123, &mut good);
    let expect = Some((40u32, 0xDEAD_BEEF_0123u64));
    must_accept(
        "the payload that was put",
        session_value(7, expect, Some(&good), &mut scratch),
    )?;
    let mut flipped = good;
    flipped[33] ^= 0x10;
    must_reject(
        "a flipped payload byte",
        session_value(7, expect, Some(&flipped), &mut scratch),
    )?;
    must_reject(
        "a truncated payload",
        session_value(7, expect, Some(&good[..39]), &mut scratch),
    )?;
    must_reject("a lost key", session_value(7, expect, None, &mut scratch))?;
    must_reject(
        "a resurrected key",
        session_value(7, None, Some(&good), &mut scratch),
    )?;

    // lru-cycles: a duplicated id, a dropped id, a weak read of garbage.
    must_accept(
        "a clean cycle",
        lru_cycle(&mut [3, 1, 2], &mut [2, 3, 1], &[1, 3]),
    )?;
    must_reject(
        "a duplicated pop",
        lru_cycle(&mut [3, 1, 2], &mut [2, 3, 1, 3], &[]),
    )?;
    must_reject("a dropped pop", lru_cycle(&mut [3, 1, 2], &mut [2, 1], &[]))?;
    must_reject(
        "a duplicated push",
        lru_cycle(&mut [1, 1, 2], &mut [1, 1, 2], &[]),
    )?;
    must_reject(
        "a weak read never pushed",
        lru_cycle(&mut [1, 2], &mut [2, 1], &[4]),
    )?;

    // Teardown: a leftover weak count, a live node, an unreturned segment.
    let clean = LeakReport {
        capacity: 4,
        free_nodes: 4,
        ..Default::default()
    };
    must_accept("a clean audit", teardown(&clean, 1, 1))?;
    let weak = LeakReport {
        weak_count: 1,
        ..clean.clone()
    };
    must_reject("a leftover weak count", teardown(&weak, 1, 1))?;
    let live = LeakReport {
        free_nodes: 3,
        live_nodes: 1,
        ..clean.clone()
    };
    must_reject("a live node", teardown(&live, 1, 1))?;
    must_reject("an unreturned segment", teardown(&clean, 2, 1))?;

    // Percentiles against hand-computed nearest ranks.
    let hundred: Vec<u64> = (1..=100).collect();
    let thousand: Vec<u64> = (1..=1000).collect();
    let repeats: &[u64] = &[3, 3, 3, 7, 7, 9, 9, 9, 9, 10];
    // Samples on both sides of the dense table's edge.
    let edge: &[u64] = &[2, 65_534, 65_535, 65_536, 70_000];
    let cases: [(&[u64], u64, u64); 14] = [
        (edge, 40, 65_534),
        (edge, 60, 65_535),
        (edge, 80, 65_536),
        (edge, 99, 70_000),
        (repeats, 30, 3),
        (repeats, 50, 7),
        (repeats, 99, 10),
        (&hundred, 50, 50),
        (&hundred, 99, 99),
        (&hundred, 100, 100),
        (&thousand, 99, 990),
        (&[1, 2, 3, 4, 5], 50, 3),
        (&[1, 2, 3, 4, 5], 99, 5),
        (&[42], 99, 42),
    ];
    for (samples, pct, want) in cases {
        // The pooled counts see the samples unsorted and split in two folds.
        let mut pooled = Latencies::default();
        let (a, b) = samples.split_at(samples.len() / 2);
        pooled.fold(&mut b.iter().rev().copied().collect());
        pooled.fold(&mut a.to_vec());
        for (how, got) in [
            ("sorted", percentile(samples, pct)),
            ("pooled", pooled.percentile(pct)),
        ] {
            if got != want {
                return Err(format!(
                    "{how} p{pct} of {} samples read {got}, hand-computed rank gives {want}",
                    samples.len()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn checkers_reject_corrupted_results() {
        super::self_test().unwrap();
    }
}
