//! The metrics a run prints, and the one-line JSON result.

use std::time::Duration;

use wfrc_core::counters::CounterSnapshot;

use crate::stats::{peak_rss_mib, percentile, ratio, Latencies};
use crate::trace::{Call, TraceAgg};

/// Structure operations timed per sampled one (seeded 1-in-k sample).
pub const SAMPLE_EVERY: u64 = 8;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// What one run prints: ops attempted/failed, failed checks, metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.errors.push(e);
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Prints the notes and metrics for people, then the JSON line last.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
        for x in &self.metrics {
            println!("{:<36} {:>18.6} {}", x.name, x.value, x.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    x.name, x.value, x.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The end-to-end metrics of an untraced run: `ops` completed in the
/// measured section's `wall` time, the section's pooled exact latencies
/// and the set-up time in s.
pub fn end_to_end(r: &mut Report, ops: u64, wall: Duration, lat: &Latencies, setup_s: f64) {
    r.notes.push(format!(
        "{ops} ops in {:.3} s; op latency: nearest rank over all {} samples (1 op in {SAMPLE_EVERY} timed)",
        wall.as_secs_f64(),
        lat.samples,
    ));
    r.metrics = vec![
        m("throughput_ops_s", ops as f64 / wall.as_secs_f64(), "1/s"),
        m("op_p50_ns", lat.percentile(50) as f64, "ns"),
        m("op_p99_ns", lat.percentile(99) as f64, "ns"),
        m("peak_rss_mib", peak_rss_mib(), "MiB"),
        m("setup_s", setup_s, "s"),
    ];
}

/// Everything the traced run measures, layer by layer.
#[derive(Default)]
pub struct Layers {
    pub trace: TraceAgg,
    /// Scheme counters over the traced section, summed over its handles.
    pub counts: CounterSnapshot,
    /// `LeasePool` checkout times in ns, one per session.
    pub lease_acquire_ns: Vec<u64>,
    /// `reclaim()` calls: total ns, node slots retired, segments retired,
    /// attempts that came back `Aborted`/`Contended`.
    pub reclaim_ns: u64,
    pub reclaim_nodes: u64,
    pub segments_retired: u64,
    pub reclaim_aborts: u64,
    /// Cycles whose reclaim stopped above the starting segment count.
    pub above_floor: u64,
    /// Sum over cycles of the arena bytes resident after the cycle's
    /// reclaim, from the domain's gauges.
    pub retained_bytes: f64,
    /// Grow/churn/drain cycles in the traced section (lru-cycles only).
    pub cycles: u64,
    pub untraced_ops_s: f64,
    pub traced_ops_s: f64,
    pub timer_ns: f64,
}

impl Layers {
    /// Fails the run if a traced operation's children did not nest inside
    /// it (self + children ≠ op span) or a scheme call escaped every span.
    pub fn check_nesting(&self, r: &mut Report) {
        if self.trace.bad_nesting > 0 || self.trace.orphan_calls > 0 {
            r.errors.push(format!(
                "{} of {} traced ops had children outside the op span; {} scheme calls outside any op",
                self.trace.bad_nesting, self.trace.ops, self.trace.orphan_calls
            ));
        }
    }

    pub fn metrics(&mut self) -> Vec<Metric> {
        let t = &self.trace;
        let c = &self.counts;
        let per_cycle = |n: u64| {
            if self.cycles == 0 {
                n as f64
            } else {
                ratio(n, self.cycles)
            }
        };
        self.lease_acquire_ns.sort_unstable();
        let lease = |pct| {
            if self.lease_acquire_ns.is_empty() {
                0.0
            } else {
                percentile(&self.lease_acquire_ns, pct) as f64
            }
        };
        vec![
            m("structures.self_ns_per_op", ratio(t.self_ns, t.ops), "ns"),
            m("rc.deref_link_ns", t.mean_ns(Call::DerefLink), "ns"),
            m(
                "rc.deref_link_per_op",
                t.per_op(Call::DerefLink),
                "count/op",
            ),
            m("rc.release_node_ns", t.mean_ns(Call::ReleaseNode), "ns"),
            m(
                "rc.release_node_per_op",
                t.per_op(Call::ReleaseNode),
                "count/op",
            ),
            m(
                "announce.help_calls_per_op",
                ratio(c.help_calls, t.ops),
                "count/op",
            ),
            m(
                "announce.help_scan_full_ratio",
                ratio(c.help_scan_full, c.help_calls),
                "ratio",
            ),
            m(
                "announce.deref_helped_ratio",
                ratio(c.deref_helped, c.deref_calls),
                "ratio",
            ),
            m("link.cas_link_ns", t.mean_ns(Call::CasLink), "ns"),
            m("link.cas_link_per_op", t.per_op(Call::CasLink), "count/op"),
            m(
                "link.cas_link_success_ratio",
                ratio(t.cas_ok, t.calls[Call::CasLink as usize]),
                "ratio",
            ),
            m("freelist.alloc_node_ns", t.mean_ns(Call::AllocNode), "ns"),
            m(
                "freelist.alloc_iters_per_alloc",
                ratio(c.alloc_iters, c.alloc_calls),
                "count",
            ),
            m(
                "freelist.max_alloc_iters",
                c.max_alloc_iters as f64,
                "count",
            ),
            m(
                "magazine.hit_ratio",
                ratio(c.magazine_hits, c.alloc_calls),
                "ratio",
            ),
            m(
                "arena.segments_grown",
                per_cycle(c.segments_grown),
                "count/cycle",
            ),
            m("class.alloc_value_ns", t.mean_ns(Call::AllocValue), "ns"),
            m("class.free_value_ns", t.mean_ns(Call::FreeValue), "ns"),
            m("lease.acquire_p50_ns", lease(50), "ns"),
            m("lease.acquire_p99_ns", lease(99), "ns"),
            m(
                "pin.snapshot_enter_ns",
                t.mean_ns(Call::SnapshotEnter),
                "ns",
            ),
            m("pin.snapshot_exit_ns", t.mean_ns(Call::SnapshotExit), "ns"),
            m(
                "reclaim.deferred_frees_per_op",
                ratio(c.deferred_decs, t.ops),
                "count/op",
            ),
            m(
                "weak.load_weak_link_ns",
                t.mean_ns(Call::LoadWeakLink),
                "ns",
            ),
            m(
                "weak.upgrade_success_ratio",
                ratio(c.weak_upgrades - c.upgrade_failed, c.weak_upgrades),
                "ratio",
            ),
            m(
                "reclaim.ns_per_node",
                ratio(self.reclaim_ns, self.reclaim_nodes),
                "ns",
            ),
            m(
                "reclaim.segments_retired",
                per_cycle(self.segments_retired),
                "count/cycle",
            ),
            m(
                "reclaim.aborts",
                per_cycle(self.reclaim_aborts),
                "count/cycle",
            ),
            m(
                "reclaim.above_floor_ratio",
                ratio(self.above_floor, self.cycles),
                "ratio",
            ),
            m(
                "reclaim.retained_mib",
                self.retained_bytes / (1u64 << 20) as f64 / self.cycles.max(1) as f64,
                "MiB",
            ),
            m(
                "trace.overhead_ratio",
                self.untraced_ops_s / self.traced_ops_s,
                "ratio",
            ),
            m("trace.timer_ns", self.timer_ns, "ns"),
        ]
    }
}
