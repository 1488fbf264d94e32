//! `lru-cycles`: an `LruList` with weak back edges on a domain that starts
//! small and grows. Each cycle grows the list to a working set many
//! segments large, churns it (push/pop plus weak reads inside one pin
//! session), drains it, and then — with both workers quiescent — one
//! worker calls `reclaim()` until `NoCandidate`. The cycle's wall time
//! includes that reclaim.
//!
//! Reclaims run only at quiescent points: `reclaim()` racing live pins can
//! crash the process (a known fault of the retire/pin protocol), and a
//! crash cannot be counted as a failed operation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use wfrc_core::counters::CounterSnapshot;
use wfrc_core::{DomainConfig, Growth, Node, ReclaimOutcome};
use wfrc_sim::rng::SmallRng;
use wfrc_structures::{LruCell, LruList, RcMm};

use crate::check;
use crate::report::{self, Layers, Report, SAMPLE_EVERY};
use crate::scheme::Scheme;
use crate::stats::{mix, setup_seconds, Latencies};
use crate::trace::{op, Recorder, TraceAgg, Traced};

const THREADS: usize = 2;
/// Initial arena: one small segment; doubling growth adds the rest.
const INITIAL: usize = 256;
const MAX_CAPACITY: usize = 1 << 16;
/// Ids each worker pushes in the grow phase (working set = 2 × this,
/// five or six doubling segments past the initial one).
const GROW_PER_WORKER: usize = 2500;
/// Churn groups per worker. The mix is the E13 graph-churn shape at its
/// `--weak-ratio 0.3`: 30 % weak reads, the rest pushes and pops in equal
/// numbers. E13 draws each op at random; here each group holds exactly 6
/// weak reads, 7 pushes and 7 pops in a seeded order, so every cycle runs
/// the same operations and the list stays within ±14 of the working set
/// (no churn pop finds it empty).
const CHURN_GROUPS: usize = 1000;
const WEAK_PER_GROUP: usize = 6;
const PUSH_PER_GROUP: usize = 7;
const GROUP: [Churn; 2 * PUSH_PER_GROUP + WEAK_PER_GROUP] = {
    let mut g = [Churn::Weak; 2 * PUSH_PER_GROUP + WEAK_PER_GROUP];
    let mut i = 0;
    while i < 2 * PUSH_PER_GROUP {
        g[i] = if i < PUSH_PER_GROUP {
            Churn::Push
        } else {
            Churn::Pop
        };
        i += 1;
    }
    g
};
/// Weak reads each worker makes in the drain phase: the churn's share of
/// weak reads to strong ops, applied to its expected `GROW_PER_WORKER`
/// pops. They race the pops that reach the oldest nodes, and those still
/// due when the worker's list runs dry read a tail hint whose target has
/// died.
const DRAIN_WEAK: usize = GROW_PER_WORKER * WEAK_PER_GROUP / (2 * PUSH_PER_GROUP);
/// Values a weak read walks through the back edges.
const WALK: usize = 4;
/// Operations of one cycle: the grow pushes, the churn, one drain pop per
/// live id plus each worker's final empty pop, the drain's weak reads and
/// the tail-hint clear.
const CYCLE_OPS: u64 =
    (THREADS * (2 * GROW_PER_WORKER + GROUP.len() * CHURN_GROUPS + 1 + DRAIN_WEAK) + 1) as u64;
const SETUP_REPS: usize = 1001;
/// Reclaim attempts that may abort in one cycle before the run fails.
const MAX_ABORTS: u64 = 1000;

type Cell = LruCell<u64>;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Churn {
    Push,
    Pop,
    Weak,
}

/// One worker's record of one cycle.
#[derive(Default)]
struct CycleLog {
    pushed: Vec<u64>,
    popped: Vec<u64>,
    weak: Vec<u64>,
    lat: Vec<u64>,
}

#[derive(Default)]
struct WorkerOut {
    ops: u64,
    failed: u64,
    counts: CounterSnapshot,
    trace: TraceAgg,
}

/// Worker 0's account of the phase's cycles.
#[derive(Default)]
struct CycleTotals {
    cycles: u64,
    wall: Duration,
    lats: Latencies,
    /// Both workers' logs of the last cycle, for its checks.
    merged: CycleLog,
    reclaim_ns: u64,
    reclaim_nodes: u64,
    segments_retired: u64,
    aborts: u64,
    /// Sum over cycles of the arena bytes resident after the cycle's
    /// reclaim.
    retained_bytes: f64,
    /// Cycles whose reclaim stopped above the starting segment count.
    above_floor: u64,
    errors: Vec<String>,
}

struct Shared<'a, S> {
    domain: &'a S,
    lru: &'a LruList<u64>,
    barrier: Barrier,
    stop: AtomicBool,
    more: AtomicBool,
    /// Each worker's record of the open cycle; kept (cleared) across
    /// cycles so their buffers are allocated once.
    logs: [Mutex<CycleLog>; THREADS],
    /// Resident segments before the first cycle.
    floor: usize,
}

/// Runs `f` on the cycle log, timing it into the log's latency samples
/// if it is the seeded one op in `SAMPLE_EVERY`.
#[inline]
fn timed<R>(rng: &mut SmallRng, log: &mut CycleLog, f: impl FnOnce(&mut CycleLog) -> R) -> R {
    if rng.gen_range(SAMPLE_EVERY) == 0 {
        let t0 = Instant::now();
        let r = f(log);
        log.lat.push(t0.elapsed().as_nanos() as u64);
        r
    } else {
        f(log)
    }
}

/// One weak read: the oldest value through the weak tail hint and up to
/// `WALK` newer ones through the back edges, inside one pin session.
fn weak_read<M: RcMm<Cell>>(mm: &M, lru: &LruList<u64>, log: &mut CycleLog) {
    mm.snapshot_enter();
    let oldest = lru.peek_lru(mm);
    let newer = lru.walk_newer(mm, WALK);
    // SAFETY: pairs the enter above; the reads returned owned values, no
    // pointer escapes.
    unsafe { mm.snapshot_exit() };
    log.weak.extend(oldest);
    log.weak.extend(newer);
}

/// Runs cycles until worker 0 sees the stop flag at a cycle boundary.
#[allow(clippy::too_many_arguments)]
fn cycles<S: Scheme<Cell> + Sync, M: RcMm<Cell>>(
    sh: &Shared<'_, S>,
    h: &S::Handle<'_>,
    mm: &M,
    rec: Option<&Recorder>,
    w: usize,
    label: u64,
    rng: &mut SmallRng,
    out: &mut WorkerOut,
    totals: &mut CycleTotals,
) {
    let lru = sh.lru;
    let mut plan = GROUP;
    for cycle in 0u64.. {
        let id_base = (label << 56) | (cycle << 24) | ((w as u64) << 22);
        sh.barrier.wait();
        let mut log = sh.logs[w].lock().expect("log lock");
        let t_start = Instant::now();
        for seq in 0..GROW_PER_WORKER as u64 {
            let id = id_base | seq;
            match timed(rng, &mut log, |_| op(rec, || lru.push_front(mm, id))) {
                Ok(()) => log.pushed.push(id),
                Err(_) => out.failed += 1,
            }
        }
        out.ops += GROW_PER_WORKER as u64;
        sh.barrier.wait();
        let mut seq = GROW_PER_WORKER as u64;
        for _ in 0..CHURN_GROUPS {
            for i in (1..plan.len()).rev() {
                plan.swap(i, rng.gen_range(i as u64 + 1) as usize);
            }
            for &c in &plan {
                match c {
                    Churn::Push => {
                        let id = id_base | seq;
                        seq += 1;
                        match timed(rng, &mut log, |_| op(rec, || lru.push_front(mm, id))) {
                            Ok(()) => log.pushed.push(id),
                            Err(_) => out.failed += 1,
                        }
                    }
                    Churn::Pop => match timed(rng, &mut log, |_| op(rec, || lru.pop_front(mm))) {
                        Some(id) => log.popped.push(id),
                        None => out.failed += 1,
                    },
                    Churn::Weak => {
                        timed(rng, &mut log, |log| op(rec, || weak_read(mm, lru, log)));
                    }
                }
            }
        }
        out.ops += (GROUP.len() * CHURN_GROUPS) as u64;
        sh.barrier.wait();
        // Drain: pop until this worker sees the list empty (one `None`
        // each), with `DRAIN_WEAK` weak reads spread over the pops at the
        // churn's share and the rest after the list ran dry; then worker 0
        // drops the weak tail hint.
        let (mut pops, mut weak) = (0, 0);
        loop {
            while weak < DRAIN_WEAK && weak * 2 * PUSH_PER_GROUP < pops * WEAK_PER_GROUP {
                timed(rng, &mut log, |log| op(rec, || weak_read(mm, lru, log)));
                weak += 1;
            }
            pops += 1;
            match timed(rng, &mut log, |_| op(rec, || lru.pop_front(mm))) {
                Some(id) => log.popped.push(id),
                None => break,
            }
        }
        for _ in weak..DRAIN_WEAK {
            timed(rng, &mut log, |log| op(rec, || weak_read(mm, lru, log)));
        }
        out.ops += (pops + DRAIN_WEAK) as u64;
        if w == 0 {
            out.ops += 1;
            timed(rng, &mut log, |_| op(rec, || lru.clear(mm)));
        }
        S::quiesce(h);
        drop(log);
        sh.barrier.wait();
        if w == 0 {
            cycle_reclaim(sh.domain, sh.floor, h, totals);
            totals.wall += t_start.elapsed();
            totals.cycles += 1;
            let all = &mut totals.merged;
            for l in &sh.logs {
                let mut l = l.lock().expect("log lock");
                all.pushed.append(&mut l.pushed);
                all.popped.append(&mut l.popped);
                all.weak.append(&mut l.weak);
                all.lat.append(&mut l.lat);
            }
            totals.lats.fold(&mut all.lat);
            let checked = check::lru_cycle(&mut all.pushed, &mut all.popped, &all.weak);
            all.pushed.clear();
            all.popped.clear();
            all.weak.clear();
            if let Err(e) = checked {
                totals.errors.push(format!("cycle {cycle}: {e}"));
            }
            sh.more
                .store(!sh.stop.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        sh.barrier.wait();
        if !sh.more.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// Worker 0, both workers quiescent: `reclaim()` until `NoCandidate`.
fn cycle_reclaim<S: Scheme<Cell>>(
    domain: &S,
    floor: usize,
    h: &S::Handle<'_>,
    totals: &mut CycleTotals,
) {
    let t0 = Instant::now();
    let mut aborts = 0;
    loop {
        match S::reclaim(h) {
            ReclaimOutcome::NoCandidate => break,
            ReclaimOutcome::Retired { nodes, .. } => {
                totals.segments_retired += 1;
                totals.reclaim_nodes += nodes as u64;
            }
            ReclaimOutcome::Contended | ReclaimOutcome::Aborted => {
                aborts += 1;
                if aborts > MAX_ABORTS {
                    totals.errors.push(format!(
                        "reclaim aborted {aborts} times at a quiescent point"
                    ));
                    break;
                }
            }
        }
    }
    totals.reclaim_ns += t0.elapsed().as_nanos() as u64;
    totals.aborts += aborts;
    totals.retained_bytes += (domain.capacity() * core::mem::size_of::<Node<Cell>>()) as f64;
    totals.above_floor += u64::from(domain.resident_segments() > floor);
}

struct PhaseOut {
    workers: Vec<WorkerOut>,
    totals: CycleTotals,
}

fn phase<S: Scheme<Cell> + Sync>(
    domain: &S,
    lru: &LruList<u64>,
    floor: usize,
    seed: u64,
    label: u64,
    dur: Duration,
    traced: bool,
) -> PhaseOut {
    let sh = Shared {
        domain,
        lru,
        barrier: Barrier::new(THREADS),
        stop: AtomicBool::new(false),
        more: AtomicBool::new(true),
        logs: Default::default(),
        floor,
    };
    let base = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let sh = &sh;
                s.spawn(move || {
                    let h = sh
                        .domain
                        .register_mm()
                        .expect("domain sized for the workers");
                    let mut rng = SmallRng::seed_from_u64(mix(seed, (label << 8) | (w as u64 + 1)));
                    let mut out = WorkerOut::default();
                    let mut totals = CycleTotals::default();
                    if traced {
                        let rec = Recorder::new(base, (w as u64) << 48);
                        let t = Traced {
                            inner: &h,
                            rec: &rec,
                        };
                        cycles(
                            sh,
                            &h,
                            &t,
                            Some(&rec),
                            w,
                            label,
                            &mut rng,
                            &mut out,
                            &mut totals,
                        );
                        out.trace = rec.into_agg();
                    } else {
                        cycles(sh, &h, &h, None, w, label, &mut rng, &mut out, &mut totals);
                    }
                    // A fresh handle: its counters cover this phase alone.
                    out.counts = h.counter_snapshot();
                    (out, totals)
                })
            })
            .collect();
        std::thread::sleep(dur);
        sh.stop.store(true, Ordering::Relaxed);
        let mut workers = Vec::new();
        let mut totals = CycleTotals::default();
        for (w, j) in handles.into_iter().enumerate() {
            let (out, t) = j.join().expect("lru worker panicked");
            workers.push(out);
            if w == 0 {
                totals = t;
            }
        }
        PhaseOut { workers, totals }
    })
}

pub fn run<S: Scheme<Cell> + Sync>(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    let build = || {
        let d = S::build(
            THREADS,
            INITIAL,
            Growth::doubling_to(MAX_CAPACITY),
            DomainConfig::DEFAULT_MAGAZINE,
        );
        for _ in 0..THREADS {
            drop(d.register_mm().expect("domain sized for the workers"));
        }
        d
    };
    let (setup_s, mut errors) = setup_seconds(SETUP_REPS, || {
        let t0 = Instant::now();
        let d = build();
        let took = t0.elapsed().as_secs_f64();
        drop(d);
        Ok(took)
    });
    r.errors.append(&mut errors);
    let domain = build();
    let start_resident = domain.resident_segments();
    let lru = LruList::<u64>::new();

    let total = Duration::from_secs(seconds);
    let tally = |r: &mut Report, p: &mut PhaseOut| {
        for w in &p.workers {
            r.attempted += w.ops;
            r.failed += w.failed;
        }
        r.errors.append(&mut p.totals.errors);
    };
    let mut layers = None;
    if traced {
        let mut plain = phase(&domain, &lru, start_resident, seed, 1, total / 2, false);
        tally(&mut r, &mut plain);
        let mut t = phase(&domain, &lru, start_resident, seed, 2, total / 2, true);
        tally(&mut r, &mut t);
        let mut l = Layers::default();
        for w in &t.workers {
            l.trace.merge(&w.trace);
            l.counts = l.counts.merged(&w.counts);
        }
        let c = &t.totals;
        (l.reclaim_ns, l.reclaim_nodes, l.segments_retired) =
            (c.reclaim_ns, c.reclaim_nodes, c.segments_retired);
        (l.reclaim_aborts, l.above_floor, l.cycles) = (c.aborts, c.above_floor, c.cycles);
        l.retained_bytes = c.retained_bytes;
        let ops = |p: &PhaseOut| {
            p.workers.iter().map(|w| w.ops).sum::<u64>() as f64 / p.totals.wall.as_secs_f64()
        };
        l.untraced_ops_s = ops(&plain);
        l.traced_ops_s = ops(&t);
        layers = Some(l);
    } else {
        let mut p = phase(&domain, &lru, start_resident, seed, 1, total, false);
        tally(&mut r, &mut p);
        let ops: u64 = p.workers.iter().map(|w| w.ops).sum();
        let cycles = p.totals.cycles.max(1);
        r.notes.push(format!(
            "{} cycles, {} ended above the starting {start_resident} segments; {:.3} segments \
             retired per cycle; {:.5} MiB of arena resident after a cycle's reclaim, on average",
            p.totals.cycles,
            p.totals.above_floor,
            p.totals.segments_retired as f64 / cycles as f64,
            p.totals.retained_bytes / (1u64 << 20) as f64 / cycles as f64,
        ));
        if r.failed == 0 && ops != p.totals.cycles * CYCLE_OPS {
            r.errors.push(format!(
                "{ops} ops in {} cycles of {CYCLE_OPS}",
                p.totals.cycles
            ));
        }
        report::end_to_end(&mut r, ops, p.totals.wall, &p.totals.lats, setup_s);
    }

    // Teardown: with every worker handle gone, one last quiescent reclaim.
    let mut last = CycleTotals::default();
    {
        let h = domain.register_mm().expect("registration");
        cycle_reclaim(&domain, start_resident, &h, &mut last);
    }
    r.errors.append(&mut last.errors);
    let expect_resident = if S::RECLAIMS {
        start_resident
    } else {
        domain.resident_segments()
    };
    r.check(check::teardown(
        &domain.leak_check_mm(),
        domain.resident_segments(),
        expect_resident,
    ));
    if let Some(mut l) = layers {
        l.check_nesting(&mut r);
        l.timer_ns = crate::trace::timer_cost_ns();
        crate::write_spans(&l.trace, "lru-cycles", seed);
        r.metrics = l.metrics();
    }
    r
}
