//! `pq-paper`: the paper's §5 experiment. A Sundell–Tsigas skiplist
//! priority queue on a fixed pool, prefilled, with two workers doing 50 %
//! `insert` / 50 % `delete_min` over uniform keys. Every operation writes;
//! DeRefLink/HelpDeRef and link-CAS helping do most of the work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use wfrc_core::Growth;
use wfrc_sim::rng::SmallRng;
use wfrc_structures::{PqCell, PriorityQueue, RcMm};

use crate::check::{self, KeyLedger};
use wfrc_core::counters::CounterSnapshot;

use crate::report::{self, Layers, Report, SAMPLE_EVERY};
use crate::scheme::Scheme;
use crate::stats::{mix, setup_seconds, Latencies};
use crate::trace::{op, Recorder, TraceAgg, Traced};

const THREADS: usize = 2;
/// Keys in the queue before the workers start.
const PREFILL: usize = 1024;
/// Operations per worker batch: exactly half inserts, in seeded order, so
/// the queue stays within `PREFILL ± THREADS · BATCH / 2` and never empties.
const BATCH: usize = 512;
/// Batches between folds of the buffered latency samples.
const UNIT_BATCHES: usize = 32;
const KEY_RANGE: u64 = 1 << 20;
/// Fixed pool (the paper's model): the largest queue plus the sentinel,
/// in-flight nodes and slack.
const CAPACITY: usize = 4096;
const SETUP_REPS: usize = 61;
/// Every value is its key xor this tag, so a delete that returns another
/// node's payload is caught.
const TAG: u64 = 0x5EED_0000_0000_0000;

type Cell = PqCell<u64>;

struct Instance<S> {
    domain: S,
    pq: PriorityQueue<u64>,
    inserted: KeyLedger,
    start_resident: usize,
}

fn setup<S: Scheme<Cell>>(seed: u64) -> Instance<S> {
    let domain = S::build(THREADS + 1, CAPACITY, Growth::Disabled, 0);
    let start_resident = domain.resident_segments();
    let (pq, inserted) = {
        for _ in 0..THREADS {
            drop(domain.register_mm().expect("domain sized for the workers"));
        }
        let h = domain.register_mm().expect("domain sized for set-up");
        let pq = PriorityQueue::new(&h).expect("sentinel fits the pool");
        let mut rng = SmallRng::seed_from_u64(mix(seed, 0));
        let mut inserted = KeyLedger::default();
        for _ in 0..PREFILL {
            let k = rng.gen_range(KEY_RANGE);
            pq.insert(&h, k, k ^ TAG).expect("prefill fits the pool");
            inserted.add(k);
        }
        (pq, inserted)
    };
    Instance {
        domain,
        pq,
        inserted,
        start_resident,
    }
}

#[derive(Default)]
struct WorkerOut {
    ops: u64,
    failed: u64,
    bad_values: u64,
    /// Latency samples not yet folded into `lats`.
    lat: Vec<u64>,
    lats: Latencies,
    batches: u64,
    inserted: KeyLedger,
    deleted: KeyLedger,
    counts: CounterSnapshot,
    trace: TraceAgg,
    end: Option<Instant>,
}

fn batches<M: RcMm<Cell>>(
    mm: &M,
    rec: Option<&Recorder>,
    pq: &PriorityQueue<u64>,
    rng: &mut SmallRng,
    stop: &AtomicBool,
    out: &mut WorkerOut,
) {
    let mut plan = [false; BATCH];
    loop {
        for (i, p) in plan.iter_mut().enumerate() {
            *p = i < BATCH / 2;
        }
        for i in (1..BATCH).rev() {
            plan.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
        for &insert in &plan {
            let t0 = (rng.gen_range(SAMPLE_EVERY) == 0).then(Instant::now);
            if insert {
                let k = rng.gen_range(KEY_RANGE);
                let res = op(rec, || pq.insert(mm, k, k ^ TAG));
                if let Some(t0) = t0 {
                    out.lat.push(t0.elapsed().as_nanos() as u64);
                }
                match res {
                    Ok(()) => out.inserted.add(k),
                    Err(_) => out.failed += 1,
                }
            } else {
                let res = op(rec, || pq.delete_min(mm));
                if let Some(t0) = t0 {
                    out.lat.push(t0.elapsed().as_nanos() as u64);
                }
                match res {
                    Some((k, v)) => {
                        out.deleted.add(k);
                        out.bad_values += u64::from(v != k ^ TAG);
                    }
                    None => out.failed += 1,
                }
            }
        }
        out.ops += BATCH as u64;
        out.batches += 1;
        let last = stop.load(Ordering::Relaxed);
        if last || out.batches.is_multiple_of(UNIT_BATCHES as u64) {
            out.lats.fold(&mut out.lat);
        }
        if last {
            return;
        }
    }
}

struct PhaseOut {
    wall: Duration,
    workers: Vec<WorkerOut>,
}

/// One measured section of `dur`: both workers run whole batches until
/// the deadline has passed.
fn phase<S: Scheme<Cell> + Sync>(
    inst: &Instance<S>,
    seed: u64,
    label: u64,
    dur: Duration,
    traced: bool,
) -> PhaseOut {
    let barrier = Barrier::new(THREADS + 1);
    let stop = AtomicBool::new(false);
    let base = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let h = inst
                        .domain
                        .register_mm()
                        .expect("domain sized for the workers");
                    let mut rng = SmallRng::seed_from_u64(mix(seed, (label << 8) | (w as u64 + 1)));
                    let mut out = WorkerOut::default();
                    barrier.wait();
                    if traced {
                        let rec = Recorder::new(base, (w as u64) << 48);
                        let t = Traced {
                            inner: &h,
                            rec: &rec,
                        };
                        batches(&t, Some(&rec), &inst.pq, &mut rng, stop, &mut out);
                        out.trace = rec.into_agg();
                    } else {
                        batches(&h, None, &inst.pq, &mut rng, stop, &mut out);
                    }
                    out.end = Some(Instant::now());
                    // A fresh handle: its counters cover this phase alone.
                    out.counts = h.counter_snapshot();
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
        let workers: Vec<WorkerOut> = handles
            .into_iter()
            .map(|j| j.join().expect("pq worker panicked"))
            .collect();
        let end = workers
            .iter()
            .filter_map(|w| w.end)
            .max()
            .expect("workers ran");
        PhaseOut {
            wall: end - start,
            workers,
        }
    })
}

pub fn run<S: Scheme<Cell> + Sync>(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    let (setup_s, mut errors) = setup_seconds(SETUP_REPS, || {
        let t0 = Instant::now();
        let inst = setup::<S>(seed);
        let took = t0.elapsed().as_secs_f64();
        let h = inst.domain.register_mm().expect("registration");
        inst.pq.dispose(&h);
        drop(h);
        check::teardown(
            &inst.domain.leak_check_mm(),
            inst.domain.resident_segments(),
            inst.start_resident,
        )
        .map(|()| took)
    });
    r.errors.append(&mut errors);
    let inst = setup::<S>(seed);

    let total = Duration::from_secs(seconds);
    let mut inserted = inst.inserted;
    let mut deleted = KeyLedger::default();
    let mut tally = |r: &mut Report, p: &PhaseOut| {
        for w in &p.workers {
            r.attempted += w.ops;
            r.failed += w.failed;
            inserted.merge(&w.inserted);
            deleted.merge(&w.deleted);
            if w.bad_values > 0 {
                r.errors.push(format!(
                    "{} delete_min results carried another key's value",
                    w.bad_values
                ));
            }
        }
    };
    let mut layers = None;
    if traced {
        let plain = phase(&inst, seed, 1, total / 2, false);
        tally(&mut r, &plain);
        let t = phase(&inst, seed, 2, total / 2, true);
        tally(&mut r, &t);
        let mut l = Layers::default();
        for w in &t.workers {
            l.trace.merge(&w.trace);
            l.counts = l.counts.merged(&w.counts);
        }
        let ops = |p: &PhaseOut| {
            p.workers.iter().map(|w| w.ops).sum::<u64>() as f64 / p.wall.as_secs_f64()
        };
        l.untraced_ops_s = ops(&plain);
        l.traced_ops_s = ops(&t);
        layers = Some(l);
    } else {
        let p = phase(&inst, seed, 1, total, false);
        tally(&mut r, &p);
        let ops: u64 = p.workers.iter().map(|w| w.ops).sum();
        let mut lats = Latencies::default();
        for w in &p.workers {
            lats.merge(&w.lats);
        }
        report::end_to_end(&mut r, ops, p.wall, &lats, setup_s);
    }

    // Final single-threaded drain, then the independent ledger check.
    let h = inst.domain.register_mm().expect("registration");
    let mut drain = Vec::new();
    while let Some((k, v)) = inst.pq.delete_min(&h) {
        if v != k ^ TAG {
            r.errors
                .push(format!("drained key {k} carried value {v:#x}"));
        }
        deleted.add(k);
        drain.push(k);
    }
    r.check(check::pq_outputs(&inserted, &deleted, &drain));
    inst.pq.dispose(&h);
    drop(h);
    r.check(check::teardown(
        &inst.domain.leak_check_mm(),
        inst.domain.resident_segments(),
        inst.start_resident,
    ));
    if let Some(mut l) = layers {
        l.check_nesting(&mut r);
        l.timer_ns = crate::trace::timer_cost_ns();
        crate::write_spans(&l.trace, "pq-paper", seed);
        r.metrics = l.metrics();
    }
    r
}
