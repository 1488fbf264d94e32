//! `session-cache`: a `SessionCache` (hash map over ordered-list buckets,
//! values in three byte classes, magazines on) served by many short async
//! sessions on a 2-worker `PollLoop`. Each session leases a handle from a
//! `LeasePool` for its whole length and runs a read-mostly mix (80 % get,
//! 15 % put, 5 % remove) over a skewed keyspace striped by the leased tid,
//! so one session at a time owns each stripe and the benchmark can keep an
//! exact shadow of it.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use wfrc_core::counters::CounterSnapshot;
use wfrc_core::{ClassConfig, DomainConfig, LeaseConfig, LeasePool, RawBytes, WfrcDomain};
use wfrc_sim::exec::PollLoop;
use wfrc_sim::rng::SmallRng;
use wfrc_structures::{ListCell, SessionCache, SessionMm};

use crate::check::{self, fill_payload};
use crate::report::{self, Layers, Report, SAMPLE_EVERY};
use crate::stats::{mix, setup_seconds, Latencies};
use crate::trace::{op, Recorder, TraceAgg, Traced};

type Domain = WfrcDomain<ListCell<RawBytes>>;
/// Per-key shadow entry: value length and payload seed.
type Shadow = Vec<Option<(u32, u64)>>;

const WORKERS: usize = 2;
/// Lease slots, and so stripes: more than the workers, so a session never
/// waits for a lease and the checkout cost is the pool's own.
const SLOTS: usize = 4;
const KEYS_PER_STRIPE: u64 = 1024;
/// 80 % of operations go to the first eighth of a stripe's keys.
const HOT_KEYS: u64 = KEYS_PER_STRIPE / 8;
const OPS_PER_SESSION: usize = 32;
const SESSIONS_PER_ROUND: usize = 1024;
/// Block sizes of the three byte classes; a value is 0–15 bytes shorter
/// than its class's block, so smallest-fit selection is exercised.
const CLASSES: [usize; 3] = [64, 256, 1024];
const LONGEST: usize = 1024;
/// Per-class blocks: every key of every stripe could sit in one class,
/// plus magazine and in-flight slack, so no put can run out of blocks.
const CLASS_CAP: usize = SLOTS * KEYS_PER_STRIPE as usize + 1024;
const NODE_CAP: usize = 2 * SLOTS * KEYS_PER_STRIPE as usize + 1024;
const BUCKETS: usize = 1024;
const CLASS_MAGAZINE: usize = 16;
/// Keys present after set-up: the occupancy the 15 % put / 5 % remove mix
/// settles at (put-if-absent rate 0.15·(1−p) = remove rate 0.05·p).
const PREFILL_PCT: u64 = 75;
const SETUP_REPS: usize = 61;
/// Failed-check messages kept per run (the count is always exact).
const MAX_MESSAGES: usize = 8;

fn build_domain() -> Domain {
    WfrcDomain::new(
        DomainConfig::new(SLOTS, NODE_CAP)
            .with_magazine(DomainConfig::DEFAULT_MAGAZINE)
            .with_classes(
                CLASSES
                    .iter()
                    .map(|&s| ClassConfig::new(s, CLASS_CAP).with_magazine(CLASS_MAGAZINE))
                    .collect(),
            ),
    )
}

fn resident(d: &Domain) -> usize {
    d.resident_segments()
        + (0..d.class_count())
            .map(|c| d.class_segments(c))
            .sum::<usize>()
}

/// Draws one put: class, length and payload seed.
fn draw_value(rng: &mut SmallRng) -> (usize, u64) {
    let block = CLASSES[rng.gen_range(CLASSES.len() as u64) as usize];
    (block - rng.gen_range(16) as usize, rng.next_u64())
}

fn prefill(pool: &LeasePool<'_, Domain>, cache: &SessionCache, seed: u64) -> Vec<Mutex<Shadow>> {
    let g = pool.acquire();
    let mut rng = SmallRng::seed_from_u64(mix(seed, 0));
    let mut buf = vec![0u8; LONGEST];
    (0..SLOTS as u64)
        .map(|stripe| {
            let shadow = (0..KEYS_PER_STRIPE)
                .map(|k| {
                    if rng.gen_range(100) >= PREFILL_PCT {
                        return None;
                    }
                    let (len, vseed) = draw_value(&mut rng);
                    fill_payload(vseed, &mut buf[..len]);
                    let fresh = cache
                        .put(&*g, stripe + SLOTS as u64 * k, &buf[..len])
                        .expect("prefill fits the byte classes");
                    assert!(fresh, "prefill keys are distinct");
                    Some((len as u32, vseed))
                })
                .collect();
            Mutex::new(shadow)
        })
        .collect()
}

/// Reads every shadowed key back, disposes the cache and audits the domain.
fn teardown(
    domain: &Domain,
    pool: LeasePool<'_, Domain>,
    cache: SessionCache,
    shadows: Vec<Mutex<Shadow>>,
    start_resident: usize,
    r: &mut Report,
) {
    let g = pool.acquire();
    let mut scratch = vec![0u8; LONGEST];
    let mut expected = 0;
    for (stripe, shadow) in shadows.into_iter().enumerate() {
        let shadow = shadow.into_inner().expect("shadow lock");
        for (k, want) in shadow.into_iter().enumerate() {
            let key = stripe as u64 + SLOTS as u64 * k as u64;
            expected += usize::from(want.is_some());
            let got = cache.get(&*g, key);
            r.check(check::session_value(
                key,
                want,
                got.as_deref(),
                &mut scratch,
            ));
        }
    }
    let len = cache.len(&*g);
    if len != expected {
        r.errors
            .push(format!("cache holds {len} keys, shadow {expected}"));
    }
    cache.dispose(&*g);
    drop(g);
    drop(pool);
    r.check(check::teardown(
        &domain.leak_check(),
        resident(domain),
        start_resident,
    ));
}

#[derive(Default)]
struct Acc {
    ops: u64,
    failed: u64,
    bad: u64,
    messages: Vec<String>,
    lat: Vec<u64>,
    acquire_ns: Vec<u64>,
    counts: CounterSnapshot,
    trace: TraceAgg,
}

impl Acc {
    fn fail(&mut self, e: String) {
        self.bad += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(e);
        }
    }

    fn merge(&mut self, o: Acc) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.bad += o.bad;
        for m in o.messages {
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(m);
            }
        }
        self.lat.extend(o.lat);
        self.acquire_ns.extend(o.acquire_ns);
        self.counts = self.counts.merged(&o.counts);
        self.trace.merge(&o.trace);
    }
}

#[inline]
fn timed<R>(sample: bool, lat: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    if sample {
        let t0 = Instant::now();
        let r = f();
        lat.push(t0.elapsed().as_nanos() as u64);
        r
    } else {
        f()
    }
}

/// One session's operations on its stripe, checked against the shadow.
fn session_ops<M: SessionMm>(
    mm: &M,
    rec: Option<&Recorder>,
    cache: &SessionCache,
    rng: &mut SmallRng,
    stripe: u64,
    shadow: &mut Shadow,
    acc: &mut Acc,
) {
    let mut scratch = [0u8; LONGEST];
    let mut buf = [0u8; LONGEST];
    for _ in 0..OPS_PER_SESSION {
        let k = if rng.gen_range(10) < 8 {
            rng.gen_range(HOT_KEYS)
        } else {
            rng.gen_range(KEYS_PER_STRIPE)
        };
        let key = stripe + SLOTS as u64 * k;
        let slot = &mut shadow[k as usize];
        let roll = rng.gen_range(100);
        let sample = rng.gen_range(SAMPLE_EVERY) == 0;
        if roll < 80 {
            let got = timed(sample, &mut acc.lat, || op(rec, || cache.get(mm, key)));
            if let Err(e) = check::session_value(key, *slot, got.as_deref(), &mut scratch) {
                acc.fail(e);
            }
        } else if roll < 95 {
            let (len, vseed) = draw_value(rng);
            fill_payload(vseed, &mut buf[..len]);
            match timed(sample, &mut acc.lat, || {
                op(rec, || cache.put(mm, key, &buf[..len]))
            }) {
                Ok(true) if slot.is_none() => *slot = Some((len as u32, vseed)),
                Ok(false) if slot.is_some() => {}
                Ok(fresh) => acc.fail(format!(
                    "key {key}: put returned {fresh} against the shadow"
                )),
                Err(_) => acc.failed += 1,
            }
        } else {
            let got = timed(sample, &mut acc.lat, || op(rec, || cache.remove(mm, key)));
            if let Err(e) = check::session_value(key, *slot, got.as_deref(), &mut scratch) {
                acc.fail(e);
            }
            *slot = None;
        }
        acc.ops += 1;
    }
}

struct PhaseOut {
    wall: Duration,
    acc: Acc,
    lats: Latencies,
}

/// Whole rounds of `SESSIONS_PER_ROUND` sessions until `dur` has passed.
fn phase(
    pool: &LeasePool<'_, Domain>,
    cache: &SessionCache,
    shadows: &[Mutex<Shadow>],
    seed: u64,
    label: u64,
    dur: Duration,
    traced: bool,
) -> PhaseOut {
    let acc = Mutex::new(Acc::default());
    let mut lats = Latencies::default();
    let base = Instant::now();
    let mut wall = Duration::ZERO;
    let mut round = 0u64;
    while wall < dur {
        let mut exec = PollLoop::new();
        for s in 0..SESSIONS_PER_ROUND as u64 {
            let acc = &acc;
            let session = (round << 20) | s;
            exec.spawn(async move {
                let mut rng = SmallRng::seed_from_u64(mix(seed, (label << 48) | session));
                let t0 = Instant::now();
                let guard = pool.acquire_async().await;
                let acquire_ns = t0.elapsed().as_nanos() as u64;
                let stripe = guard.tid();
                let mut shadow = shadows[stripe].lock().expect("shadow lock");
                let mut local = Acc::default();
                if traced {
                    local.acquire_ns.push(acquire_ns);
                    let rec = Recorder::new(base, (label << 56) | (session << 8));
                    let t = Traced {
                        inner: &*guard,
                        rec: &rec,
                    };
                    // The leased handle outlives the session: zero its
                    // counters so the snapshot below is this session's.
                    guard.counters().reset();
                    session_ops(
                        &t,
                        Some(&rec),
                        cache,
                        &mut rng,
                        stripe as u64,
                        &mut shadow,
                        &mut local,
                    );
                    local.counts = guard.counters().snapshot();
                    local.trace = rec.into_agg();
                } else {
                    session_ops(
                        &*guard,
                        None,
                        cache,
                        &mut rng,
                        stripe as u64,
                        &mut shadow,
                        &mut local,
                    );
                }
                drop(shadow);
                drop(guard);
                acc.lock().expect("accumulator lock").merge(local);
            });
        }
        let took = exec.run(WORKERS);
        wall += took;
        lats.fold(&mut acc.lock().expect("accumulator lock").lat);
        round += 1;
    }
    let acc = acc.into_inner().expect("accumulator lock");
    PhaseOut { wall, acc, lats }
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    let (setup_s, mut errors) = setup_seconds(SETUP_REPS, || {
        let t0 = Instant::now();
        let domain = build_domain();
        let start = resident(&domain);
        let pool =
            LeasePool::new(&domain, LeaseConfig::new(SLOTS)).expect("domain sized for the pool");
        let cache = SessionCache::new(BUCKETS);
        let shadows = prefill(&pool, &cache, seed);
        let took = t0.elapsed().as_secs_f64();
        let mut spare = Report::default();
        teardown(&domain, pool, cache, shadows, start, &mut spare);
        match spare.errors.pop() {
            Some(e) => Err(e),
            None => Ok(took),
        }
    });
    r.errors.append(&mut errors);
    let domain = build_domain();
    let start_resident = resident(&domain);
    let pool = LeasePool::new(&domain, LeaseConfig::new(SLOTS)).expect("domain sized for the pool");
    let cache = SessionCache::new(BUCKETS);
    let shadows = prefill(&pool, &cache, seed);

    let total = Duration::from_secs(seconds);
    let tally = |r: &mut Report, p: &mut PhaseOut| {
        r.attempted += p.acc.ops;
        r.failed += p.acc.failed;
        if p.acc.bad > 0 {
            r.errors.push(format!(
                "{} session results disagreed with the shadow",
                p.acc.bad
            ));
            r.errors.append(&mut p.acc.messages);
        }
    };
    let mut layers = None;
    if traced {
        let mut plain = phase(&pool, &cache, &shadows, seed, 1, total / 2, false);
        tally(&mut r, &mut plain);
        let mut t = phase(&pool, &cache, &shadows, seed, 2, total / 2, true);
        tally(&mut r, &mut t);
        let mut l = Layers {
            counts: t.acc.counts,
            lease_acquire_ns: std::mem::take(&mut t.acc.acquire_ns),
            untraced_ops_s: plain.acc.ops as f64 / plain.wall.as_secs_f64(),
            traced_ops_s: t.acc.ops as f64 / t.wall.as_secs_f64(),
            ..Layers::default()
        };
        l.trace = std::mem::take(&mut t.acc.trace);
        layers = Some(l);
    } else {
        let mut p = phase(&pool, &cache, &shadows, seed, 1, total, false);
        tally(&mut r, &mut p);
        report::end_to_end(&mut r, p.acc.ops, p.wall, &p.lats, setup_s);
    }
    teardown(&domain, pool, cache, shadows, start_resident, &mut r);
    if let Some(mut l) = layers {
        l.check_nesting(&mut r);
        l.timer_ns = crate::trace::timer_cost_ns();
        crate::write_spans(&l.trace, "session-cache", seed);
        r.metrics = l.metrics();
    }
    r
}
