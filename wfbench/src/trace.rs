//! Span tracing at the `wfrc-structures` ↔ `wfrc-core` seam.
//!
//! [`Traced`] is a forwarding [`RcMm`]/[`ByteMm`] implementation: every
//! call a structure makes into the scheme is timed from outside, as a
//! child span of the structure operation the benchmark opened with
//! [`Recorder::op`]. Children of one operation share its id, so a
//! structure's self time is the operation span minus its children.
//!
//! `payload`/`payload_mut`/`value_bytes` are forwarded untimed: they are
//! address arithmetic, and a span around them would time only the timer.
//!
//! Spans stay in memory: every call feeds the per-call aggregates, and
//! the full spans of one operation in [`KEEP_EVERY`] are kept (up to
//! [`KEEP_MAX`]) and written out by [`TraceAgg::write_spans`] when the run
//! ends.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use wfrc_core::counters::CounterSnapshot;
use wfrc_core::oom::OutOfMemory;
use wfrc_core::{AtomicWeak, Link, Node, RawBytes, RcObject};
use wfrc_structures::{ByteMm, RcMm};

/// One operation in this many keeps its full span list.
pub const KEEP_EVERY: u64 = 64;
/// Spans kept per run at most.
pub const KEEP_MAX: usize = 20_000;

/// The scheme calls the tracer times, one aggregate slot each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    AllocNode,
    DerefLink,
    ReleaseNode,
    AddRefs,
    CasLink,
    StoreLink,
    SnapshotEnter,
    SnapshotExit,
    SnapshotLoad,
    DowngradeNode,
    UpgradeNode,
    ReleaseWeak,
    StoreWeakLink,
    LoadWeakLink,
    AllocValue,
    FreeValue,
}

pub const CALLS: usize = 16;
pub const CALL_NAMES: [&str; CALLS] = [
    "alloc_node",
    "deref_link",
    "release_node",
    "add_refs",
    "cas_link",
    "store_link",
    "snapshot_enter",
    "snapshot_exit",
    "snapshot_load",
    "downgrade_node",
    "upgrade_node",
    "release_weak",
    "store_weak_link",
    "load_weak_link",
    "alloc_value",
    "free_value",
];

/// One span: `call` is a [`Call`] index, or `None` for the operation.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub call: Option<u8>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of one traced section, merged across recorders.
#[derive(Clone, Debug, Default)]
pub struct TraceAgg {
    pub ops: u64,
    pub self_ns: u64,
    pub calls: [u64; CALLS],
    pub call_ns: [u64; CALLS],
    pub cas_ok: u64,
    /// Operations whose children did not nest inside the operation span,
    /// one after another: self + children ≠ op span beyond timer error.
    pub bad_nesting: u64,
    /// Scheme calls made outside any operation span.
    pub orphan_calls: u64,
    pub spans: Vec<Span>,
}

impl TraceAgg {
    pub fn merge(&mut self, o: &TraceAgg) {
        self.ops += o.ops;
        self.self_ns += o.self_ns;
        for i in 0..CALLS {
            self.calls[i] += o.calls[i];
            self.call_ns[i] += o.call_ns[i];
        }
        self.cas_ok += o.cas_ok;
        self.bad_nesting += o.bad_nesting;
        self.orphan_calls += o.orphan_calls;
        let room = KEEP_MAX.saturating_sub(self.spans.len());
        self.spans.extend(o.spans.iter().take(room));
    }

    /// Mean ns of one `call`, 0 if it was never made.
    pub fn mean_ns(&self, call: Call) -> f64 {
        crate::stats::ratio(self.call_ns[call as usize], self.calls[call as usize])
    }

    /// Calls of `call` per operation.
    pub fn per_op(&self, call: Call) -> f64 {
        crate::stats::ratio(self.calls[call as usize], self.ops)
    }

    /// Writes the kept spans as TSV (`op call start_ns end_ns`, times from
    /// the run's trace base) to `path`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tcall\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let call = s.call.map_or("op", |c| CALL_NAMES[c as usize]);
            writeln!(w, "{}\t{call}\t{}\t{}", s.op, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// Per-thread (or per-session) span recorder. Not `Sync`: one owner.
pub struct Recorder {
    base: Instant,
    /// Id of the open operation; 0 when none is open.
    op: Cell<u64>,
    next_op: Cell<u64>,
    op_start: Cell<u64>,
    last_end: Cell<u64>,
    child_ns: Cell<u64>,
    nest_ok: Cell<bool>,
    agg: RefCell<TraceAgg>,
}

impl Recorder {
    /// A recorder whose span times count from `base`; operation ids are
    /// `id_base + 1, id_base + 2, …` (give each recorder a disjoint range).
    pub fn new(base: Instant, id_base: u64) -> Self {
        Self {
            base,
            op: Cell::new(0),
            next_op: Cell::new(id_base),
            op_start: Cell::new(0),
            last_end: Cell::new(0),
            child_ns: Cell::new(0),
            nest_ok: Cell::new(true),
            agg: RefCell::new(TraceAgg::default()),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn keeping(&self, op: u64) -> bool {
        op % KEEP_EVERY == 1 && self.agg.borrow().spans.len() < KEEP_MAX
    }

    /// Runs one structure operation `f` as an operation span.
    pub fn op<R>(&self, f: impl FnOnce() -> R) -> R {
        let id = self.next_op.get() + 1;
        self.next_op.set(id);
        self.child_ns.set(0);
        self.nest_ok.set(true);
        let start = self.now();
        self.op_start.set(start);
        self.last_end.set(start);
        self.op.set(id);
        let r = f();
        let end = self.now();
        self.op.set(0);
        let children = self.child_ns.get();
        let span = end - start;
        let nested = self.nest_ok.get() && self.last_end.get() <= end && children <= span;
        let keep = self.keeping(id);
        let mut a = self.agg.borrow_mut();
        a.ops += 1;
        a.self_ns += span.saturating_sub(children);
        a.bad_nesting += u64::from(!nested);
        if keep {
            a.spans.push(Span {
                op: id,
                call: None,
                start_ns: start,
                end_ns: end,
            });
        }
        r
    }

    /// Times one scheme call as a child span of the open operation.
    #[inline]
    pub fn child<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        let op = self.op.get();
        let mut a = self.agg.borrow_mut();
        a.calls[call as usize] += 1;
        a.call_ns[call as usize] += end - start;
        if op == 0 {
            a.orphan_calls += 1;
            return r;
        }
        if start < self.last_end.get() || start < self.op_start.get() {
            self.nest_ok.set(false);
        }
        self.last_end.set(end);
        self.child_ns.set(self.child_ns.get() + (end - start));
        if op % KEEP_EVERY == 1 && a.spans.len() < KEEP_MAX {
            a.spans.push(Span {
                op,
                call: Some(call as u8),
                start_ns: start,
                end_ns: end,
            });
        }
        r
    }

    pub fn note_cas(&self, ok: bool) {
        self.agg.borrow_mut().cas_ok += u64::from(ok);
    }

    /// The recorder's totals (and kept spans).
    pub fn into_agg(self) -> TraceAgg {
        self.agg.into_inner()
    }
}

/// Median cost of one `Instant::now()` on the running machine, in ns: the
/// timer's own error on every span edge.
pub fn timer_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let mut costs = Vec::with_capacity(9);
    for _ in 0..9 {
        let t0 = Instant::now();
        let mut last = t0;
        for _ in 0..N {
            last = std::hint::black_box(Instant::now());
        }
        costs.push((last - t0).as_nanos() as f64 / f64::from(N));
    }
    crate::stats::median(&costs)
}

/// A handle seen through the tracer: forwards every call to `inner`,
/// timing it as a child span on `rec`.
pub struct Traced<'a, H> {
    pub inner: &'a H,
    pub rec: &'a Recorder,
}

// SAFETY: pure forwarding — every method calls the same method of the
// wrapped implementation with the same arguments and returns its result,
// so `inner`'s §3.2 guarantees carry over unchanged.
unsafe impl<T: RcObject, H: RcMm<T>> RcMm<T> for Traced<'_, H> {
    fn alloc_node(&self) -> Result<*mut Node<T>, OutOfMemory> {
        self.rec.child(Call::AllocNode, || self.inner.alloc_node())
    }
    unsafe fn deref_link(&self, link: &Link<T>) -> *mut Node<T> {
        // SAFETY: forwarded contract.
        self.rec
            .child(Call::DerefLink, || unsafe { self.inner.deref_link(link) })
    }
    unsafe fn release_node(&self, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        self.rec.child(Call::ReleaseNode, || unsafe {
            self.inner.release_node(node)
        })
    }
    unsafe fn add_refs(&self, node: *mut Node<T>, refs: usize) {
        // SAFETY: forwarded contract.
        self.rec
            .child(Call::AddRefs, || unsafe { self.inner.add_refs(node, refs) })
    }
    unsafe fn cas_link(&self, link: &Link<T>, old: *mut Node<T>, new: *mut Node<T>) -> bool {
        // SAFETY: forwarded contract.
        let ok = self.rec.child(Call::CasLink, || unsafe {
            self.inner.cas_link(link, old, new)
        });
        self.rec.note_cas(ok);
        ok
    }
    unsafe fn store_link(&self, link: &Link<T>, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        self.rec.child(Call::StoreLink, || unsafe {
            self.inner.store_link(link, node)
        })
    }
    unsafe fn payload(&self, node: *mut Node<T>) -> &T {
        // SAFETY: forwarded contract.
        unsafe { self.inner.payload(node) }
    }
    unsafe fn payload_mut(&self, node: *mut Node<T>) -> &mut T {
        // SAFETY: forwarded contract.
        unsafe { self.inner.payload_mut(node) }
    }
    fn counter_snapshot(&self) -> CounterSnapshot {
        self.inner.counter_snapshot()
    }
    const SNAPSHOT_PROTECTED: bool = H::SNAPSHOT_PROTECTED;
    fn snapshot_enter(&self) {
        self.rec
            .child(Call::SnapshotEnter, || self.inner.snapshot_enter())
    }
    unsafe fn snapshot_exit(&self) {
        // SAFETY: forwarded contract.
        self.rec
            .child(Call::SnapshotExit, || unsafe { self.inner.snapshot_exit() })
    }
    unsafe fn snapshot_load(&self, link: &Link<T>) -> *mut Node<T> {
        // SAFETY: forwarded contract.
        self.rec.child(Call::SnapshotLoad, || unsafe {
            self.inner.snapshot_load(link)
        })
    }
    unsafe fn downgrade_node(&self, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        self.rec.child(Call::DowngradeNode, || unsafe {
            self.inner.downgrade_node(node)
        })
    }
    unsafe fn upgrade_node(&self, node: *mut Node<T>) -> bool {
        // SAFETY: forwarded contract.
        self.rec.child(Call::UpgradeNode, || unsafe {
            self.inner.upgrade_node(node)
        })
    }
    unsafe fn release_weak(&self, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        self.rec.child(Call::ReleaseWeak, || unsafe {
            self.inner.release_weak(node)
        })
    }
    unsafe fn store_weak_link(&self, w: &AtomicWeak<T>, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        self.rec.child(Call::StoreWeakLink, || unsafe {
            self.inner.store_weak_link(w, node)
        })
    }
    unsafe fn load_weak_link(&self, w: &AtomicWeak<T>) -> *mut Node<T> {
        // SAFETY: forwarded contract.
        self.rec.child(Call::LoadWeakLink, || unsafe {
            self.inner.load_weak_link(w)
        })
    }
}

impl<H: ByteMm> ByteMm for Traced<'_, H> {
    fn alloc_value(&self, bytes: &[u8]) -> Result<RawBytes, OutOfMemory> {
        self.rec
            .child(Call::AllocValue, || self.inner.alloc_value(bytes))
    }
    unsafe fn value_bytes(&self, token: &RawBytes) -> &[u8] {
        // SAFETY: forwarded contract.
        unsafe { self.inner.value_bytes(token) }
    }
    unsafe fn free_value(&self, token: RawBytes) {
        // SAFETY: forwarded contract.
        self.rec
            .child(Call::FreeValue, || unsafe { self.inner.free_value(token) })
    }
}

/// Runs `f` as an operation span when tracing, plainly otherwise.
#[inline]
pub fn op<R>(rec: Option<&Recorder>, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.op(f),
        None => f(),
    }
}
