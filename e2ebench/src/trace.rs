//! The span recorder and the traced [`Store`] wrapper.
//!
//! A span is opened around a call into a layer's public API and closed
//! when the call returns. Each thread keeps a stack of its open spans, so
//! a span's parent is the span that was open on the same thread when it
//! started, and its self time is its duration minus the time its child
//! spans cover. Durations and self times are folded into per-name
//! histograms as spans close, so every span counts while memory stays
//! bounded; the first [`KEEP_PER_KIND`] spans of each kind on each thread
//! are also kept whole and written out when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use pgl_kv::store::{BatchOp, KvResult, Store, TxOps};
use pgl_pmemobj::{PMEMoid, TxStats};

/// The spans the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Client::call`: one frame's round trip.
    ClientFrame,
    /// One `PersistentMap` call.
    KvOp,
    /// `PglPool::tx`.
    PglTx,
    /// The final synchronous `PglPool::scrub_now`.
    ScrubDrain,
    /// `PglPool` open (crash recovery).
    RecoverOpen,
    /// `Store::txn_with_stats`: one transaction, body and commit.
    PglTxn,
    /// `Store::txn_batch`: one group commit.
    PglBatch,
    /// A transaction body, run inside `PglTxn`.
    PglBody,
    /// A direct (transaction-free) store read.
    KvRead,
}

const SPANS: usize = 9;

impl Span {
    /// The span's name in the trace.
    pub fn name(self) -> &'static str {
        match self {
            Span::ClientFrame => "client.frame",
            Span::KvOp => "kv.op",
            Span::PglTx => "pgl.tx",
            Span::ScrubDrain => "scrub.drain",
            Span::RecoverOpen => "recover.open",
            Span::PglTxn => "pgl.txn",
            Span::PglBatch => "pgl.batch",
            Span::PglBody => "pgl.body",
            Span::KvRead => "kv.read",
        }
    }
}

/// Spans of one kind kept whole per thread for the trace file.
pub const KEEP_PER_KIND: u64 = 50_000;

/// Whether spans are being recorded now.
static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static GLOBAL: Mutex<Option<Agg>> = Mutex::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns span recording on or off for every thread.
pub fn set_recording(on: bool) {
    epoch();
    RECORDING.store(on, Ordering::Relaxed);
}

/// Log-linear histogram of nanosecond values: 32 sub-buckets per power of
/// two, so a reported percentile is within about 3% of the true value.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    /// Values recorded.
    pub n: u64,
    /// Sum of the values recorded.
    pub sum: u64,
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

impl Hist {
    fn new() -> Hist {
        Hist { counts: vec![0; (SUB * (64 - SUB_BITS as u64 + 1)) as usize], n: 0, sum: 0 }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = e - SUB_BITS;
        (SUB * (shift as u64 + 1) + ((v >> shift) & (SUB - 1))) as usize
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let shift = i / SUB - 1;
        let lo = (SUB + i % SUB) << shift;
        lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
        self.sum += v;
    }

    fn merge(&mut self, o: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.n += o.n;
        self.sum += o.sum;
    }

    /// The `p`-quantile by nearest rank (0 when empty).
    pub fn quantile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        0.0
    }
}

/// One closed span, kept for the trace file.
#[derive(Clone, Copy)]
struct Rec {
    id: u64,
    parent: u64,
    span: Span,
    start_ns: u64,
    end_ns: u64,
    thread: u64,
}

/// Per-name duration and self-time histograms plus kept spans.
pub struct Agg {
    /// Durations by span kind.
    pub dur: Vec<Hist>,
    /// Self times (duration minus child coverage) by span kind.
    pub self_ns: Vec<Hist>,
    kept: Vec<Rec>,
}

impl Agg {
    fn new() -> Agg {
        Agg { dur: vec![Hist::new(); SPANS], self_ns: vec![Hist::new(); SPANS], kept: Vec::new() }
    }

    fn merge(&mut self, o: Agg) {
        for i in 0..SPANS {
            self.dur[i].merge(&o.dur[i]);
            self.self_ns[i].merge(&o.self_ns[i]);
        }
        self.kept.extend(o.kept);
    }

    /// Duration histogram of `span`.
    pub fn dur(&self, span: Span) -> &Hist {
        &self.dur[span as usize]
    }

    /// Self-time histogram of `span`.
    pub fn self_time(&self, span: Span) -> &Hist {
        &self.self_ns[span as usize]
    }

    /// Spans recorded, of every kind.
    pub fn spans(&self) -> u64 {
        self.dur.iter().map(|h| h.n).sum()
    }
}

struct Open {
    id: u64,
    parent: u64,
    span: Span,
    start: Instant,
    child_ns: u64,
}

struct Local {
    thread: u64,
    stack: Vec<Open>,
    agg: Option<Agg>,
}

impl Drop for Local {
    fn drop(&mut self) {
        flush_local(self);
    }
}

fn flush_local(local: &mut Local) {
    if let Some(agg) = local.agg.take() {
        let mut g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        match g.as_mut() {
            Some(all) => all.merge(agg),
            None => *g = Some(agg),
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        agg: None,
    });
}

/// An open span; closing happens on drop.
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    active: bool,
}

/// Opens `span` on the calling thread if recording is on.
#[inline]
pub fn span(span: Span) -> Guard {
    if !RECORDING.load(Ordering::Relaxed) {
        return Guard { active: false };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().map_or(0, |o| o.id);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        l.stack.push(Open { id, parent, span, start: Instant::now(), child_ns: 0 });
    });
    Guard { active: true }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = Instant::now();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(open) = l.stack.pop() else { return };
            let dur = end.duration_since(open.start).as_nanos() as u64;
            if let Some(p) = l.stack.last_mut() {
                p.child_ns += dur;
            }
            let thread = l.thread;
            let agg = l.agg.get_or_insert_with(Agg::new);
            agg.dur[open.span as usize].record(dur);
            agg.self_ns[open.span as usize].record(dur.saturating_sub(open.child_ns));
            if agg.dur[open.span as usize].n <= KEEP_PER_KIND {
                let base = epoch();
                agg.kept.push(Rec {
                    id: open.id,
                    parent: open.parent,
                    span: open.span,
                    start_ns: open.start.saturating_duration_since(base).as_nanos() as u64,
                    end_ns: end.saturating_duration_since(base).as_nanos() as u64,
                    thread,
                });
            }
        });
    }
}

/// Merges the calling thread's spans into the global aggregate (threads
/// that exit do this themselves).
pub fn flush_thread() {
    LOCAL.with(|l| flush_local(&mut l.borrow_mut()));
}

/// The histograms recorded so far by threads that have flushed (after
/// [`flush_thread`], and once every other recording thread has exited).
pub fn snapshot() -> Agg {
    let g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    match g.as_ref() {
        Some(a) => Agg { dur: a.dur.clone(), self_ns: a.self_ns.clone(), kept: Vec::new() },
        None => Agg::new(),
    }
}

/// Writes the kept spans of every flushed thread to `path`, one
/// tab-separated line each: `id parent thread name start_ns end_ns`.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut kept =
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).take().map(|a| a.kept).unwrap_or_default();
    kept.sort_by_key(|r| r.start_ns);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tthread\tname\tstart_ns\tend_ns")?;
    for r in &kept {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            r.id,
            r.parent,
            r.thread,
            r.span.name(),
            r.start_ns,
            r.end_ns
        )?;
    }
    w.flush()
}

/// A [`Store`] that records `pgl.txn`, `pgl.body`, `pgl.batch` and
/// `kv.read` spans around the calls it forwards to `inner`, and sums the
/// [`TxStats`] of every transaction it runs.
#[derive(Clone)]
pub struct TracedStore<S> {
    inner: S,
    tx_stats: Arc<Mutex<TxStats>>,
}

impl<S: Store> TracedStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TracedStore { inner, tx_stats: Arc::new(Mutex::new(TxStats::default())) }
    }

    /// Sum of the transaction counters so far.
    pub fn tx_stats(&self) -> TxStats {
        *self.tx_stats.lock().expect("tx stats lock poisoned")
    }
}

impl<S: Store> Store for TracedStore<S> {
    fn uuid(&self) -> u64 {
        self.inner.uuid()
    }

    fn txn_with_stats<R>(
        &self,
        f: &mut dyn FnMut(&mut dyn TxOps) -> KvResult<R>,
    ) -> KvResult<(R, TxStats)> {
        let _g = span(Span::PglTxn);
        let out = self.inner.txn_with_stats(&mut |tx| {
            let _b = span(Span::PglBody);
            f(tx)
        });
        if let Ok((_, s)) = &out {
            self.tx_stats.lock().expect("tx stats lock poisoned").accumulate(s);
        }
        out
    }

    fn txn_batch(&self, ops: &mut [BatchOp<'_>]) -> Vec<KvResult<Option<u64>>> {
        let _g = span(Span::PglBatch);
        self.inner.txn_batch(ops)
    }

    fn bind_shard(&self, shard: usize) {
        self.inner.bind_shard(shard);
    }

    fn read_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        let _g = span(Span::KvRead);
        self.inner.read_direct(oid, off, dst)
    }

    fn read_verified_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        let _g = span(Span::KvRead);
        self.inner.read_verified_direct(oid, off, dst)
    }

    fn last_tx_stats(&self) -> TxStats {
        self.inner.last_tx_stats()
    }

    fn root(&self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        self.inner.root(size, type_num)
    }
}

/// A [`Store`] whose direct reads are verified reads: the output checks
/// read every acknowledged write back through it.
#[derive(Clone)]
pub struct VerifiedStore<S>(pub S);

impl<S: Store> Store for VerifiedStore<S> {
    fn uuid(&self) -> u64 {
        self.0.uuid()
    }

    fn txn_with_stats<R>(
        &self,
        f: &mut dyn FnMut(&mut dyn TxOps) -> KvResult<R>,
    ) -> KvResult<(R, TxStats)> {
        self.0.txn_with_stats(f)
    }

    fn txn_batch(&self, ops: &mut [BatchOp<'_>]) -> Vec<KvResult<Option<u64>>> {
        self.0.txn_batch(ops)
    }

    fn bind_shard(&self, shard: usize) {
        self.0.bind_shard(shard);
    }

    fn read_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        self.0.read_verified_direct(oid, off, dst)
    }

    fn read_verified_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        self.0.read_verified_direct(oid, off, dst)
    }

    fn last_tx_stats(&self) -> TxStats {
        self.0.last_tx_stats()
    }

    fn root(&self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        self.0.root(size, type_num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        for p in [0.5, 0.9, 0.99] {
            let want = p * 1_000_000.0;
            let got = h.quantile(p);
            assert!((got - want).abs() / want < 0.04, "p{p}: {got} vs {want}");
        }
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let _serial = crate::TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        // Runs on its own thread so the aggregate holds only these spans.
        std::thread::spawn(|| {
            set_recording(true);
            {
                let _outer = span(Span::PglTxn);
                std::thread::sleep(std::time::Duration::from_millis(2));
                let _inner = span(Span::PglBody);
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            set_recording(false);
        })
        .join()
        .unwrap();
        let agg = snapshot();
        let txn = agg.dur(Span::PglTxn).quantile(0.5);
        let body = agg.dur(Span::PglBody).quantile(0.5);
        let own = agg.self_time(Span::PglTxn).quantile(0.5);
        assert!(body >= 20e6 && txn >= body + 2e6, "txn {txn} body {body}");
        assert!(own < txn - body * 0.9, "self {own} of txn {txn}");
        assert_eq!(agg.spans(), 2);
    }
}
