//! Metric names and units, the result line, and the measurement helpers
//! every workload shares: latency percentiles, modeled device time,
//! process CPU and memory, and the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
#[cfg(test)]
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use pangolin::{PglPool, VulnSnapshot};
use pgl_nvm::{LatencyModel, NvmDevice, StatsSnapshot};
use pgl_pmemobj::TxStats;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "ops/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("success_ratio", "ratio"),
    ("device_us_per_op", "us"),
    ("cpu_us_per_op", "us"),
    ("restart_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("p99_us", "us"),
    ("p999_us", "us"),
    ("server.frame_us.p50", "us"),
    ("server.frame_us.p99", "us"),
    ("server.exec_share", "ratio"),
    ("server.worker_busy", "ratio"),
    ("server.txns_per_group", "count"),
    ("server.busy_ratio", "ratio"),
    ("proto.encode_ns_per_req", "ns"),
    ("proto.decode_ns_per_resp", "ns"),
    ("proto.bytes_per_op", "B"),
    ("kv.op_us.p50", "us"),
    ("kv.op_us.p99", "us"),
    ("kv.self_us.p50", "us"),
    ("kv.reads_per_get", "count"),
    ("pmemobj.mod_bytes_per_op", "B"),
    ("pmemobj.new_bytes_per_op", "B"),
    ("pmemobj.mod_objects_per_op", "count"),
    ("proc.allocs_per_op", "count"),
    ("pgl.txn_us.p50", "us"),
    ("pgl.body_us.p50", "us"),
    ("pgl.commit_us.p50", "us"),
    ("pgl.commit_us.p99", "us"),
    ("pgl.batch_us.p50", "us"),
    ("pgl.tx_us.p999", "us"),
    ("pgl.csum_bytes_per_op", "B"),
    ("pgl.old_reads_per_op", "count"),
    ("parity.xor_bytes_per_op", "B"),
    ("parity.atomic_xors_per_op", "count"),
    ("vcache.cached_share", "ratio"),
    ("scrub.passes", "count"),
    ("scrub.mb_verified_per_s", "MB/s"),
    ("scrub.repairs", "count"),
    ("scrub.left_for_drain", "count"),
    ("recover.object_recoveries", "count"),
    ("recover.page_recoveries", "count"),
    ("recover.mb_read", "MB"),
    ("nvm.fences_per_op", "count"),
    ("nvm.lines_flushed_per_op", "count"),
    ("nvm.bytes_read_per_op", "B"),
    ("nvm.nt_bytes_per_op", "B"),
    ("nvm.atomic_ops_per_op", "count"),
    ("nvm.write_amp", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// What one workload run produced: op accounting, check outcome, and
/// every metric it measured, by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops issued in the timed phase.
    pub attempted: u64,
    /// Ops that were refused, failed, or whose acknowledged effect was
    /// missing after the restart.
    pub failed: u64,
    /// Output checks that failed, with a reason each.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub values: HashMap<&'static str, f64>,
    /// Sample counts of the timings, by metric name.
    pub samples: HashMap<&'static str, u64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a timing with the number of samples behind it.
    pub fn timing(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Share of attempted ops that were acknowledged correctly.
    pub fn success_ratio(&self) -> f64 {
        ratio(self.attempted.saturating_sub(self.failed) as f64, self.attempted as f64)
    }

    /// Records a failed output check.
    pub fn fail(&mut self, why: String) {
        if self.errors.len() < 16 {
            self.errors.push(why);
        }
    }

    /// Prints one human-readable line per metric of `list` (with sample
    /// counts for timings), then the result line: a JSON object with
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn print(&self, list: &[(&str, &str)]) {
        for e in &self.errors {
            println!("check failed: {e}");
        }
        let mut metrics = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            match self.samples.get(name) {
                Some(n) => println!("{name:<28} {value:>14.4} {unit} (n={n})"),
                None => println!("{name:<28} {value:>14.4} {unit}"),
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The `p`-quantile (`0 < p <= 1`) of ascending `sorted` by nearest rank.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `xs` (sorted in place); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Modeled NVM time, in nanoseconds, of the device operations counted in
/// `d` (usually a [`StatsSnapshot::delta_since`] over a measured phase),
/// priced with `m`:
///
/// `fences·fence + flushed lines·flush + lines read·read + lines
/// written·write + non-temporal lines·nt + atomic ops·atomic_rmw`
///
/// Lines read, written and written non-temporally are the byte counters
/// divided by the 64-byte line size, rounded up; atomic ops are the 8-byte
/// atomic stores, XORs and CASes. The device charges the same rates when
/// its latency model is on, so this bills device time without stalling
/// the wall clock.
pub fn device_ns(d: &StatsSnapshot, m: &LatencyModel) -> u64 {
    let lines = |bytes: u64| bytes.div_ceil(pgl_nvm::CACHELINE as u64);
    d.fences * m.fence_ns
        + d.lines_flushed * m.flush_ns_per_line
        + lines(d.bytes_read) * m.read_ns_per_line
        + lines(d.bytes_written) * m.write_ns_per_line
        + lines(d.bytes_written_nt) * m.nt_ns_per_line
        + (d.atomic_stores + d.atomic_xors + d.atomic_cas_ops) * m.atomic_rmw_ns
}

/// The counters a traced run's window is measured between.
pub struct Counters {
    dev: StatsSnapshot,
    allocs: u64,
    vuln: VulnSnapshot,
    tx: TxStats,
}

impl Counters {
    /// Reads the counters of `dev`, `pool` and the process, with the
    /// transaction counters `tx` summed so far.
    pub fn take(dev: &NvmDevice, pool: &PglPool, tx: TxStats) -> Counters {
        Counters { dev: dev.stats(), allocs: allocs(), vuln: pool.vuln(), tx }
    }

    /// Device counter delta from `self` to `end`.
    pub fn device_delta(&self, end: &Counters) -> StatsSnapshot {
        end.dev.delta_since(&self.dev)
    }

    /// Records the per-op counter metrics of the `ops` ops between `self`
    /// and `end`, which wrote `user_bytes` bytes of user data.
    pub fn window_metrics(&self, end: &Counters, ops: u64, user_bytes: u64, out: &mut Outcome) {
        let d = self.device_delta(end);
        let per_op = |v: u64| ratio(v as f64, ops as f64);
        out.set("nvm.fences_per_op", per_op(d.fences));
        out.set("nvm.lines_flushed_per_op", per_op(d.lines_flushed));
        out.set("nvm.bytes_read_per_op", per_op(d.bytes_read));
        out.set("nvm.nt_bytes_per_op", per_op(d.bytes_written_nt));
        out.set(
            "nvm.atomic_ops_per_op",
            per_op(d.atomic_stores + d.atomic_xors + d.atomic_cas_ops),
        );
        out.set("nvm.write_amp", ratio(d.total_bytes_written() as f64, user_bytes as f64));
        out.set("pgl.csum_bytes_per_op", per_op(d.csum_bytes));
        out.set("pgl.old_reads_per_op", per_op(d.commit_old_reads));
        out.set("parity.xor_bytes_per_op", per_op(d.xor_bytes));
        out.set("parity.atomic_xors_per_op", per_op(d.atomic_xors));
        out.set("server.txns_per_group", ratio(d.group_txns as f64, d.group_commits as f64));
        out.set("proc.allocs_per_op", per_op(end.allocs - self.allocs));
        out.set("pmemobj.mod_bytes_per_op", per_op(end.tx.modified_bytes - self.tx.modified_bytes));
        out.set(
            "pmemobj.new_bytes_per_op",
            per_op(end.tx.allocated_bytes - self.tx.allocated_bytes),
        );
        out.set(
            "pmemobj.mod_objects_per_op",
            per_op(end.tx.modified_objects - self.tx.modified_objects),
        );
        let cached = (end.vuln.verified_cached - self.vuln.verified_cached) as f64;
        let verified = (end.vuln.verified - self.vuln.verified) as f64;
        out.set("vcache.cached_share", ratio(cached, verified + cached));
    }
}

/// Process CPU time (user + system, every thread) in seconds, from
/// `/proc/self/stat`, whose clock ticks are 1/100 s on Linux.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Peak resident set size of the process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Allocations made by any thread of the process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// Allocations made by the calling thread (tests run in parallel, so
    /// they count per thread).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // `try_with` fails only while the thread is being torn down.
        #[cfg(test)]
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are a plain atomic and (in tests) a
// const-initialised thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far by the whole process.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations made so far by the calling thread.
#[cfg(test)]
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_time_prices_each_counter_at_its_rate() {
        let d = StatsSnapshot {
            fences: 2,
            lines_flushed: 10,
            bytes_read: 600,     // 10 lines, rounded up
            bytes_written: 4096, // free: Optane stores are paid at flush
            bytes_written_nt: 128,
            atomic_stores: 1,
            atomic_xors: 3,
            atomic_cas_ops: 1,
            csum_bytes: 1 << 20, // not a device operation
            ..StatsSnapshot::default()
        };
        let m = LatencyModel::optane();
        let want = 2 * 30 + 10 * 90 + 10 * 50 + 2 * 60 + 5 * 20;
        assert_eq!(device_ns(&d, &m), want);
        assert_eq!(device_ns(&d, &LatencyModel::disabled()), 0);
        assert_eq!(device_ns(&StatsSnapshot::default(), &m), 0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 0.5), 50);
        assert_eq!(percentile(&xs, 0.9), 90);
        assert_eq!(percentile(&xs, 0.999), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    /// The metric lists here and in the benchmark's manifest agree.
    #[test]
    fn metric_lists_match_the_manifest() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(manifest) else {
            return; // built outside a full checkout
        };
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} ({unit}) missing from BENCHMARK.json");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "extra metrics in BENCHMARK.json");
    }
}
