//! Pieces every workload shares: run arguments, pool geometry, the timed
//! phase's schedule, restart cycles and the space accounting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pangolin::{OpenOptions, PglPool};
use pgl_nvm::{DeviceConfig, LatencyModel, NvmDevice, StatsSnapshot, PAGE_SIZE};
use pgl_pmemobj::{Layout, PoolConfig, OBJ_HEADER_SIZE};

use crate::report::{median, percentile, ratio, Outcome};
use crate::trace::{self, Span};

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Repetitions per run, each on a freshly allocated and prefilled
    /// pool with inputs from its own seed: timings pool their samples over
    /// all of them, so one unlucky memory placement or draw of hot keys
    /// moves a run less, and `setup_s` is their median. A traced run sets
    /// up once.
    pub fn reps(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    /// Length of each repetition's timed phase.
    pub fn rep_seconds(&self) -> f64 {
        self.seconds / self.reps() as f64
    }

    /// Restart cycles per repetition.
    pub fn restarts(&self) -> usize {
        if self.trace {
            5
        } else {
            35
        }
    }
}

/// Error type of the benchmark: what failed, as text.
pub type BenchResult<T> = Result<T, String>;

/// Formats any error with a context prefix.
pub fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Zone size of every benchmark pool (the library's paper-scaled
/// geometry: 64 KiB chunks, 100 data rows plus one parity row).
const ZONE_SIZE: usize = 64 << 20;

/// Pool geometry with `zones` zones and 8 lanes (the benchmark never
/// runs more than a few transactions at once).
pub fn geometry(zones: usize) -> PoolConfig {
    let mut g = PoolConfig::bench(1 << 30);
    g.zone_size = ZONE_SIZE;
    g.n_lanes = 8;
    let heap_off = Layout::new(g).expect("benchmark geometry is valid").heap_off as usize;
    g.size = heap_off + zones * ZONE_SIZE;
    g
}

/// A Fast-persistence device with the latency model off, sized for `opts`.
pub fn device(opts: &OpenOptions) -> BenchResult<Arc<NvmDevice>> {
    let dev =
        NvmDevice::new(opts.config().pool.size, DeviceConfig::fast()).map_err(ctx("device"))?;
    Ok(Arc::new(dev))
}

/// Waits until no pool handle or background worker holds `dev` any more,
/// so a reopen never overlaps the previous pool's threads.
pub fn wait_released(dev: &Arc<NvmDevice>) -> BenchResult<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Arc::strong_count(dev) > 1 {
        if Instant::now() > deadline {
            return Err("pool still held 30 s after it was dropped".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// Opens the pool on `dev` inside a `recover.open` span.
pub fn open(opts: &OpenOptions, dev: &Arc<NvmDevice>) -> BenchResult<PglPool> {
    let _g = trace::span(Span::RecoverOpen);
    opts.clone().open(dev.clone()).map_err(ctx("open"))
}

/// Runs `cycles` restarts of the (already dropped) pool on `dev` into
/// `tot`: each waits for the previous pool to be released, then times
/// `reopen`, which opens the pool and attaches whatever serves it. Its
/// result is dropped after the clock stops.
pub fn restart_cycles<T>(
    tot: &mut Totals,
    dev: &Arc<NvmDevice>,
    cycles: usize,
    mut reopen: impl FnMut() -> BenchResult<T>,
) -> BenchResult<()> {
    for _ in 0..cycles {
        wait_released(dev)?;
        let before = dev.stats();
        let t0 = Instant::now();
        let opened = reopen()?;
        tot.restart_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tot.restart_read_bytes += dev.stats().delta_since(&before).bytes_read;
        drop(opened);
    }
    wait_released(dev)
}

/// Runs `rep` once per repetition (see [`Args::reps`]) with that
/// repetition's seed, then records the run's timings and success ratio.
/// Repetition `i` derives its inputs from `seed + i·φ`, so a run pools
/// several key sets and hot keys instead of hanging on one draw.
pub fn run_reps(
    args: &Args,
    mut rep: impl FnMut(u64, &mut Totals, &mut Outcome) -> BenchResult<()>,
) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let mut tot = Totals::default();
    for i in 0..args.reps() as u64 {
        rep(args.seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)), &mut tot, &mut out)?;
    }
    tot.report(&mut out, args.trace);
    out.set("success_ratio", out.success_ratio());
    Ok(out)
}

/// The end-to-end measurements of a run, summed over its repetitions.
#[derive(Default)]
pub struct Totals {
    /// Set-up time of each repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every untraced timed op, in nanoseconds.
    pub lat: Vec<u64>,
    /// Untraced timed ops and their wall time in nanoseconds.
    plain_ops: u64,
    plain_nanos: u64,
    /// Every timed op, with the process CPU seconds and modeled device
    /// nanoseconds they took.
    ops: u64,
    cpu_s: f64,
    device_ns: u64,
    /// Time of each reopen, in milliseconds.
    restart_ms: Vec<f64>,
    restart_read_bytes: u64,
}

impl Totals {
    /// Adds one timed phase that used `cpu_s` seconds of process CPU and
    /// did the device operations counted in `device`.
    pub fn add_phase(&mut self, phase: &Phase, cpu_s: f64, device: &StatsSnapshot) {
        self.plain_ops += phase.ops[Part::Plain as usize];
        self.plain_nanos += phase.nanos[Part::Plain as usize];
        self.ops += phase.total_ops();
        self.cpu_s += cpu_s;
        self.device_ns += crate::report::device_ns(device, &LatencyModel::optane());
    }

    /// Records the run's timings: the end-to-end ones, or on a traced run
    /// the latency tail and the bytes read per reopen.
    pub fn report(mut self, out: &mut Outcome, traced: bool) {
        self.lat.sort_unstable();
        let n = self.lat.len() as u64;
        let us = |p: f64| percentile(&self.lat, p) as f64 / 1e3;
        let per_op = |v: f64| ratio(v, self.ops as f64);
        if traced {
            out.timing("p99_us", us(0.99), n);
            out.timing("p999_us", us(0.999), n);
            let reopens = self.restart_ms.len() as f64;
            out.set("recover.mb_read", ratio(self.restart_read_bytes as f64 / 1e6, reopens));
            return;
        }
        out.set("throughput_ops_s", ratio(self.plain_ops as f64, self.plain_nanos as f64 / 1e9));
        out.timing("p50_us", us(0.5), n);
        out.timing("p90_us", us(0.9), n);
        out.set("device_us_per_op", per_op(self.device_ns as f64 / 1e3));
        out.set("cpu_us_per_op", per_op(self.cpu_s * 1e6));
        let reopens = self.restart_ms.len() as u64;
        out.timing("restart_ms", median(&mut self.restart_ms), reopens);
        let setups = self.setup_s.len() as u64;
        out.timing("setup_s", median(&mut self.setup_s), setups);
    }
}

/// NVMM bytes per byte of live user data: live objects with their
/// headers, plus the parity rows, the replicated pool and zone headers,
/// and the lane (redo log) regions with their replicas.
pub fn space_amp(pool: &PglPool, user_bytes: u64) -> BenchResult<f64> {
    let objects: u64 = pool
        .live_objects()
        .map_err(ctx("live objects"))?
        .iter()
        .map(|(_, h)| h.size + OBJ_HEADER_SIZE)
        .sum();
    let l = pool.layout();
    let copies = if pool.mode().replicates_logs() { 2 } else { 1 };
    let lanes = (l.cfg.n_lanes * l.cfg.lane_size) as u64 * copies;
    let headers = 2 * PAGE_SIZE as u64 * (1 + l.n_zones);
    let parity = l.n_zones * l.parity_bytes_per_zone();
    Ok((objects + lanes + headers + parity) as f64 / user_bytes.max(1) as f64)
}

/// Which part of the timed phase an op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Traced runs only: the first ops, untraced, over which the
    /// per-op counters are taken (a fixed op count, so single-threaded
    /// workloads repeat them exactly).
    Window,
    /// Untraced ops.
    Plain,
    /// Ops with span recording on.
    Traced,
}

/// Length of one traced or untraced slice of a traced run.
const SLICE: Duration = Duration::from_millis(250);

/// The timed phase's clock. An untraced run is one `Plain` stretch. A
/// traced run starts with a fixed-size `Window`, then alternates `Plain`
/// and `Traced` slices, so that tracing overhead is the ratio of their
/// throughputs under the same conditions.
pub struct Phase {
    traced_run: bool,
    window_ops: u64,
    end: Instant,
    part: Part,
    part_start: Instant,
    /// Ops completed per part (`Window`, `Plain`, `Traced`).
    pub ops: [u64; 3],
    /// Wall time per part, in nanoseconds.
    pub nanos: [u64; 3],
}

impl Phase {
    /// Starts the clock.
    pub fn start(seconds: f64, traced_run: bool, window_ops: u64) -> Phase {
        let now = Instant::now();
        let part = if traced_run { Part::Window } else { Part::Plain };
        Phase {
            traced_run,
            window_ops,
            end: now + Duration::from_secs_f64(seconds),
            part,
            part_start: now,
            ops: [0; 3],
            nanos: [0; 3],
        }
    }

    /// The part the next op belongs to, or `None` once time is up.
    /// Switches span recording on and off at slice boundaries.
    pub fn next(&mut self) -> Option<Part> {
        let now = Instant::now();
        if now >= self.end {
            self.close(now);
            return None;
        }
        let want = match self.part {
            _ if !self.traced_run => Part::Plain,
            Part::Window if self.ops[0] < self.window_ops => Part::Window,
            Part::Window => Part::Plain,
            p if now.duration_since(self.part_start) < SLICE => p,
            Part::Plain => Part::Traced,
            Part::Traced => Part::Plain,
        };
        if want != self.part {
            self.close(now);
            self.part = want;
            trace::set_recording(want == Part::Traced);
        }
        Some(self.part)
    }

    /// Counts `n` completed ops in the current part.
    pub fn count(&mut self, n: u64) {
        self.ops[self.part as usize] += n;
    }

    fn close(&mut self, now: Instant) {
        self.nanos[self.part as usize] += now.duration_since(self.part_start).as_nanos() as u64;
        self.part_start = now;
        if self.traced_run {
            trace::set_recording(false);
        }
    }

    /// Ops per second of one part.
    pub fn throughput(&self, part: Part) -> f64 {
        let i = part as usize;
        crate::report::ratio(self.ops[i] as f64, self.nanos[i] as f64 / 1e9)
    }

    /// Untraced throughput over traced throughput (traced runs).
    pub fn trace_overhead(&self) -> f64 {
        crate::report::ratio(self.throughput(Part::Plain), self.throughput(Part::Traced))
    }

    /// All ops of the phase.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }
}

/// A SplitMix64 step: the benchmark's source of derived values.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
