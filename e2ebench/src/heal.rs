//! `heal`: one writer thread, bound to parity shard 0, overwrites 256 hot
//! 256-byte objects, one transaction per op, while parity shard 1 holds
//! 8K cold objects. Every commit tick kicks the background scrub, and
//! every [`FAULT_EVERY`] commits the writer injects one fault into a cold
//! object, alternating scribbles and poisoned pages. Scrub, online repair
//! and parity reconstruction run beside the commits.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use pangolin::{inject, CsumPolicy, OpenOptions, PglMode, PglPool};
use pgl_nvm::{NvmDevice, PAGE_SIZE};
use pgl_pmemobj::{PMEMoid, TxStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{self, ctx, Args, BenchResult, Part, Phase, Totals};
use crate::report::{self, ratio, Counters, Outcome};
use crate::trace::{self, Span};

/// Hot objects the writer overwrites.
const HOT: usize = 256;
/// Cold objects the faults land in.
const COLD: usize = 8192;
/// Bytes of every object.
const OBJ: usize = 256;
/// Commits between background scrub kicks.
const SCRUB_EVERY: u64 = 4096;
/// Commits between injected faults.
const FAULT_EVERY: u64 = 8192;
/// Any this many consecutive faults touch pairwise disjoint parity
/// columns, so each stays repairable while the others are outstanding.
const DISJOINT: usize = 8;
/// Cold objects allocated per set-up transaction.
const PER_TX: usize = 64;
/// Untimed ops between set-up and the timed phase.
const WARMUP_OPS: u64 = 20_000;
/// Ops in a traced run's counter window.
const WINDOW_OPS: u64 = 20_000;
const TYPE_HOT: u32 = 300;
const TYPE_COLD: u32 = 301;

fn options() -> OpenOptions {
    PglPool::options()
        .mode(PglMode::Mlpc)
        .csum_policy(CsumPolicy::ScrubEvery(SCRUB_EVERY))
        .background_scrub(true)
        .scrub_interval_ms(0)
        .scrub_pace_ms(0)
        .geometry(common::geometry(2))
        .shards(2)
}

/// Contents of object `obj` (hot ones are offset by `COLD`) at `version`.
fn fill(buf: &mut [u8; OBJ], seed: u64, obj: usize, version: u64) {
    let base =
        common::mix(seed ^ ((obj as u64) << 32)) ^ version.wrapping_mul(0xa076_1d64_78bd_642f);
    for (i, w) in buf.chunks_exact_mut(8).enumerate() {
        w.copy_from_slice(&common::mix(base ^ i as u64).to_le_bytes());
    }
}

/// `(zone, page column)` pairs an object's bytes, header included, lie
/// in: a fault there needs those columns of every other row intact.
fn page_columns(pool: &PglPool, oid: PMEMoid) -> BenchResult<Vec<(u64, u64)>> {
    let l = pool.layout();
    let (z, _, first) = l.row_col_of(oid.header_off()).map_err(ctx("layout"))?;
    let (_, _, last) = l.row_col_of(oid.off + OBJ as u64 - 1).map_err(ctx("layout"))?;
    let page = PAGE_SIZE as u64;
    Ok((first / page..=last / page).map(|c| (z, c)).collect())
}

/// The seeded fault schedule: victims among the cold objects such that
/// any [`DISJOINT`] consecutive faults share no zone parity column, kinds
/// alternating between a scribble and a poisoned page.
struct FaultPlan {
    rng: StdRng,
    columns: Vec<Vec<(u64, u64)>>,
    recent: VecDeque<usize>,
    issued: u64,
}

/// One scheduled fault.
struct Fault {
    victim: usize,
    poison: bool,
    pattern: u8,
}

impl FaultPlan {
    fn next(&mut self) -> Fault {
        let victim = loop {
            let v = self.rng.gen_range(0..self.columns.len());
            let clear = self
                .recent
                .iter()
                .all(|&r| self.columns[r].iter().all(|c| !self.columns[v].contains(c)));
            if clear {
                break v;
            }
        };
        self.recent.push_back(victim);
        if self.recent.len() >= DISJOINT {
            self.recent.pop_front();
        }
        self.issued += 1;
        Fault {
            victim,
            poison: self.issued.is_multiple_of(2),
            pattern: self.rng.gen_range(1..=255u8),
        }
    }
}

struct Setup {
    /// Seed the object contents and schedules derive from.
    seed: u64,
    dev: Arc<NvmDevice>,
    pool: PglPool,
    hot: Vec<PMEMoid>,
    cold: Vec<PMEMoid>,
    /// Version of each hot object's contents (cold ones stay at 0).
    versions: Vec<u64>,
    plan: FaultPlan,
}

fn allocate(
    pool: &PglPool,
    seed: u64,
    first: usize,
    n: usize,
    type_num: u32,
) -> BenchResult<Vec<PMEMoid>> {
    let mut oids = Vec::with_capacity(n);
    let mut buf = [0u8; OBJ];
    for start in (0..n).step_by(PER_TX) {
        let batch = pool
            .tx(|tx| {
                (start..(start + PER_TX).min(n))
                    .map(|i| {
                        let oid = tx.alloc(OBJ as u64, type_num)?;
                        fill(&mut buf, seed, first + i, 0);
                        tx.write(oid, 0, &buf)?;
                        Ok(oid)
                    })
                    .collect::<pangolin::Result<Vec<_>>>()
            })
            .map_err(ctx("allocate"))?;
        oids.extend(batch);
    }
    Ok(oids)
}

fn setup(seed: u64) -> BenchResult<Setup> {
    let opts = options();
    let dev = common::device(&opts)?;
    let pool = opts.create(dev.clone()).map_err(ctx("create"))?;
    pool.bind_thread_to_shard(1);
    let cold = allocate(&pool, seed, 0, COLD, TYPE_COLD)?;
    pool.bind_thread_to_shard(0);
    let hot = allocate(&pool, seed, COLD, HOT, TYPE_HOT)?;
    let shard_of = |oid: &PMEMoid| {
        pool.layout()
            .zone_and_rel(oid.off)
            .map(|(z, _)| pool.shard_map().shard_of_zone(z))
            .unwrap_or(u64::MAX)
    };
    if cold.iter().any(|o| shard_of(o) != 1) || hot.iter().any(|o| shard_of(o) != 0) {
        return Err("objects did not land in their parity shards".into());
    }
    let columns = cold.iter().map(|&o| page_columns(&pool, o)).collect::<BenchResult<_>>()?;
    let plan = FaultPlan {
        rng: StdRng::seed_from_u64(seed ^ 0x6865_616c),
        columns,
        recent: VecDeque::new(),
        issued: 0,
    };
    Ok(Setup { seed, dev, pool, hot, cold, versions: vec![0; HOT], plan })
}

/// Injected faults not yet certainly repaired, with the number of shard-1
/// scrub passes completed when each was injected. A fault is certainly
/// repaired once two more passes have completed: the second began after
/// the injection and scrubs every cold object.
struct Outstanding {
    faults: VecDeque<(u64, u64)>,
    injected: u64,
}

impl Outstanding {
    fn passes(dev: &NvmDevice) -> u64 {
        dev.stats().scrub_passes[1]
    }

    /// Whether the next fault may be injected: every fault that shares a
    /// column window with it is certainly repaired.
    fn ready(&mut self, dev: &NvmDevice) -> bool {
        let oldest_allowed = self.injected.saturating_sub(DISJOINT as u64 - 1);
        if self.faults.front().is_none_or(|&(i, _)| i >= oldest_allowed) {
            return true;
        }
        let passes = Self::passes(dev);
        while let Some(&(i, at)) = self.faults.front() {
            if i < oldest_allowed && passes >= at + 2 {
                self.faults.pop_front();
            } else {
                break;
            }
        }
        self.faults.front().is_none_or(|&(i, _)| i >= oldest_allowed)
    }

    fn inject(&mut self, st: &mut Setup) -> BenchResult<()> {
        let f = st.plan.next();
        let oid = st.cold[f.victim];
        if f.poison {
            inject::poison_object_page(&st.pool, oid).map_err(ctx("poison"))?;
        } else {
            inject::scribble_object(&st.pool, oid, 0, 16, f.pattern).map_err(ctx("scribble"))?;
        }
        self.faults.push_back((self.injected, Self::passes(&st.dev)));
        self.injected += 1;
        Ok(())
    }
}

/// One overwrite of a random hot object inside a `pgl.tx` span.
fn step(st: &mut Setup, rng: &mut StdRng, buf: &mut [u8; OBJ]) -> (bool, u64) {
    let i = rng.gen_range(0..HOT);
    fill(buf, st.seed, COLD + i, st.versions[i] + 1);
    let oid = st.hot[i];
    let t0 = Instant::now();
    let r = {
        let _g = trace::span(Span::PglTx);
        st.pool.tx(|tx| tx.write(oid, 0, &buf[..]))
    };
    let ns = t0.elapsed().as_nanos() as u64;
    if r.is_ok() {
        st.versions[i] += 1;
    }
    (r.is_ok(), ns)
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> BenchResult<Outcome> {
    common::run_reps(args, |seed, tot, out| {
        let t0 = Instant::now();
        let mut st = setup(seed)?;
        tot.setup_s.push(t0.elapsed().as_secs_f64());
        timed(args, &mut st, tot, out)?;
        check(args, st, tot, out)
    })
}

fn timed(args: &Args, st: &mut Setup, tot: &mut Totals, out: &mut Outcome) -> BenchResult<()> {
    let mut rng = StdRng::seed_from_u64(st.seed ^ 0x7772_6974_6572);
    let mut buf = [0u8; OBJ];
    for _ in 0..WARMUP_OPS {
        if !step(st, &mut rng, &mut buf).0 {
            return Err("warm-up op failed".into());
        }
    }
    let mut faults = Outstanding { faults: VecDeque::new(), injected: 0 };
    let start = Counters::take(&st.dev, &st.pool, TxStats::default());
    let scrub0 = st.pool.scrub_totals();
    let (obj0, page0) = recoveries(&st.pool);
    let mut window_end = None;
    let mut due = false;
    let mut ops = 0u64;
    let cpu0 = report::cpu_seconds();
    let mut phase = Phase::start(args.rep_seconds(), args.trace, WINDOW_OPS);
    while let Some(part) = phase.next() {
        if part != Part::Window && window_end.is_none() && args.trace {
            window_end = Some(Counters::take(&st.dev, &st.pool, TxStats::default()));
        }
        let (ok, ns) = step(st, &mut rng, &mut buf);
        phase.count(1);
        ops += 1;
        if !ok {
            out.failed += 1;
            out.fail("an overwrite transaction failed".into());
        }
        if part == Part::Plain {
            tot.lat.push(ns);
        }
        due |= ops.is_multiple_of(FAULT_EVERY);
        if due && ops.is_multiple_of(64) && faults.ready(&st.dev) {
            faults.inject(st)?;
            due = false;
        }
    }
    out.attempted += ops;
    let cpu = report::cpu_seconds() - cpu0;
    let end = Counters::take(&st.dev, &st.pool, TxStats::default());
    let scrub = st.pool.scrub_totals();
    let (obj1, page1) = recoveries(&st.pool);
    tot.add_phase(&phase, cpu, &start.device_delta(&end));
    trace::set_recording(args.trace);
    let drained = {
        let _g = trace::span(Span::ScrubDrain);
        st.pool.scrub_now().map_err(ctx("final scrub"))?
    };
    println!(
        "faults injected: {}, left for the final scrub: {}",
        faults.injected,
        drained.repairs()
    );
    if !args.trace {
        return Ok(());
    }
    trace::flush_thread();
    let w = window_end.as_ref().unwrap_or(&end);
    let wops = phase.ops[Part::Window as usize];
    start.window_metrics(w, wops, wops * OBJ as u64, out);
    let all = start.device_delta(&end);
    out.set("scrub.passes", all.scrub_passes.iter().sum::<u64>() as f64);
    let verified = scrub.cumulative.bytes_verified - scrub0.cumulative.bytes_verified;
    let secs = phase.nanos.iter().sum::<u64>() as f64 / 1e9;
    out.set("scrub.mb_verified_per_s", ratio(verified as f64 / 1e6, secs));
    out.set("scrub.repairs", (scrub.cumulative.repairs() - scrub0.cumulative.repairs()) as f64);
    out.set("scrub.left_for_drain", drained.repairs() as f64);
    out.set("recover.object_recoveries", (obj1 - obj0) as f64);
    out.set("recover.page_recoveries", (page1 - page0) as f64);
    let agg = trace::snapshot();
    let tx = agg.dur(Span::PglTx);
    out.timing("pgl.tx_us.p999", tx.quantile(0.999) / 1e3, tx.n);
    out.set("trace.overhead", phase.trace_overhead());
    out.set("trace.spans", agg.spans() as f64);
    Ok(())
}

/// Checks that every fault was healed online with nothing lost or fenced
/// off, restarts the pool, and reads every object back with verified
/// reads.
fn check(args: &Args, st: Setup, tot: &mut Totals, out: &mut Outcome) -> BenchResult<()> {
    let Setup { seed, dev, pool, hot, cold, versions, .. } = st;
    let zones = pool.quarantined_zones();
    if !zones.is_empty() {
        out.fail(format!("zones quarantined: {zones:?}"));
    }
    let failed_repairs = dev.stats().repairs_failed;
    if failed_repairs != 0 {
        out.fail(format!("{failed_repairs} repairs failed"));
    }
    match pool.verify_parity_detailed() {
        Ok(bad) if bad.is_empty() => {}
        other => out.fail(format!("parity mismatches after the final scrub: {other:?}")),
    }
    if !dev.poisoned_pages().is_empty() {
        out.fail(format!("pages still poisoned: {:?}", dev.poisoned_pages()));
    }
    match pool.find_corrupt_objects() {
        Ok(bad) if bad.is_empty() => {}
        other => out.fail(format!("corrupt objects after the final scrub: {other:?}")),
    }
    drop(pool);

    let opts = options();
    common::restart_cycles(tot, &dev, args.restarts(), || common::open(&opts, &dev))?;
    let pool = common::open(&opts, &dev)?;
    let mut want = [0u8; OBJ];
    let objects =
        cold.iter().map(|&o| (o, 0)).chain(hot.iter().zip(&versions).map(|(&o, &v)| (o, v)));
    for (i, (oid, version)) in objects.enumerate() {
        fill(&mut want, seed, i, version);
        match pool.read_verified(oid) {
            Ok(got) if got == want => {}
            other => {
                out.failed += 1;
                out.fail(format!("object {i} after restart: {:?}", other.map(|g| g.len())));
            }
        }
    }
    out.set("space_amp", common::space_amp(&pool, ((HOT + COLD) * OBJ) as u64)?);
    drop(pool);
    common::wait_released(&dev)
}

fn recoveries(pool: &PglPool) -> (u64, u64) {
    use std::sync::atomic::Ordering::Relaxed;
    let c = pool.counters();
    (c.object_recoveries.load(Relaxed), c.page_recoveries.load(Relaxed))
}
