//! `kv_txn`: one closed-loop caller runs one transaction per op against
//! an in-process B-tree: 90% puts and 10% deletes, zipfian (θ = 0.99)
//! over 50K prefilled keys. Nearly all the work is the per-transaction
//! commit path; no server or scrub runs.

use std::sync::Arc;
use std::time::Instant;

use pangolin::{CsumPolicy, OpenOptions, PglMode, PglPool};
use pgl_kv::btree::BTree;
use pgl_kv::maps::PersistentMap;
use pgl_kv::store::{KvResult, PglStore, Store};
use pgl_kv::workload::{random_keys, Zipf};
use pgl_nvm::NvmDevice;
use pgl_pmemobj::TxStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{self, ctx, Args, BenchResult, Part, Phase, Totals};
use crate::report::{self, Counters, Outcome};
use crate::trace::{self, Span, TracedStore, VerifiedStore};

/// Prefilled keys: about 11K 304-byte nodes, inside the 64 Ki-entry
/// verified-generation cache.
const KEYS: usize = 50_000;
/// Zipfian skew of key popularity.
const THETA: f64 = 0.99;
/// Untimed ops between set-up and the timed phase.
const WARMUP_OPS: u64 = 20_000;
/// Ops in a traced run's counter window.
const WINDOW_OPS: u64 = 20_000;
/// Keys inserted per prefill transaction.
const PREFILL_PER_TX: usize = 128;
/// User bytes of one key-value pair.
const PAIR_BYTES: u64 = 16;

fn options() -> OpenOptions {
    PglPool::options()
        .mode(PglMode::Mlpc)
        .csum_policy(CsumPolicy::Default)
        .background_scrub(false)
        .geometry(common::geometry(1))
        .shards(1)
}

/// A prefilled pool and the DRAM model of its map.
struct Setup {
    dev: Arc<NvmDevice>,
    pool: PglPool,
    map: BTree,
    keys: Vec<u64>,
    /// Value by key rank (`None` = absent).
    model: Vec<Option<u64>>,
    gen: OpGen,
}

/// The seeded op stream: a zipfian key rank and a put value, or a delete.
struct OpGen {
    rng: StdRng,
    zipf: Zipf,
}

impl OpGen {
    fn next(&mut self) -> (usize, Option<u64>) {
        let rank = self.zipf.sample(&mut self.rng);
        let put = if self.rng.gen_range(0..10u32) == 0 { None } else { Some(self.rng.gen()) };
        (rank, put)
    }
}

fn setup(seed: u64, n_keys: usize) -> BenchResult<Setup> {
    let opts = options();
    let dev = common::device(&opts)?;
    let pool = opts.create(dev.clone()).map_err(ctx("create"))?;
    let store = PglStore::new(pool.clone());
    let map = BTree::create(&store).map_err(ctx("map"))?;
    let keys = random_keys(n_keys, seed);
    let model: Vec<Option<u64>> = (0..n_keys).map(|r| Some(common::mix(seed ^ r as u64))).collect();
    for (chunk, vals) in keys.chunks(PREFILL_PER_TX).zip(model.chunks(PREFILL_PER_TX)) {
        store
            .txn(&mut |tx| {
                for (&k, v) in chunk.iter().zip(vals) {
                    map.insert_tx(tx, k, v.expect("prefill value"))?;
                }
                Ok(())
            })
            .map_err(ctx("prefill"))?;
    }
    let gen = OpGen {
        rng: StdRng::seed_from_u64(seed ^ 0x6b76_5f74_786e),
        zipf: Zipf::new(n_keys, THETA),
    };
    Ok(Setup { dev, pool, map, keys, model, gen })
}

/// Runs one op inside a `kv.op` span and checks its reply against the
/// model, which it then updates. Returns whether the reply was correct,
/// whether the op was a put, and its latency in nanoseconds.
fn step<S: Store>(st: &mut Setup, store: &S) -> (bool, bool, u64) {
    let (rank, put) = st.gen.next();
    let key = st.keys[rank];
    let t0 = Instant::now();
    let got: KvResult<Option<u64>> = {
        let _g = trace::span(Span::KvOp);
        match put {
            Some(v) => st.map.insert(store, key, v),
            None => st.map.remove(store, key),
        }
    };
    let ns = t0.elapsed().as_nanos() as u64;
    let ok = matches!(got, Ok(old) if old == st.model[rank]);
    if ok {
        st.model[rank] = put;
    }
    (ok, put.is_some(), ns)
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> BenchResult<Outcome> {
    common::run_reps(args, |seed, tot, out| {
        let t0 = Instant::now();
        let mut st = setup(seed, KEYS)?;
        tot.setup_s.push(t0.elapsed().as_secs_f64());
        {
            let store = PglStore::new(st.pool.clone());
            for _ in 0..WARMUP_OPS {
                if !step(&mut st, &store).0 {
                    return Err("warm-up op failed".into());
                }
            }
            if args.trace {
                let traced = TracedStore::new(store);
                timed(args, &mut st, &traced, &|| traced.tx_stats(), tot, out)?;
            } else {
                timed(args, &mut st, &store, &TxStats::default, tot, out)?;
            }
        }
        check(args, st, tot, out)
    })
}

/// Restarts the pool, then reads every key back with verified reads and
/// compares it with the model.
fn check(args: &Args, st: Setup, tot: &mut Totals, out: &mut Outcome) -> BenchResult<()> {
    let Setup { dev, pool, map, keys, model, .. } = st;
    trace::set_recording(args.trace);
    drop(pool);
    let opts = options();
    common::restart_cycles(tot, &dev, args.restarts(), || common::open(&opts, &dev))?;
    let pool = common::open(&opts, &dev)?;
    let store = VerifiedStore(PglStore::new(pool.clone()));
    let mut live = 0u64;
    for (&key, want) in keys.iter().zip(&model) {
        live += u64::from(want.is_some());
        match map.get(&store, key) {
            Ok(got) if got == *want => {}
            Ok(got) => {
                out.failed += 1;
                out.fail(format!(
                    "key {key:#x}: read {got:?} after restart, acknowledged {want:?}"
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.fail(format!("key {key:#x}: verified read failed after restart: {e}"));
            }
        }
    }
    match map.len(&store) {
        Ok(n) if n == live => {}
        other => out.fail(format!("map holds {other:?} keys after restart, model {live}")),
    }
    out.set("space_amp", common::space_amp(&pool, live * PAIR_BYTES)?);
    Ok(())
}

fn timed<S: Store>(
    args: &Args,
    st: &mut Setup,
    store: &S,
    tx_stats: &dyn Fn() -> TxStats,
    tot: &mut Totals,
    out: &mut Outcome,
) -> BenchResult<()> {
    let mut window_puts = 0u64;
    let start = Counters::take(&st.dev, &st.pool, tx_stats());
    let mut window_end = None;
    let cpu0 = report::cpu_seconds();
    let mut phase = Phase::start(args.rep_seconds(), args.trace, WINDOW_OPS);
    while let Some(part) = phase.next() {
        if part != Part::Window && window_end.is_none() && args.trace {
            window_end = Some(Counters::take(&st.dev, &st.pool, tx_stats()));
        }
        let (ok, put, ns) = step(st, store);
        phase.count(1);
        out.attempted += 1;
        if !ok {
            out.failed += 1;
            out.fail("a put or delete returned a wrong old value or failed".into());
        }
        match part {
            Part::Window => window_puts += u64::from(put),
            Part::Plain => tot.lat.push(ns),
            Part::Traced => {}
        }
    }
    let cpu = report::cpu_seconds() - cpu0;
    let end = Counters::take(&st.dev, &st.pool, tx_stats());
    tot.add_phase(&phase, cpu, &start.device_delta(&end));
    if !args.trace {
        return Ok(());
    }
    trace::flush_thread();
    let w = window_end.as_ref().unwrap_or(&end);
    start.window_metrics(w, phase.ops[Part::Window as usize], window_puts * PAIR_BYTES, out);
    let agg = trace::snapshot();
    let op = agg.dur(Span::KvOp);
    let txn = agg.dur(Span::PglTxn);
    out.timing("kv.op_us.p50", op.quantile(0.5) / 1e3, op.n);
    out.timing("kv.op_us.p99", op.quantile(0.99) / 1e3, op.n);
    out.timing("kv.self_us.p50", agg.self_time(Span::KvOp).quantile(0.5) / 1e3, op.n);
    out.timing("pgl.txn_us.p50", txn.quantile(0.5) / 1e3, txn.n);
    out.timing(
        "pgl.body_us.p50",
        agg.dur(Span::PglBody).quantile(0.5) / 1e3,
        agg.dur(Span::PglBody).n,
    );
    out.timing("pgl.commit_us.p50", agg.self_time(Span::PglTxn).quantile(0.5) / 1e3, txn.n);
    out.timing("pgl.commit_us.p99", agg.self_time(Span::PglTxn).quantile(0.99) / 1e3, txn.n);
    out.set("trace.overhead", phase.trace_overhead());
    out.set("trace.spans", agg.spans() as f64);
    Ok(())
}

/// Device-counter delta and allocations of `ops` untraced ops on a fresh
/// pool prefilled with `keys` keys: the repeatability probe.
#[cfg(test)]
fn probe(seed: u64, keys: usize, ops: u64) -> (pgl_nvm::StatsSnapshot, u64) {
    let mut st = setup(seed, keys).expect("setup");
    let store = PglStore::new(st.pool.clone());
    for _ in 0..ops {
        assert!(step(&mut st, &store).0);
    }
    let before = st.dev.stats();
    let allocs = report::thread_allocs();
    for _ in 0..ops {
        assert!(step(&mut st, &store).0);
    }
    (st.dev.stats().delta_since(&before), report::thread_allocs() - allocs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two short runs with one seed do identical device work and
    /// allocations, so nondeterminism in the benchmark itself shows here.
    #[test]
    fn same_seed_repeats_counters_exactly() {
        let _serial = crate::TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (d1, a1) = probe(7, 5_000, 3_000);
        let (d2, a2) = probe(7, 5_000, 3_000);
        assert!(d1.fences > 0 && a1 > 0);
        assert_eq!(d1, d2);
        assert_eq!(a1, a2);
    }
}
