//! `svc_mixed`: one client on one TCP connection to a `KvServer` with 2
//! shards and group commit. Each frame carries 32 requests, one from each
//! of 32 closed-loop logical callers: 75% GET, 20% PUT, 4% DEL and 1%
//! SCAN, zipfian (θ = 0.99) over 400K prefilled keys.

use std::sync::Arc;
use std::time::Instant;

use pangolin::{CsumPolicy, OpenOptions, PglMode, PglPool};
use pgl_kv::store::{PglStore, Store};
use pgl_kv::workload::{random_keys, OpMix, Zipf};
use pgl_nvm::NvmDevice;
use pgl_pmemobj::TxStats;
use pgl_server::proto::{decode_responses, encode_requests, encode_responses};
use pgl_server::{Client, ClientConfig, KvServer, KvService, Request, Response, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{self, ctx, Args, BenchResult, Part, Phase, Totals};
use crate::report::{self, ratio, Counters, Outcome};
use crate::trace::{self, Span, TracedStore, VerifiedStore};

/// Prefilled keys: about 90K B-tree nodes, more than the 64 Ki-entry
/// verified-generation cache holds.
const KEYS: usize = 400_000;
/// Zipfian skew of key popularity.
const THETA: f64 = 0.99;
/// Logical callers, one request each per frame.
const CALLERS: usize = 32;
/// Pairs a SCAN asks for.
const SCAN_LIMIT: u32 = 16;
/// Requests per prefill and check frame.
const BULK_FRAME: usize = 128;
/// Untimed frames between server start and the timed phase.
const WARMUP_FRAMES: usize = 500;
/// Requests in a traced run's counter window.
const WINDOW_REQS: u64 = 20_000;
/// User bytes of one key-value pair.
const PAIR_BYTES: u64 = 16;

fn options() -> OpenOptions {
    PglPool::options()
        .mode(PglMode::Mlpc)
        .csum_policy(CsumPolicy::Default)
        .background_scrub(false)
        .geometry(common::geometry(2))
        .shards(2)
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        queue_depth: 128,
        batch_max: 32,
        max_inflight: 1024,
        request_deadline_ms: 0,
    }
}

/// The service's contents as the client acknowledged them.
struct Model {
    keys: Vec<u64>,
    /// Value by key rank (`None` = absent).
    values: Vec<Option<u64>>,
    /// `(key, rank)` in key order, for scans.
    sorted: Vec<(u64, u32)>,
}

impl Model {
    fn scan(&self, start: u64, limit: usize) -> Vec<(u64, u64)> {
        let from = self.sorted.partition_point(|&(k, _)| k < start);
        self.sorted[from..]
            .iter()
            .filter_map(|&(k, r)| self.values[r as usize].map(|v| (k, v)))
            .take(limit)
            .collect()
    }

    /// The reply `req` (on key rank `rank`) must get after every earlier
    /// request of its frame; applies the request's effect.
    fn apply(&mut self, req: &Request, rank: usize) -> Response {
        match *req {
            Request::Get { .. } => Response::Value(self.values[rank]),
            Request::Put { value, .. } => Response::Value(self.values[rank].replace(value)),
            Request::Del { .. } => Response::Value(self.values[rank].take()),
            Request::Scan { start, limit } => Response::Pairs(self.scan(start, limit as usize)),
        }
    }

    fn live(&self) -> u64 {
        self.values.iter().filter(|v| v.is_some()).count() as u64
    }
}

/// The 32 callers' seeded op streams.
struct Callers {
    rngs: Vec<StdRng>,
    zipf: Zipf,
    mix: OpMix,
}

impl Callers {
    /// Fills `reqs`/`ranks` with one request per caller. A caller redraws
    /// a key another caller of the same frame already uses, so every
    /// reply is determined by the frame's order alone.
    fn frame(&mut self, model: &Model, reqs: &mut Vec<Request>, ranks: &mut Vec<usize>) {
        reqs.clear();
        ranks.clear();
        let total = self.mix.get + self.mix.put + self.mix.del + self.mix.scan;
        for rng in &mut self.rngs {
            let rank = loop {
                let r = self.zipf.sample(rng);
                if !ranks.contains(&r) {
                    break r;
                }
            };
            let key = model.keys[rank];
            let pick = rng.gen_range(0..total);
            let req = if pick < self.mix.get {
                Request::Get { key }
            } else if pick < self.mix.get + self.mix.put {
                Request::Put { key, value: rng.gen() }
            } else if pick < self.mix.get + self.mix.put + self.mix.del {
                Request::Del { key }
            } else {
                Request::Scan { start: key, limit: SCAN_LIMIT }
            };
            reqs.push(req);
            ranks.push(rank);
        }
    }
}

struct Setup {
    dev: Arc<NvmDevice>,
    pool: PglPool,
    model: Model,
}

fn setup(seed: u64) -> BenchResult<Setup> {
    let opts = options();
    let dev = common::device(&opts)?;
    let pool = opts.create(dev.clone()).map_err(ctx("create"))?;
    let keys = random_keys(KEYS, seed);
    let values: Vec<Option<u64>> = (0..KEYS).map(|r| Some(common::mix(seed ^ r as u64))).collect();
    let svc =
        KvService::new(PglStore::new(pool.clone()), service_config()).map_err(ctx("service"))?;
    let mut reqs = Vec::with_capacity(BULK_FRAME);
    for (ks, vs) in keys.chunks(BULK_FRAME).zip(values.chunks(BULK_FRAME)) {
        reqs.clear();
        reqs.extend(
            ks.iter()
                .zip(vs)
                .map(|(&key, v)| Request::Put { key, value: v.expect("prefill value") }),
        );
        let resps = svc.call(&reqs);
        if resps.iter().any(|r| *r != Response::Value(None)) {
            return Err(format!(
                "prefill frame refused: {:?}",
                resps.iter().find(|r| **r != Response::Value(None))
            ));
        }
    }
    drop(svc);
    let mut sorted: Vec<(u64, u32)> =
        keys.iter().enumerate().map(|(r, &k)| (k, r as u32)).collect();
    sorted.sort_unstable();
    Ok(Setup { dev, pool, model: Model { keys, values, sorted } })
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> BenchResult<Outcome> {
    common::run_reps(args, |seed, tot, out| {
        let t0 = Instant::now();
        let mut st = setup(seed)?;
        tot.setup_s.push(t0.elapsed().as_secs_f64());
        let mut callers = Callers {
            rngs: (0..CALLERS as u64)
                .map(|c| StdRng::seed_from_u64(common::mix(seed ^ (c + 1) << 32)))
                .collect(),
            zipf: Zipf::new(KEYS, THETA),
            mix: OpMix::read_heavy(),
        };
        let store = PglStore::new(st.pool.clone());
        if args.trace {
            timed(args, &mut st, &mut callers, TracedStore::new(store), tot, out)?;
        } else {
            timed(args, &mut st, &mut callers, store, tot, out)?;
        }
        check(args, st, tot, out)
    })
}

/// Restarts the pool and re-attaches the service, then reads every key
/// back through it with verified reads and compares it with the model.
fn check(args: &Args, st: Setup, tot: &mut Totals, out: &mut Outcome) -> BenchResult<()> {
    let Setup { dev, pool, model } = st;
    trace::set_recording(args.trace);
    drop(pool);
    let opts = options();
    common::restart_cycles(tot, &dev, args.restarts(), || {
        let pool = common::open(&opts, &dev)?;
        let svc = KvService::new(PglStore::new(pool.clone()), service_config())
            .map_err(ctx("re-attach"))?;
        Ok((svc, pool))
    })?;
    let pool = common::open(&opts, &dev)?;
    let svc = KvService::new(VerifiedStore(PglStore::new(pool.clone())), service_config())
        .map_err(ctx("re-attach"))?;
    let mut reqs = Vec::with_capacity(BULK_FRAME);
    for (ks, vs) in model.keys.chunks(BULK_FRAME).zip(model.values.chunks(BULK_FRAME)) {
        reqs.clear();
        reqs.extend(ks.iter().map(|&key| Request::Get { key }));
        for ((key, want), got) in ks.iter().zip(vs).zip(svc.call(&reqs)) {
            if got != Response::Value(*want) {
                out.failed += 1;
                out.fail(format!("key {key:#x}: {got:?} after restart, acknowledged {want:?}"));
            }
        }
    }
    drop(svc);
    out.set("space_amp", common::space_amp(&pool, model.live() * PAIR_BYTES)?);
    Ok(())
}

/// Sends one frame and checks each reply against the model, in frame
/// order. Returns the replies, the round trip in nanoseconds, and how
/// many requests were shed as busy.
fn exchange(
    client: &mut Client,
    model: &mut Model,
    reqs: &[Request],
    ranks: &[usize],
    out: &mut Outcome,
) -> (Vec<Response>, u64, u64) {
    let t0 = Instant::now();
    let resps = {
        let _g = trace::span(Span::ClientFrame);
        client.call(reqs)
    };
    let rtt = t0.elapsed().as_nanos() as u64;
    let mut busy = 0;
    match &resps {
        Ok(resps) if resps.len() == reqs.len() => {
            for ((req, &rank), got) in reqs.iter().zip(ranks).zip(resps) {
                if *got == Response::Busy {
                    busy += 1;
                    out.failed += 1;
                    continue;
                }
                let want = model.apply(req, rank);
                if *got != want {
                    out.failed += 1;
                    out.fail(format!("{req:?}: replied {got:?}, expected {want:?}"));
                }
            }
        }
        other => {
            out.failed += reqs.len() as u64;
            out.fail(format!("frame failed: {other:?}"));
        }
    }
    (resps.unwrap_or_default(), rtt, busy)
}

fn timed<S: Store + Clone + 'static>(
    args: &Args,
    st: &mut Setup,
    callers: &mut Callers,
    store: S,
    tot: &mut Totals,
    out: &mut Outcome,
) -> BenchResult<()> {
    let server = KvServer::start(store, service_config(), "127.0.0.1:0").map_err(ctx("server"))?;
    let config = ClientConfig { max_retries: 0, ..ClientConfig::default() };
    let mut client = Client::connect_with(server.local_addr(), config).map_err(ctx("connect"))?;
    let mut reqs = Vec::with_capacity(CALLERS);
    let mut ranks = Vec::with_capacity(CALLERS);
    for _ in 0..WARMUP_FRAMES {
        callers.frame(&st.model, &mut reqs, &mut ranks);
        let mut warm = Outcome::default();
        exchange(&mut client, &mut st.model, &reqs, &ranks, &mut warm);
        if warm.failed > 0 {
            return Err(format!("warm-up frame failed: {:?}", warm.errors));
        }
    }

    let mut window_writes = 0u64;
    let mut busy = 0u64;
    let (mut enc_ns, mut dec_ns, mut wire_bytes, mut traced_reqs, mut traced_gets) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    let start = Counters::take(&st.dev, &st.pool, TxStats::default());
    let mut window_end = None;
    let cpu0 = report::cpu_seconds();
    let mut phase = Phase::start(args.rep_seconds(), args.trace, WINDOW_REQS);
    while let Some(part) = phase.next() {
        if part != Part::Window && window_end.is_none() && args.trace {
            window_end = Some(Counters::take(&st.dev, &st.pool, TxStats::default()));
        }
        callers.frame(&st.model, &mut reqs, &mut ranks);
        if part == Part::Traced {
            let t0 = Instant::now();
            encode_requests(&reqs, &mut buf).map_err(ctx("encode"))?;
            enc_ns += t0.elapsed().as_nanos() as u64;
            wire_bytes += buf.len() as u64;
            traced_reqs += reqs.len() as u64;
            traced_gets += reqs.iter().filter(|r| matches!(r, Request::Get { .. })).count() as u64;
        }
        let (resps, rtt, shed) = exchange(&mut client, &mut st.model, &reqs, &ranks, out);
        busy += shed;
        phase.count(reqs.len() as u64);
        out.attempted += reqs.len() as u64;
        match part {
            Part::Window => {
                window_writes +=
                    reqs.iter().filter(|r| matches!(r, Request::Put { .. })).count() as u64
            }
            // Every request of a frame waited for the whole round trip.
            Part::Plain => tot.lat.push(rtt),
            Part::Traced => {
                encode_responses(&resps, &mut buf).map_err(ctx("encode"))?;
                wire_bytes += buf.len() as u64;
                let t0 = Instant::now();
                let decoded = decode_responses(&buf[4..]).map_err(ctx("decode"))?;
                dec_ns += t0.elapsed().as_nanos() as u64;
                std::hint::black_box(decoded);
            }
        }
    }
    let cpu = report::cpu_seconds() - cpu0;
    let end = Counters::take(&st.dev, &st.pool, TxStats::default());
    drop(client);
    server.shutdown();
    tot.add_phase(&phase, cpu, &start.device_delta(&end));
    if !args.trace {
        return Ok(());
    }
    trace::flush_thread();
    let w = window_end.as_ref().unwrap_or(&end);
    start.window_metrics(w, phase.ops[Part::Window as usize], window_writes * PAIR_BYTES, out);
    out.set("server.busy_ratio", ratio(busy as f64, phase.total_ops() as f64));
    let agg = trace::snapshot();
    let frames = agg.dur(Span::ClientFrame);
    out.timing("server.frame_us.p50", frames.quantile(0.5) / 1e3, frames.n);
    out.timing("server.frame_us.p99", frames.quantile(0.99) / 1e3, frames.n);
    let exec = (agg.dur(Span::PglBatch).sum + agg.dur(Span::KvRead).sum) as f64;
    out.set("server.exec_share", ratio(exec, frames.sum as f64));
    let traced_wall = phase.nanos[Part::Traced as usize] as f64;
    out.set("server.worker_busy", ratio(exec, traced_wall * service_config().shards as f64));
    out.set("kv.reads_per_get", ratio(agg.dur(Span::KvRead).n as f64, traced_gets as f64));
    let batch = agg.dur(Span::PglBatch);
    out.timing("pgl.batch_us.p50", batch.quantile(0.5) / 1e3, batch.n);
    out.set("proto.encode_ns_per_req", ratio(enc_ns as f64, traced_reqs as f64));
    out.set("proto.decode_ns_per_resp", ratio(dec_ns as f64, traced_reqs as f64));
    out.set("proto.bytes_per_op", ratio(wire_bytes as f64, traced_reqs as f64));
    out.set("trace.overhead", phase.trace_overhead());
    out.set("trace.spans", agg.spans() as f64);
    Ok(())
}
