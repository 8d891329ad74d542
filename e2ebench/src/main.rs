//! End-to-end benchmark of the Pangolin workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <kv_txn|svc_mixed|heal> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs on a Fast-persistence device with the latency
//! model off; device time is billed from the device's counters
//! ([`report::device_ns`]) instead of stalling the wall clock. A run sets
//! up its pool, measures for `--seconds`, drops and reopens the pool, and
//! reads every acknowledged write back with verified reads. With
//! `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones from spans recorded around calls into each layer; the
//! last line of standard output is a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed output check exits with
//! code 1, a run that cannot complete with code 2.
//!
//! `cargo test --release --manifest-path e2ebench/Cargo.toml` checks the
//! device-time pricing, the span recorder, and that two short `kv_txn`
//! runs with one seed repeat their device counters and allocations
//! exactly.

mod common;
mod heal;
mod kv_txn;
mod report;
mod svc_mixed;
mod trace;

use common::Args;
use report::{CountingAlloc, Outcome};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes tests that touch process-wide recorder or allocator state.
#[cfg(test)]
static TEST_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let run: fn(&Args) -> common::BenchResult<Outcome> = match args.workload.as_str() {
        "kv_txn" => kv_txn::run,
        "svc_mixed" => svc_mixed::run,
        "heal" => heal::run,
        other => {
            eprintln!("e2ebench: unknown workload {other:?} (kv_txn, svc_mixed, heal)");
            std::process::exit(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            std::process::exit(2);
        }
    };
    if args.trace {
        trace::flush_thread();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.tsv", args.workload));
        if let Err(e) = trace::write_spans(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    } else {
        out.set("peak_rss_mb", report::peak_rss_mb());
    }
    out.print(if args.trace { report::PER_LAYER } else { report::END_TO_END });
    if !out.errors.is_empty() {
        std::process::exit(1);
    }
}
