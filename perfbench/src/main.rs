//! End-to-end serving benchmark for `ajd-server`.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_point --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (`hot_point` or `live_ingest`; `all` runs both in
//! turn) against the real server, checks every answer,
//! and prints a run record line followed by the result line.  `--trace 0`
//! reports the end-to-end metrics; `--trace 1` replays the same stream with
//! spans recorded and reports the per-layer metrics.  See
//! `perfbench/README.md`.

mod check;
mod data;
mod host;
mod hot;
mod layers;
mod live;
mod req;
mod run;
mod stats;
mod trace;

use ajd_server::Json;
use run::{Cfg, Outcome};
use stats::{mean, median, Metrics};
use std::process::{Command, ExitCode};
use trace::Tracer;

const WORKLOADS: [&str; 2] = ["hot_point", "live_ingest"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one set-up of the workload and print its time (how a run
    /// times its set-up builds, each in a process of its own).
    setup: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            "--setup" => setup = value == "1",
            _ => return Err(format!("unknown flag or value: {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required: one of {WORKLOADS:?}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setup,
    })
}

fn run_workload(name: &str, cfg: Cfg, traced: bool) -> Outcome {
    let tracer = Tracer::new(traced);
    match name {
        "hot_point" => hot::run(cfg, tracer),
        _ => live::run(cfg, tracer),
    }
}

/// The end-to-end metrics of an untraced run.  The central latency of an
/// op class is its mean, not its median: the host alternates between two
/// speed phases a few seconds long, so latencies are bimodal, and a median
/// jumps between the modes whenever the slow phases' share of a run
/// crosses one half.  The mean moves in proportion to that share.  Tail
/// latencies (p90) are in the run record only: on a shared host they
/// follow the neighbours more than the program.
fn end_to_end(out: &mut Outcome) -> Metrics {
    let mut m = Metrics::default();
    m.push("setup_s", run::setup_time(out), "s");
    for op in ["entropy", "j", "loss", "analyze", "estimate", "mine"] {
        m.push(format!("{op}_mean_ms"), mean_latency(out, op), "ms");
    }
    m.push("throughput_ops_s", out.throughput(), "1/s");
    m.push("rss_mb", host::peak_rss_mib(), "MiB");
    m
}

/// The mean of `op`'s latency; a workload that produced no sample of an
/// op it must send fails its checks.
fn mean_latency(out: &mut Outcome, op: &str) -> f64 {
    out.ops.mean(op).unwrap_or_else(|| {
        out.checks.fail(format!("no completed {op} request"));
        0.0
    })
}

/// Sums `admission.<pool>.<key>` over the kept `stats` frames.
fn admission_sum(out: &Outcome, key: &str) -> f64 {
    let pool = |frame: &Json, pool: &str| frame.get("admission")?.get(pool)?.get(key)?.as_f64();
    out.stats
        .iter()
        .map(|f| pool(f, "point").unwrap_or(0.0) + pool(f, "mine").unwrap_or(0.0))
        .sum()
}

/// Sums `cache.<key>` of the (single) served relation over the kept
/// `stats` frames.
fn cache_sum(out: &Outcome, key: &str) -> f64 {
    let field = |frame: &Json| {
        frame
            .get("relations")?
            .as_arr()?
            .first()?
            .get("cache")?
            .get(key)?
            .as_f64()
    };
    out.stats.iter().filter_map(field).sum()
}

/// The per-layer metrics of a traced run `t`, next to its untraced twin `u`.
fn per_layer(u: &Outcome, t: &Outcome) -> Metrics {
    let tr = &t.tracer;
    let med = |name: &str| median(&tr.durations_ms(name)).unwrap_or(0.0);
    let avg = |name: &str| mean(tr.values(name));
    let mut m = Metrics::default();
    m.push("wire.decode_us", med("wire.decode") * 1e3, "us");
    m.push("wire.encode_us", med("wire.encode") * 1e3, "us");
    m.push("wire.request_kb", avg("wire.request_kb"), "KiB");
    m.push("wire.response_kb", avg("wire.response_kb"), "KiB");
    for op in [
        "entropy", "j", "loss", "analyze", "estimate", "mine", "append",
    ] {
        m.push(
            format!("dispatch.{op}_ms"),
            med(&format!("dispatch.{op}")),
            "ms",
        );
    }
    // Both medians come from the traced half, where each TCP request is
    // followed by its replay, so both sample the same host state.
    for op in ["entropy", "j", "loss", "analyze", "append"] {
        let transport = med(&format!("tcp.{op}")) - med(&format!("dispatch.{op}"));
        m.push(format!("transport.{op}_us"), transport * 1e3, "us");
    }
    m.push("admission.queued", admission_sum(t, "queued"), "count");
    m.push("admission.rejected", admission_sum(t, "rejected"), "count");
    let hits = cache_sum(t, "hits");
    let misses = cache_sum(t, "misses");
    let entries = [
        "group_count_entries",
        "group_id_entries",
        "projection_entries",
    ]
    .iter()
    .map(|k| cache_sum(t, k))
    .sum::<f64>()
        / t.stats.len().max(1) as f64;
    m.push("cache.hits", hits, "count");
    m.push("cache.misses", misses, "count");
    m.push(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    m.push("cache.entries", entries, "count");
    m.push("kernel.group_ms", med("kernel.group"), "ms");
    m.push("kernel.rows", avg("kernel.rows"), "count");
    m.push("kernel.groups", avg("kernel.groups"), "count");
    m.push("kernel.gather_ms", med("kernel.gather"), "ms");
    m.push("shard.group_new_ms", med("shard.group_new"), "ms");
    m.push("shard.remerge_ms", med("shard.remerge"), "ms");
    m.push("shard_cache.hits", avg("shard_cache.hits"), "count");
    m.push("shard_cache.misses", avg("shard_cache.misses"), "count");
    m.push(
        "io.read_delimited_s",
        median(tr.values("io.read_delimited_s")).unwrap_or(0.0),
        "s",
    );
    m.push(
        "store.bytes_per_row",
        tr.values("store.bytes_per_row")
            .first()
            .copied()
            .unwrap_or(0.0),
        "B",
    );
    m.push("ingest.encode_ms", med("ingest.encode"), "ms");
    m.push("live.append_shard_ms", med("live.append_shard"), "ms");
    m.push("live.pin_us", med("live.pin") * 1e3, "us");
    for op in ["j", "loss", "analyze"] {
        m.push(
            format!("measure.{op}_ms"),
            med(&format!("measure.{op}")),
            "ms",
        );
    }
    m.push("estimate.build_ms", med("estimate.build"), "ms");
    m.push("estimate.query_ms", med("estimate.query"), "ms");
    m.push("estimate.sample_frac", avg("estimate.sample_frac"), "ratio");
    m.push("mine.sweep_ms", med("mine.sweep"), "ms");
    m.push("mine.groupings", avg("mine.groupings"), "count");
    m.push("jointree.build_us", med("jointree.build") * 1e3, "us");
    let requests = tr.requests().max(1) as f64;
    let self_ms = tr.self_time_ms();
    for layer in [
        "bench",
        "wire",
        "transport",
        "server",
        "jointree",
        "analysis",
        "relation",
        "shard",
        "catalog",
        "live",
        "snapshot",
        "estimate",
        "discovery",
    ] {
        m.push(
            format!("self.{layer}_ms"),
            self_ms.get(layer).copied().unwrap_or(0.0) / requests,
            "ms",
        );
    }
    m.push("trace.untraced_ops_s", u.throughput(), "1/s");
    m.push("trace.traced_ops_s", t.throughput(), "1/s");
    m.push(
        "trace.overhead_ops_s",
        u.throughput() - t.throughput(),
        "1/s",
    );
    m
}

/// The run record: what ran, where, and how fast the host was.
fn record(
    args: &Args,
    out: &Outcome,
    probe: [(f64, f64); 2],
    pinned: Option<usize>,
    extra: &str,
) -> String {
    let pinned = pinned.map_or("null".to_owned(), |cpu| cpu.to_string());
    format!(
        "{{\"run_record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \
         \"rustc\": \"{}\", \"nproc\": {}, \"pinned_cpu\": {pinned}, \"admission\": \"{}\", \"cpu_probe_ms\": [{:.4}, {:.4}], \"memory_probe_ms\": [{:.4}, {:.4}], \
         \"first_setup_s\": {:.4}, \"setup_s\": {:?}, \"wall_s\": {:.4}, \"ops\": {}, \"check_failures\": {}{extra}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        host::git_rev(),
        host::RUSTC_VERSION,
        host::nproc(),
        out.admission,
        probe[0].0,
        probe[1].0,
        probe[0].1,
        probe[1].1,
        out.first_setup_s,
        out.setup_s,
        out.wall_s,
        out.ops.counts_json(),
        out.checks.count(),
    )
}

/// `--workload all`: every workload in turn, each in a process of its own
/// so that `rss_mb` stays the peak of that workload alone.  Fails if any
/// workload fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find the benchmark executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Before any thread starts; `nproc` first, so it still counts the
    // host's CPUs.
    host::nproc();
    let pinned = host::pin_to_one_cpu();
    if args.workload == "all" {
        return run_all(&args);
    }
    if args.setup {
        let seconds = match args.workload.as_str() {
            "hot_point" => hot::setup_once(args.seed),
            _ => live::setup_once(args.seed),
        };
        println!("{seconds:?}");
        return ExitCode::SUCCESS;
    }
    host::rss_baseline();
    let probe_start = (host::probe_ms(), host::memory_probe_ms());
    let (out, metrics, extra) = if args.trace {
        // A third of the time traced, a third untraced (for the tracing
        // overhead), both from the same seed; the direct layer calls make
        // the traced replay take longer than its share.
        let cfg = Cfg {
            seed: args.seed,
            seconds: args.seconds / 3.0,
        };
        let traced = run_workload(&args.workload, cfg, true);
        let untraced = run_workload(&args.workload, cfg, false);
        let metrics = per_layer(&untraced, &traced);
        let path = format!("perfbench/out/trace_{}_{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, traced.tracer.to_jsonl()))
            .is_ok();
        let extra = format!(
            ", \"spans\": \"{}\"",
            if written {
                path.as_str()
            } else {
                "not written"
            }
        );
        let mut out = traced;
        out.checks.merge(untraced.checks);
        out.ops.merge(untraced.ops);
        (out, metrics, extra)
    } else {
        let cfg = Cfg {
            seed: args.seed,
            seconds: args.seconds,
        };
        let mut out = run_workload(&args.workload, cfg, false);
        let metrics = end_to_end(&mut out);
        (out, metrics, String::new())
    };
    let probe_end = (host::probe_ms(), host::memory_probe_ms());
    let correct = out.checks.ok();
    println!(
        "{}",
        record(&args, &out, [probe_start, probe_end], pinned, &extra)
    );
    println!(
        "{}",
        metrics.result_line(correct, out.ops.attempted(), out.ops.failed())
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
