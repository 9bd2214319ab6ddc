//! `live_ingest`: a drift monitor over a sharded relation, served over one
//! loopback connection.
//!
//! Each cycle appends a batch as a `rows` payload, then re-checks the
//! monitored schema (`j`, `loss`) and one `entropy`; every few cycles it
//! also asks for a sampled `estimate`, a full `analyze` or a `mine`.  It is
//! the only workload that writes: large-frame decode, label encoding,
//! copy-on-append, the per-shard tier and the shard-order re-merge.  The
//! relation grows as the workload runs, so its length is a fixed number
//! of appends per `--seconds`, not a time.

use crate::data::{self, Rng, Schema};
use crate::layers::{self, Mirror, BATCH};
use crate::req;
use crate::run::{self, Cfg, Clock, Link, Outcome, SETUP_SLICES};
use crate::trace::Tracer;
use ajd_core::Analyzer;
use ajd_relation::{Catalog, Relation};
use ajd_server::{AdmissionConfig, Json, RelationStore, Server, ServerConfig};
use std::time::Instant;

/// Rows before the first append; the relation grows to 235k rows in a
/// 50 s run.  A relation twice as large made every metric follow the
/// host's slow phases about twice as much: in alternating runs, starting
/// at 200k rows with 1,000-row appends against 100k with 500-row appends,
/// `j_mean_ms` spread 0.165 against 0.062 and `throughput_ops_s` 0.136
/// against 0.034.
const ROWS: usize = 100_000;
const SHARDS: usize = 16;
/// Appends per second of `--seconds`: a cycle takes about 0.11 s on a
/// 2-core x86-64 host, so the timed phase lasts about `--seconds` there.
const CYCLES_PER_SECOND: f64 = 9.0;
const NAME: &str = "events";
const EPSILON: f64 = 0.1;
const MINE_MAX_BAG: usize = 3;
/// Set-up builds per untraced run, each in a process of its own (see
/// `run::setup_time`).  A build here takes about 0.15 s, so one is more
/// likely to sit inside a single host phase than on `hot_point`, and more
/// of them fit.
const SETUP_BUILDS: usize = 6 * SETUP_SLICES;
/// Every this many cycles (and on the last), the cycle's `j`, `loss` and
/// `entropy` answers are checked against a from-scratch reference, with
/// the clock stopped.
const CHECK_EVERY: usize = 16;

/// The monitored schema and the attribute sets the drift checks ask the
/// entropy of: the schema's bags and separators, and every attribute.
fn monitored() -> (Schema, Vec<Vec<usize>>) {
    let monitored = data::schema_pool(1, 4).remove(0);
    let mut sets: Vec<Vec<usize>> = data::schema_sets(&monitored);
    sets.extend((0..data::ATTRS.len()).map(|a| vec![a]));
    (monitored, sets)
}

fn warm_lines(monitored: &Schema, sets: &[Vec<usize>]) -> Vec<String> {
    [
        req::measure("j", NAME, monitored),
        req::measure("loss", NAME, monitored),
    ]
    .into_iter()
    .chain(sets.iter().map(|s| req::entropy(NAME, s)))
    .collect()
}

fn stores(text: &str, tracer: &mut Tracer, first: bool) -> Vec<RelationStore> {
    let (catalog, relation) = run::read_text(text, tracer, first);
    let sharded = relation.into_shards(SHARDS).expect("relation shards");
    vec![RelationStore::sharded(NAME, catalog, sharded).expect("store builds")]
}

/// One whole set-up from the inputs of `seed`, in seconds.
pub fn setup_once(seed: u64) -> f64 {
    let text = data::relation_text(&mut Rng::fork(seed, 1), ROWS);
    let (monitored, sets) = monitored();
    let warm = warm_lines(&monitored, &sets);
    run::time_setup(|| stores(&text, &mut Tracer::new(false), false), &warm)
}

pub fn run(cfg: Cfg, tracer: Tracer) -> Outcome {
    let mut out = Outcome::new(tracer);
    out.repeatable = false;
    let text = data::relation_text(&mut Rng::fork(cfg.seed, 1), ROWS);
    let mut grown = text.clone();
    let (monitored, sets) = monitored();
    let j_line = req::measure("j", NAME, &monitored);
    let loss_line = req::measure("loss", NAME, &monitored);
    let analyze = req::measure("analyze", NAME, &monitored);
    let warm_lines = warm_lines(&monitored, &sets);
    let cycles = (CYCLES_PER_SECOND * cfg.seconds).ceil().max(8.0) as usize;
    let setup = || run::child_setup("live_ingest", cfg.seed);
    // The reference: a flat relation that takes every appended row, and
    // answers the drift checks from scratch.
    let (mut ref_catalog, mut ref_rows) = run::read_text(&text, &mut Tracer::new(false), false);

    let start = Instant::now();
    let stores = stores(&text, &mut out.tracer, true);
    let (server, listener) = run::warm_server(&stores, &warm_lines);
    out.first_setup_s = start.elapsed().as_secs_f64();

    let admission = *server.admission_config();
    out.admission = format!("{admission:?}");
    // Traced runs replay every line on a second server in the same state,
    // and drive a mirror of the entry through the library.
    let traced = out.tracer.enabled();
    let replay = traced.then(|| run::warm_server(&stores, &warm_lines).0);
    let mut mirror = traced.then(|| Mirror::new(&stores[0], &monitored, &admission, cfg.seed));
    let mut stream = Rng::fork(cfg.seed, 2);
    let final_lines: Vec<String> = [analyze.clone(), j_line.clone(), loss_line.clone()]
        .into_iter()
        .chain(sets.iter().map(|s| req::entropy(NAME, s)))
        .collect();
    let live_frames = run::serve(&server, listener, |addr| {
        let mut client = run::connect(addr);
        let mut clock = Clock::start(if traced { 0 } else { SETUP_BUILDS });
        for cycle in 0..cycles {
            for _ in 0..clock.builds_due(cycle as f64 / cycles as f64) {
                let build = clock.pause(setup);
                out.setup_built(build);
            }
            let batch = data::label_rows(&mut stream, BATCH);
            data::push_text_rows(&mut grown, &batch);
            clock.pause(|| push_labels(&mut ref_catalog, &mut ref_rows, &batch));
            let set = &sets[cycle % sets.len()];
            let mut lines = vec![
                ("append", req::append(NAME, &batch)),
                ("j", j_line.clone()),
                ("loss", loss_line.clone()),
                ("entropy", req::entropy(NAME, set)),
            ];
            let seed = 1 + (cycle / 4 % 4) as u64;
            match cycle % 8 {
                1 | 5 => lines.push(("estimate", req::estimate_j(NAME, &monitored, EPSILON, seed))),
                3 => lines.push(("mine", req::mine(NAME, MINE_MAX_BAG))),
                7 => lines.push(("analyze", analyze.clone())),
                _ => {}
            }
            let verify = cycle % CHECK_EVERY == CHECK_EVERY - 1 || cycle + 1 == cycles;
            let mut drift = Vec::new();
            for (op, line) in lines {
                out.tracer.next_request();
                let root = out.tracer.begin("bench", "request");
                let mut link = Link {
                    client: &mut client,
                    replay: replay.as_ref(),
                };
                let reply = run::request(&mut link, op, &line, &mut out);
                match (op, &reply) {
                    ("analyze", Some(reply)) => out.checks.analyze_identities(reply),
                    ("estimate", Some(reply)) => out.checks.estimate_echo(reply, EPSILON, seed),
                    ("j" | "loss" | "entropy", Some(reply)) if verify => {
                        drift.push((op, reply.clone()))
                    }
                    _ => {}
                }
                if let Some(m) = mirror.as_mut() {
                    probe(&mut out.tracer, m, op, &batch, &monitored, seed, &admission);
                }
                out.tracer.end(root);
            }
            if verify {
                clock.pause(|| {
                    check_drift(&mut out, &ref_catalog, &ref_rows, &monitored, set, &drift)
                });
            }
        }
        for _ in 0..clock.builds_due(1.0) {
            let build = clock.pause(setup);
            out.setup_built(build);
        }
        out.wall_s = clock.elapsed_s();
        final_lines
            .iter()
            .map(|line| client.request_line(line).ok())
            .collect::<Vec<_>>()
    });
    run::final_stats(&server, &mut out);
    if let Some(mirror) = &mirror {
        let (hits, misses) = mirror.shard_cache_per_append();
        out.tracer.value("shard_cache.hits", hits);
        out.tracer.value("shard_cache.misses", misses);
    }

    // The grown relation, served cold from the same rows, must give the
    // live entry's final answers bit for bit.
    let (catalog, relation) = run::read_text(&grown, &mut Tracer::new(false), false);
    let cold = vec![RelationStore::flat(NAME, catalog, relation).expect("store builds")];
    let cold_server = Server::new(&cold, ServerConfig::default()).expect("server builds");
    for (line, live) in final_lines.iter().zip(&live_frames) {
        let cold_frame = cold_server.handle_line(line).to_string();
        match live {
            Some(frame) if frame.to_string() == cold_frame => {}
            Some(frame) => out.checks.fail(format!(
                "final live answer differs from a cold server over the grown rows: {frame} vs {cold_frame}"
            )),
            None => out.checks.fail(format!("final live request failed: {line:.200}")),
        }
    }
    if let Some(Some(frame)) = live_frames.first() {
        out.checks.analyze_identities(frame);
    }
    out
}

/// Encodes `batch` and appends it to the reference rows.
fn push_labels(catalog: &mut Catalog, rows: &mut Relation, batch: &[Vec<String>]) {
    for row in batch {
        let labels: Vec<&str> = row.iter().map(String::as_str).collect();
        let coded = catalog
            .encode_row(&labels)
            .expect("row has the catalog's arity");
        rows.push_row(&coded).expect("row has the schema's arity");
    }
}

/// Checks the cycle's drift answers (`j`, `loss`, `entropy` of `set`)
/// against an analyzer computed from scratch over the reference rows.
fn check_drift(
    out: &mut Outcome,
    catalog: &Catalog,
    rows: &Relation,
    monitored: &Schema,
    set: &[usize],
    drift: &[(&str, Json)],
) {
    let an = Analyzer::new(rows);
    let tree = layers::join_tree(catalog, monitored, &mut Tracer::new(false));
    for (op, reply) in drift {
        match *op {
            "j" => {
                let j = an.j_measure(&tree).expect("reference j");
                out.checks.field_equals(reply, &["j_nats"], &Json::Num(j));
            }
            "loss" => {
                let rho = an.loss(&tree).expect("reference loss");
                out.checks.field_equals(reply, &["rho"], &Json::Num(rho));
                out.checks
                    .field_equals(reply, &["log1p_rho"], &Json::Num(rho.ln_1p()));
            }
            _ => {
                let h = an
                    .entropy(&layers::attr_set(catalog, set))
                    .expect("reference entropy");
                out.checks
                    .field_equals(reply, &["entropy_nats"], &Json::Num(h));
            }
        }
    }
}

/// The traced run's direct layer calls for one request.
fn probe(
    tracer: &mut Tracer,
    m: &mut Mirror,
    op: &str,
    batch: &[Vec<String>],
    monitored: &Schema,
    seed: u64,
    admission: &AdmissionConfig,
) {
    match op {
        "append" => m.append(batch, tracer),
        "entropy" => {}
        "j" | "loss" | "analyze" => {
            layers::join_tree(m.catalog(), monitored, tracer);
            if op == "j" {
                m.group(tracer);
            }
            m.measure(op, tracer);
        }
        "estimate" => {
            let tree = layers::join_tree(m.catalog(), monitored, tracer);
            layers::estimate(m.snapshot(), &tree, EPSILON, seed, admission, tracer);
        }
        _ => layers::mine(m.snapshot(), MINE_MAX_BAG, admission, tracer),
    }
}
