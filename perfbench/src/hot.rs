//! `hot_point`: warm point queries against a served flat relation over
//! one loopback connection.
//!
//! Setup warms a fixed pool of candidate schemas, so every timed request
//! is a cache hit: time goes to wire decode/encode, transport, cache
//! lookups and the measure arithmetic, never to the grouping kernel.

use crate::data::{self, Rng, Schema};
use crate::layers::{self, Mirror};
use crate::req;
use crate::run::{self, Cfg, Clock, Link, Outcome, SETUP_SLICES};
use crate::trace::Tracer;
use ajd_core::{Analyzer, LossReport};
use ajd_relation::Relation;
use ajd_server::{AdmissionConfig, Client, Json, RelationStore, StoreData};
use std::collections::HashMap;
use std::time::Instant;

const ROWS: usize = 200_000;
const NAME: &str = "sales";
/// Candidate schemas the client explores.
const POOL: usize = 16;
/// The candidate that `analyze` reports on and `estimate` samples.  Rare
/// ops repeat one request, so their latency does not depend on which
/// candidates a run happened to pick.
const FEATURED: usize = 0;
/// Seeds of the sampled estimates, so identical estimates recur.
const ESTIMATE_SEEDS: u64 = 4;
/// Targets of the sampled estimates, in turn.  Each plans a sample of its
/// own size.  With one target, the estimates of some seeds' instances took
/// 1.3× as long as others' for the same cost of every other op, on every
/// run of those seeds.  Several sample sizes average that out.
const EPSILONS: [f64; 4] = [0.10, 0.11, 0.12, 0.13];
const MINE_MAX_BAG: usize = 3;
/// Set-up builds per untraced run, each in a process of its own (see
/// `run::setup_time`).  A build here varies from 0.55 to 1.1 s with the
/// host's phases, so a third needs several to average them; more would
/// take time from the timed phase's share of the run.
const SETUP_BUILDS: usize = 3 * SETUP_SLICES;
/// Traced runs append a generated batch to the mirror every this many
/// requests.
const MIRROR_APPEND_EVERY: usize = 8;

/// The op of request `k`: a fixed round robin, so every op class samples
/// the host's speed states in the same proportion.
fn op_of(k: usize) -> &'static str {
    match k % 40 {
        19 | 39 => "analyze",
        9 => "estimate",
        29 => "mine",
        i => ["entropy", "j", "loss"][i % 3],
    }
}

/// In-process reference answers, computed before timing.
struct Reference {
    entropy: HashMap<Vec<usize>, f64>,
    j: Vec<f64>,
    rho: Vec<f64>,
    report: LossReport,
    /// Fields of the `mine` frame.
    mine: Vec<(&'static str, Json)>,
}

fn reference(
    an: &Analyzer<&Relation>,
    store: &RelationStore,
    pool: &[Schema],
    admission: &AdmissionConfig,
) -> Reference {
    let tracer = &mut Tracer::new(false);
    let catalog = store.catalog();
    let mut entropy = HashMap::new();
    for schema in pool {
        for set in data::schema_sets(schema) {
            let attrs = layers::attr_set(catalog, &set);
            entropy.insert(set, an.entropy(&attrs).expect("reference entropy"));
        }
    }
    let trees: Vec<_> = pool
        .iter()
        .map(|s| layers::join_tree(catalog, s, tracer))
        .collect();
    Reference {
        entropy,
        j: trees
            .iter()
            .map(|t| an.j_measure(t).expect("reference j"))
            .collect(),
        rho: trees
            .iter()
            .map(|t| an.loss(t).expect("reference loss"))
            .collect(),
        report: an.analyze(&trees[FEATURED]).expect("reference analyze"),
        mine: layers::mine_fields(
            catalog,
            &layers::mined(an.source(), MINE_MAX_BAG, admission).0,
        ),
    }
}

/// One request of the stream and the operands it was drawn from.
struct Pick {
    op: &'static str,
    line: String,
    /// Pool index of the schema.
    schema: usize,
    set: Vec<usize>,
    seed: u64,
    epsilon: f64,
}

fn pick(k: usize, rng: &mut Rng, pool: &[Schema]) -> Pick {
    let op = op_of(k);
    let mut p = Pick {
        op,
        line: String::new(),
        schema: rng.below(POOL as u64) as usize,
        set: Vec::new(),
        seed: 0,
        epsilon: 0.0,
    };
    let schema = &pool[p.schema];
    p.line = match op {
        "entropy" => {
            p.set = rng.pick(&data::schema_sets(schema)).clone();
            req::entropy(NAME, &p.set)
        }
        "analyze" => {
            p.schema = FEATURED;
            req::measure(op, NAME, &pool[FEATURED])
        }
        "estimate" => {
            p.schema = FEATURED;
            let turn = k / 40;
            p.epsilon = EPSILONS[turn % EPSILONS.len()];
            p.seed = 1 + (turn / EPSILONS.len()) as u64 % ESTIMATE_SEEDS;
            req::estimate_j(NAME, &pool[FEATURED], p.epsilon, p.seed)
        }
        "mine" => req::mine(NAME, MINE_MAX_BAG),
        _ => req::measure(op, NAME, schema),
    };
    p
}

fn check_report(out: &mut Outcome, reply: &Json, r: &LossReport) {
    out.checks.analyze_identities(reply);
    for (key, want) in [
        ("rho", Json::Num(r.rho)),
        ("log1p_rho", Json::Num(r.log1p_rho)),
        ("j_nats", Json::Num(r.j_measure)),
        ("kl_nats", Json::Num(r.kl_nats)),
        ("rho_lower_bound", Json::Num(r.rho_lower_bound)),
        ("prop51_bound", Json::Num(r.prop51_bound)),
        ("join_size", Json::str(r.join_size.to_string())),
        ("spurious", Json::str(r.spurious.to_string())),
    ] {
        out.checks.field_equals(reply, &["report", key], &want);
    }
}

fn check(out: &mut Outcome, p: &Pick, reply: &Json, r: &Reference) {
    let i = p.schema;
    match p.op {
        "entropy" => {
            out.checks
                .field_equals(reply, &["entropy_nats"], &Json::Num(r.entropy[&p.set]))
        }
        "j" => out
            .checks
            .field_equals(reply, &["j_nats"], &Json::Num(r.j[i])),
        "loss" => {
            out.checks
                .field_equals(reply, &["rho"], &Json::Num(r.rho[i]));
            out.checks
                .field_equals(reply, &["log1p_rho"], &Json::Num(r.rho[i].ln_1p()));
        }
        "analyze" => check_report(out, reply, &r.report),
        "estimate" => out.checks.estimate_echo(reply, p.epsilon, p.seed),
        _ => {
            for (key, want) in &r.mine {
                out.checks.field_equals(reply, &[key], want);
            }
        }
    }
}

/// The relation text and the candidate pool of `seed`, and the lines that
/// warm the server over them.
fn inputs(seed: u64) -> (String, Vec<Schema>, Vec<String>) {
    let text = data::relation_text(&mut Rng::fork(seed, 1), ROWS);
    let pool = data::schema_pool(POOL, 4);
    let warm_lines: Vec<String> = pool
        .iter()
        .enumerate()
        .flat_map(|(i, s)| {
            let mut lines: Vec<String> = data::schema_sets(s)
                .iter()
                .map(|set| req::entropy(NAME, set))
                .collect();
            lines.extend([req::measure("j", NAME, s), req::measure("loss", NAME, s)]);
            if i == FEATURED {
                lines.push(req::measure("analyze", NAME, s));
            }
            lines
        })
        .chain([req::mine(NAME, MINE_MAX_BAG)])
        .collect();
    (text, pool, warm_lines)
}

fn stores(text: &str, tracer: &mut Tracer, first: bool) -> Vec<RelationStore> {
    let (catalog, relation) = run::read_text(text, tracer, first);
    vec![RelationStore::flat(NAME, catalog, relation).expect("store builds")]
}

/// One whole set-up from the inputs of `seed`, in seconds.
pub fn setup_once(seed: u64) -> f64 {
    let (text, _, warm_lines) = inputs(seed);
    run::time_setup(
        || stores(&text, &mut Tracer::new(false), false),
        &warm_lines,
    )
}

pub fn run(cfg: Cfg, tracer: Tracer) -> Outcome {
    let mut out = Outcome::new(tracer);
    let (text, pool, warm_lines) = inputs(cfg.seed);
    let setup = || run::child_setup("hot_point", cfg.seed);

    let start = Instant::now();
    let stores = stores(&text, &mut out.tracer, true);
    let (server, listener) = run::warm_server(&stores, &warm_lines);
    out.first_setup_s = start.elapsed().as_secs_f64();

    let store = &stores[0];
    let StoreData::Flat(relation) = store.data() else {
        unreachable!("hot_point serves a flat store")
    };
    let admission = *server.admission_config();
    out.admission = format!("{admission:?}");
    // The reference analyzer ends warm, so the traced run also times the
    // measure arithmetic on it with every grouping a hit.
    let an = Analyzer::new(relation);
    let reference = reference(&an, store, &pool, &admission);
    let traced = out.tracer.enabled();
    let mut stream = Rng::fork(cfg.seed, 2);
    // Traced runs drive a sharded mirror of the relation through the
    // library, and send the mirror's appends to a sharded twin of the
    // entry (over TCP, replayed through `handle_line`) to time `append`.
    let mut mirror = traced.then(|| Mirror::new(store, &pool[FEATURED], &admission, cfg.seed));
    let twin_stores: Vec<RelationStore> = mirror
        .iter()
        .map(|m| {
            RelationStore::sharded(NAME, store.catalog().clone(), (*m.snapshot()).clone())
                .expect("store builds")
        })
        .collect();
    let twin = traced.then(|| {
        let (twin, listener) = run::warm_server(&twin_stores, &[]);
        let (replay, _) = run::warm_server(&twin_stores, &[]);
        (twin, listener, replay)
    });
    let mut drive = |client: &mut Client, mut twin: Option<Link<'_, '_, '_>>| {
        let replay = traced.then_some(&server);
        let builds = if traced { 0 } else { SETUP_BUILDS };
        let mut clock = Clock::start(builds);
        let mut k = 0usize;
        loop {
            let progress = clock.elapsed_s() / cfg.seconds;
            for _ in 0..clock.builds_due(progress) {
                let build = clock.pause(setup);
                out.setup_built(build);
            }
            if progress >= 1.0 {
                break;
            }
            let p = pick(k, &mut stream, &pool);
            k += 1;
            out.tracer.next_request();
            let root = out.tracer.begin("bench", "request");
            let mut link = Link { client, replay };
            if let Some(reply) = run::request(&mut link, p.op, &p.line, &mut out) {
                check(&mut out, &p, &reply, &reference);
            }
            if let Some(mirror) = mirror.as_mut() {
                probe(&mut out.tracer, &p, store, relation, &an, &pool, &admission);
                if k.is_multiple_of(MIRROR_APPEND_EVERY) {
                    let batch = mirror.generated_batch();
                    if let Some(twin) = twin.as_mut() {
                        run::untallied_request(
                            twin,
                            "append",
                            &req::append(NAME, &batch),
                            &mut out,
                        );
                    }
                    mirror.append(&batch, &mut out.tracer);
                }
            }
            out.tracer.end(root);
        }
        out.wall_s = clock.elapsed_s();
    };
    run::serve(&server, listener, |addr| {
        let mut client = run::connect(addr);
        match twin {
            Some((twin, twin_listener, replay)) => run::serve(&twin, twin_listener, |twin_addr| {
                let mut twin_client = run::connect(twin_addr);
                let link = Link {
                    client: &mut twin_client,
                    replay: Some(&replay),
                };
                drive(&mut client, Some(link));
            }),
            None => drive(&mut client, None),
        }
    });
    run::final_stats(&server, &mut out);
    if let Some(mirror) = &mirror {
        let (hits, misses) = mirror.shard_cache_per_append();
        out.tracer.value("shard_cache.hits", hits);
        out.tracer.value("shard_cache.misses", misses);
    }
    out
}

/// The traced run's direct layer calls for one request: the uncached
/// kernel on the sets it touches, the warm measure, the estimate tier and
/// the discovery sweep.
fn probe(
    tracer: &mut Tracer,
    p: &Pick,
    store: &RelationStore,
    relation: &Relation,
    warm: &Analyzer<&Relation>,
    pool: &[Schema],
    admission: &AdmissionConfig,
) {
    let catalog = store.catalog();
    let schema = &pool[p.schema];
    match p.op {
        "entropy" => layers::group(relation, &layers::attr_set(catalog, &p.set), tracer),
        "j" | "loss" | "analyze" => {
            for set in data::schema_sets(schema) {
                layers::group(relation, &layers::attr_set(catalog, &set), tracer);
            }
            let tree = layers::join_tree(catalog, schema, tracer);
            layers::warm_measure(warm, p.op, &tree, tracer);
        }
        "estimate" => {
            let tree = layers::join_tree(catalog, schema, tracer);
            layers::estimate(relation, &tree, p.epsilon, p.seed, admission, tracer);
        }
        _ => layers::mine(relation, MINE_MAX_BAG, admission, tracer),
    }
}
