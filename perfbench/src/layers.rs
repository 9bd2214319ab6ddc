//! Direct calls into single layers, each inside its own span, made by the
//! traced run next to the request that exercises the same layer.

use crate::data::{self, names, Rng, Schema};
use crate::trace::Tracer;
use ajd_core::{
    Analyzer, DiscoveryConfig, EstimateConfig, EstimatedAnalyzer, LiveAnalyzer, MinedSchema,
    SchemaMiner,
};
use ajd_jointree::JoinTree;
use ajd_relation::{
    AttrSet, Catalog, GroupKernel, Relation, ShardedRelation, ShardedStore, ThreadBudget,
};
use ajd_server::{AdmissionConfig, Json, RelationStore, StoreData};
use std::hint::black_box;
use std::sync::Arc;

/// Rows per appended batch (an `append` line of about 14 KiB).
pub const BATCH: usize = 300;
/// Shards of a mirror built over a flat relation.
const MIRROR_SHARDS: usize = 16;

/// The attribute set named by column indices `set`.
pub fn attr_set(catalog: &Catalog, set: &[usize]) -> AttrSet {
    catalog
        .attrs(names(set))
        .expect("generated names are in the catalog")
}

/// The join tree of `schema`, built as the server builds it for a request.
pub fn join_tree(catalog: &Catalog, schema: &Schema, tracer: &mut Tracer) -> JoinTree {
    let bags: Vec<AttrSet> = schema.iter().map(|b| attr_set(catalog, b)).collect();
    tracer.time("jointree", "jointree.build", || {
        JoinTree::from_acyclic_schema(&bags).expect("generated schemas are acyclic")
    })
}

/// Times the estimate tier on `source` the way an `estimate` of J does:
/// plan + draw + gather, then the measure; plus the gather kernel alone on
/// a sorted sample of the same size.
pub fn estimate<S: GroupKernel>(
    source: S,
    tree: &JoinTree,
    epsilon: f64,
    seed: u64,
    admission: &AdmissionConfig,
    tracer: &mut Tracer,
) {
    let total = source.num_rows() as u64;
    let cfg = EstimateConfig::default()
        .with_epsilon(epsilon)
        .with_seed(seed);
    let budget = ThreadBudget::new(admission.point_threads);
    let ea = tracer.time("estimate", "estimate.build", || {
        EstimatedAnalyzer::with_thread_budget(&source, cfg, budget).expect("estimate plans")
    });
    tracer.time("estimate", "estimate.query", || {
        black_box(ea.j_measure(tree).expect("estimate answers"))
    });
    let sample = ea.sample_rows();
    tracer.value("estimate.sample_frac", sample as f64 / total as f64);
    let mut rng = Rng::new(seed);
    let mut rows: Vec<u64> = (0..sample).map(|_| rng.below(total)).collect();
    rows.sort_unstable();
    rows.dedup();
    tracer.time("relation", "kernel.gather", || {
        black_box(source.gather_rows(&rows).expect("sample rows are in range"))
    });
}

/// One discovery sweep as the server's `mine` runs it, on a fresh
/// analyzer with the server's thread budgets; also returns the groupings
/// (cache misses) it caused.
pub fn mined<S: GroupKernel>(
    source: S,
    max_bag_size: usize,
    admission: &AdmissionConfig,
) -> (MinedSchema, u64) {
    let an = Analyzer::with_thread_budget(source, ThreadBudget::new(admission.point_threads));
    let config = DiscoveryConfig {
        max_bag_size,
        ..DiscoveryConfig::default()
    };
    let mined = SchemaMiner::new(config)
        .mine_with(&an.batch().with_threads(admission.mine_threads))
        .expect("mining succeeds");
    (mined, an.cache_stats().misses)
}

/// The fields a `mine` frame reports for `mined`, with bags named by
/// `catalog`.
pub fn mine_fields(catalog: &Catalog, mined: &MinedSchema) -> Vec<(&'static str, Json)> {
    let bag = |attrs: &AttrSet| {
        Json::Arr(
            attrs
                .iter()
                .map(|id| Json::str(catalog.name(id).expect("mined attributes are named")))
                .collect(),
        )
    };
    let bags = mined.tree.bags();
    vec![
        ("schema", Json::Arr(bags.iter().map(bag).collect())),
        ("num_bags", Json::Num(bags.len() as f64)),
        ("j_nats", Json::Num(mined.j_measure)),
        ("rho_lower_bound", Json::Num(mined.rho_lower_bound)),
    ]
}

/// Times one discovery sweep and counts the groupings it caused.
pub fn mine<S: GroupKernel>(
    source: S,
    max_bag_size: usize,
    admission: &AdmissionConfig,
    tracer: &mut Tracer,
) {
    let (mined, groupings) = tracer.time("discovery", "mine.sweep", || {
        mined(source, max_bag_size, admission)
    });
    black_box(mined);
    tracer.value("mine.groupings", groupings as f64);
}

/// Times a warm `j`, `loss` or `analyze` on `an`: one untimed call fills
/// the cache, so the timed call finds every grouping a hit.
pub fn warm_measure<S: GroupKernel>(
    an: &Analyzer<S>,
    op: &str,
    tree: &JoinTree,
    tracer: &mut Tracer,
) {
    let run = || match op {
        "j" => black_box(an.j_measure(tree).map(|_| ())),
        "loss" => black_box(an.loss(tree).map(|_| ())),
        _ => black_box(an.analyze(tree).map(|_| ())),
    };
    run().expect("measure succeeds");
    let name = match op {
        "j" => "measure.j",
        "loss" => "measure.loss",
        _ => "measure.analyze",
    };
    tracer
        .time("analysis", name, run)
        .expect("measure succeeds");
}

/// Times the flat grouping kernel, uncached, on `attrs`.
pub fn group(relation: &Relation, attrs: &AttrSet, tracer: &mut Tracer) {
    let ids = tracer.time("relation", "kernel.group", || {
        black_box(relation.group_ids(attrs).expect("grouping succeeds"))
    });
    tracer.value("kernel.rows", relation.len() as f64);
    tracer.value("kernel.groups", ids.num_groups() as f64);
}

/// Times the sharded grouping kernel, uncached, on `attrs`.
pub fn group_sharded(
    relation: &ShardedRelation,
    attrs: &AttrSet,
    budget: ThreadBudget,
    tracer: &mut Tracer,
) {
    let ids = tracer.time("relation", "kernel.group", || {
        black_box(
            relation
                .group_ids_uncached_with(attrs, budget)
                .expect("grouping succeeds"),
        )
    });
    tracer.value("kernel.rows", relation.len() as f64);
    tracer.value("kernel.groups", ids.num_groups() as f64);
}

/// The benchmark's own live copy of a workload's relation, driven through
/// the library: label encoding, the per-shard tier, copy-on-append,
/// snapshot pins and the shard-order re-merge.  On `live_ingest` it takes
/// the same appends as the server; on the flat workloads it shards their
/// relation and takes a generated batch every few requests.
pub struct Mirror {
    catalog: Catalog,
    live: LiveAnalyzer,
    sets: Vec<AttrSet>,
    tree: JoinTree,
    budget: ThreadBudget,
    appends: u64,
    rng: Rng,
}

impl Mirror {
    /// A mirror of `store` watching the bags and separators of `watched`.
    pub fn new(
        store: &RelationStore,
        watched: &Schema,
        admission: &AdmissionConfig,
        seed: u64,
    ) -> Self {
        let sharded = match store.data() {
            StoreData::Sharded(s) => s.clone(),
            StoreData::Flat(r) => r
                .clone()
                .into_shards(MIRROR_SHARDS)
                .expect("relation shards"),
        };
        let budget = ThreadBudget::new(admission.point_threads);
        let live = LiveAnalyzer::with_thread_budget(Arc::new(ShardedStore::new(sharded)), budget);
        let catalog = store.catalog().clone();
        let sets = data::schema_sets(watched)
            .iter()
            .map(|s| attr_set(&catalog, s))
            .collect();
        let tree = join_tree(&catalog, watched, &mut Tracer::new(false));
        Mirror {
            catalog,
            live,
            sets,
            tree,
            budget,
            appends: 0,
            rng: Rng::fork(seed, 9),
        }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn snapshot(&self) -> Arc<ShardedRelation> {
        self.live.store().snapshot()
    }

    /// A generated batch to append (flat workloads).
    pub fn generated_batch(&mut self) -> Vec<Vec<String>> {
        data::label_rows(&mut self.rng, BATCH)
    }

    /// Times each layer of one append and of the re-check after it.
    pub fn append(&mut self, batch: &[Vec<String>], tracer: &mut Tracer) {
        let schema = self.snapshot().schema().to_vec();
        let shard = tracer.time("catalog", "ingest.encode", || {
            let mut shard = Relation::new(schema).expect("schema is valid");
            for row in batch {
                let labels: Vec<&str> = row.iter().map(String::as_str).collect();
                let coded = self
                    .catalog
                    .encode_row(&labels)
                    .expect("row has the catalog's arity");
                shard.push_row(&coded).expect("row has the schema's arity");
            }
            shard
        });
        for set in &self.sets {
            tracer.time("shard", "shard.group_new", || {
                black_box(shard.group_ids(set).expect("groups"))
            });
        }
        tracer.time("live", "live.append_shard", || {
            self.live.append_shard(shard).expect("append installs")
        });
        tracer.time("snapshot", "live.pin", || black_box(self.live.pin()));
        let snap = self.snapshot();
        for set in &self.sets {
            // The first call groups the new shard into its table; the
            // second finds every shard table warm and only re-merges.
            black_box(snap.group_ids_with(set, self.budget).expect("groups"));
            tracer.time("shard", "shard.remerge", || {
                black_box(snap.group_ids_with(set, self.budget).expect("groups"))
            });
        }
        self.appends += 1;
    }

    /// A warm measure of the watched schema on a pinned snapshot.
    pub fn measure(&self, op: &str, tracer: &mut Tracer) {
        warm_measure(&self.live.pin(), op, &self.tree, tracer);
    }

    /// The uncached sharded kernel on the largest watched set.
    pub fn group(&self, tracer: &mut Tracer) {
        if let Some(set) = self.sets.iter().max_by_key(|s| s.len()) {
            group_sharded(&self.snapshot(), set, self.budget, tracer);
        }
    }

    /// Per-shard tier hits and misses per append so far.
    pub fn shard_cache_per_append(&self) -> (f64, f64) {
        let stats = self.live.stats().shards;
        let n = self.appends.max(1) as f64;
        (stats.hits as f64 / n, stats.misses as f64 / n)
    }
}
