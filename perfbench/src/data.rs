//! Seeded inputs: the relation text, candidate schemas and attribute sets.
//!
//! The server only ever sees what this module renders — delimited text and
//! request lines — so the benchmark's inputs are a pure function of the
//! `--seed` argument.

use std::fmt::Write as _;

/// Attribute names of the generated relation, in column order.
pub const ATTRS: [&str; 8] = [
    "region", "store", "category", "brand", "day", "hour", "channel", "segment",
];

/// SplitMix64: a tiny, fully specified generator, so the same seed yields
/// the same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from generators for `seed ± 1`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng(seed ^ 0x0005_eed0_fa7d_b3c4);
        rng.next_u64();
        rng
    }

    /// A child generator for stream `stream` of this seed.
    pub fn fork(seed: u64, stream: u64) -> Self {
        Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.rotate_left(29))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// A uniformly random element of `items`.
    pub fn pick<'t, T>(&mut self, items: &'t [T]) -> &'t T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One generated row of value codes, in [`ATTRS`] order.  The columns form
/// a tree of noisy dependencies — region → store → day → hour → channel
/// and region → category → {brand, segment} — each dependency strong
/// enough that the mined schema has the same shape for every seed, and
/// noisy enough that schemas have small but nonzero loss.
fn row(rng: &mut Rng) -> [u64; 8] {
    // `dependent` with probability `p`, else uniform noise in `0..n`.
    fn noisy(rng: &mut Rng, p: f64, dependent: u64, n: u64) -> u64 {
        if rng.chance(p) {
            dependent
        } else {
            rng.below(n)
        }
    }
    let region = rng.below(12);
    let local = rng.below(8);
    let store = noisy(rng, 0.95, region * 8 + local, 96);
    let pick = rng.below(3);
    let category = noisy(rng, 0.8, (region * 5 + pick) % 20, 20);
    let variant = rng.below(5);
    let brand = noisy(rng, 0.9, category * 5 + variant, 100);
    let segment = noisy(rng, 0.75, category % 6, 6);
    let day = noisy(rng, 0.6, store % 28, 28);
    let shift = rng.below(4);
    let hour = noisy(rng, 0.85, (day * 5 + shift) % 24, 24);
    let channel = noisy(rng, 0.8, hour / 8, 3);
    [region, store, category, brand, day, hour, channel, segment]
}

const PREFIX: [char; 8] = ['r', 's', 'c', 'b', 'd', 'h', 'n', 'g'];

/// `n` rows as label vectors (the `rows` payload of an `append`).
pub fn label_rows(rng: &mut Rng, n: usize) -> Vec<Vec<String>> {
    (0..n)
        .map(|_| {
            row(rng)
                .iter()
                .zip(PREFIX)
                .map(|(v, p)| format!("{p}{v}"))
                .collect()
        })
        .collect()
}

/// Appends `rows` to `out` as comma-separated lines.
pub fn push_text_rows(out: &mut String, rows: &[Vec<String>]) {
    for r in rows {
        out.push_str(&r.join(","));
        out.push('\n');
    }
}

/// A relation of `n` rows as delimited text with a header line.
pub fn relation_text(rng: &mut Rng, n: usize) -> String {
    let mut out = String::with_capacity(n * 32);
    out.push_str(&ATTRS.join(","));
    out.push('\n');
    for _ in 0..n {
        for (i, (v, p)) in row(rng).iter().zip(PREFIX).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{p}{v}");
        }
        out.push('\n');
    }
    out
}

/// A schema as bags of attribute indices.
pub type Schema = Vec<Vec<usize>>;

/// A random acyclic schema over all attributes with bags of at most
/// `max_bag` attributes.  Each new bag shares a nonempty subset of one
/// earlier bag and adds uncovered attributes, which is the running
/// intersection property by construction; no bag is contained in another.
pub fn random_schema(rng: &mut Rng, max_bag: usize) -> Schema {
    let mut order: Vec<usize> = (0..ATTRS.len()).collect();
    rng.shuffle(&mut order);
    let first = 2 + rng.below(max_bag as u64 - 1) as usize;
    let mut bags: Schema = vec![order.drain(..first.min(order.len())).collect()];
    while !order.is_empty() {
        let parent = rng.pick(&bags).clone();
        // Share a proper subset of the parent so that no bag contains
        // another (a reduced schema).
        let shared = 1 + rng.below((parent.len() - 1).min(max_bag - 1).min(2) as u64) as usize;
        let mut bag: Vec<usize> = parent;
        rng.shuffle(&mut bag);
        bag.truncate(shared);
        let fresh = 1 + rng.below((max_bag - shared) as u64) as usize;
        bag.extend(order.drain(..fresh.min(order.len())));
        bag.sort_unstable();
        bags.push(bag);
    }
    bags
}

/// The workload's fixed pool of `n` candidate schemas.  It does not depend
/// on `--seed`: the seed varies the rows and the request stream, while the
/// set of candidates — and so the cost mix of a run — stays the same.
pub fn schema_pool(n: usize, max_bag: usize) -> Vec<Schema> {
    let mut rng = Rng::new(0x0a7d_9001);
    (0..n).map(|_| random_schema(&mut rng, max_bag)).collect()
}

/// Every attribute set a join tree over `schema` groups: its bags and the
/// pairwise intersections that can be separators.
pub fn schema_sets(schema: &Schema) -> Vec<Vec<usize>> {
    let mut sets: Vec<Vec<usize>> = schema.clone();
    for (i, a) in schema.iter().enumerate() {
        for b in &schema[i + 1..] {
            let sep: Vec<usize> = a.iter().copied().filter(|x| b.contains(x)).collect();
            if !sep.is_empty() {
                sets.push(sep);
            }
        }
    }
    sets.sort();
    sets.dedup();
    sets
}

/// Attribute names of `set`.
pub fn names(set: &[usize]) -> Vec<&'static str> {
    set.iter().map(|&i| ATTRS[i]).collect()
}
