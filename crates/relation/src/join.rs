//! Natural joins, semijoins and join cardinality.
//!
//! The paper's central combinatorial quantity is the size of the acyclic
//! join `|⋈ᵢ R[Ωᵢ]|`, from which the relative number of spurious tuples
//! `ρ(R,S) = (|⋈ᵢ R[Ωᵢ]| − |R|)/|R|` (eq. 1) is computed.  This module
//! provides the generic relational operators:
//!
//! * [`natural_join`] — classic build/probe hash join of two relations on
//!   their shared attributes.
//! * [`natural_join_all`] — left-to-right multiway join (used as the
//!   *materialising baseline* in benchmarks and tests).
//! * [`semijoin`] — `R ⋉ S`, used by Yannakakis-style processing.
//! * [`count_natural_join`] — cardinality of a two-way join without
//!   materialising the output.
//!
//! Joins run on **dictionary codes**: the probe side's codes are remapped
//! into the build side's code space through the column dictionaries (one
//! dictionary lookup per *distinct* value, not per row), the per-row join
//! key packs into a single `u64` (rows whose key value does not occur on the
//! other side get a sentinel key that matches nothing), and output columns
//! are gathered from code columns.  Raw-value hashing remains only as a
//! fallback for keys too wide to pack.
//!
//! The asymptotically better way to compute the size of an *acyclic* join is
//! message passing over the join tree; that lives in `ajd-jointree`
//! (`count_acyclic_join`) because it needs the join-tree type, and is
//! validated against [`natural_join_all`] in tests.

use crate::attr::{AttrId, AttrSet};
use crate::error::{RelationError, Result};
use crate::hash::{map_with_capacity, set_with_capacity, FxHashMap};
use crate::relation::{Relation, Value};
use std::hash::Hash;

/// Sentinel key for probe rows whose shared values cannot occur in the build
/// side (the key space is capped at `u64::MAX - 1`, so this never collides).
const MISS: u64 = u64::MAX;

/// Per-row join keys of two relations over their shared attributes: packed
/// codes when the key space fits a `u64`, decoded value tuples otherwise.
/// Equal keys on the two sides mean equal shared values.
enum JoinKeys {
    Packed(Vec<u64>, Vec<u64>),
    Decoded(Vec<Box<[Value]>>, Vec<Box<[Value]>>),
}

impl JoinKeys {
    fn of(left: &Relation, right: &Relation, shared: &AttrSet) -> Result<Self> {
        if let Some((l, r)) = shared_code_keys(left, right, shared)? {
            return Ok(JoinKeys::Packed(l, r));
        }
        // Fallback for very wide keys: decoded shared values per row.
        let decoded = |rel: &Relation| -> Result<Vec<Box<[Value]>>> {
            let positions = rel.attr_positions(shared)?;
            Ok((0..rel.len())
                .map(|i| positions.iter().map(|&p| rel.value(p, i)).collect())
                .collect())
        };
        Ok(JoinKeys::Decoded(decoded(left)?, decoded(right)?))
    }
}

/// Packed `u64` join keys of the two sides over their shared attributes, in
/// the **left** relation's code space.
///
/// `left[i]` is the mixed-radix packing of row `i`'s shared-attribute codes;
/// `right[j]` is the same packing of row `j`'s codes *after remapping into
/// the left dictionaries* — [`MISS`] if some value of the row does not occur
/// in the left relation at all (such a row can never join).  Returns `None`
/// when the packed key space would exceed `u64` (dozens of huge shared
/// columns); callers then fall back to decoded keys.
fn shared_code_keys(
    left: &Relation,
    right: &Relation,
    shared: &AttrSet,
) -> Result<Option<(Vec<u64>, Vec<u64>)>> {
    let mut key_space: u128 = 1;
    let left_pos = left.attr_positions(shared)?;
    let right_pos = right.attr_positions(shared)?;
    let mut domains: Vec<u64> = Vec::with_capacity(shared.len());
    for &p in &left_pos {
        let d = left.schema()[p];
        // Domain sizes are dictionary lengths, bounded by the u32 code
        // space, so the u64 is exact; only the key-space *product* needs
        // u128 headroom.
        let size = left.domain(d)?.len().max(1) as u64;
        // ajd: allow(silent-arithmetic, "overflow guard, not a count: the product is only compared against u64::MAX to decide whether packed keys fit; saturating at u128::MAX keeps that comparison correct")
        key_space = key_space.saturating_mul(size as u128);
        domains.push(size);
    }
    if key_space > u64::MAX as u128 {
        return Ok(None);
    }

    // Per shared attribute: right code → left code (or u32::MAX).
    let mut remaps: Vec<Vec<u32>> = Vec::with_capacity(shared.len());
    for (&lp, &rp) in left_pos.iter().zip(&right_pos) {
        let attr_l = left.schema()[lp];
        let attr_r = right.schema()[rp];
        let remap: Vec<u32> = right
            .domain(attr_r)?
            .iter()
            .map(|&v| {
                left.code_of(attr_l, v)
                    .expect("attribute comes from left's schema")
                    .unwrap_or(u32::MAX)
            })
            .collect();
        remaps.push(remap);
    }

    let left_keys: Vec<u64> = (0..left.len())
        .map(|i| {
            left_pos
                .iter()
                .zip(&domains)
                .fold(0u64, |key, (&p, &d)| key * d + left.code(p, i) as u64)
        })
        .collect();

    let right_keys: Vec<u64> = (0..right.len())
        .map(|j| {
            let mut key = 0u64;
            for ((&p, remap), &d) in right_pos.iter().zip(&remaps).zip(&domains) {
                let mapped = remap[right.code(p, j) as usize];
                if mapped == u32::MAX {
                    return MISS;
                }
                key = key * d + mapped as u64;
            }
            key
        })
        .collect();

    Ok(Some((left_keys, right_keys)))
}

/// The `(left row, right row)` pairs with equal keys, in left-row order and,
/// per left row, right-row order.
fn join_pairs<K: Hash + Eq>(left: &[K], right: &[K]) -> (Vec<usize>, Vec<usize>) {
    let mut build: FxHashMap<&K, Vec<usize>> = map_with_capacity(right.len());
    for (j, key) in right.iter().enumerate() {
        build.entry(key).or_default().push(j);
    }
    let (mut li, mut rj) = (Vec::new(), Vec::new());
    for (i, key) in left.iter().enumerate() {
        if let Some(matches) = build.get(key) {
            li.extend(std::iter::repeat_n(i, matches.len()));
            rj.extend_from_slice(matches);
        }
    }
    (li, rj)
}

/// The left rows whose key occurs on the right, in row order.
fn matching_rows<K: Hash + Eq>(left: &[K], right: &[K]) -> Vec<usize> {
    let mut keys = set_with_capacity(right.len());
    keys.extend(right);
    (0..left.len())
        .filter(|&i| keys.contains(&left[i]))
        .collect()
}

/// `Σ_k c_left(k) · c_right(k)` over the keys of the two sides.
fn count_pairs<K: Hash + Eq>(left: &[K], right: &[K]) -> u128 {
    let mut per_key: FxHashMap<&K, u64> = map_with_capacity(left.len());
    for key in left {
        *per_key.entry(key).or_insert(0) += 1;
    }
    // One term per right row, each at most the left row count: the sum is
    // bounded by |left|·|right|, which always fits u128.
    right
        .iter()
        .filter_map(|key| per_key.get(key))
        .map(|&c| c as u128)
        .sum()
}

/// Computes the natural join `left ⋈ right` on their shared attributes.
///
/// If the relations share no attribute the result is the Cartesian product.
/// The output schema is `left`'s columns followed by `right`'s non-shared
/// columns.  Output rows are **not** deduplicated (joining two sets always
/// yields a set, so no deduplication is needed in that case).  The output
/// is built from codes: the matching row pairs are collected first, then
/// every output column is gathered from its side's code column.
pub fn natural_join(left: &Relation, right: &Relation) -> Result<Relation> {
    let shared = left.attrs().intersection(&right.attrs());
    let (li, rj) = match JoinKeys::of(left, right, &shared)? {
        JoinKeys::Packed(l, r) => join_pairs(&l, &r),
        JoinKeys::Decoded(l, r) => join_pairs(&l, &r),
    };

    let right_extra: Vec<AttrId> = right
        .schema()
        .iter()
        .copied()
        .filter(|a| !shared.contains(*a))
        .collect();
    let right_extra_pos: Vec<usize> = right_extra
        .iter()
        .map(|&a| right.attr_pos(a).expect("attribute from own schema"))
        .collect();
    let left_pos: Vec<usize> = (0..left.arity()).collect();

    let mut schema: Vec<AttrId> = left.schema().to_vec();
    schema.extend_from_slice(&right_extra);
    let mut columns = left.pick_columns(&left_pos, li.iter().copied());
    columns.extend(right.pick_columns(&right_extra_pos, rj.iter().copied()));
    Ok(Relation::from_columns(schema, columns, li.len()))
}

/// Counts `|left ⋈ right|` without materialising the join output.
///
/// The count is `Σ_k c_left(k) · c_right(k)` over the shared-attribute
/// values of the two sides, computed from the same per-row join keys as
/// [`natural_join`] and accumulated in `u128` (two-way joins reach `N²`,
/// which exceeds `u64` at production scale).
pub fn count_natural_join(left: &Relation, right: &Relation) -> Result<u128> {
    let shared = left.attrs().intersection(&right.attrs());
    Ok(match JoinKeys::of(left, right, &shared)? {
        JoinKeys::Packed(l, r) => count_pairs(&l, &r),
        JoinKeys::Decoded(l, r) => count_pairs(&l, &r),
    })
}

/// Joins a sequence of relations left to right: `r₁ ⋈ r₂ ⋈ … ⋈ r_k`.
///
/// This is the *materialising baseline* used to validate the join-tree based
/// counting; for cyclic join orders intermediate results can explode, which
/// is exactly the behaviour the ablation benchmark demonstrates.
pub fn natural_join_all(relations: &[Relation]) -> Result<Relation> {
    let mut iter = relations.iter();
    let first = iter.next().ok_or(RelationError::EmptyInput(
        "natural_join_all of zero relations",
    ))?;
    let mut acc = first.clone();
    for r in iter {
        acc = natural_join(&acc, r)?;
    }
    Ok(acc)
}

/// Computes the semijoin `left ⋉ right`: the tuples of `left` that agree
/// with at least one tuple of `right` on their shared attributes.
pub fn semijoin(left: &Relation, right: &Relation) -> Result<Relation> {
    let rows = semijoin_rows(left, right)?;
    let positions: Vec<usize> = (0..left.arity()).collect();
    let columns = left.pick_columns(&positions, rows.iter().copied());
    Ok(Relation::from_columns(
        left.schema().to_vec(),
        columns,
        rows.len(),
    ))
}

/// The rows of `left` kept by `left ⋉ right`, in row order.
pub(crate) fn semijoin_rows(left: &Relation, right: &Relation) -> Result<Vec<usize>> {
    let shared = left.attrs().intersection(&right.attrs());
    Ok(match JoinKeys::of(left, right, &shared)? {
        JoinKeys::Packed(l, r) => matching_rows(&l, &r),
        JoinKeys::Decoded(l, r) => matching_rows(&l, &r),
    })
}

/// Decomposes `r` onto a database schema: returns `[Π_{Ω₁}(R), …, Π_{Ω_m}(R)]`.
pub fn decompose(r: &Relation, schema: &[AttrSet]) -> Result<Vec<Relation>> {
    schema.iter().map(|bag| r.project(bag)).collect()
}

/// Computes the *loss* of a database schema with respect to `r`:
/// `(|⋈ᵢ Π_{Ωᵢ}(R)| − |R|) / |R|` — eq. (1) of the paper — by fully
/// materialising the join.  Prefer the join-tree counting in `ajd-jointree`
/// for acyclic schemas; this function is the reference implementation.
///
/// `|R|` is the number of distinct tuples of `R` projected onto the
/// schema's attributes (equal to `r.len()` in the paper's setting of a set
/// relation fully covered by the schema), so the loss is never negative.
pub fn loss_materialized(r: &Relation, schema: &[AttrSet]) -> Result<f64> {
    if r.is_empty() {
        return Err(RelationError::EmptyInput("relation for loss computation"));
    }
    let projections = decompose(r, schema)?;
    let joined = natural_join_all(&projections)?;
    let covered = schema.iter().fold(AttrSet::empty(), |acc, b| acc.union(b));
    let base = r.group_counts(&covered)?.num_groups() as f64;
    Ok((joined.len() as f64 - base) / base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(schema: &[u32], rows: &[&[Value]]) -> Relation {
        let s: Vec<AttrId> = schema.iter().map(|&i| AttrId(i)).collect();
        Relation::from_rows(s, rows).unwrap()
    }

    #[test]
    fn join_on_shared_attribute() {
        // R(A,B) ⋈ S(B,C)
        let r = rel(&[0, 1], &[&[1, 10], &[2, 10], &[3, 20]]);
        let s = rel(&[1, 2], &[&[10, 100], &[10, 200], &[30, 300]]);
        let j = natural_join(&r, &s).unwrap();
        assert_eq!(j.attrs(), AttrSet::from_ids([0, 1, 2]));
        assert_eq!(j.len(), 4); // (1,10)x2 + (2,10)x2
        assert!(j.contains_row(&[1, 10, 100]));
        assert!(j.contains_row(&[2, 10, 200]));
        assert!(!j.contains_row(&[3, 20, 300]));
        assert_eq!(count_natural_join(&r, &s).unwrap(), 4);
    }

    #[test]
    fn join_without_shared_attributes_is_cartesian_product() {
        let r = rel(&[0], &[&[1], &[2]]);
        let s = rel(&[1], &[&[7], &[8], &[9]]);
        let j = natural_join(&r, &s).unwrap();
        assert_eq!(j.len(), 6);
        assert_eq!(count_natural_join(&r, &s).unwrap(), 6);
    }

    #[test]
    fn join_with_identical_schemas_is_intersection() {
        let r = rel(&[0, 1], &[&[1, 1], &[2, 2]]);
        let s = rel(&[0, 1], &[&[2, 2], &[3, 3]]);
        let j = natural_join(&r, &s).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.contains_row(&[2, 2]));
    }

    #[test]
    fn join_is_commutative_as_sets() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20], &[2, 30]]);
        let s = rel(&[1, 2], &[&[10, 5], &[20, 6], &[20, 7]]);
        let a = natural_join(&r, &s).unwrap();
        let b = natural_join(&s, &r).unwrap();
        assert!(a.set_eq(&b));
    }

    #[test]
    fn join_handles_values_missing_from_either_dictionary() {
        // Values 20 and 30 occur on only one side each: rows carrying them
        // must silently not join (code remapping yields a MISS).
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20]]);
        let s = rel(&[1, 2], &[&[10, 5], &[30, 6]]);
        let j = natural_join(&r, &s).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.contains_row(&[1, 10, 5]));
        let sj = semijoin(&r, &s).unwrap();
        assert_eq!(sj.len(), 1);
        assert!(sj.contains_row(&[1, 10]));
    }

    #[test]
    fn multiway_join_reconstructs_lossless_decomposition() {
        // R(A,B,C) that satisfies the MVD A ->> B | C  (so lossless).
        let mut rows = Vec::new();
        for a in 0..3u32 {
            for b in 0..2u32 {
                for c in 0..2u32 {
                    rows.push(vec![a, b, c]);
                }
            }
        }
        let r = rel(
            &[0, 1, 2],
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        let schema = vec![AttrSet::from_ids([0, 1]), AttrSet::from_ids([0, 2])];
        let parts = decompose(&r, &schema).unwrap();
        let joined = natural_join_all(&parts).unwrap();
        assert!(joined.set_eq(&r));
        assert_eq!(loss_materialized(&r, &schema).unwrap(), 0.0);
    }

    #[test]
    fn lossy_decomposition_produces_spurious_tuples() {
        // Example 4.1: a bijection between A and B; schema {{A},{B}}.
        let n = 5u32;
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![i, i]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let schema = vec![AttrSet::singleton(AttrId(0)), AttrSet::singleton(AttrId(1))];
        let rho = loss_materialized(&r, &schema).unwrap();
        assert!((rho - (n as f64 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn join_always_contains_original_relation() {
        let r = rel(&[0, 1, 2], &[&[0, 1, 2], &[0, 2, 1], &[1, 1, 1]]);
        let schema = vec![AttrSet::from_ids([0, 1]), AttrSet::from_ids([1, 2])];
        let parts = decompose(&r, &schema).unwrap();
        let joined = natural_join_all(&parts).unwrap();
        assert!(r.is_subset_of(&joined));
        assert!(joined.len() >= r.len());
    }

    #[test]
    fn semijoin_filters_left_side() {
        let r = rel(&[0, 1], &[&[1, 10], &[2, 20], &[3, 30]]);
        let s = rel(&[1], &[&[10], &[30]]);
        let sj = semijoin(&r, &s).unwrap();
        assert_eq!(sj.len(), 2);
        assert!(sj.contains_row(&[1, 10]));
        assert!(sj.contains_row(&[3, 30]));
        assert_eq!(sj.schema(), r.schema());
    }

    #[test]
    fn join_all_of_nothing_is_an_error() {
        assert!(natural_join_all(&[]).is_err());
    }

    #[test]
    fn loss_of_empty_relation_is_an_error() {
        let r = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        let schema = vec![AttrSet::singleton(AttrId(0)), AttrSet::singleton(AttrId(1))];
        assert!(loss_materialized(&r, &schema).is_err());
    }

    /// Five shared columns of 8000 distinct values each: the packed key
    /// space (8000⁵ > 2⁶⁴) overflows `u64`, so join, count and semijoin all
    /// take the decoded-key fallback — and agree with each other and with
    /// the known answer (every second row of `r` has one partner).
    #[test]
    fn wide_keys_fall_back_to_decoded_keys() {
        let n = 8000u32;
        let wide: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![i, (i * 7) % n, (i * 11) % n, (i * 13) % n, (i * 17) % n])
            .collect();
        let with_extra = |extra: u32, rows: &mut dyn Iterator<Item = &Vec<Value>>| {
            let mut schema: Vec<u32> = (0..5).collect();
            schema.push(extra);
            let rows: Vec<Vec<Value>> = rows
                .map(|row| {
                    let mut row = row.clone();
                    row.push(row[0] % 3);
                    row
                })
                .collect();
            rel(&schema, &rows.iter().map(Vec::as_slice).collect::<Vec<_>>())
        };
        let r = with_extra(5, &mut wide.iter());
        let s = with_extra(6, &mut wide.iter().step_by(2));
        let shared = r.attrs().intersection(&s.attrs());
        assert!(shared_code_keys(&r, &s, &shared).unwrap().is_none());
        let j = natural_join(&r, &s).unwrap();
        assert_eq!(j.len(), (n / 2) as usize);
        assert!(j.dictionaries_fully_occupied());
        assert_eq!(count_natural_join(&r, &s).unwrap(), (n / 2) as u128);
        let sj = semijoin(&r, &s).unwrap();
        assert_eq!(sj.len(), (n / 2) as usize);
        assert!(sj.is_subset_of(&r));
        assert_eq!(sj.row(1), r.row(2));
    }

    #[test]
    fn count_matches_materialised_join_size() {
        let r = rel(&[0, 1], &[&[1, 1], &[1, 2], &[2, 1], &[3, 3]]);
        let s = rel(&[1, 2], &[&[1, 9], &[1, 8], &[2, 7], &[4, 6]]);
        assert_eq!(
            count_natural_join(&r, &s).unwrap(),
            natural_join(&r, &s).unwrap().len() as u128
        );
    }
}
