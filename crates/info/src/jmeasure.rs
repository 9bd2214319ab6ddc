//! Lee's J-measure of a join tree (eq. 7) and its Theorem 2.2 bounds.
//!
//! For a join tree `(T, χ)` and the empirical distribution of a relation
//! `R`:
//!
//! ```text
//! J(T, χ) = Σ_{v ∈ nodes} H(χ(v)) − Σ_{(v₁,v₂) ∈ edges} H(χ(v₁) ∩ χ(v₂)) − H(χ(T))
//! ```
//!
//! Theorem 2.1 (Lee): `R ⊨ AJD(S)` iff `J(S) = 0`.
//! Theorem 3.2 (this paper): `J(T) = D_KL(P_R ‖ P_R^T)` — verified
//! numerically in `ajd-info::distribution` and the workspace property tests.
//! Theorem 2.2 sandwiches `J(T)` between the maximum and the sum of the
//! conditional mutual informations of the ordered support MVDs.

use crate::entropy::entropy;
use crate::mutual::mvd_cmi;
use ajd_jointree::mvd::ordered_support;
use ajd_jointree::JoinTree;
use ajd_relation::{AttrSet, GroupSource, Result};
use serde::{Deserialize, Serialize};

/// Computes the J-measure `J(T)` of `tree` with respect to the empirical
/// distribution of the source relation, in nats.
///
/// Generic over [`GroupSource`]: with `&Relation` each bag, separator and
/// full-set entropy of eq. (7) is grouped from scratch; with a shared source
/// (an `AnalysisContext`, via `ajd_core::Analyzer`) those terms — which
/// recur massively across the candidate trees of a discovery sweep — are
/// answered from a memoized cache, so the sweep pays for each grouping once.
pub fn j_measure<S: GroupSource>(src: &S, tree: &JoinTree) -> Result<f64> {
    let mut total = 0.0;
    for bag in tree.bags() {
        total += entropy(src, bag)?;
    }
    for e in 0..tree.num_edges() {
        total -= entropy(src, &tree.separator(e))?;
    }
    total -= entropy(src, &tree.attributes())?;
    Ok(total)
}

/// Computes the J-measure of an acyclic schema given as bags, building a
/// join tree internally (Observation after eq. 7: `J` depends only on the
/// schema, not on the particular join tree).
pub fn j_measure_of_schema<S: GroupSource>(src: &S, bags: &[AttrSet]) -> Result<f64> {
    let tree = JoinTree::from_acyclic_schema(bags)?;
    j_measure(src, &tree)
}

/// The sandwich of Theorem 2.2:
/// `max_i I(Ω_{1:i-1}; Ω_{i:m} | Δᵢ) ≤ J(T) ≤ Σ_i I(Ω_{1:i-1}; Ω_{i:m} | Δᵢ)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JMeasureBounds {
    /// The maximum conditional mutual information over the ordered support
    /// (lower bound on `J`).
    pub max_cmi: f64,
    /// The J-measure itself.
    pub j: f64,
    /// The sum of conditional mutual informations over the ordered support
    /// (upper bound on `J`).
    pub sum_cmi: f64,
}

/// Evaluates Theorem 2.2 for the tree rooted at `root`: returns the lower
/// bound (max CMI), the J-measure, and the upper bound (sum of CMIs) of the
/// ordered support.
///
/// The CMIs of consecutive ordered-support MVDs share most of their entropy
/// terms (the `i`-th prefix union is the `(i+1)`-th left side), so a shared
/// [`GroupSource`] does roughly half the grouping work even for one tree.
pub fn j_measure_bounds<S: GroupSource>(
    src: &S,
    tree: &JoinTree,
    root: usize,
) -> Result<JMeasureBounds> {
    let rooted = tree.rooted(root)?;
    let support = ordered_support(&rooted)?;
    let mut max_cmi = 0.0f64;
    let mut sum_cmi = 0.0f64;
    for mvd in &support {
        let cmi = mvd_cmi(src, mvd)?;
        max_cmi = max_cmi.max(cmi);
        sum_cmi += cmi;
    }
    Ok(JMeasureBounds {
        max_cmi,
        j: j_measure(src, tree)?,
        sum_cmi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutual::conditional_mutual_information;
    use ajd_relation::{AttrId, Relation};

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        let s: Vec<AttrId> = schema.iter().map(|&i| AttrId(i)).collect();
        Relation::from_rows(s, rows).unwrap()
    }

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    fn irregular_relation() -> Relation {
        rel(
            &[0, 1, 2, 3],
            &[
                &[0, 0, 0, 0],
                &[0, 1, 0, 1],
                &[0, 1, 1, 0],
                &[1, 0, 1, 1],
                &[1, 1, 0, 0],
                &[2, 0, 0, 1],
                &[2, 2, 1, 1],
                &[2, 2, 2, 0],
                &[3, 1, 2, 1],
            ],
        )
    }

    #[test]
    fn j_measure_of_two_bag_tree_is_cmi() {
        // For S = {XZ, XY}: J(S) = I(Z;Y | X)  (remark after eq. 7).
        let r = irregular_relation();
        let t = JoinTree::new(vec![bag(&[0, 1]), bag(&[0, 2])], vec![(0, 1)]).unwrap();
        let j = j_measure(&r, &t).unwrap();
        let cmi = conditional_mutual_information(&r, &bag(&[1]), &bag(&[2]), &bag(&[0])).unwrap();
        assert!((j - cmi).abs() < 1e-12);
    }

    #[test]
    fn j_measure_is_zero_for_lossless_schema() {
        // Full conditional product: MVD X0 ->> X1 | X2 holds.
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
        let t = JoinTree::new(vec![bag(&[0, 1]), bag(&[0, 2])], vec![(0, 1)]).unwrap();
        assert!(j_measure(&r, &t).unwrap().abs() < 1e-12);
    }

    #[test]
    fn j_measure_is_nonnegative() {
        let r = irregular_relation();
        let trees = vec![
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
            JoinTree::new(
                vec![bag(&[0]), bag(&[1]), bag(&[2]), bag(&[3])],
                vec![(0, 1), (1, 2), (2, 3)],
            )
            .unwrap(),
        ];
        for t in trees {
            assert!(j_measure(&r, &t).unwrap() >= -1e-12);
        }
    }

    #[test]
    fn j_measure_independent_of_tree_shape() {
        // For the MVD schema {XU, XV, XW} both the path X U - XV - XW and the
        // star around XU are join trees; J must be identical (eq. 7 remark).
        let r = rel(
            &[0, 1, 2, 3],
            &[
                &[0, 0, 0, 0],
                &[0, 1, 1, 0],
                &[0, 0, 1, 1],
                &[1, 1, 0, 1],
                &[1, 0, 1, 0],
                &[1, 1, 1, 1],
            ],
        );
        let bags = vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])];
        let path = JoinTree::path(bags.clone()).unwrap();
        let star = JoinTree::star(bags).unwrap();
        let jp = j_measure(&r, &path).unwrap();
        let js = j_measure(&r, &star).unwrap();
        assert!((jp - js).abs() < 1e-12);
    }

    #[test]
    fn j_measure_of_bijection_relation_is_ln_n() {
        // Example 4.1.
        let n = 13u32;
        let rows: Vec<Vec<u32>> = (0..n).map(|i| vec![i, i]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let t = JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap();
        let j = j_measure(&r, &t).unwrap();
        assert!((j - (n as f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn schema_api_matches_tree_api() {
        let r = irregular_relation();
        let bags = vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])];
        let t = JoinTree::path(bags.clone()).unwrap();
        let via_schema = j_measure_of_schema(&r, &bags).unwrap();
        let via_tree = j_measure(&r, &t).unwrap();
        assert!((via_schema - via_tree).abs() < 1e-12);
    }

    #[test]
    fn theorem_2_2_sandwich_holds() {
        let r = irregular_relation();
        let trees = vec![
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
        ];
        for t in trees {
            for root in 0..t.num_nodes() {
                let b = j_measure_bounds(&r, &t, root).unwrap();
                assert!(
                    b.max_cmi <= b.j + 1e-9,
                    "lower bound violated: {} > {}",
                    b.max_cmi,
                    b.j
                );
                assert!(
                    b.j <= b.sum_cmi + 1e-9,
                    "upper bound violated: {} > {}",
                    b.j,
                    b.sum_cmi
                );
            }
        }
    }

    #[test]
    fn j_measure_errors_on_unknown_attributes() {
        let r = rel(&[0, 1], &[&[0, 0]]);
        let t = JoinTree::new(vec![bag(&[0]), bag(&[7])], vec![(0, 1)]).unwrap();
        assert!(j_measure(&r, &t).is_err());
    }
}
