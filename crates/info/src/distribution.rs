//! The tree-factorised distribution `P^T` and the KL-divergence to it.
//!
//! Proposition 3.1 (eq. 10): a distribution `P` models a join tree `T`
//! (Definition 2.2) iff it equals
//!
//! ```text
//! P^T(x) = Π_i P[Ωᵢ](x[Ωᵢ]) / Π_i P[Δᵢ](x[Δᵢ])
//! ```
//!
//! where the `Ωᵢ` are the bags of `T` and the `Δᵢ` its edge separators.
//! Theorem 3.2 states `J(T) = min_{Q ⊨ T} D_KL(P ‖ Q) = D_KL(P ‖ P^T)`.
//!
//! [`TreeFactoredDistribution`] evaluates `P^T` for the empirical
//! distribution of a relation at each of its rows, and
//! [`kl_divergence_to_tree`] computes `D_KL(P_R ‖ P_R^T)` from those per-row
//! values so that the Theorem 3.2 identity can be verified numerically (it
//! is also exploited by the analysis crate as a cross-check on the
//! J-measure computation).

use ajd_jointree::JoinTree;
use ajd_relation::{AttrSet, GroupIds, GroupSource, RelationError, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The bag and separator marginals of a relation along a join tree,
/// indexed by row: `P^T` evaluated at the tuples of the relation itself.
///
/// The marginals are held as shared [`GroupIds`] handles — the same bag and
/// separator groupings the join-size message passing uses — so a
/// distribution built over a caching [`GroupSource`] (an `AnalysisContext`,
/// via `ajd_core::Analyzer`) aliases the cache instead of re-grouping, and
/// evaluating `P^T` at a row is one array lookup per bag and separator.
#[derive(Debug, Clone)]
pub struct TreeFactoredDistribution {
    /// Number of tuples of the underlying relation.
    n: u64,
    /// Per-bag marginals.
    bags: Vec<Marginal>,
    /// Per-separator marginals.
    seps: Vec<Marginal>,
}

/// One marginal of `P^T`: a grouping and `ln P[Y = y]` of each of its
/// groups.
#[derive(Debug, Clone)]
struct Marginal {
    ids: Arc<GroupIds>,
    log_p: Vec<f64>,
}

impl Marginal {
    fn new<S: GroupSource>(src: &S, attrs: &AttrSet, n_ln: f64) -> Result<Self> {
        let ids = src.group_ids(attrs)?;
        let log_p = ids
            .counts()
            .iter()
            .map(|&c| (c as f64).ln() - n_ln)
            .collect();
        Ok(Marginal { ids, log_p })
    }

    /// `ln P[Y = y]` for the `Y`-projection of row `i`.
    fn at(&self, i: usize) -> f64 {
        self.log_p[self.ids.row_ids()[i] as usize]
    }
}

/// Summary of a KL-divergence computation between the empirical distribution
/// and its tree factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KlReport {
    /// `D_KL(P_R ‖ P_R^T)` in nats.
    pub kl_nats: f64,
    /// Number of distinct tuples of `R` the sum ranged over.
    pub support_size: usize,
}

impl TreeFactoredDistribution {
    /// Builds the factorisation of the empirical distribution of the source
    /// relation along `tree`.
    ///
    /// The join tree's attributes must be exactly the relation's attributes
    /// (otherwise `P^T` is a distribution over a different variable set and
    /// the KL-divergence is not defined tuple-wise).  Over a caching
    /// [`GroupSource`] the bag and separator groupings are the ones the
    /// join size of the tree needs, so computing both costs one grouping
    /// pass per attribute set.
    pub fn new<S: GroupSource>(src: &S, tree: &JoinTree) -> Result<Self> {
        if src.is_empty() {
            return Err(RelationError::EmptyInput(
                "relation for tree-factorised distribution",
            ));
        }
        if tree.attributes() != src.attrs() {
            return Err(RelationError::SchemaMismatch {
                detail: format!(
                    "join tree attributes {} differ from relation attributes {}",
                    tree.attributes(),
                    src.attrs()
                ),
            });
        }
        let n_ln = (src.num_rows() as f64).ln();
        let bags = tree
            .bags()
            .iter()
            .map(|bag| Marginal::new(src, bag, n_ln))
            .collect::<Result<_>>()?;
        let seps = (0..tree.num_edges())
            .map(|e| Marginal::new(src, &tree.separator(e), n_ln))
            .collect::<Result<_>>()?;
        Ok(TreeFactoredDistribution {
            n: src.num_rows() as u64,
            bags,
            seps,
        })
    }

    /// Number of tuples `N` of the underlying relation.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Natural logarithm of `P^T(t)` for the tuple `t` at row `i` of the
    /// source relation.
    ///
    /// Always finite: every bag and separator projection of a row of `R`
    /// occurs in `R`.
    pub fn log_prob(&self, i: usize) -> f64 {
        let mut acc = 0.0f64;
        for m in &self.bags {
            acc += m.at(i);
        }
        for m in &self.seps {
            acc -= m.at(i);
        }
        acc
    }

    /// `P^T(t)` for the tuple `t` at row `i` of the source relation.
    pub fn prob(&self, i: usize) -> f64 {
        self.log_prob(i).exp()
    }
}

/// Computes `D_KL(P_R ‖ P_R^T)` in nats (the right-hand side of
/// Theorem 3.2).
pub fn kl_divergence_to_tree<S: GroupSource>(src: &S, tree: &JoinTree) -> Result<f64> {
    Ok(kl_report(src, tree)?.kl_nats)
}

/// Like [`kl_divergence_to_tree`], additionally reporting the support size.
///
/// `D_KL(P ‖ P^T) = Σ_t P(t) ln P(t) − Σ_t P(t) ln P^T(t)`.  The first sum
/// runs over the distinct tuples (the full-relation group counts, also the
/// `H(Ω)` marginal); the second equals `(1/N) Σ_rows ln P^T(row)`, so
/// `P^T` is evaluated at every row through the bag and separator groupings.
/// This keeps the KL an independent check of Theorem 3.2 rather than a
/// rearrangement of the J-measure's entropies.
pub fn kl_report<S: GroupSource>(src: &S, tree: &JoinTree) -> Result<KlReport> {
    let factored = TreeFactoredDistribution::new(src, tree)?;
    let full = src.group_counts(&src.attrs())?;
    let n = src.num_rows() as f64;
    let mut neg_entropy = 0.0f64;
    for &c in full.counts() {
        let p = c as f64 / n;
        neg_entropy += p * p.ln();
    }
    let mut cross = 0.0f64;
    for i in 0..src.num_rows() {
        cross += factored.log_prob(i);
    }
    Ok(KlReport {
        kl_nats: neg_entropy - cross / n,
        support_size: full.num_groups(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jmeasure::j_measure;
    use ajd_relation::{AttrId, AttrSet, Relation};

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
    fn factored_probabilities_are_normalised_for_lossless_relation() {
        // For a relation that models the tree, P^T == P, so every tuple has
        // probability 1/N and the probabilities of R's tuples sum to 1.
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
        let f = TreeFactoredDistribution::new(&r, &t).unwrap();
        let mut total = 0.0;
        for i in 0..r.len() {
            let p = f.prob(i);
            assert!((p - 1.0 / r.len() as f64).abs() < 1e-12);
            total += p;
        }
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kl_is_zero_iff_schema_is_lossless() {
        let mut rows = Vec::new();
        for a in 0..3u32 {
            for b in 0..2u32 {
                for c in 0..2u32 {
                    rows.push(vec![a, b, c]);
                }
            }
        }
        let lossless = rel(
            &[0, 1, 2],
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        let t = JoinTree::new(vec![bag(&[0, 1]), bag(&[0, 2])], vec![(0, 1)]).unwrap();
        assert!(kl_divergence_to_tree(&lossless, &t).unwrap().abs() < 1e-12);

        // Drop a tuple: now lossy, KL > 0.
        rows.pop();
        let lossy = rel(
            &[0, 1, 2],
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        assert!(kl_divergence_to_tree(&lossy, &t).unwrap() > 1e-9);
    }

    #[test]
    fn theorem_3_2_kl_equals_j_measure() {
        let r = irregular_relation();
        let trees = vec![
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
            JoinTree::new(
                vec![bag(&[0]), bag(&[1]), bag(&[2]), bag(&[3])],
                vec![(0, 1), (1, 2), (2, 3)],
            )
            .unwrap(),
            JoinTree::new(vec![bag(&[0, 1, 2]), bag(&[2, 3])], vec![(0, 1)]).unwrap(),
        ];
        for t in trees {
            let j = j_measure(&r, &t).unwrap();
            let kl = kl_divergence_to_tree(&r, &t).unwrap();
            assert!(
                (j - kl).abs() < 1e-9,
                "Theorem 3.2 violated: J={j} KL={kl} for tree {t}"
            );
        }
    }

    #[test]
    fn theorem_3_2_on_bijection_relation() {
        let n = 6u32;
        let rows: Vec<Vec<u32>> = (0..n).map(|i| vec![i, i]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let t = JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap();
        let kl = kl_divergence_to_tree(&r, &t).unwrap();
        assert!((kl - (n as f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn kl_report_counts_support() {
        let r = irregular_relation();
        let t = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
        let rep = kl_report(&r, &t).unwrap();
        assert_eq!(rep.support_size, r.len());
        assert!(rep.kl_nats >= 0.0);
    }

    #[test]
    fn mismatched_attribute_sets_are_rejected() {
        let r = irregular_relation();
        let t = JoinTree::new(vec![bag(&[0, 1]), bag(&[1, 2])], vec![(0, 1)]).unwrap();
        assert!(TreeFactoredDistribution::new(&r, &t).is_err());
        assert!(kl_divergence_to_tree(&r, &t).is_err());
    }

    #[test]
    fn empty_relation_rejected() {
        let r = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        let t = JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap();
        assert!(TreeFactoredDistribution::new(&r, &t).is_err());
    }

    #[test]
    fn row_probabilities_factor_through_the_marginals() {
        // Schema {{A},{B}} over the bijection {(0,0),(1,1)}: P^T is the
        // product of the marginals, 1/2 · 1/2 at every row of R.
        let r = rel(&[0, 1], &[&[0, 0], &[1, 1]]);
        let t = JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap();
        let f = TreeFactoredDistribution::new(&r, &t).unwrap();
        for i in 0..r.len() {
            assert!((f.prob(i) - 0.25).abs() < 1e-12);
            assert!(f.log_prob(i).is_finite());
        }
    }
}
