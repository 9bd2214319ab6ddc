//! The random relation model (Definition 5.2).
//!
//! A [`RandomRelationModel`] over a [`ProductDomain`] draws relation
//! instances of a given size `N` uniformly at random from all size-`N`
//! subsets of the product domain.  The attribute ids of the sampled relation
//! are `X₀,…,X_{n−1}` in the order of the domain's dimensions; the paper's
//! MVD setting `C ↠ A | B` uses `A = X₀`, `B = X₁`, `C = X₂`
//! (see [`RandomRelationModel::for_mvd`]).

use crate::product::ProductDomain;
use crate::sampling::sample_distinct;
use ajd_relation::{AttrId, Relation, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The random relation model of Definition 5.2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomRelationModel {
    domain: ProductDomain,
}

impl RandomRelationModel {
    /// Creates a model over the given product domain.
    pub fn new(domain: ProductDomain) -> Self {
        RandomRelationModel { domain }
    }

    /// Creates the three-attribute model used throughout Section 5:
    /// attributes `A, B, C` (ids 0, 1, 2) with domain sizes `d_A, d_B, d_C`.
    pub fn for_mvd(d_a: u64, d_b: u64, d_c: u64) -> Result<Self> {
        Ok(RandomRelationModel::new(ProductDomain::for_mvd(
            d_a, d_b, d_c,
        )?))
    }

    /// Creates the degenerate (`d_C = 1`) two-attribute model of Section 5.1
    /// / Figure 1: attributes `A, B` (ids 0, 1) with domain sizes `d_A, d_B`.
    pub fn degenerate(d_a: u64, d_b: u64) -> Result<Self> {
        Ok(RandomRelationModel::new(ProductDomain::new(vec![
            d_a, d_b,
        ])?))
    }

    /// The underlying product domain.
    pub fn domain(&self) -> &ProductDomain {
        &self.domain
    }

    /// Maximum number of tuples a sampled relation can have.
    pub fn capacity(&self) -> u64 {
        self.domain.size()
    }

    /// Draws a relation with exactly `n` distinct tuples, uniformly at
    /// random from all such relations.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, n: u64) -> Result<Relation> {
        let indices = sample_distinct(rng, self.domain.size(), n)?;
        let schema: Vec<AttrId> = (0..self.domain.arity()).map(AttrId::from).collect();
        let mut rel = Relation::with_capacity(schema, n as usize)?;
        let mut buf = vec![0u32; self.domain.arity()];
        for idx in indices {
            self.domain.decode_into(idx, &mut buf);
            rel.push_row(&buf)?;
        }
        Ok(rel)
    }

    /// Draws a relation whose size is chosen so that the *maximal* relative
    /// spurious-tuple count `ρ̄ = |domain|/N − 1` equals `rho_bar`
    /// (the Figure 1 parametrisation: `N = Π dᵢ / (1 + ρ̄)`).
    pub fn sample_with_rho_bar<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        rho_bar: f64,
    ) -> Result<Relation> {
        let n = (self.domain.size() as f64 / (1.0 + rho_bar)).round() as u64;
        self.sample(rng, n.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_relation_has_requested_size_and_distinct_tuples() {
        let model = RandomRelationModel::for_mvd(10, 8, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let r = model.sample(&mut rng, 100).unwrap();
        assert_eq!(r.len(), 100);
        assert_eq!(r.arity(), 3);
        assert!(r.is_set());
    }

    #[test]
    fn sampled_values_respect_domains() {
        let model = RandomRelationModel::for_mvd(4, 6, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let r = model.sample(&mut rng, 48).unwrap(); // the full domain
        assert_eq!(r.len(), 48);
        for row in r.iter_rows() {
            assert!(row[0] < 4);
            assert!(row[1] < 6);
            assert!(row[2] < 2);
        }
    }

    #[test]
    fn oversampling_is_rejected() {
        let model = RandomRelationModel::degenerate(3, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(model.sample(&mut rng, 10).is_err());
        assert_eq!(model.capacity(), 9);
    }

    #[test]
    fn sampling_is_reproducible() {
        let model = RandomRelationModel::degenerate(50, 50).unwrap();
        let a = model.sample(&mut StdRng::seed_from_u64(7), 200).unwrap();
        let b = model.sample(&mut StdRng::seed_from_u64(7), 200).unwrap();
        assert!(a.set_eq(&b));
    }

    #[test]
    fn rho_bar_parametrisation_matches_figure_1() {
        // N = d_A d_B / (1 + rho).
        let model = RandomRelationModel::degenerate(100, 100).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let r = model.sample_with_rho_bar(&mut rng, 0.1).unwrap();
        let expected = (100.0 * 100.0 / 1.1f64).round() as usize;
        assert_eq!(r.len(), expected);
    }

    #[test]
    fn marginal_counts_are_roughly_balanced_for_dense_samples() {
        // When N = d_A * d_B / 2, each A-value should appear ~d_B/2 times.
        let d = 32u64;
        let model = RandomRelationModel::degenerate(d, d).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let r = model.sample(&mut rng, d * d / 2).unwrap();
        let counts = r
            .group_counts(&ajd_relation::AttrSet::singleton(AttrId(0)))
            .unwrap();
        assert_eq!(counts.num_groups(), d as usize);
        for &c in counts.counts() {
            // Hypergeometric concentration: extremely unlikely to deviate by
            // more than half the mean for these sizes.
            assert!(c as f64 > d as f64 / 4.0);
            assert!((c as f64) < d as f64);
        }
    }
}
