//! Planted acyclic-schema relations.
//!
//! The `approximate_mvd_relation` generator covers the single-MVD case; the
//! experiments on multi-bag schemas (Proposition 5.1 / 5.3, discovery) also
//! need relations that *approximately* satisfy an arbitrary acyclic join
//! dependency.  [`PlantedTreeRelation`] builds them in three steps:
//!
//! 1. draw a small *seed* relation uniformly from the product domain;
//! 2. close it under the target join tree by taking the acyclic join of its
//!    bag projections — the closure models the tree exactly (zero J-measure,
//!    zero loss);
//! 3. perturb a `noise` fraction of the closure's tuples by replacing them
//!    with fresh uniform tuples (keeping all tuples distinct), which
//!    re-introduces a controlled amount of loss.
//!
//! The generator reports the closure size so experiments can relate the
//! injected noise to the measured `ρ` and `J`.

use crate::product::ProductDomain;
use crate::sampling::sample_distinct;
use ajd_jointree::{acyclic_join, JoinTree};
use ajd_relation::hash::FxHashSet;
use ajd_relation::{Relation, RelationError, Result, Value};
use rand::{Rng, RngExt};

/// Configuration and builder for planted approximate-AJD relations.
#[derive(Debug, Clone)]
pub struct PlantedTreeRelation {
    /// The acyclic schema the relation should (approximately) satisfy.
    pub tree: JoinTree,
    /// Per-attribute domain sizes, indexed by attribute id.
    pub dims: Vec<u64>,
    /// Number of seed tuples drawn before closing under the tree.
    pub seed_tuples: u64,
    /// Fraction of the closure's tuples replaced by uniform random tuples.
    pub noise: f64,
}

/// The result of planting: the relation plus bookkeeping about how it was
/// built.
#[derive(Debug, Clone)]
pub struct PlantedRelation {
    /// The generated relation (always a set).
    pub relation: Relation,
    /// Size of the lossless closure before noise was applied.
    pub closure_size: usize,
    /// Number of tuples that were replaced by noise.
    pub perturbed: usize,
}

impl PlantedTreeRelation {
    /// Creates a builder.  The tree's attributes must be exactly
    /// `{X₀,…,X_{dims.len()-1}}`.
    pub fn new(tree: JoinTree, dims: Vec<u64>, seed_tuples: u64, noise: f64) -> Result<Self> {
        let domain = ProductDomain::new(dims.clone())?; // validates dims
        if !(0.0..=1.0).contains(&noise) {
            return Err(RelationError::SchemaMismatch {
                detail: format!("noise fraction {noise} outside [0,1]"),
            });
        }
        let expected_attrs = ajd_relation::AttrSet::range(dims.len());
        if tree.attributes() != expected_attrs {
            return Err(RelationError::SchemaMismatch {
                detail: format!(
                    "tree attributes {} do not match the {} declared domains",
                    tree.attributes(),
                    dims.len()
                ),
            });
        }
        if seed_tuples == 0 || seed_tuples > domain.size() {
            return Err(RelationError::DomainExhausted {
                requested: seed_tuples,
                available: domain.size(),
            });
        }
        Ok(PlantedTreeRelation {
            tree,
            dims,
            seed_tuples,
            noise,
        })
    }

    /// Generates a planted relation.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<PlantedRelation> {
        let domain = ProductDomain::new(self.dims.clone())?;

        // 1. seed relation.
        let seed_indices = sample_distinct(rng, domain.size(), self.seed_tuples)?;
        let schema: Vec<ajd_relation::AttrId> = (0..domain.arity())
            .map(ajd_relation::AttrId::from)
            .collect();
        let mut seed = Relation::with_capacity(schema, seed_indices.len())?;
        let mut buf = vec![0 as Value; domain.arity()];
        for idx in seed_indices {
            domain.decode_into(idx, &mut buf);
            seed.push_row(&buf)?;
        }

        // 2. lossless closure under the tree.
        let closure = acyclic_join(&seed, &self.tree)?;
        let closure = closure.reorder_columns(seed.schema())?;
        let closure_size = closure.len();

        // 3. noise: replace a fraction of tuples with fresh uniform tuples.
        let mut present: FxHashSet<u64> = ajd_relation::hash::set_with_capacity(closure_size);
        let mut tuples: Vec<Vec<Value>> = Vec::with_capacity(closure_size);
        for row in closure.iter_rows() {
            present.insert(domain.encode(&row)?);
            tuples.push(row.to_vec());
        }
        let perturbed = ((closure_size as f64) * self.noise).round() as usize;
        let perturbed = perturbed.min(tuples.len());
        for _ in 0..perturbed {
            let victim = rng.random_range(0..tuples.len());
            let removed = tuples.swap_remove(victim);
            present.remove(&domain.encode(&removed)?);
            loop {
                let idx = rng.random_range(0..domain.size());
                if !present.contains(&idx) {
                    present.insert(idx);
                    tuples.push(domain.decode(idx)?);
                    break;
                }
            }
        }

        let mut relation = Relation::with_capacity(seed.schema().to_vec(), tuples.len())?;
        for t in &tuples {
            relation.push_row(t)?;
        }
        Ok(PlantedRelation {
            relation,
            closure_size,
            perturbed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajd_jointree::loss_acyclic;
    use ajd_relation::AttrSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    fn path_tree() -> JoinTree {
        JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        let tree = path_tree();
        assert!(PlantedTreeRelation::new(tree.clone(), vec![4, 4, 4, 4], 10, 0.1).is_ok());
        // noise out of range
        assert!(PlantedTreeRelation::new(tree.clone(), vec![4, 4, 4, 4], 10, 1.5).is_err());
        // wrong number of dims for the tree
        assert!(PlantedTreeRelation::new(tree.clone(), vec![4, 4, 4], 10, 0.1).is_err());
        // too many seed tuples
        assert!(PlantedTreeRelation::new(tree, vec![2, 2, 2, 2], 100, 0.1).is_err());
    }

    #[test]
    fn zero_noise_produces_lossless_relation() {
        let tree = path_tree();
        let planted = PlantedTreeRelation::new(tree.clone(), vec![5, 5, 5, 5], 30, 0.0).unwrap();
        let out = planted.generate(&mut StdRng::seed_from_u64(3)).unwrap();
        assert!(out.relation.is_set());
        assert_eq!(out.perturbed, 0);
        assert_eq!(out.relation.len(), out.closure_size);
        let rho = loss_acyclic(&out.relation, &tree).unwrap();
        assert!(rho.abs() < 1e-12);
    }

    #[test]
    fn noise_introduces_loss_monotonically_on_average() {
        let tree = path_tree();
        let dims = vec![6u64, 6, 6, 6];
        let mut avg_loss = Vec::new();
        for &noise in &[0.0f64, 0.1, 0.4] {
            let planted = PlantedTreeRelation::new(tree.clone(), dims.clone(), 40, noise).unwrap();
            let mut total = 0.0;
            for seed in 0..4u64 {
                let out = planted
                    .generate(&mut StdRng::seed_from_u64(100 + seed))
                    .unwrap();
                total += loss_acyclic(&out.relation, &tree).unwrap();
            }
            avg_loss.push(total / 4.0);
        }
        assert!(avg_loss[0] < 1e-12);
        assert!(avg_loss[1] > 0.0);
        assert!(avg_loss[2] > avg_loss[1]);
    }

    #[test]
    fn generated_relation_is_distinct_and_in_domain() {
        let tree = JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2])]).unwrap();
        let planted = PlantedTreeRelation::new(tree, vec![4, 7, 3], 15, 0.3).unwrap();
        let out = planted.generate(&mut StdRng::seed_from_u64(9)).unwrap();
        assert!(out.relation.is_set());
        for row in out.relation.iter_rows() {
            assert!(row[0] < 4 && row[1] < 7 && row[2] < 3);
        }
        assert!(out.perturbed > 0);
    }
}
