//! Deterministic end-to-end scenarios spanning all crates.

use ajd::jointree::{loss_acyclic, mvd::support};
use ajd::prelude::*;
use ajd::relation::join::{decompose, natural_join_all};

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

/// Beeri et al. (Theorem 8.8, restated in Section 2.1): a relation satisfies
/// an AJD iff it satisfies every MVD in the support of its join tree.
#[test]
fn ajd_holds_iff_all_support_mvds_hold() {
    // Lossless case: a relation built as a join of two tables.
    let lossless = generators::conditional_product_relation(4, 3, 2);
    let tree = JoinTree::from_acyclic_schema(&[bag(&[0, 2]), bag(&[1, 2])]).unwrap();
    let report = Analyzer::new(&lossless).analyze(&tree).unwrap();
    assert!(report.is_lossless());
    for mvd in support(&tree).unwrap() {
        assert!(mvd.holds_in(&lossless).unwrap());
    }

    // Lossy case: remove one tuple; the AJD breaks, and so does some MVD.
    let mut rows: Vec<Vec<u32>> = lossless.iter_rows().collect();
    rows.pop();
    let lossy = Relation::from_rows(
        lossless.schema().to_vec(),
        &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    )
    .unwrap();
    let lossy_report = Analyzer::new(&lossy).analyze(&tree).unwrap();
    assert!(!lossy_report.is_lossless());
    assert!(support(&tree)
        .unwrap()
        .iter()
        .any(|m| !m.holds_in(&lossy).unwrap()));
    // Theorem 2.1 (Lee): J > 0 exactly in the lossy case.
    assert!(lossy_report.j_measure > 1e-9);
}

/// The classic "employee skills/languages" MVD example: decomposing on a
/// valid MVD loses nothing; decomposing on an invalid one creates spurious
/// tuples that the J-measure detects.
#[test]
fn employee_skills_languages_scenario() {
    let mut catalog = Catalog::with_attributes(["employee", "skill", "language"]).unwrap();
    let rows_named = [
        ["ann", "sql", "english"],
        ["ann", "sql", "french"],
        ["ann", "rust", "english"],
        ["ann", "rust", "french"],
        ["bob", "sql", "english"],
        ["bob", "c++", "english"],
        // carol breaks the employee ->> skill | language pattern:
        ["carol", "sql", "english"],
        ["carol", "rust", "german"],
    ];
    let mut r = Relation::new(vec![AttrId(0), AttrId(1), AttrId(2)]).unwrap();
    for row in rows_named {
        let encoded = catalog.encode_row(&row).unwrap();
        r.push_row(&encoded).unwrap();
    }

    let employee = catalog.attr("employee").unwrap();
    let skill = catalog.attr("skill").unwrap();
    let language = catalog.attr("language").unwrap();

    let tree = JoinTree::from_acyclic_schema(&[
        AttrSet::from_slice(&[employee, skill]),
        AttrSet::from_slice(&[employee, language]),
    ])
    .unwrap();
    let report = Analyzer::new(&r).analyze(&tree).unwrap();

    // carol's rows are the only violation: joining her (2 skills x 2
    // languages) block adds exactly 2 spurious tuples.
    assert_eq!(report.spurious, 2);
    assert!(report.j_measure > 0.0);
    assert!(report.j_measure <= report.log1p_rho + 1e-12);

    // Restricting to "ann" (value code 0 of the employee dictionary), whose
    // skills and languages are a full product, makes the MVD hold exactly.
    let ann_only = r.select_eq(employee, 0).unwrap();
    assert!(ann_only.len() < r.len());
    let ann_only_report = Analyzer::new(&ann_only).analyze(&tree).unwrap();
    assert!(ann_only_report.is_lossless());
}

/// Decompose-then-join round trip: for a lossless schema the reconstruction
/// is exact; for a lossy one it is a strict superset whose size matches the
/// tree-counting prediction.
#[test]
fn decompose_join_roundtrip_matches_counts() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let r = generators::random_relation(&mut rng, &[5, 5, 5], 40).unwrap();
    let tree = JoinTree::from_acyclic_schema(&[bag(&[0, 1]), bag(&[1, 2])]).unwrap();

    let parts = decompose(&r, &tree.schema()).unwrap();
    let rejoined = natural_join_all(&parts).unwrap();
    let report = Analyzer::new(&r).analyze(&tree).unwrap();

    assert_eq!(rejoined.len() as u128, report.join_size);
    assert!(r.is_subset_of(&rejoined));
    if report.is_lossless() {
        assert!(rejoined.set_eq(&r));
    } else {
        assert!(rejoined.len() > r.len());
    }
}

/// The discovery pipeline end-to-end: mine a schema under a J budget and verify
/// that every certified quantity is consistent with a direct analysis.
#[test]
fn discovery_pipeline_is_consistent_with_analysis() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let r = generators::markov_chain_relation(&mut rng, 5, 6, 1500, 0.2, true).unwrap();

    let miner = SchemaMiner::new(DiscoveryConfig {
        j_threshold: 0.1,
        ..DiscoveryConfig::default()
    });
    let mined = miner.mine(&r).unwrap();

    // The mined tree covers all attributes and is a valid join tree.
    assert_eq!(mined.tree.attributes(), r.attrs());
    assert!(mined.tree.check_running_intersection());

    // Its reported J matches a direct computation, and Lemma 4.1 holds
    // against the realised loss.
    let direct_j = j_measure(&r, &mined.tree).unwrap();
    assert!((direct_j - mined.j_measure).abs() < 1e-9);
    let rho = loss_acyclic(&r, &mined.tree).unwrap();
    assert!(mined.rho_lower_bound <= rho + 1e-6);
}

/// Catalog-labelled data round-trips through an analysis without losing the
/// ability to render attribute names.
#[test]
fn catalog_labels_survive_analysis() {
    let mut catalog = Catalog::with_attributes(["city", "country", "continent"]).unwrap();
    let data = [
        ["haifa", "israel", "asia"],
        ["tel aviv", "israel", "asia"],
        ["seattle", "usa", "america"],
        ["boston", "usa", "america"],
        ["paris", "france", "europe"],
    ];
    let mut r = Relation::new(vec![AttrId(0), AttrId(1), AttrId(2)]).unwrap();
    for row in data {
        let encoded = catalog.encode_row(&row).unwrap();
        r.push_row(&encoded).unwrap();
    }
    let city = catalog.attr("city").unwrap();
    let country = catalog.attr("country").unwrap();
    let continent = catalog.attr("continent").unwrap();
    // country determines continent, and city determines country: the
    // hierarchical schema {city,country} + {country,continent} is lossless.
    let tree = JoinTree::from_acyclic_schema(&[
        AttrSet::from_slice(&[city, country]),
        AttrSet::from_slice(&[country, continent]),
    ])
    .unwrap();
    let report = Analyzer::new(&r).analyze(&tree).unwrap();
    assert!(report.is_lossless());
    assert_eq!(catalog.value_label(city, 0), Some("haifa"));
    assert_eq!(catalog.domain_size(country).unwrap(), 3);
}
