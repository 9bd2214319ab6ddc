//! Request lines of the wire protocol, rendered with the server's own
//! `Json` type so the text is exactly what a client would send.

use crate::data::{names, Schema};
use ajd_server::Json;

fn schema_json(schema: &Schema) -> Json {
    Json::Arr(
        schema
            .iter()
            .map(|bag| Json::Arr(names(bag).into_iter().map(Json::str).collect()))
            .collect(),
    )
}

fn line(pairs: Vec<(&str, Json)>) -> String {
    Json::obj(pairs).to_string()
}

pub fn entropy(relation: &str, set: &[usize]) -> String {
    line(vec![
        ("op", Json::str("entropy")),
        ("relation", Json::str(relation)),
        (
            "attrs",
            Json::Arr(names(set).into_iter().map(Json::str).collect()),
        ),
    ])
}

/// A `j`, `loss` or `analyze` request for `schema`.
pub fn measure(op: &str, relation: &str, schema: &Schema) -> String {
    line(vec![
        ("op", Json::str(op)),
        ("relation", Json::str(relation)),
        ("schema", schema_json(schema)),
    ])
}

/// A sampled `estimate` of the J-measure of `schema`.
pub fn estimate_j(relation: &str, schema: &Schema, epsilon: f64, seed: u64) -> String {
    line(vec![
        ("op", Json::str("estimate")),
        ("relation", Json::str(relation)),
        ("measure", Json::str("j")),
        ("schema", schema_json(schema)),
        ("epsilon", Json::Num(epsilon)),
        ("seed", Json::Num(seed as f64)),
    ])
}

pub fn mine(relation: &str, max_bag_size: usize) -> String {
    line(vec![
        ("op", Json::str("mine")),
        ("relation", Json::str(relation)),
        ("max_bag_size", Json::Num(max_bag_size as f64)),
    ])
}

/// An `append` carrying its batch as a `rows` payload.
pub fn append(relation: &str, rows: &[Vec<String>]) -> String {
    line(vec![
        ("op", Json::str("append")),
        ("relation", Json::str(relation)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| Json::Arr(r.iter().map(Json::str).collect()))
                    .collect(),
            ),
        ),
    ])
}

pub fn stats() -> String {
    line(vec![("op", Json::str("stats"))])
}
