//! The per-layer metric table and the pieces of it every workload shares.

use std::collections::BTreeMap;

use droidracer_obs::SpanRecord;

use crate::chain::{Done, CLASSIFY_NS};
use crate::spans::{per_root_samples, LayerTimes};
use crate::stats::percentile;

/// Every per-layer metric, with its unit, in output order. A workload that
/// does not call a layer reports it as 0 (no calls, no time).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.parse_ms", "ms"),
    ("trace.parse_mb_per_s", "MB/s"),
    ("core.prepare_ms", "ms"),
    ("core.graph_ms", "ms"),
    ("core.graph_nodes", "count"),
    ("core.closure_ms", "ms"),
    ("core.closure_p99_ms", "ms"),
    ("core.word_ops", "count"),
    ("core.ns_per_word_op", "ns"),
    ("core.detect_ms", "ms"),
    ("core.race_pairs", "count"),
    ("core.classify_ms", "ms"),
    ("job.unattributed_share", "share"),
    ("stream.push_ms", "ms"),
    ("stream.chunk_p99_ms", "ms"),
    ("stream.finish_ms", "ms"),
    ("stream.word_ops", "count"),
    ("stream.word_ops_ratio", "ratio"),
    ("stream.peak_matrix_bits", "bits"),
    ("served.hit_rtt_p50_ms", "ms"),
    ("served.hit_rtt_p90_ms", "ms"),
    ("served.miss_rtt_p50_ms", "ms"),
    ("served.overhead_p50_ms", "ms"),
    ("served.efficiency", "ratio"),
    ("srv.jobs", "count"),
    ("srv.cache_hits", "count"),
    ("srv.cache_stores", "count"),
    ("srv.overloaded", "count"),
    ("client.retries", "count"),
    ("client.gave_up", "count"),
    ("setup.generate_ms", "ms"),
    ("setup.render_ms", "ms"),
    ("setup.server_start_ms", "ms"),
    ("trace_overhead_share", "share"),
    ("failed_share", "share"),
];

/// Per-layer values by name; names absent at output time read 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// Per-layer `_p99` metrics a traced pass had too few samples for, as
/// `(metric, samples)`, for the human-readable report; they read 0.
pub type Notes = Vec<(&'static str, usize)>;

/// Records the p99 of `samples` under `name`, or notes that there are too
/// few for one.
pub fn put_p99(layers: &mut Layers, notes: &mut Notes, name: &'static str, samples: &[f64]) {
    match percentile(samples, 0.99) {
        Some(v) => {
            layers.insert(name, v);
        }
        None => notes.push((name, samples.len())),
    }
}

/// The parse and core layers from traced batch jobs (`chain::job`): mean
/// self time per job, parse throughput, closure tail and cost per word-op.
/// Classification runs inside `analyze`'s `detect` span; its time comes
/// from the counter the benchmark puts there and is taken out of `detect`.
pub fn core_times(roots: &[SpanRecord], layers: &mut Layers, notes: &mut Notes) {
    let t = LayerTimes::of(roots);
    let counter = |span: &str, key: &str| -> u64 {
        roots
            .iter()
            .filter_map(|r| r.find(span))
            .flat_map(|s| s.counters.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .sum()
    };
    let classify_ms = counter("detect", CLASSIFY_NS) as f64 / 1e6;
    let per_job = |ms: f64| {
        if t.roots == 0 {
            0.0
        } else {
            ms / t.roots as f64
        }
    };
    for (name, span) in [
        ("trace.parse_ms", "parse"),
        ("core.prepare_ms", "prepare"),
        ("core.graph_ms", "graph"),
        ("core.closure_ms", "closure"),
    ] {
        layers.insert(name, t.per_root_ms(span));
    }
    layers.insert(
        "core.detect_ms",
        per_job(t.sum_ms(&["detect"]) - classify_ms),
    );
    layers.insert("core.classify_ms", per_job(classify_ms));
    let parse_s = t.sum_ms(&["parse"]) / 1e3;
    if parse_s > 0.0 {
        layers.insert(
            "trace.parse_mb_per_s",
            counter("parse", "bytes") as f64 / 1e6 / parse_s,
        );
    }
    let word_ops = counter("closure", "word_ops");
    if word_ops > 0 {
        layers.insert(
            "core.ns_per_word_op",
            t.sum_ms(&["closure"]) * 1e6 / word_ops as f64,
        );
    }
    if t.root_ms > 0.0 {
        layers.insert(
            "job.unattributed_share",
            t.sum_ms(&["job", "analysis"]) / t.root_ms,
        );
    }
    put_p99(
        layers,
        notes,
        "core.closure_p99_ms",
        &per_root_samples(roots, "closure"),
    );
}

/// Deterministic pool totals from the census, one batch job per pool
/// trace: graph nodes, race pairs and closure word-ops.
pub fn census_counts(refs: &[Done], layers: &mut Layers) {
    let sum = |f: fn(&Done) -> u64| refs.iter().map(f).sum::<u64>() as f64;
    layers.insert("core.graph_nodes", sum(|r| r.nodes));
    layers.insert("core.race_pairs", sum(|r| r.races.len() as u64));
    layers.insert("core.word_ops", sum(|r| r.word_ops));
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidracer_obs::json::Json;

    /// The table here and the `per_layer` list of `BENCHMARK.json` name the
    /// same metrics in the same order with the same units.
    #[test]
    fn table_matches_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = Json::parse(&text).expect("valid JSON");
        let listed: Vec<(String, String)> = manifest
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect();
        let table: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(listed, table);
    }
}
