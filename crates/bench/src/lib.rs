#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbst-bench — reproduction binaries and benchmarks
//!
//! This crate hosts
//!
//! * the table/figure regeneration binaries (`table1`–`table4`, `fig1`,
//!   `fig2`, `ablations`, `delay_faults`, `cache_sweep`,
//!   `coverage_holes`, `disasm`, and the one-shot `reproduce` driver) —
//!   see `README.md` for the command lines;
//! * the Criterion benches under `benches/` measuring the simulator's
//!   cycle throughput, cache operations, wrapper emission and
//!   single-fault simulation latency.
//!
//! Its one library item is [`merge_bench_json`], the merge every bench
//! that records results in `BENCH_campaign.json` goes through.

use sbst_obs::{parse_json, Json};

/// The results file the campaign benches (`bench_campaign`,
/// `chaos_sweep`, `fleet_campaign`, `certify`) share, relative to the
/// working directory.
const BENCH_JSON: &str = "BENCH_campaign.json";

/// The merge behind [`merge_bench_json`], on the previous file text
/// `existing` (if any).
fn merge_fields(existing: Option<&str>, fields: Vec<(String, Json)>) -> Json {
    let mut doc = existing
        .and_then(|text| parse_json(text).ok())
        .filter(|doc| matches!(doc, Json::Obj(_)))
        .unwrap_or(Json::Obj(Vec::new()));
    for (key, value) in fields {
        doc.set(&key, value);
    }
    doc
}

/// Merges `fields` into `BENCH_campaign.json` in the working directory
/// and writes it back: each field replaces the top-level field of the
/// same name and every other field — the other benches' sections — is
/// kept. A fresh object is started when the file is absent, unparsable
/// or not an object.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn merge_bench_json(fields: Vec<(String, Json)>) {
    let existing = std::fs::read_to_string(BENCH_JSON).ok();
    let doc = merge_fields(existing.as_deref(), fields);
    std::fs::write(BENCH_JSON, doc.render_pretty(2)).expect("write BENCH_campaign.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(key: &str, n: u64) -> Vec<(String, Json)> {
        vec![(key.to_string(), Json::Obj(vec![("n".into(), Json::int(n))]))]
    }

    #[test]
    fn keeps_other_sections_and_replaces_its_own() {
        let old = r#"{"bench": "campaign_throughput", "chaos": {"n": 1}, "fleet": {"n": 2}}"#;
        let doc = merge_fields(Some(old), section("fleet", 3));
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("campaign_throughput"));
        assert_eq!(doc.get("chaos").and_then(|c| c.get("n")).and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("fleet").and_then(|c| c.get("n")).and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc, merge_fields(Some(&doc.render()), section("fleet", 3)));
    }

    #[test]
    fn adds_a_new_section_after_the_existing_ones() {
        let doc = merge_fields(Some(r#"{"chaos": {"n": 1}}"#), section("certify", 4));
        let Json::Obj(fields) = doc else { panic!("merged document is an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["chaos", "certify"]);
    }

    #[test]
    fn starts_fresh_when_the_file_is_absent_unparsable_or_not_an_object() {
        let fresh = Json::Obj(section("fleet", 5));
        for existing in [None, Some("{not json"), Some("[1, 2, 3]"), Some("42")] {
            assert_eq!(merge_fields(existing, section("fleet", 5)), fresh, "{existing:?}");
        }
    }
}
