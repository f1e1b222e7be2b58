//! The names this benchmark reports. `BENCHMARK.json` lists the same names,
//! units and directions; a test keeps the two in step.

use crate::json::Json;
use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is an improvement.
    Higher,
    /// A smaller value is an improvement.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// What a user of the system sees. Every workload reports all of them, from
/// the untraced pass.
pub const END_TO_END: &[MetricDef] = &[
    hi("rows_per_s", "rows/s"),
    lo("latency_p50_ms", "ms"),
    lo("peak_rss_mb", "MiB"),
    lo("setup_s", "s"),
];

/// Single-layer numbers from the traced pass. A metric whose layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // serve
    lo("serve.queue_wait_p50_us", "us"),
    lo("serve.queue_wait_p99_us", "us"),
    hi("serve.fused_rows_per_batch", "rows"),
    lo("serve.wire_encode_req_ns", "ns"),
    lo("serve.wire_decode_req_ns", "ns"),
    lo("serve.wire_encode_resp_ns", "ns"),
    lo("serve.wire_decode_resp_ns", "ns"),
    lo("serve.health_rtt_p50_us", "us"),
    hi("serve.cache_hit_frac", "fraction"),
    lo("serve.cache_insertions", "count"),
    lo("serve.cache_evictions", "count"),
    lo("serve.cache_bytes", "bytes"),
    lo("serve.cached_resp_p50_us", "us"),
    lo("serve.uncached_resp_p50_us", "us"),
    lo("serve.uncached_resp_p99_us", "us"),
    lo("serve.read_pauses", "count"),
    lo("serve.response_parks", "count"),
    lo("serve.shed", "count"),
    lo("serve.deadline_rejected", "count"),
    lo("serve.gen_lag_p99_us", "us"),
    // core
    lo("core.infer_fused_us", "us"),
    lo("core.session_overhead_us", "us"),
    lo("core.plan_us", "us"),
    lo("core.relation_ops_frac", "fraction"),
    lo("core.int8_query_p50_ms", "ms"),
    lo("core.degradations", "count"),
    lo("core.db_oom_events", "count"),
    // runtime
    lo("runtime.admit_us", "us"),
    hi("runtime.admitted", "count"),
    lo("runtime.admission_shed", "count"),
    lo("runtime.governor_peak_mb", "MiB"),
    lo("runtime.pool_tasks", "count"),
    lo("runtime.pool_steals", "count"),
    lo("runtime.pool_parks", "count"),
    // nn
    lo("nn.forward_us", "us"),
    lo("nn.layer0_us", "us"),
    lo("nn.layer1_us", "us"),
    lo("nn.epilogue_frac", "fraction"),
    lo("nn.int8_forward_us", "us"),
    // tensor
    hi("tensor.matmul_l0_gflops", "GFLOP/s"),
    hi("tensor.matmul_l1_gflops", "GFLOP/s"),
    hi("tensor.matmul_ceiling_gflops", "GFLOP/s"),
    hi("tensor.roofline_frac_l0", "fraction"),
    hi("tensor.roofline_frac_l1", "fraction"),
    hi("tensor.qmatmul_l0_gflops_eq", "GFLOP/s"),
    hi("tensor.qmatmul_l1_gflops_eq", "GFLOP/s"),
    hi("tensor.bias_gbps", "GB/s"),
    hi("tensor.relu_gbps", "GB/s"),
    // relational
    lo("relational.chunk_weights_ms", "ms"),
    lo("relational.join_ms", "ms"),
    lo("relational.to_dense_ms", "ms"),
    lo("relational.joins", "count"),
    lo("relational.bytes_read_mb", "MiB"),
    lo("relational.bytes_written_mb", "MiB"),
    // storage
    hi("storage.pool_hit_frac", "fraction"),
    lo("storage.misses_per_query", "count"),
    lo("storage.evictions_per_query", "count"),
    lo("storage.writebacks_per_query", "count"),
    lo("storage.spill_mb_per_query", "MiB"),
    lo("storage.fetch_hit_ns", "ns"),
    lo("storage.fetch_miss_us", "us"),
    // vectoridx
    lo("vectoridx.lookup_hit_us", "us"),
    lo("vectoridx.lookup_miss_us", "us"),
    lo("vectoridx.insert_us", "us"),
    lo("vectoridx.evict_us", "us"),
    // the whole pass
    lo("trace_overhead_frac", "fraction"),
    // Demoted from the end-to-end list: the tail percentile's run-to-run
    // spread on this sandbox is wider than any bound the contract allows.
    lo("diag.latency_tail_ms", "ms"),
    // The open loop's median. On `online_skewed` it finds the server idle and
    // mostly times the sandbox waking cores; the end-to-end latency there
    // comes from the probe instead.
    lo("diag.open_loop_p50_ms", "ms"),
    // End-to-end quantities that are 0 at the seed commit, so a relative
    // bound cannot hold them; reported beside the layers instead.
    lo("diag.slo_miss_frac", "fraction"),
    lo("diag.failed_frac", "fraction"),
    hi("diag.run_valid", "bool"),
];

/// Values measured by one pass, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The `metrics` object of the result line: every metric of `defs`, with its
/// unit. A per-layer metric the workload did not measure reads 0; a missing
/// end-to-end metric is a bug in the workload.
pub fn metrics_json(defs: &[MetricDef], values: &Values, default_zero: bool) -> Json {
    Json::Object(
        defs.iter()
            .map(|def| {
                let value = match values.get(def.name) {
                    Some(v) => *v,
                    None if default_zero => 0.0,
                    None => panic!("workload did not measure `{}`", def.name),
                };
                (
                    def.name.to_string(),
                    Json::Object(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(def.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` at the repo root must list exactly these metrics.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap();
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.word(), "{}", def.name);
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }
}
