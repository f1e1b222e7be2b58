//! Spans recorded from the benchmark's own files around calls into each
//! layer. Kept in memory, written as JSON when the traced pass ends.
//!
//! A span is `(id, parent, name, request, start, end)`. Request spans of the
//! measured window nest in time. Replay spans do not: a layer's calls are
//! replayed back to back at the workload's shapes, so a replayed child names
//! its parent but runs after it. A layer's self time is therefore the median
//! duration of its spans minus the summed medians of the spans that name it
//! as parent; `self_times_ns` computes exactly that, from exactly what the
//! file holds. Calls too short to time singly are recorded several to a
//! span; `calls_per_span` says how many, and medians are per call.

use crate::json::Json;
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the trace, starting at 1.
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// `<layer>.<call>`.
    pub name: String,
    /// Request or query the span belongs to; 0 for replayed calls.
    pub request: u64,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

/// In-memory span store. A disabled tracer records nothing, so the same
/// code path serves the untraced pass.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Span names whose spans each cover this many back-to-back calls.
    calls_per_span: BTreeMap<String, u64>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            calls_per_span: BTreeMap::new(),
        }
    }

    /// Declare that every span named `name` covers `calls` calls.
    pub fn set_calls_per_span(&mut self, name: &str, calls: u64) {
        self.calls_per_span.insert(name.to_string(), calls.max(1));
    }

    /// Nanoseconds from the origin to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration of one call per span name, in nanoseconds.
    pub fn median_ns(&self) -> BTreeMap<String, f64> {
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            by_name
                .entry(s.name.clone())
                .or_default()
                .push((s.end_ns - s.start_ns) as f64);
        }
        by_name
            .into_iter()
            .map(|(name, durations)| {
                let calls = self.calls_per_span.get(&name).copied().unwrap_or(1);
                let per_call = median(&durations) / calls as f64;
                (name, per_call)
            })
            .collect()
    }

    /// Self time per span name: its median duration minus the summed median
    /// durations of the span names whose spans name it as parent.
    pub fn self_times_ns(&self) -> BTreeMap<String, f64> {
        let medians = self.median_ns();
        let name_of: BTreeMap<u64, &str> =
            self.spans.iter().map(|s| (s.id, s.name.as_str())).collect();
        let mut children: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(parent) = name_of.get(&s.parent) {
                let kids = children.entry(parent).or_default();
                if !kids.contains(&s.name.as_str()) {
                    kids.push(&s.name);
                }
            }
        }
        medians
            .iter()
            .map(|(name, total)| {
                let covered: f64 = children
                    .get(name.as_str())
                    .map(|kids| kids.iter().map(|k| medians[*k]).sum())
                    .unwrap_or(0.0);
                (name.clone(), total - covered)
            })
            .collect()
    }

    /// The whole trace as JSON: every span, then the per-name medians and
    /// self times derived from them.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Array(vec![
                    Json::Num(s.id as f64),
                    Json::Num(s.parent as f64),
                    Json::Str(s.name.clone()),
                    Json::Num(s.request as f64),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                ])
            })
            .collect();
        let table = |m: BTreeMap<String, f64>| {
            Json::Object(m.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())
        };
        Json::Object(vec![
            ("workload".into(), Json::Str(workload.into())),
            (
                "span_columns".into(),
                Json::Array(
                    ["id", "parent", "name", "request", "start_ns", "end_ns"]
                        .iter()
                        .map(|c| Json::Str((*c).into()))
                        .collect(),
                ),
            ),
            (
                "calls_per_span".into(),
                table(
                    self.calls_per_span
                        .iter()
                        .map(|(k, v)| (k.clone(), *v as f64))
                        .collect(),
                ),
            ),
            ("median_ns".into(), table(self.median_ns())),
            ("self_ns".into(), table(self.self_times_ns())),
            ("spans".into(), Json::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("core.x", 0, 1, now, now), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_named_children() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        let at = |us: u64| o + Duration::from_micros(us);
        // Two replays of a parent (10 us, 12 us) with children a (4, 4) and
        // b (3, 5), replayed after the parent rather than inside it.
        for (p, a, b) in [(10, 4, 3), (12, 4, 5)] {
            let parent = t.record("core.infer", 0, 0, at(0), at(p));
            t.record("nn.a", parent, 0, at(100), at(100 + a));
            t.record("nn.b", parent, 0, at(200), at(200 + b));
        }
        let med = t.median_ns();
        assert_eq!(med["core.infer"], 11_000.0);
        let own = t.self_times_ns();
        assert_eq!(own["core.infer"], 11_000.0 - 4_000.0 - 4_000.0);
        assert_eq!(own["nn.a"], 4_000.0);
    }

    #[test]
    fn batched_spans_report_per_call_medians() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        t.set_calls_per_span("serve.codec", 64);
        t.record("serve.codec", 0, 0, o, o + Duration::from_nanos(6400));
        assert_eq!(t.median_ns()["serve.codec"], 100.0);
        let doc = t.to_json("w");
        assert_eq!(
            doc.get("calls_per_span")
                .unwrap()
                .get("serve.codec")
                .unwrap()
                .as_f64(),
            Some(64.0)
        );
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 1);
    }
}
