//! The two in-database workloads: one closed-loop caller issuing
//! `InferenceSession::infer_batch(.., Architecture::Adaptive)`, no network.
//!
//! `batch_compute` strictly alternates an f32 and an int8 query over one
//! 512x76 batch of Encoder-FC, so kernels dominate. `large_spill` runs
//! Amazon-14k-FC/64 with a buffer pool smaller than its first-layer weight
//! relation, so the optimizer sends that layer relation-centric and the
//! block join spills.

use crate::gen;
use crate::json::Json;
use crate::layers;
use crate::metrics::Values;
use crate::stats::{median, segment_of};
use crate::trace::Tracer;
use crate::workload::{
    dense_mismatches, repeat_setup, report_latency, Latencies, Outcome, RunArgs, MODEL_SEED,
    SEGMENTS,
};
use relserve_core::{Architecture, InferenceSession, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::quant::quantize_int8;
use relserve_nn::{zoo, Model};
use relserve_runtime::ThreadCoordinator;
use relserve_storage::{PoolStats, PAGE_SIZE};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::Tensor;
use std::time::{Duration, Instant};

/// What distinguishes the two in-database workloads.
pub struct IndbSpec {
    /// Workload name.
    pub name: &'static str,
    /// Rows per query.
    pub batch_rows: usize,
    /// Also serve the model's int8 version, alternating with the f32 one.
    pub with_int8: bool,
    /// Tail percentile of the f32 queries.
    pub tail_p: f64,
    /// Latency limit of an f32 query, ms.
    pub slo_ms: f64,
    /// Untimed queries of each kind before the window.
    pub warmup_queries: usize,
    /// Re-open the session after this many queries; see [`SPILL`].
    pub reopen_every: Option<u64>,
    /// Session configuration.
    pub config: fn() -> SessionConfig,
    /// The f32 model.
    pub model: fn() -> Model,
}

/// `batch_compute`: Encoder-FC, f32 and int8 alternating, library defaults.
pub const COMPUTE: IndbSpec = IndbSpec {
    name: "batch_compute",
    batch_rows: 512,
    with_int8: true,
    tail_p: 0.95,
    slo_ms: 150.0,
    warmup_queries: 3,
    reopen_every: None,
    config: SessionConfig::default,
    model: || zoo::encoder_fc(&mut seeded_rng(MODEL_SEED)).expect("zoo model builds"),
};

const MIB: usize = 1 << 20;

/// `large_spill`: Amazon-14k-FC/64 under a 24 MiB pool (first-layer weights
/// are 36.5 MiB), 32 MiB operator threshold, degradation ladder off.
///
/// The session's scratch database never reuses a page: every query appends
/// about 43 MiB to it. Left to grow, the file passes the kernel's dirty-page
/// threshold within seconds and queries flip between page-cache speed
/// (~0.09 s) and the sandbox disk's write bandwidth (~0.3 s) for seconds at
/// a time, which measures the hypervisor, not the program. The workload
/// therefore re-opens its session every 8 queries (untimed), which deletes
/// the file and keeps it in the page cache; `storage.spill_mb_per_query`
/// reports the growth a later change would have to remove.
pub const SPILL: IndbSpec = IndbSpec {
    name: "large_spill",
    batch_rows: 64,
    with_int8: false,
    tail_p: 0.90,
    slo_ms: 600.0,
    warmup_queries: 4,
    reopen_every: Some(8),
    config: || {
        SessionConfig::builder()
            .db_memory_bytes(64 * MIB)
            .memory_threshold_bytes(32 * MIB)
            .buffer_pool_bytes(24 * MIB)
            .block_size(512)
            .degradation(false)
            .build()
            .expect("session config is valid")
    },
    model: || zoo::amazon_14k_fc(64, &mut seeded_rng(MODEL_SEED)).expect("zoo model builds"),
};

/// One kind of query: a model and what it must answer.
struct Kind {
    model: Model,
    expected: Tensor,
}

struct Env {
    /// Outlives the sessions, so admission and kernel-pool counters do too.
    coordinator: ThreadCoordinator,
    session: InferenceSession,
    batch: Tensor,
    /// f32 first; int8 second when the workload has it.
    kinds: Vec<Kind>,
}

fn open_session(
    spec: &IndbSpec,
    coordinator: &ThreadCoordinator,
    kinds: &[Kind],
) -> InferenceSession {
    let session =
        InferenceSession::open_shared((spec.config)(), coordinator).expect("session opens");
    for kind in kinds {
        session.load_model(kind.model.clone()).expect("model loads");
    }
    session
}

impl Env {
    /// Replace the session with a fresh one. The old one goes first, so the
    /// two never hold the model twice over (that would be the harness's
    /// memory in `peak_rss_mb`, not the program's).
    fn reopen(&mut self, spec: &IndbSpec) {
        let placeholder = InferenceSession::open_shared(*self.session.config(), &self.coordinator)
            .expect("session opens");
        drop(std::mem::replace(&mut self.session, placeholder));
        self.session = open_session(spec, &self.coordinator, &self.kinds);
    }
}

fn setup(spec: &IndbSpec, seed: u64) -> Env {
    let model = (spec.model)();
    let batch = gen::features(seed, spec.batch_rows, model.input_shape().num_elements());
    let mut models = vec![model];
    if spec.with_int8 {
        models.push(quantize_int8(&models[0]).expect("model quantises").model);
    }
    let serial = Parallelism::serial();
    let kinds: Vec<Kind> = models
        .into_iter()
        .map(|model| {
            let expected = model.forward(&batch, &serial).expect("serial oracle runs");
            Kind { model, expected }
        })
        .collect();
    let coordinator = ThreadCoordinator::new((spec.config)().cores);
    let session = open_session(spec, &coordinator, &kinds);
    let env = Env {
        coordinator,
        session,
        batch,
        kinds,
    };
    for _ in 0..spec.warmup_queries {
        for kind in 0..env.kinds.len() {
            assert!(query(&env, kind).1, "warm-up query failed the oracle");
        }
    }
    env
}

/// One query of `kind`: its span and whether the answer matched the oracle.
fn query(env: &Env, kind: usize) -> ((Instant, Instant), bool) {
    let k = &env.kinds[kind];
    let start = Instant::now();
    let outcome = env
        .session
        .infer_batch(k.model.name(), &env.batch, Architecture::Adaptive);
    let end = Instant::now();
    let ok = outcome
        .and_then(|o| o.output.into_dense())
        .is_ok_and(|out| dense_mismatches(&out, &k.expected) == 0);
    ((start, end), ok)
}

/// Buffer-pool and scratch-file traffic, summed over the whole session
/// lifetimes inside a window (re-open to re-open, `queries` queries in all).
/// A session the window only saw part of is left out, so that the per-query
/// counts do not depend on how many queries the window had time for.
#[derive(Default, Clone, Copy)]
struct SpillTraffic {
    pool: PoolStats,
    file_pages: u64,
    queries: u64,
}

impl SpillTraffic {
    fn of(session: &InferenceSession) -> Self {
        SpillTraffic {
            pool: session.pool().stats(),
            file_pages: session.pool().disk().num_pages(),
            queries: 0,
        }
    }

    fn add_since(&mut self, before: &SpillTraffic, session: &InferenceSession, queries: u64) {
        let now = SpillTraffic::of(session);
        self.queries += queries;
        self.pool.hits += now.pool.hits - before.pool.hits;
        self.pool.misses += now.pool.misses - before.pool.misses;
        self.pool.evictions += now.pool.evictions - before.pool.evictions;
        self.pool.writebacks += now.pool.writebacks - before.pool.writebacks;
        self.file_pages += now.file_pages - before.file_pages;
    }
}

struct Window {
    seconds: f64,
    attempted: u64,
    failed: u64,
    /// Latencies per kind, correct queries only.
    latencies: Vec<Latencies>,
    /// Per part of the window: correct rows over time spent inside queries.
    segment_rates: Vec<f64>,
    traffic: SpillTraffic,
}

impl Window {
    fn rows_per_s(&self) -> f64 {
        median(&self.segment_rates)
    }
}

/// Closed loop for `seconds`, kinds strictly alternating.
fn window(env: &mut Env, spec: &IndbSpec, seconds: f64, tracer: &mut Tracer) -> Window {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let mut w = Window {
        seconds,
        attempted: 0,
        failed: 0,
        latencies: env.kinds.iter().map(|_| Latencies::default()).collect(),
        segment_rates: Vec::new(),
        traffic: SpillTraffic::default(),
    };
    // Per part: (correct rows, seconds inside queries). The harness's own
    // work between queries — the oracle comparison, re-opening the session —
    // is not the program's and is left out of the rate.
    let mut parts = [(0u64, 0.0f64); SEGMENTS];
    // Counters of the current session as it was opened, once the window has
    // opened one itself.
    let mut opened: Option<SpillTraffic> = None;
    while Instant::now() < until {
        if let Some(n) = spec
            .reopen_every
            .filter(|n| w.attempted > 0 && w.attempted.is_multiple_of(*n))
        {
            if let Some(before) = &opened {
                w.traffic.add_since(before, &env.session, n);
            }
            env.reopen(spec);
            opened = Some(SpillTraffic::of(&env.session));
        }
        let kind = w.attempted as usize % env.kinds.len();
        w.attempted += 1;
        let ((t0, t1), ok) = query(env, kind);
        tracer.record(
            ["core.infer_batch", "core.infer_batch_int8"][kind],
            0,
            w.attempted,
            t0,
            t1,
        );
        // The query that straddles the window's end belongs to its last part.
        let at = (t1 - start).as_secs_f64();
        let part = &mut parts[segment_of(at, seconds, SEGMENTS).unwrap_or(SEGMENTS - 1)];
        part.1 += (t1 - t0).as_secs_f64();
        if ok {
            part.0 += spec.batch_rows as u64;
            w.latencies[kind].push(at, t1 - t0);
        } else {
            w.failed += 1;
        }
    }
    w.segment_rates = parts
        .iter()
        .filter(|(_, busy)| *busy > 0.0)
        .map(|(rows, busy)| *rows as f64 / busy)
        .collect();
    w
}

fn params(spec: &IndbSpec, env: &Env, seconds: f64) -> Vec<(String, Json)> {
    let c = env.session.config();
    vec![
        ("model".into(), Json::Str(env.kinds[0].model.name().into())),
        ("int8_version".into(), Json::Bool(spec.with_int8)),
        ("batch_rows".into(), Json::Num(spec.batch_rows as f64)),
        ("architecture".into(), Json::Str("adaptive".into())),
        ("callers".into(), Json::Num(1.0)),
        ("window_s".into(), Json::Num(seconds)),
        (
            "warmup_queries_per_kind".into(),
            Json::Num(spec.warmup_queries as f64),
        ),
        (
            "reopen_session_every_queries".into(),
            spec.reopen_every
                .map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        ("latency_limit_ms".into(), Json::Num(spec.slo_ms)),
        ("tail_percentile".into(), Json::Num(spec.tail_p)),
        (
            "db_memory_bytes".into(),
            Json::Num(c.db_memory_bytes as f64),
        ),
        (
            "memory_threshold_bytes".into(),
            Json::Num(c.memory_threshold_bytes as f64),
        ),
        (
            "buffer_pool_bytes".into(),
            Json::Num(c.buffer_pool_bytes as f64),
        ),
        ("block_size".into(), Json::Num(c.block_size as f64)),
        ("degradation".into(), Json::Bool(c.degradation)),
    ]
}

/// Fill the end-to-end values; returns whether the window supports its tail.
fn end_to_end(values: &mut Values, spec: &IndbSpec, w: &Window) -> bool {
    values.insert("rows_per_s", w.rows_per_s());
    println!("segments: rows/s {:.1?}", w.segment_rates);
    values.insert("diag.slo_miss_frac", {
        let f32_attempted = w.attempted.div_ceil(w.latencies.len() as u64);
        w.latencies[0].miss_frac(spec.slo_ms, f32_attempted)
    });
    report_latency(
        values,
        "f32 queries",
        &w.latencies[0],
        w.seconds,
        spec.tail_p,
    )
}

/// Run one in-database workload.
pub fn run(spec: &IndbSpec, args: &RunArgs) -> Outcome {
    let (mut env, setup_s) = repeat_setup(args.setups(), || setup(spec, args.seed));
    let mut values = Values::new();
    values.insert("setup_s", setup_s);
    println!("set-up: {setup_s:.4} s (median of {})", args.setups());
    if args.trace {
        return run_traced(spec, args, &mut env, values);
    }
    let w = window(&mut env, spec, args.seconds, &mut Tracer::new(false));
    println!(
        "closed loop (1 caller, {:.1} s): attempted {}, succeeded {}, failed {}",
        args.seconds,
        w.attempted,
        w.attempted - w.failed,
        w.failed
    );
    let valid = end_to_end(&mut values, spec, &w);
    Outcome {
        attempted: w.attempted,
        failed: w.failed,
        valid,
        values,
        params: params(spec, &env, args.seconds),
    }
}

fn run_traced(spec: &IndbSpec, args: &RunArgs, env: &mut Env, mut values: Values) -> Outcome {
    let mut tracer = Tracer::new(true);
    let seconds = args.seconds * 0.25;
    let before = layers::SessionSnapshot::take(&env.session);
    let traced = window(env, spec, seconds, &mut tracer);
    let plain = window(env, spec, seconds, &mut Tracer::new(false));
    before.deltas_into(&mut values, &env.session);
    println!(
        "closed loop (1 caller, {seconds:.1} s traced + {seconds:.1} s untraced): attempted {}, failed {}",
        traced.attempted + plain.attempted,
        traced.failed + plain.failed
    );
    // A quarter-length window supports no tail percentile; only the
    // end-to-end pass is held to that.
    end_to_end(&mut values, spec, &traced);
    let attempted = traced.attempted + plain.attempted;
    let failed = traced.failed + plain.failed;
    values.insert("diag.failed_frac", failed as f64 / attempted.max(1) as f64);
    values.insert("diag.run_valid", 1.0);
    values.insert(
        "trace_overhead_frac",
        1.0 - traced.rows_per_s() / plain.rows_per_s().max(1.0),
    );
    if spec.with_int8 {
        values.insert(
            "core.int8_query_p50_ms",
            traced.latencies[1].percentile_us(0.5) / 1e3,
        );
    }

    // One caller, so pool and file traffic repeat exactly from one session
    // lifetime to the next: reported as counts per query.
    let whole = [traced.traffic, plain.traffic];
    let queries = whole.iter().map(|t| t.queries).sum::<u64>() as f64;
    if queries > 0.0 {
        let sum = |f: fn(&SpillTraffic) -> u64| whole.iter().map(f).sum::<u64>() as f64;
        let (hits, misses) = (sum(|t| t.pool.hits), sum(|t| t.pool.misses));
        values.insert("storage.pool_hit_frac", hits / (hits + misses).max(1.0));
        values.insert("storage.misses_per_query", misses / queries);
        values.insert(
            "storage.evictions_per_query",
            sum(|t| t.pool.evictions) / queries,
        );
        values.insert(
            "storage.writebacks_per_query",
            sum(|t| t.pool.writebacks) / queries,
        );
        values.insert(
            "storage.spill_mb_per_query",
            sum(|t| t.file_pages) * PAGE_SIZE as f64 / MIB as f64 / queries,
        );
    }

    let replay = layers::ModelReplay {
        model: &env.kinds[0].model,
        int8: env.kinds.get(1).map(|k| &k.model),
        batch: env.batch.clone(),
        parts: 1,
        config: *env.session.config(),
        architecture: Architecture::Adaptive,
    };
    let (session, fused) = layers::model_stack(&mut values, &mut tracer, &replay);
    if values["core.relation_ops_frac"] > 0.0 {
        layers::relational(
            &mut values,
            &mut tracer,
            &session,
            replay.model,
            &env.batch,
            fused,
        );
        layers::storage_fetch(&mut values, &mut tracer);
    }
    layers::session_overhead(&mut values, &tracer);
    layers::write_trace(&tracer, args, spec.name);

    Outcome {
        attempted,
        failed,
        valid: true,
        values,
        params: params(spec, env, 2.0 * seconds),
    }
}
