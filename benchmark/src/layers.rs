//! The traced pass's layer replay: each crate's public calls, timed from
//! here at the shapes the workload produced, one span per call.
//!
//! A call is timed at least [`MIN_FAST_CALLS`] times, or at least
//! [`MIN_SLOW_CALLS`] times once it has used up its time budget, and the
//! median is reported. GB/s figures are computed from tensor sizes, not read
//! from a counter.

use crate::json::Json;
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::workload::RunArgs;
use relserve_core::{Architecture, InferenceSession, SessionConfig, SessionStats};
use relserve_nn::{Activation, Layer, Model};
use relserve_relational::TensorTable;
use relserve_runtime::{AdmissionPolicy, PoolCounters};
use relserve_serve::wire::{self, Request, Response};
use relserve_storage::{BufferPool, DiskManager};
use relserve_tensor::matmul::matmul_bt_parallel;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::quant::qmatmul_bt_parallel;
use relserve_tensor::{ops, BlockingSpec, Tensor};
use relserve_vectoridx::{HnswParams, InferenceResultCache};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed calls a median needs when calls are fast.
const MIN_FAST_CALLS: usize = 200;
/// Timed calls a median needs once the time budget is spent.
const MIN_SLOW_CALLS: usize = 10;
/// Time budget of one replayed call.
const CALL_BUDGET: Duration = Duration::from_millis(600);
/// Back-to-back calls per span for calls too short to time singly.
const TINY_BATCH: u64 = 64;
/// Side of the square multiply that measures the kernel ceiling.
const CEILING_SIDE: usize = 512;

const MIB: f64 = (1 << 20) as f64;

/// Time `f` as spans named `name` under `parent`; returns the median
/// nanoseconds per call and the id of the last span.
fn replay<T>(
    tracer: &mut Tracer,
    name: &str,
    parent: u64,
    calls_per_span: u64,
    mut f: impl FnMut() -> T,
) -> (f64, u64) {
    if calls_per_span > 1 {
        tracer.set_calls_per_span(name, calls_per_span);
    }
    let started = Instant::now();
    let mut durations = Vec::new();
    loop {
        let start = Instant::now();
        for _ in 0..calls_per_span {
            black_box(f());
        }
        let end = Instant::now();
        let last = tracer.record(name, parent, 0, start, end);
        durations.push((end - start).as_nanos() as f64 / calls_per_span as f64);
        let spent = started.elapsed() >= CALL_BUDGET;
        if durations.len() >= MIN_FAST_CALLS || (spent && durations.len() >= MIN_SLOW_CALLS) {
            return (crate::stats::median(&durations), last);
        }
    }
}

/// Session-level counters at the start of a traced pass.
pub struct SessionSnapshot {
    stats: SessionStats,
    pool: PoolCounters,
}

impl SessionSnapshot {
    /// Snapshot the counters and restart the governor's peak tracker.
    pub fn take(session: &InferenceSession) -> Self {
        session.governor().reset_peak();
        SessionSnapshot {
            stats: session.stats(),
            pool: session.kernel_pool().counters(),
        }
    }

    /// Counter deltas since the snapshot, as `core.*` and `runtime.*`.
    pub fn deltas_into(&self, values: &mut Values, session: &InferenceSession) {
        let now = session.stats();
        let pool = session.kernel_pool().counters();
        // Session-local counters restart when a workload re-opens its
        // session; the coordinator's (admission, kernel pool) do not.
        values.insert(
            "core.degradations",
            now.degradations.saturating_sub(self.stats.degradations) as f64,
        );
        values.insert(
            "core.db_oom_events",
            now.db_oom_events.saturating_sub(self.stats.db_oom_events) as f64,
        );
        values.insert(
            "runtime.admitted",
            (now.admitted - self.stats.admitted) as f64,
        );
        values.insert(
            "runtime.admission_shed",
            (now.shed - self.stats.shed) as f64,
        );
        values.insert(
            "runtime.governor_peak_mb",
            session.governor().peak() as f64 / MIB,
        );
        values.insert(
            "runtime.pool_tasks",
            (pool.tasks_run - self.pool.tasks_run) as f64,
        );
        values.insert(
            "runtime.pool_steals",
            (pool.steals - self.pool.steals) as f64,
        );
        values.insert("runtime.pool_parks", (pool.parks - self.pool.parks) as f64);
    }
}

/// `serve.wire_*`: the public codec on one of the workload's own request
/// frames and the reply it gets.
pub fn serve_codec(values: &mut Values, tracer: &mut Tracer, request: &Request, prediction: u32) {
    let response = Response::Infer {
        id: 1,
        queue_wait_micros: 1000,
        cached: false,
        model_used: match request {
            Request::Infer(r) => r.model.clone(),
            _ => String::new(),
        },
        degraded_to: None,
        predictions: vec![prediction],
    };
    let req_bytes = wire::encode_request(request).expect("request encodes");
    let resp_bytes = wire::encode_response(&response).expect("response encodes");
    let (ns, _) = replay(tracer, "serve.wire_encode_req", 0, TINY_BATCH, || {
        wire::encode_request(request)
    });
    values.insert("serve.wire_encode_req_ns", ns);
    let (ns, _) = replay(tracer, "serve.wire_decode_req", 0, TINY_BATCH, || {
        wire::decode_request(&req_bytes)
    });
    values.insert("serve.wire_decode_req_ns", ns);
    let (ns, _) = replay(tracer, "serve.wire_encode_resp", 0, TINY_BATCH, || {
        wire::encode_response(&response)
    });
    values.insert("serve.wire_encode_resp_ns", ns);
    let (ns, _) = replay(tracer, "serve.wire_decode_resp", 0, TINY_BATCH, || {
        wire::decode_response(&resp_bytes)
    });
    values.insert("serve.wire_decode_resp_ns", ns);
}

/// What the model-stack replay needs to know about a workload.
pub struct ModelReplay<'a> {
    /// The f32 model the workload serves.
    pub model: &'a Model,
    /// Its int8 version, when the workload runs one.
    pub int8: Option<&'a Model>,
    /// A batch of the workload's own shape.
    pub batch: Tensor,
    /// Requests the batch is fused from (`infer_fused` parts).
    pub parts: usize,
    /// Session configuration of the workload.
    pub config: SessionConfig,
    /// Architecture the workload submits under.
    pub architecture: Architecture,
}

fn dense_parts(layer: &Layer) -> (&Tensor, &Tensor, Activation) {
    match layer {
        Layer::Dense {
            weight,
            bias,
            activation,
        } => (weight, bias, *activation),
        other => panic!(
            "relbench models are dense stacks, found a {} layer",
            other.kind()
        ),
    }
}

/// `core.*`, `runtime.admit_us`, `nn.*` and `tensor.*`: the session call, the
/// model's forward pass, each layer, and each layer's kernel calls, replayed
/// under the kernel parallelism the session grants a query.
///
/// Returns the session (for the relational and storage replays) and the id
/// of the last `core.infer_fused` span.
pub fn model_stack(
    values: &mut Values,
    tracer: &mut Tracer,
    r: &ModelReplay<'_>,
) -> (InferenceSession, u64) {
    let session = InferenceSession::open(r.config).expect("replay session opens");
    session.load_model(r.model.clone()).expect("model loads");
    let name = r.model.name();
    let (rows, cols) = r.batch.shape().as_matrix().expect("batch is a matrix");
    let threads = session.coordinator().plan_for(1).kernel_threads;
    let par = session.kernel_pool().parallelism(threads);
    let policy = AdmissionPolicy::default();

    // core: the session call the serving layer makes for a fused batch.
    let per_part = rows / r.parts;
    let parts: Vec<Tensor> = (0..r.parts)
        .map(|p| {
            r.batch
                .slice2(p * per_part, (p + 1) * per_part, 0, cols)
                .expect("part slice")
        })
        .collect();
    let (fused_ns, fused) = replay(tracer, "core.infer_fused", 0, 1, || {
        session
            .infer_fused(name, &parts, r.architecture.clone(), &policy)
            .expect("replayed fused query runs")
    });
    values.insert("core.infer_fused_us", fused_ns / 1e3);

    let coordinator = session.coordinator().clone();
    let (admit_ns, _) = replay(tracer, "runtime.admit", fused, TINY_BATCH, || {
        drop(
            coordinator
                .admit_with(threads, &policy)
                .expect("uncontended admission"),
        )
    });
    values.insert("runtime.admit_us", admit_ns / 1e3);

    // The plan is on the query's path only when the optimizer is.
    let plan_parent = if r.architecture == Architecture::Adaptive {
        fused
    } else {
        0
    };
    let (plan_ns, _) = replay(tracer, "core.plan", plan_parent, 1, || {
        session.plan(name, rows).expect("plan")
    });
    values.insert("core.plan_us", plan_ns / 1e3);
    let plan = session.plan(name, rows).expect("plan");
    let relational = plan
        .ops
        .iter()
        .filter(|o| o.representation == relserve_core::Representation::RelationCentric)
        .count();
    values.insert(
        "core.relation_ops_frac",
        relational as f64 / plan.ops.len().max(1) as f64,
    );
    let reps = plan.layer_representations();

    // nn: the forward pass and each layer. A layer the plan runs
    // relation-centric is not a child of the session call: the relational
    // replay stands in for it there.
    let all_dense = relational == 0;
    let (forward_ns, forward) = replay(
        tracer,
        "nn.forward",
        if all_dense { fused } else { 0 },
        1,
        || r.model.forward(&r.batch, &par).expect("forward"),
    );
    values.insert("nn.forward_us", forward_ns / 1e3);

    let ceiling = {
        let a = crate::gen::features(1, CEILING_SIDE, CEILING_SIDE);
        let b = crate::gen::features(2, CEILING_SIDE, CEILING_SIDE);
        let serial = Parallelism::serial();
        let (ns, _) = replay(tracer, "tensor.matmul_ceiling", 0, 1, || {
            matmul_bt_parallel(&a, &b, &serial)
        });
        2.0 * (CEILING_SIDE as f64).powi(3) / ns
    };
    values.insert("tensor.matmul_ceiling_gflops", ceiling);

    const LAYER: [[&str; 6]; 2] = [
        [
            "nn.layer0",
            "nn.layer0_us",
            "tensor.matmul_l0",
            "tensor.matmul_l0_gflops",
            "tensor.roofline_frac_l0",
            "tensor.qmatmul_l0_gflops_eq",
        ],
        [
            "nn.layer1",
            "nn.layer1_us",
            "tensor.matmul_l1",
            "tensor.matmul_l1_gflops",
            "tensor.roofline_frac_l1",
            "tensor.qmatmul_l1_gflops_eq",
        ],
    ];
    assert_eq!(
        r.model.layers().len(),
        LAYER.len(),
        "relbench models have two layers"
    );
    let mut x = r.batch.clone();
    let (mut layer_ns_sum, mut epilogue_ns_sum) = (0.0, 0.0);
    for (i, layer) in r.model.layers().iter().enumerate() {
        let [span, layer_us, mm_span, mm_gflops, roofline, qmm_gflops] = LAYER[i];
        let (weight, bias, activation) = dense_parts(layer);
        let (n, k) = weight.shape().as_matrix().expect("weight is a matrix");
        let flop = 2.0 * rows as f64 * k as f64 * n as f64;

        let under_session =
            !all_dense && reps.get(i) == Some(&relserve_core::Representation::UdfCentric);
        let parent = if all_dense {
            forward
        } else if under_session {
            fused
        } else {
            0
        };
        let (layer_ns, layer_span) = replay(tracer, span, parent, 1, || {
            layer.forward(&x, &par).expect("layer")
        });
        values.insert(layer_us, layer_ns / 1e3);
        layer_ns_sum += layer_ns;

        let (mm_ns, _) = replay(tracer, mm_span, layer_span, 1, || {
            matmul_bt_parallel(&x, weight, &par)
        });
        values.insert(mm_gflops, flop / mm_ns);
        values.insert(roofline, flop / mm_ns / (ceiling * par.threads() as f64));

        let z = matmul_bt_parallel(&x, weight, &par).expect("matmul");
        let (bias_ns, _) = replay(
            tracer,
            &format!("tensor.add_bias_l{i}"),
            layer_span,
            1,
            || ops::add_bias(&z, bias),
        );
        let zb = ops::add_bias(&z, bias).expect("bias");
        let (act_ns, _) = replay(
            tracer,
            &format!("tensor.activation_l{i}"),
            layer_span,
            1,
            || activation.apply(&zb),
        );
        epilogue_ns_sum += bias_ns + act_ns;
        if i == 0 {
            // Bytes computed from tensor sizes: both sweeps read and write
            // the layer's whole output once; the bias adds one row.
            let out_bytes = (z.len() * 4) as f64;
            values.insert(
                "tensor.bias_gbps",
                (2.0 * out_bytes + (bias.len() * 4) as f64) / bias_ns,
            );
            assert_eq!(
                activation,
                Activation::Relu,
                "layer 0 of every relbench model is relu"
            );
            values.insert("tensor.relu_gbps", 2.0 * out_bytes / act_ns);
        }

        if let Some(Layer::QuantDense {
            weight: qw,
            bias: qb,
            ..
        }) = r.int8.map(|m| &m.layers()[i])
        {
            let (ns, _) = replay(tracer, &format!("tensor.qmatmul_l{i}"), 0, 1, || {
                qmatmul_bt_parallel(&x, qw, Some(qb.data()), &par)
            });
            values.insert(qmm_gflops, flop / ns);
        }
        x = activation.apply(&zb).expect("activation");
    }
    values.insert("nn.epilogue_frac", epilogue_ns_sum / layer_ns_sum);
    if let Some(int8) = r.int8 {
        let (ns, _) = replay(tracer, "nn.int8_forward", 0, 1, || {
            int8.forward(&r.batch, &par).expect("int8 forward")
        });
        values.insert("nn.int8_forward_us", ns / 1e3);
    }
    (session, fused)
}

/// `core.session_overhead_us`: the self time of the replayed session call —
/// its median minus the medians of the replays that name it as parent. Call
/// once every child replay has run.
pub fn session_overhead(values: &mut Values, tracer: &Tracer) {
    if let Some(ns) = tracer.self_times_ns().get("core.infer_fused") {
        values.insert("core.session_overhead_us", ns / 1e3);
    }
}

/// `vectoridx.*`: the result cache's public calls with `entries` live
/// entries keyed by rows of `universe`.
pub fn vectoridx(values: &mut Values, tracer: &mut Tracer, universe: &Tensor, entries: usize) {
    let (rows, dim) = universe.shape().as_matrix().expect("universe is a matrix");
    assert!(rows >= 2 * entries, "universe too small to miss in");
    let key = |i: usize| universe.row(i % rows).expect("row");
    let mut cache = InferenceResultCache::new(dim, 0.05, HnswParams::default())
        .expect("cache params")
        .with_capacity(Some(entries), None);
    for i in 0..entries {
        cache.insert(key(i), vec![0.0, 1.0]).expect("insert");
    }
    let mut i = 0;
    let (hit_ns, _) = replay(tracer, "vectoridx.lookup_hit", 0, 1, || {
        i += 1;
        cache
            .lookup_policied(key(i % entries), false)
            .expect("lookup")
    });
    values.insert("vectoridx.lookup_hit_us", hit_ns / 1e3);
    let (miss_ns, _) = replay(tracer, "vectoridx.lookup_miss", 0, 1, || {
        i += 1;
        cache
            .lookup_policied(key(entries + i % entries), false)
            .expect("lookup")
    });
    values.insert("vectoridx.lookup_miss_us", miss_ns / 1e3);
    // Evict one, insert one: the cache stays at its cap, as it does under
    // the workload. New keys come from the universe's unused half.
    let (mut evict_ns, mut insert_ns) = (Vec::new(), Vec::new());
    for n in 0..MIN_FAST_CALLS {
        let start = Instant::now();
        black_box(cache.evict_cold(1));
        let mid = Instant::now();
        tracer.record("vectoridx.evict", 0, 0, start, mid);
        evict_ns.push((mid - start).as_nanos() as f64);
        cache
            .insert(key(entries + n), vec![0.0, 1.0])
            .expect("insert");
        let end = Instant::now();
        tracer.record("vectoridx.insert", 0, 0, mid, end);
        insert_ns.push((end - mid).as_nanos() as f64);
    }
    values.insert("vectoridx.evict_us", crate::stats::median(&evict_ns) / 1e3);
    values.insert(
        "vectoridx.insert_us",
        crate::stats::median(&insert_ns) / 1e3,
    );
}

/// `relational.*`: the first layer as the relation-centric executor runs it
/// — chunk the weight into a block relation, join the activation blocks
/// against it, read the product back — through the session's own pool.
pub fn relational(
    values: &mut Values,
    tracer: &mut Tracer,
    session: &InferenceSession,
    model: &Model,
    batch: &Tensor,
    parent: u64,
) {
    let (weight, _, _) = dense_parts(&model.layers()[0]);
    let spec = BlockingSpec::square(session.config().block_size);
    let pool = session.pool();
    let threads = session.coordinator().plan_for(1).kernel_threads;
    let par = session.kernel_pool().parallelism(threads);
    let (chunk_ns, _) = replay(tracer, "relational.chunk_weights", parent, 1, || {
        TensorTable::from_dense(pool.clone(), "replay.w", weight, spec).expect("chunk weights")
    });
    values.insert("relational.chunk_weights_ms", chunk_ns / 1e6);
    let w = TensorTable::from_dense(pool.clone(), "replay.w", weight, spec).expect("chunk weights");
    let x = TensorTable::from_dense(pool.clone(), "replay.x", batch, spec).expect("chunk batch");
    let mut last = None;
    let (join_ns, _) = replay(tracer, "relational.join", parent, 1, || {
        last = Some(
            x.matmul_bt_parallel(&w, "replay.xw", &par)
                .expect("block join"),
        );
    });
    values.insert("relational.join_ms", join_ns / 1e6);
    let (product, stats) = last.expect("join ran");
    values.insert("relational.joins", stats.joins as f64);
    values.insert("relational.bytes_read_mb", stats.bytes_read as f64 / MIB);
    values.insert(
        "relational.bytes_written_mb",
        stats.bytes_written as f64 / MIB,
    );
    let (dense_ns, _) = replay(tracer, "relational.to_dense", parent, 1, || {
        product.to_dense().expect("to_dense")
    });
    values.insert("relational.to_dense_ms", dense_ns / 1e6);
}

/// `storage.fetch_*`: `BufferPool::fetch` on a resident page and on pages
/// that were evicted, in a scratch pool of its own.
pub fn storage_fetch(values: &mut Values, tracer: &mut Tracer) {
    const FRAMES: usize = 64;
    let disk = Arc::new(DiskManager::temp().expect("scratch database"));
    let pool = Arc::new(BufferPool::new(disk, FRAMES));
    // Four pools' worth of dirty pages: cycling through them in creation
    // order under LRU misses every time and writes the victim back.
    let ids: Vec<_> = (0..4 * FRAMES)
        .map(|i| {
            let guard = pool.create_page().expect("create page");
            guard.write().bytes_mut()[0] = i as u8;
            guard.id()
        })
        .collect();
    let mut i = 0;
    let (miss_ns, _) = replay(tracer, "storage.fetch_miss", 0, 1, || {
        i = (i + 1) % ids.len();
        pool.fetch(ids[i]).expect("fetch")
    });
    values.insert("storage.fetch_miss_us", miss_ns / 1e3);
    let resident = ids[i];
    let (hit_ns, _) = replay(tracer, "storage.fetch_hit", 0, TINY_BATCH, || {
        pool.fetch(resident).expect("fetch")
    });
    values.insert("storage.fetch_hit_ns", hit_ns);
}

/// Write the trace of a traced pass to `<out>/trace_<workload>.json`.
pub fn write_trace(tracer: &Tracer, args: &RunArgs, workload: &str) {
    let path = std::path::Path::new(crate::OUT_DIR).join(format!("trace_{workload}.json"));
    let mut doc = tracer.to_json(workload);
    if let Json::Object(members) = &mut doc {
        members.insert(1, ("seed".into(), Json::Num(args.seed as f64)));
    }
    std::fs::write(&path, doc.to_line() + "\n").expect("trace file writes");
    println!(
        "trace: {} spans -> {}",
        tracer.spans().len(),
        path.display()
    );
}
