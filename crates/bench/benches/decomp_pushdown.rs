//! Criterion bench for §7.2.1: one session join query, join-then-infer
//! (forced UDF-centric) vs the adaptive plan's decomposition push-down. The
//! plans' outputs are checked against each other first.

use criterion::{criterion_group, criterion_main, Criterion};
use relserve_bench::workloads;
use relserve_core::{Architecture, InferenceSession, JoinQuery, JoinSide, SessionConfig};
use relserve_nn::init::seeded_rng;
use relserve_nn::zoo;
use relserve_runtime::AdmissionPolicy;

fn bench_decomp(c: &mut Criterion) {
    let config = SessionConfig::builder()
        .buffer_pool_bytes(128 << 20)
        .cores(2)
        .build()
        .unwrap();
    let session = InferenceSession::open(config).unwrap();
    let (rows1, rows2) = workloads::bosch_split_tables(2_000, 968, 4, 36);
    for (name, rows) in [("d1", &rows1), ("d2", &rows2)] {
        session
            .create_table(name, workloads::keyed_feature_schema())
            .unwrap();
        session.insert(name, rows).unwrap();
    }
    session
        .load_model(zoo::bosch_ffnn(&mut seeded_rng(37)).unwrap())
        .unwrap();
    let query = JoinQuery {
        left: JoinSide {
            table: "d1",
            key: "key",
            features: "features",
        },
        right: JoinSide {
            table: "d2",
            key: "key",
            features: "features",
        },
        epsilon: 0.15,
    };
    let run = |architecture| {
        session
            .infer_join(
                "Bosch-FFNN",
                &query,
                architecture,
                &AdmissionPolicy::default(),
            )
            .unwrap()
    };
    let pushed = run(Architecture::Adaptive);
    let plan = pushed.plan.as_ref().unwrap();
    assert_eq!(plan.pushdown, Some(484));
    println!("{}", plan.explain());
    let baseline = run(Architecture::UdfCentric).output.into_dense().unwrap();
    let pushed = pushed.output.into_dense().unwrap();
    assert_eq!(baseline.shape(), pushed.shape());
    let max_diff = baseline.max_abs_diff(&pushed).unwrap();
    assert!(max_diff <= 1e-5, "plans diverged: {max_diff}");

    // Each plan timed end to end, and the median of five runs' join and
    // forward alone (the outcome's elapsed, which starts once the tables are
    // read).
    let mut group = c.benchmark_group("decomp_pushdown");
    group.sample_size(10);
    for (name, architecture) in [
        ("join_then_infer", Architecture::UdfCentric),
        ("pushdown_infer", Architecture::Adaptive),
    ] {
        group.bench_function(name, |b| b.iter(|| run(architecture.clone())));
        let mut spans: Vec<_> = (0..5).map(|_| run(architecture.clone()).elapsed).collect();
        spans.sort();
        println!("{name}: join + forward {:?} (median of 5)", spans[2]);
    }
    group.finish();
}

criterion_group!(benches, bench_decomp);
criterion_main!(benches);
