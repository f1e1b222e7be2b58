//! DL-centric execution: offload inference to a decoupled DL runtime.
//!
//! The state-of-the-art architecture (Fig. 1a): the RDBMS prepares features,
//! serializes them over the connector (ConnectorX in the paper's setup),
//! the external framework materializes its tensors in its own address space
//! (with its framework memory-overhead factor), runs the model with a
//! dedicated thread budget, and ships predictions back. The two costs the
//! paper attributes to this path both arise naturally here: cross-system
//! transfer time for small models, and external-runtime OOM for large ones.

use crate::error::Result;
use crate::exec::{forward_charged, Output};
use relserve_nn::Model;
use relserve_runtime::governor::Reservation;
use relserve_runtime::{Connector, ExecContext, ExternalRuntime, RetryPolicy};
use relserve_tensor::Tensor;

/// Statistics of one DL-centric execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct DlCentricStats {
    /// Payload bytes shipped in both directions.
    pub bytes_transferred: usize,
    /// Modeled wire time across both directions.
    pub wire_time: std::time::Duration,
    /// Transient wire faults hit by this execution's shipments.
    pub transient_failures: u64,
    /// Shipment re-attempts the bounded retry made.
    pub wire_retries: u64,
    /// External-runtime reservation re-attempts after transient allocator
    /// stalls.
    pub runtime_retries: u64,
}

/// Reserve runtime tensor memory under bounded retry: a transient allocator
/// stall is re-attempted (counted into `retries`); a genuine OOM surfaces
/// immediately — that is the degradation ladder's job, not the retry loop's.
fn reserve_retry(
    runtime: &ExternalRuntime,
    bytes: usize,
    policy: &RetryPolicy,
    retries: &mut u64,
) -> Result<Reservation> {
    Ok(policy.run(|| runtime.reserve_tensor(bytes), |_, _| *retries += 1)?)
}

/// Ship `batch` to `runtime`, run `model` there, ship results back. The
/// external runtime's kernels run on `ctx`'s dedicated grant (every core the
/// coordinator admitted, with no DB workers competing); tensor memory is
/// charged to the *runtime's* governor, not the database's.
///
/// Every boundary crossing (both shipments, every runtime reservation) runs
/// under `retry`'s bounded exponential backoff; attempt counts surface in
/// [`DlCentricStats`]. The context's deadline is checked at each layer
/// boundary.
pub fn run(
    model: &Model,
    batch: &Tensor,
    connector: &mut Connector,
    runtime: &ExternalRuntime,
    ctx: &ExecContext,
    retry: &RetryPolicy,
) -> Result<(Output, DlCentricStats)> {
    let par = ctx.parallelism();
    let batch_size = model.check_input(batch)?;
    let before = connector.stats();
    let mut runtime_retries = 0u64;

    // Outbound: the feature batch crosses the system boundary.
    let flat = {
        let width = model.input_shape().num_elements();
        batch.clone().reshape([batch_size, width])?
    };
    let received = connector.ship_retry(&flat, retry)?;

    // Inside the external runtime: parameters + a sliding activation window,
    // each inflated by the framework's memory-overhead factor.
    let _params = reserve_retry(runtime, model.param_bytes(), retry, &mut runtime_retries)?;
    let mut window = Some(reserve_retry(
        runtime,
        received.num_bytes(),
        retry,
        &mut runtime_retries,
    )?);
    let mut full_dims = vec![batch_size];
    full_dims.extend_from_slice(model.input_shape().dims());
    let mut x = received.reshape(full_dims)?;
    for i in 0..model.layers().len() {
        ctx.check_deadline("dl-centric.layer")?;
        x = forward_charged(model, i, &x, &par, &mut window, |bytes| {
            reserve_retry(runtime, bytes, retry, &mut runtime_retries)
        })?;
    }

    // Inbound: predictions return over the same connector.
    ctx.check_deadline("dl-centric.return")?;
    let (rows, cols) = x.shape().as_matrix()?;
    let result = connector.ship_retry(&x.reshape([rows, cols])?, retry)?;

    let after = connector.stats();
    Ok((
        Output::Dense(result),
        DlCentricStats {
            bytes_transferred: after.bytes_moved - before.bytes_moved,
            wire_time: after.wire_time - before.wire_time,
            transient_failures: after.transient_failures - before.transient_failures,
            wire_retries: after.retries - before.retries,
            runtime_retries,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;
    use relserve_runtime::{MemoryGovernor, RuntimeProfile, TransferProfile};
    use relserve_tensor::parallel::Parallelism;

    fn instant_connector() -> Connector {
        Connector::new(TransferProfile::instant())
    }

    fn ctx(threads: usize) -> ExecContext {
        ExecContext::standalone(threads, MemoryGovernor::unlimited("dl-test"))
    }

    fn no_retry() -> RetryPolicy {
        RetryPolicy::none()
    }

    #[test]
    fn matches_in_process_forward() {
        let mut rng = seeded_rng(90);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([8, 28], |i| ((i % 9) as f32 - 4.0) * 0.25);
        let runtime = ExternalRuntime::launch(RuntimeProfile::tensorflow_like(), usize::MAX);
        let mut conn = instant_connector();
        let (out, stats) = run(&model, &x, &mut conn, &runtime, &ctx(2), &no_retry()).unwrap();
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.into_dense().unwrap().approx_eq(&expect, 1e-5));
        // Both directions crossed the wire.
        assert!(stats.bytes_transferred > x.num_bytes());
        assert_eq!(runtime.governor().in_use(), 0);
        assert_eq!(stats.transient_failures, 0);
        assert_eq!(stats.wire_retries, 0);
    }

    #[test]
    fn external_runtime_oom_is_recoverable() {
        let mut rng = seeded_rng(91);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let x = Tensor::zeros([1024, 28]);
        let runtime = ExternalRuntime::launch(RuntimeProfile::pytorch_like(), model.param_bytes());
        let mut conn = instant_connector();
        let err = run(&model, &x, &mut conn, &runtime, &ctx(1), &no_retry()).unwrap_err();
        assert!(err.is_oom());
        assert_eq!(err.oom_domain(), Some("pytorch-like"));
    }

    #[test]
    fn flaky_wire_heals_under_retry_and_counts_attempts() {
        use relserve_runtime::{FaultConfig, FaultInjector};
        let mut rng = seeded_rng(94);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([8, 28], |i| ((i % 9) as f32 - 4.0) * 0.25);
        let runtime = ExternalRuntime::launch(RuntimeProfile::tensorflow_like(), usize::MAX);
        // Exactly two wire faults, then the link heals: default retry
        // (4 attempts) absorbs both.
        let mut cfg = FaultConfig::flaky_wire(21, 1.0);
        cfg.max_faults = Some(2);
        let mut conn = Connector::with_faults(TransferProfile::instant(), FaultInjector::new(cfg));
        let (out, stats) = run(
            &model,
            &x,
            &mut conn,
            &runtime,
            &ctx(1),
            &RetryPolicy::default(),
        )
        .unwrap();
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.into_dense().unwrap().approx_eq(&expect, 1e-5));
        assert_eq!(stats.transient_failures, 2);
        assert_eq!(stats.wire_retries, 2);
        assert_eq!(stats.runtime_retries, 0);
    }

    #[test]
    fn dead_wire_exhausts_retries_with_transient_error() {
        use relserve_runtime::{FaultConfig, FaultInjector};
        let mut rng = seeded_rng(95);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::zeros([4, 28]);
        let runtime = ExternalRuntime::launch(RuntimeProfile::tensorflow_like(), usize::MAX);
        let mut conn = Connector::with_faults(
            TransferProfile::instant(),
            FaultInjector::new(FaultConfig::flaky_wire(3, 1.0)),
        );
        let err = run(
            &model,
            &x,
            &mut conn,
            &runtime,
            &ctx(1),
            &RetryPolicy::default(),
        )
        .unwrap_err();
        assert!(
            err.is_transient(),
            "exhausted retries stay transient: {err}"
        );
        assert!(err.is_degradable(), "…and trigger the degradation ladder");
    }

    #[test]
    fn transient_runtime_stall_is_retried() {
        use relserve_runtime::{FaultConfig, FaultInjector};
        let mut rng = seeded_rng(96);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::zeros([4, 28]);
        let mut cfg = FaultConfig::flaky_runtime(13, 1.0);
        cfg.max_faults = Some(1);
        let runtime = ExternalRuntime::launch(RuntimeProfile::tensorflow_like(), usize::MAX)
            .with_faults(FaultInjector::new(cfg));
        let mut conn = instant_connector();
        let (_, stats) = run(
            &model,
            &x,
            &mut conn,
            &runtime,
            &ctx(1),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(stats.runtime_retries, 1);
        assert_eq!(stats.wire_retries, 0);
    }

    #[test]
    fn expired_deadline_stops_execution_between_layers() {
        use relserve_runtime::{AdmissionPolicy, MemoryGovernor, ThreadCoordinator};
        let mut rng = seeded_rng(97);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::zeros([4, 28]);
        let runtime = ExternalRuntime::launch(RuntimeProfile::tensorflow_like(), usize::MAX);
        let mut conn = instant_connector();
        let c = ThreadCoordinator::new(1);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(5);
        let ctx = c
            .context_dedicated_with(
                MemoryGovernor::unlimited("dl-test"),
                &AdmissionPolicy::with_deadline(deadline),
            )
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let err = run(&model, &x, &mut conn, &runtime, &ctx, &no_retry()).unwrap_err();
        assert!(err.is_deadline_exceeded(), "{err}");
    }

    #[test]
    fn pytorch_like_ooms_before_tensorflow_like() {
        // The Table 3 LandCover pattern: same budget, the hungrier profile
        // fails first.
        let mut rng = seeded_rng(92);
        let model = zoo::landcover(125, &mut rng).unwrap(); // 20x20x3, 16 kernels
        let x = Tensor::from_fn([1, 20, 20, 3], |i| (i % 5) as f32 * 0.1);
        // Peak payload: params + input + output windows. Find a budget that
        // fits ×1.4 overhead but not ×2.0.
        let probe = ExternalRuntime::launch(
            RuntimeProfile {
                name: "probe".into(),
                memory_overhead: 1.0,
            },
            usize::MAX,
        );
        let mut conn = instant_connector();
        run(&model, &x, &mut conn, &probe, &ctx(1), &no_retry()).unwrap();
        let peak_payload = probe.governor().peak();
        let budget = (peak_payload as f64 * 1.7) as usize;
        let tf = ExternalRuntime::launch(RuntimeProfile::tensorflow_like(), budget);
        let pt = ExternalRuntime::launch(RuntimeProfile::pytorch_like(), budget);
        assert!(run(&model, &x, &mut conn, &tf, &ctx(1), &no_retry()).is_ok());
        assert!(run(&model, &x, &mut conn, &pt, &ctx(1), &no_retry())
            .unwrap_err()
            .is_oom());
    }

    #[test]
    fn wire_time_counts_for_slow_links() {
        let mut rng = seeded_rng(93);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::zeros([100, 28]);
        let runtime = ExternalRuntime::launch(RuntimeProfile::tensorflow_like(), usize::MAX);
        // Slow modeled wire but without real sleeping (simulate_wire off).
        let mut conn = Connector::new(TransferProfile {
            bandwidth_bytes_per_sec: 1_000_000.0,
            fixed_latency: std::time::Duration::from_millis(5),
            per_row_overhead_ns: 100.0,
            simulate_wire: false,
        });
        let (_, stats) = run(&model, &x, &mut conn, &runtime, &ctx(1), &no_retry()).unwrap();
        assert!(stats.wire_time >= std::time::Duration::from_millis(10)); // 2 trips × 5 ms
    }
}
