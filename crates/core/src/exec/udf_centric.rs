//! UDF-centric execution: the whole model as one in-database UDF.
//!
//! The entire inference runs on dense tensors inside the database process,
//! with every materialized tensor charged to the database memory governor:
//! parameters for the call's duration, plus a sliding input/output window as
//! layers execute (both the layer's input and output are live during the
//! layer, as is any im2col transient). A model that does not fit returns the
//! governor's recoverable OOM — the UDF-centric column of Table 3.

use crate::error::Result;
use crate::exec::{batch_dims, layer_transient_bytes, Output};
use relserve_nn::Model;
use relserve_runtime::ExecContext;
use relserve_tensor::Tensor;

/// Run `model` over `batch` as a single in-database UDF, inside `ctx`'s
/// admitted slice of the machine: tensors are charged to the context's
/// governor and kernels use its granted thread budget.
pub fn run(model: &Model, batch: &Tensor, ctx: &ExecContext) -> Result<Output> {
    let governor = ctx.governor();
    let par = ctx.parallelism();
    let (batch_size, _) = batch_dims(model, batch)?;
    // Parameters stay resident for the whole call.
    let _params = governor.reserve(model.param_bytes())?;
    // The input batch is materialized in the UDF. Each loop assignment
    // below drops the previous window's reservation — that drop is the read.
    #[allow(unused_assignments)]
    let mut live = governor.reserve(batch.num_bytes())?;
    let mut full_dims = vec![batch_size];
    full_dims.extend_from_slice(model.input_shape().dims());
    let mut x = batch.clone().reshape(full_dims)?;
    let mut shape = model.input_shape().clone();
    for (i, layer) in model.layers().iter().enumerate() {
        ctx.check_deadline("udf-centric.layer")?;
        let out_shape = layer.output_shape(&shape)?;
        let out_bytes = batch_size * out_shape.num_bytes();
        // Transients (im2col) exist only during the layer.
        let transient = layer_transient_bytes(layer, batch_size, &shape);
        let _scratch = if transient > 0 {
            Some(governor.reserve(transient)?)
        } else {
            None
        };
        let out_res = governor.reserve(out_bytes)?;
        x = model.forward_layer(i, &x, &par)?;
        // The input tensor dies here; the output becomes the live window.
        live = out_res;
        shape = out_shape;
    }
    let _ = live;
    Ok(Output::Dense(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;
    use relserve_runtime::MemoryGovernor;
    use relserve_tensor::parallel::Parallelism;

    fn ctx(threads: usize, governor: &MemoryGovernor) -> ExecContext {
        ExecContext::standalone(threads, governor.clone())
    }

    #[test]
    fn matches_plain_forward() {
        let mut rng = seeded_rng(70);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([16, 28], |i| ((i % 13) as f32 - 6.0) * 0.1);
        let governor = MemoryGovernor::unlimited("udf");
        let out = run(&model, &x, &ctx(2, &governor))
            .unwrap()
            .into_dense()
            .unwrap();
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.approx_eq(&expect, 1e-5));
        // All reservations must be released.
        assert_eq!(governor.in_use(), 0);
        assert!(governor.peak() > model.param_bytes());
    }

    #[test]
    fn oom_when_budget_too_small() {
        let mut rng = seeded_rng(71);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::zeros([64, 28]);
        // Budget below even the parameter size.
        let governor = MemoryGovernor::with_budget("udf", model.param_bytes() / 2);
        let err = run(&model, &x, &ctx(1, &governor)).unwrap_err();
        assert!(err.is_oom(), "{err}");
        assert_eq!(governor.in_use(), 0, "OOM must not leak reservations");
    }

    #[test]
    fn oom_scales_with_batch_size() {
        // A budget that fits batch 8 but not batch 4096 — the Table 3
        // pattern where UDF-centric works at small batch and OOMs at large.
        let mut rng = seeded_rng(72);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let budget = model.param_bytes() + 8 * (28 + 512 + 512 + 512 + 2 + 2 + 2) * 4 + 4096;
        let governor = MemoryGovernor::with_budget("udf", budget);
        assert!(run(&model, &Tensor::zeros([8, 28]), &ctx(1, &governor)).is_ok());
        let err = run(&model, &Tensor::zeros([4096, 28]), &ctx(1, &governor)).unwrap_err();
        assert!(err.is_oom());
    }

    #[test]
    fn conv_transient_is_charged() {
        // A 3×3 conv's im2col patch matrix is ~9× the input; a budget that
        // covers params + input + output but not the transient must OOM.
        let mut rng = seeded_rng(73);
        let model = zoo::caching_cnn(&mut rng).unwrap();
        let x = Tensor::zeros([4, 28, 28, 1]);
        let in_bytes = x.num_bytes();
        let governor = MemoryGovernor::with_budget(
            "udf",
            model.param_bytes() + in_bytes * 40, // enough without transients? compute below
        );
        // With an unlimited governor, record the true peak, then set the
        // budget just below it and expect OOM.
        let unlimited = MemoryGovernor::unlimited("probe");
        run(&model, &x, &ctx(1, &unlimited)).unwrap();
        let peak = unlimited.peak();
        let tight = MemoryGovernor::with_budget("udf", peak - 1);
        assert!(run(&model, &x, &ctx(1, &tight)).unwrap_err().is_oom());
        let enough = MemoryGovernor::with_budget("udf", peak);
        assert!(run(&model, &x, &ctx(1, &enough)).is_ok());
        let _ = governor;
    }

    #[test]
    fn peak_includes_input_and_output_window() {
        let mut rng = seeded_rng(74);
        let model = zoo::encoder_fc(&mut rng).unwrap();
        let batch = 32;
        let x = Tensor::zeros([batch, 76]);
        let governor = MemoryGovernor::unlimited("udf");
        run(&model, &x, &ctx(1, &governor)).unwrap();
        // Peak must cover params + the widest in/out window (76→3072 layer).
        let window = batch * (76 + 3072) * 4;
        assert!(governor.peak() >= model.param_bytes() + window);
    }
}
