//! Pipelined DL execution inside the UDF-centric architecture (§5.2).
//!
//! DL serving systems partition a model into operators/layers dispatched to
//! multiple devices that "work in parallel, composing a pipeline. A pipeline
//! stage at each device works in a streaming style." The paper notes this is
//! "feasible by breaking the model UDF into multiple fine-grained operator
//! UDFs and deploying those UDFs ... following the stream processing
//! paradigm" — which is exactly what this executor does, with kernel-pool
//! threads standing in for devices:
//!
//! * the batch is split into micro-batches;
//! * every layer becomes a stage, connected by capacity-1 [`SpscSlot`]s (the
//!   bound is the pipeline's "device memory": at most one in-flight
//!   micro-batch per link);
//! * micro-batches stream through, so stage `i` processes micro-batch `b`
//!   while stage `i+1` processes `b-1` — layer parallelism without data
//!   shuffles, the §5.2 trade-off against relation-centric processing.
//!
//! Scheduling is cooperative: the pipeline's nodes (feeder, stages, sink)
//! are claimable work units, and the query's granted kernel threads run a
//! driver loop that claims any node able to make progress. Because a driver
//! never blocks on a slot — a node that cannot progress is simply skipped —
//! the pipeline completes even when the execution context granted a single
//! thread, and it never runs threads beyond the [`ExecContext`]'s admitted
//! budget.
//!
//! Peak activation memory is `stages × micro_batch` activations rather than
//! `batch` — the executor charges the context's governor accordingly.

use crate::error::{Error, Result};
use crate::exec::spsc::SpscSlot;
use crate::exec::Output;
use relserve_nn::Model;
use relserve_runtime::ExecContext;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::{Shape, Tensor};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// What flows along a pipeline link: an indexed micro-batch, or the error
/// that killed its lineage.
type Msg = std::result::Result<(usize, Tensor), relserve_nn::Error>;

/// Shared state of one pipelined execution: the node graph, the capacity-1
/// links, and the claim flags the cooperative drivers synchronize on.
struct Pipeline<'a> {
    flat: &'a Tensor,
    /// Stage `s` is layer `s` of this model.
    model: &'a Model,
    stage_in_shapes: &'a [Shape],
    batch_size: usize,
    micro_batch: usize,
    width: usize,
    num_micro: usize,
    /// Kernel budget of one stage's forward pass (the per-stage share of the
    /// thread plan, sub-granted from the query's context).
    stage_par: Parallelism,
    /// `slots[s]` feeds node `s + 1`: slot 0 is the feeder's output, slot
    /// `layers.len()` is the sink's input.
    slots: Vec<SpscSlot<Msg>>,
    /// One claim flag per node (feeder + stages + sink); a node is stepped
    /// by at most one driver at a time.
    busy: Vec<AtomicBool>,
    next_feed: AtomicUsize,
    collected: AtomicUsize,
    done: AtomicBool,
    outputs: Mutex<Vec<Option<Tensor>>>,
    first_error: Mutex<Option<relserve_nn::Error>>,
    /// The query's deadline, checked cooperatively once per drive sweep.
    deadline: Option<std::time::Instant>,
    /// Set by whichever driver observes the deadline expire; surfaced as
    /// [`relserve_runtime::Error::DeadlineExceeded`] after the drivers stop.
    deadline_hit: AtomicBool,
}

impl Pipeline<'_> {
    fn stages(&self) -> usize {
        self.model.layers().len()
    }

    fn nodes(&self) -> usize {
        self.stages() + 2
    }

    /// Step node `node` once; returns whether any progress was made.
    fn step(&self, node: usize) -> bool {
        if node == 0 {
            self.step_feeder()
        } else if node == self.stages() + 1 {
            self.step_sink()
        } else {
            self.step_stage(node - 1)
        }
    }

    fn step_feeder(&self) -> bool {
        let i = self.next_feed.load(Ordering::Relaxed);
        if i >= self.num_micro || !self.slots[0].is_empty() {
            return false;
        }
        let start = i * self.micro_batch;
        let end = (start + self.micro_batch).min(self.batch_size);
        let chunk = self
            .flat
            .slice2(start, end, 0, self.width)
            .map_err(relserve_nn::Error::Tensor)
            .map(|t| (i, t));
        self.next_feed.store(i + 1, Ordering::Relaxed);
        if self.slots[0].try_put(chunk).is_err() {
            unreachable!("feeder is its slot's only producer");
        }
        true
    }

    fn step_stage(&self, s: usize) -> bool {
        if !self.slots[s + 1].is_empty() {
            return false; // downstream link full: skip, don't block
        }
        let Some(msg) = self.slots[s].try_take() else {
            return false;
        };
        let out = msg.and_then(|(i, t)| {
            // Restore the example shape for spatial layers.
            let rows = t.shape().dim(0);
            let mut dims = vec![rows];
            dims.extend_from_slice(self.stage_in_shapes[s].dims());
            let t = t.reshape(dims)?;
            let y = self.model.forward_layer(s, &t, &self.stage_par)?;
            // Flatten back to [rows, features] for transport.
            let total: usize = y.shape().dims()[1..].iter().product();
            Ok((i, y.reshape([rows, total])?))
        });
        if self.slots[s + 1].try_put(out).is_err() {
            unreachable!("stage is its output slot's only producer");
        }
        true
    }

    fn step_sink(&self) -> bool {
        let Some(msg) = self.slots[self.stages()].try_take() else {
            return false;
        };
        match msg {
            Ok((i, t)) => {
                self.outputs.lock().expect("pipeline outputs lock")[i] = Some(t);
                if self.collected.fetch_add(1, Ordering::AcqRel) + 1 == self.num_micro {
                    self.done.store(true, Ordering::Release);
                }
            }
            Err(e) => {
                *self.first_error.lock().expect("pipeline error lock") = Some(e);
                self.done.store(true, Ordering::Release);
            }
        }
        true
    }

    /// Drive the pipeline until completion or error: repeatedly claim any
    /// unclaimed node and step it. Never blocks on a link, so any number of
    /// drivers (including one) finishes every in-flight micro-batch —
    /// progress is guaranteed because an unfinished micro-batch always sits
    /// in some slot whose consumer is claimable.
    fn drive(&self) {
        while !self.done.load(Ordering::Acquire) {
            if self
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
            {
                // Stop every driver: in-flight micro-batches are abandoned
                // and the query unwinds, releasing its grant mid-flight.
                self.deadline_hit.store(true, Ordering::Release);
                self.done.store(true, Ordering::Release);
                return;
            }
            let mut progressed = false;
            for node in 0..self.nodes() {
                if self.done.load(Ordering::Acquire) {
                    return;
                }
                if self.busy[node]
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                let p = self.step(node);
                self.busy[node].store(false, Ordering::Release);
                progressed |= p;
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
    }
}

/// Run `model` over `batch` as a layer pipeline with `micro_batch`-row
/// micro-batches, inside `ctx`'s admitted slice of the machine: the context's
/// granted kernel threads drive the stages cooperatively, and each stage's
/// kernels use the per-stage share of the context's thread plan (§3.1).
pub fn run(model: &Model, batch: &Tensor, micro_batch: usize, ctx: &ExecContext) -> Result<Output> {
    if micro_batch == 0 {
        return Err(Error::Invalid("micro_batch must be positive".into()));
    }
    let governor = ctx.governor();
    let batch_size = model.check_input(batch)?;
    let width = model.input_shape().num_elements();
    let flat = batch.clone().reshape([batch_size, width])?;
    let layers = model.layers();
    if layers.is_empty() {
        return Ok(Output::Dense(flat));
    }

    // Memory accounting: parameters + one micro-batch activation window per
    // stage boundary (input and output of every stage can be in flight).
    let _params = governor.reserve(model.param_bytes())?;
    let mut window_bytes = 0usize;
    let mut stage_in_shapes = Vec::with_capacity(layers.len());
    {
        let mut shape = model.input_shape().clone();
        window_bytes += micro_batch * shape.num_bytes();
        for layer in layers {
            stage_in_shapes.push(shape.clone());
            shape = layer.output_shape(&shape)?;
            window_bytes += micro_batch * shape.num_bytes();
        }
    }
    let _windows = governor.reserve(window_bytes)?;

    let num_micro = batch_size.div_ceil(micro_batch);
    let pipeline = Pipeline {
        flat: &flat,
        model,
        stage_in_shapes: &stage_in_shapes,
        batch_size,
        micro_batch,
        width,
        num_micro,
        stage_par: ctx.parallelism_with(ctx.plan().kernel_threads),
        slots: (0..=layers.len()).map(|_| SpscSlot::new()).collect(),
        busy: (0..layers.len() + 2)
            .map(|_| AtomicBool::new(false))
            .collect(),
        next_feed: AtomicUsize::new(0),
        collected: AtomicUsize::new(0),
        done: AtomicBool::new(false),
        outputs: Mutex::new(vec![None; num_micro]),
        first_error: Mutex::new(None),
        deadline: ctx.deadline(),
        deadline_hit: AtomicBool::new(false),
    };

    // One driver per granted kernel thread, capped at the node count; the
    // drivers run as stripe tasks on the shared pool (a single driver runs
    // inline on this thread).
    let drivers = ctx.kernel_threads().min(pipeline.nodes());
    ctx.parallelism_with(drivers)
        .run_stripes(drivers, &|_| pipeline.drive());

    if let Some(e) = pipeline
        .first_error
        .lock()
        .expect("pipeline error lock")
        .take()
    {
        return Err(Error::Nn(e));
    }
    if pipeline.deadline_hit.load(Ordering::Acquire) {
        return Err(Error::Runtime(relserve_runtime::Error::DeadlineExceeded {
            phase: "pipelined.drive".into(),
        }));
    }
    let outputs = pipeline
        .outputs
        .into_inner()
        .expect("pipeline outputs lock");

    // Stitch micro-batch outputs back together, in order.
    let mut iter = outputs.into_iter();
    let mut result = iter
        .next()
        .flatten()
        .ok_or_else(|| Error::Invalid("pipeline produced no output".into()))?;
    for part in iter {
        let part = part.ok_or_else(|| Error::Invalid("pipeline dropped a micro-batch".into()))?;
        result = result.vconcat(&part)?;
    }
    Ok(Output::Dense(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{InferencePlan, Representation};
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;
    use relserve_runtime::MemoryGovernor;

    fn ctx(threads: usize, governor: &MemoryGovernor) -> ExecContext {
        ExecContext::standalone(threads, governor.clone())
    }

    #[test]
    fn matches_plain_forward_ffnn() {
        let mut rng = seeded_rng(150);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([37, 28], |i| ((i % 11) as f32 - 5.0) * 0.2);
        let governor = MemoryGovernor::unlimited("pipe");
        let out = run(&model, &x, 8, &ctx(1, &governor)).unwrap();
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        assert!(out.into_dense().unwrap().approx_eq(&expect, 1e-4));
        assert_eq!(governor.in_use(), 0);
    }

    #[test]
    fn concurrent_drivers_match_serial() {
        // Multiple granted threads drive the same pipeline cooperatively on
        // the shared pool; results must be identical to the 1-thread run.
        let mut rng = seeded_rng(156);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([53, 28], |i| ((i % 13) as f32 - 6.0) * 0.15);
        let governor = MemoryGovernor::unlimited("pipe");
        let par_out = run(&model, &x, 4, &ctx(4, &governor)).unwrap();
        let ser_out = run(&model, &x, 4, &ctx(1, &governor)).unwrap();
        assert!(par_out
            .into_dense()
            .unwrap()
            .approx_eq(&ser_out.into_dense().unwrap(), 1e-5));
        assert_eq!(governor.in_use(), 0);
    }

    #[test]
    fn matches_plain_forward_cnn() {
        let mut rng = seeded_rng(151);
        let model = zoo::caching_cnn(&mut rng).unwrap();
        let x = Tensor::from_fn([6, 28, 28, 1], |i| ((i % 7) as f32) * 0.1);
        let governor = MemoryGovernor::unlimited("pipe");
        let out = run(&model, &x, 2, &ctx(1, &governor)).unwrap();
        let expect = model.forward(&x, &Parallelism::serial()).unwrap();
        let (r, c) = expect.shape().as_matrix().unwrap();
        assert!(out
            .into_dense()
            .unwrap()
            .approx_eq(&expect.reshape([r, c]).unwrap(), 1e-4));
    }

    #[test]
    fn micro_batch_larger_than_batch() {
        let mut rng = seeded_rng(152);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::from_fn([5, 28], |i| i as f32 * 0.01);
        let governor = MemoryGovernor::unlimited("pipe");
        let out = run(&model, &x, 100, &ctx(1, &governor)).unwrap();
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn memory_is_bounded_by_windows_not_batch() {
        // Pipelined peak must track micro-batch windows, far below the full
        // batch's activation footprint.
        let mut rng = seeded_rng(153);
        let model = zoo::encoder_fc(&mut rng).unwrap();
        let batch = 512;
        let x = Tensor::zeros([batch, 76]);
        let full = MemoryGovernor::unlimited("full");
        let plan = InferencePlan::uniform(&model, batch, Representation::UdfCentric).unwrap();
        let disk = std::sync::Arc::new(relserve_storage::DiskManager::temp().unwrap());
        let pool = std::sync::Arc::new(relserve_storage::BufferPool::new(disk, 16));
        let weights = crate::exec::relation_centric::WeightRelations::new(pool, 8);
        crate::exec::run(&model, &x, &plan, &weights, &ctx(1, &full)).unwrap();
        let pipe = MemoryGovernor::unlimited("pipe");
        run(&model, &x, 16, &ctx(1, &pipe)).unwrap();
        assert!(
            pipe.peak() < full.peak(),
            "pipeline peak {} ≥ batch peak {}",
            pipe.peak(),
            full.peak()
        );
    }

    #[test]
    fn oom_is_recoverable() {
        let mut rng = seeded_rng(154);
        let model = zoo::fraud_fc_512(&mut rng).unwrap();
        let x = Tensor::zeros([64, 28]);
        let governor = MemoryGovernor::with_budget("pipe", model.param_bytes() - 1);
        assert!(run(&model, &x, 8, &ctx(1, &governor)).unwrap_err().is_oom());
        assert_eq!(governor.in_use(), 0);
    }

    #[test]
    fn expired_deadline_stops_all_drivers() {
        use relserve_runtime::{AdmissionPolicy, ThreadCoordinator};
        let mut rng = seeded_rng(157);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::zeros([64, 28]);
        let c = ThreadCoordinator::new(2);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(2);
        let ctx = c
            .context_with(
                1,
                MemoryGovernor::unlimited("pipe"),
                &AdmissionPolicy::with_deadline(deadline),
            )
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let err = run(&model, &x, 4, &ctx).unwrap_err();
        assert!(err.is_deadline_exceeded(), "{err}");
        // The grant was released when the context dropped with the error.
        drop(ctx);
        assert_eq!(c.granted_threads(), 0);
    }

    #[test]
    fn zero_micro_batch_rejected() {
        let mut rng = seeded_rng(155);
        let model = zoo::fraud_fc_256(&mut rng).unwrap();
        let x = Tensor::zeros([4, 28]);
        let governor = MemoryGovernor::unlimited("pipe");
        assert!(run(&model, &x, 0, &ctx(1, &governor)).is_err());
    }
}
