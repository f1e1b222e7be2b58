//! The user-facing facade: an RDBMS session that serves models.
//!
//! An [`InferenceSession`] owns the storage engine (disk + buffer pool +
//! catalog), the database memory governor, the thread coordinator, and the
//! adaptive optimizer. Users register tables, load models, and run inference
//! queries under any of the three architectures or the adaptive policy —
//! the workflow of Fig. 1's envisioned system.

use crate::cache::CachedModel;
use crate::error::{Error, Result};
use crate::exec::relation_centric::WeightRelations;
use crate::exec::{self, dl_centric, Output};
use crate::ir::{InferencePlan, Representation};
use crate::optimizer::RuleBasedOptimizer;
use parking_lot::Mutex;
use relserve_nn::serialize;
use relserve_nn::{Activation, Layer, Model};
use relserve_relational::tensor_table::TensorOpStats;
use relserve_relational::{band_join, Schema, Table, TensorTable, Tuple};
use relserve_runtime::{
    AdmissionPolicy, Connector, ExecContext, ExternalRuntime, FaultInjector, KernelPool,
    MemoryGovernor, RetryPolicy, RuntimeProfile, ThreadCoordinator, TransferProfile,
};
use relserve_storage::catalog::{ObjectKind, StoredObject};
use relserve_storage::{ArtifactPages, ArtifactWriter, BufferPool, Catalog, DiskManager};
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::Tensor;
use relserve_vectoridx::HnswParams;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Session-wide configuration (every knob of the paper's experiments).
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Database memory budget for dense-executed (UDF-centric) layers.
    pub db_memory_bytes: usize,
    /// Buffer-pool size (the paper's "20 GB buffer pool" knob, scaled).
    pub buffer_pool_bytes: usize,
    /// The §7.1 operator threshold (the paper uses 2 GiB).
    pub memory_threshold_bytes: usize,
    /// Tensor block side length for relation-centric execution.
    pub block_size: usize,
    /// Physical cores to coordinate.
    pub cores: usize,
    /// Memory budget of a launched external DL runtime process.
    pub external_memory_bytes: usize,
    /// Connector wire model for DL-centric execution.
    pub transfer: TransferProfile,
    /// Bounded retry applied to every connector shipment and external-runtime
    /// reservation of a DL-centric query.
    pub retry: RetryPolicy,
    /// When `true` (the default), a query that fails with a recoverable
    /// error — governor OOM or exhausted connector retries — is re-executed
    /// relation-centric under the same admission grant instead of failing.
    pub degradation: bool,
}

impl SessionConfig {
    /// A validating builder starting from [`SessionConfig::default`].
    pub fn builder() -> SessionConfigBuilder {
        SessionConfigBuilder {
            config: SessionConfig::default(),
        }
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            db_memory_bytes: 1 << 30,        // 1 GiB
            buffer_pool_bytes: 256 << 20,    // 256 MiB
            memory_threshold_bytes: 2 << 30, // the paper's 2 GiB
            block_size: 256,
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            external_memory_bytes: 1 << 30,
            transfer: TransferProfile::local_connectorx(),
            retry: RetryPolicy::default(),
            degradation: true,
        }
    }
}

/// Builds a [`SessionConfig`], rejecting degenerate values at
/// [`SessionConfigBuilder::build`] time instead of letting them surface as
/// panics or hangs deep inside an executor.
#[derive(Debug, Clone)]
pub struct SessionConfigBuilder {
    config: SessionConfig,
}

impl SessionConfigBuilder {
    /// Database memory budget for dense-executed (UDF-centric) layers.
    pub fn db_memory_bytes(mut self, bytes: usize) -> Self {
        self.config.db_memory_bytes = bytes;
        self
    }

    /// Buffer-pool size in bytes.
    pub fn buffer_pool_bytes(mut self, bytes: usize) -> Self {
        self.config.buffer_pool_bytes = bytes;
        self
    }

    /// The §7.1 operator memory threshold.
    pub fn memory_threshold_bytes(mut self, bytes: usize) -> Self {
        self.config.memory_threshold_bytes = bytes;
        self
    }

    /// Tensor block side length for relation-centric execution.
    pub fn block_size(mut self, block: usize) -> Self {
        self.config.block_size = block;
        self
    }

    /// Physical cores the session's coordinator manages.
    pub fn cores(mut self, cores: usize) -> Self {
        self.config.cores = cores;
        self
    }

    /// Memory budget of a launched external DL runtime process.
    pub fn external_memory_bytes(mut self, bytes: usize) -> Self {
        self.config.external_memory_bytes = bytes;
        self
    }

    /// Connector wire model for DL-centric execution.
    pub fn transfer(mut self, profile: TransferProfile) -> Self {
        self.config.transfer = profile;
        self
    }

    /// Retry policy for DL-centric boundary crossings.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.retry = policy;
        self
    }

    /// Enable or disable the graceful-degradation fallback chain.
    pub fn degradation(mut self, enabled: bool) -> Self {
        self.config.degradation = enabled;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<SessionConfig> {
        let c = self.config;
        if c.block_size == 0 {
            return Err(Error::Invalid("block_size must be positive".into()));
        }
        if c.cores == 0 {
            return Err(Error::Invalid("cores must be at least 1".into()));
        }
        if c.db_memory_bytes == 0 {
            return Err(Error::Invalid("db_memory_bytes must be non-zero".into()));
        }
        if c.buffer_pool_bytes == 0 {
            return Err(Error::Invalid("buffer_pool_bytes must be non-zero".into()));
        }
        if c.external_memory_bytes == 0 {
            return Err(Error::Invalid(
                "external_memory_bytes must be non-zero".into(),
            ));
        }
        if c.retry.max_attempts == 0 {
            return Err(Error::Invalid(
                "retry.max_attempts must be at least 1".into(),
            ));
        }
        Ok(c)
    }
}

/// Which architecture to execute an inference query under.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard arm
/// so new execution strategies can be added without a breaking release.
#[non_exhaustive]
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Architecture {
    /// The §7.1 rule decides per layer (the paper's recommended mode, and
    /// the default).
    #[default]
    Adaptive,
    /// Force everything through the in-database UDF path.
    UdfCentric,
    /// Force everything through tensor-block relations.
    RelationCentric,
    /// Offload to an external runtime with the given profile.
    DlCentric(RuntimeProfile),
    /// Micro-batch pipelining (§5.2) inside the database process: the
    /// UDF-centric plan run in morsels of `micro_batch` rows, which the
    /// granted kernel threads claim and carry through every layer.
    Pipelined {
        /// Rows per micro-batch (the plan's `morsel_rows`).
        micro_batch: usize,
    },
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Architecture::Adaptive => write!(f, "adaptive"),
            Architecture::UdfCentric => write!(f, "udf-centric"),
            Architecture::RelationCentric => write!(f, "relation-centric"),
            Architecture::DlCentric(p) => write!(f, "dl-centric({})", p.name),
            Architecture::Pipelined { micro_batch } => write!(f, "pipelined(mb={micro_batch})"),
        }
    }
}

/// One side of a [`JoinQuery`]: a session table, its float key column and
/// its feature-vector column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSide<'a> {
    /// The table's name.
    pub table: &'a str,
    /// Its float column the join compares.
    pub key: &'a str,
    /// Its vector column the side contributes to each joined row.
    pub features: &'a str,
}

/// An inference query over a similarity join (§7.2.1): the model runs over
/// every pair of `left` and `right` rows whose keys differ by at most
/// `epsilon`, each joined row's features the left row's, then the right's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinQuery<'a> {
    /// The side whose features come first.
    pub left: JoinSide<'a>,
    /// The side whose features come second.
    pub right: JoinSide<'a>,
    /// The band of the join: `|left key - right key| ≤ epsilon`.
    pub epsilon: f32,
}

/// What one in-database or DL-centric attempt produced: the output, the plan
/// that ran (in-database only) and its relation-centric work.
type Ran = (Output, Option<InferencePlan>, TensorOpStats);

/// Result of one inference query.
pub struct InferenceOutcome {
    /// The model output (dense or blocked).
    pub output: Output,
    /// Wall-clock execution time, from admission to the output; a join
    /// query's starts once its tables are read, and so covers the join and
    /// the inference, like a batch query's after `features` read its table.
    pub elapsed: Duration,
    /// Which architecture the query was submitted under.
    pub architecture: String,
    /// The plan that ran, for an in-database query: the adaptive
    /// optimizer's, the uniform plan of a forced architecture, or the
    /// uniform relation-centric plan the degradation ladder re-ran.
    pub plan: Option<InferencePlan>,
    /// The fallback architecture that actually produced the output, when the
    /// primary attempt failed recoverably and the degradation ladder ran.
    pub degraded_to: Option<&'static str>,
    /// What the query's relation-centric layers did — block pairs joined,
    /// payload bytes read from and written to the buffer pool. All zero for
    /// a query that ran no layer relation-centrically.
    pub rel_stats: TensorOpStats,
}

impl InferenceOutcome {
    /// Row-wise class predictions.
    pub fn predictions(&self) -> Result<Vec<usize>> {
        self.output.predictions()
    }
}

impl std::fmt::Debug for InferenceOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceOutcome")
            .field("output", &self.output)
            .field("elapsed", &self.elapsed)
            .field("architecture", &self.architecture)
            .field("degraded_to", &self.degraded_to)
            .field("rel_stats", &self.rel_stats)
            .finish()
    }
}

/// Robustness counters of one session, aggregated across every query it has
/// served; see [`InferenceSession::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// OOM rejections by the database memory governor.
    pub db_oom_events: u64,
    /// OOM rejections inside per-query external DL runtimes.
    pub external_oom_events: u64,
    /// Queries admitted by the shared coordinator (all sessions sharing it).
    pub admitted: u64,
    /// Queries shed with [`relserve_runtime::Error::Overloaded`] after
    /// queueing past their admission timeout.
    pub shed: u64,
    /// Queries whose deadline expired while still queued for admission.
    pub deadline_expired: u64,
    /// Queries this session completed via the relation-centric fallback.
    pub degradations: u64,
    /// Transient wire faults hit by this session's connector shipments.
    pub wire_transient_failures: u64,
    /// Connector shipment re-attempts made by the bounded retry.
    pub wire_retries: u64,
    /// External-runtime reservation re-attempts after transient stalls.
    pub runtime_retries: u64,
    /// Kernel panics caught and converted to typed errors.
    pub kernel_panics: u64,
    /// Weight relations chunked into the buffer pool by a query: one per
    /// layer without a stored relation — a convolution's kernel relation —
    /// that has ever executed relation-centrically in this session. A loaded
    /// model's dense layers add none: their relations are stored at load.
    pub weight_relation_builds: u64,
    /// Relation-centric layer executions that joined against a weight
    /// relation already there — stored at load, or built by an earlier
    /// query — instead of chunking the weights.
    pub weight_relation_reuses: u64,
    /// Weight matrices packed into the dispatched kernel's panel layout: one
    /// per dense layer of a loaded model that has ever executed dense — in
    /// this session or through a clone of the model the caller kept.
    pub prepared_weight_builds: u64,
    /// Bytes those packed operands hold on the heap: the only in-memory
    /// form of a loaded model's weight matrices.
    pub prepared_weight_bytes: u64,
    /// Bytes of the weight relations' pages resident in the buffer pool's
    /// frames right now (the rest of each relation is spilled).
    pub weight_relation_resident_bytes: u64,
    /// Bytes of the loaded models' artifact pages on the scratch file,
    /// written around the buffer pool: the session's one stored copy of
    /// their weights, each dense matrix as its weight relation's blocks.
    pub artifact_bytes: u64,
}

impl SessionStats {
    /// The counters as stable `(name, value)` pairs, for exporting over a
    /// wire or into a metrics sink without the consumer knowing the struct
    /// layout. `SessionStats` itself is the plain-old-data snapshot: it is
    /// `Copy`, holds no locks, and is safe to ship across threads.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("db_oom_events", self.db_oom_events),
            ("external_oom_events", self.external_oom_events),
            ("admitted", self.admitted),
            ("shed", self.shed),
            ("deadline_expired", self.deadline_expired),
            ("degradations", self.degradations),
            ("wire_transient_failures", self.wire_transient_failures),
            ("wire_retries", self.wire_retries),
            ("runtime_retries", self.runtime_retries),
            ("kernel_panics", self.kernel_panics),
            ("weight_relation_builds", self.weight_relation_builds),
            ("weight_relation_reuses", self.weight_relation_reuses),
            ("prepared_weight_builds", self.prepared_weight_builds),
            ("prepared_weight_bytes", self.prepared_weight_bytes),
            (
                "weight_relation_resident_bytes",
                self.weight_relation_resident_bytes,
            ),
            ("artifact_bytes", self.artifact_bytes),
        ]
    }
}

/// Outcome of one fused execution serving several coalesced requests: the
/// whole batch ran as a single admitted query, and the per-request
/// predictions were demultiplexed back out by row count. Produced by
/// [`InferenceSession::infer_fused`].
#[derive(Debug)]
pub struct FusedOutcome {
    /// Row-wise class predictions per fused request, in submission order.
    pub per_request: Vec<Vec<usize>>,
    /// Wall-clock execution time of the fused batch (shared by every
    /// request it carried).
    pub elapsed: Duration,
    /// Which architecture the fused batch was submitted under.
    pub architecture: String,
    /// The fallback architecture that actually produced the output, when
    /// the primary attempt failed recoverably (applies to every request in
    /// the batch).
    pub degraded_to: Option<&'static str>,
}

#[derive(Default)]
struct SessionCounters {
    external_oom_events: AtomicU64,
    degradations: AtomicU64,
    wire_transient_failures: AtomicU64,
    wire_retries: AtomicU64,
    runtime_retries: AtomicU64,
    kernel_panics: AtomicU64,
}

/// Best-effort extraction of a caught panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A `[pairs, width]` tensor whose row for each joined pair `(i, j)` of
/// `pairs` is written by `fill(row, i, j)`; each of `par`'s threads fills a
/// run of pairs.
fn joined_rows(
    pairs: &[(usize, usize)],
    width: usize,
    par: &Parallelism,
    fill: impl Fn(&mut [f32], usize, usize) + Sync,
) -> Tensor {
    let mut out = Tensor::zeros([pairs.len(), width]);
    let run = pairs.len().div_ceil(par.threads()).max(1);
    let runs = out
        .data_mut()
        .chunks_mut(run * width)
        .zip(pairs.chunks(run));
    par.run_owned(runs.collect(), |(out, pairs)| {
        for (row, &(i, j)) in out.chunks_exact_mut(width).zip(pairs) {
            fill(row, i, j);
        }
    });
    out
}

/// The joined rows `left[i] ++ right[j]` of `pairs`, as one batch.
fn gather(left: &Tensor, right: &Tensor, pairs: &[(usize, usize)], par: &Parallelism) -> Tensor {
    let (f1, f2) = (left.shape().dim(1), right.shape().dim(1));
    joined_rows(pairs, f1 + f2, par, |row, i, j| {
        row[..f1].copy_from_slice(&left.data()[i * f1..(i + 1) * f1]);
        row[f1..].copy_from_slice(&right.data()[j * f2..(j + 1) * f2]);
    })
}

/// A loaded model: the session's copy of it, whose dense weight matrices
/// stay on the pages of its artifact, and the artifact.
struct Loaded {
    model: Arc<Model>,
    artifact: Arc<serialize::Artifact>,
}

/// An in-process RDBMS session serving deep-learning models.
pub struct InferenceSession {
    config: SessionConfig,
    /// The buffer pool, and the weight relations queries join against: a
    /// loaded dense layer's over its stored pages, registered at load, any
    /// other built on first relation-centric use; all kept for the
    /// session's lifetime.
    weights: WeightRelations,
    catalog: Catalog,
    governor: MemoryGovernor,
    coordinator: ThreadCoordinator,
    kernel_pool: Arc<KernelPool>,
    optimizer: RuleBasedOptimizer,
    models: Mutex<HashMap<String, Loaded>>,
    tables: Mutex<HashMap<String, Arc<Table>>>,
    faults: Option<FaultInjector>,
    counters: SessionCounters,
}

impl InferenceSession {
    /// Open a session on a scratch database with a private coordinator
    /// sized from `config.cores`.
    pub fn open(config: SessionConfig) -> Result<Self> {
        let coordinator = ThreadCoordinator::new(config.cores);
        Self::open_shared(config, &coordinator)
    }

    /// Open a session sharing `coordinator`'s admission ledger and kernel
    /// pool: concurrent queries across every session built from clones of
    /// one coordinator are budgeted against the same physical cores (§3.1).
    /// `config.cores` is ignored in favor of the coordinator's core count.
    /// There is no process-global state — each query's threads come from
    /// the [`relserve_runtime::ExecContext`] it is admitted into.
    pub fn open_shared(config: SessionConfig, coordinator: &ThreadCoordinator) -> Result<Self> {
        let disk = Arc::new(DiskManager::temp()?);
        let pool = Arc::new(BufferPool::with_budget_bytes(
            disk,
            config.buffer_pool_bytes,
        ));
        let coordinator = coordinator.clone();
        let kernel_pool = coordinator.kernel_pool();
        Ok(InferenceSession {
            governor: MemoryGovernor::with_budget("db", config.db_memory_bytes),
            coordinator,
            kernel_pool,
            optimizer: RuleBasedOptimizer::new(config.memory_threshold_bytes),
            weights: WeightRelations::new(pool, config.block_size),
            catalog: Catalog::new(),
            models: Mutex::new(HashMap::new()),
            tables: Mutex::new(HashMap::new()),
            faults: FaultInjector::from_env(),
            counters: SessionCounters::default(),
            config,
        })
    }

    /// Replace the session's fault injector (ambient injection is otherwise
    /// read from [`relserve_runtime::FAULT_SEED_ENV`] at open time). Tests
    /// and chaos harnesses use this to inject deterministic fault streams
    /// without touching process environment.
    pub fn with_fault_injector(mut self, faults: FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The session's thread coordinator (admission ledger + kernel pool).
    /// Clone it to open further sessions that share this machine's budget
    /// via [`InferenceSession::open_shared`].
    pub fn coordinator(&self) -> &ThreadCoordinator {
        &self.coordinator
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The database memory governor (inspect peaks and OOM counts).
    pub fn governor(&self) -> &MemoryGovernor {
        &self.governor
    }

    /// Aggregated robustness counters: OOM events, admission shedding,
    /// connector retries, and degradations across the session's lifetime.
    /// Admission counters come from the shared coordinator, so sessions
    /// built from clones of one coordinator observe the same ledger.
    pub fn stats(&self) -> SessionStats {
        let admission = self.coordinator.admission_stats();
        let (mut prepared_builds, mut prepared_bytes, mut artifact_bytes) = (0, 0, 0);
        for loaded in self.models.lock().values() {
            let (builds, bytes) = loaded.model.prepared_weights();
            prepared_builds += builds as u64;
            prepared_bytes += bytes as u64;
            artifact_bytes += loaded.artifact.bytes_on_disk();
        }
        SessionStats {
            db_oom_events: self.governor.oom_events(),
            external_oom_events: self.counters.external_oom_events.load(Ordering::Relaxed),
            admitted: admission.admitted,
            shed: admission.shed,
            deadline_expired: admission.deadline_expired,
            degradations: self.counters.degradations.load(Ordering::Relaxed),
            wire_transient_failures: self
                .counters
                .wire_transient_failures
                .load(Ordering::Relaxed),
            wire_retries: self.counters.wire_retries.load(Ordering::Relaxed),
            runtime_retries: self.counters.runtime_retries.load(Ordering::Relaxed),
            kernel_panics: self.counters.kernel_panics.load(Ordering::Relaxed),
            weight_relation_builds: self.weights.builds(),
            weight_relation_reuses: self.weights.reuses(),
            prepared_weight_builds: prepared_builds,
            prepared_weight_bytes: prepared_bytes,
            weight_relation_resident_bytes: self.weights.resident_bytes(),
            artifact_bytes,
        }
    }

    /// The buffer pool (inspect spill statistics).
    pub fn pool(&self) -> &Arc<BufferPool> {
        self.weights.pool()
    }

    /// The session's persistent kernel thread pool (inspect scheduling
    /// counters).
    pub fn kernel_pool(&self) -> &Arc<KernelPool> {
        &self.kernel_pool
    }

    /// Create a relational table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        let mut tables = self.tables.lock();
        if tables.contains_key(name) {
            return Err(Error::AlreadyExists(name.to_string()));
        }
        let table = Arc::new(Table::create(self.pool().clone(), name, schema));
        self.catalog.create(
            name,
            StoredObject {
                kind: ObjectKind::Table,
                pages: vec![],
                cardinality: 0,
                meta: vec![],
            },
        )?;
        tables.insert(name.to_string(), table.clone());
        Ok(table)
    }

    /// Look up a registered table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(name.to_string()))
    }

    /// Insert tuples into a table.
    pub fn insert(&self, table: &str, rows: &[Tuple]) -> Result<()> {
        let table = self.table(table)?;
        for row in rows {
            table.insert(row)?;
        }
        Ok(())
    }

    /// Load a model into the session: its artifact is streamed into
    /// catalog pages on the scratch file, around the buffer pool, binding
    /// model and metadata in one catalog as §4.1 advocates. Each dense
    /// weight matrix is stored once, as the blocks of its weight relation at
    /// the session's block size, and that relation is what a
    /// relation-centric query of the layer joins against: no query chunks
    /// or writes a loaded weight. The session adds no resident form of a
    /// weight ([`serialize::store_model`]): a dense weight that a clone the
    /// caller kept shares is served to dense executors from that shared cell
    /// — whichever of the two packs it packs it for both — and every other
    /// stays on the pages ([`relserve_nn::Layer::Stored`]), `model`'s own
    /// copy dropped on return. The packed panels dense executors multiply
    /// from are built on first use.
    pub fn load_model(&self, model: Model) -> Result<()> {
        if self.models.lock().contains_key(model.name()) {
            return Err(Error::AlreadyExists(model.name().to_string()));
        }
        let (stored, artifact) = serialize::store_model(model, self.artifact_sink())?;
        self.register(stored, artifact)
    }

    /// Load a model from the artifact `reader` streams — as
    /// [`relserve_nn::serialize::encode`] writes one, to a file say — into
    /// catalog pages as it is read, without its weight matrices ever being
    /// in memory. Returns the model's name.
    pub fn load_model_from(&self, reader: impl Read) -> Result<String> {
        let (stored, artifact) = serialize::store(reader, self.artifact_sink())?;
        let name = stored.name().to_string();
        self.register(stored, artifact)?;
        Ok(name)
    }

    fn artifact_sink(&self) -> ArtifactWriter {
        ArtifactPages::writer(self.pool().disk().clone()).weight_block(self.config.block_size)
    }

    /// Enter a stored model in the catalog, and each of its dense layers'
    /// stored weight relation in the session's.
    fn register(&self, model: Model, artifact: serialize::Artifact) -> Result<()> {
        let name = model.name().to_string();
        let mut models = self.models.lock();
        if models.contains_key(&name) {
            return Err(Error::AlreadyExists(name));
        }
        let relations = artifact
            .weight_relations()
            .map(|(layer, blocks)| {
                let pool = self.pool().clone();
                let table = TensorTable::over(pool, format!("{name}.l{layer}.w"), blocks.clone())?;
                Ok((layer, table))
            })
            .collect::<Result<Vec<_>>>()?;
        self.catalog.create(
            &name,
            StoredObject {
                kind: ObjectKind::Model,
                pages: artifact.page_ids(),
                cardinality: model.num_params() as u64,
                meta: vec![],
            },
        )?;
        for (layer, table) in relations {
            self.weights.insert(&name, layer, table);
        }
        let (model, artifact) = (Arc::new(model), Arc::new(artifact));
        models.insert(name, Loaded { model, artifact });
        Ok(())
    }

    /// Look up a loaded model. Its dense weight matrices are on the
    /// artifact's pages, or shared with the caller's clone of the model:
    /// [`Model::materialize`] brings stored ones into memory.
    pub fn model(&self, name: &str) -> Result<Arc<Model>> {
        self.models
            .lock()
            .get(name)
            .map(|loaded| loaded.model.clone())
            .ok_or_else(|| Error::NotFound(name.to_string()))
    }

    /// Reload a model from its catalog artifact, every weight back in
    /// memory — read out of its weight relation's blocks — and every page
    /// verified against its checksum (round-trip check, recovery).
    pub fn reload_model_from_catalog(&self, name: &str) -> Result<Model> {
        let object = self.catalog.get(name)?;
        if object.kind != ObjectKind::Model {
            return Err(Error::Invalid(format!("`{name}` is not a model")));
        }
        let artifact = self
            .models
            .lock()
            .get(name)
            .map(|loaded| loaded.artifact.clone())
            .ok_or_else(|| Error::NotFound(name.to_string()))?;
        Ok(serialize::from_artifact(&artifact)?)
    }

    /// Produce the adaptive plan for a model at a batch size (EXPLAIN).
    /// The plan is made for the kernel threads an uncontended query is
    /// granted; a query plans for the threads it was granted.
    pub fn plan(&self, model: &str, batch_size: usize) -> Result<InferencePlan> {
        let model = self.model(model)?;
        let threads = self.coordinator.plan_for(1).kernel_threads;
        self.plan_loaded(&model, batch_size, &Architecture::Adaptive, threads)
    }

    /// The plan an in-database `architecture` runs a loaded model under,
    /// whose relation-centric multiplies join the weight relations stored at
    /// load: every layer in the forced representation (pipelined's cut into
    /// morsels of `micro_batch` rows), or the adaptive optimizer's per-layer
    /// mix for `threads` kernel threads.
    fn plan_loaded(
        &self,
        model: &Model,
        batch_size: usize,
        architecture: &Architecture,
        threads: usize,
    ) -> Result<InferencePlan> {
        let uniform = |representation| InferencePlan::uniform(model, batch_size, representation);
        let mut plan = match architecture {
            Architecture::UdfCentric => uniform(Representation::UdfCentric)?,
            Architecture::Pipelined { micro_batch } => InferencePlan {
                morsel_rows: *micro_batch,
                ..uniform(Representation::UdfCentric)?
            },
            Architecture::RelationCentric => uniform(Representation::RelationCentric)?,
            _ => self.optimizer.plan(model, batch_size, threads)?,
        };
        plan.weight_relations_stored = true;
        Ok(plan)
    }

    /// Extract a dense feature batch from a table's vector column.
    pub fn features(&self, table: &str, vector_col: &str) -> Result<Tensor> {
        Ok(self.scan(table, None, vector_col)?.1)
    }

    /// Read `table`'s `vector_col` into a `[rows, width]` batch, and beside
    /// it, row by row, the float column `key_col` when one is named.
    fn scan(
        &self,
        table: &str,
        key_col: Option<&str>,
        vector_col: &str,
    ) -> Result<(Vec<f32>, Tensor)> {
        let table = self.table(table)?;
        let col = table.schema().index_of(vector_col)?;
        let key_col = key_col.map(|c| table.schema().index_of(c)).transpose()?;
        let mut keys = Vec::new();
        let mut data: Vec<f32> = Vec::new();
        let mut rows = 0usize;
        let mut width = 0usize;
        for row in table.scan() {
            let row = row.map_err(Error::Relational)?;
            if let Some(k) = key_col {
                keys.push(row.value(k)?.as_float()?);
            }
            let v = row.value(col)?.as_vector().map_err(Error::Relational)?;
            if rows == 0 {
                width = v.len();
            } else if v.len() != width {
                return Err(Error::Invalid(format!(
                    "ragged feature column: row {rows} has {} values, expected {width}",
                    v.len()
                )));
            }
            data.extend_from_slice(v);
            rows += 1;
        }
        if rows == 0 {
            return Err(Error::Invalid(format!("table `{}` is empty", table.name())));
        }
        Ok((keys, Tensor::from_vec([rows, width], data)?))
    }

    /// Admit `architecture`'s context shape under `policy`: dedicated for
    /// DL-centric (kernels may use every granted core, no DB workers
    /// competing), one DB worker for the in-database plans.
    fn admit(&self, architecture: &Architecture, policy: &AdmissionPolicy) -> Result<ExecContext> {
        let governor = self.governor.clone();
        Ok(match architecture {
            Architecture::DlCentric(_) => {
                self.coordinator.context_dedicated_with(governor, policy)?
            }
            _ => self.coordinator.context_with(1, governor, policy)?,
        })
    }

    /// One primary execution attempt under an already-admitted context.
    fn run_primary(
        &self,
        model: &Model,
        batch: &Tensor,
        architecture: &Architecture,
        batch_size: usize,
        ctx: &ExecContext,
    ) -> Result<Ran> {
        match architecture {
            // The in-database architectures are plans of the one executor.
            Architecture::UdfCentric
            | Architecture::RelationCentric
            | Architecture::Adaptive
            | Architecture::Pipelined { .. } => {
                let plan =
                    self.plan_loaded(model, batch_size, architecture, ctx.kernel_threads())?;
                let (out, rel_stats) = exec::run(model, batch, &plan, &self.weights, ctx)?;
                Ok((out, Some(plan), rel_stats))
            }
            Architecture::DlCentric(profile) => {
                let runtime =
                    ExternalRuntime::launch(profile.clone(), self.config.external_memory_bytes);
                let runtime = match &self.faults {
                    Some(f) => runtime.with_faults(f.clone()),
                    None => runtime,
                };
                let mut connector = match &self.faults {
                    Some(f) => Connector::with_faults(self.config.transfer, f.clone()),
                    None => Connector::new(self.config.transfer),
                };
                let result = dl_centric::run(
                    model,
                    batch,
                    &mut connector,
                    &runtime,
                    ctx,
                    &self.config.retry,
                );
                // Wire and OOM accounting must survive a failed attempt —
                // that is exactly when it matters.
                let wire = connector.stats();
                self.counters
                    .wire_transient_failures
                    .fetch_add(wire.transient_failures, Ordering::Relaxed);
                self.counters
                    .wire_retries
                    .fetch_add(wire.retries, Ordering::Relaxed);
                self.counters
                    .external_oom_events
                    .fetch_add(runtime.governor().oom_events(), Ordering::Relaxed);
                let (out, stats) = result?;
                self.counters
                    .runtime_retries
                    .fetch_add(stats.runtime_retries, Ordering::Relaxed);
                Ok((out, None, TensorOpStats::default()))
            }
        }
    }

    /// Run inference over a dense feature batch under `architecture` and the
    /// default [`AdmissionPolicy`].
    pub fn infer_batch(
        &self,
        model_name: &str,
        batch: &Tensor,
        architecture: Architecture,
    ) -> Result<InferenceOutcome> {
        self.infer_batch_with(model_name, batch, architecture, &AdmissionPolicy::default())
    }

    /// Run inference under an explicit [`AdmissionPolicy`]: the query queues
    /// FIFO for admission for at most `policy.queue_timeout` (shedding with
    /// [`relserve_runtime::Error::Overloaded`] when the machine stays
    /// saturated), and `policy.deadline` is enforced both in the queue and
    /// cooperatively before every layer the executor runs (not inside one).
    ///
    /// The query runs inside its own admitted execution context; the grant
    /// returns to the coordinator when the outcome (or error) is produced.
    /// If the primary attempt fails recoverably — governor OOM, or connector
    /// retries exhausted by transient faults — and degradation is enabled,
    /// the query re-executes relation-centric *under the same grant*, and
    /// the outcome records `degraded_to`. Kernel panics are caught and
    /// surfaced as typed [`relserve_runtime::Error::KernelPanicked`] errors
    /// so one poisoned stripe cannot take down the session.
    pub fn infer_batch_with(
        &self,
        model_name: &str,
        batch: &Tensor,
        architecture: Architecture,
        policy: &AdmissionPolicy,
    ) -> Result<InferenceOutcome> {
        let model = self.model(model_name)?;
        let batch_size = model.check_input(batch)?;
        let started = Instant::now();
        let ctx = self.admit(&architecture, policy)?;
        let primary = || self.run_primary(&model, batch, &architecture, batch_size, &ctx);
        self.execute(&model, architecture.clone(), &ctx, started, primary, || {
            Cow::Borrowed(batch)
        })
    }

    /// Run `primary` inside `ctx`, a kernel panic caught as a typed error.
    /// When it fails recoverably and degradation is on, the degradation
    /// ladder re-runs the model relation-centric over `batch()` under the
    /// same grant.
    fn execute<'b>(
        &self,
        model: &Model,
        architecture: Architecture,
        ctx: &ExecContext,
        started: Instant,
        primary: impl FnOnce() -> Result<Ran>,
        batch: impl FnOnce() -> Cow<'b, Tensor>,
    ) -> Result<InferenceOutcome> {
        let primary = std::panic::catch_unwind(std::panic::AssertUnwindSafe(primary))
            .unwrap_or_else(|payload| {
                self.counters.kernel_panics.fetch_add(1, Ordering::Relaxed);
                Err(Error::Runtime(relserve_runtime::Error::KernelPanicked {
                    message: panic_message(payload.as_ref()),
                }))
            });
        let (output, plan, rel_stats, degraded_to) = match primary {
            Ok((out, plan, rel_stats)) => (out, plan, rel_stats, None),
            Err(err)
                if self.config.degradation
                    && err.is_degradable()
                    && architecture != Architecture::RelationCentric =>
            {
                // The degradation ladder: relation-centric streams through
                // the buffer pool instead of materializing dense tensors, so
                // it survives both budgets that OOMed the primary attempt
                // and connectors whose wire is down. The deadline still
                // applies — a timed-out query must not burn a second pass.
                ctx.check_deadline("degrade.relation-centric")?;
                let batch = batch();
                let rows = batch.shape().dim(0);
                let plan = self.plan_loaded(model, rows, &Architecture::RelationCentric, 1)?;
                let (out, rel_stats) = exec::run(model, &batch, &plan, &self.weights, ctx)?;
                self.counters.degradations.fetch_add(1, Ordering::Relaxed);
                (out, Some(plan), rel_stats, Some("relation-centric"))
            }
            Err(err) => return Err(err),
        };
        Ok(InferenceOutcome {
            output,
            elapsed: started.elapsed(),
            architecture: architecture.to_string(),
            plan,
            degraded_to,
            rel_stats,
        })
    }

    /// Run a loaded model over a similarity join of two session tables
    /// (§7.2.1) under `policy`, as [`InferenceSession::infer_batch_with`]
    /// runs a batch: one admitted context reads both sides, band-joins their
    /// keys ([`band_join`]) and runs the model, and the deadline is checked
    /// after the reads, after the join, and before every layer. A forced
    /// architecture runs the joined rows gathered into one batch. `Adaptive`
    /// may push layer 0 below the join ([`InferencePlan::pushdown`]): each
    /// side multiplies by its column slice of layer 0's weight through
    /// [`exec::run`], the partials of each joined pair are summed, biased and
    /// activated, and `exec::run` runs the rest of the plan. Feature widths
    /// that do not make up the model's input are a typed
    /// [`relserve_nn::Error::InputMismatch`].
    pub fn infer_join(
        &self,
        model_name: &str,
        query: &JoinQuery,
        architecture: Architecture,
        policy: &AdmissionPolicy,
    ) -> Result<InferenceOutcome> {
        let model = self.model(model_name)?;
        let ctx = self.admit(&architecture, policy)?;
        let side = |side: JoinSide| self.scan(side.table, Some(side.key), side.features);
        let (left_keys, left) = side(query.left)?;
        let (right_keys, right) = side(query.right)?;
        ctx.check_deadline("join.scan")?;
        let started = Instant::now();
        let pairs = band_join(&left_keys, &right_keys, query.epsilon)?;
        ctx.check_deadline("join.band")?;
        if pairs.is_empty() {
            return Err(Error::Invalid("the join has no rows".into()));
        }
        let sides = [&left, &right].map(|side| (side.shape().dim(0), side.shape().dim(1)));
        let par = ctx.parallelism();
        let plan = match architecture {
            Architecture::Adaptive => {
                Some(
                    self.optimizer
                        .plan_join(&model, pairs.len(), sides, ctx.kernel_threads())?,
                )
            }
            _ => None,
        };
        match plan.filter(|plan| plan.pushdown.is_some()) {
            Some(mut plan) => {
                plan.weight_relations_stored = true;
                let primary = || self.run_pushdown(&model, plan, &left, &right, &pairs, &ctx);
                self.execute(&model, architecture, &ctx, started, primary, || {
                    Cow::Owned(gather(&left, &right, &pairs, &par))
                })
            }
            None => {
                let batch = gather(&left, &right, &pairs, &par);
                let primary = || self.run_primary(&model, &batch, &architecture, pairs.len(), &ctx);
                self.execute(&model, architecture.clone(), &ctx, started, primary, || {
                    Cow::Borrowed(&batch)
                })
            }
        }
    }

    /// Run a join query's push-down `plan` over its sides and the joined
    /// `pairs` of their rows. The left partials stay charged while the right
    /// side runs, both while their sums are made (node 0's estimate).
    fn run_pushdown(
        &self,
        model: &Model,
        plan: InferencePlan,
        left: &Tensor,
        right: &Tensor,
        pairs: &[(usize, usize)],
        ctx: &ExecContext,
    ) -> Result<Ran> {
        let Some((weight, bias, activation)) = model.layers()[0].dense_parts() else {
            return Err(Error::Invalid(
                "a push-down of a layer without weights".into(),
            ));
        };
        let (weight, hidden) = (weight.to_tensor()?, bias.len());
        let governor = ctx.governor();
        let partials = |x: &Tensor, col0: usize| -> Result<(Tensor, _)> {
            let cols = col0..col0 + x.shape().dim(1);
            let slice = weight.slice2(0, hidden, cols.start, cols.end)?;
            let name = format!("{}.l0[{cols:?}]", model.name());
            let one = Model::new(name, [cols.len()]).push(Layer::Dense {
                weight: slice.into(),
                bias: Tensor::zeros([hidden]),
                activation: Activation::None,
            })?;
            let rows = x.shape().dim(0);
            let plan = InferencePlan::uniform(&one, rows, Representation::UdfCentric)?;
            let partial = exec::run(&one, x, &plan, &self.weights, ctx)?
                .0
                .into_dense()?;
            let charge = governor.reserve(partial.num_bytes())?;
            Ok((partial, charge))
        };
        let hidden_out = {
            let (p1, _p1) = partials(left, 0)?;
            let (p2, _p2) = partials(right, left.shape().dim(1))?;
            let _out = governor.reserve(pairs.len() * hidden * relserve_tensor::ELEM_BYTES)?;
            // A ReLU is applied in the sums' store, as the dense kernel's
            // epilogue applies it; another activation after them.
            let relu = activation == Activation::Relu;
            let mut out = joined_rows(pairs, hidden, &ctx.parallelism(), |row, i, j| {
                let a = &p1.data()[i * hidden..(i + 1) * hidden];
                let b = &p2.data()[j * hidden..(j + 1) * hidden];
                for (((y, a), b), c) in row.iter_mut().zip(a).zip(b).zip(bias.data()) {
                    *y = if relu {
                        (a + b + c).max(0.0)
                    } else {
                        a + b + c
                    };
                }
            });
            if !relu {
                activation.apply_inplace(&mut out)?;
            }
            out
        };
        let rest = InferencePlan {
            ops: plan.ops[1..].to_vec(),
            ..plan.clone()
        };
        let (output, rel_stats) = match rest.ops.is_empty() {
            true => (Output::Dense(hidden_out), TensorOpStats::default()),
            false => exec::run(model, &hidden_out, &rest, &self.weights, ctx)?,
        };
        Ok((output, Some(plan), rel_stats))
    }

    /// Execute several coalesced single- or multi-row requests as one fused
    /// batch: the serving layer's micro-batcher concatenates compatible
    /// requests (same model + version), the fused batch pays for admission,
    /// planning and kernel launch **once**, and the per-request predictions
    /// are demultiplexed back out by each part's row count.
    ///
    /// Every `part` must be a 2-D `[rows, width]` tensor with the same
    /// width. The whole batch shares one outcome: if the fused execution
    /// degrades, every request reports the same `degraded_to`; if it fails,
    /// the caller maps the single error to every request it fused.
    pub fn infer_fused(
        &self,
        model_name: &str,
        parts: &[Tensor],
        architecture: Architecture,
        policy: &AdmissionPolicy,
    ) -> Result<FusedOutcome> {
        if parts.is_empty() {
            return Err(Error::Invalid("fused batch needs at least one part".into()));
        }
        let width = match parts[0].shape().dims() {
            [_, w] => *w,
            other => {
                return Err(Error::Invalid(format!(
                    "fused parts must be 2-D [rows, width], got {other:?}"
                )))
            }
        };
        let mut rows_per_part = Vec::with_capacity(parts.len());
        let mut total_rows = 0usize;
        for part in parts {
            match part.shape().dims() {
                [r, w] if *w == width && *r > 0 => {
                    rows_per_part.push(*r);
                    total_rows += *r;
                }
                other => {
                    return Err(Error::Invalid(format!(
                        "fused part shape {other:?} incompatible with width {width}"
                    )))
                }
            }
        }
        let mut data = Vec::with_capacity(total_rows * width);
        for part in parts {
            data.extend_from_slice(part.data());
        }
        let fused = Tensor::from_vec([total_rows, width], data)?;
        let outcome = self.infer_batch_with(model_name, &fused, architecture, policy)?;
        let predictions = outcome.predictions()?;
        debug_assert_eq!(predictions.len(), total_rows);
        let mut per_request = Vec::with_capacity(parts.len());
        let mut offset = 0usize;
        for rows in rows_per_part {
            per_request.push(predictions[offset..offset + rows].to_vec());
            offset += rows;
        }
        Ok(FusedOutcome {
            per_request,
            elapsed: outcome.elapsed,
            architecture: outcome.architecture,
            degraded_to: outcome.degraded_to,
        })
    }

    /// Run inference over features scanned from a table column.
    pub fn infer(
        &self,
        model_name: &str,
        table: &str,
        vector_col: &str,
        architecture: Architecture,
    ) -> Result<InferenceOutcome> {
        let batch = self.features(table, vector_col)?;
        self.infer_batch(model_name, &batch, architecture)
    }

    /// Wrap a loaded model with an inference-result cache (§5.1).
    pub fn cached_model(
        &self,
        model_name: &str,
        max_distance: f32,
        params: HnswParams,
    ) -> Result<CachedModel> {
        let model = self.model(model_name)?;
        let threads = self.coordinator.plan_for(1).kernel_threads;
        let par = self.kernel_pool.parallelism(threads);
        CachedModel::new((*model).clone(), max_distance, params, par)
    }
}

impl std::fmt::Debug for InferenceSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceSession")
            .field("models", &self.models.lock().len())
            .field("tables", &self.tables.lock().len())
            .field("db_budget", &self.config.db_memory_bytes)
            .field("pool_frames", &self.pool().capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;
    use relserve_relational::{Column, DataType, Value};
    use relserve_storage::PageId;

    fn tiny_config() -> SessionConfig {
        SessionConfig::builder()
            .db_memory_bytes(8 << 20)
            .buffer_pool_bytes(4 << 20)
            .memory_threshold_bytes(1 << 20)
            .block_size(32)
            .cores(2)
            .external_memory_bytes(8 << 20)
            .transfer(TransferProfile::instant())
            .build()
            .expect("tiny config is valid")
    }

    fn fraud_session(rows: usize) -> InferenceSession {
        let session = InferenceSession::open(tiny_config()).unwrap();
        let mut rng = seeded_rng(140);
        session
            .load_model(zoo::fraud_fc_256(&mut rng).unwrap())
            .unwrap();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("features", DataType::Vector),
        ]);
        session.create_table("transactions", schema).unwrap();
        use rand::Rng;
        let tuples: Vec<Tuple> = (0..rows)
            .map(|i| {
                let features: Vec<f32> = (0..28).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                Tuple::new(vec![Value::Int(i as i64), Value::Vector(features)])
            })
            .collect();
        session.insert("transactions", &tuples).unwrap();
        session
    }

    #[test]
    fn end_to_end_all_architectures_agree() {
        let session = fraud_session(40);
        let archs = [
            Architecture::UdfCentric,
            Architecture::RelationCentric,
            Architecture::Adaptive,
            Architecture::DlCentric(RuntimeProfile::tensorflow_like()),
            Architecture::Pipelined { micro_batch: 7 },
        ];
        let mut all_preds = Vec::new();
        for arch in archs {
            let outcome = session
                .infer("Fraud-FC-256", "transactions", "features", arch)
                .unwrap();
            assert_eq!(outcome.output.num_rows(), 40);
            all_preds.push(outcome.predictions().unwrap());
        }
        for preds in &all_preds[1..] {
            assert_eq!(preds, &all_preds[0]);
        }
    }

    #[test]
    fn adaptive_produces_a_plan() {
        let session = fraud_session(10);
        let outcome = session
            .infer(
                "Fraud-FC-256",
                "transactions",
                "features",
                Architecture::Adaptive,
            )
            .unwrap();
        let plan = outcome.plan.expect("adaptive plans");
        assert_eq!(plan.batch_size, 10);
        assert!(!plan.ops.is_empty());
    }

    #[test]
    fn every_in_database_outcome_reports_the_plan_that_ran() {
        use Representation::{RelationCentric as Rc, UdfCentric as Udf};
        // Between Fraud-FC-256's layer estimates at 64 rows (102,400 and
        // 68,104 B): layer 0 runs relation-centric, layer 1 dense.
        let mut config = tiny_config();
        config.memory_threshold_bytes = 80_000;
        let session = InferenceSession::open(config).unwrap();
        session
            .load_model(zoo::fraud_fc_256(&mut seeded_rng(142)).unwrap())
            .unwrap();
        let name = "Fraud-FC-256";
        let batch = Tensor::from_fn([64, 28], |i| (i % 7) as f32 * 0.1);
        let ran = |arch| {
            session
                .infer_batch(name, &batch, arch)
                .unwrap()
                .plan
                .unwrap()
        };
        let adaptive = ran(Architecture::Adaptive);
        assert_eq!(adaptive, session.plan(name, 64).unwrap());
        assert_eq!(adaptive.layer_representations(), [Rc, Udf]);
        let uniform = |session: &InferenceSession, name, rep| {
            let model = session.model(name).unwrap();
            InferencePlan::uniform(&model, 64, rep).unwrap().ops
        };
        assert_eq!(
            ran(Architecture::UdfCentric).ops,
            uniform(&session, name, Udf)
        );
        assert_eq!(
            ran(Architecture::RelationCentric).ops,
            uniform(&session, name, Rc)
        );
        // Pipelined runs the UDF-centric plan in morsels of its micro-batch.
        let pipelined = ran(Architecture::Pipelined { micro_batch: 16 });
        assert_eq!(pipelined.ops, uniform(&session, name, Udf));
        assert_eq!(pipelined.morsel_rows, 16);
        assert!(pipelined.explain().contains("morsels of 16 rows"));
        assert_eq!(ran(Architecture::UdfCentric).morsel_rows, 64);
        // A degraded query reports the all-relation-centric plan it re-ran.
        let starved = starved_session(true);
        let degraded = starved.infer_batch("Fraud-FC-512", &batch, Architecture::Adaptive);
        let degraded = degraded.unwrap();
        assert_eq!(degraded.degraded_to, Some("relation-centric"));
        assert_eq!(
            degraded.plan.unwrap().ops,
            uniform(&starved, "Fraud-FC-512", Rc)
        );
    }

    fn starved_session(degradation: bool) -> InferenceSession {
        // The Table 3 pattern in miniature: a DB budget too small for the
        // dense path, but the relation-centric path streams through.
        let mut config = tiny_config();
        config.db_memory_bytes = 64 << 10; // 64 KiB — params alone exceed this
        config.degradation = degradation;
        let session = InferenceSession::open(config).unwrap();
        let mut rng = seeded_rng(141);
        session
            .load_model(zoo::fraud_fc_512(&mut rng).unwrap())
            .unwrap();
        session
    }

    #[test]
    fn udf_oom_degrades_to_relation_centric() {
        let session = starved_session(true);
        let batch = Tensor::from_fn([64, 28], |i| (i % 5) as f32 * 0.1);
        let degraded = session
            .infer_batch("Fraud-FC-512", &batch, Architecture::UdfCentric)
            .unwrap();
        assert_eq!(degraded.degraded_to, Some("relation-centric"));
        assert_eq!(degraded.architecture, "udf-centric");
        assert_eq!(degraded.output.num_rows(), 64);
        // The fallback output is the relation-centric output.
        let direct = session
            .infer_batch("Fraud-FC-512", &batch, Architecture::RelationCentric)
            .unwrap();
        assert_eq!(direct.degraded_to, None);
        assert_eq!(
            degraded.predictions().unwrap(),
            direct.predictions().unwrap()
        );
        let stats = session.stats();
        assert!(stats.db_oom_events >= 1);
        assert_eq!(stats.degradations, 1);
    }

    #[test]
    fn degradation_escape_hatch_surfaces_raw_oom() {
        let session = starved_session(false);
        let batch = Tensor::from_fn([64, 28], |i| (i % 5) as f32 * 0.1);
        let err = session
            .infer_batch("Fraud-FC-512", &batch, Architecture::UdfCentric)
            .unwrap_err();
        assert!(err.is_oom());
        assert_eq!(session.stats().degradations, 0);
    }

    #[test]
    fn dead_wire_dl_centric_degrades_to_relation_centric() {
        use relserve_runtime::{FaultConfig, FaultInjector};
        // Every shipment fails: the bounded retry exhausts, and the session
        // degrades the query to relation-centric instead of failing it.
        let session = fraud_session(16)
            .with_fault_injector(FaultInjector::new(FaultConfig::flaky_wire(7, 1.0)));
        let batch = session.features("transactions", "features").unwrap();
        let outcome = session
            .infer_batch(
                "Fraud-FC-256",
                &batch,
                Architecture::DlCentric(RuntimeProfile::tensorflow_like()),
            )
            .unwrap();
        assert_eq!(outcome.degraded_to, Some("relation-centric"));
        let oracle = session
            .infer_batch("Fraud-FC-256", &batch, Architecture::RelationCentric)
            .unwrap();
        assert_eq!(
            outcome.predictions().unwrap(),
            oracle.predictions().unwrap()
        );
        let stats = session.stats();
        assert_eq!(stats.degradations, 1);
        // Default policy: 4 attempts → 4 transient faults, 3 re-attempts.
        assert_eq!(stats.wire_transient_failures, 4);
        assert_eq!(stats.wire_retries, 3);
    }

    #[test]
    fn flaky_wire_dl_centric_heals_without_degrading() {
        use relserve_runtime::{FaultConfig, FaultInjector};
        let mut cfg = FaultConfig::flaky_wire(9, 1.0);
        cfg.max_faults = Some(1);
        let session = fraud_session(8).with_fault_injector(FaultInjector::new(cfg));
        let batch = session.features("transactions", "features").unwrap();
        let outcome = session
            .infer_batch(
                "Fraud-FC-256",
                &batch,
                Architecture::DlCentric(RuntimeProfile::tensorflow_like()),
            )
            .unwrap();
        assert_eq!(outcome.degraded_to, None);
        let stats = session.stats();
        assert_eq!(stats.degradations, 0);
        assert_eq!(stats.wire_transient_failures, 1);
        assert_eq!(stats.wire_retries, 1);
    }

    #[test]
    fn overloaded_session_sheds_with_typed_error() {
        use relserve_runtime::Error as RtError;
        let session = fraud_session(4);
        let batch = session.features("transactions", "features").unwrap();
        // Hold the whole machine, then ask for a query with a short queue
        // timeout: it must shed, not block.
        let hold = session.coordinator().admit(2).unwrap();
        let policy = AdmissionPolicy::with_queue_timeout(Duration::from_millis(20));
        let err = session
            .infer_batch_with("Fraud-FC-256", &batch, Architecture::UdfCentric, &policy)
            .unwrap_err();
        assert!(
            matches!(err, Error::Runtime(RtError::Overloaded { .. })),
            "{err:?}"
        );
        assert!(session.stats().shed >= 1);
        drop(hold);
        // The machine freed up: the same query now completes.
        let ok = session
            .infer_batch_with("Fraud-FC-256", &batch, Architecture::UdfCentric, &policy)
            .unwrap();
        assert_eq!(ok.output.num_rows(), 4);
    }

    #[test]
    fn expired_deadline_is_not_degraded() {
        let session = starved_session(true);
        let batch = Tensor::from_fn([16, 28], |i| (i % 5) as f32 * 0.1);
        let policy = AdmissionPolicy::with_deadline(Instant::now() - Duration::from_millis(1));
        let err = session
            .infer_batch_with("Fraud-FC-512", &batch, Architecture::UdfCentric, &policy)
            .unwrap_err();
        assert!(err.is_deadline_exceeded(), "{err:?}");
        assert_eq!(session.stats().degradations, 0);
    }

    /// The fused entry point demultiplexes exactly the per-part predictions
    /// a request-at-a-time execution would have produced.
    #[test]
    fn fused_batch_demuxes_per_request_predictions() {
        let session = fraud_session(0);
        let part_rows = [1usize, 5, 2, 8];
        let parts: Vec<Tensor> = part_rows
            .iter()
            .enumerate()
            .map(|(salt, &rows)| {
                Tensor::from_fn([rows, 28], move |i| {
                    ((i * 7 + salt * 31) % 13) as f32 * 0.1 - 0.6
                })
            })
            .collect();
        let fused = session
            .infer_fused(
                "Fraud-FC-256",
                &parts,
                Architecture::UdfCentric,
                &AdmissionPolicy::default(),
            )
            .unwrap();
        assert_eq!(fused.per_request.len(), parts.len());
        for (part, preds) in parts.iter().zip(&fused.per_request) {
            let solo = session
                .infer_batch("Fraud-FC-256", part, Architecture::UdfCentric)
                .unwrap();
            assert_eq!(preds, &solo.predictions().unwrap());
        }
        // Ragged widths and empty batches are rejected up front.
        let ragged = [
            Tensor::from_fn([2, 28], |_| 0.1),
            Tensor::from_fn([2, 27], |_| 0.1),
        ];
        assert!(session
            .infer_fused(
                "Fraud-FC-256",
                &ragged,
                Architecture::UdfCentric,
                &AdmissionPolicy::default()
            )
            .is_err());
        assert!(session
            .infer_fused(
                "Fraud-FC-256",
                &[],
                Architecture::UdfCentric,
                &AdmissionPolicy::default()
            )
            .is_err());
    }

    #[test]
    fn session_stats_counters_are_enumerable() {
        let session = fraud_session(4);
        let batch = session.features("transactions", "features").unwrap();
        session
            .infer_batch("Fraud-FC-256", &batch, Architecture::UdfCentric)
            .unwrap();
        let stats = session.stats();
        let counters = stats.counters();
        assert_eq!(counters.len(), 16);
        let admitted = counters
            .iter()
            .find(|(name, _)| *name == "admitted")
            .unwrap()
            .1;
        assert_eq!(admitted, stats.admitted);
        assert!(admitted >= 1);
    }

    #[test]
    fn weight_relations_are_built_once_and_the_scratch_file_stops_growing() {
        let session = fraud_session(0);
        let model = session.model("Fraud-FC-256").unwrap();
        let layers = model.layers().len() as u64;
        let disk = session.pool().disk();
        // Pages allocated and not given back: the artifact's, at load.
        let live = || disk.num_pages() - disk.free_pages() as u64;
        let (live_at_load, pages_at_load) = (live(), disk.num_pages());
        let batch = Tensor::from_fn([48, 28], |i| (i % 11) as f32 * 0.1 - 0.5);
        let query = || {
            let outcome = session
                .infer_batch("Fraud-FC-256", &batch, Architecture::RelationCentric)
                .unwrap();
            assert!(outcome.rel_stats.bytes_written > 0);
            outcome.predictions().unwrap()
        };
        // The weight relations were stored at load: the first query joins
        // against them, and keeps no page — all it allocated were its
        // temporaries, dropped by now.
        let first = query();
        let stats = session.stats();
        assert_eq!(
            (stats.weight_relation_builds, stats.weight_relation_reuses),
            (0, layers)
        );
        assert_eq!(live(), live_at_load, "the first query wrote a relation");
        let pages_after_first = disk.num_pages();
        let temporaries = pages_after_first - pages_at_load;
        assert!(temporaries > 0);
        for _ in 0..8 {
            assert_eq!(query(), first);
        }
        let stats = session.stats();
        assert_eq!(stats.weight_relation_builds, 0);
        assert_eq!(stats.weight_relation_reuses, 9 * layers);
        assert_eq!(live(), live_at_load);
        let growth = disk.num_pages() - pages_after_first;
        assert!(
            growth <= temporaries,
            "scratch file grew {growth} pages over 8 warm queries; one query's temporaries are {temporaries}"
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let session = fraud_session(1);
        let mut rng = seeded_rng(142);
        assert!(matches!(
            session.load_model(zoo::fraud_fc_256(&mut rng).unwrap()),
            Err(Error::AlreadyExists(_))
        ));
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        assert!(matches!(
            session.create_table("transactions", schema),
            Err(Error::AlreadyExists(_))
        ));
    }

    #[test]
    fn model_round_trips_through_catalog() {
        let session = fraud_session(1);
        let reloaded = session.reload_model_from_catalog("Fraud-FC-256").unwrap();
        let original = zoo::fraud_fc_256(&mut seeded_rng(140)).unwrap();
        assert_eq!(reloaded, original);
        // The session's copy holds no weight matrix, only where it is.
        let loaded = session.model("Fraud-FC-256").unwrap();
        assert!(loaded
            .layers()
            .iter()
            .all(|l| matches!(l, relserve_nn::Layer::Stored { .. })));
        assert_eq!(loaded.materialize().unwrap(), original);
        let object = session.catalog.get("Fraud-FC-256").unwrap();
        assert_eq!(object.kind, ObjectKind::Model);
        assert!(
            object.meta.is_empty(),
            "the artifact is on pages, not in meta"
        );
        let artifact_bytes = session.stats().artifact_bytes;
        assert_eq!(
            artifact_bytes,
            (object.pages.len() * relserve_storage::PAGE_SIZE) as u64
        );
        assert!(artifact_bytes >= original.param_bytes() as u64);
    }

    #[test]
    fn a_model_streams_in_from_any_reader_without_touching_the_pool() {
        let session = InferenceSession::open(tiny_config()).unwrap();
        let model = zoo::fraud_fc_512(&mut seeded_rng(143)).unwrap();
        let name = session.load_model_from(serialize::encode(&model)).unwrap();
        assert_eq!(name, "Fraud-FC-512");
        // The artifact went around the pool: no frame, no fetch.
        assert_eq!(session.pool().resident_pages(), 0);
        assert_eq!(
            session.pool().stats(),
            relserve_storage::PoolStats::default()
        );
        let batch = Tensor::from_fn([9, 28], |i| (i % 7) as f32 * 0.1 - 0.3);
        let par = relserve_tensor::parallel::Parallelism::serial();
        let served = session
            .infer_batch(&name, &batch, Architecture::UdfCentric)
            .unwrap()
            .output
            .into_dense()
            .unwrap();
        assert_eq!(served, model.forward(&batch, &par).unwrap());
        // A second load under the name is refused, and gives its pages back.
        let stats = session.stats();
        let free = session.pool().disk().free_pages();
        assert!(matches!(
            session.load_model_from(serialize::encode(&model)),
            Err(Error::AlreadyExists(_))
        ));
        assert_eq!(session.stats().artifact_bytes, stats.artifact_bytes);
        assert!(session.pool().disk().free_pages() > free);
        // A truncated artifact is a typed error, not a half-loaded model.
        let other = InferenceSession::open(tiny_config()).unwrap();
        let half = serialize::encode(&model).len() as u64 / 2;
        assert!(matches!(
            other.load_model_from(serialize::encode(&model).take(half)),
            Err(Error::Nn(relserve_nn::Error::Serde(_)))
        ));
        assert!(other.model("Fraud-FC-512").is_err());
        assert_eq!(other.stats().artifact_bytes, 0);
    }

    /// The pages layer `layer` of `model` stores its weight relation on.
    fn relation_pages(session: &InferenceSession, model: &str, layer: usize) -> Vec<PageId> {
        let models = session.models.lock();
        let (_, blocks) = models[model]
            .artifact
            .weight_relations()
            .find(|(l, _)| *l == layer)
            .expect("a dense layer's relation is stored");
        blocks.page_ids().collect()
    }

    /// Flip `mask` into the byte at `at` of page `page` of the session's
    /// scratch file.
    fn flip_byte(session: &InferenceSession, page: PageId, at: u64, mask: u8) {
        use std::os::unix::fs::FileExt;
        let offset = page.0 * relserve_storage::PAGE_SIZE as u64 + at;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(session.pool().disk().path())
            .unwrap();
        let mut byte = [0];
        file.read_exact_at(&mut byte, offset).unwrap();
        file.write_all_at(&[byte[0] ^ mask], offset).unwrap();
    }

    fn is_checksum(e: &Error) -> bool {
        matches!(e, Error::Storage(relserve_storage::Error::Checksum { .. }))
    }

    #[test]
    fn a_corrupt_artifact_page_is_a_checksum_error_never_a_wrong_weight() {
        let batch = Tensor::from_fn([6, 28], |i| (i % 5) as f32 * 0.2 - 0.4);
        let oracle = zoo::fraud_fc_256(&mut seeded_rng(140))
            .unwrap()
            .predict(&batch, &relserve_tensor::parallel::Parallelism::serial())
            .unwrap();
        for arch in [Architecture::UdfCentric, Architecture::RelationCentric] {
            let session = fraud_session(0);
            // A byte inside layer 0's weight payload.
            let page = relation_pages(&session, "Fraud-FC-256", 0)[0];
            flip_byte(&session, page, 2000, 0x40);
            let err = session
                .infer_batch("Fraud-FC-256", &batch, arch.clone())
                .unwrap_err();
            assert!(is_checksum(&err), "{arch}: {err}");
            let err = session
                .reload_model_from_catalog("Fraud-FC-256")
                .unwrap_err();
            assert!(is_checksum(&err), "{err}");
            // Nothing was built from the bad page: restored, the next query
            // reads the good one and answers as the model does.
            flip_byte(&session, page, 2000, 0x40);
            let stats = session.stats();
            assert_eq!(
                stats.prepared_weight_builds + stats.weight_relation_builds,
                0
            );
            let served = session.infer_batch("Fraud-FC-256", &batch, arch).unwrap();
            assert_eq!(served.predictions().unwrap(), oracle);
        }

        // A weight relation larger than the pool, which warm queries read
        // back from the scratch file: a page that changed there since is a
        // checksum error on the miss that reads it.
        let mut config = tiny_config();
        config.buffer_pool_bytes = 8 * relserve_storage::PAGE_SIZE;
        let session = InferenceSession::open(config).unwrap();
        session
            .load_model(zoo::fraud_fc_256(&mut seeded_rng(140)).unwrap())
            .unwrap();
        let pages = [0, 1].map(|layer| relation_pages(&session, "Fraud-FC-256", layer));
        let pages = pages.concat();
        assert!(pages.len() > session.pool().capacity());
        let query = || session.infer_batch("Fraud-FC-256", &batch, Architecture::RelationCentric);
        for _ in 0..2 {
            assert_eq!(query().unwrap().predictions().unwrap(), oracle);
        }
        let spilled = *pages
            .iter()
            .find(|id| session.pool().resident_among([**id]) == 0)
            .expect("a relation larger than the pool is partly on disk");
        flip_byte(&session, spilled, 100, 0x40);
        let err = query().unwrap_err();
        assert!(is_checksum(&err), "{err}");
        flip_byte(&session, spilled, 100, 0x40);
        assert_eq!(query().unwrap().predictions().unwrap(), oracle);
        assert_eq!(session.stats().weight_relation_builds, 0);
    }

    #[test]
    fn resident_bytes_are_reported_per_owner() {
        let session = fraud_session(0);
        let stats = session.stats();
        assert!(stats.artifact_bytes > 0, "the artifact is on pages");
        assert_eq!(stats.prepared_weight_bytes, 0);
        assert_eq!(stats.weight_relation_resident_bytes, 0);
        let batch = Tensor::from_fn([4, 28], |i| (i % 3) as f32 * 0.1);
        session
            .infer_batch("Fraud-FC-256", &batch, Architecture::RelationCentric)
            .unwrap();
        let relational = session.stats();
        assert!(relational.weight_relation_resident_bytes > 0);
        assert_eq!(relational.prepared_weight_bytes, 0);
        session
            .infer_batch("Fraud-FC-256", &batch, Architecture::UdfCentric)
            .unwrap();
        let dense = session.stats();
        assert!(dense.prepared_weight_bytes >= (28 * 256 + 256 * 2) * 4);
        assert_eq!(dense.artifact_bytes, stats.artifact_bytes);
        let exported: HashMap<&str, u64> = dense.counters().into_iter().collect();
        assert_eq!(
            exported["weight_relation_resident_bytes"],
            dense.weight_relation_resident_bytes
        );
        assert_eq!(exported["artifact_bytes"], dense.artifact_bytes);
    }

    #[test]
    fn an_int8_model_is_charged_its_int8_bytes() {
        // Encoder-FC@int8 holds ~2.5 MiB of levels and scales against
        // ~9.9 MiB of f32 parameters: a budget between the two must admit
        // the smaller version every dense executor runs.
        let f32_model = zoo::encoder_fc(&mut seeded_rng(150)).unwrap();
        let model = relserve_nn::quant::quantize_int8(&f32_model).unwrap().model;
        let budget = 6 << 20;
        assert!(model.param_bytes() < budget / 2);
        assert!(budget < model.num_params() * relserve_tensor::ELEM_BYTES);
        let config = SessionConfig::builder()
            .db_memory_bytes(budget)
            .buffer_pool_bytes(1 << 20)
            .memory_threshold_bytes(1 << 30)
            .cores(2)
            .transfer(TransferProfile::instant())
            .build()
            .unwrap();
        let session = InferenceSession::open(config).unwrap();
        session.load_model(model.clone()).unwrap();
        let batch = Tensor::from_fn([4, 76], |i| ((i % 13) as f32 - 6.0) * 0.1);
        let oracle = model
            .forward(&batch, &relserve_tensor::parallel::Parallelism::serial())
            .unwrap();
        for architecture in [
            Architecture::UdfCentric,
            Architecture::Pipelined { micro_batch: 2 },
        ] {
            let outcome = session
                .infer_batch(model.name(), &batch, architecture.clone())
                .unwrap();
            assert_eq!(outcome.degraded_to, None, "{architecture}");
            let out = outcome.output.into_dense().unwrap();
            assert!(out.approx_eq(&oracle, 1e-4), "{architecture}");
        }
        assert_eq!(session.governor().oom_events(), 0);
    }

    #[test]
    fn missing_objects_are_not_found() {
        let session = fraud_session(1);
        assert!(matches!(session.model("ghost"), Err(Error::NotFound(_))));
        assert!(matches!(session.table("ghost"), Err(Error::NotFound(_))));
        assert!(session
            .infer("ghost", "transactions", "features", Architecture::Adaptive)
            .is_err());
    }

    #[test]
    fn features_validates_column() {
        let session = fraud_session(3);
        let batch = session.features("transactions", "features").unwrap();
        assert_eq!(batch.shape().dims(), &[3, 28]);
        assert!(session.features("transactions", "id").is_err());
        assert!(session.features("transactions", "nope").is_err());
    }
    #[test]
    fn builder_rejects_degenerate_configs() {
        assert!(SessionConfig::builder().block_size(0).build().is_err());
        assert!(SessionConfig::builder().cores(0).build().is_err());
        assert!(SessionConfig::builder().db_memory_bytes(0).build().is_err());
        assert!(SessionConfig::builder()
            .buffer_pool_bytes(0)
            .build()
            .is_err());
        assert!(SessionConfig::builder()
            .external_memory_bytes(0)
            .build()
            .is_err());
        assert!(SessionConfig::builder()
            .retry(RetryPolicy {
                max_attempts: 0,
                base_backoff: Duration::ZERO,
                jitter: 0.0,
            })
            .build()
            .is_err());
        // The unmodified default passes validation.
        assert!(SessionConfig::builder().build().is_ok());
    }

    #[test]
    fn architecture_default_and_display() {
        assert_eq!(Architecture::default(), Architecture::Adaptive);
        assert_eq!(Architecture::Adaptive.to_string(), "adaptive");
        assert_eq!(Architecture::UdfCentric.to_string(), "udf-centric");
        assert_eq!(
            Architecture::Pipelined { micro_batch: 4 }.to_string(),
            "pipelined(mb=4)"
        );
        assert_eq!(
            Architecture::DlCentric(RuntimeProfile::tensorflow_like()).to_string(),
            "dl-centric(tensorflow-like)"
        );
    }

    /// A session holding `model`, with a threshold that leaves every plan
    /// udf-centric, and no tables yet.
    fn join_session(model: Model) -> InferenceSession {
        let mut config = tiny_config();
        config.memory_threshold_bytes = 1 << 30;
        let session = InferenceSession::open(config).unwrap();
        session.load_model(model).unwrap();
        session
    }

    /// A `(key, features)` table of `n` rows, `width` features each, keys
    /// `key_of(i)`; returns its keys and features.
    fn keyed_table(
        session: &InferenceSession,
        name: &str,
        n: usize,
        width: usize,
        key_of: impl Fn(usize) -> f32,
        seed: u64,
    ) -> (Vec<f32>, Tensor) {
        use rand::Rng;
        let schema = Schema::new(vec![
            Column::new("key", DataType::Float),
            Column::new("features", DataType::Vector),
        ]);
        session.create_table(name, schema).unwrap();
        let mut rng = seeded_rng(seed);
        let features = Tensor::from_fn([n, width], |_| rng.gen_range(-1.0f32..1.0));
        let keys: Vec<f32> = (0..n).map(key_of).collect();
        let rows: Vec<Tuple> = (0..n)
            .map(|i| {
                let row = features.row(i).unwrap().to_vec();
                Tuple::new(vec![Value::Float(keys[i]), Value::Vector(row)])
            })
            .collect();
        session.insert(name, &rows).unwrap();
        (keys, features)
    }

    fn join_query(epsilon: f32) -> JoinQuery<'static> {
        JoinQuery {
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
            epsilon,
        }
    }

    fn infer_join(
        session: &InferenceSession,
        model: &str,
        architecture: Architecture,
    ) -> Result<InferenceOutcome> {
        session.infer_join(
            model,
            &join_query(0.25),
            architecture,
            &AdmissionPolicy::default(),
        )
    }

    /// Run the join query adaptive, check that it pushed layer 0 below the
    /// join, and that its governor peak is its plan's estimate: node 0's —
    /// what the push-down holds — or, if larger, the rest of the plan's
    /// parameters and widest window, as a dense run holds them.
    fn pushed_down(session: &InferenceSession, name: &str) -> InferenceOutcome {
        session.governor().reset_peak();
        let outcome = infer_join(session, name, Architecture::Adaptive).unwrap();
        let plan = outcome.plan.as_ref().unwrap();
        assert!(plan.pushdown.is_some(), "{}", plan.explain());
        let model = session.model(name).unwrap();
        let params = |i: usize| model.layers()[i].param_bytes();
        let rest = &plan.ops[1..];
        let window = rest
            .iter()
            .map(|n| n.estimated_bytes - params(n.layer_index));
        let rest_peak =
            rest.iter().map(|n| params(n.layer_index)).sum::<usize>() + window.max().unwrap_or(0);
        let estimate = plan.ops[0].estimated_bytes.max(rest_peak);
        assert!(session.governor().peak() <= estimate);
        assert_eq!(session.governor().peak(), estimate);
        assert_eq!(session.governor().in_use(), 0);
        outcome
    }

    /// A 12-feature model whose 4-wide first layer the adaptive plan pushes
    /// below a join of 7 + 5 features.
    fn narrowing_model(seed: u64) -> Model {
        use relserve_nn::{Activation, Layer};
        let mut rng = seeded_rng(seed);
        Model::new("narrowing", [12])
            .push(Layer::dense(12, 4, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(4, 2, Activation::Softmax, &mut rng))
            .unwrap()
    }

    #[test]
    fn join_then_infer_is_forward_over_the_gathered_rows() {
        let model = narrowing_model(110);
        let session = join_session(model.clone());
        // Keys 0, 0.5, 1, ... on the left, 0, 1, 2, ... on the right: every
        // left row joins one or two right rows (ε = 0.25 keeps 0.5 apart).
        let (k1, x1) = keyed_table(&session, "d1", 30, 7, |i| i as f32 * 0.5, 1);
        let (k2, x2) = keyed_table(&session, "d2", 20, 5, |i| i as f32, 2);
        let pairs = band_join(&k1, &k2, 0.25).unwrap();
        let mut data = Vec::new();
        for &(i, j) in &pairs {
            data.extend_from_slice(x1.row(i).unwrap());
            data.extend_from_slice(x2.row(j).unwrap());
        }
        let batch = Tensor::from_vec([pairs.len(), 12], data).unwrap();
        let expect = model.forward(&batch, &Parallelism::serial()).unwrap();
        let outcome = infer_join(&session, "narrowing", Architecture::UdfCentric).unwrap();
        let plan = outcome.plan.clone().unwrap();
        assert_eq!((plan.batch_size, plan.pushdown), (pairs.len(), None));
        assert_eq!(outcome.output.into_dense().unwrap(), expect);
    }

    #[test]
    fn pushdown_matches_join_then_infer() {
        // The correctness heart of §7.2.1: both plans give the same
        // predictions, up to float reassociation. Keys 0, 1, 2, ... on both
        // sides: each row joins its twin.
        let session = join_session(narrowing_model(111));
        keyed_table(&session, "d1", 30, 7, |i| i as f32, 1);
        keyed_table(&session, "d2", 30, 5, |i| i as f32, 2);
        let pushed = pushed_down(&session, "narrowing");
        let baseline = infer_join(&session, "narrowing", Architecture::UdfCentric).unwrap();
        let plan = pushed.plan.clone().unwrap();
        assert_eq!(plan.pushdown, Some(7));
        assert!(plan
            .explain()
            .contains("layer 0 pushed below the join at column 7"));
        assert_eq!(plan.ops[0].label, "dense [7+5] -> [4]");
        let (a, b) = (
            baseline.output.into_dense().unwrap(),
            pushed.output.into_dense().unwrap(),
        );
        assert_eq!(a.shape().dims(), &[30, 2]);
        assert!(
            a.approx_eq(&b, 1e-5),
            "max diff {}",
            a.max_abs_diff(&b).unwrap()
        );
    }

    #[test]
    fn pushdown_handles_one_to_many_joins() {
        use relserve_nn::{Activation, Layer};
        let mut rng = seeded_rng(112);
        let model = Model::new("m", [8])
            .push(Layer::dense(8, 3, Activation::Relu, &mut rng))
            .unwrap()
            .push(Layer::dense(3, 2, Activation::Softmax, &mut rng))
            .unwrap();
        let session = join_session(model);
        // Two right rows share each key: every left row joins both.
        keyed_table(&session, "d1", 10, 5, |i| i as f32, 3);
        keyed_table(&session, "d2", 20, 3, |i| (i / 2) as f32, 4);
        let pushed = pushed_down(&session, "m");
        let baseline = infer_join(&session, "m", Architecture::UdfCentric).unwrap();
        assert_eq!(pushed.plan.as_ref().unwrap().pushdown, Some(5));
        let (a, b) = (
            baseline.output.into_dense().unwrap(),
            pushed.output.into_dense().unwrap(),
        );
        assert_eq!(a.shape().dims(), &[20, 2]);
        assert!(
            a.approx_eq(&b, 1e-5),
            "max diff {}",
            a.max_abs_diff(&b).unwrap()
        );
    }

    #[test]
    fn mismatched_feature_widths_are_refused() {
        let session = join_session(narrowing_model(113));
        keyed_table(&session, "d1", 5, 7, |i| i as f32, 5);
        keyed_table(&session, "d2", 5, 6, |i| i as f32, 6); // 7 + 6 ≠ 12
        for architecture in [Architecture::Adaptive, Architecture::UdfCentric] {
            let err = infer_join(&session, "narrowing", architecture).unwrap_err();
            assert!(
                matches!(err, Error::Nn(relserve_nn::Error::InputMismatch { .. })),
                "{err}"
            );
        }
        assert_eq!(
            session.governor().peak(),
            0,
            "a refused query reserves nothing"
        );
    }

    #[test]
    fn a_non_dense_first_layer_is_not_pushed_down() {
        use relserve_nn::{Activation, Layer};
        let mut rng = seeded_rng(114);
        let model = Model::new("conv", [4, 4, 1])
            .push(Layer::conv2d(1, 2, 1, 1, Activation::None, &mut rng))
            .unwrap();
        let session = join_session(model);
        keyed_table(&session, "d1", 5, 8, |i| i as f32, 7);
        keyed_table(&session, "d2", 5, 8, |i| i as f32, 8);
        let adaptive = infer_join(&session, "conv", Architecture::Adaptive).unwrap();
        assert_eq!(adaptive.plan.as_ref().unwrap().pushdown, None);
        let forced = infer_join(&session, "conv", Architecture::UdfCentric).unwrap();
        let (a, b) = (
            adaptive.output.into_dense().unwrap(),
            forced.output.into_dense().unwrap(),
        );
        assert_eq!(a.shape().dims(), &[5, 4, 4, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn an_int8_models_plan_has_no_pushdown() {
        let model = relserve_nn::quant::quantize_int8(&narrowing_model(115))
            .unwrap()
            .model;
        let name = model.name().to_string();
        let session = join_session(model);
        keyed_table(&session, "d1", 12, 7, |i| i as f32, 9);
        keyed_table(&session, "d2", 12, 5, |i| i as f32, 10);
        let adaptive = infer_join(&session, &name, Architecture::Adaptive).unwrap();
        let plan = adaptive.plan.as_ref().unwrap();
        assert_eq!(plan.pushdown, None);
        assert_eq!(plan.ops[0].kind, "quant_dense");
        let forced = infer_join(&session, &name, Architecture::UdfCentric).unwrap();
        assert_eq!(
            adaptive.output.into_dense().unwrap(),
            forced.output.into_dense().unwrap()
        );
    }

    #[test]
    fn a_bosch_shaped_pushdown_peaks_at_its_plans_estimate() {
        // Unequal sides, a one-to-many join and the paper's 968/256/2 model:
        // the partials outweigh neither side's run nor the summed output.
        let session = join_session(zoo::bosch_ffnn(&mut seeded_rng(116)).unwrap());
        keyed_table(&session, "d1", 40, 484, |i| (i / 2) as f32, 11);
        keyed_table(&session, "d2", 30, 484, |i| (i / 3) as f32, 12);
        let outcome = pushed_down(&session, "Bosch-FFNN");
        assert_eq!(outcome.output.num_rows(), 60);
    }

    #[test]
    fn a_join_query_past_its_deadline_fails_before_its_first_layer() {
        use relserve_runtime::Error as RtError;
        let session = join_session(narrowing_model(117));
        // Reading 8 000 rows a side takes milliseconds (debug and release);
        // admission, microseconds.
        keyed_table(&session, "d1", 8000, 7, |i| i as f32, 13);
        keyed_table(&session, "d2", 8000, 5, |i| i as f32, 14);
        // The deadline passes while the sides are read: the query stops at
        // the join's checks, before any layer reserves a byte.
        let mut phases = Vec::new();
        for architecture in [Architecture::Adaptive, Architecture::UdfCentric] {
            let policy =
                AdmissionPolicy::with_deadline(Instant::now() + Duration::from_micros(500));
            let err = session
                .infer_join("narrowing", &join_query(0.25), architecture, &policy)
                .unwrap_err();
            match err {
                Error::Runtime(RtError::DeadlineExceeded { phase }) => phases.push(phase),
                err => panic!("{err}"),
            }
        }
        assert!(phases.iter().all(|p| p != "exec.layer"), "{phases:?}");
        assert!(phases.iter().any(|p| p.starts_with("join.")), "{phases:?}");
        assert_eq!(session.governor().peak(), 0, "no layer ran");
    }

    #[test]
    fn shared_sessions_share_admission_ledger() {
        let first = InferenceSession::open(tiny_config()).unwrap();
        let second = InferenceSession::open_shared(tiny_config(), first.coordinator()).unwrap();
        let grant = first.coordinator().admit(2).unwrap();
        assert_eq!(second.coordinator().granted_threads(), 2);
        drop(grant);
        assert_eq!(second.coordinator().granted_threads(), 0);
    }
}
