//! The high-level detection engine: registry + worker pool + streams.
//!
//! [`Engine`] is the long-lived serving object of the crate: it owns a
//! [`ModelRegistry`] of fitted models and a [`WorkerPool`] of scoring
//! threads, and exposes batch fit/score over many series plus named
//! incremental streaming sessions — the multi-tenant workload shape the
//! single-model `s2g-core` API doesn't cover.
//!
//! An engine can additionally mount a durable [`ModelStorage`] backend
//! (see [`Engine::attach_storage`]): every successful fit is persisted
//! (*save-on-fit*), registry misses fall through to the store
//! (*load-through*), and removals delete the stored file too
//! (*delete-through*) — which is how a serving process survives restarts
//! without refitting anything.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use s2g_adapt::{AdaptAction, AdaptConfig, DriftStats};
use s2g_core::{AdaptationLineage, S2gConfig, Series2Graph};
use s2g_obs::{Obs, SpanCtx};
use s2g_timeseries::TimeSeries;

use crate::codec;
use crate::error::{Error, Result};
use crate::pool::{FitJob, ScoreJob, WorkerPool};
use crate::registry::{self, ModelInfo, ModelRegistry};
use crate::storage::{ModelStorage, StoredModelMeta};

/// Adaptation status of one push against an adaptive stream, after the
/// engine has published any due snapshot.
#[derive(Debug, Clone)]
pub struct AdaptStatus {
    /// Cumulative accepted decay updates of the session.
    pub updates: u64,
    /// Cumulative successful refits of the session.
    pub refits: u64,
    /// The last policy decision during this push.
    pub action: AdaptAction,
    /// Drift statistics after this push.
    pub drift: DriftStats,
    /// Content checksum of the snapshot this push published (registered
    /// in the registry and persisted when a store is mounted); `None`
    /// when no snapshot was due.
    pub published_checksum: Option<u64>,
}

/// Construction parameters for an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads in the scoring pool.
    pub workers: usize,
    /// Registry capacity (`0` = unbounded); past it the least-recently-used
    /// model is evicted on insert.
    pub registry_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map_or(2, |n| n.get())
            .clamp(1, 8);
        EngineConfig {
            workers,
            registry_capacity: 0,
        }
    }
}

impl EngineConfig {
    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the registry capacity (`0` = unbounded).
    pub fn with_registry_capacity(mut self, capacity: usize) -> Self {
        self.registry_capacity = capacity;
        self
    }
}

/// Long-lived, thread-safe detection engine serving many series and models.
#[derive(Debug)]
pub struct Engine {
    registry: ModelRegistry,
    pool: WorkerPool,
    storage: Option<Arc<dyn ModelStorage>>,
    /// Observability registry, when the serving layer attached one; every
    /// instrument is optional and recording never changes a result bit.
    obs: Option<Arc<Obs>>,
    /// Serialises (persist, register) and (unregister, delete) pairs so
    /// the store and the registry can never disagree about which fit of a
    /// name won an interleaving. Never held across a fit or a score —
    /// only across registration bookkeeping (plus the store write on the
    /// save-on-fit path).
    registration: Mutex<()>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl Engine {
    /// Builds an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            registry: ModelRegistry::new(config.registry_capacity),
            pool: WorkerPool::new(config.workers),
            storage: None,
            obs: None,
            registration: Mutex::new(()),
        }
    }

    fn registration_guard(&self) -> std::sync::MutexGuard<'_, ()> {
        // The guard protects no data of its own; a poisoned lock cannot
        // leave torn state.
        self.registration.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mounts a durable model store: from now on every successful fit is
    /// persisted (*save-on-fit*), registry misses fall through to the store
    /// (*load-through*), and removals delete the stored file too
    /// (*delete-through*). Call before the engine starts serving.
    pub fn attach_storage(&mut self, storage: Arc<dyn ModelStorage>) {
        self.storage = Some(storage);
    }

    /// The mounted durable store, if any.
    pub fn storage(&self) -> Option<&Arc<dyn ModelStorage>> {
        self.storage.as_ref()
    }

    /// Attaches the observability registry (see [`s2g_obs::Obs`]): fit
    /// durations, pool queue-wait/execute splits and adaptation push
    /// latency start recording. Request spans passed to
    /// [`Engine::score_many`] and friends attach engine- and pool-level
    /// children either way. Call before serving, alongside
    /// [`Engine::attach_storage`].
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.pool.attach_obs(Arc::clone(&obs));
        self.obs = Some(obs);
    }

    /// The attached observability registry, if any.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Current channel backlog per pool worker (see
    /// [`crate::pool::WorkerPool::queue_depths`]); exported by the serving
    /// layer as per-worker queue-depth gauges.
    pub fn queue_depths(&self) -> Vec<u64> {
        self.pool.queue_depths()
    }

    /// The engine's model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Number of worker threads in the scoring pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Cumulative per-worker scheduler counters of the pool (executed and
    /// stolen batch tasks; see [`crate::pool::WorkerStats`]). Exported by
    /// the serving layer as `GET /metrics` gauges.
    pub fn worker_stats(&self) -> Vec<crate::pool::WorkerStats> {
        self.pool.worker_stats()
    }

    /// Pool tasks admitted but not yet claimed by a worker — the backlog
    /// gauge the serving layer's admission gate sheds on.
    pub fn pending_tasks(&self) -> u64 {
        self.pool.pending_tasks()
    }

    /// Pool tasks whose compute panicked (the worker survived and the
    /// submitter got a typed error).
    pub fn task_panics(&self) -> u64 {
        self.pool.task_panics()
    }

    /// Pool tasks rejected because their deadline expired while queued.
    pub fn deadline_expired(&self) -> u64 {
        self.pool.deadline_expired()
    }

    /// Registers a freshly fitted model, persisting it first when a store
    /// is mounted (save-on-fit): the model becomes durable *before* it
    /// becomes visible, so a crash can never leave a registered-but-lost
    /// model. The store's file trailer doubles as the registry checksum,
    /// avoiding a second encode.
    fn register_fitted(
        &self,
        name: String,
        model: Arc<Series2Graph>,
        span: Option<&SpanCtx>,
    ) -> Result<(Arc<Series2Graph>, ModelInfo)> {
        // Save + insert must be atomic per name: without the guard, two
        // concurrent fits of the same name could interleave so that the
        // store keeps one model while the registry serves the other —
        // and a restart would silently change which model answers.
        let _guard = self.registration_guard();
        self.register_fitted_locked(name, model, span)
    }

    /// [`Engine::register_fitted`] body; the caller holds the
    /// registration guard.
    fn register_fitted_locked(
        &self,
        name: String,
        model: Arc<Series2Graph>,
        span: Option<&SpanCtx>,
    ) -> Result<(Arc<Series2Graph>, ModelInfo)> {
        match &self.storage {
            Some(storage) => {
                let save_span = span.map(|ctx| {
                    let mut span = ctx.child("store.save");
                    span.attr("model", name.clone());
                    span
                });
                let checksum = storage.save(&name, &model)?;
                drop(save_span);
                Ok(self
                    .registry
                    .insert_arc_with_checksum(name, model, checksum))
            }
            None => Ok(self.registry.insert_arc_with_info(name, model)),
        }
    }

    /// Fits one model inline (on the calling thread), persists it when a
    /// store is mounted, and registers it. Returns the model with the
    /// [`ModelInfo`] of exactly this registration — ordinal and checksum
    /// included, with no re-lookup that a concurrent re-fit of the same
    /// name could race.
    ///
    /// Under a trace (`span` is `Some`) an `engine.fit` span covers the
    /// inline fit and a `store.save` span the save-on-fit write. The
    /// fit-duration histogram records either way once an [`Obs`] is
    /// attached. Results are identical with or without a span.
    ///
    /// # Errors
    /// [`Error::InvalidName`] before any work happens; fit or persistence
    /// errors otherwise (nothing is registered on failure).
    pub fn fit_model(
        &self,
        name: impl Into<String>,
        series: &TimeSeries,
        config: &S2gConfig,
        span: Option<&SpanCtx>,
    ) -> Result<(Arc<Series2Graph>, ModelInfo)> {
        let name = name.into();
        registry::validate_model_name(&name)?;
        let fit_span = span.map(|ctx| {
            let mut span = ctx.child("engine.fit");
            span.attr("model", name.clone());
            span.attr("train_len", series.len().to_string());
            span
        });
        let started = Instant::now();
        let model = Arc::new(Series2Graph::fit(series, config)?);
        if let Some(obs) = &self.obs {
            obs.fit.record_duration(started.elapsed());
        }
        drop(fit_span);
        self.register_fitted(name, model, span)
    }

    /// Fits many models in parallel across the pool and registers each under
    /// its name (persisting it first when a store is mounted). Results come
    /// back in submission order; failed fits leave the registry untouched
    /// for that name, and invalid names fail without costing a fit.
    pub fn fit_many(
        &self,
        jobs: Vec<(String, TimeSeries, S2gConfig)>,
    ) -> Vec<Result<Arc<Series2Graph>>> {
        let mut out: Vec<Option<Result<Arc<Series2Graph>>>> = Vec::with_capacity(jobs.len());
        let mut names = Vec::new();
        let mut fit_jobs = Vec::new();
        let mut slots = Vec::new();
        for (slot, (name, series, config)) in jobs.into_iter().enumerate() {
            match registry::validate_model_name(&name) {
                Err(e) => out.push(Some(Err(e))),
                Ok(()) => {
                    out.push(None);
                    names.push(name);
                    fit_jobs.push(FitJob { series, config });
                    slots.push(slot);
                }
            }
        }
        for ((result, name), slot) in self
            .pool
            .fit_batch(fit_jobs, None)
            .into_iter()
            .zip(names)
            .zip(slots)
        {
            out[slot] = Some(result.and_then(|model| {
                self.register_fitted(name, Arc::new(model), None)
                    .map(|(m, _)| m)
            }));
        }
        out.into_iter()
            .map(|slot| slot.expect("every slot is filled"))
            .collect()
    }

    /// The model registered under `name`, loading it through from the
    /// mounted store on a registry miss (and registering the loaded model,
    /// so later lookups are pure cache hits). Under a trace a load-through
    /// is covered by a `store.load` span — the store-layer leg of a
    /// request's span tree. Results are identical with or without a span.
    ///
    /// # Errors
    /// [`crate::Error::UnknownModel`] when neither the registry nor the
    /// store has the model; store I/O or decode errors otherwise.
    pub fn model_handle(&self, name: &str, span: Option<&SpanCtx>) -> Result<Arc<Series2Graph>> {
        if let Some(model) = self.registry.get(name) {
            return Ok(model);
        }
        if let Some(storage) = &self.storage {
            let load_span = span.map(|ctx| {
                let mut span = ctx.child("store.load");
                span.attr("model", name.to_string());
                span
            });
            // The (slow, idempotent) store load runs outside the
            // registration guard; only the insert is serialised.
            let loaded = storage.load(name)?;
            drop(load_span);
            if let Some(model) = loaded {
                let _guard = self.registration_guard();
                // A fit may have registered a *newer* model while we were
                // loading; it takes precedence over our (by now stale)
                // load-through.
                if let Some(current) = self.registry.get(name) {
                    return Ok(current);
                }
                let handle = match storage.meta(name) {
                    Some(meta) => {
                        self.registry
                            .insert_arc_with_checksum(name, model, meta.checksum)
                            .0
                    }
                    None => self.registry.insert_arc(name, model),
                };
                return Ok(handle);
            }
        }
        Err(Error::UnknownModel(name.to_string()))
    }

    /// Scores many series against one registered model in parallel across the
    /// pool, returning per-series anomaly-score profiles in input order —
    /// identical to a sequential loop over [`Series2Graph::anomaly_scores`].
    /// Under a trace a load-through registry miss gets a `store.load` span
    /// and every pool task a `pool.score` span, all children of `span` —
    /// the server→pool→store tree a traced request shows. Results are
    /// identical with or without a span.
    ///
    /// # Errors
    /// [`crate::Error::UnknownModel`] when `model_name` is not registered;
    /// per-series scoring errors surface in the matching output slot.
    pub fn score_many(
        &self,
        model_name: &str,
        series: Vec<TimeSeries>,
        query_length: usize,
        span: Option<&SpanCtx>,
    ) -> Result<Vec<Result<Vec<f64>>>> {
        let model = self.model_handle(model_name, span)?;
        let jobs = series
            .into_iter()
            .map(|series| ScoreJob {
                model: Arc::clone(&model),
                series,
                query_length,
            })
            .collect();
        Ok(self.pool.score_batch(jobs, span))
    }

    /// Scores heterogeneous `(model, series, query_length)` jobs in
    /// parallel; `span` works as in [`Engine::score_many`].
    pub fn score_batch(
        &self,
        jobs: Vec<ScoreJob>,
        span: Option<&SpanCtx>,
    ) -> Vec<Result<Vec<f64>>> {
        self.pool.score_batch(jobs, span)
    }

    /// Metadata for every registered model, ordered by insertion ordinal
    /// (oldest registration first). See [`ModelInfo`].
    ///
    /// # Example
    ///
    /// ```
    /// use s2g_engine::{Engine, S2gConfig};
    /// use s2g_timeseries::TimeSeries;
    ///
    /// let engine = Engine::default();
    /// let series = TimeSeries::from(
    ///     (0..2000)
    ///         .map(|i| (std::f64::consts::TAU * i as f64 / 80.0).sin())
    ///         .collect::<Vec<f64>>(),
    /// );
    /// engine.fit_model("pump-a", &series, &S2gConfig::new(40), None).unwrap();
    /// engine.fit_model("pump-b", &series, &S2gConfig::new(40), None).unwrap();
    /// let infos = engine.list_models();
    /// assert_eq!(infos.len(), 2);
    /// assert_eq!(infos[0].name, "pump-a");
    /// assert!(infos[0].fitted_at < infos[1].fitted_at);
    /// ```
    pub fn list_models(&self) -> Vec<ModelInfo> {
        let mut infos = self.registry.list();
        if let Some(storage) = &self.storage {
            for meta in storage.list() {
                if !infos.iter().any(|info| info.name == meta.name) {
                    infos.push(stored_meta_to_info(meta));
                }
            }
            // Store-only models carry ordinal 0 ("persisted, not loaded
            // this process") and sort before everything fitted or loaded
            // since startup; names break the tie deterministically.
            infos.sort_by(|a, b| {
                a.fitted_at
                    .cmp(&b.fitted_at)
                    .then_with(|| a.name.cmp(&b.name))
            });
        }
        infos
    }

    /// Metadata for the model registered under `name`, falling back to the
    /// mounted store's header metadata (with `fitted_at == 0`) for models
    /// that are persisted but not loaded this process.
    pub fn model_info(&self, name: &str) -> Option<ModelInfo> {
        self.registry.info(name).or_else(|| {
            self.storage
                .as_ref()
                .and_then(|storage| storage.meta(name))
                .map(stored_meta_to_info)
        })
    }

    /// Content checksum of the model registered under `name`: the FNV-1a
    /// trailer of its encoded form (see [`crate::codec::model_checksum`]),
    /// cached at registration — or read from the store's metadata for a
    /// model that is persisted but not loaded — so this lookup is O(1).
    /// Equal checksums mean bit-identical encoded models.
    ///
    /// # Errors
    /// [`crate::Error::UnknownModel`] when `name` is neither registered nor
    /// stored.
    pub fn model_checksum(&self, name: &str) -> Result<u64> {
        self.model_info(name)
            .map(|info| info.checksum)
            .ok_or_else(|| crate::Error::UnknownModel(name.to_string()))
    }

    /// Removes the model registered under `name`, deleting its stored file
    /// too when a store is mounted (delete-through). Returns `Ok(true)`
    /// when a model was removed from either place. Open streaming sessions
    /// keep scoring against their `Arc`-shared handle until they are
    /// closed — but an *adaptive* session stops publishing snapshots for
    /// a removed name (see [`Engine::publish_adapted`]), so the deletion
    /// sticks.
    ///
    /// # Errors
    /// Store filesystem failures (the registry entry is gone regardless).
    pub fn remove_model(&self, name: &str) -> Result<bool> {
        // Serialised against registrations, so a racing fit either
        // completes before the removal (and is removed) or registers
        // after it (and survives, in both the registry and the store).
        let _guard = self.registration_guard();
        let in_registry = self.registry.remove(name).is_some();
        let in_store = match &self.storage {
            Some(storage) => storage.remove(name)?,
            None => false,
        };
        Ok(in_registry || in_store)
    }

    /// Opens a named incremental streaming session against a registered
    /// model. The session is pinned to one pool shard; pushes for the same id
    /// are processed in order.
    pub fn open_stream(
        &self,
        stream_id: impl Into<String>,
        model_name: &str,
        query_length: usize,
    ) -> Result<()> {
        let model = self.model_handle(model_name, None)?;
        self.pool.open_stream(stream_id, model, query_length)
    }

    /// Opens an *adaptive* streaming session: the session's model copy
    /// tracks confirmed-normal behaviour with decayed edge updates and
    /// refits from recent history when the score distribution drifts (see
    /// `s2g_adapt`). Snapshots the session publishes are registered under
    /// `model_name` — an atomic version swap: sessions already open keep
    /// scoring their pinned version, new sessions and scores see the
    /// adapted one — and persisted when a store is mounted. The snapshot
    /// lineage records this model's checksum as parent.
    pub fn open_adaptive_stream(
        &self,
        stream_id: impl Into<String>,
        model_name: &str,
        query_length: usize,
        config: AdaptConfig,
    ) -> Result<()> {
        // Handle and checksum must describe the *same* registration (a
        // by-name re-lookup could race a concurrent re-fit), so both are
        // read under one registry lock; the checksum was cached there at
        // registration. The re-encode fallback only runs when the model
        // is not registry-resident even after a load-through — i.e. a
        // concurrent removal won the race.
        let (model, parent_checksum) = match self.registry.get_with_checksum(model_name) {
            Some(pair) => pair,
            None => {
                let model = self.model_handle(model_name, None)?;
                match self.registry.get_with_checksum(model_name) {
                    Some(pair) => pair,
                    None => {
                        let checksum = codec::model_checksum(&model);
                        (model, checksum)
                    }
                }
            }
        };
        self.pool.open_adaptive_stream(
            stream_id,
            model,
            query_length,
            config,
            model_name,
            parent_checksum,
        )
    }

    /// Feeds points into an open stream, returning the emitted
    /// `(window_start, normality)` pairs plus — for adaptive sessions —
    /// the adaptation status. When the session produced a snapshot, it is
    /// registered under the session's model name (and persisted when a
    /// store is mounted) *before* this returns, so a restart right after
    /// the push serves the adapted model.
    ///
    /// Under a trace the pinned worker opens a `pool.push` span, and a due
    /// snapshot's publication an `engine.publish` span (with `store.save`
    /// below it when a store is mounted). Results are identical with or
    /// without a span.
    #[allow(clippy::type_complexity)]
    pub fn push_stream(
        &self,
        stream_id: &str,
        values: &[f64],
        span: Option<&SpanCtx>,
    ) -> Result<(Vec<(usize, f64)>, Option<AdaptStatus>)> {
        let push = self.pool.push_stream(stream_id, values, span)?;
        let status = match push.adapt {
            None => None,
            Some(report) => {
                let published_checksum = match report.snapshot {
                    Some(snapshot) => {
                        self.publish_adapted(&report.model_name, Arc::new(snapshot), span)?
                    }
                    None => None,
                };
                Some(AdaptStatus {
                    updates: report.updates,
                    refits: report.refits,
                    action: report.action,
                    drift: report.drift,
                    published_checksum,
                })
            }
        };
        Ok((push.emitted, status))
    }

    /// Publishes an adapted snapshot under `name`: persisted first when a
    /// store is mounted (durable before visible, like any fit), then
    /// atomically swapped into the registry. Returns the snapshot's
    /// content checksum, or `Ok(None)` when `name` no longer denotes a
    /// model — an open adaptive session must not *resurrect* a model the
    /// operator deleted, so publication is skipped once the name is gone
    /// from both the registry and the store (the session keeps scoring
    /// against its pinned handle regardless). Open sessions keep their
    /// pinned `Arc` handles; everything that resolves `name` from now on
    /// gets the snapshot. Under a trace the registration (and its
    /// save-on-fit `store.save`) nests below an `engine.publish` span.
    pub fn publish_adapted(
        &self,
        name: &str,
        snapshot: Arc<Series2Graph>,
        span: Option<&SpanCtx>,
    ) -> Result<Option<u64>> {
        registry::validate_model_name(name)?;
        let publish_span = span.map(|ctx| {
            let mut span = ctx.child("engine.publish");
            span.attr("model", name.to_string());
            span
        });
        let publish_ctx = publish_span.as_ref().map(|s| s.ctx());
        // The existence check and the swap share the registration guard,
        // so a concurrent remove_model either completes before (and the
        // publication is skipped) or after (and removes the snapshot) —
        // never interleaved so that a deleted name comes back.
        let _guard = self.registration_guard();
        let exists = self.registry.peek(name).is_some()
            || self
                .storage
                .as_ref()
                .is_some_and(|storage| storage.meta(name).is_some());
        if !exists {
            return Ok(None);
        }
        let (_, info) =
            self.register_fitted_locked(name.to_string(), snapshot, publish_ctx.as_ref())?;
        Ok(Some(info.checksum))
    }

    /// Adaptation lineage of the model registered under `name`: `Some`
    /// for an adapted snapshot, `None` for a pristine fit or an unknown
    /// name. Falls back to the mounted store for models that are persisted
    /// but not loaded; never bumps registry recency and never faults in a
    /// stored model's payload.
    pub fn model_lineage(&self, name: &str) -> Option<AdaptationLineage> {
        if let Some(model) = self.registry.peek(name) {
            return model.lineage().copied();
        }
        self.storage.as_ref().and_then(|s| s.lineage(name))
    }

    /// Closes a stream, returning how many points it consumed.
    pub fn close_stream(&self, stream_id: &str) -> Result<usize> {
        self.pool.close_stream(stream_id)
    }

    /// Closes many streams at once, ignoring ids that are not open, and
    /// returns how many were actually closed. This is the bulk-eviction
    /// primitive a serving front-end uses to reap idle sessions.
    pub fn close_streams<S: AsRef<str>>(&self, stream_ids: &[S]) -> usize {
        stream_ids
            .iter()
            .filter(|id| self.pool.close_stream(id.as_ref()).is_ok())
            .count()
    }

    /// Persists a registered model to `path`.
    pub fn save_model(&self, name: &str, path: impl AsRef<Path>) -> Result<()> {
        self.registry.save(name, path)
    }

    /// Loads a persisted model from `path` into the registry under `name`.
    pub fn load_model(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<Arc<Series2Graph>> {
        self.registry.load(name, path)
    }
}

/// [`ModelInfo`] view of a stored-but-not-loaded model: ordinal 0 marks it
/// as persisted rather than registered this process.
fn stored_meta_to_info(meta: StoredModelMeta) -> ModelInfo {
    ModelInfo {
        name: meta.name,
        pattern_length: meta.pattern_length,
        node_count: meta.node_count,
        edge_count: meta.edge_count,
        train_len: meta.train_len,
        fitted_at: 0,
        checksum: meta.checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize, period: f64, phase: f64) -> TimeSeries {
        TimeSeries::from(
            (0..n)
                .map(|i| (std::f64::consts::TAU * i as f64 / period + phase).sin())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn fit_many_registers_models() {
        let engine = Engine::new(EngineConfig::default().with_workers(3));
        let jobs: Vec<(String, TimeSeries, S2gConfig)> = (0..4)
            .map(|i| {
                (
                    format!("m{i}"),
                    sine(1800, 60.0 + 10.0 * i as f64, 0.0),
                    S2gConfig::new(40),
                )
            })
            .collect();
        let results = engine.fit_many(jobs);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(engine.registry().len(), 4);
        assert_eq!(
            engine.registry().names(),
            vec![
                "m0".to_string(),
                "m1".to_string(),
                "m2".to_string(),
                "m3".to_string()
            ]
        );
    }

    #[test]
    fn score_many_requires_known_model() {
        let engine = Engine::default();
        assert!(engine
            .score_many("nope", vec![sine(500, 50.0, 0.0)], 100, None)
            .is_err());
    }

    #[test]
    fn model_metadata_and_removal() {
        let engine = Engine::default();
        engine
            .fit_model("m", &sine(2000, 80.0, 0.0), &S2gConfig::new(40), None)
            .unwrap();
        let info = engine.model_info("m").unwrap();
        assert_eq!(info.pattern_length, 40);
        assert_eq!(info.train_len, 2000);
        assert_eq!(engine.list_models(), vec![info]);
        let checksum = engine.model_checksum("m").unwrap();
        let encoded = crate::codec::encode_model(&engine.registry().require("m").unwrap());
        assert_eq!(
            checksum,
            u64::from_le_bytes(encoded[encoded.len() - 8..].try_into().unwrap())
        );
        assert!(engine.model_checksum("gone").is_err());
        assert!(engine.remove_model("m").unwrap());
        assert!(!engine.remove_model("m").unwrap());
        assert!(engine.list_models().is_empty());
    }

    #[test]
    fn close_streams_evicts_open_sessions_only() {
        let engine = Engine::new(EngineConfig::default().with_workers(2));
        engine
            .fit_model("base", &sine(3000, 80.0, 0.0), &S2gConfig::new(40), None)
            .unwrap();
        engine.open_stream("a", "base", 160).unwrap();
        engine.open_stream("b", "base", 160).unwrap();
        let closed = engine.close_streams(&["a", "missing", "b"]);
        assert_eq!(closed, 2);
        assert!(engine.push_stream("a", &[0.0], None).is_err());
    }

    #[test]
    fn streams_round_trip_through_engine() {
        let engine = Engine::new(EngineConfig::default().with_workers(2));
        engine
            .fit_model("base", &sine(3000, 80.0, 0.0), &S2gConfig::new(40), None)
            .unwrap();
        engine.open_stream("sensor-1", "base", 160).unwrap();
        let (emitted, _) = engine
            .push_stream("sensor-1", sine(400, 80.0, 0.1).values(), None)
            .unwrap();
        assert_eq!(emitted.len(), 400 - 160 + 1);
        assert_eq!(engine.close_stream("sensor-1").unwrap(), 400);
    }
}
