//! Engine-level adaptation and registry-recency tests:
//!
//! * LRU regression: eviction order under mixed stored/resident access —
//!   a store load-through counts as a use exactly like a registry hit,
//!   and metadata reads never perturb the order;
//! * version swap: an adaptive session's published snapshot replaces the
//!   registry entry atomically — existing sessions keep their pinned
//!   version, new lookups see the adapted one;
//! * save-on-publish: published snapshots (lineage included) reach the
//!   mounted store.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use s2g_engine::codec;
use s2g_engine::{
    AdaptConfig, Engine, EngineConfig, Error, ModelStorage, S2gConfig, Series2Graph,
    StoredModelMeta,
};
use s2g_timeseries::TimeSeries;

/// Minimal in-memory [`ModelStorage`]: encoded bytes in a map. Lets these
/// tests exercise the engine's storage paths without the `s2g-store`
/// crate (which sits above the engine in the dependency graph).
#[derive(Debug, Default)]
struct MemStorage {
    files: Mutex<HashMap<String, Vec<u8>>>,
}

impl MemStorage {
    fn lineage_of(&self, name: &str) -> Option<s2g_engine::AdaptationLineage> {
        let files = self.files.lock().unwrap();
        let bytes = files.get(name)?;
        codec::decode_model(bytes).ok()?.lineage().copied()
    }
}

impl ModelStorage for MemStorage {
    fn save(&self, name: &str, model: &Arc<Series2Graph>) -> Result<u64, Error> {
        let bytes = codec::encode_model(model);
        let checksum = codec::checksum_trailer(&bytes);
        self.files.lock().unwrap().insert(name.to_string(), bytes);
        Ok(checksum)
    }

    fn load(&self, name: &str) -> Result<Option<Arc<Series2Graph>>, Error> {
        match self.files.lock().unwrap().get(name) {
            None => Ok(None),
            Some(bytes) => Ok(Some(Arc::new(codec::decode_model(bytes)?))),
        }
    }

    fn meta(&self, name: &str) -> Option<StoredModelMeta> {
        let files = self.files.lock().unwrap();
        let bytes = files.get(name)?;
        let model = codec::decode_model(bytes).ok()?;
        Some(StoredModelMeta {
            name: name.to_string(),
            version: codec::FORMAT_VERSION,
            file_len: bytes.len() as u64,
            checksum: codec::checksum_trailer(bytes),
            pattern_length: model.pattern_length(),
            node_count: model.node_count(),
            edge_count: model.graph().edge_count(),
            train_len: model.train_len(),
            points_len: model.embedding().points.len(),
            points_bytes: 0,
        })
    }

    fn lineage(&self, name: &str) -> Option<s2g_engine::AdaptationLineage> {
        self.lineage_of(name)
    }

    fn remove(&self, name: &str) -> Result<bool, Error> {
        Ok(self.files.lock().unwrap().remove(name).is_some())
    }

    fn list(&self) -> Vec<StoredModelMeta> {
        let names: Vec<String> = self.files.lock().unwrap().keys().cloned().collect();
        names.iter().filter_map(|n| self.meta(n)).collect()
    }

    fn stored(&self) -> usize {
        self.files.lock().unwrap().len()
    }

    fn resident_bytes(&self) -> u64 {
        0
    }
}

fn sine(n: usize, period: f64) -> TimeSeries {
    TimeSeries::from(
        (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / period).sin())
            .collect::<Vec<f64>>(),
    )
}

fn engine_with_store(capacity: usize) -> (Engine, Arc<MemStorage>) {
    let storage = Arc::new(MemStorage::default());
    let mut engine = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_registry_capacity(capacity),
    );
    engine.attach_storage(Arc::<MemStorage>::clone(&storage));
    (engine, storage)
}

#[test]
fn lru_eviction_order_under_mixed_stored_and_resident_access() {
    let (engine, _storage) = engine_with_store(2);
    let config = S2gConfig::new(40);
    engine
        .fit_model("m1", &sine(1500, 80.0), &config, None)
        .unwrap();
    engine
        .fit_model("m2", &sine(1500, 70.0), &config, None)
        .unwrap();
    engine
        .fit_model("m3", &sine(1500, 60.0), &config, None)
        .unwrap();
    // Capacity 2: m1 was evicted from the registry but persists in the
    // store; all three remain listed.
    assert_eq!(engine.registry().len(), 2);
    assert_eq!(engine.list_models().len(), 3);
    assert!(engine.registry().peek("m1").is_none());

    // A load-through is a *use*: m1 must come back as the most recent,
    // evicting m2 (the least recently used of the residents).
    engine.model_handle("m1", None).unwrap();
    assert!(engine.registry().peek("m1").is_some());
    assert!(engine.registry().peek("m2").is_none(), "m2 was the LRU");
    assert!(engine.registry().peek("m3").is_some());

    // A registry hit and a load-through must age identically: touch m3
    // (hit), so m1 becomes the LRU again…
    engine.model_handle("m3", None).unwrap();
    // …and metadata reads must NOT count as uses, no matter how many.
    for _ in 0..5 {
        let _ = engine.model_info("m1");
        let _ = engine.model_lineage("m1");
        let _ = engine.registry().peek("m1");
    }
    engine
        .fit_model("m4", &sine(1500, 50.0), &config, None)
        .unwrap();
    assert!(
        engine.registry().peek("m1").is_none(),
        "metadata reads must not have promoted m1 over m3"
    );
    assert!(engine.registry().peek("m3").is_some());
    assert!(engine.registry().peek("m4").is_some());

    // Evicted models stay servable through the store.
    assert!(engine.model_handle("m2", None).is_ok());
}

#[test]
fn adaptive_session_publishes_and_swaps_versions_atomically() {
    let (engine, storage) = engine_with_store(0);
    let config = S2gConfig::new(50);
    engine
        .fit_model("live", &sine(4000, 100.0), &config, None)
        .unwrap();
    let parent_checksum = engine.model_checksum("live").unwrap();
    assert!(engine.model_lineage("live").is_none());

    // A frozen session opened against the parent stays pinned to it.
    engine.open_stream("pinned", "live", 150).unwrap();

    // An adaptive session with a tight publish interval.
    let adapt = AdaptConfig::default()
        .with_lambda(0.05)
        .with_publish_interval(128);
    engine
        .open_adaptive_stream("adaptive", "live", 150, adapt)
        .unwrap();

    let stream: Vec<f64> = (0..1500)
        .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
        .collect();
    let (emitted, status) = engine.push_stream("adaptive", &stream, None).unwrap();
    assert_eq!(emitted.len(), 1500 - 150 + 1);
    let status = status.expect("adaptive sessions report status");
    assert!(status.updates >= 128);
    let published = status
        .published_checksum
        .expect("publish interval elapsed during the push");
    assert_ne!(published, parent_checksum);

    // The registry now serves the adapted snapshot, lineage intact…
    assert_eq!(engine.model_checksum("live").unwrap(), published);
    let lineage = engine.model_lineage("live").expect("adapted model");
    assert_eq!(lineage.parent_checksum, parent_checksum);
    assert_eq!(lineage.update_count, status.updates);
    // …and the snapshot reached the store (durable before visible), from
    // where its lineage reads back identically.
    assert_eq!(storage.lineage_of("live").unwrap(), lineage);

    // The frozen session still scores against its pinned parent version:
    // its scores are bit-identical to a fresh scorer over the parent
    // model, not the adapted one.
    let (pinned_emitted, pinned_status) = engine.push_stream("pinned", &stream, None).unwrap();
    assert!(pinned_status.is_none(), "frozen sessions carry no status");
    let parent_model = Series2Graph::fit(&sine(4000, 100.0), &config).unwrap();
    let mut reference = s2g_engine::StreamingScorer::new(parent_model, 150).unwrap();
    let expected = reference.push_batch(&stream).unwrap();
    assert_eq!(pinned_emitted.len(), expected.len());
    for (a, b) in pinned_emitted.iter().zip(&expected) {
        assert_eq!(a.0, b.0);
        assert_eq!(
            a.1.to_bits(),
            b.1.to_bits(),
            "pinned session must not see the swap"
        );
    }

    // A *new* frozen session sees the adapted version: different weights,
    // therefore different scores on the same stream.
    engine.open_stream("fresh", "live", 150).unwrap();
    let (fresh, _) = engine.push_stream("fresh", &stream, None).unwrap();
    assert!(
        fresh
            .iter()
            .zip(&expected)
            .any(|(a, b)| a.1.to_bits() != b.1.to_bits()),
        "a fresh session must score against the adapted model"
    );

    engine.close_stream("adaptive").unwrap();
    engine.close_stream("pinned").unwrap();
    engine.close_stream("fresh").unwrap();
}

#[test]
fn deleting_a_model_stops_snapshot_publication() {
    // Regression: an open adaptive session must not *resurrect* a model
    // the operator deleted — due snapshots are silently dropped once the
    // name is gone from both the registry and the store.
    let (engine, storage) = engine_with_store(0);
    let config = S2gConfig::new(50);
    engine
        .fit_model("doomed", &sine(4000, 100.0), &config, None)
        .unwrap();
    engine
        .open_adaptive_stream(
            "s",
            "doomed",
            150,
            AdaptConfig::default()
                .with_lambda(0.05)
                .with_publish_interval(64),
        )
        .unwrap();

    assert!(engine.remove_model("doomed").unwrap());
    assert_eq!(storage.stored(), 0);

    // Way past the publish interval: the session still scores (pinned
    // handle) and still adapts, but nothing is published.
    let stream: Vec<f64> = (0..1200)
        .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
        .collect();
    let (emitted, status) = engine.push_stream("s", &stream, None).unwrap();
    assert_eq!(emitted.len(), 1200 - 150 + 1);
    let status = status.unwrap();
    assert!(status.updates >= 64, "the session keeps adapting");
    assert!(
        status.published_checksum.is_none(),
        "a deleted name must not be republished"
    );
    assert!(engine.model_info("doomed").is_none());
    assert_eq!(storage.stored(), 0, "the store must stay empty");
}

#[test]
fn lambda_zero_adaptive_stream_is_bit_identical_and_publishes_nothing() {
    let (engine, storage) = engine_with_store(0);
    let config = S2gConfig::new(50);
    engine
        .fit_model("base", &sine(3000, 90.0), &config, None)
        .unwrap();
    let before = engine.model_checksum("base").unwrap();

    engine.open_stream("frozen", "base", 140).unwrap();
    engine
        .open_adaptive_stream(
            "inert",
            "base",
            140,
            AdaptConfig::default()
                .with_lambda(0.0)
                .with_publish_interval(1),
        )
        .unwrap();

    let stream: Vec<f64> = (0..900)
        .map(|i| (std::f64::consts::TAU * i as f64 / 90.0 + 0.2).sin())
        .collect();
    let (frozen, _) = engine.push_stream("frozen", &stream, None).unwrap();
    let (inert, status) = engine.push_stream("inert", &stream, None).unwrap();
    let status = status.unwrap();
    assert_eq!(status.updates, 0);
    assert!(status.published_checksum.is_none());
    assert_eq!(frozen.len(), inert.len());
    for (a, b) in frozen.iter().zip(&inert) {
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }
    // Nothing was republished: registry checksum and store content are
    // untouched.
    assert_eq!(engine.model_checksum("base").unwrap(), before);
    assert!(storage.lineage_of("base").is_none());
}
