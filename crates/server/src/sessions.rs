//! Server-side registry of pinned streaming sessions with idle eviction.
//!
//! The engine's [`WorkerPool`](s2g_engine::WorkerPool) owns the actual
//! [`StreamingScorer`](s2g_core::StreamingScorer) state, pinned to one
//! worker shard per session. This table is the serving layer's view of
//! those sessions: it mints collision-free ids, stamps every touch with a
//! monotonic clock, and reaps sessions that have been idle longer than the
//! configured timeout — the mechanism that stops abandoned remote clients
//! from pinning scorer state forever.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use s2g_engine::{AdaptConfig, Engine};

use crate::error::ApiError;

struct SessionEntry {
    model: String,
    query_length: usize,
    last_touch: Instant,
    /// Cumulative `(updates, refits)` last reported by the engine for this
    /// session — the baseline for computing per-push metric deltas.
    adapt_progress: (u64, u64),
}

struct Inner {
    sessions: HashMap<String, SessionEntry>,
    next_id: u64,
}

/// Thread-safe table of open streaming sessions with idle-timeout eviction.
pub struct SessionTable {
    inner: Mutex<Inner>,
    /// `None` disables idle eviction.
    idle_timeout: Option<Duration>,
}

impl SessionTable {
    /// Creates a table evicting sessions idle for longer than
    /// `idle_timeout` (`None` = never evict).
    pub fn new(idle_timeout: Option<Duration>) -> Self {
        SessionTable {
            inner: Mutex::new(Inner {
                sessions: HashMap::new(),
                next_id: 1,
            }),
            idle_timeout,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configured idle timeout, if eviction is enabled.
    pub fn idle_timeout(&self) -> Option<Duration> {
        self.idle_timeout
    }

    /// Number of currently open sessions.
    pub fn len(&self) -> usize {
        self.lock().sessions.len()
    }

    /// `true` when no session is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a new session against a registered model: mints an id
    /// (`s-1`, `s-2`, …), opens the pinned engine stream (adaptive when
    /// `adapt` is set), and records the session for idle tracking.
    ///
    /// # Errors
    /// [`ApiError`] with `unknown_model` (404), `query_too_short` (422) or
    /// `invalid_config` (400, bad adapt options) from the engine.
    pub fn create(
        &self,
        engine: &Engine,
        model: &str,
        query_length: usize,
        adapt: Option<AdaptConfig>,
    ) -> Result<String, ApiError> {
        let id = {
            let mut inner = self.lock();
            let id = format!("s-{}", inner.next_id);
            inner.next_id += 1;
            id
        };
        match adapt {
            None => engine.open_stream(id.clone(), model, query_length)?,
            Some(config) => engine.open_adaptive_stream(id.clone(), model, query_length, config)?,
        }
        self.lock().sessions.insert(
            id.clone(),
            SessionEntry {
                model: model.to_string(),
                query_length,
                last_touch: Instant::now(),
                adapt_progress: (0, 0),
            },
        );
        Ok(id)
    }

    /// Folds an adaptive push's cumulative `(updates, refits)` into the
    /// session's progress and returns the `(update, refit)` deltas since
    /// the previous push — what metric counters consume. Unknown ids (a
    /// session racing its own eviction) report zero deltas.
    pub fn record_adapt_progress(&self, id: &str, updates: u64, refits: u64) -> (u64, u64) {
        let mut inner = self.lock();
        let Some(entry) = inner.sessions.get_mut(id) else {
            return (0, 0);
        };
        let (seen_updates, seen_refits) = entry.adapt_progress;
        entry.adapt_progress = (updates, refits);
        (
            updates.saturating_sub(seen_updates),
            refits.saturating_sub(seen_refits),
        )
    }

    /// Marks a session as used right now, evicting it instead when its idle
    /// timeout has already elapsed.
    ///
    /// # Errors
    /// [`ApiError`] `unknown_session` (404) when the id is not open or was
    /// just evicted.
    pub fn touch(&self, engine: &Engine, id: &str) -> Result<(), ApiError> {
        let expired = {
            let mut inner = self.lock();
            let Some(entry) = inner.sessions.get_mut(id) else {
                return Err(unknown_session(id));
            };
            let expired = self
                .idle_timeout
                .is_some_and(|timeout| entry.last_touch.elapsed() > timeout);
            if expired {
                inner.sessions.remove(id);
            } else {
                entry.last_touch = Instant::now();
            }
            expired
        };
        if expired {
            let _ = engine.close_stream(id);
            return Err(unknown_session(id));
        }
        Ok(())
    }

    /// `(model, query_length)` of an open session, without touching it.
    pub fn describe(&self, id: &str) -> Option<(String, usize)> {
        self.lock()
            .sessions
            .get(id)
            .map(|e| (e.model.clone(), e.query_length))
    }

    /// Removes a session from the table (the caller closes the engine
    /// stream). Returns `false` when the id was not open.
    pub fn forget(&self, id: &str) -> bool {
        self.lock().sessions.remove(id).is_some()
    }

    /// Evicts every session idle for longer than the timeout, closing its
    /// engine stream. Returns how many sessions were evicted. No-op when
    /// eviction is disabled.
    pub fn evict_idle(&self, engine: &Engine) -> usize {
        let Some(timeout) = self.idle_timeout else {
            return 0;
        };
        let expired: Vec<String> = {
            let mut inner = self.lock();
            let expired: Vec<String> = inner
                .sessions
                .iter()
                .filter(|(_, e)| e.last_touch.elapsed() > timeout)
                .map(|(id, _)| id.clone())
                .collect();
            for id in &expired {
                inner.sessions.remove(id);
            }
            expired
        };
        engine.close_streams(&expired)
    }
}

fn unknown_session(id: &str) -> ApiError {
    ApiError::new(
        404,
        "unknown_session",
        format!("no open session {id:?} (it may have been evicted)"),
    )
}

impl std::fmt::Debug for SessionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTable")
            .field("open", &self.len())
            .field("idle_timeout", &self.idle_timeout)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_core::S2gConfig;
    use s2g_engine::EngineConfig;
    use s2g_timeseries::TimeSeries;

    fn engine_with_model() -> Engine {
        let engine = Engine::new(EngineConfig::default().with_workers(2));
        let series = TimeSeries::from(
            (0..3000)
                .map(|i| (std::f64::consts::TAU * i as f64 / 80.0).sin())
                .collect::<Vec<f64>>(),
        );
        engine
            .fit_model("base", &series, &S2gConfig::new(40), None)
            .unwrap();
        engine
    }

    #[test]
    fn create_touch_forget_lifecycle() {
        let engine = engine_with_model();
        let table = SessionTable::new(None);
        let id = table.create(&engine, "base", 160, None).unwrap();
        assert_eq!(id, "s-1");
        assert_eq!(table.describe(&id), Some(("base".to_string(), 160)));
        table.touch(&engine, &id).unwrap();
        assert!(engine.push_stream(&id, &[0.0, 0.1], None).is_ok());
        assert!(table.forget(&id));
        assert!(!table.forget(&id));
        assert!(table.touch(&engine, &id).is_err());
        assert!(table.create(&engine, "ghost", 160, None).is_err());
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn idle_sessions_are_evicted() {
        let engine = engine_with_model();
        let table = SessionTable::new(Some(Duration::from_millis(30)));
        let id = table.create(&engine, "base", 160, None).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(table.evict_idle(&engine), 1);
        assert!(table.is_empty());
        // The engine stream was closed by the eviction.
        assert!(engine.push_stream(&id, &[0.0], None).is_err());
        // Lazy path: an expired session dies on touch too.
        let id2 = table.create(&engine, "base", 160, None).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        let err = table.touch(&engine, &id2).unwrap_err();
        assert_eq!(err.code, "unknown_session");
        assert!(engine.push_stream(&id2, &[0.0], None).is_err());
    }

    #[test]
    fn eviction_disabled_keeps_sessions() {
        let engine = engine_with_model();
        let table = SessionTable::new(None);
        let id = table.create(&engine, "base", 160, None).unwrap();
        assert_eq!(table.evict_idle(&engine), 0);
        table.touch(&engine, &id).unwrap();
    }
}
