//! The armed, capped and flushable part of a buffered instrument, written
//! once for the span tracer and the flight recorder. What an instrument
//! buffers and how it renders it stay with the instrument: the tracer keeps
//! per-thread event buffers, the recorder whole JSONL lines.

use crate::registry::{counter, Counter};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Lock `m`, taking the value over from a holder that panicked: every value
/// this crate guards is whole between statements, so an instrument never
/// turns one panic into a second.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One instrument's switch (a relaxed load when off), its count of kept
/// items under a fixed cap, its drops (also counted in a registry counter)
/// and the path `GRACEFUL_TRACE` / `GRACEFUL_FLIGHT` configured to flush to.
pub(crate) struct Sink {
    enabled: AtomicBool,
    kept: AtomicU64,
    dropped: AtomicU64,
    cap: u64,
    dropped_name: &'static str,
    dropped_metric: OnceLock<Counter>,
    path: Mutex<Option<String>>,
}

impl Sink {
    pub(crate) const fn new(cap: usize, dropped_name: &'static str) -> Sink {
        Sink {
            enabled: AtomicBool::new(false),
            kept: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cap: cap as u64,
            dropped_name,
            dropped_metric: OnceLock::new(),
            path: Mutex::new(None),
        }
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Remember `path` as the [`Sink::flush`] target and enable the sink.
    pub(crate) fn configure(&self, path: &str) {
        *lock(&self.path) = Some(path.to_string());
        self.set_enabled(true);
    }

    pub(crate) fn configured_path(&self) -> Option<String> {
        lock(&self.path).clone()
    }

    pub(crate) fn kept(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Claim room for one more item: `true` under the cap, else the drop is
    /// counted and the caller keeps nothing.
    pub(crate) fn admit(&self) -> bool {
        if self.kept.fetch_add(1, Ordering::Relaxed) < self.cap {
            return true;
        }
        self.kept.fetch_sub(1, Ordering::Relaxed);
        self.dropped.fetch_add(1, Ordering::Relaxed);
        self.dropped_metric.get_or_init(|| counter(self.dropped_name)).incr();
        false
    }

    /// Zero the kept and dropped counts (the caller empties its buffer).
    pub(crate) fn reset(&self) {
        self.kept.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Write `export()` to the configured path, if one is set, and say
    /// whether a file was written. The caller keeps its buffer, so flushing
    /// twice writes the same bytes.
    pub(crate) fn flush(&self, export: impl FnOnce() -> String) -> std::io::Result<bool> {
        match self.configured_path() {
            Some(path) => std::fs::write(path, export()).map(|()| true),
            None => Ok(false),
        }
    }
}
