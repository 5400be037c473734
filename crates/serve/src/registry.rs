//! The dataset registry: datasets are loaded, normalized and fingerprinted
//! **once**, then served from an LRU cache bounded by a byte budget.
//!
//! The registry is what makes request batching possible: two jobs referring
//! to the same [`DatasetRef`] resolve to the *same* `Arc<DataMatrix>`, so
//! the scheduler can coalesce them into one multi-parameter grid run.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proclus::DataMatrix;
use proclus_verify::{TrackedCondvar, TrackedMutex};

use crate::job::ServeError;
use crate::metrics::ServiceMetrics;

/// How a job names its dataset.
#[derive(Debug, Clone)]
pub enum DatasetRef {
    /// A CSV file on disk, loaded via `datagen::io::load_csv` (no header,
    /// no label column) and min-max normalized, mirroring the CLI default.
    Path(PathBuf),
    /// An in-memory dataset registered under a client-chosen name. Used
    /// as-is (no normalization).
    Inline {
        /// The cache key; two inline refs with the same name are treated
        /// as the same dataset.
        name: String,
        /// The data itself.
        data: Arc<DataMatrix>,
    },
}

impl DatasetRef {
    /// A file-backed dataset reference.
    pub fn path(p: impl Into<PathBuf>) -> Self {
        DatasetRef::Path(p.into())
    }

    /// An in-memory dataset reference.
    pub fn inline(name: impl Into<String>, data: DataMatrix) -> Self {
        DatasetRef::Inline {
            name: name.into(),
            data: Arc::new(data),
        }
    }

    /// The canonical cache/batching key.
    pub fn key(&self) -> String {
        match self {
            DatasetRef::Path(p) => format!("path:{}", p.display()),
            DatasetRef::Inline { name, .. } => format!("inline:{name}"),
        }
    }
}

struct Entry {
    data: Arc<DataMatrix>,
    bytes: usize,
    fingerprint: u64,
    last_used: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
    bytes: usize,
    clock: u64,
}

/// Byte-budgeted LRU cache of resolved datasets.
///
/// Loads are **single-flight**: concurrent `get`s of the same key elect one
/// loader; the rest wait on `pending_cv` and then take the cache hit, so a
/// dataset is read, normalized and fingerprinted exactly once no matter how
/// many jobs referencing it arrive together.
pub struct DatasetRegistry {
    budget_bytes: usize,
    inner: TrackedMutex<Inner>,
    pending: TrackedMutex<HashSet<String>>,
    pending_cv: TrackedCondvar,
    loads: AtomicU64,
}

/// Releases a single-flight claim even when the load errors out.
struct PendingGuard<'a> {
    reg: &'a DatasetRegistry,
    key: &'a str,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.reg.pending.lock().remove(self.key);
        self.reg.pending_cv.notify_all();
    }
}

/// FNV-1a over the matrix shape and raw `f32` bits: a stable content
/// fingerprint for telemetry and cache diagnostics.
pub fn fingerprint(data: &DataMatrix) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(data.n() as u64).to_le_bytes());
    eat(&(data.d() as u64).to_le_bytes());
    for v in data.flat() {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

fn bytes_of(data: &DataMatrix) -> usize {
    data.n() * data.d() * std::mem::size_of::<f32>()
}

/// Evicts LRU entries until `incoming` fits in the budget.
fn evict_to_fit(inner: &mut Inner, budget: usize, incoming: usize) {
    while inner.bytes + incoming > budget {
        let victim = inner
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        let Some(victim) = victim else {
            break;
        };
        if let Some(e) = inner.map.remove(&victim) {
            inner.bytes -= e.bytes;
        }
    }
}

impl DatasetRegistry {
    /// A registry whose cached datasets never exceed `budget_bytes`
    /// (a dataset larger than the whole budget is served but not cached).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            inner: TrackedMutex::new(
                "registry.inner",
                Inner {
                    map: HashMap::new(),
                    bytes: 0,
                    clock: 0,
                },
            ),
            pending: TrackedMutex::new("registry.pending", HashSet::new()),
            pending_cv: TrackedCondvar::new("registry.pending_cv"),
            loads: AtomicU64::new(0),
        }
    }

    /// Resolves `r`, loading (and caching) it on first use. Cache hits and
    /// misses are counted into `metrics`.
    pub fn get(
        &self,
        r: &DatasetRef,
        metrics: &ServiceMetrics,
    ) -> Result<Arc<DataMatrix>, ServeError> {
        let key = r.key();
        loop {
            {
                let mut inner = self.inner.lock();
                inner.clock += 1;
                let clock = inner.clock;
                if let Some(e) = inner.map.get_mut(&key) {
                    e.last_used = clock;
                    metrics.inc_dataset_cache_hits();
                    return Ok(Arc::clone(&e.data));
                }
            }
            // Not cached. Claim the load, or wait for whoever already did —
            // when the loader finishes (or fails) we re-check the cache.
            let mut pending = self.pending.lock();
            if pending.insert(key.clone()) {
                break;
            }
            while pending.contains(&key) {
                pending = self.pending_cv.wait(pending);
            }
        }
        // This thread owns the load for `key`; the guard releases the claim
        // and wakes waiters on every exit path, including load errors.
        let claim = PendingGuard {
            reg: self,
            key: &key,
        };
        metrics.inc_dataset_cache_misses();
        self.loads.fetch_add(1, Ordering::Relaxed);
        // Load outside both locks: a slow disk read must not block lookups
        // of already-cached datasets.
        let data = match r {
            DatasetRef::Path(p) => {
                let loaded =
                    datagen::io::load_csv(p, false, None).map_err(|e| ServeError::Dataset {
                        reason: e.to_string(),
                    })?;
                let mut data = loaded.data;
                data.minmax_normalize();
                Arc::new(data)
            }
            DatasetRef::Inline { data, .. } => Arc::clone(data),
        };
        let bytes = bytes_of(&data);
        let fp = fingerprint(&data);
        {
            let mut inner = self.inner.lock();
            if bytes <= self.budget_bytes {
                evict_to_fit(&mut inner, self.budget_bytes, bytes);
                inner.clock += 1;
                let clock = inner.clock;
                let prev = inner.map.insert(
                    key.clone(),
                    Entry {
                        data: Arc::clone(&data),
                        bytes,
                        fingerprint: fp,
                        last_used: clock,
                    },
                );
                inner.bytes += bytes;
                if let Some(prev) = prev {
                    inner.bytes -= prev.bytes;
                }
            }
        }
        drop(claim);
        Ok(data)
    }

    /// Dataset loads actually performed (cache misses that did the work;
    /// single-flight waiters do not count). Diagnostic/test hook.
    pub fn loads_performed(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Content fingerprint of a cached dataset (None when not cached).
    pub fn fingerprint_of(&self, r: &DatasetRef) -> Option<u64> {
        self.inner.lock().map.get(&r.key()).map(|e| e.fingerprint)
    }

    /// Number of cached datasets.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently held by cached datasets.
    pub fn cached_bytes(&self) -> usize {
        self.inner.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n: usize, seed: f32) -> DataMatrix {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![i as f32 + seed, (i * 2) as f32, seed])
            .collect();
        DataMatrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn inline_hits_after_first_miss() {
        let reg = DatasetRegistry::new(1 << 20);
        let m = ServiceMetrics::default();
        let r = DatasetRef::inline("a", matrix(10, 0.0));
        let d1 = reg.get(&r, &m).unwrap();
        let d2 = reg.get(&r, &m).unwrap();
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!(m.snapshot().total("dataset_cache_hits"), 1);
        assert_eq!(m.snapshot().total("dataset_cache_misses"), 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        // Each 10×3 matrix is 120 bytes; budget fits exactly two.
        let reg = DatasetRegistry::new(240);
        let m = ServiceMetrics::default();
        let a = DatasetRef::inline("a", matrix(10, 0.0));
        let b = DatasetRef::inline("b", matrix(10, 1.0));
        let c = DatasetRef::inline("c", matrix(10, 2.0));
        reg.get(&a, &m).unwrap();
        reg.get(&b, &m).unwrap();
        reg.get(&a, &m).unwrap(); // refresh a; b is now LRU
        reg.get(&c, &m).unwrap(); // evicts b
        assert_eq!(reg.len(), 2);
        assert!(reg.fingerprint_of(&b).is_none());
        assert!(reg.fingerprint_of(&a).is_some());
        assert!(reg.fingerprint_of(&c).is_some());
        assert!(reg.cached_bytes() <= 240);
    }

    #[test]
    fn oversized_dataset_is_served_uncached() {
        let reg = DatasetRegistry::new(8);
        let m = ServiceMetrics::default();
        let r = DatasetRef::inline("big", matrix(100, 0.0));
        assert_eq!(reg.get(&r, &m).unwrap().n(), 100);
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn missing_path_is_a_dataset_error() {
        let reg = DatasetRegistry::new(1 << 20);
        let m = ServiceMetrics::default();
        let err = reg
            .get(&DatasetRef::path("/no/such/file.csv"), &m)
            .unwrap_err();
        assert!(matches!(err, ServeError::Dataset { .. }), "{err}");
    }

    #[test]
    fn fingerprints_distinguish_contents() {
        assert_ne!(fingerprint(&matrix(10, 0.0)), fingerprint(&matrix(10, 1.0)));
        assert_eq!(fingerprint(&matrix(10, 0.0)), fingerprint(&matrix(10, 0.0)));
    }
}
