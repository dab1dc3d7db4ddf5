//! The sharded store: in-memory LRU under a byte budget, optional disk
//! tier, and the observability counters.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use scanpower_wire::{decode_message, encode_message, Wire};

use crate::key::CacheKey;

/// Configuration of a [`ResultCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of independently locked shards. More shards reduce lock
    /// contention under concurrent access; the shard of a key is a pure
    /// function of the key, so sharding never affects *what* is cached.
    pub shards: usize,
    /// Total in-memory byte budget across all shards. When a shard
    /// overflows its share, its least-recently-used entries are evicted
    /// (the last remaining entry is always kept, so one oversized result
    /// still caches). The budget bounds entry payload bytes, not the
    /// (small) per-entry bookkeeping.
    pub byte_budget: usize,
    /// Optional disk tier: entries are persisted as `<key>.wire` files in
    /// this directory and survive the process. Disk I/O is best-effort —
    /// a full disk or a permissions error degrades the cache, it never
    /// fails the caller.
    pub disk_dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            byte_budget: 64 << 20,
            disk_dir: None,
        }
    }
}

/// Counter snapshot of a [`ResultCache`] — see [`ResultCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the in-memory tier.
    pub hits: u64,
    /// Lookups that missed memory but were served from the disk tier
    /// (and promoted into memory).
    pub disk_hits: u64,
    /// Lookups served from neither tier (including entries that no longer
    /// decode — see [`ResultCache::get_decoded`]).
    pub misses: u64,
    /// Entries inserted by callers (disk-tier promotions not included).
    pub insertions: u64,
    /// Entries evicted from memory by the byte budget.
    pub evictions: u64,
    /// Entries currently resident in memory.
    pub entries: usize,
    /// Payload bytes currently resident in memory.
    pub bytes: usize,
}

struct Entry {
    bytes: Arc<[u8]>,
    /// Last-touch stamp from the cache-wide logical clock; the eviction
    /// victim is the entry with the smallest stamp. Atomic so a read-locked
    /// `get` can bump it without write-locking the shard.
    stamp: AtomicU64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u128, Entry>,
    bytes: usize,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// The content-addressed result cache: N-way sharded in-memory storage with
/// LRU eviction under a byte budget, and an optional disk tier.
///
/// The cache is `Sync` — one instance is shared by every worker thread of a
/// run (the experiment harness holds it in an `Arc`). Values are opaque
/// wire-encoded messages; the typed accessors
/// ([`get_decoded`](ResultCache::get_decoded) /
/// [`insert_encoded`](ResultCache::insert_encoded)) do the
/// encoding at the boundary.
pub struct ResultCache {
    config: CacheConfig,
    shards: Vec<RwLock<Shard>>,
    clock: AtomicU64,
    counters: Counters,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

enum Tier {
    Memory,
    Disk,
}

impl ResultCache {
    /// Creates a cache with the given configuration (`shards` is clamped to
    /// at least 1).
    #[must_use]
    pub fn new(config: CacheConfig) -> ResultCache {
        let shard_count = config.shards.max(1);
        ResultCache {
            config,
            shards: (0..shard_count).map(|_| RwLock::default()).collect(),
            clock: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    /// A memory-only cache with the default configuration.
    #[must_use]
    pub fn in_memory() -> ResultCache {
        ResultCache::new(CacheConfig::default())
    }

    /// A cache with the default configuration plus a disk tier rooted at
    /// `dir` (created lazily on first write).
    #[must_use]
    pub fn with_disk(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache::new(CacheConfig {
            disk_dir: Some(dir.into()),
            ..CacheConfig::default()
        })
    }

    /// The configuration this cache was created with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Looks up the raw wire bytes stored under `key`, consulting memory
    /// first and the disk tier second (a disk hit is promoted into memory).
    #[must_use]
    pub fn get(&self, key: CacheKey) -> Option<Arc<[u8]>> {
        match self.lookup(key) {
            Some((bytes, tier)) => {
                self.count_hit(tier);
                Some(bytes)
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up and decodes the [`Wire`] message stored under `key`.
    ///
    /// An entry that fails to decode — a foreign or truncated payload, say
    /// a disk file written by an incompatible build — is **dropped from
    /// both tiers and counted as a miss**, so corruption degrades to
    /// recomputation rather than surfacing as an error.
    #[must_use]
    pub fn get_decoded<T: Wire>(&self, key: CacheKey) -> Option<T> {
        let Some((bytes, tier)) = self.lookup(key) else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match decode_message::<T>(&bytes) {
            Ok(value) => {
                self.count_hit(tier);
                Some(value)
            }
            Err(_) => {
                self.remove(key);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores raw wire bytes under `key`, in memory and (when configured)
    /// on disk. Replaces any previous entry.
    pub fn insert(&self, key: CacheKey, bytes: Vec<u8>) {
        if let Some(dir) = &self.config.disk_dir {
            write_disk(dir, key, &bytes);
        }
        self.insert_memory(key, bytes.into());
        self.counters.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Encodes `value` as a wire message and stores it under `key`.
    pub fn insert_encoded<T: Wire>(&self, key: CacheKey, value: &T) {
        self.insert(key, encode_message(value));
    }

    /// A snapshot of the cache's counters and residency.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0, 0);
        for shard in &self.shards {
            let shard = shard.read().unwrap_or_else(|e| e.into_inner());
            entries += shard.map.len();
            bytes += shard.bytes;
        }
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    fn shard(&self, key: CacheKey) -> &RwLock<Shard> {
        let raw = key.raw();
        let folded = (raw >> 64) as u64 ^ raw as u64;
        &self.shards[(folded % self.shards.len() as u64) as usize]
    }

    fn touch(&self, entry: &Entry) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        entry.stamp.store(now, Ordering::Relaxed);
    }

    fn count_hit(&self, tier: Tier) {
        let counter = match tier {
            Tier::Memory => &self.counters.hits,
            Tier::Disk => &self.counters.disk_hits,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The uncounted two-tier lookup behind [`get`](ResultCache::get) and
    /// [`get_decoded`](ResultCache::get_decoded).
    fn lookup(&self, key: CacheKey) -> Option<(Arc<[u8]>, Tier)> {
        {
            let shard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = shard.map.get(&key.raw()) {
                self.touch(entry);
                return Some((Arc::clone(&entry.bytes), Tier::Memory));
            }
        }
        let dir = self.config.disk_dir.as_ref()?;
        let bytes: Arc<[u8]> = read_disk(dir, key)?.into();
        self.insert_memory(key, Arc::clone(&bytes));
        Some((bytes, Tier::Disk))
    }

    fn insert_memory(&self, key: CacheKey, bytes: Arc<[u8]>) {
        let mut shard = self.shard(key).write().unwrap_or_else(|e| e.into_inner());
        let added = bytes.len();
        let entry = Entry {
            bytes,
            stamp: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        };
        if let Some(old) = shard.map.insert(key.raw(), entry) {
            shard.bytes -= old.bytes.len();
        }
        shard.bytes += added;

        // LRU eviction under the shard's share of the byte budget. The
        // most-recently-inserted entry survives even when it alone exceeds
        // the share — evicting it too would make an oversized result
        // permanently uncacheable.
        let share = self.config.byte_budget / self.shards.len();
        while shard.bytes > share && shard.map.len() > 1 {
            let victim = shard
                .map
                .iter()
                .min_by_key(|(raw, entry)| (entry.stamp.load(Ordering::Relaxed), **raw))
                .map(|(&raw, _)| raw)
                .expect("non-empty shard has a minimum");
            let evicted = shard.map.remove(&victim).expect("victim is present");
            shard.bytes -= evicted.bytes.len();
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops `key` from memory and the disk tier (used when an entry no
    /// longer decodes).
    fn remove(&self, key: CacheKey) {
        {
            let mut shard = self.shard(key).write().unwrap_or_else(|e| e.into_inner());
            if let Some(old) = shard.map.remove(&key.raw()) {
                shard.bytes -= old.bytes.len();
            }
        }
        if let Some(dir) = &self.config.disk_dir {
            let _ = fs::remove_file(entry_path(dir, key));
        }
    }
}

fn entry_path(dir: &Path, key: CacheKey) -> PathBuf {
    dir.join(format!("{key}.wire"))
}

fn read_disk(dir: &Path, key: CacheKey) -> Option<Vec<u8>> {
    fs::read(entry_path(dir, key)).ok()
}

/// Best-effort atomic write: the entry lands under a temporary name first
/// and is renamed into place, so a concurrent reader never observes a
/// half-written file. I/O errors degrade the disk tier silently — the
/// in-memory tier and the recomputation path are unaffected.
fn write_disk(dir: &Path, key: CacheKey, bytes: &[u8]) {
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = dir.join(format!(".{key}.tmp"));
    let write = || -> std::io::Result<()> {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, entry_path(dir, key))
    };
    if write().is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn key(tag: &str) -> CacheKey {
        KeyBuilder::new("test").part(tag.as_bytes()).finish()
    }

    #[test]
    fn memory_round_trip_and_counters() {
        let cache = ResultCache::in_memory();
        let k = key("a");
        assert_eq!(cache.get(k), None);
        cache.insert(k, vec![1, 2, 3]);
        assert_eq!(cache.get(k).as_deref(), Some(&[1u8, 2, 3][..]));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.insertions, stats.entries),
            (1, 1, 1, 1)
        );
        assert_eq!(stats.bytes, 3);
    }

    #[test]
    fn typed_round_trip() {
        let cache = ResultCache::in_memory();
        let k = key("typed");
        cache.insert_encoded(k, &(7u64, String::from("seven")));
        assert_eq!(
            cache.get_decoded::<(u64, String)>(k),
            Some((7, String::from("seven")))
        );
    }

    #[test]
    fn corrupt_entries_degrade_to_misses_and_are_dropped() {
        let cache = ResultCache::in_memory();
        let k = key("corrupt");
        cache.insert(k, vec![0xde, 0xad]);
        assert_eq!(cache.get_decoded::<u64>(k), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(stats.entries, 0, "the corrupt entry is gone");
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // One shard, room for two 8-byte payloads.
        let cache = ResultCache::new(CacheConfig {
            shards: 1,
            byte_budget: 16,
            disk_dir: None,
        });
        let (a, b, c) = (key("a"), key("b"), key("c"));
        cache.insert(a, vec![0; 8]);
        cache.insert(b, vec![1; 8]);
        assert!(cache.get(a).is_some(), "touch `a` so `b` is the LRU entry");
        cache.insert(c, vec![2; 8]);
        assert_eq!(cache.get(b), None, "LRU entry was evicted");
        assert!(cache.get(a).is_some());
        assert!(cache.get(c).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 16);
    }

    #[test]
    fn an_oversized_entry_still_caches() {
        let cache = ResultCache::new(CacheConfig {
            shards: 1,
            byte_budget: 4,
            disk_dir: None,
        });
        let k = key("big");
        cache.insert(k, vec![0; 64]);
        assert!(cache.get(k).is_some(), "sole oversized entry survives");
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!("scanpower-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let warm = ResultCache::with_disk(&dir);
        let k = key("persisted");
        warm.insert_encoded(k, &1234u64);

        // A new cache instance over the same directory: memory is cold, the
        // disk tier serves and promotes.
        let cold = ResultCache::with_disk(&dir);
        assert_eq!(cold.get_decoded::<u64>(k), Some(1234));
        let stats = cold.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (0, 1, 0));
        assert_eq!(stats.entries, 1, "disk hit was promoted into memory");
        // Promoted: the second read is a memory hit.
        assert_eq!(cold.get_decoded::<u64>(k), Some(1234));
        assert_eq!(cold.stats().hits, 1);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        let cache = std::sync::Arc::new(ResultCache::in_memory());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let k = KeyBuilder::new("concurrent")
                            .part(&(i % 10).to_wire_bytes())
                            .finish();
                        if t % 2 == 0 {
                            cache.insert_encoded(k, &i);
                        } else {
                            let _ = cache.get_decoded::<u64>(k);
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, 100);
        assert_eq!(stats.hits + stats.misses, 100);
        assert_eq!(stats.entries, 10);
    }
}
