//! The persistent, content-addressed render cache.
//!
//! VSS-style cross-query reuse: rendered bytes are the expensive thing
//! V2V produces, and most production query streams repeat themselves —
//! the same highlight reel requested twice, two dashboards asking for
//! overlapping windows of one camera. The cache persists two kinds of
//! entries under one directory, both in the checksummed [`Fragment`]
//! format:
//!
//! * **whole results** (`res-<fingerprint>.svf`) — keyed by the
//!   canonical plan fingerprint
//!   ([`v2v_plan::fingerprint::plan_fingerprint`]); a repeat query is
//!   answered by reading packets back, zero decode, zero encode;
//! * **per-segment fragments** (`seg-<key>.svf`) — keyed by
//!   [`v2v_plan::fingerprint::segment_keys`]; an *overlapping* query
//!   whose plan shares segments with an earlier one splices the shared
//!   fragments by stream copy and renders only the novel remainder.
//!
//! Three properties the serving layer depends on:
//!
//! * **Crash safety.** Writes go to a temp file in the same directory
//!   and are published by `rename` — a reader never observes a torn
//!   entry, and leftover temp files from a crash are swept at open.
//! * **Corruption tolerance.** Every read verifies the fragment
//!   checksum; a bad entry (bit rot, truncation, a meddling process) is
//!   evicted and the caller re-renders. Classified as
//!   [`ErrorKind::CorruptData`] internally, never a panic.
//! * **Bounded footprint.** A byte budget with LRU eviction (the
//!   shared `BudgetLru`); the just-inserted entry is never evicted by
//!   its own insertion.
//!
//! [`ErrorKind::CorruptData`]: v2v_container::ContainerError::BadFile

use crate::budget_lru::BudgetLru;
use crate::flight::FragmentFlight;
use crate::mem_tier::MemTier;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use v2v_container::{fragment_to_bytes, read_fragment, Fragment, VideoStream};

/// Render-cache activity for one run, embedded in
/// [`ExecStats`](crate::ExecStats) and the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Whole results served straight from the cache.
    #[serde(default)]
    pub result_hits: u64,
    /// Segments spliced from cached fragments instead of rendered.
    #[serde(default)]
    pub segment_hits: u64,
    /// Entries evicted during the run (budget pressure or corruption).
    #[serde(default)]
    pub evictions: u64,
    /// Compressed bytes reused from the cache instead of re-produced.
    #[serde(default)]
    pub bytes_reused: u64,
    /// Whole responses coalesced into an identical in-flight render
    /// (daemon single-flight by plan fingerprint).
    #[serde(default)]
    pub inflight_hits: u64,
    /// Segments received from another run's concurrent render instead
    /// of rendered here ([`FragmentFlight`] subscription).
    #[serde(default)]
    pub shared_segment_hits: u64,
    /// Cache hits (result or segment) served by the in-memory tier
    /// without touching disk. Also counted in `result_hits` /
    /// `segment_hits`; this field attributes the tier.
    #[serde(default)]
    pub mem_hits: u64,
    /// Segments whose fragments were produced by a remote worker
    /// (coordinator dispatch) instead of rendered in-process.
    #[serde(default)]
    pub remote_segments: u64,
}

impl CacheStats {
    /// Component-wise sum.
    pub fn merge(mut self, other: CacheStats) -> CacheStats {
        self.result_hits += other.result_hits;
        self.segment_hits += other.segment_hits;
        self.evictions += other.evictions;
        self.bytes_reused += other.bytes_reused;
        self.inflight_hits += other.inflight_hits;
        self.shared_segment_hits += other.shared_segment_hits;
        self.mem_hits += other.mem_hits;
        self.remote_segments += other.remote_segments;
        self
    }

    /// The attribution of one reused entry: `bytes` compressed bytes of
    /// `key` that came from `origin` instead of being rendered here.
    pub fn for_hit(key: EntryKey, origin: Origin, bytes: u64) -> CacheStats {
        let mut stats = CacheStats {
            bytes_reused: bytes,
            mem_hits: u64::from(origin == Origin::Memory),
            ..Default::default()
        };
        match (origin, key) {
            (Origin::Flight, _) => stats.shared_segment_hits = 1,
            (Origin::Remote, _) => stats.remote_segments = 1,
            (_, EntryKey::Result(_)) => stats.result_hits = 1,
            (_, EntryKey::Segment(_)) => stats.segment_hits = 1,
        }
        stats
    }
}

/// Where a reused fragment came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// The in-memory hot tier, no disk I/O.
    Memory,
    /// Read (and checksum-verified) from the persistent directory.
    Disk,
    /// Another run's concurrent render ([`FragmentFlight`]).
    Flight,
    /// A remote worker (coordinator dispatch).
    Remote,
}

/// The address of one cache entry, shared by the memory and disk tiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EntryKey {
    /// A whole result, by canonical plan fingerprint.
    Result(u64),
    /// One rendered segment, by segment key.
    Segment(u64),
}

impl EntryKey {
    /// The entry's file name — built only at the filesystem edge.
    fn file_name(self) -> String {
        match self {
            EntryKey::Result(fp) => format!("res-{fp:016x}.svf"),
            EntryKey::Segment(key) => format!("seg-{key:016x}.svf"),
        }
    }

    /// Inverse of [`file_name`](EntryKey::file_name); `None` for any
    /// file this cache did not write.
    fn parse(name: &str) -> Option<EntryKey> {
        let id = u64::from_str_radix(name.get(4..20)?, 16).ok()?;
        [EntryKey::Result(id), EntryKey::Segment(id)]
            .into_iter()
            .find(|key| key.file_name() == name)
    }
}

/// A persistent, byte-budgeted, content-addressed cache of rendered
/// fragments and whole results. Thread-safe: the serving daemon shares
/// one instance across concurrent jobs.
pub struct RenderCache {
    dir: PathBuf,
    /// `0` means unbounded.
    budget_bytes: u64,
    /// Which entries exist and their LRU order; weight = file bytes.
    /// Only redundant metadata — the files are the truth.
    index: BudgetLru<EntryKey, ()>,
    evictions: AtomicU64,
    tmp_seq: AtomicU64,
    /// Optional hot tier above the directory; entries are promoted on
    /// access frequency and consulted before any disk read.
    mem: Option<MemTier>,
}

impl std::fmt::Debug for RenderCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RenderCache")
            .field("dir", &self.dir)
            .field("budget_bytes", &self.budget_bytes)
            .field("bytes_held", &self.bytes_held())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl RenderCache {
    /// Opens (or creates) a cache rooted at `dir` with the given byte
    /// budget, seeding the LRU order from entry modification times and
    /// sweeping temp files left by a crashed writer.
    pub fn open(dir: impl AsRef<Path>, budget_bytes: u64) -> std::io::Result<RenderCache> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut found: Vec<(std::time::SystemTime, EntryKey, u64)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            } else if let Some(key) = EntryKey::parse(&name) {
                let meta = entry.metadata()?;
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                found.push((mtime, key, meta.len()));
            }
        }
        found.sort_by_key(|(mtime, _, _)| *mtime);
        let limit = if budget_bytes == 0 {
            u64::MAX
        } else {
            budget_bytes
        };
        let cache = RenderCache {
            dir,
            budget_bytes,
            index: BudgetLru::new(limit),
            evictions: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
            mem: None,
        };
        // A crash can leave the directory over budget; indexing oldest
        // first restores the invariant before serving (not counted as
        // run-visible evictions — no run is in flight yet).
        for (_, key, bytes) in found {
            cache.unlink(cache.index.insert(key, (), bytes));
        }
        Ok(cache)
    }

    /// Attaches a hot in-memory tier with the given byte budget (0
    /// disables it). Builder-style; call before sharing the cache.
    #[must_use]
    pub fn with_mem_tier(mut self, budget_bytes: u64) -> RenderCache {
        self.mem = (budget_bytes > 0).then(|| MemTier::new(budget_bytes));
        self
    }

    /// The in-memory tier, if one is attached.
    pub fn mem_tier(&self) -> Option<&MemTier> {
        self.mem.as_ref()
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Entries evicted since open (budget pressure or corruption).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total bytes currently indexed.
    pub fn bytes_held(&self) -> u64 {
        self.index.total()
    }

    /// Number of entries currently indexed.
    pub fn entries(&self) -> usize {
        self.index.len()
    }

    /// Looks up a cached whole result by plan fingerprint.
    pub fn load_result(&self, fingerprint: u64) -> Option<VideoStream> {
        self.load_result_tiered(fingerprint).map(|(s, _)| s)
    }

    /// Looks up a cached whole result, reporting which tier served it.
    pub fn load_result_tiered(&self, fingerprint: u64) -> Option<(VideoStream, Origin)> {
        let key = EntryKey::Result(fingerprint);
        let (frag, origin) = self.load(key)?;
        match (*frag).clone().into_stream() {
            Ok(stream) => Some((stream, origin)),
            Err(_) => {
                // Checksum-clean but not a stream: drop it from both
                // tiers so the caller re-renders and re-stores.
                if let Some(mem) = &self.mem {
                    mem.invalidate(key);
                }
                self.evict_corrupt(key);
                None
            }
        }
    }

    /// Looks up a cached segment fragment by key.
    pub fn load_segment(&self, key: u64) -> Option<Fragment> {
        self.load_segment_tiered(key).map(|(f, _)| (*f).clone())
    }

    /// Looks up a cached segment fragment, reporting which tier served
    /// it. The fragment is shared (`Arc`) so a memory hit copies
    /// nothing.
    pub fn load_segment_tiered(&self, key: u64) -> Option<(Arc<Fragment>, Origin)> {
        self.load(EntryKey::Segment(key))
    }

    /// Stores a whole result under the plan fingerprint. Best-effort:
    /// an I/O failure leaves the cache without the entry, nothing more.
    pub fn store_result(&self, fingerprint: u64, stream: &VideoStream) -> std::io::Result<()> {
        let frag = Fragment::from_stream(stream);
        self.store(EntryKey::Result(fingerprint), &frag)
    }

    /// Stores a rendered segment fragment under its key.
    pub fn store_segment(&self, key: u64, frag: &Fragment) -> std::io::Result<()> {
        self.store(EntryKey::Segment(key), frag)
    }

    /// Memory tier, then disk (touching the entry's LRU stamp and
    /// offering the fragment to the memory tier's admission gate).
    fn load(&self, key: EntryKey) -> Option<(Arc<Fragment>, Origin)> {
        if let Some(frag) = self.mem.as_ref().and_then(|mem| mem.get(key)) {
            return Some((frag, Origin::Memory));
        }
        self.index.get(&key)?;
        match read_fragment(self.dir.join(key.file_name())) {
            Ok(frag) => {
                let frag = Arc::new(frag);
                if let Some(mem) = &self.mem {
                    mem.admit(key, &frag, frag.byte_size());
                }
                Some((frag, Origin::Disk))
            }
            Err(_) => {
                // Corrupt (checksum, truncation) or vanished: evict so
                // the slot is re-rendered, never surfaced.
                self.evict_corrupt(key);
                None
            }
        }
    }

    fn store(&self, key: EntryKey, frag: &Fragment) -> std::io::Result<()> {
        let bytes = fragment_to_bytes(frag)
            .map_err(|e| std::io::Error::other(format!("fragment encode: {e}")))?;
        if self.budget_bytes > 0 && bytes.len() as u64 > self.budget_bytes {
            // Larger than the whole budget: storing it would only evict
            // everything else and then itself on the next insert.
            return Ok(());
        }
        let name = key.file_name();
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{name}.{}.{seq}.tmp", std::process::id()));
        std::fs::write(&tmp, &bytes)?;
        // Publish atomically; a concurrent writer of the same key simply
        // wins the rename race with identical content.
        std::fs::rename(&tmp, self.dir.join(name))?;
        let evicted = self.index.insert(key, (), bytes.len() as u64);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        self.unlink(evicted);
        Ok(())
    }

    /// Deletes the files behind entries the index just evicted.
    fn unlink(&self, evicted: Vec<(EntryKey, ())>) {
        for (key, ()) in evicted {
            let _ = std::fs::remove_file(self.dir.join(key.file_name()));
        }
    }

    /// Drops a corrupt entry: file and index row, counted as an
    /// eviction exactly once even under concurrent detection.
    fn evict_corrupt(&self, key: EntryKey) {
        if self.index.remove(&key).is_some() {
            let _ = std::fs::remove_file(self.dir.join(key.file_name()));
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-run segment-cache context threaded through
/// [`ExecOptions`](crate::ExecOptions): the shared tiers plus this
/// plan's per-segment keys (aligned with `plan.segments`; `None` marks
/// an uncacheable segment). Either tier may be absent — a daemon with
/// no `--cache-dir` still shares in-flight renders, and a one-shot
/// `v2v run` uses the disk cache without a flight.
#[derive(Debug, Default)]
pub struct SegmentCacheCtx {
    /// The shared persistent cache (with optional memory tier).
    pub cache: Option<Arc<RenderCache>>,
    /// The in-flight single-flight registry for concurrent sharing.
    pub flight: Option<Arc<FragmentFlight>>,
    /// Per-segment keys from [`v2v_plan::fingerprint::segment_keys`].
    pub keys: Vec<Option<u64>>,
    /// Optional remote dispatch hook (coordinator role): consulted for
    /// keyed whole segments that miss every local tier, before the
    /// in-process render.
    pub remote: Option<Arc<dyn crate::remote::RemoteRenderer>>,
}

impl SegmentCacheCtx {
    /// The cache key for segment `seg_index`, if it is cacheable.
    pub fn key(&self, seg_index: usize) -> Option<u64> {
        self.keys.get(seg_index).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_codec::CodecParams;
    use v2v_container::StreamWriter;
    use v2v_frame::{Frame, FrameType};
    use v2v_time::{r, Rational};

    fn sample_fragment(n: usize, fill: u8) -> Fragment {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 4, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            for v in f.plane_mut(0).data_mut() {
                *v = fill.wrapping_add(i as u8);
            }
            w.push_frame(&f).unwrap();
        }
        Fragment::from_stream(&w.finish().unwrap())
    }

    /// A fresh directory per call: test name + pid + counter, so no
    /// two tests (or reruns racing a slow cleanup) ever share files.
    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "v2v_render_cache_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_load_round_trip_and_persistence() {
        let dir = temp_dir("round_trip");
        let frag = sample_fragment(6, 10);
        {
            let cache = RenderCache::open(&dir, 1 << 20).unwrap();
            cache.store_segment(42, &frag).unwrap();
            let back = cache.load_segment(42).unwrap();
            assert_eq!(back.len(), 6);
            assert!(cache.load_segment(43).is_none());
        }
        // A fresh open over the same directory sees the entry.
        let cache = RenderCache::open(&dir, 1 << 20).unwrap();
        assert_eq!(cache.entries(), 1);
        assert!(cache.load_segment(42).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_written_by_the_parent_format_are_hits() {
        // The on-disk names are a compatibility surface: a directory
        // populated by an earlier build must be read back as hits.
        let dir = temp_dir("parent_format");
        std::fs::create_dir_all(&dir).unwrap();
        let frag = sample_fragment(6, 10);
        let bytes = fragment_to_bytes(&frag).unwrap();
        std::fs::write(dir.join("seg-000000000000002a.svf"), &bytes).unwrap();
        std::fs::write(dir.join("res-00000000deadbeef.svf"), &bytes).unwrap();
        // Foreign files are neither indexed nor ever deleted.
        std::fs::write(dir.join("seg-2a.svf"), &bytes).unwrap();
        std::fs::write(dir.join("notes.svf"), b"not ours").unwrap();
        let cache = RenderCache::open(&dir, 1 << 20).unwrap();
        assert_eq!(cache.entries(), 2);
        assert_eq!(cache.bytes_held(), 2 * bytes.len() as u64);
        assert_eq!(cache.load_segment(0x2a).unwrap().len(), 6);
        assert_eq!(cache.load_result(0xdead_beef).unwrap().len(), 6);
        assert!(cache.load_segment(0xdead_beef).is_none());
        // And what this build writes carries the same names and bytes.
        cache.store_segment(0x2b, &frag).unwrap();
        cache
            .store_result(0x2c, &frag.clone().into_stream().unwrap())
            .unwrap();
        for name in ["seg-000000000000002b.svf", "res-000000000000002c.svf"] {
            assert_eq!(std::fs::read(dir.join(name)).unwrap(), bytes, "{name}");
        }
        assert!(dir.join("notes.svf").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_evicted_not_surfaced() {
        let dir = temp_dir("corrupt");
        let cache = RenderCache::open(&dir, 1 << 20).unwrap();
        cache.store_segment(7, &sample_fragment(5, 3)).unwrap();
        // Flip a byte in the packet table on disk.
        let path = dir.join("seg-0000000000000007.svf");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load_segment(7).is_none(), "corrupt entry must miss");
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.entries(), 0);
        assert!(!path.exists(), "corrupt file must be deleted");
        // The slot is reusable.
        cache.store_segment(7, &sample_fragment(5, 3)).unwrap();
        assert!(cache.load_segment(7).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let dir = temp_dir("budget");
        let frag = sample_fragment(8, 1);
        let one = fragment_to_bytes(&frag).unwrap().len() as u64;
        // Room for two entries, not three.
        let cache = RenderCache::open(&dir, one * 2 + one / 2).unwrap();
        cache.store_segment(1, &frag).unwrap();
        cache.store_segment(2, &frag).unwrap();
        assert_eq!(cache.evictions(), 0);
        // Touch 1 so 2 is the LRU victim.
        assert!(cache.load_segment(1).is_some());
        cache.store_segment(3, &frag).unwrap();
        assert!(cache.evictions() >= 1);
        assert!(cache.bytes_held() <= cache.budget_bytes());
        assert!(cache.load_segment(2).is_none(), "LRU victim gone");
        assert!(cache.load_segment(1).is_some());
        assert!(cache.load_segment(3).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_temp_files_and_over_budget_dirs() {
        let dir = temp_dir("sweep");
        {
            let cache = RenderCache::open(&dir, 1 << 20).unwrap();
            for k in 0..4 {
                cache
                    .store_segment(k, &sample_fragment(8, k as u8))
                    .unwrap();
            }
        }
        std::fs::write(dir.join("seg-dead.svf.123.tmp"), b"torn write").unwrap();
        // Reopen with a budget that fits only ~2 entries.
        let one = fragment_to_bytes(&sample_fragment(8, 0)).unwrap().len() as u64;
        let cache = RenderCache::open(&dir, one * 2 + one / 2).unwrap();
        assert!(cache.bytes_held() <= cache.budget_bytes());
        assert!(!dir.join("seg-dead.svf.123.tmp").exists());
        // Open-time pruning is not charged to any run.
        assert_eq!(cache.evictions(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_entries_rebuild_streams() {
        let dir = temp_dir("result");
        let cache = RenderCache::open(&dir, 1 << 20).unwrap();
        let frag = sample_fragment(6, 9);
        let stream = frag.clone().into_stream().unwrap();
        cache.store_result(0xabcd, &stream).unwrap();
        let back = cache.load_result(0xabcd).unwrap();
        assert_eq!(back.len(), stream.len());
        assert_eq!(back.content_digest(), stream.content_digest());
        assert!(cache.load_result(0xabce).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_tier_serves_repeats_without_disk() {
        let dir = temp_dir("mem_tier");
        let cache = RenderCache::open(&dir, 1 << 20)
            .unwrap()
            .with_mem_tier(1 << 20);
        cache.store_segment(11, &sample_fragment(6, 4)).unwrap();
        // First load: disk (counts one mem-tier access).
        let (_, tier) = cache.load_segment_tiered(11).unwrap();
        assert_eq!(tier, Origin::Disk);
        // Second load: disk again, but now past the promotion gate.
        let (_, tier) = cache.load_segment_tiered(11).unwrap();
        assert_eq!(tier, Origin::Disk);
        // Third load: memory — survives deleting the backing file.
        std::fs::remove_file(dir.join("seg-000000000000000b.svf")).unwrap();
        let (frag, tier) = cache.load_segment_tiered(11).unwrap();
        assert_eq!(tier, Origin::Memory);
        assert_eq!(frag.len(), 6);
        assert_eq!(cache.mem_tier().unwrap().hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_entries_promote_to_mem_tier() {
        let dir = temp_dir("mem_result");
        let cache = RenderCache::open(&dir, 1 << 20)
            .unwrap()
            .with_mem_tier(1 << 20);
        let stream = sample_fragment(5, 8).into_stream().unwrap();
        cache.store_result(0x77, &stream).unwrap();
        assert_eq!(cache.load_result_tiered(0x77).unwrap().1, Origin::Disk);
        assert_eq!(cache.load_result_tiered(0x77).unwrap().1, Origin::Disk);
        let (back, tier) = cache.load_result_tiered(0x77).unwrap();
        assert_eq!(tier, Origin::Memory);
        assert_eq!(back.content_digest(), stream.content_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_entry_is_not_stored() {
        let dir = temp_dir("oversized");
        let cache = RenderCache::open(&dir, 64).unwrap();
        cache.store_segment(5, &sample_fragment(8, 2)).unwrap();
        assert_eq!(
            cache.entries(),
            0,
            "entry larger than the budget is skipped"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
