//! The memory-mapped shard backend: lazily maps shard files on demand and
//! bounds the total mapped bytes with a CLOCK (second-chance) cache —
//! the same eviction discipline as the serving activation cache, applied
//! to whole shards instead of activation rows.
//!
//! Why bound *mapped* bytes rather than resident bytes: the out-of-core CI
//! smoke asserts the RSS cap with `ulimit -v`, which limits the address
//! space — a mapping counts against it whether or not its pages are
//! resident. Bounding the mappings therefore bounds both.
//!
//! Reader safety: `get()` hands out `Arc<ShardData>`. Eviction only drops
//! the cache's own `Arc`; the munmap runs when the **last** reader drops
//! theirs, so a reader never observes a partially unmapped (or remapped)
//! shard — the same "readers never observe partial state" rule the
//! activation cache enforces with its all-or-nothing gather.
//!
//! # Structure
//!
//! The cache state lives in [`StoreCore`], shared by `Arc` between the
//! consumer-facing [`MmapStore`] and the optional background
//! [`Prefetcher`](super::prefetch::Prefetcher) thread (enabled at open;
//! the CLI's `--prefetch`). The prefetcher
//! pages shards in *ahead* of the consumer through
//! [`StoreCore::prefetch_load`], whose eviction sweep is **guarded**: it
//! never clears referenced bits and never evicts pinned or referenced
//! shards, so speculative page-in cannot push out what the current batch
//! is reading — at worst it declines and the demand path pays the map
//! synchronously, exactly as with no prefetcher at all.

use super::prefetch::Prefetcher;
use super::shard::{
    shard_file_name, ShardData, StoreManifest, FORMAT_VERSION, INDEX_FILE, INDEX_HEADER_LEN,
    INDEX_MAGIC,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A read-only file mapping (unix: `mmap(2)`; elsewhere: a heap copy so
/// the store still functions, without the memory bound).
pub struct Mapping {
    #[cfg(unix)]
    ptr: *mut u8,
    #[cfg(unix)]
    len: usize,
    #[cfg(not(unix))]
    buf: Vec<u8>,
}

#[cfg(unix)]
mod sys {
    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;
}

// Safety: the mapping is read-only for its whole lifetime.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Map the first `len` bytes of `file` read-only.
    #[cfg(unix)]
    pub fn map(file: &std::fs::File, len: usize) -> io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Ok(Mapping {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mapping { ptr, len })
    }

    #[cfg(not(unix))]
    pub fn map(file: &std::fs::File, len: usize) -> io::Result<Mapping> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len);
        let got = file.take(len as u64).read_to_end(&mut buf)?;
        if got != len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("short read: got {got} of {len} bytes"),
            ));
        }
        Ok(Mapping { buf })
    }

    /// The mapped bytes.
    #[cfg(unix)]
    pub fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // Safety: ptr/len come from a successful mmap that lives until Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    #[cfg(not(unix))]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        if self.len > 0 {
            // Safety: exact pair of the successful mmap in `map`.
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }
}

/// Counters exported by [`MmapStore::cache_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCacheStats {
    /// Shard probes answered from an already-mapped shard.
    pub hits: u64,
    /// Shard probes that had to map the file.
    pub misses: u64,
    /// Shards unmapped by the CLOCK hand to respect the budget.
    pub evictions: u64,
    /// Bytes currently charged against the budget (mapped shards).
    pub mapped_bytes: usize,
    /// Shards currently mapped.
    pub resident_shards: usize,
    /// Prefetch requests accepted into the queue (post-dedup).
    pub prefetch_issued: u64,
    /// Demand probes served by a shard the prefetcher had mapped.
    pub prefetch_hits: u64,
    /// Prefetched shards evicted (or declined for lack of evictable
    /// room) without ever serving a demand probe.
    pub prefetch_wasted: u64,
}

impl StoreCacheStats {
    /// Hit fraction over all shard probes so far (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// One-line human summary for CLI reports and banners.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "hits {} misses {} evictions {} ({:.1}% hit rate, {} shards / {:.1} MiB mapped)",
            self.hits,
            self.misses,
            self.evictions,
            100.0 * self.hit_rate(),
            self.resident_shards,
            self.mapped_bytes as f64 / (1 << 20) as f64,
        );
        if self.prefetch_issued > 0 {
            s.push_str(&format!(
                "; prefetch issued {} hit {} wasted {}",
                self.prefetch_issued, self.prefetch_hits, self.prefetch_wasted
            ));
        }
        s
    }
}

/// One cache slot per shard: the resident mapping (if any) plus the CLOCK
/// bookkeeping bits. `referenced` is flipped lock-free on every hit;
/// `pinned` exempts hot shards from eviction entirely; `prefetched`
/// marks a mapping the prefetcher brought in that no demand probe has
/// used yet (for the hit/wasted accounting).
struct Slot {
    data: Mutex<Option<Arc<ShardData>>>,
    referenced: AtomicBool,
    pinned: AtomicBool,
    prefetched: AtomicBool,
    /// Whether the shard file exists on disk (validated at open).
    present: bool,
}

/// The global → (shard, local) index, itself memory-mapped (it is the one
/// O(n) structure the store keeps "resident"; 8 bytes per vertex, charged
/// as fixed overhead rather than against the shard budget).
struct IndexView {
    map: Mapping,
    n: usize,
}

impl IndexView {
    fn open(dir: &Path, n: usize) -> io::Result<IndexView> {
        let path = dir.join(INDEX_FILE);
        let bad = |msg: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("store index {}: {msg}", path.display()),
            )
        };
        let file = std::fs::File::open(&path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("opening store index {}: {e}", path.display()),
            )
        })?;
        let len = file.metadata()?.len() as usize;
        let expect = INDEX_HEADER_LEN + 8 * n;
        if len != expect {
            return Err(bad(format!(
                "file is {len} bytes, expected {expect} for n={n} (truncated or stale)"
            )));
        }
        let map = Mapping::map(&file, len)?;
        let b = map.bytes();
        let magic = u32::from_le_bytes(b[0..4].try_into().unwrap());
        let version = u32::from_le_bytes(b[4..8].try_into().unwrap());
        let stored_n = u64::from_le_bytes(b[8..16].try_into().unwrap()) as usize;
        if magic != INDEX_MAGIC {
            return Err(bad("bad magic".into()));
        }
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "format version {version}, this build reads v{FORMAT_VERSION}"
            )));
        }
        if stored_n != n {
            return Err(bad(format!(
                "index covers {stored_n} vertices, manifest says {n}"
            )));
        }
        Ok(IndexView { map, n })
    }

    #[inline]
    fn entry(&self, base: usize, v: u32) -> u32 {
        let off = base + 4 * v as usize;
        let b = &self.map.bytes()[off..off + 4];
        u32::from_le_bytes(b.try_into().unwrap())
    }

    #[inline]
    fn part_of(&self, v: u32) -> u32 {
        debug_assert!((v as usize) < self.n);
        self.entry(INDEX_HEADER_LEN, v)
    }

    #[inline]
    fn local_of(&self, v: u32) -> u32 {
        debug_assert!((v as usize) < self.n);
        self.entry(INDEX_HEADER_LEN + 4 * self.n, v)
    }
}

/// The shared cache state behind an opened store: manifest, index, slots
/// and every counter. [`MmapStore`] and the prefetch thread each hold an
/// `Arc<StoreCore>`, so the thread needs no lifetime tie to the store
/// (drop order is handled by [`MmapStore::drop`] joining the thread
/// before the core can be orphaned).
pub(super) struct StoreCore {
    dir: PathBuf,
    manifest: StoreManifest,
    /// Inverse of `manifest.rank` (internal id → external vertex);
    /// empty for natural stores (identity).
    unrank: Vec<u32>,
    index: IndexView,
    slots: Vec<Slot>,
    /// Mapped-bytes budget the CLOCK hand enforces (best effort: a single
    /// shard larger than the budget still loads — the alternative is
    /// livelock).
    budget: usize,
    mapped: AtomicUsize,
    hand: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    prefetch_issued: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_wasted: AtomicU64,
    /// `(cap, d_eff)` memo for `Topology::capped_mean_degree` — the scan
    /// touches every shard, which a bounded cache must never repeat per
    /// sampler batch.
    mean_degree_memo: Mutex<Vec<(u32, f64)>>,
}

impl StoreCore {
    pub(super) fn num_vertices(&self) -> usize {
        self.manifest.n as usize
    }

    pub(super) fn num_shards(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn shard_of(&self, v: u32) -> u32 {
        self.index.part_of(v)
    }

    /// Get shard `sid`, mapping it on demand and evicting others to stay
    /// under the byte budget.
    fn get(&self, sid: usize) -> io::Result<Arc<ShardData>> {
        let slot = self.slots.get(sid).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard {sid} out of range ({} shards)", self.slots.len()),
            )
        })?;
        if !slot.present {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "shard {sid} is not present in store {} (partial deployment?)",
                    self.dir.display()
                ),
            ));
        }
        {
            let guard = slot.data.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(d) = guard.as_ref() {
                self.note_demand_hit(slot);
                return Ok(Arc::clone(d));
            }
        }
        // Miss: load under the slot lock (a racing second loader waits and
        // then takes the hit path above via the re-check).
        let mut guard = slot.data.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(d) = guard.as_ref() {
            self.note_demand_hit(slot);
            return Ok(Arc::clone(d));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let data = Arc::new(ShardData::load(
            &self.dir.join(shard_file_name(sid)),
            sid,
            Some(&self.manifest.shards[sid]),
        )?);
        self.mapped
            .fetch_add(data.mapped_bytes(), Ordering::Relaxed);
        slot.referenced.store(true, Ordering::Relaxed);
        slot.prefetched.store(false, Ordering::Relaxed);
        *guard = Some(Arc::clone(&data));
        drop(guard);
        self.evict_to_budget(sid);
        Ok(data)
    }

    /// Demand-probe hit bookkeeping: flip the CLOCK bit, count the hit,
    /// and credit the prefetcher when it was the one that mapped this.
    fn note_demand_hit(&self, slot: &Slot) {
        slot.referenced.store(true, Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        if slot.prefetched.swap(false, Ordering::Relaxed) {
            self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// CLOCK sweep: unmap unpinned, unreferenced shards until the mapped
    /// total fits the budget. `keep` (the shard just loaded) is exempt so
    /// the caller's handout is never immediately evicted.
    fn evict_to_budget(&self, keep: usize) {
        let nslots = self.slots.len();
        if nslots <= 1 {
            return;
        }
        // Two full sweeps: the first may only clear referenced bits.
        let mut steps = 2 * nslots;
        while self.mapped.load(Ordering::Relaxed) > self.budget && steps > 0 {
            steps -= 1;
            let i = self.hand.fetch_add(1, Ordering::Relaxed) % nslots;
            if i == keep || self.slots[i].pinned.load(Ordering::Relaxed) {
                continue;
            }
            if self.slots[i].referenced.swap(false, Ordering::Relaxed) {
                continue; // second chance
            }
            self.evict_slot(i);
        }
    }

    /// Unmap slot `i` if mapped (caller has already decided it is
    /// evictable). A still-prefetched mapping going out unused is counted
    /// wasted.
    fn evict_slot(&self, i: usize) {
        let mut guard = self.slots[i].data.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(d) = guard.take() {
            self.mapped.fetch_sub(d.mapped_bytes(), Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if self.slots[i].prefetched.swap(false, Ordering::Relaxed) {
                self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
            }
            // Dropping `d` here only drops the cache's Arc; readers
            // holding clones keep the mapping alive until they finish.
        }
    }

    /// Guarded eviction for the prefetch path: one sweep that skips
    /// pinned **and referenced** slots without clearing any referenced
    /// bit — speculative page-in must never push out what the current
    /// batch is reading, and must not perturb the demand CLOCK state.
    /// Returns whether `extra` more bytes now fit the budget.
    fn evict_guarded(&self, extra: usize) -> bool {
        let nslots = self.slots.len();
        for i in 0..nslots {
            if self.mapped.load(Ordering::Relaxed) + extra <= self.budget {
                return true;
            }
            if self.slots[i].pinned.load(Ordering::Relaxed)
                || self.slots[i].referenced.load(Ordering::Relaxed)
            {
                continue;
            }
            self.evict_slot(i);
        }
        self.mapped.load(Ordering::Relaxed) + extra <= self.budget
    }

    /// Prefetch-side page-in of shard `sid`: map it if absent, evicting
    /// only via the guarded sweep. Declines (counting the request wasted)
    /// when nothing evictable can make room — the demand path then pays
    /// the map synchronously, exactly as without a prefetcher.
    pub(super) fn prefetch_load(&self, sid: usize) -> io::Result<()> {
        let Some(slot) = self.slots.get(sid) else {
            return Ok(());
        };
        if !slot.present {
            return Ok(());
        }
        {
            let guard = slot.data.lock().unwrap_or_else(|p| p.into_inner());
            if guard.is_some() {
                return Ok(()); // already resident: nothing to do
            }
        }
        let need = self.manifest.shards[sid].file_len as usize;
        if self.mapped.load(Ordering::Relaxed) + need > self.budget && !self.evict_guarded(need) {
            self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let mut guard = slot.data.lock().unwrap_or_else(|p| p.into_inner());
        if guard.is_some() {
            return Ok(()); // raced with a demand load
        }
        let data = Arc::new(ShardData::load(
            &self.dir.join(shard_file_name(sid)),
            sid,
            Some(&self.manifest.shards[sid]),
        )?);
        self.mapped
            .fetch_add(data.mapped_bytes(), Ordering::Relaxed);
        // Not referenced yet: a prefetched-but-never-used shard is the
        // first thing both sweeps may reclaim.
        slot.referenced.store(false, Ordering::Relaxed);
        slot.prefetched.store(true, Ordering::Relaxed);
        *guard = Some(data);
        Ok(())
    }

    fn cache_stats(&self) -> StoreCacheStats {
        let mut resident_shards = 0;
        for slot in &self.slots {
            if slot
                .data
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .is_some()
            {
                resident_shards += 1;
            }
        }
        StoreCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            mapped_bytes: self.mapped.load(Ordering::Relaxed),
            resident_shards,
            prefetch_issued: self.prefetch_issued.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_wasted: self.prefetch_wasted.load(Ordering::Relaxed),
        }
    }
}

/// A shard store opened for memory-mapped access. See the module docs.
pub struct MmapStore {
    core: Arc<StoreCore>,
    /// Background page-in thread, when enabled at open.
    prefetcher: Option<Prefetcher>,
    /// When set, `Drop` removes the whole store directory (used by the
    /// temp spill of `GraphStore::from_parts`, so it leaves no tmp litter).
    remove_on_drop: bool,
}

impl MmapStore {
    /// Open the store written under `dir`, bounding mapped shard bytes by
    /// `budget` (bytes); `prefetch` starts the background page-in thread.
    /// Eagerly validates the manifest, the index and every *present*
    /// shard file's length — truncation fails here, not at first access.
    /// Missing shard files leave their shard unavailable.
    pub fn open_with_prefetch(dir: &Path, budget: usize, prefetch: bool) -> io::Result<MmapStore> {
        let manifest = StoreManifest::load(dir)?;
        let n = manifest.n as usize;
        let index = IndexView::open(dir, n)?;
        let mut slots = Vec::with_capacity(manifest.num_shards());
        for (sid, info) in manifest.shards.iter().enumerate() {
            let path = dir.join(shard_file_name(sid));
            let present = match std::fs::metadata(&path) {
                Ok(meta) => {
                    if meta.len() != info.file_len {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "shard {}: file is {} bytes but the manifest records {} \
                                 (truncated or corrupt — refusing to open the store)",
                                path.display(),
                                meta.len(),
                                info.file_len
                            ),
                        ));
                    }
                    true
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => false,
                Err(e) => return Err(e),
            };
            slots.push(Slot {
                data: Mutex::new(None),
                referenced: AtomicBool::new(false),
                pinned: AtomicBool::new(false),
                prefetched: AtomicBool::new(false),
                present,
            });
        }
        let mut unrank = Vec::new();
        if !manifest.rank.is_empty() {
            unrank = vec![0u32; n];
            for (v, &r) in manifest.rank.iter().enumerate() {
                unrank[r as usize] = v as u32;
            }
        }
        let core = Arc::new(StoreCore {
            dir: dir.to_path_buf(),
            manifest,
            unrank,
            index,
            slots,
            budget: budget.max(1),
            mapped: AtomicUsize::new(0),
            hand: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            prefetch_issued: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_wasted: AtomicU64::new(0),
            mean_degree_memo: Mutex::new(Vec::new()),
        });
        let prefetcher = prefetch.then(|| Prefetcher::spawn(Arc::clone(&core)));
        Ok(MmapStore {
            core,
            prefetcher,
            remove_on_drop: false,
        })
    }

    /// Mark the store directory for removal when the store drops (the
    /// temp spill of `GraphStore::from_parts` owns its directory).
    pub(super) fn set_remove_on_drop(&mut self) {
        self.remove_on_drop = true;
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.core.dir
    }

    pub fn manifest(&self) -> &StoreManifest {
        &self.core.manifest
    }

    pub fn num_vertices(&self) -> usize {
        self.core.num_vertices()
    }

    pub fn num_edges(&self) -> usize {
        self.core.manifest.num_edges as usize
    }

    pub fn feature_dim(&self) -> usize {
        self.core.manifest.feature_dim as usize
    }

    /// Element type of the stored feature rows (f32 unless the store was
    /// written with `--features bf16`). Gathers always return f32.
    pub fn feature_precision(&self) -> gsgcn_tensor::Precision {
        self.core.manifest.feature_precision
    }

    pub fn label_dim(&self) -> usize {
        self.core.manifest.label_dim as usize
    }

    pub fn num_shards(&self) -> usize {
        self.core.num_shards()
    }

    /// Memoized `d_eff` for `cap`, if a scan already ran on this store.
    pub fn cached_mean_degree(&self, cap: u32) -> Option<f64> {
        let memo = self
            .core
            .mean_degree_memo
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        memo.iter().find(|&&(c, _)| c == cap).map(|&(_, d)| d)
    }

    /// Record the result of a `capped_mean_degree` scan for `cap`.
    pub fn store_mean_degree(&self, cap: u32, d_eff: f64) {
        let mut memo = self
            .core
            .mean_degree_memo
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if !memo.iter().any(|&(c, _)| c == cap) {
            memo.push((cap, d_eff));
        }
    }

    /// Mapped-bytes budget.
    pub fn budget_bytes(&self) -> usize {
        self.core.budget
    }

    /// Placement order this store was written with.
    pub fn order(&self) -> super::order::StoreOrder {
        self.core.manifest.order
    }

    /// Internal (placement) id of external vertex `v` (identity for
    /// natural stores).
    #[inline]
    pub fn to_internal(&self, v: u32) -> u32 {
        self.core.manifest.to_internal(v)
    }

    /// External vertex of internal (placement) id `i` — the inverse of
    /// [`Self::to_internal`].
    #[inline]
    pub fn to_external(&self, i: u32) -> u32 {
        if self.core.unrank.is_empty() {
            i
        } else {
            self.core.unrank[i as usize]
        }
    }

    /// Whether a prefetch thread is serving this store.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetcher.as_ref().is_some_and(|p| !p.degraded())
    }

    /// Hand upcoming vertices to the prefetch thread (advisory, never
    /// blocks): their shards are paged in ahead of the demand reads.
    /// Returns how many shard requests were accepted; 0 with prefetch
    /// off, degraded, or everything already queued.
    pub fn prefetch_nodes(&self, nodes: &[u32]) -> usize {
        if self.prefetcher.is_none() {
            return 0;
        }
        let n = self.num_vertices();
        let mut want = Vec::new();
        let mut seen = vec![false; self.core.slots.len()];
        for &v in nodes {
            if (v as usize) >= n {
                continue;
            }
            let sid = self.core.shard_of(v) as usize;
            if !seen[sid] && self.core.slots[sid].present {
                seen[sid] = true;
                want.push(sid as u32);
            }
        }
        self.prefetch_shards(&want)
    }

    /// As [`Self::prefetch_nodes`] for explicit shard ids.
    pub fn prefetch_shards(&self, sids: &[u32]) -> usize {
        let Some(pf) = &self.prefetcher else { return 0 };
        let accepted = pf.request(sids);
        self.core
            .prefetch_issued
            .fetch_add(accepted as u64, Ordering::Relaxed);
        accepted
    }

    /// Test hook: make the prefetch thread panic on its next request, to
    /// exercise the degraded (synchronous page-in) path.
    #[cfg(test)]
    pub(crate) fn inject_prefetch_panic(&self) {
        if let Some(pf) = &self.prefetcher {
            pf.inject_panic();
        }
    }

    /// Shard id of vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: u32) -> u32 {
        self.core.shard_of(v)
    }

    /// Shard-local slot of vertex `v`.
    #[inline]
    pub fn local_of(&self, v: u32) -> u32 {
        self.core.index.local_of(v)
    }

    /// Whether `v` is a valid vertex **and** its shard file is present.
    pub fn contains(&self, v: u32) -> bool {
        (v as usize) < self.num_vertices() && self.core.slots[self.shard_of(v) as usize].present
    }

    /// Whether shard `sid`'s file is present on disk.
    pub fn shard_present(&self, sid: usize) -> bool {
        self.core.slots.get(sid).is_some_and(|s| s.present)
    }

    /// Get shard `sid`, mapping it on demand and evicting others to stay
    /// under the byte budget.
    pub fn get(&self, sid: usize) -> io::Result<Arc<ShardData>> {
        self.core.get(sid)
    }

    /// The shard holding vertex `v` plus `v`'s local slot in it.
    #[inline]
    pub fn shard_for(&self, v: u32) -> io::Result<(Arc<ShardData>, usize)> {
        let sid = self.shard_of(v) as usize;
        Ok((self.core.get(sid)?, self.local_of(v) as usize))
    }

    /// Pin the shards containing `nodes`: map them now and exempt them
    /// from eviction until [`Self::unpin_all`]. Used by serving to keep
    /// the hot working set resident across queries.
    pub fn pin_nodes(&self, nodes: &[u32]) -> io::Result<usize> {
        let mut pinned = 0;
        for &v in nodes {
            if (v as usize) >= self.num_vertices() {
                continue;
            }
            let sid = self.shard_of(v) as usize;
            if !self.core.slots[sid].present {
                continue;
            }
            if !self.core.slots[sid].pinned.swap(true, Ordering::Relaxed) {
                self.core.get(sid)?;
                pinned += 1;
            }
        }
        Ok(pinned)
    }

    /// Release every pin taken by [`Self::pin_nodes`].
    pub fn unpin_all(&self) {
        for slot in &self.core.slots {
            slot.pinned.store(false, Ordering::Relaxed);
        }
        // Re-apply the budget now that pins no longer shield shards.
        self.core.evict_to_budget(usize::MAX);
    }

    /// Counter snapshot.
    pub fn cache_stats(&self) -> StoreCacheStats {
        self.core.cache_stats()
    }
}

impl Drop for MmapStore {
    fn drop(&mut self) {
        // Join the prefetch thread before any directory teardown: its
        // in-flight load must not race the removal below.
        self.prefetcher.take();
        if self.remove_on_drop {
            let _ = std::fs::remove_dir_all(&self.core.dir);
        }
    }
}

impl std::fmt::Debug for MmapStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapStore")
            .field("dir", &self.core.dir)
            .field("n", &self.num_vertices())
            .field("shards", &self.num_shards())
            .field("budget_bytes", &self.core.budget)
            .field("order", &self.order())
            .field("prefetch", &self.prefetcher.is_some())
            .field("stats", &self.cache_stats())
            .finish()
    }
}
