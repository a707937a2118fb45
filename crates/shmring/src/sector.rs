//! The sector-granular payload pool for variable-length storage
//! transfers.
//!
//! The NIC-shaped [`crate::BufPool`] hands out fixed-size buffers — the
//! right shape for MTU-bounded frames, the wrong one for storage, where
//! a transfer is "some number of sectors" (a 5-byte flash command, a
//! 512-byte sector, a multi-sector scatter write). A [`SectorPool`]
//! carves a [`DmaMemory`] region into sectors and allocates each
//! transfer a scatter-gather *chain* sized to it, so one descriptor
//! handle still names the whole payload and the device can DMA the
//! chain's segments directly.
//!
//! Three properties distinguish it from the frame pool:
//!
//! * **Variable-length chains** — [`SectorPool::alloc_sg`] takes the
//!   byte length and reserves `ceil(len / sector_size)` sectors;
//!   [`SectorPool::free_sg`] reclaims the whole chain from the handle
//!   alone. Frees may arrive out of order — storage devices complete
//!   out of order just like NICs.
//! * **Fragmentation-proof scatter-gather** — a fragmented pool can hold
//!   the bytes for a transfer without holding them *contiguously*. Real
//!   HCDs chain transfer descriptors across discontiguous pages rather
//!   than refusing; an [`SgHandle`] names a chain of contiguous
//!   segments, so an allocation is refused only when the pool genuinely
//!   lacks the sectors — never for shape. The allocator behind it is a
//!   buddy system (order-bucketed free lists, block split on alloc,
//!   buddy merge on free, `O(log n)` per operation): one block when a
//!   free block covers the transfer, else a chain of the largest free
//!   blocks. [`SectorPool::largest_free_run`] reports what a
//!   contiguity-requiring allocator could still place.
//! * **Zero-copy adoption** — storage payloads reach the kernel in
//!   page-granular buffers the device can DMA directly (the page cache,
//!   an `O_DIRECT` user buffer). [`SectorPool::adopt_payload_sg`] models
//!   that donation: the chain is *mapped*, not memcpy'd, charging
//!   [`costs::SECTOR_MAP_NS`] per sector instead of a per-byte copy, and
//!   [`decaf_simkernel::kernel::KernelStats::bytes_copied`] stays
//!   untouched.
//!
//! Conservation is a checked invariant: every sector ever allocated is
//! either reclaimed or still in use ([`SectorPool::conserved`]), and two
//! live chains never alias — the property tests in `tests/prop.rs` drive
//! both across arbitrary alloc/free interleavings, and check the pool
//! against a first-fit oracle for the completeness property (it never
//! refuses a transfer it has the bytes for).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use decaf_simkernel::{costs, DmaMemory, Kernel};

use crate::pool::PoolError;

/// Handle to one scatter-gather chain: an ordered list of contiguous
/// sector runs that together back one transfer. Allocated by
/// [`SectorPool::alloc_sg`]; the segment list is the pool's bookkeeping
/// ([`SectorPool::sg_segments`]), so the handle stays 4 bytes and rides
/// a ring descriptor unchanged. A zero-length transfer is a valid chain
/// with **no** segments — it allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SgHandle(pub u32);

/// One contiguous segment of a scatter-gather chain, in DMA terms: what
/// a transfer descriptor points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgSegment {
    /// Byte offset of the segment inside the pool's DMA region.
    pub offset: usize,
    /// Segment capacity in bytes (a whole number of sectors).
    pub bytes: usize,
}

/// Conservation counters for one sector pool.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SectorPoolStats {
    /// Successful allocations (a chain counts once however many
    /// segments it spans).
    pub allocs: u64,
    /// Chains handed back.
    pub frees: u64,
    /// Allocations refused with *too few free sectors in total* — true
    /// out-of-space, which no allocator shape can fix.
    pub exhausted: u64,
    /// Allocations refused while the pool held **enough free sectors** —
    /// fragmentation refusals, the spurious-failure class that
    /// scatter-gather chaining eliminates. A completeness tripwire: it
    /// stays zero on a correct pool.
    pub frag_refusals: u64,
    /// Sectors ever allocated (summed over chains).
    pub sectors_allocated: u64,
    /// Sectors ever reclaimed.
    pub sectors_reclaimed: u64,
    /// Most sectors simultaneously in use.
    pub in_use_hwm: u64,
}

/// Order-bucketed buddy free lists over sector indices.
///
/// `lists[k]` holds the start sectors of free blocks of `2^k` sectors,
/// sorted ascending so every pop is deterministic (lowest address
/// first). Blocks are split on allocation and merged with their buddy
/// (`start ^ (1 << k)`) on free. Non-power-of-two pool sizes are
/// covered by the greedy aligned decomposition in `insert_range`.
#[derive(Debug)]
struct Buddy {
    lists: Vec<Vec<u32>>,
}

impl Buddy {
    fn new(count: usize) -> Self {
        let orders = count.ilog2() as usize + 1;
        let mut b = Buddy {
            lists: vec![Vec::new(); orders],
        };
        b.insert_range(0, count);
        b
    }

    /// Decomposes `[start, start + len)` into maximal aligned
    /// power-of-two blocks and inserts each (merging as it goes).
    fn insert_range(&mut self, mut start: usize, mut len: usize) {
        while len > 0 {
            let align = if start == 0 {
                self.lists.len() - 1
            } else {
                start.trailing_zeros() as usize
            };
            let k = align.min(len.ilog2() as usize).min(self.lists.len() - 1);
            self.insert_block(start, k);
            start += 1 << k;
            len -= 1 << k;
        }
    }

    /// Inserts a free block of order `k`, merging with its buddy
    /// repeatedly while the buddy is also free.
    fn insert_block(&mut self, mut start: usize, mut k: usize) {
        while k + 1 < self.lists.len() {
            let buddy = start ^ (1 << k);
            if !self.remove_block(buddy, k) {
                break;
            }
            start &= !(1 << k);
            k += 1;
        }
        let list = &mut self.lists[k];
        let pos = list.partition_point(|&s| (s as usize) < start);
        list.insert(pos, start as u32);
    }

    /// Removes a specific block from order `k` if it is free there.
    fn remove_block(&mut self, start: usize, k: usize) -> bool {
        match self.lists[k].binary_search(&(start as u32)) {
            Ok(pos) => {
                self.lists[k].remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Allocates `need` contiguous sectors: smallest sufficient order,
    /// lowest address within it, exact-trim of the tail back into the
    /// free lists (so accounting stays sector-exact — no internal
    /// fragmentation is ever held by a run).
    fn alloc_contig(&mut self, need: usize) -> Option<usize> {
        let kmin = need.next_power_of_two().ilog2() as usize;
        for k in kmin..self.lists.len() {
            if !self.lists[k].is_empty() {
                let start = self.lists[k].remove(0) as usize;
                let size = 1usize << k;
                if size > need {
                    self.insert_range(start + need, size - need);
                }
                return Some(start);
            }
        }
        None
    }

    /// Pops the largest free block whole (lowest address among the
    /// largest order) — the scatter-gather fallback when no single
    /// block covers the remainder of a transfer.
    fn grab_largest(&mut self) -> Option<(usize, usize)> {
        for k in (0..self.lists.len()).rev() {
            if !self.lists[k].is_empty() {
                let start = self.lists[k].remove(0) as usize;
                return Some((start, 1usize << k));
            }
        }
        None
    }

    /// Free blocks as sorted `(start, sectors)` pairs.
    fn blocks(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = self
            .lists
            .iter()
            .enumerate()
            .flat_map(|(k, l)| l.iter().map(move |&s| (s as usize, 1usize << k)))
            .collect();
        out.sort_unstable();
        out
    }
}

/// A pool of `sector_size`-byte sectors carved out of a [`DmaMemory`]
/// region, allocated as scatter-gather chains over a buddy allocator.
///
/// # Example
///
/// ```
/// use decaf_shmring::SectorPool;
/// use decaf_simkernel::Kernel;
///
/// let kernel = Kernel::new();
/// let pool = SectorPool::with_capacity(512, 8);
/// // A 517-byte flash write command spans two sectors.
/// let chain = pool.alloc_sg(517).unwrap();
/// assert_eq!(pool.sg_capacity(chain).unwrap(), 1024);
/// // Adoption maps the caller's pages instead of copying them.
/// pool.adopt_payload_sg(&kernel, &vec![0xa5; 517], chain).unwrap();
/// assert_eq!(kernel.stats().bytes_copied, 0);
/// assert_eq!(pool.read_payload_sg(chain, 517).unwrap(), vec![0xa5; 517]);
///
/// // A zero-length (status-stage) transfer is a chain with no segments.
/// let status = pool.alloc_sg(0).unwrap();
/// assert_eq!(pool.sg_segments(status).unwrap().len(), 0);
/// pool.free_sg(chain).unwrap();
/// pool.free_sg(status).unwrap();
/// assert!(pool.conserved());
/// ```
#[derive(Debug)]
pub struct SectorPool {
    dma: DmaMemory,
    base: usize,
    sector_size: usize,
    /// Per-sector in-use flags: the authoritative occupancy the buddy
    /// free lists are checked against.
    in_use: RefCell<Vec<bool>>,
    buddy: RefCell<Buddy>,
    /// Segments of each live chain as `(first_sector, sectors)`, keyed
    /// by SG handle id.
    chains: RefCell<HashMap<u32, Vec<(usize, usize)>>>,
    next_sg: Cell<u32>,
    stats: Cell<SectorPoolStats>,
}

impl SectorPool {
    /// Builds a pool of `count` sectors of `sector_size` bytes starting
    /// at byte `base` of `dma`.
    ///
    /// # Panics
    /// Panics if the region does not fit inside `dma`, or `count` or
    /// `sector_size` is zero.
    pub fn new(dma: DmaMemory, base: usize, sector_size: usize, count: usize) -> Self {
        assert!(count > 0, "a pool needs at least one sector");
        assert!(sector_size > 0, "sectors need a size");
        assert!(
            base + sector_size * count <= dma.len(),
            "sector region {base}+{sector_size}x{count} exceeds DMA size {}",
            dma.len()
        );
        SectorPool {
            dma,
            base,
            sector_size,
            in_use: RefCell::new(vec![false; count]),
            buddy: RefCell::new(Buddy::new(count)),
            chains: RefCell::new(HashMap::new()),
            next_sg: Cell::new(0),
            stats: Cell::new(SectorPoolStats::default()),
        }
    }

    /// Builds a standalone pool over its own fresh DMA region (tests and
    /// the storage ablation, where no device model is attached).
    pub fn with_capacity(sector_size: usize, count: usize) -> Self {
        SectorPool::new(DmaMemory::new(sector_size * count), 0, sector_size, count)
    }

    /// Bytes per sector.
    pub fn sector_size(&self) -> usize {
        self.sector_size
    }

    /// Total sectors.
    pub fn capacity_sectors(&self) -> usize {
        self.in_use.borrow().len()
    }

    /// Sectors currently free (not necessarily contiguous).
    pub fn available_sectors(&self) -> usize {
        self.in_use.borrow().iter().filter(|u| !**u).count()
    }

    /// Sectors currently allocated.
    pub fn in_use_sectors(&self) -> usize {
        self.capacity_sectors() - self.available_sectors()
    }

    /// Live scatter-gather chains.
    pub fn live_chains(&self) -> usize {
        self.chains.borrow().len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SectorPoolStats {
        self.stats.get()
    }

    /// The conservation invariant: every sector ever allocated is either
    /// reclaimed or still in use — none lost, none double-counted — and
    /// the buddy free lists agree exactly with the occupancy flags.
    pub fn conserved(&self) -> bool {
        let s = self.stats.get();
        let counters = s.sectors_allocated == s.sectors_reclaimed + self.in_use_sectors() as u64;
        let free: usize = self.buddy.borrow().blocks().iter().map(|&(_, n)| n).sum();
        counters && free == self.available_sectors()
    }

    /// Sectors a `len`-byte transfer occupies. Zero-length transfers
    /// (USB status-stage shape) occupy **zero** sectors — they are
    /// represented as empty segment chains, not a burned sector.
    pub fn sectors_for(&self, len: usize) -> usize {
        len.div_ceil(self.sector_size)
    }

    /// The buddy free blocks as sorted `(first_sector, sectors)` pairs.
    /// Exposed so the property tests can check buddy-merge correctness
    /// against the canonical decomposition of a fresh pool, and so the
    /// fragmentation ablation can read the pinned free map.
    pub fn free_extents(&self) -> Vec<(usize, usize)> {
        self.buddy.borrow().blocks()
    }

    /// The longest stretch of adjacent free sectors, with free blocks
    /// merged across buddy boundaries: the largest transfer a
    /// contiguity-requiring allocator (first-fit) could still place.
    pub fn largest_free_run(&self) -> usize {
        let (mut best, mut run, mut end) = (0, 0, None);
        for (start, n) in self.free_extents() {
            run = if end == Some(start) { run + n } else { n };
            end = Some(start + n);
            best = best.max(run);
        }
        best
    }

    fn bump(&self, f: impl FnOnce(&mut SectorPoolStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Classifies a refusal: enough free sectors in total means a
    /// fragmentation refusal, too few means true exhaustion. Both
    /// surface as [`PoolError::Exhausted`] so backpressure handling
    /// upstream stays uniform — the *counters* carry the distinction.
    fn refuse(&self, need: usize) -> PoolError {
        if need <= self.available_sectors() {
            self.bump(|s| s.frag_refusals += 1);
        } else {
            self.bump(|s| s.exhausted += 1);
        }
        PoolError::Exhausted
    }

    /// Sets the occupancy flags of `[start, start + len)` to `used`.
    fn set_in_use(&self, start: usize, len: usize, used: bool) {
        let mut in_use = self.in_use.borrow_mut();
        for flag in in_use.iter_mut().skip(start).take(len) {
            debug_assert_ne!(*flag, used, "sector occupancy flipped twice");
            *flag = used;
        }
    }

    /// Clears a segment's sectors and returns them to the buddy lists.
    fn release(&self, start: usize, len: usize) {
        self.set_in_use(start, len, false);
        self.buddy.borrow_mut().insert_range(start, len);
    }

    /// Allocates a scatter-gather chain for a `len`-byte transfer.
    ///
    /// * `len == 0` → an empty chain holding **no** sectors (the USB
    ///   status-stage shape) — nothing is allocated, nothing leaks.
    /// * otherwise one contiguous segment when a free block covers the
    ///   transfer, else a chain of the largest free blocks — which makes
    ///   allocation **complete**: it succeeds whenever the pool has
    ///   `sectors_for(len)` sectors free, fragmented or not.
    ///
    /// Returns [`PoolError::TooLarge`] when `len` exceeds the whole
    /// pool, [`PoolError::Exhausted`] otherwise on refusal (classified
    /// into [`SectorPoolStats::frag_refusals`] vs
    /// [`SectorPoolStats::exhausted`]).
    pub fn alloc_sg(&self, len: usize) -> Result<SgHandle, PoolError> {
        let need = self.sectors_for(len);
        if need > self.capacity_sectors() {
            return Err(PoolError::TooLarge {
                len,
                buf_size: self.capacity_sectors() * self.sector_size,
            });
        }
        let mut segs: Vec<(usize, usize)> = Vec::new();
        let mut remaining = need;
        while remaining > 0 {
            let grabbed = {
                let mut buddy = self.buddy.borrow_mut();
                match buddy.alloc_contig(remaining) {
                    Some(start) => Some((start, remaining)),
                    None => buddy.grab_largest(),
                }
            };
            let Some((start, size)) = grabbed else {
                // Roll the partial chain back — a refused allocation
                // must leave the pool exactly as it found it.
                for (start, size) in segs {
                    self.release(start, size);
                }
                return Err(self.refuse(need));
            };
            debug_assert!(size <= remaining, "a covering block would have been taken");
            self.set_in_use(start, size, true);
            segs.push((start, size));
            remaining -= size;
        }
        let id = self.next_sg.get();
        self.next_sg.set(id.wrapping_add(1));
        self.chains.borrow_mut().insert(id, segs);
        let in_use_now = self.in_use_sectors() as u64;
        self.bump(|s| {
            s.allocs += 1;
            s.sectors_allocated += need as u64;
            s.in_use_hwm = s.in_use_hwm.max(in_use_now);
        });
        Ok(SgHandle(id))
    }

    /// Returns a whole chain to the pool. Order-independent; double
    /// frees and stale handles are rejected. Returns the number of
    /// sectors reclaimed (zero for an empty chain).
    pub fn free_sg(&self, h: SgHandle) -> Result<usize, PoolError> {
        let Some(segs) = self.chains.borrow_mut().remove(&h.0) else {
            return Err(PoolError::NotAllocated(h.0));
        };
        let mut total = 0usize;
        for (start, size) in segs {
            self.release(start, size);
            total += size;
        }
        self.bump(|s| {
            s.frees += 1;
            s.sectors_reclaimed += total as u64;
        });
        Ok(total)
    }

    /// The chain's segments in transfer order, as DMA extents — what
    /// the HCD programs one transfer descriptor per entry from.
    pub fn sg_segments(&self, h: SgHandle) -> Result<Vec<SgSegment>, PoolError> {
        let chains = self.chains.borrow();
        let segs = chains.get(&h.0).ok_or(PoolError::NotAllocated(h.0))?;
        Ok(segs
            .iter()
            .map(|&(start, size)| SgSegment {
                offset: self.base + start * self.sector_size,
                bytes: size * self.sector_size,
            })
            .collect())
    }

    /// Total byte capacity of a chain (zero for an empty chain).
    pub fn sg_capacity(&self, h: SgHandle) -> Result<usize, PoolError> {
        Ok(self.sg_segments(h)?.iter().map(|s| s.bytes).sum())
    }

    /// Donates `data`'s pages to a chain *without a CPU copy*: the
    /// storage stack's zero-copy submission path (page cache or
    /// `O_DIRECT` pages are DMA-able where they sit; the writes below
    /// only keep the simulated [`DmaMemory`] coherent). The payload is
    /// mapped segment by segment, charging [`costs::SECTOR_MAP_NS`] per
    /// sector — the page-table/IOMMU work of mapping the chain — and
    /// *not* [`Kernel::charge_copy`].
    pub fn adopt_payload_sg(
        &self,
        kernel: &Kernel,
        data: &[u8],
        h: SgHandle,
    ) -> Result<(), PoolError> {
        let segs = self.sg_segments(h)?;
        let cap: usize = segs.iter().map(|s| s.bytes).sum();
        if data.len() > cap {
            return Err(PoolError::TooLarge {
                len: data.len(),
                buf_size: cap,
            });
        }
        let mut written = 0usize;
        for seg in &segs {
            if written >= data.len() {
                break;
            }
            let n = seg.bytes.min(data.len() - written);
            self.dma
                .write_bytes(seg.offset, &data[written..written + n]);
            written += n;
        }
        kernel.charge_kernel(self.sectors_for(data.len()) as u64 * costs::SECTOR_MAP_NS);
        Ok(())
    }

    /// Gathers `len` payload bytes back out of a chain, segment by
    /// segment.
    ///
    /// No copy cost is charged: the consumer reads the payload *in
    /// place* — the `Vec` is a simulation artifact, not a modeled copy.
    /// This is the IN-direction ownership handback: the completion hands
    /// the *chain* back, never a copied payload.
    pub fn read_payload_sg(&self, h: SgHandle, len: usize) -> Result<Vec<u8>, PoolError> {
        let segs = self.sg_segments(h)?;
        let cap: usize = segs.iter().map(|s| s.bytes).sum();
        if len > cap {
            return Err(PoolError::TooLarge { len, buf_size: cap });
        }
        let mut out = Vec::with_capacity(len);
        for seg in &segs {
            if out.len() >= len {
                break;
            }
            let n = seg.bytes.min(len - out.len());
            out.extend_from_slice(&self.dma.read_bytes(seg.offset, n));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocates `n` single-sector chains, one per sector of a fresh pool.
    fn singles(p: &SectorPool, n: usize) -> Vec<SgHandle> {
        (0..n).map(|_| p.alloc_sg(1).unwrap()).collect()
    }

    #[test]
    fn variable_length_runs_allocate_and_reclaim() {
        let p = SectorPool::with_capacity(512, 8);
        let a = p.alloc_sg(5).unwrap(); // 1 sector
        let b = p.alloc_sg(517).unwrap(); // 2 sectors
        let c = p.alloc_sg(1536).unwrap(); // 3 sectors
        assert_eq!(p.sg_capacity(a).unwrap(), 512);
        assert_eq!(p.sg_capacity(b).unwrap(), 2 * 512);
        assert_eq!(p.sg_capacity(c).unwrap(), 3 * 512);
        assert_eq!(p.in_use_sectors(), 6);
        // Out-of-order reclaim.
        assert_eq!(p.free_sg(b).unwrap(), 2);
        assert_eq!(p.free_sg(a).unwrap(), 1);
        assert_eq!(p.free_sg(c).unwrap(), 3);
        assert_eq!(p.available_sectors(), 8);
        assert!(p.conserved());
        assert_eq!(p.stats().sectors_allocated, 6);
        assert_eq!(p.stats().sectors_reclaimed, 6);
    }

    #[test]
    fn first_fit_runs_never_alias_and_fragmentation_refuses() {
        // Live variable-length chains never alias. Two scattered free
        // singles leave no 2-sector run, so a first-fit allocator would
        // refuse a 2-sector transfer as *fragmentation* (the pool has the
        // bytes); the buddy SG pool chains them instead and never refuses.
        let p = SectorPool::with_capacity(64, 6);
        let a = p.alloc_sg(64).unwrap();
        let b = p.alloc_sg(128).unwrap();
        let c = p.alloc_sg(64).unwrap();
        let d = p.alloc_sg(64).unwrap();
        let e = p.alloc_sg(64).unwrap();
        let segs: Vec<_> = [a, b, c, d, e]
            .iter()
            .flat_map(|&h| p.sg_segments(h).unwrap())
            .collect();
        for (i, s1) in segs.iter().enumerate() {
            for s2 in segs.iter().skip(i + 1) {
                assert!(
                    s1.offset + s1.bytes <= s2.offset || s2.offset + s2.bytes <= s1.offset,
                    "live chains alias"
                );
            }
        }
        assert_eq!(p.available_sectors(), 0);
        // Free two singles whose buddies are live: 2 sectors free but
        // not contiguous.
        p.free_sg(a).unwrap();
        p.free_sg(d).unwrap();
        assert_eq!(p.available_sectors(), 2);
        assert_eq!(p.largest_free_run(), 1, "first fit would refuse");
        let chain = p.alloc_sg(128).unwrap();
        assert_eq!(p.sg_segments(chain).unwrap().len(), 2);
        assert_eq!(p.stats().frag_refusals, 0, "bytes were there: chained");
        assert_eq!(p.stats().exhausted, 0);
        p.free_sg(chain).unwrap();
        // A single still fits in either hole.
        let f = p.alloc_sg(10).unwrap();
        assert_eq!(p.sg_capacity(f).unwrap(), 64);
        for h in [b, c, e, f] {
            p.free_sg(h).unwrap();
        }
        assert!(p.conserved());
    }

    #[test]
    fn refusal_counters_split_frag_from_true_exhaustion() {
        // A refusal with too few free sectors is exhaustion; a pool that
        // has the sectors never refuses, however scattered they are, so
        // the fragmentation counter stays at zero.
        let p = SectorPool::with_capacity(64, 4);
        let held = singles(&p, 4);
        // Pool completely full: true exhaustion.
        assert_eq!(p.alloc_sg(64), Err(PoolError::Exhausted));
        assert_eq!(p.stats().exhausted, 1);
        assert_eq!(p.stats().frag_refusals, 0);
        // Free alternating singles: 2 sectors free, none adjacent.
        p.free_sg(held[0]).unwrap();
        p.free_sg(held[2]).unwrap();
        let chain = p.alloc_sg(128).unwrap();
        assert_eq!(p.stats().exhausted, 1, "unchanged");
        assert_eq!(p.stats().frag_refusals, 0, "the pool had the bytes");
        // Three sectors asked of an empty free map: exhaustion again.
        p.free_sg(held[1]).unwrap();
        assert_eq!(p.alloc_sg(128), Err(PoolError::Exhausted));
        assert_eq!(p.stats().exhausted, 2);
        p.free_sg(chain).unwrap();
        assert!(p.conserved());
    }

    #[test]
    fn buddy_merge_restores_contiguity() {
        // Eight singles carve the pool to pieces; freeing them all must
        // merge back to one max-order block so a full-pool transfer gets
        // a single segment again (merge correctness).
        let p = SectorPool::with_capacity(64, 8);
        let held = singles(&p, 8);
        assert_eq!(p.available_sectors(), 0);
        // Free in a scrambled order: merges must cascade regardless.
        for i in [3, 0, 6, 1, 7, 2, 5, 4] {
            p.free_sg(held[i]).unwrap();
        }
        assert_eq!(
            p.free_extents(),
            vec![(0, 8)],
            "buddies merged to one block"
        );
        let big = p.alloc_sg(8 * 64).unwrap();
        assert_eq!(p.sg_segments(big).unwrap().len(), 1, "one contiguous run");
        p.free_sg(big).unwrap();
        assert!(p.conserved());
    }

    #[test]
    fn buddy_contiguous_still_refuses_when_scattered() {
        // Singles whose buddies are live never merge: the free map holds
        // no 2-sector block or run, so a contiguity-requiring allocator
        // would refuse a 2-sector transfer here. Freeing a buddy merges
        // the pair, and the free run spans the adjacent single too.
        let p = SectorPool::with_capacity(64, 4);
        let held = singles(&p, 4);
        p.free_sg(held[0]).unwrap();
        p.free_sg(held[2]).unwrap();
        assert_eq!(p.free_extents(), vec![(0, 1), (2, 1)], "no merge");
        assert_eq!(p.largest_free_run(), 1);
        p.free_sg(held[1]).unwrap();
        assert_eq!(p.free_extents(), vec![(0, 2), (2, 1)], "buddies merged");
        assert_eq!(p.largest_free_run(), 3, "adjacent blocks form one run");
        p.free_sg(held[3]).unwrap();
        assert_eq!(p.largest_free_run(), 4);
    }

    #[test]
    fn buddy_sg_chains_across_fragmentation() {
        // The headline fix: the scattered-singles pool that has no
        // 2-sector run satisfies a 2-sector transfer as a 2-segment
        // chain, and the payload round-trips across the segment boundary.
        let k = Kernel::new();
        let p = SectorPool::with_capacity(64, 4);
        let held = singles(&p, 4);
        p.free_sg(held[0]).unwrap();
        p.free_sg(held[2]).unwrap();
        let chain = p.alloc_sg(128).unwrap();
        let segs = p.sg_segments(chain).unwrap();
        assert_eq!(segs.len(), 2, "two scattered singles chained");
        assert_eq!(p.sg_capacity(chain).unwrap(), 128);
        assert_eq!(
            p.available_sectors(),
            0,
            "chain used exactly the free sectors"
        );
        let payload: Vec<u8> = (0..128u8).collect();
        p.adopt_payload_sg(&k, &payload, chain).unwrap();
        assert_eq!(k.stats().bytes_copied, 0, "SG adoption maps, never copies");
        assert_eq!(p.read_payload_sg(chain, 128).unwrap(), payload);
        assert_eq!(p.free_sg(chain).unwrap(), 2);
        assert_eq!(p.stats().frag_refusals, 0, "never refused");
        assert!(p.conserved());
    }

    #[test]
    fn failed_sg_alloc_rolls_back_cleanly() {
        // A chain that cannot complete must leave the pool untouched:
        // 3 sectors free, 4 requested.
        let p = SectorPool::with_capacity(64, 4);
        let pin = p.alloc_sg(64).unwrap();
        let extents_before = p.free_extents();
        assert_eq!(p.alloc_sg(256), Err(PoolError::Exhausted));
        assert_eq!(p.stats().exhausted, 1, "3 < 4 free: true exhaustion");
        assert_eq!(p.free_extents(), extents_before, "rollback exact");
        assert_eq!(p.available_sectors(), 3);
        p.free_sg(pin).unwrap();
        assert!(p.conserved());
    }

    #[test]
    fn zero_length_chain_allocates_nothing() {
        // Regression for the burned status-stage sector: a zero-length
        // transfer is an empty chain — no sectors pinned, ledger still
        // closed.
        let k = Kernel::new();
        let p = SectorPool::with_capacity(512, 2);
        let zlp = p.alloc_sg(0).unwrap();
        assert_eq!(p.sg_segments(zlp).unwrap().len(), 0);
        assert_eq!(p.sg_capacity(zlp).unwrap(), 0);
        assert_eq!(p.in_use_sectors(), 0, "nothing burned");
        // The whole pool is still allocatable around the live ZLP.
        let full = p.alloc_sg(1024).unwrap();
        p.adopt_payload_sg(&k, &[], zlp).unwrap();
        assert_eq!(p.read_payload_sg(zlp, 0).unwrap(), Vec::<u8>::new());
        assert_eq!(p.free_sg(zlp).unwrap(), 0);
        p.free_sg(full).unwrap();
        let s = p.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 2);
        assert_eq!(s.sectors_allocated, s.sectors_reclaimed);
        assert!(p.conserved());
        assert_eq!(k.stats().bytes_copied, 0);
    }

    #[test]
    fn adopt_is_zero_copy_and_write_is_not() {
        // Adopting a payload maps the chain and charges map time, never
        // a copy; writing the same payload by value pays for every byte.
        let k = Kernel::new();
        let p = SectorPool::with_capacity(512, 4);
        let a = p.alloc_sg(512).unwrap();
        let busy_before = k.snapshot().kernel_busy_ns;
        p.adopt_payload_sg(&k, &[7u8; 512], a).unwrap();
        assert_eq!(k.stats().bytes_copied, 0, "adoption maps, never copies");
        assert_eq!(
            k.snapshot().kernel_busy_ns - busy_before,
            costs::SECTOR_MAP_NS,
            "one sector mapped"
        );
        assert_eq!(p.read_payload_sg(a, 512).unwrap(), [7u8; 512]);
        k.charge_copy(decaf_simkernel::CpuClass::Kernel, 512);
        assert_eq!(k.stats().bytes_copied, 512, "the by-value path pays");
        p.free_sg(a).unwrap();
        assert!(p.conserved());
    }

    #[test]
    fn double_free_and_stale_handles_rejected() {
        let p = SectorPool::with_capacity(512, 2);
        let a = p.alloc_sg(1024).unwrap();
        p.free_sg(a).unwrap();
        assert!(matches!(p.free_sg(a), Err(PoolError::NotAllocated(_))));
        assert!(matches!(
            p.read_payload_sg(a, 4),
            Err(PoolError::NotAllocated(_))
        ));
        assert!(matches!(
            p.sg_segments(SgHandle(1234)),
            Err(PoolError::NotAllocated(_))
        ));
        // A transfer bigger than the whole pool is TooLarge, not
        // Exhausted: no amount of reclaim will ever satisfy it.
        assert!(matches!(p.alloc_sg(4096), Err(PoolError::TooLarge { .. })));
        assert!(p.conserved());
    }

    #[test]
    fn oversize_payload_for_run_rejected() {
        let k = Kernel::new();
        let p = SectorPool::with_capacity(512, 4);
        let c = p.alloc_sg(512).unwrap();
        assert!(matches!(
            p.adopt_payload_sg(&k, &[0; 513], c),
            Err(PoolError::TooLarge { .. })
        ));
        assert!(matches!(
            p.read_payload_sg(c, 513),
            Err(PoolError::TooLarge { .. })
        ));
    }

    #[test]
    fn non_power_of_two_pools_cover_every_sector() {
        // 20 sectors decompose to 16 + 4; every sector must still be
        // reachable and conservation must hold through a full drain.
        let p = SectorPool::with_capacity(64, 20);
        let extents: usize = p.free_extents().iter().map(|&(_, n)| n).sum();
        assert_eq!(extents, 20, "decomposition covers the whole pool");
        let chain = p.alloc_sg(20 * 64).unwrap();
        assert_eq!(p.available_sectors(), 0);
        assert_eq!(p.sg_capacity(chain).unwrap(), 20 * 64);
        p.free_sg(chain).unwrap();
        assert_eq!(p.available_sectors(), 20);
        assert!(p.conserved());
    }
}
