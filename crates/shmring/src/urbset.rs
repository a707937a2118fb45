//! Sharded multi-LUN storage queues: per-shard URB submit/giveback ring
//! pairs over one shared [`SectorPool`].
//!
//! [`crate::RingSet`] scaled the NIC data path to N parallel queues; a
//! [`UrbRingSet`] is its request/response sibling for storage. The shape
//! differs in the same two ways [`crate::UrbDescriptor`] differs from a
//! frame descriptor:
//!
//! * each shard owns a **submit/giveback ring pair** (requests one way,
//!   completed descriptors the other), not a TX/completion pair — the
//!   giveback carries `status` and the *actual* transferred length, and
//!   for IN transfers the payload run's ownership;
//! * every shard allocates out of **one shared [`SectorPool`]** (the
//!   pool is carved from the device's DMA region, and the device is
//!   singular), so pool conservation is a cross-shard invariant while
//!   descriptor conservation is tracked **per shard**.
//!
//! Steering is per **LUN** (logical unit / flash stream), not per flow:
//! a storage transaction is a *sequence* of URBs (stage command, then
//! data transfer) whose FIFO order is load-bearing, so every URB of one
//! LUN must ride one shard's rings. [`UrbRingSet::steer`] hashes the LUN
//! deterministically; [`UrbRingSet::complete`] steers each finished
//! descriptor back to the shard that submitted it, looked up from the
//! cookie recorded at submit time — a giveback landing on the wrong
//! shard's ring would corrupt that shard's in-flight accounting and
//! break per-shard conservation.
//!
//! The `tests/storage_sched.rs` harness enumerates hundreds of
//! submit/giveback/reclaim interleavings and asserts the invariants on
//! every schedule: sector-run alias freedom, pool conservation, and
//! posting-shard completion affinity.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use decaf_simkernel::{CpuClass, Kernel};

use crate::ring::ShmRing;
use crate::ringset::{flow_hash, RingSetError};
use crate::sector::SectorPool;
use crate::urb::UrbDescriptor;

/// Oracle-sensitivity seam for the storage fault-exploration harness
/// (`tests/storage_sched.rs`): a one-shot, thread-local switch that
/// plants a *deliberate* completion-steering bug so the harness can
/// prove its differential oracle rejects one. Debug-build only
/// (`debug_assertions`) — `#[cfg(test)]` would not reach an
/// integration-test dependency build of this crate, and the release
/// build the ablations measure must not carry the seam.
#[cfg(debug_assertions)]
pub mod mutation {
    use std::cell::Cell;

    thread_local! {
        static DOUBLE_COMPLETE: Cell<bool> = const { Cell::new(false) };
    }

    /// Arms the planted bug: the next [`super::UrbRingSet::complete`]
    /// on this thread pushes the giveback descriptor onto the home ring
    /// *twice* — the submitter must drop the duplicate as a rejected
    /// giveback, and the fault oracle must flag that it had to.
    pub fn arm_double_complete() {
        DOUBLE_COMPLETE.with(|c| c.set(true));
    }

    /// Disarms without consuming (cleanup after a caught failure).
    pub fn disarm() {
        DOUBLE_COMPLETE.with(|c| c.set(false));
    }

    pub(crate) fn take_double_complete() -> bool {
        DOUBLE_COMPLETE.with(|c| c.replace(false))
    }
}

/// Per-shard conservation counters of one [`UrbRingSet`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UrbShardStats {
    /// URB descriptors noted as submitted on this shard.
    pub submitted: u64,
    /// Descriptors completed (steered home to this shard).
    pub completed: u64,
    /// Most descriptors simultaneously in flight on this shard.
    pub in_flight_hwm: u64,
}

/// One noted submission: where it went, and the shard's high-water mark
/// before the note (restored on cancel).
#[derive(Debug, Clone, Copy)]
struct NotedSubmit {
    shard: usize,
    hwm_before: u64,
}

/// N parallel URB submit/giveback ring pairs over one shared sector
/// pool, with LUN steering and completion steering.
///
/// Cookie discipline matches [`crate::RingSet`]: a cookie identifies one
/// in-flight URB and may be reused only after its previous incarnation
/// was completed. The uhci sharded build draws cookies from one
/// monotonic sequence, so they are unique across shards by construction.
#[derive(Debug)]
pub struct UrbRingSet {
    submits: Vec<Rc<ShmRing<UrbDescriptor>>>,
    givebacks: Vec<Rc<ShmRing<UrbDescriptor>>>,
    pool: Rc<SectorPool>,
    /// Submitting shard of every in-flight cookie, plus the shard's
    /// in-flight high-water mark *before* the note — what
    /// [`UrbRingSet::cancel_submit`] restores when the post the note
    /// announced never happened.
    origin: RefCell<HashMap<u64, NotedSubmit>>,
    shard_stats: RefCell<Vec<UrbShardStats>>,
    /// In-flight count per shard (denormalized from `origin` so the
    /// per-shard conservation check is O(1)).
    in_flight: RefCell<Vec<u64>>,
}

impl UrbRingSet {
    /// Builds `shards` submit rings of `capacity` slots (named
    /// `{name}-{i}`) and giveback rings of `giveback_capacity` (named
    /// `{name}-done-{i}`), all allocating out of `pool`.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(
        name: &str,
        shards: usize,
        capacity: usize,
        giveback_capacity: usize,
        pool: Rc<SectorPool>,
    ) -> Rc<Self> {
        assert!(shards > 0, "a URB ring set needs at least one shard");
        Rc::new(UrbRingSet {
            submits: (0..shards)
                .map(|i| Rc::new(ShmRing::new(format!("{name}-{i}"), capacity)))
                .collect(),
            givebacks: (0..shards)
                .map(|i| Rc::new(ShmRing::new(format!("{name}-done-{i}"), giveback_capacity)))
                .collect(),
            pool,
            origin: RefCell::new(HashMap::new()),
            shard_stats: RefCell::new(vec![UrbShardStats::default(); shards]),
            in_flight: RefCell::new(vec![0; shards]),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.submits.len()
    }

    /// The shared sector pool all shards allocate from.
    pub fn pool(&self) -> &Rc<SectorPool> {
        &self.pool
    }

    /// Shard `i`'s submit ring (requests, submitter → completer).
    pub fn submit_ring(&self, shard: usize) -> &Rc<ShmRing<UrbDescriptor>> {
        &self.submits[shard]
    }

    /// Shard `i`'s giveback ring (completions, completer → submitter).
    pub fn giveback_ring(&self, shard: usize) -> &Rc<ShmRing<UrbDescriptor>> {
        &self.givebacks[shard]
    }

    /// Maps a LUN to its shard. Deterministic, so one LUN's command and
    /// data URBs always ride the same rings (FIFO order within the LUN
    /// is preserved; distinct LUNs spread).
    pub fn steer(&self, lun: u64) -> usize {
        (flow_hash(lun) % self.submits.len() as u64) as usize
    }

    /// Records that `cookie` was submitted on `shard` without touching
    /// the ring — for submitters that post through a higher-level path
    /// (e.g. a `UrbDataPath` holding the same ring `Rc`). Note first,
    /// [`UrbRingSet::cancel_submit`] if the post never happens: a
    /// synchronously-triggered completer must be able to steer the
    /// giveback home.
    pub fn note_submit(&self, shard: usize, cookie: u64) {
        debug_assert!(shard < self.submits.len());
        let mut inf = self.in_flight.borrow_mut();
        inf[shard] += 1;
        let now = inf[shard];
        drop(inf);
        let mut stats = self.shard_stats.borrow_mut();
        stats[shard].submitted += 1;
        self.origin.borrow_mut().insert(
            cookie,
            NotedSubmit {
                shard,
                hwm_before: stats[shard].in_flight_hwm,
            },
        );
        stats[shard].in_flight_hwm = stats[shard].in_flight_hwm.max(now);
    }

    /// Cancels an origin record whose post failed after being noted.
    /// Conservation treats the URB as never submitted, and the
    /// high-water mark is restored: a refused URB was never in flight,
    /// so a backpressured burst must not report a peak the ring could
    /// not even hold. The cancel must immediately follow its failed
    /// note (with at most completions in between — the forced-doorbell
    /// drain only ever *lowers* in-flight), which is the only way the
    /// note/cancel pair is used.
    pub fn cancel_submit(&self, cookie: u64) {
        if let Some(noted) = self.origin.borrow_mut().remove(&cookie) {
            let mut inf = self.in_flight.borrow_mut();
            inf[noted.shard] -= 1;
            let now = inf[noted.shard];
            drop(inf);
            let mut stats = self.shard_stats.borrow_mut();
            stats[noted.shard].submitted -= 1;
            stats[noted.shard].in_flight_hwm = stats[noted.shard]
                .in_flight_hwm
                .min(noted.hwm_before.max(now));
        }
    }

    /// Steers a completed descriptor home: pushes it onto the
    /// *submitting* shard's giveback ring and retires the origin record.
    /// Returns the shard the completion was routed to.
    pub fn complete(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        desc: UrbDescriptor,
    ) -> Result<usize, RingSetError> {
        let shard = {
            let origin = self.origin.borrow();
            origin
                .get(&desc.cookie)
                .ok_or(RingSetError::UnknownOrigin(desc.cookie))?
                .shard
        };
        match self.givebacks[shard].push(kernel, class, desc) {
            Ok(()) => {
                #[cfg(debug_assertions)]
                if mutation::take_double_complete() {
                    // Planted bug (oracle-sensitivity harness): the same
                    // giveback lands on the home ring twice.
                    let _ = self.givebacks[shard].push(kernel, class, desc);
                }
                self.origin.borrow_mut().remove(&desc.cookie);
                self.in_flight.borrow_mut()[shard] -= 1;
                self.shard_stats.borrow_mut()[shard].completed += 1;
                kernel.trace_instant("ring", "complete", &[("shard", shard as u64)]);
                Ok(shard)
            }
            Err(_) => Err(RingSetError::CompletionFull(shard)),
        }
    }

    /// Drains `shard`'s giveback ring (the submitter reclaiming its
    /// completed descriptors, oldest first).
    pub fn reclaim(&self, kernel: &Kernel, class: CpuClass, shard: usize) -> Vec<UrbDescriptor> {
        let done = self.givebacks[shard].drain(kernel, class);
        if !done.is_empty() {
            kernel.trace_instant(
                "ring",
                "reclaim",
                &[("shard", shard as u64), ("completions", done.len() as u64)],
            );
        }
        done
    }

    /// URBs submitted and not yet completed, across all shards.
    pub fn in_flight(&self) -> usize {
        self.origin.borrow().len()
    }

    /// URBs in flight on one shard.
    pub fn shard_in_flight(&self, shard: usize) -> u64 {
        self.in_flight.borrow()[shard]
    }

    /// The submitting shard of an in-flight cookie.
    pub fn origin_of(&self, cookie: u64) -> Option<usize> {
        self.origin.borrow().get(&cookie).map(|n| n.shard)
    }

    /// One shard's conservation counters.
    pub fn shard_stats(&self, shard: usize) -> UrbShardStats {
        self.shard_stats.borrow()[shard]
    }

    /// Merged counters: sums across shards, max for high-water marks.
    pub fn stats(&self) -> UrbShardStats {
        let stats = self.shard_stats.borrow();
        let mut total = UrbShardStats::default();
        for s in stats.iter() {
            total.submitted += s.submitted;
            total.completed += s.completed;
            total.in_flight_hwm = total.in_flight_hwm.max(s.in_flight_hwm);
        }
        total
    }

    /// Per-shard conservation: every URB ever submitted on `shard` is
    /// either completed (home) or still in flight there.
    pub fn shard_conserved(&self, shard: usize) -> bool {
        let s = self.shard_stats.borrow()[shard];
        s.submitted == s.completed + self.in_flight.borrow()[shard]
    }

    /// The full conservation invariant: every shard conserves, and the
    /// origin map agrees with the denormalized per-shard counts.
    pub fn conserved(&self) -> bool {
        let per_shard_sum: u64 = self.in_flight.borrow().iter().sum();
        per_shard_sum == self.origin.borrow().len() as u64
            && (0..self.shards()).all(|i| self.shard_conserved(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sector::SgHandle;

    fn set(shards: usize) -> Rc<UrbRingSet> {
        UrbRingSet::new(
            "urb",
            shards,
            8,
            16,
            Rc::new(SectorPool::with_capacity(512, 32)),
        )
    }

    fn submit(k: &Kernel, s: &UrbRingSet, shard: usize, cookie: u64) {
        let run = s.pool().alloc_sg(512).unwrap();
        s.submit_ring(shard)
            .push(
                k,
                CpuClass::Kernel,
                UrbDescriptor::request_out(run, 512, 2, cookie),
            )
            .unwrap();
        s.note_submit(shard, cookie);
    }

    #[test]
    fn lun_steering_is_deterministic_and_spreads() {
        let s = set(4);
        let mut hits = [0u32; 4];
        for lun in 0..64u64 {
            assert_eq!(s.steer(lun), s.steer(lun), "same LUN, same shard");
            hits[s.steer(lun)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 0), "a shard starved: {hits:?}");
    }

    #[test]
    fn completions_steer_to_the_submitting_shard() {
        let k = Kernel::new();
        let s = set(3);
        for cookie in 0..9u64 {
            submit(&k, &s, s.steer(cookie), cookie);
        }
        // One completer drains every shard's submit ring in arbitrary
        // order; the giveback must come home.
        for shard in [2, 0, 1] {
            for d in s.submit_ring(shard).drain(&k, CpuClass::User) {
                let home = s
                    .complete(&k, CpuClass::User, d.completed(0, d.len))
                    .unwrap();
                assert_eq!(home, shard, "cookie {} steered astray", d.cookie);
            }
        }
        for shard in 0..3 {
            for d in s.reclaim(&k, CpuClass::Kernel, shard) {
                assert_eq!(s.steer(d.cookie), shard);
                s.pool().free_sg(d.buf).unwrap();
            }
            assert!(s.shard_conserved(shard), "shard {shard}");
        }
        assert!(s.conserved());
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.stats().submitted, 9);
        assert_eq!(s.stats().completed, 9);
        assert!(s.pool().conserved());
        assert_eq!(s.pool().in_use_sectors(), 0);
    }

    #[test]
    fn unknown_and_double_completions_rejected() {
        let k = Kernel::new();
        let s = set(2);
        let d = UrbDescriptor::request_in(SgHandle(0), 512, 1, 7);
        assert_eq!(
            s.complete(&k, CpuClass::User, d),
            Err(RingSetError::UnknownOrigin(7))
        );
        submit(&k, &s, 1, 7);
        s.submit_ring(1).drain(&k, CpuClass::User);
        assert_eq!(s.complete(&k, CpuClass::User, d).unwrap(), 1);
        assert_eq!(
            s.complete(&k, CpuClass::User, d),
            Err(RingSetError::UnknownOrigin(7))
        );
        assert!(s.conserved());
    }

    #[test]
    fn cancel_submit_unwinds_a_noted_origin() {
        let k = Kernel::new();
        let s = set(2);
        s.note_submit(1, 3);
        assert_eq!(s.shard_in_flight(1), 1);
        s.cancel_submit(3);
        assert_eq!(s.shard_in_flight(1), 0);
        assert_eq!(s.shard_stats(1).submitted, 0);
        assert!(s.conserved());
        // Cancelling an unknown cookie is a no-op.
        s.cancel_submit(99);
        assert!(s.conserved());
        let _ = k;
    }

    #[test]
    fn cancelled_submit_does_not_inflate_the_high_water_mark() {
        // A note-then-cancel (the staged-backpressure unwind) must not
        // leave the HWM reporting a peak that never held a real URB —
        // and must not erase a peak that legitimately happened earlier.
        let k = Kernel::new();
        let s = set(2);
        submit(&k, &s, 0, 0);
        submit(&k, &s, 0, 1);
        assert_eq!(s.shard_stats(0).in_flight_hwm, 2);
        // Refused submit: noted, then cancelled.
        s.note_submit(0, 2);
        s.cancel_submit(2);
        assert_eq!(s.shard_stats(0).in_flight_hwm, 2, "phantom peak recorded");
        // Drain to zero, then another refused submit: the old peak of 2
        // must survive the restore.
        for d in s.submit_ring(0).drain(&k, CpuClass::User) {
            s.complete(&k, CpuClass::User, d).unwrap();
        }
        assert_eq!(s.shard_in_flight(0), 0);
        s.note_submit(0, 3);
        s.cancel_submit(3);
        assert_eq!(s.shard_stats(0).in_flight_hwm, 2, "legitimate peak erased");
        assert!(s.conserved());
    }

    #[test]
    fn per_shard_counters_track_their_own_queues() {
        let k = Kernel::new();
        let s = set(2);
        submit(&k, &s, 0, 0);
        submit(&k, &s, 0, 1);
        submit(&k, &s, 1, 2);
        assert_eq!(s.shard_stats(0).submitted, 2);
        assert_eq!(s.shard_stats(1).submitted, 1);
        assert_eq!(s.shard_in_flight(0), 2);
        assert_eq!(s.stats().in_flight_hwm, 2, "HWM is a max, not a sum");
        for d in s.submit_ring(0).drain(&k, CpuClass::User) {
            s.complete(&k, CpuClass::User, d).unwrap();
        }
        assert!(s.shard_conserved(0));
        assert!(s.shard_conserved(1));
        assert_eq!(s.shard_stats(0).completed, 2);
        assert_eq!(s.shard_stats(1).completed, 0);
        assert_eq!(s.in_flight(), 1);
        assert!(s.conserved());
    }
}
