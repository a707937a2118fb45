//! Multi-queue ring sets: RSS-style per-shard descriptor rings with a
//! completion-steering policy, for any descriptor shape.
//!
//! One [`crate::ShmRing`] per direction is enough for one producer and
//! one consumer. Scaling the user-level data path across CPUs needs N
//! parallel rings feeding one device — per-CPU (or per-flow) TX/RX
//! queues for a NIC, per-LUN submit/giveback queues for storage. A
//! [`RingSet`] groups N descriptor rings and their N completion rings
//! behind one object, generic over the [`Slot`] type they carry (a frame
//! [`Descriptor`] or a [`UrbDescriptor`]), and adds the two policies
//! sharding requires:
//!
//! * **steering** ([`RingSet::steer`]) — a deterministic hash maps a
//!   flow key (a NIC flow, a storage LUN) to a shard, so one flow's
//!   descriptors stay FIFO on one ring while different flows spread. For
//!   storage the FIFO order is load-bearing: a transaction is a sequence
//!   of URBs (stage command, then data transfer);
//! * **completion steering** ([`RingSet::complete`]) — the completer
//!   hands a finished descriptor back *to the shard that posted it*,
//!   looked up from the cookie recorded at post time. Completions must
//!   come home: a buffer freed on the wrong shard's ring would corrupt
//!   that shard's accounting and break per-shard conservation.
//!
//! Every shard allocates out of one shared payload pool `P` (the pool is
//! carved from the device's DMA region, and the device is singular), so
//! pool conservation is a cross-shard invariant while descriptor
//! conservation is tracked **per shard**: every descriptor noted as
//! posted on a shard is either still in flight there or has been
//! completed home. The `tests/shard_sched.rs` and `tests/storage_sched.rs`
//! harnesses assert these invariants over enumerated schedules.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use decaf_simkernel::{CpuClass, Kernel};

use crate::ring::{Descriptor, RingError, ShmRing};
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

    /// Arms the planted bug: the next [`super::RingSet::complete`] on
    /// this thread pushes the completed descriptor onto the home ring
    /// *twice* — the producer must drop the duplicate as a rejected
    /// completion, and the fault oracle must flag that it had to.
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

/// A descriptor a [`RingSet`] can steer: plain ring data that carries
/// the producer's correlation cookie.
pub trait Slot: Copy + Default {
    /// The cookie identifying this descriptor while it is in flight.
    fn cookie(&self) -> u64;
}

impl Slot for Descriptor {
    fn cookie(&self) -> u64 {
        self.cookie
    }
}

impl Slot for UrbDescriptor {
    fn cookie(&self) -> u64 {
        self.cookie
    }
}

/// Failure modes specific to multi-queue steering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingSetError {
    /// The descriptor's cookie was never noted as posted (or was already
    /// completed): the completion cannot be steered home.
    UnknownOrigin(u64),
    /// The posting shard's completion ring is full.
    CompletionFull(usize),
    /// The target shard's descriptor ring is full (backpressure).
    RingFull(usize),
}

impl std::fmt::Display for RingSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingSetError::UnknownOrigin(cookie) => {
                write!(f, "completion for unknown cookie {cookie}")
            }
            RingSetError::CompletionFull(shard) => {
                write!(f, "completion ring of shard {shard} full")
            }
            RingSetError::RingFull(shard) => {
                write!(f, "descriptor ring of shard {shard} full")
            }
        }
    }
}

impl std::error::Error for RingSetError {}

/// Conservation counters of one shard (or, from [`RingSet::stats`], of
/// the whole set).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RingSetStats {
    /// Descriptors noted as posted.
    pub posted: u64,
    /// Descriptors completed (steered home).
    pub completed: u64,
    /// Most descriptors simultaneously in flight (posted, not completed).
    pub in_flight_hwm: u64,
}

/// A deterministic 64-bit mix (SplitMix64 finalizer) used for flow
/// steering: uniform, seedless, and stable across runs.
pub fn flow_hash(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One noted post: where it went, and the shard's high-water mark
/// before the note (restored on cancel).
#[derive(Debug, Clone, Copy)]
struct Noted {
    shard: usize,
    hwm_before: u64,
}

/// N parallel descriptor rings plus their completion rings over one
/// shared payload pool `P`, with flow and completion steering.
///
/// Cookie discipline: a cookie identifies one in-flight descriptor. The
/// same cookie may be reused only after its previous incarnation has
/// been completed (device RX slots naturally satisfy this: a slot is
/// recycled only after its completion comes home; the uhci build draws
/// URB cookies from one monotonic sequence).
#[derive(Debug)]
pub struct RingSet<D: Slot = Descriptor, P = ()> {
    rings: Vec<Rc<ShmRing<D>>>,
    completions: Vec<Rc<ShmRing<D>>>,
    pool: P,
    /// Posting shard of every in-flight cookie, plus the shard's
    /// in-flight high-water mark *before* the note — what
    /// [`RingSet::cancel_post`] restores when the post the note
    /// announced never happened.
    origin: RefCell<HashMap<u64, Noted>>,
    shard_stats: RefCell<Vec<RingSetStats>>,
    /// In-flight count per shard (denormalized from `origin` so the
    /// per-shard conservation check is O(1)).
    in_flight: RefCell<Vec<u64>>,
}

impl<D: Slot> RingSet<D> {
    /// Builds a set without a shared pool (descriptors name buffers the
    /// producer owns elsewhere); see [`RingSet::with_pool`].
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(name: &str, shards: usize, capacity: usize, completion_capacity: usize) -> Rc<Self> {
        Self::with_pool(name, shards, capacity, completion_capacity, ())
    }
}

impl<D: Slot, P> RingSet<D, P> {
    /// Builds `shards` descriptor rings of `capacity` slots (named
    /// `{name}-{i}`) and completion rings of `completion_capacity`
    /// (named `{name}-done-{i}`), all allocating out of `pool`.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_pool(
        name: &str,
        shards: usize,
        capacity: usize,
        completion_capacity: usize,
        pool: P,
    ) -> Rc<Self> {
        assert!(shards > 0, "a ring set needs at least one shard");
        Rc::new(RingSet {
            rings: (0..shards)
                .map(|i| Rc::new(ShmRing::new(format!("{name}-{i}"), capacity)))
                .collect(),
            completions: (0..shards)
                .map(|i| {
                    Rc::new(ShmRing::new(
                        format!("{name}-done-{i}"),
                        completion_capacity,
                    ))
                })
                .collect(),
            pool,
            origin: RefCell::new(HashMap::new()),
            shard_stats: RefCell::new(vec![RingSetStats::default(); shards]),
            in_flight: RefCell::new(vec![0; shards]),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// The shared payload pool all shards allocate from.
    pub fn pool(&self) -> &P {
        &self.pool
    }

    /// Shard `i`'s descriptor ring (producer → consumer).
    pub fn ring(&self, shard: usize) -> &Rc<ShmRing<D>> {
        &self.rings[shard]
    }

    /// Shard `i`'s completion ring (consumer → producer).
    pub fn completions(&self, shard: usize) -> &Rc<ShmRing<D>> {
        &self.completions[shard]
    }

    /// Maps a flow key (or LUN) to its shard. Deterministic: the same
    /// flow always lands on the same ring, so per-flow ordering is
    /// preserved.
    pub fn steer(&self, flow: u64) -> usize {
        (flow_hash(flow) % self.rings.len() as u64) as usize
    }

    /// Records that `cookie` was posted on `shard` without touching the
    /// ring — for producers that post through a higher-level path (a
    /// data path holding the same ring `Rc`). Note first,
    /// [`RingSet::cancel_post`] if the post never happens: a
    /// synchronously-triggered consumer must be able to steer the
    /// completion home.
    pub fn note_post(&self, shard: usize, cookie: u64) {
        debug_assert!(shard < self.rings.len());
        let mut inf = self.in_flight.borrow_mut();
        inf[shard] += 1;
        let now = inf[shard];
        drop(inf);
        let mut stats = self.shard_stats.borrow_mut();
        stats[shard].posted += 1;
        self.origin.borrow_mut().insert(
            cookie,
            Noted {
                shard,
                hwm_before: stats[shard].in_flight_hwm,
            },
        );
        stats[shard].in_flight_hwm = stats[shard].in_flight_hwm.max(now);
    }

    /// Cancels an origin record whose post failed after being noted.
    /// Conservation treats the descriptor as never posted, and the
    /// high-water mark is restored: a refused descriptor was never in
    /// flight, so a backpressured burst must not report a peak the ring
    /// could not even hold. The cancel must immediately follow its
    /// failed note (with at most completions in between — a forced
    /// doorbell's drain only ever *lowers* in-flight), which is the only
    /// way the note/cancel pair is used. Cancelling an unknown or
    /// already-completed cookie is a no-op.
    pub fn cancel_post(&self, cookie: u64) {
        if let Some(noted) = self.origin.borrow_mut().remove(&cookie) {
            let mut inf = self.in_flight.borrow_mut();
            inf[noted.shard] -= 1;
            let now = inf[noted.shard];
            drop(inf);
            let mut stats = self.shard_stats.borrow_mut();
            stats[noted.shard].posted -= 1;
            stats[noted.shard].in_flight_hwm = stats[noted.shard]
                .in_flight_hwm
                .min(noted.hwm_before.max(now));
        }
    }

    /// Posts one descriptor directly onto `shard`'s ring and records its
    /// origin.
    pub fn post(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        shard: usize,
        desc: D,
    ) -> Result<(), RingSetError> {
        match self.rings[shard].push(kernel, class, desc) {
            Ok(()) => {
                self.note_post(shard, desc.cookie());
                kernel.trace_instant(
                    "ring",
                    "post",
                    &[
                        ("shard", shard as u64),
                        ("occupancy", self.rings[shard].len() as u64),
                    ],
                );
                Ok(())
            }
            Err(RingError::Full) => Err(RingSetError::RingFull(shard)),
        }
    }

    /// Steers a finished descriptor home: pushes it onto the *posting*
    /// shard's completion ring and retires the origin record. Returns the
    /// shard the completion was routed to.
    pub fn complete(
        &self,
        kernel: &Kernel,
        class: CpuClass,
        desc: D,
    ) -> Result<usize, RingSetError> {
        let cookie = desc.cookie();
        let shard = {
            let origin = self.origin.borrow();
            origin
                .get(&cookie)
                .ok_or(RingSetError::UnknownOrigin(cookie))?
                .shard
        };
        match self.completions[shard].push(kernel, class, desc) {
            Ok(()) => {
                #[cfg(debug_assertions)]
                if mutation::take_double_complete() {
                    // Planted bug (oracle-sensitivity harness): the same
                    // completion lands on the home ring twice.
                    let _ = self.completions[shard].push(kernel, class, desc);
                }
                self.origin.borrow_mut().remove(&cookie);
                self.in_flight.borrow_mut()[shard] -= 1;
                self.shard_stats.borrow_mut()[shard].completed += 1;
                kernel.trace_instant("ring", "complete", &[("shard", shard as u64)]);
                Ok(shard)
            }
            Err(RingError::Full) => Err(RingSetError::CompletionFull(shard)),
        }
    }

    /// Drains `shard`'s completion ring (the producer reclaiming its
    /// handed-back descriptors, oldest first).
    pub fn reclaim(&self, kernel: &Kernel, class: CpuClass, shard: usize) -> Vec<D> {
        let done = self.completions[shard].drain(kernel, class);
        if !done.is_empty() {
            kernel.trace_instant(
                "ring",
                "reclaim",
                &[("shard", shard as u64), ("completions", done.len() as u64)],
            );
        }
        done
    }

    /// Descriptors posted but not yet completed, across all shards.
    pub fn in_flight(&self) -> usize {
        self.origin.borrow().len()
    }

    /// One shard's conservation counters.
    pub fn shard_stats(&self, shard: usize) -> RingSetStats {
        self.shard_stats.borrow()[shard]
    }

    /// Merged counters: sums across shards, max for the high-water mark.
    pub fn stats(&self) -> RingSetStats {
        let mut total = RingSetStats::default();
        for s in self.shard_stats.borrow().iter() {
            total.posted += s.posted;
            total.completed += s.completed;
            total.in_flight_hwm = total.in_flight_hwm.max(s.in_flight_hwm);
        }
        total
    }

    /// Per-shard conservation: every descriptor ever posted on `shard`
    /// is either completed (home) or still in flight there.
    pub fn shard_conserved(&self, shard: usize) -> bool {
        let s = self.shard_stats.borrow()[shard];
        s.posted == s.completed + self.in_flight.borrow()[shard]
    }

    /// The full conservation invariant: every shard conserves — none
    /// lost, none double-completed — and the origin map agrees with the
    /// denormalized per-shard counts.
    pub fn conserved(&self) -> bool {
        let per_shard_sum: u64 = self.in_flight.borrow().iter().sum();
        per_shard_sum == self.origin.borrow().len() as u64
            && (0..self.shards()).all(|i| self.shard_conserved(i))
    }
}

#[cfg(test)]
mod tests {
    //! One table over both slot types: every test runs its body for
    //! frame [`Descriptor`]s (no pool) and for [`UrbDescriptor`]s over a
    //! shared [`SectorPool`].

    use super::*;
    use crate::pool::BufHandle;
    use crate::sector::SectorPool;

    /// What the table needs from a slot type beyond [`Slot`]: a pool to
    /// lend payload from, a descriptor per cookie, and the completer's
    /// response.
    trait Fixture: Slot + PartialEq + std::fmt::Debug {
        type Pool;
        fn pool() -> Self::Pool;
        /// A request for `cookie`, holding whatever payload `pool` lends.
        fn desc(pool: &Self::Pool, cookie: u64) -> Self;
        /// The completer's response to this request.
        fn done(self) -> Self;
        /// Hands a reclaimed descriptor's payload back to `pool`.
        fn release(pool: &Self::Pool, d: Self);
        /// Every payload is back in `pool`.
        fn pool_idle(pool: &Self::Pool) -> bool;
    }

    impl Fixture for Descriptor {
        type Pool = ();
        fn pool() {}
        fn desc(_: &(), cookie: u64) -> Self {
            Descriptor {
                buf: BufHandle(cookie as u32),
                len: 64,
                cookie,
            }
        }
        fn done(self) -> Self {
            self
        }
        fn release(_: &(), _: Self) {}
        fn pool_idle(_: &()) -> bool {
            true
        }
    }

    impl Fixture for UrbDescriptor {
        type Pool = Rc<SectorPool>;
        fn pool() -> Rc<SectorPool> {
            Rc::new(SectorPool::with_capacity(512, 32))
        }
        fn desc(pool: &Rc<SectorPool>, cookie: u64) -> Self {
            UrbDescriptor::request_out(pool.alloc_sg(512).unwrap(), 512, 2, cookie)
        }
        fn done(self) -> Self {
            self.completed(0, self.len)
        }
        fn release(pool: &Rc<SectorPool>, d: Self) {
            pool.free_sg(d.buf).unwrap();
        }
        fn pool_idle(pool: &Rc<SectorPool>) -> bool {
            pool.conserved() && pool.in_use_sectors() == 0
        }
    }

    type Set<D> = Rc<RingSet<D, <D as Fixture>::Pool>>;

    fn set<D: Fixture>(shards: usize, capacity: usize, completion: usize) -> Set<D> {
        RingSet::with_pool("tx", shards, capacity, completion, D::pool())
    }

    fn post<D: Fixture>(k: &Kernel, s: &Set<D>, shard: usize, cookie: u64) {
        s.post(k, CpuClass::Kernel, shard, D::desc(s.pool(), cookie))
            .unwrap();
    }

    /// The consumer drains `shard`'s ring and completes everything home.
    fn complete_all<D: Fixture>(k: &Kernel, s: &Set<D>, shard: usize) {
        for d in s.ring(shard).drain(k, CpuClass::User) {
            s.complete(k, CpuClass::User, d.done()).unwrap();
        }
    }

    #[test]
    fn flow_steering_is_deterministic_and_spreads() {
        fn run<D: Fixture>() {
            let s = set::<D>(4, 8, 16);
            let mut hits = [0u32; 4];
            for flow in 0..256u64 {
                let a = s.steer(flow);
                assert_eq!(a, s.steer(flow), "same flow, same shard");
                hits[a] += 1;
            }
            for (shard, h) in hits.iter().enumerate() {
                assert!(*h > 32, "shard {shard} starved: {hits:?}");
            }
        }
        run::<Descriptor>();
        run::<UrbDescriptor>();
    }

    #[test]
    fn completions_steer_to_the_posting_shard() {
        fn run<D: Fixture>() {
            let k = Kernel::new();
            let s = set::<D>(3, 8, 16);
            for cookie in 0..9u64 {
                post(&k, &s, s.steer(cookie), cookie);
            }
            // A consumer drains every ring in arbitrary order, completing
            // each descriptor; the completion must come home.
            for shard in [2, 0, 1] {
                for d in s.ring(shard).drain(&k, CpuClass::User) {
                    let home = s.complete(&k, CpuClass::User, d.done()).unwrap();
                    assert_eq!(home, shard, "cookie {} steered astray", d.cookie());
                }
            }
            for shard in 0..3 {
                for d in s.reclaim(&k, CpuClass::Kernel, shard) {
                    assert_eq!(s.steer(d.cookie()), shard);
                    D::release(s.pool(), d);
                }
                assert!(s.shard_conserved(shard), "shard {shard}");
            }
            assert!(s.conserved());
            assert_eq!(s.in_flight(), 0);
            assert_eq!(s.stats().posted, 9);
            assert_eq!(s.stats().completed, 9);
            assert!(D::pool_idle(s.pool()), "payload leaked");
        }
        run::<Descriptor>();
        run::<UrbDescriptor>();
    }

    #[test]
    fn unknown_origin_rejected() {
        fn run<D: Fixture>() {
            let k = Kernel::new();
            let s = set::<D>(2, 4, 8);
            let d = D::desc(s.pool(), 7);
            assert_eq!(
                s.complete(&k, CpuClass::User, d),
                Err(RingSetError::UnknownOrigin(7))
            );
            // Double completion is also a conservation violation.
            s.post(&k, CpuClass::Kernel, 1, d).unwrap();
            s.ring(1).drain(&k, CpuClass::User);
            assert_eq!(s.complete(&k, CpuClass::User, d).unwrap(), 1);
            assert_eq!(
                s.complete(&k, CpuClass::User, d),
                Err(RingSetError::UnknownOrigin(7))
            );
            assert!(s.conserved());
        }
        run::<Descriptor>();
        run::<UrbDescriptor>();
    }

    #[test]
    fn cookie_reuse_after_completion_is_legal() {
        // RX slots recycle their cookies once the completion came home.
        fn run<D: Fixture>() {
            let k = Kernel::new();
            let s = set::<D>(2, 4, 8);
            for round in 0..3 {
                post(&k, &s, 1, 5);
                complete_all(&k, &s, 1);
                let done = s.reclaim(&k, CpuClass::Kernel, 1);
                assert_eq!(done.len(), 1, "round {round}");
                D::release(s.pool(), done[0]);
            }
            assert_eq!(s.stats().posted, 3);
            assert!(s.conserved());
        }
        run::<Descriptor>();
        run::<UrbDescriptor>();
    }

    #[test]
    fn cancel_post_unwinds_a_noted_origin() {
        fn run<D: Fixture>() {
            let k = Kernel::new();
            let s = set::<D>(2, 4, 8);
            // Note-first producer pattern: the post never happens.
            s.note_post(1, 9);
            assert_eq!(s.in_flight(), 1);
            assert_eq!(s.shard_stats(1).posted, 1);
            assert!(s.shard_conserved(1), "the note is in flight on shard 1");
            s.cancel_post(9);
            assert_eq!(s.in_flight(), 0);
            assert_eq!(s.shard_stats(1).posted, 0);
            assert_eq!(s.stats().posted, 0);
            assert!(s.conserved());
            // Cancelling an unknown or already-completed cookie is a no-op.
            s.cancel_post(99);
            post(&k, &s, 0, 1);
            complete_all(&k, &s, 0);
            s.cancel_post(1);
            assert_eq!(s.stats().posted, 1);
            assert!(s.conserved());
        }
        run::<Descriptor>();
        run::<UrbDescriptor>();
    }

    #[test]
    fn cancelled_post_does_not_inflate_the_high_water_mark() {
        // A note-then-cancel (the refused-send / staged-backpressure
        // unwind) must not leave the HWM reporting a peak that never
        // held a real descriptor — and must not erase a peak that
        // legitimately happened earlier.
        fn run<D: Fixture>() {
            let name = std::any::type_name::<D>();
            let k = Kernel::new();
            let s = set::<D>(2, 4, 8);
            // Refused post on an idle set: nothing was ever in flight.
            s.note_post(1, 9);
            s.cancel_post(9);
            assert_eq!(
                s.stats().in_flight_hwm,
                0,
                "{name}: phantom peak on idle set"
            );
            post(&k, &s, 0, 0);
            post(&k, &s, 0, 1);
            assert_eq!(s.shard_stats(0).in_flight_hwm, 2);
            // Refused post: noted, then cancelled.
            s.note_post(0, 2);
            s.cancel_post(2);
            assert_eq!(s.shard_stats(0).in_flight_hwm, 2, "{name}: phantom peak");
            // Drain to zero, then another refused post: the old peak of 2
            // must survive the restore.
            complete_all(&k, &s, 0);
            assert_eq!(s.in_flight(), 0);
            assert!(s.shard_conserved(0));
            s.note_post(0, 3);
            s.cancel_post(3);
            assert_eq!(s.shard_stats(0).in_flight_hwm, 2, "{name}: peak erased");
            assert!(s.conserved());
        }
        run::<Descriptor>();
        run::<UrbDescriptor>();
    }

    #[test]
    fn per_shard_counters_track_their_own_queues() {
        fn run<D: Fixture>() {
            let k = Kernel::new();
            let s = set::<D>(2, 8, 16);
            post(&k, &s, 0, 0);
            post(&k, &s, 0, 1);
            post(&k, &s, 1, 2);
            assert_eq!(s.shard_stats(0).posted, 2);
            assert_eq!(s.shard_stats(1).posted, 1);
            // Conserved with nothing completed: both of shard 0's
            // descriptors are in flight there.
            assert!(s.shard_conserved(0));
            assert_eq!(s.shard_stats(0).completed, 0);
            assert_eq!(s.stats().in_flight_hwm, 2, "HWM is a max, not a sum");
            complete_all(&k, &s, 0);
            assert!(s.shard_conserved(0));
            assert!(s.shard_conserved(1));
            assert_eq!(s.shard_stats(0).completed, 2);
            assert_eq!(s.shard_stats(1).completed, 0);
            assert_eq!(s.in_flight(), 1);
            assert!(s.conserved());
        }
        run::<Descriptor>();
        run::<UrbDescriptor>();
    }

    #[test]
    fn full_shard_ring_applies_backpressure() {
        fn run<D: Fixture>() {
            let k = Kernel::new();
            let s = set::<D>(2, 1, 2);
            post(&k, &s, 0, 0);
            let refused = D::desc(s.pool(), 1);
            assert_eq!(
                s.post(&k, CpuClass::Kernel, 0, refused),
                Err(RingSetError::RingFull(0))
            );
            // The refused post must not count toward conservation.
            assert_eq!(s.stats().posted, 1);
            assert_eq!(s.in_flight(), 1);
            assert!(s.conserved());
        }
        run::<Descriptor>();
        run::<UrbDescriptor>();
    }
}
