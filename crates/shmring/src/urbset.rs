//! The storage instantiation of [`RingSet`]: per-shard URB
//! submit/giveback ring pairs over one shared [`SectorPool`].
//!
//! A [`UrbRingSet`] is the same ring set the NIC uses, carrying
//! [`UrbDescriptor`]s: each shard's descriptor ring is its **submit**
//! ring (requests, submitter → completer) and its completion ring is its
//! **giveback** ring, which carries `status`, the *actual* transferred
//! length and, for IN transfers, the payload run's ownership. Steering is
//! per **LUN**: every URB of one LUN rides one shard's rings, so a
//! transaction's stage-command-then-transfer order holds.

use std::rc::Rc;

use crate::ring::ShmRing;
use crate::ringset::RingSet;
use crate::sector::SectorPool;
use crate::urb::UrbDescriptor;

/// The storage ring set: URB submit/giveback ring pairs over one shared
/// sector pool.
pub type UrbRingSet = RingSet<UrbDescriptor, Rc<SectorPool>>;

impl UrbRingSet {
    /// Shard `i`'s submit ring (requests, submitter → completer).
    pub fn submit_ring(&self, shard: usize) -> &Rc<ShmRing<UrbDescriptor>> {
        self.ring(shard)
    }

    /// Shard `i`'s giveback ring (completions, completer → submitter).
    pub fn giveback_ring(&self, shard: usize) -> &Rc<ShmRing<UrbDescriptor>> {
        self.completions(shard)
    }
}

#[cfg(test)]
mod tests {
    //! The storage surface of the ring set: submits pushed through
    //! [`UrbRingSet::submit_ring`] and noted separately (the `UrbDataPath`
    //! pattern), givebacks landing on [`UrbRingSet::giveback_ring`].

    use super::*;
    use crate::ringset::RingSetError;
    use crate::sector::SgHandle;
    use decaf_simkernel::{CpuClass, Kernel};

    fn set(shards: usize) -> Rc<UrbRingSet> {
        UrbRingSet::with_pool(
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
        s.note_post(shard, cookie);
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
            let waiting = s.giveback_ring(shard).len();
            let done = s.reclaim(&k, CpuClass::Kernel, shard);
            assert_eq!(done.len(), waiting, "shard {shard} giveback ring");
            for d in done {
                assert_eq!(s.steer(d.cookie), shard);
                s.pool().free_sg(d.buf).unwrap();
            }
            assert!(s.shard_conserved(shard), "shard {shard}");
        }
        assert!(s.conserved());
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.stats().posted, 9);
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
        assert_eq!(s.giveback_ring(1).len(), 1, "one giveback, not two");
        assert!(s.conserved());
    }

    #[test]
    fn cancel_submit_unwinds_a_noted_origin() {
        let s = set(2);
        s.note_post(1, 3);
        assert_eq!(s.in_flight(), 1);
        assert_eq!(s.shard_stats(1).posted, 1);
        s.cancel_post(3);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.shard_stats(1).posted, 0);
        assert!(s.conserved());
        // Cancelling an unknown cookie is a no-op.
        s.cancel_post(99);
        assert!(s.conserved());
    }
}
