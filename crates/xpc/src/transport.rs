//! Control-transfer kinds and the deferral queue.
//!
//! The paper's XPC hard-wires one policy: reuse the calling thread for
//! co-located domains (§2.3), schedule a dedicated thread otherwise. A
//! channel picks one of four [`TransportKind`]s:
//!
//! * [`TransportKind::InProc`] — thread reuse, the paper's optimization;
//! * [`TransportKind::Threaded`] — dedicated-thread handoff, the
//!   unoptimized baseline;
//! * [`TransportKind::Batched`] — thread reuse **plus** a deferred-call
//!   queue: calls whose results nobody reads are parked and flushed
//!   through the boundary in a single crossing (the doorbell pattern —
//!   the same lever "The Case for Writing Network Drivers in High-Level
//!   Programming Languages" identifies as what lets high-level drivers
//!   match C throughput);
//! * [`TransportKind::Async`] — the same queue, but every deferred call
//!   is issued a [`CompletionToken`] and a flush *launches* the crossing:
//!   the stub layer banks its latency and charges, at harvest, only the
//!   portion no computation covered.
//!
//! Both queueing kinds share one `DeferQueue`; what differs is what
//! the stub layer does at flush time.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use decaf_simkernel::costs;
use decaf_xdr::graph::CAddr;
use decaf_xdr::XdrValue;

use crate::domain::Domain;

/// Control-transfer mechanism of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Reuse the calling thread (paper §2.3).
    InProc,
    /// Hand off to a dedicated thread in the target domain.
    Threaded,
    /// Thread reuse plus deferred-call batching with delta-friendly
    /// flushes.
    Batched,
    /// Completion-based batching: deferred calls return
    /// [`CompletionToken`]s, flushes *launch* the crossing instead of
    /// blocking on it, and the stub layer harvests completions later.
    Async,
}

impl TransportKind {
    /// Name used in stats, docs and the `xpc.crossing` trace instants.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Threaded => "threaded",
            TransportKind::Batched => "batched",
            TransportKind::Async => "async",
        }
    }

    /// The virtual-time latency of one one-way control transfer — the
    /// portion an async flush launches (and later charges net of
    /// overlap) instead of blocking on. A synchronous crossing on
    /// `Async` prices like `Batched`: the asymmetry is *when* the cost
    /// lands, not how big it is.
    pub fn crossing_cost_ns(self, domain_crossing: bool) -> u64 {
        let base = if domain_crossing {
            costs::DOMAIN_CROSSING_NS
        } else {
            0
        };
        base + match self {
            TransportKind::InProc => 0,
            TransportKind::Threaded => costs::THREAD_HANDOFF_NS,
            TransportKind::Batched | TransportKind::Async => costs::BATCH_DOORBELL_NS,
        }
    }

    /// Whether result-free calls park in the deferral queue. On the
    /// other kinds they degrade to synchronous calls.
    pub(crate) fn defers(self) -> bool {
        matches!(self, TransportKind::Batched | TransportKind::Async)
    }
}

/// Deferred calls queued up to this point force a flush.
pub const DEFAULT_BATCH_CAPACITY: usize = 16;

/// Virtual-time deadline after which a queueing transport flushes even a
/// partial queue (adaptive batching): low-rate control paths must not
/// hold posted writes for long. Matches the shmring doorbell-coalescing
/// window — both are the same "amortize or bound the latency" decision.
pub const DEFAULT_BATCH_DEADLINE_NS: u64 = costs::DOORBELL_COALESCE_NS;

/// Names one in-flight asynchronous call on a completion-based
/// transport. Issued when the call is deferred, resolved exactly once —
/// harvested after its launch crossing completes, or cancelled when
/// fault recovery drops the call before it ever launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompletionToken(pub u64);

/// A call parked in the deferral queue: executed at the next flush,
/// result discarded (only result-free calls should be deferred).
#[derive(Debug, Clone)]
pub struct DeferredCall {
    /// Calling domain.
    pub from: Domain,
    /// Target procedure name.
    pub proc: String,
    /// Object arguments (caller-heap addresses).
    pub args: Vec<Option<CAddr>>,
    /// By-value scalar arguments.
    pub scalars: Vec<XdrValue>,
    /// Completion token, on a completion-based transport. Travels with
    /// the call through fault-recovery requeues so a recovered call is
    /// never double-issued.
    pub token: Option<CompletionToken>,
}

/// The deferred calls of one `Batched` or `Async` channel, oldest first.
///
/// A flush is due at *capacity* ([`DEFAULT_BATCH_CAPACITY`]: the batch is
/// worth a crossing) or once the front call has waited
/// [`DEFAULT_BATCH_DEADLINE_NS`] (a low-rate path must not hold a posted
/// write indefinitely).
///
/// The deadline is anchored *per call*: each call carries its own defer
/// timestamp and the deadline is measured from the front of the queue.
/// So when `retain` (the fault-recovery drop path) removes the front
/// call, or the queue drains at the watermark, the next window runs
/// from the oldest call still queued — never from one that is gone.
/// The tests below pin the exact anchoring on both kinds.
#[derive(Debug)]
pub(crate) struct DeferQueue {
    /// `(deferred_at_ns, call)` in arrival order.
    calls: RefCell<VecDeque<(u64, DeferredCall)>>,
    /// Whether pushes mint completion tokens (`Async` only).
    mints_tokens: bool,
    next_token: Cell<u64>,
}

impl DeferQueue {
    /// An empty queue for a channel of `kind`.
    pub(crate) fn new(kind: TransportKind) -> Self {
        DeferQueue {
            calls: RefCell::new(VecDeque::new()),
            mints_tokens: kind == TransportKind::Async,
            next_token: Cell::new(1),
        }
    }

    /// Parks `call`, deferred at virtual time `now_ns`. On `Async`,
    /// returns the call's token, minting one unless the call already
    /// carries it (a fault-recovery requeue); on `Batched`, `None`.
    pub(crate) fn push(&self, now_ns: u64, mut call: DeferredCall) -> Option<CompletionToken> {
        let token = self.mints_tokens.then(|| {
            *call.token.get_or_insert_with(|| {
                let t = CompletionToken(self.next_token.get());
                self.next_token.set(t.0 + 1);
                t
            })
        });
        self.calls.borrow_mut().push_back((now_ns, call));
        token
    }

    /// Takes every queued call, oldest first.
    pub(crate) fn drain(&self) -> Vec<DeferredCall> {
        self.calls.borrow_mut().drain(..).map(|(_, c)| c).collect()
    }

    /// Number of calls queued.
    pub(crate) fn len(&self) -> usize {
        self.calls.borrow().len()
    }

    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.calls.borrow().is_empty()
    }

    /// Virtual time at which the front call's coalescing window
    /// expires, or `None` when nothing is queued.
    pub(crate) fn deadline_ns(&self) -> Option<u64> {
        self.calls
            .borrow()
            .front()
            .map(|(at, _)| at + DEFAULT_BATCH_DEADLINE_NS)
    }

    /// Whether the queue must flush at virtual time `now_ns`: it reached
    /// capacity, or its front call has waited out the deadline.
    pub(crate) fn flush_due(&self, now_ns: u64) -> bool {
        self.len() >= DEFAULT_BATCH_CAPACITY || self.deadline_ns().is_some_and(|d| now_ns >= d)
    }

    /// Drops queued calls not matching `keep` (fault-recovery hygiene),
    /// returning the completion tokens of the dropped calls so the stub
    /// layer can account them as cancelled.
    pub(crate) fn retain(&self, keep: impl Fn(&DeferredCall) -> bool) -> Vec<CompletionToken> {
        let mut dropped = Vec::new();
        self.calls.borrow_mut().retain(|(_, c)| {
            let keep_it = keep(c);
            if !keep_it {
                dropped.extend(c.token);
            }
            keep_it
        });
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUEUEING: [TransportKind; 2] = [TransportKind::Batched, TransportKind::Async];
    const CAP: usize = DEFAULT_BATCH_CAPACITY;
    const WINDOW: u64 = DEFAULT_BATCH_DEADLINE_NS;

    fn call(proc: &str) -> DeferredCall {
        DeferredCall {
            from: Domain::Decaf,
            proc: proc.into(),
            args: vec![],
            scalars: vec![],
            token: None,
        }
    }

    #[test]
    fn non_batching_transports_refuse_deferral() {
        for kind in [TransportKind::InProc, TransportKind::Threaded] {
            assert!(!kind.defers(), "{} defers", kind.name());
        }
        for kind in QUEUEING {
            assert!(kind.defers(), "{} does not defer", kind.name());
        }
    }

    #[test]
    fn batched_queues_until_capacity() {
        for kind in QUEUEING {
            let q = DeferQueue::new(kind);
            for i in 0..CAP {
                assert!(!q.flush_due(0), "{kind:?}: not due at {i}");
                q.push(0, call("writel"));
            }
            assert_eq!(q.len(), CAP);
            assert!(q.flush_due(0), "{kind:?}: due at capacity");
            assert_eq!(q.drain().len(), CAP);
            assert_eq!(q.len(), 0);
            assert!(!q.flush_due(u64::MAX), "{kind:?}: empty queue never due");
        }
    }

    #[test]
    fn deadline_makes_partial_batch_due() {
        for kind in QUEUEING {
            let q = DeferQueue::new(kind);
            q.push(0, call("writel"));
            assert!(!q.flush_due(0), "{kind:?}: fresh call");
            assert!(!q.flush_due(WINDOW - 1));
            assert!(
                q.flush_due(WINDOW),
                "{kind:?}: a lone deferred call must not wait forever"
            );
            // Draining disarms; the next call re-arms from its own time.
            q.drain();
            assert!(!q.flush_due(WINDOW + 1));
            q.push(WINDOW + 1, call("writel"));
            assert!(
                !q.flush_due(WINDOW + 1),
                "{kind:?}: deadline restarts with the new batch"
            );
            assert!(q.flush_due(2 * WINDOW + 1));
        }
    }

    #[test]
    fn deadline_measured_from_oldest_call() {
        for kind in QUEUEING {
            let q = DeferQueue::new(kind);
            q.push(0, call("a"));
            // A later call does not push the oldest call's deadline out.
            q.push(WINDOW - 100, call("b"));
            assert_eq!(q.deadline_ns(), Some(WINDOW));
            assert!(q.flush_due(WINDOW), "{kind:?}");
        }
    }

    #[test]
    fn deadline_reanchors_to_oldest_surviving_call_after_retain() {
        // Regression: the deadline used to be a single armed-at timestamp
        // that `retain` (the reset_end/fault-recovery drop path) left
        // pointing at a dropped call, so the surviving batch flushed a
        // coalescing window off its own defer time.
        for kind in QUEUEING {
            let q = DeferQueue::new(kind);
            let victim = q.push(0, call("victim"));
            let survivor_at = WINDOW - 100;
            q.push(survivor_at, call("survivor"));
            let cancelled = q.retain(|c| c.proc != "victim");
            // Only `Async` mints tokens, so only it reports a cancellation.
            assert_eq!(cancelled, victim.into_iter().collect::<Vec<_>>());
            assert_eq!(victim.is_some(), kind == TransportKind::Async);
            assert!(
                !q.flush_due(WINDOW + 50),
                "{kind:?}: deadline must anchor to the oldest surviving call, not a dropped one"
            );
            assert!(!q.flush_due(survivor_at + WINDOW - 1));
            assert!(q.flush_due(survivor_at + WINDOW));
        }
    }

    #[test]
    fn deadline_exact_after_queue_drains_at_watermark() {
        // Pins the watermark-boundary off-by-one: after the queue drains
        // exactly at the watermark, the next lone call's deadline fires
        // exactly one coalescing window after *its own* defer time — not
        // a window measured from the drained batch.
        for kind in QUEUEING {
            let q = DeferQueue::new(kind);
            for _ in 0..CAP {
                q.push(0, call("a"));
            }
            assert!(q.flush_due(0), "{kind:?}: at the watermark");
            assert_eq!(q.drain().len(), CAP, "drained exactly at the watermark");
            let c_at = 600;
            q.push(c_at, call("c"));
            assert!(
                !q.flush_due(c_at + WINDOW - 1),
                "{kind:?}: one tick before c's own deadline"
            );
            assert!(
                q.flush_due(c_at + WINDOW),
                "{kind:?}: due exactly at c's deadline"
            );
        }
    }

    #[test]
    fn retain_drops_matching_calls() {
        for kind in QUEUEING {
            let q = DeferQueue::new(kind);
            q.push(0, call("a"));
            q.push(0, call("b"));
            q.retain(|c| c.proc != "a");
            let left = q.drain();
            assert_eq!(left.len(), 1, "{kind:?}");
            assert_eq!(left[0].proc, "b");
        }
    }

    #[test]
    fn async_issues_distinct_tokens_and_keeps_requeued_ones() {
        let q = DeferQueue::new(TransportKind::Async);
        let a = q.push(0, call("a")).unwrap();
        let b = q.push(0, call("b")).unwrap();
        assert_ne!(a, b, "each fresh push mints a new token");
        let drained = q.drain();
        assert_eq!(drained[0].token, Some(a));
        assert_eq!(drained[1].token, Some(b));
        // A requeued call keeps its token: no double-issue on recovery.
        assert_eq!(q.push(0, drained[0].clone()), Some(a));
        // `Batched` never mints.
        assert_eq!(
            DeferQueue::new(TransportKind::Batched).push(0, call("a")),
            None
        );
    }

    #[test]
    fn async_flush_due_follows_doorbell_policy() {
        let q = DeferQueue::new(TransportKind::Async);
        assert!(!q.flush_due(0), "empty queue never due");
        q.push(0, call("a"));
        assert!(!q.flush_due(WINDOW - 1));
        assert!(q.flush_due(WINDOW), "deadline fires for a partial batch");
        q.drain();
        for _ in 0..CAP {
            assert!(!q.flush_due(WINDOW));
            q.push(WINDOW, call("b"));
        }
        assert!(q.flush_due(WINDOW), "watermark fires immediately");
    }

    #[test]
    fn async_retain_returns_cancelled_tokens_and_reanchors() {
        let q = DeferQueue::new(TransportKind::Async);
        let victim = q.push(0, call("victim")).unwrap();
        let survivor_at = WINDOW - 100;
        let survivor = q.push(survivor_at, call("survivor")).unwrap();
        let cancelled = q.retain(|c| c.proc != "victim");
        assert_eq!(cancelled, vec![victim]);
        assert_eq!(q.len(), 1);
        assert!(
            !q.flush_due(WINDOW + 50),
            "deadline must re-anchor to the surviving call"
        );
        assert!(q.flush_due(survivor_at + WINDOW));
        assert_eq!(q.drain()[0].token, Some(survivor));
    }

    #[test]
    fn crossing_costs_ordered() {
        // threaded > batched == async > inproc for the same crossing.
        let cost = |kind: TransportKind| kind.crossing_cost_ns(true);
        let inproc = cost(TransportKind::InProc);
        let batched = cost(TransportKind::Batched);
        let threaded = cost(TransportKind::Threaded);
        assert!(inproc < batched && batched < threaded);
        assert_eq!(
            cost(TransportKind::Async),
            batched,
            "a synchronous crossing prices identically on async"
        );
        assert_eq!(
            TransportKind::InProc.crossing_cost_ns(false),
            0,
            "thread reuse without a protection boundary is free"
        );
    }
}
