//! Host-side measurement: per-operation wall-clock samples, spans around
//! the benchmark's calls into each layer, and exact percentiles.
//!
//! Spans are recorded only in a traced run. Each span has a name, a
//! start and an end on the host clock, the id of the span that was open
//! when it began, and the request id of the operation it serves. Self
//! time is the span's duration minus the time its child spans cover; it
//! is summed per span name online, so a long run needs no span buffer.
//! The first [`KEPT_SPANS`] spans are also kept in memory and written
//! out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark's call sites, one per layer boundary it crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// One operation step of the workload (root span of a request).
    Op,
    /// `Kernel::net_xmit` / `Kernel::usb_submit_urb`.
    Submit,
    /// `Kernel::schedule_point` / `Kernel::run_for`.
    Dispatch,
    /// `netdev_open/stop`, `snd_pcm_open/close`.
    Ctl,
    /// `Kernel::new` plus a driver `install*`.
    Load,
    /// A driver's `remove`.
    Unload,
    /// `ShardedChannel::flush_all` / `harvest_all`.
    Settle,
    /// The benchmark's own input generation and bookkeeping.
    Gen,
}

impl Site {
    /// Every site, in report order.
    pub const ALL: [Site; 8] = [
        Site::Op,
        Site::Submit,
        Site::Dispatch,
        Site::Ctl,
        Site::Load,
        Site::Unload,
        Site::Settle,
        Site::Gen,
    ];

    /// The span name, prefixed by the layer it enters.
    pub fn name(self) -> &'static str {
        match self {
            Site::Op => "bench.op",
            Site::Submit => "simkernel.submit",
            Site::Dispatch => "simkernel.dispatch",
            Site::Ctl => "simkernel.ctl",
            Site::Load => "drivers.load",
            Site::Unload => "drivers.unload",
            Site::Settle => "xpc.settle",
            Site::Gen => "bench.gen",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Spans kept in memory for the span file; later spans are still
/// counted in the self-time totals.
pub const KEPT_SPANS: usize = 200_000;

/// One recorded span, host nanoseconds since the probe was made.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Span id, unique within the run.
    pub id: u32,
    /// Id of the enclosing span; 0 for a root span.
    pub parent: u32,
    /// Call site.
    pub site: Site,
    /// Request id of the operation the span serves.
    pub req: u64,
    /// Start, ns since the probe epoch.
    pub start_ns: u64,
    /// End, ns since the probe epoch.
    pub end_ns: u64,
}

struct Open {
    id: u32,
    parent: u32,
    site: Site,
    req: u64,
    start: Instant,
    child_ns: u64,
}

/// Handle of an open span; close it with [`Probe::end`].
#[must_use]
pub struct SpanGuard(Option<usize>);

/// The host-side recorder of one run.
pub struct Probe {
    traced: bool,
    epoch: Instant,
    open: Vec<Open>,
    next_id: u32,
    kept: Vec<SpanRec>,
    self_ns: [u64; Site::ALL.len()],
    calls: [u64; Site::ALL.len()],
}

impl Probe {
    /// A probe that records spans only when `traced`.
    pub fn new(traced: bool) -> Self {
        Probe {
            traced,
            epoch: Instant::now(),
            open: Vec::new(),
            next_id: 1,
            kept: Vec::new(),
            self_ns: [0; Site::ALL.len()],
            calls: [0; Site::ALL.len()],
        }
    }

    /// Whether spans are being recorded.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Turns span recording on or off between rounds.
    pub fn set_traced(&mut self, traced: bool) {
        assert!(self.open.is_empty(), "span left open across rounds");
        self.traced = traced;
    }

    /// Opens a span at `site` for request `req`.
    pub fn begin(&mut self, site: Site, req: u64) -> SpanGuard {
        if !self.traced {
            return SpanGuard(None);
        }
        let parent = self.open.last().map_or(0, |o| o.id);
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        self.open.push(Open {
            id,
            parent,
            site,
            req,
            start: Instant::now(),
            child_ns: 0,
        });
        SpanGuard(Some(self.open.len()))
    }

    /// Closes the span `g` opened; spans close innermost first.
    pub fn end(&mut self, g: SpanGuard) {
        let Some(depth) = g.0 else { return };
        assert_eq!(depth, self.open.len(), "spans must close innermost first");
        let o = self.open.pop().expect("an open span per guard");
        let end = Instant::now();
        let dur = end.duration_since(o.start).as_nanos() as u64;
        let i = o.site.index();
        self.self_ns[i] += dur.saturating_sub(o.child_ns);
        self.calls[i] += 1;
        if let Some(p) = self.open.last_mut() {
            p.child_ns += dur;
        }
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(SpanRec {
                id: o.id,
                parent: o.parent,
                site: o.site,
                req: o.req,
                start_ns: o.start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        }
    }

    /// Runs `f` inside a span at `site`.
    pub fn span<R>(&mut self, site: Site, req: u64, f: impl FnOnce() -> R) -> R {
        let g = self.begin(site, req);
        let r = f();
        self.end(g);
        r
    }

    /// Summed self time (ns) and call count of the spans at `site`.
    pub fn self_time(&self, site: Site) -> (u64, u64) {
        (self.self_ns[site.index()], self.calls[site.index()])
    }

    /// The kept spans as tab-separated lines:
    /// `id parent name req start_ns end_ns`.
    pub fn render_spans(&self) -> String {
        let mut out = String::from("id\tparent\tname\treq\tstart_ns\tend_ns\n");
        for s in &self.kept {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.site.name(),
                s.req,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Nominal host ns of [`reference`]: host times are reported on a clock
/// scaled so that the reference computation takes exactly this long.
pub const REFERENCE_NS: f64 = 1e6;

/// A fixed computation that shares nothing with the program under test:
/// sorting, hashing and small reference-counted allocations, the kinds
/// of work the simulator does. Timed before every round, it measures
/// how fast the host runs at that moment.
pub fn reference() -> u64 {
    use std::collections::HashMap;
    use std::hint::black_box;
    use std::rc::Rc;
    let mut x = black_box(0x5eed_u64);
    let mut v: Vec<u64> = (0..32_000)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        })
        .collect();
    v.sort_unstable();
    let m: HashMap<u64, u64> = v.iter().step_by(4).map(|&k| (k, k ^ 1)).collect();
    let hits: u64 = v.iter().step_by(3).filter_map(|k| m.get(k)).sum();
    let cells: Vec<Rc<Vec<u8>>> = (0..3_000)
        .map(|i| Rc::new(vec![i as u8; 64 + (i % 7) * 100]))
        .collect();
    black_box(hits.wrapping_add(cells.iter().map(|c| c.len() as u64).sum()))
}

/// Host nanoseconds elapsed since `t0`.
pub fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The `q`-quantile of ascending `sorted` samples by the nearest-rank
/// rule: the smallest sample with at least `q` of all samples at or
/// below it. Exact: it is always one of the samples.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut p = Probe::new(true);
        let outer = p.begin(Site::Op, 1);
        let inner = p.begin(Site::Submit, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.end(inner);
        p.end(outer);
        let (op_self, op_calls) = p.self_time(Site::Op);
        let (sub_self, _) = p.self_time(Site::Submit);
        assert_eq!(op_calls, 1);
        assert!(sub_self >= 2_000_000);
        assert!(op_self < sub_self);
        assert_eq!(p.kept[0].parent, p.kept[1].id);
    }

    #[test]
    fn untraced_probe_records_nothing() {
        let mut p = Probe::new(false);
        p.span(Site::Ctl, 0, || ());
        assert_eq!(p.self_time(Site::Ctl), (0, 0));
    }
}
