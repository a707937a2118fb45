//! Per-layer counters read through the layers' public stats, each
//! printed with the base it is divided by.

use std::fmt;

use decaf_core::simkernel::clock::ClockSnapshot;
use decaf_core::simkernel::decaf_trace::Tracer;
use decaf_core::simkernel::kernel::KernelStats;
use decaf_core::simkernel::Kernel;
use decaf_core::xpc::ChannelStats;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value is divided by or counted over, for the reader.
    pub base: String,
}

impl Metric {
    /// A metric without a stated base.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            base: String::new(),
        }
    }

    /// Sets the base.
    pub fn base(mut self, base: String) -> Self {
        self.base = base;
        self
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<34} {:>16} {:<8}",
            self.name,
            json_number(self.value),
            self.unit
        )?;
        if !self.base.is_empty() {
            write!(f, " ({})", self.base)?;
        }
        Ok(())
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// non-finite values (a ratio over nothing) print as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Counts of one timed phase, all per operation over `ops`.
pub struct PerOp {
    ops: u64,
    what: &'static str,
    out: Vec<Metric>,
}

impl PerOp {
    /// Starts a counter list whose rates divide by `ops` `what`s.
    pub fn new(ops: u64, what: &'static str) -> Self {
        PerOp {
            ops,
            what,
            out: Vec::new(),
        }
    }

    /// A count divided by the operation count.
    pub fn per_op(&mut self, name: &str, count: u64, unit: &'static str) {
        self.out.push(
            Metric::new(name, ratio(count, self.ops), unit)
                .base(format!("{count} over {} {}", self.ops, self.what)),
        );
    }

    /// A virtual-ns total per operation, in µs.
    pub fn us_per_op(&mut self, name: &str, ns: u64) {
        self.out.push(
            Metric::new(name, ratio(ns, self.ops) / 1e3, "us")
                .base(format!("{ns} ns over {} {}", self.ops, self.what)),
        );
    }

    /// A ratio of two counts.
    pub fn ratio(&mut self, name: &str, num: u64, den: u64, unit: &'static str, base: &str) {
        self.out.push(
            Metric::new(name, ratio(num, den), unit).base(format!("{num} over {den} {base}")),
        );
    }

    /// A plain count (a high-water mark or an event total).
    pub fn count(&mut self, name: &str, count: u64, unit: &'static str, base: &str) {
        self.out
            .push(Metric::new(name, count as f64, unit).base(base.to_string()));
    }

    /// The `simkernel.*` counters between two kernel snapshots.
    pub fn kernel(&mut self, k: &Kernel, stats0: &KernelStats, clock0: &ClockSnapshot) {
        let s = k.stats();
        let c = k.snapshot();
        self.per_op(
            "simkernel.irqs_per_op",
            s.irqs_delivered - stats0.irqs_delivered,
            "count/op",
        );
        self.per_op(
            "simkernel.timers_per_op",
            s.timers_fired - stats0.timers_fired,
            "count/op",
        );
        self.per_op(
            "simkernel.work_per_op",
            s.work_executed - stats0.work_executed,
            "count/op",
        );
        self.per_op(
            "simkernel.bytes_copied_per_op",
            s.bytes_copied - stats0.bytes_copied,
            "bytes/op",
        );
        self.count(
            "simkernel.violations",
            k.violations().len() as u64,
            "count",
            "kernel-rule violations in the round",
        );
        self.us_per_op(
            "simkernel.virt_kernel_us_per_op",
            c.kernel_busy_ns - clock0.kernel_busy_ns,
        );
        self.us_per_op(
            "simkernel.virt_user_us_per_op",
            c.user_busy_ns - clock0.user_busy_ns,
        );
    }

    /// The `xpc.*` and `xdr.*` counters between two channel snapshots.
    pub fn channel(&mut self, s: &ChannelStats, s0: &ChannelStats) {
        let d = |f: fn(&ChannelStats) -> u64| f(s) - f(s0);
        self.per_op("xpc.round_trips_per_op", d(|c| c.round_trips), "count/op");
        self.per_op(
            "xpc.marshal_bytes_per_op",
            d(|c| c.bytes_in + c.bytes_out),
            "bytes/op",
        );
        self.ratio(
            "xpc.batched_calls_per_flush",
            d(|c| c.batched_calls),
            d(|c| c.flushes),
            "calls/flush",
            "flushes",
        );
        self.per_op("xpc.doorbells_per_op", d(|c| c.doorbells), "count/op");
        self.ratio(
            "xpc.descs_per_doorbell",
            d(|c| c.ring_posts),
            d(|c| c.doorbells),
            "descs/bell",
            "doorbells",
        );
        self.per_op(
            "xpc.tokens_issued_per_op",
            d(|c| c.tokens_issued),
            "count/op",
        );
        self.count(
            "xpc.tokens_cancelled",
            d(|c| c.tokens_cancelled),
            "count",
            "tokens cancelled in the round",
        );
        self.us_per_op("xpc.overlap_us_per_op", d(|c| c.overlap_ns));
        self.per_op("xdr.full_objects_per_op", d(|c| c.full_objects), "count/op");
        self.per_op(
            "xdr.delta_objects_per_op",
            d(|c| c.delta_objects),
            "count/op",
        );
        self.per_op(
            "xdr.fields_elided_per_op",
            d(|c| c.delta_fields_elided),
            "count/op",
        );
    }

    /// The finished list.
    pub fn done(self) -> Vec<Metric> {
        self.out
    }
}

/// Span categories of the program's tracer reported per operation.
const CATEGORIES: [&str; 5] = ["kernel", "xpc", "ring", "urb", "rx"];

/// Virtual self time per tracer span category, per operation, plus the
/// share of charged time that landed inside some span. Reads the
/// tracer's flame summary, whose rows are `cat.name count self total
/// pct` with times in µs.
pub fn tracer_attribution(t: &Tracer, ops: u64, what: &str) -> Result<Vec<Metric>, String> {
    let mut self_us = [0.0f64; CATEGORIES.len()];
    for line in t.flame_summary().lines().skip(2) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        let [span, _count, self_col, _total, _pct] = cols[..] else {
            return Err(format!("unexpected flame summary row {line:?}"));
        };
        let cat = span.split('.').next().unwrap_or("");
        let v: f64 = self_col
            .parse()
            .map_err(|e| format!("flame summary self time {self_col:?}: {e}"))?;
        if let Some(i) = CATEGORIES.iter().position(|c| *c == cat) {
            self_us[i] += v;
        }
    }
    let cov = t.coverage();
    let unattributed: u64 = cov.unattributed.iter().sum();
    let mut out: Vec<Metric> = CATEGORIES
        .iter()
        .zip(self_us)
        .map(|(cat, v)| {
            Metric::new(&format!("virt.{cat}.self_us_per_op"), v / ops as f64, "us")
                .base(format!("{v:.1} us over {ops} {what}"))
        })
        .collect();
    out.push(
        Metric::new(
            "virt.unattributed_us_per_op",
            ratio(unattributed, ops) / 1e3,
            "us",
        )
        .base(format!("{unattributed} ns over {ops} {what}")),
    );
    out.push(
        Metric::new("trace.virt_coverage", cov.fraction(), "fraction")
            .base("charged virtual ns inside a tracer span".into()),
    );
    Ok(out)
}

/// Non-blank, non-comment Rust lines per crate, Table 1's count.
/// `table1()` lists its rows in the order of `crates` below.
pub fn loc() -> Vec<Metric> {
    let rows = decaf_core::experiments::table1();
    let crates = [
        "xdr",
        "xpc",
        "shmring",
        "slicer",
        "simkernel",
        "simdev",
        "drivers",
    ];
    crates
        .iter()
        .zip(&rows)
        .map(|(name, row)| {
            Metric::new(&format!("{name}.loc"), row.measured_loc as f64, "lines")
                .base(row.component.to_string())
        })
        .collect()
}
