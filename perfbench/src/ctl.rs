//! `ctl-churn`: a seeded closed loop of control operations on three
//! marshaling decaf builds sharing one kernel.
//!
//! The e1000 decaf build (`eth0`), the rtl8139 decaf build (`eth1`) and
//! the ens1371 decaf build (`card0`) ride the batched XPC transport with
//! XDR delta marshaling; none has a shared-memory ring. Each operation
//! picks a device by seed and toggles it: `netdev_open`/`netdev_stop`
//! for a NIC, `snd_pcm_open`/`snd_pcm_close` for the card, then runs
//! one `schedule_point`. One operation in every [`RELOAD_EVERY`], at a
//! seeded position in its block, instead removes one NIC driver (the
//! two take turns) and loads it again, which re-runs the slicer and the
//! init crossings. The next operation starts when the previous returns, so
//! virtual latency is the call's own virtual duration.

use std::time::Instant;

use decaf_core::drivers::{e1000, ens1371, rtl8139};
use decaf_core::loadgen::SplitMix64;
use decaf_core::simkernel::decaf_trace::Tracer;
use decaf_core::simkernel::{KResult, Kernel};
use decaf_core::xpc::ChannelStats;

use crate::layers::{self, PerOp};
use crate::probe::{since, Site};
use crate::{no_violations, shuffle, Ctx, Round, Virt};

/// Control operations per round.
pub const OPS: usize = 4096;
/// One operation per this many is a driver reload.
pub const RELOAD_EVERY: usize = 256;
const NIC0: &str = "eth0";
const NIC1: &str = "eth1";
const CARD: &str = "card0";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Toggle device 0 (e1000), 1 (rtl8139) or 2 (ens1371).
    Toggle(usize),
    /// Remove and reload NIC 0 or 1.
    Reload(usize),
}

/// The operation sequence. Every block of [`RELOAD_EVERY`] operations
/// holds one reload and equal numbers of toggles per device, and the
/// reloads alternate between the NICs; the seed decides the order
/// within each block and which NIC reloads first. Every seed thus runs
/// the same mix of operations, in a different order.
fn generate(seed: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let first_nic = rng.below(2) as usize;
    let mut ops = Vec::with_capacity(OPS);
    for block in 0..OPS / RELOAD_EVERY {
        let mut b: Vec<Op> = (0..RELOAD_EVERY - 1).map(|i| Op::Toggle(i % 3)).collect();
        b.push(Op::Reload((first_nic + block) % 2));
        shuffle(&mut rng, &mut b);
        ops.extend(b);
    }
    ops
}

/// The three loaded drivers. A NIC slot is empty only inside a reload.
struct Rig {
    k: Kernel,
    e1000: Option<e1000::decaf::DecafE1000>,
    rtl: Option<rtl8139::Decaf8139>,
    ens: ens1371::DecafEns,
}

impl Rig {
    fn channel_stats(&self) -> ChannelStats {
        let mut s = self.ens.channel.stats();
        if let Some(d) = &self.e1000 {
            s.merge(&d.channel.stats());
        }
        if let Some(d) = &self.rtl {
            s.merge(&d.channel.stats());
        }
        s
    }

    fn module_names(&self) -> Vec<String> {
        let mut m: Vec<String> = self.k.modules().into_iter().map(|m| m.name).collect();
        m.sort();
        m
    }
}

fn load_nic(ctx: &mut Ctx, rig: &mut Rig, nic: usize, init: &mut Vec<u64>) -> Result<(), String> {
    let k = &rig.k;
    match nic {
        0 => {
            let d = ctx
                .probe
                .span(Site::Load, 0, || e1000::decaf::install(k, NIC0))
                .map_err(|e| format!("e1000 install: {e:?}"))?;
            init.push(d.init_latency_ns);
            rig.e1000 = Some(d);
        }
        _ => {
            let d = ctx
                .probe
                .span(Site::Load, 0, || rtl8139::install_decaf(k, NIC1))
                .map_err(|e| format!("rtl8139 install_decaf: {e:?}"))?;
            init.push(d.init_latency_ns);
            rig.rtl = Some(d);
        }
    }
    Ok(())
}

fn setup(ctx: &mut Ctx, init: &mut Vec<u64>) -> Result<Rig, String> {
    let (k, ens) = ctx.probe.span(Site::Load, 0, || {
        let k = Kernel::new();
        let ens = ens1371::install_decaf(&k, CARD);
        (k, ens)
    });
    let ens = ens.map_err(|e| format!("ens1371 install_decaf: {e:?}"))?;
    init.push(ens.init_latency_ns);
    let mut rig = Rig {
        k,
        e1000: None,
        rtl: None,
        ens,
    };
    load_nic(ctx, &mut rig, 0, init)?;
    load_nic(ctx, &mut rig, 1, init)?;
    ctx.probe.span(Site::Dispatch, 0, || rig.k.schedule_point());
    Ok(rig)
}

fn toggle(k: &Kernel, dev: usize, up: bool) -> KResult<()> {
    match (dev, up) {
        (0, false) => k.netdev_open(NIC0),
        (0, true) => k.netdev_stop(NIC0),
        (1, false) => k.netdev_open(NIC1),
        (1, true) => k.netdev_stop(NIC1),
        (_, false) => k.snd_pcm_open(CARD),
        (_, true) => k.snd_pcm_close(CARD),
    }
}

/// One round of `ctl-churn`.
pub fn round(ctx: &mut Ctx) -> Result<Round, String> {
    let ops = ctx.probe.span(Site::Gen, 0, || generate(ctx.seed));
    let mut init = Vec::new();
    let t_setup = Instant::now();
    let mut rig = setup(ctx, &mut init)?;
    let setup_ns = since(t_setup);
    let tracer = ctx.probe.traced().then(Tracer::metrics_only);
    rig.k.set_tracer(tracer.clone());
    let modules = rig.module_names();

    let stats0 = rig.k.stats();
    let clock0 = rig.k.snapshot();
    let chan0 = rig.channel_stats();
    // Counters of driver instances removed during the round.
    let mut chan_retired = ChannelStats::default();
    let mut up = [false; 3];
    let mut reloads = 0u64;
    let mut virt = Virt {
        ops: ops.len() as u64,
        lat_ns: Vec::with_capacity(ops.len()),
        ..Virt::default()
    };
    ctx.host_op_ns.reserve(ops.len());

    let t_phase = Instant::now();
    for (i, &op) in ops.iter().enumerate() {
        let req = i as u64;
        let t = Instant::now();
        let span = ctx.probe.begin(Site::Op, req);
        let start = rig.k.now_ns();
        let ok = match op {
            Op::Toggle(dev) => {
                let k = &rig.k;
                let r = ctx.probe.span(Site::Ctl, req, || toggle(k, dev, up[dev]));
                if r.is_ok() {
                    up[dev] = !up[dev];
                }
                r.is_ok()
            }
            Op::Reload(nic) => {
                match nic {
                    0 => {
                        let d = rig.e1000.take().expect("e1000 loaded");
                        chan_retired.merge(&d.channel.stats());
                        ctx.probe.span(Site::Unload, req, || d.remove());
                    }
                    _ => {
                        let d = rig.rtl.take().expect("rtl8139 loaded");
                        chan_retired.merge(&d.channel.stats());
                        ctx.probe.span(Site::Unload, req, || d.remove());
                    }
                }
                up[nic] = false;
                reloads += 1;
                load_nic(ctx, &mut rig, nic, &mut init).is_ok()
            }
        };
        let k = &rig.k;
        ctx.probe.span(Site::Dispatch, req, || k.schedule_point());
        ctx.probe.end(span);
        ctx.host_op_ns.push(since(t));
        if ok {
            virt.lat_ns.push(rig.k.now_ns() - start);
        } else {
            virt.failed += 1;
            virt.lat_ns.push(u64::MAX);
        }
        if matches!(op, Op::Reload(_)) {
            check_drivers(&rig, &modules)?;
        }
    }
    let timed_ns = since(t_phase);

    let clock1 = rig.k.snapshot();
    virt.cpu_ns = (clock1.kernel_busy_ns + clock1.user_busy_ns)
        - (clock0.kernel_busy_ns + clock0.user_busy_ns);
    virt.late_ns = vec![0; ops.len()];
    if virt.failed != 0 {
        return Err(format!(
            "{} of {} control operations failed",
            virt.failed, virt.ops
        ));
    }
    no_violations(&rig.k)?;
    let mut chan = rig.channel_stats();
    chan.merge(&chan_retired);
    let mut c = PerOp::new(virt.ops, "control ops");
    c.kernel(&rig.k, &stats0, &clock0);
    c.channel(&chan, &chan0);
    no_rings(&mut c);
    c.count(
        "slicer.slices",
        init.len() as u64,
        "count",
        &format!("loads that ran the slicer, {reloads} of them reloads"),
    );
    virt.counters = c.done();
    virt.init_ns = init;
    let traced = match &tracer {
        Some(t) => layers::tracer_attribution(t, virt.ops, "control ops")?,
        None => Vec::new(),
    };
    rig.k.set_tracer(None);
    let Rig { e1000, rtl, .. } = rig;
    ctx.probe.span(Site::Unload, 0, || {
        if let Some(d) = e1000 {
            d.remove();
        }
        if let Some(d) = rtl {
            d.remove();
        }
    });
    Ok(Round {
        setup_ns,
        timed_ns,
        virt,
        traced,
    })
}

/// After a reload the kernel lists the same modules as after set-up and
/// both interfaces exist again.
fn check_drivers(rig: &Rig, modules: &[String]) -> Result<(), String> {
    let now = rig.module_names();
    if now != modules {
        return Err(format!(
            "driver list {now:?} after reload, expected {modules:?}"
        ));
    }
    for nic in [NIC0, NIC1] {
        if !rig.k.netdev_exists(nic) {
            return Err(format!("{nic} missing after reload"));
        }
    }
    Ok(())
}

/// These builds have no shared-memory rings, pools or flash.
fn no_rings(c: &mut PerOp) {
    c.per_op("shmring.ring_posts_per_op", 0, "count/op");
    for (name, base) in [
        ("shmring.ring_backpressure", "no shared-memory ring"),
        ("shmring.ring_occupancy_hwm", "no shared-memory ring"),
    ] {
        c.count(name, 0, "count", base);
    }
    c.per_op("shmring.pool_allocs_per_op", 0, "count/op");
    c.ratio(
        "shmring.pool_sectors_per_alloc",
        0,
        0,
        "sectors/alloc",
        "sector-pool allocations",
    );
    for name in [
        "shmring.pool_frag_refusals",
        "shmring.pool_exhausted",
        "shmring.pool_in_use_hwm",
        "shmring.urb_in_flight_hwm",
        "simdev.flash_writes",
        "simdev.flash_reads",
        "simdev.nic_tx_frames",
        "simdev.nic_rx_frames",
    ] {
        c.count(name, 0, "count", "no data path in a control workload");
    }
}
