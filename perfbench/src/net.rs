//! `net-shard`: open-loop frames through the sharded e1000 decaf build.
//!
//! Four shards on the async shmring transport, interrupt receive, and
//! the device model looping every transmitted frame back through
//! receive. Frames arrive on a seeded Poisson schedule at
//! [`RATE_PER_S`] per virtual second; each is 64 B or 1500 B, 1:1 by
//! seed. A frame's step advances the kernel to its scheduled arrival
//! (dispatching the timers and drains due by then), transmits it with
//! `net_xmit` and runs one `schedule_point`.

use std::time::Instant;

use decaf_core::drivers::e1000::decaf::{install_sharded, ShardedE1000};
use decaf_core::loadgen::{poisson_schedule, SplitMix64};
use decaf_core::simkernel::costs::DOORBELL_COALESCE_NS;
use decaf_core::simkernel::decaf_trace::Tracer;
use decaf_core::simkernel::{Kernel, SkBuff};
use decaf_core::xpc::ChannelStats;

use crate::layers::{self, PerOp};
use crate::probe::{since, Site};
use crate::{no_violations, settle, Ctx, Round, Virt};

/// Offered frames per virtual second.
pub const RATE_PER_S: u64 = 20_000;
/// Virtual length of one round's arrival schedule.
pub const HORIZON_NS: u64 = 2_000_000_000;
/// Shards of the sharded build.
pub const SHARDS: usize = 4;
const IF: &str = "eth0";
/// Stream id mixed into the seed for frame sizes and fills, so they are
/// independent of the arrival gaps.
const FRAME_STREAM: u64 = 0x6672_616d_6573;

/// The seeded input of one round: arrival times and frames.
struct Input {
    arrivals: Vec<u64>,
    /// (length, fill byte) per frame.
    frames: Vec<(usize, u8)>,
}

fn generate(seed: u64) -> Input {
    let arrivals = poisson_schedule(seed, RATE_PER_S, HORIZON_NS);
    let mut rng = SplitMix64::new(seed ^ FRAME_STREAM);
    let frames = arrivals
        .iter()
        .map(|_| {
            let len = if rng.below(2) == 0 { 64 } else { 1500 };
            (len, rng.next_u64() as u8)
        })
        .collect();
    Input { arrivals, frames }
}

fn setup(ctx: &mut Ctx) -> Result<(Kernel, ShardedE1000), String> {
    let rig = ctx.probe.span(Site::Load, 0, || {
        let k = Kernel::new();
        install_sharded(&k, IF, SHARDS).map(|d| (k, d))
    });
    let (k, drv) = rig.map_err(|e| format!("install_sharded: {e:?}"))?;
    ctx.probe
        .span(Site::Ctl, 0, || k.netdev_open(IF))
        .map_err(|e| format!("netdev_open: {e:?}"))?;
    ctx.probe.span(Site::Dispatch, 0, || k.schedule_point());
    Ok((k, drv))
}

/// One round of `net-shard`.
pub fn round(ctx: &mut Ctx) -> Result<Round, String> {
    let input = ctx.probe.span(Site::Gen, 0, || generate(ctx.seed));
    let t_setup = Instant::now();
    let (k, drv) = setup(ctx)?;
    let setup_ns = since(t_setup);
    let tracer = ctx.probe.traced().then(Tracer::metrics_only);
    k.set_tracer(tracer.clone());

    let stats0 = k.stats();
    let clock0 = k.snapshot();
    let chan0 = drv.channels.stats();
    let n = input.arrivals.len();
    let mut virt = Virt {
        ops: n as u64,
        lat_ns: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        init_ns: vec![drv.init_latency_ns],
        ..Virt::default()
    };
    ctx.host_op_ns.reserve(n);

    let t_phase = Instant::now();
    for (i, (&arrival, &(len, fill))) in input.arrivals.iter().zip(&input.frames).enumerate() {
        let req = i as u64;
        let t = Instant::now();
        let op = ctx.probe.begin(Site::Op, req);
        let now = k.now_ns();
        if now < arrival {
            ctx.probe
                .span(Site::Dispatch, req, || k.run_for(arrival - now));
        }
        let start = k.now_ns();
        let skb = SkBuff::synthetic(len, fill, 0x0800);
        let sent = ctx.probe.span(Site::Submit, req, || k.net_xmit(IF, skb));
        ctx.probe.span(Site::Dispatch, req, || k.schedule_point());
        ctx.probe.end(op);
        ctx.host_op_ns.push(since(t));
        virt.late_ns.push(start - arrival);
        match sent {
            Ok(()) => virt.lat_ns.push(k.now_ns() - arrival),
            Err(_) => {
                virt.failed += 1;
                virt.lat_ns.push(u64::MAX);
            }
        }
    }
    // Settle: let coalesced doorbells and their deadline timers fire,
    // then flush whatever is parked and harvest every launched crossing
    // so the token ledger closes.
    ctx.probe
        .span(Site::Dispatch, 0, || k.run_for(4 * DOORBELL_COALESCE_NS));
    settle(ctx, &k, &drv.channels)?;
    let timed_ns = since(t_phase);

    let clock1 = k.snapshot();
    virt.cpu_ns = (clock1.kernel_busy_ns + clock1.user_busy_ns)
        - (clock0.kernel_busy_ns + clock0.user_busy_ns);
    let chan = drv.channels.stats();
    check(&k, &drv, virt.ops - virt.failed)?;
    virt.counters = counters(&k, &drv, &chan, &chan0, &stats0, &clock0, virt.ops);
    let traced = match &tracer {
        Some(t) => layers::tracer_attribution(t, virt.ops, "frames")?,
        None => Vec::new(),
    };
    k.set_tracer(None);
    ctx.probe.span(Site::Unload, 0, || drv.remove());
    Ok(Round {
        setup_ns,
        timed_ns,
        virt,
        traced,
    })
}

/// The output checks after [`settle`]: every accepted frame went out
/// and came back, the descriptor ledgers are closed, and no kernel rule
/// broke.
fn check(k: &Kernel, drv: &ShardedE1000, sent: u64) -> Result<(), String> {
    let net = k.net_stats(IF);
    if net.tx_packets != sent || net.rx_packets != sent {
        return Err(format!(
            "frames unaccounted: offered {sent}, tx {}, rx {}",
            net.tx_packets, net.rx_packets
        ));
    }
    for (name, set) in [("TX", &drv.tx_set), ("RX", &drv.rx_set)] {
        if !set.conserved() || set.in_flight() != 0 {
            return Err(format!(
                "{name} ring set not conserved: {} in flight",
                set.in_flight()
            ));
        }
    }
    no_violations(k)
}

fn counters(
    k: &Kernel,
    drv: &ShardedE1000,
    chan: &ChannelStats,
    chan0: &ChannelStats,
    stats0: &decaf_core::simkernel::kernel::KernelStats,
    clock0: &decaf_core::simkernel::clock::ClockSnapshot,
    ops: u64,
) -> Vec<layers::Metric> {
    let mut c = PerOp::new(ops, "frames");
    c.kernel(k, stats0, clock0);
    c.channel(chan, chan0);
    let rings =
        (0..drv.shards()).flat_map(|i| [drv.tx_set.ring(i).stats(), drv.rx_set.ring(i).stats()]);
    let (mut posts, mut backpressure, mut hwm) = (0, 0, 0);
    for r in rings {
        posts += r.posts;
        backpressure += r.backpressure;
        hwm = hwm.max(r.occupancy_hwm);
    }
    c.per_op("shmring.ring_posts_per_op", posts, "count/op");
    c.count(
        "shmring.ring_backpressure",
        backpressure,
        "count",
        "full-ring refusals, TX and RX rings",
    );
    c.count(
        "shmring.ring_occupancy_hwm",
        hwm,
        "count",
        "highest occupancy of any TX or RX ring",
    );
    let pool = drv.tx_paths[0]
        .pool()
        .map(|p| p.stats())
        .unwrap_or_default();
    c.per_op("shmring.pool_allocs_per_op", pool.allocs, "count/op");
    c.ratio(
        "shmring.pool_sectors_per_alloc",
        0,
        0,
        "sectors/alloc",
        "sector allocations (the TX pool hands out whole buffers)",
    );
    c.count("shmring.pool_frag_refusals", 0, "count", "no sector pool");
    c.count(
        "shmring.pool_exhausted",
        pool.exhausted,
        "count",
        "TX buffer pool exhaustions",
    );
    c.count(
        "shmring.pool_in_use_hwm",
        pool.in_use_hwm,
        "count",
        "TX buffer pool high-water mark",
    );
    c.count("shmring.urb_in_flight_hwm", 0, "count", "no URB path");
    let dev = drv.dev.borrow();
    c.count("simdev.flash_writes", 0, "count", "no flash device");
    c.count("simdev.flash_reads", 0, "count", "no flash device");
    c.count(
        "simdev.nic_tx_frames",
        dev.frames_transmitted() as u64,
        "count",
        "frames the NIC model sent",
    );
    c.count(
        "simdev.nic_rx_frames",
        dev.frames_received() as u64,
        "count",
        "frames the NIC model received",
    );
    c.count("slicer.slices", 1, "count", "loads that ran the slicer");
    c.done()
}
