//! `tar-luns`: four seeded archives written to and read back from four
//! flash LUNs through the sharded uhci decaf build.
//!
//! Each LUN's archive has [`FILES`] files of 1–40 sectors; each
//! sector's payload is 37, 100, 512 or 1500 B (1500 B spans three pool
//! sectors as a scatter-gather chain). Writes go as per-file bulk-OUT
//! bursts, the four LUNs' `f`-th files interleaved sector by sector;
//! bursts are scheduled at the USB 1.0 pace of 1 ms per sector slot.
//! Then every sector is read back (stage OUT + data IN) in per-file
//! readahead windows of [`READAHEAD_SECTORS`], scheduled the same way,
//! and compared with what was written.
//!
//! An operation is one data URB: a sector write, or a sector read (its
//! stage command plus its data transfer). Its step advances the kernel
//! to the scheduled arrival of its burst when the clock is behind, then
//! submits and runs one `schedule_point`. Its virtual latency runs from
//! the burst's scheduled arrival to the URB's completion callback.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use decaf_core::drivers::uhci::{install_sharded, ShardedUhci};
use decaf_core::drivers::workloads::READAHEAD_SECTORS;
use decaf_core::loadgen::SplitMix64;
use decaf_core::simdev::uhci::{ep_bulk_in, ep_bulk_out, FLASH_CMD_READ, FLASH_CMD_WRITE};
use decaf_core::simkernel::costs::DOORBELL_COALESCE_NS;
use decaf_core::simkernel::decaf_trace::Tracer;
use decaf_core::simkernel::usb::{Urb, UrbCompletion, UrbDir};
use decaf_core::simkernel::Kernel;

use crate::layers::{self, PerOp};
use crate::probe::{since, Site};
use crate::{no_violations, settle, shuffle, Ctx, Round, Virt};

/// Logical units written in parallel, one archive each.
pub const LUNS: usize = 4;
/// Shards of the sharded build.
pub const SHARDS: usize = 4;
/// Files per archive, one of each length from 1 to this many sectors.
pub const FILES: usize = 40;
/// Payload sizes a sector draws from.
pub const PAYLOADS: [usize; 4] = [37, 100, 512, 1500];
/// Virtual time the bus needs per sector slot (USB 1.0 bulk).
pub const SLOT_NS: u64 = 1_000_000;
const HCD: &str = "uhci0";

/// One sector of one LUN's archive.
struct Sector {
    lun: usize,
    sector: u32,
    payload: Rc<Vec<u8>>,
}

/// One scheduled burst: its arrival and the sectors it carries, in
/// submission order.
struct Burst {
    arrival_ns: u64,
    sectors: Vec<usize>,
}

/// The seeded input of one round.
struct Input {
    sectors: Vec<Sector>,
    writes: Vec<Burst>,
    reads: Vec<Burst>,
    /// Virtual time after the last read window's pacing slot.
    end_ns: u64,
}

/// Generates the archives and both schedules; arrivals are offsets
/// from the start of the timed phase.
///
/// Each archive holds one file of every length from 1 to [`FILES`]
/// sectors, in an order the seed decides and the four archives share,
/// and equal numbers of each payload size, which the seed places per
/// LUN. Every seed thus moves the same bytes in bursts of the same
/// sizes, and the virtual metrics of different seeds stay comparable.
fn generate(seed: u64) -> Input {
    let mut rng = SplitMix64::new(seed);
    // files[lun][f] = indices into `sectors`.
    let mut sectors = Vec::new();
    let mut files: Vec<Vec<Vec<usize>>> = (0..LUNS).map(|_| Vec::with_capacity(FILES)).collect();
    let mut lens: Vec<usize> = (1..=FILES).collect();
    shuffle(&mut rng, &mut lens);
    let total: usize = lens.iter().sum();
    for (lun, lun_files) in files.iter_mut().enumerate() {
        let mut sizes: Vec<usize> = (0..total).map(|i| PAYLOADS[i % PAYLOADS.len()]).collect();
        shuffle(&mut rng, &mut sizes);
        let mut sizes = sizes.into_iter();
        let mut next = 0u32;
        for &len in &lens {
            let mut file = Vec::with_capacity(len);
            for size in sizes.by_ref().take(len) {
                let mut payload = vec![0u8; size];
                for chunk in payload.chunks_mut(8) {
                    let word = rng.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&word[..chunk.len()]);
                }
                file.push(sectors.len());
                sectors.push(Sector {
                    lun,
                    sector: next,
                    payload: Rc::new(payload),
                });
                next += 1;
            }
            lun_files.push(file);
        }
    }
    let mut t = 0u64;
    let mut writes = Vec::with_capacity(FILES);
    for f in 0..FILES {
        let slots = files.iter().map(|l| l[f].len()).max().unwrap_or(0);
        let order = (0..slots)
            .flat_map(|s| files.iter().filter_map(move |l| l[f].get(s).copied()))
            .collect();
        writes.push(Burst {
            arrival_ns: t,
            sectors: order,
        });
        t += slots as u64 * SLOT_NS;
    }
    let window = READAHEAD_SECTORS as usize;
    let mut reads = Vec::new();
    for f in 0..FILES {
        let slots = files.iter().map(|l| l[f].len()).max().unwrap_or(0);
        for w0 in (0..slots).step_by(window) {
            let w1 = (w0 + window).min(slots);
            let order = (w0..w1)
                .flat_map(|s| files.iter().filter_map(move |l| l[f].get(s).copied()))
                .collect();
            reads.push(Burst {
                arrival_ns: t,
                sectors: order,
            });
            t += (w1 - w0) as u64 * SLOT_NS;
        }
    }
    Input {
        sectors,
        writes,
        reads,
        end_ns: t,
    }
}

/// Prebuilt URB payloads, so the timed phase only moves them.
fn write_urb(s: &Sector) -> Urb {
    let mut data = Vec::with_capacity(5 + s.payload.len());
    data.push(FLASH_CMD_WRITE);
    data.extend_from_slice(&s.sector.to_le_bytes());
    data.extend_from_slice(&s.payload);
    Urb {
        endpoint: ep_bulk_out(s.lun) as u8,
        dir: UrbDir::Out,
        data,
    }
}

fn read_urbs(s: &Sector) -> (Urb, Urb) {
    let mut cmd = vec![FLASH_CMD_READ];
    cmd.extend_from_slice(&s.sector.to_le_bytes());
    (
        Urb {
            endpoint: ep_bulk_out(s.lun) as u8,
            dir: UrbDir::Out,
            data: cmd,
        },
        Urb {
            endpoint: ep_bulk_in(s.lun) as u8,
            dir: UrbDir::In,
            data: vec![0; s.payload.len()],
        },
    )
}

/// Completion state shared with the URB callbacks.
struct Done {
    /// Virtual completion time per operation (0 = not completed).
    at_ns: Vec<u64>,
    /// Operations refused at submission or completed with an error.
    failed: Vec<bool>,
    /// Read operations whose data differed from what was written.
    mismatches: Vec<usize>,
}

fn setup(ctx: &mut Ctx) -> Result<(Kernel, ShardedUhci), String> {
    let rig = ctx.probe.span(Site::Load, 0, || {
        let k = Kernel::new();
        install_sharded(&k, HCD, SHARDS).map(|d| (k, d))
    });
    let (k, drv) = rig.map_err(|e| format!("install_sharded: {e:?}"))?;
    ctx.probe.span(Site::Dispatch, 0, || k.schedule_point());
    Ok((k, drv))
}

/// One round of `tar-luns`.
pub fn round(ctx: &mut Ctx) -> Result<Round, String> {
    let (input, mut write_urbs, mut read_pairs) = ctx.probe.span(Site::Gen, 0, || {
        let input = generate(ctx.seed);
        let writes: Vec<Option<Urb>> = input.sectors.iter().map(|s| Some(write_urb(s))).collect();
        let reads: Vec<Option<(Urb, Urb)>> =
            input.sectors.iter().map(|s| Some(read_urbs(s))).collect();
        (input, writes, reads)
    });
    let t_setup = Instant::now();
    let (k, drv) = setup(ctx)?;
    let setup_ns = since(t_setup);
    let tracer = ctx.probe.traced().then(Tracer::metrics_only);
    k.set_tracer(tracer.clone());

    let n_sectors = input.sectors.len();
    let n = 2 * n_sectors;
    let done = Rc::new(RefCell::new(Done {
        at_ns: vec![0; n],
        failed: vec![false; n],
        mismatches: Vec::new(),
    }));
    let stats0 = k.stats();
    let clock0 = k.snapshot();
    let chan0 = drv.channels.stats();
    let writes0 = drv.dev.borrow().flash_writes();
    let reads0 = drv.dev.borrow().flash_reads();
    let base = k.now_ns();
    let mut virt = Virt {
        ops: n as u64,
        late_ns: Vec::with_capacity(n),
        init_ns: vec![drv.init_latency_ns],
        ..Virt::default()
    };
    let mut arrival_of = vec![0u64; n];
    ctx.host_op_ns.reserve(n);

    let t_phase = Instant::now();
    let phases = [(&input.writes, false), (&input.reads, true)];
    for (bursts, reading) in phases {
        for burst in bursts {
            let arrival = base + burst.arrival_ns;
            for &si in &burst.sectors {
                let op = if reading { n_sectors + si } else { si };
                arrival_of[op] = arrival;
                let t = Instant::now();
                let span = ctx.probe.begin(Site::Op, op as u64);
                let now = k.now_ns();
                if now < arrival {
                    ctx.probe
                        .span(Site::Dispatch, op as u64, || k.run_for(arrival - now));
                }
                virt.late_ns.push(k.now_ns() - arrival);
                let submitted = if reading {
                    let (stage, data) = read_pairs[si].take().expect("one read per sector");
                    let expect = Rc::clone(&input.sectors[si].payload);
                    ctx.probe.span(Site::Submit, op as u64, || {
                        k.usb_submit_urb(HCD, stage, stage_done(&done, op))?;
                        k.usb_submit_urb(HCD, data, read_done(&done, op, expect))
                    })
                } else {
                    let urb = write_urbs[si].take().expect("one write per sector");
                    ctx.probe.span(Site::Submit, op as u64, || {
                        k.usb_submit_urb(HCD, urb, write_done(&done, op))
                    })
                };
                ctx.probe
                    .span(Site::Dispatch, op as u64, || k.schedule_point());
                ctx.probe.end(span);
                ctx.host_op_ns.push(since(t));
                if submitted.is_err() {
                    done.borrow_mut().failed[op] = true;
                }
            }
        }
    }
    // Settle: finish the last window's bus time, then let coalesced
    // doorbells flush and the last givebacks land.
    let settle_to = base + input.end_ns + 4 * DOORBELL_COALESCE_NS;
    let now = k.now_ns();
    ctx.probe.span(Site::Dispatch, 0, || {
        k.run_for(settle_to.saturating_sub(now))
    });
    settle(ctx, &k, &drv.channels)?;
    let timed_ns = since(t_phase);

    let clock1 = k.snapshot();
    virt.cpu_ns = (clock1.kernel_busy_ns + clock1.user_busy_ns)
        - (clock0.kernel_busy_ns + clock0.user_busy_ns);
    {
        let done = done.borrow();
        virt.lat_ns = (0..n)
            .map(|op| {
                if done.at_ns[op] != 0 && !done.failed[op] {
                    done.at_ns[op] - arrival_of[op]
                } else {
                    u64::MAX
                }
            })
            .collect();
        virt.failed = virt.lat_ns.iter().filter(|&&l| l == u64::MAX).count() as u64;
        if !done.mismatches.is_empty() {
            return Err(format!(
                "{} sectors read back differ from what was written (first: op {})",
                done.mismatches.len(),
                done.mismatches[0]
            ));
        }
    }
    let flash_writes = drv.dev.borrow().flash_writes() - writes0;
    let flash_reads = drv.dev.borrow().flash_reads() - reads0;
    check(&k, &drv, &stats0, virt.failed, flash_writes, n_sectors)?;
    virt.counters = counters(
        &k,
        &drv,
        &stats0,
        &clock0,
        &chan0,
        virt.ops,
        flash_writes,
        flash_reads,
    );
    let traced = match &tracer {
        Some(t) => layers::tracer_attribution(t, virt.ops, "URBs")?,
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

fn write_done(done: &Rc<RefCell<Done>>, op: usize) -> UrbCompletion {
    let done = Rc::clone(done);
    Rc::new(move |k: &Kernel, r| {
        let mut d = done.borrow_mut();
        d.at_ns[op] = k.now_ns();
        if r.is_err() {
            d.failed[op] = true;
        }
    })
}

fn stage_done(done: &Rc<RefCell<Done>>, op: usize) -> UrbCompletion {
    let done = Rc::clone(done);
    Rc::new(move |_: &Kernel, r| {
        if r.is_err() {
            done.borrow_mut().failed[op] = true;
        }
    })
}

fn read_done(done: &Rc<RefCell<Done>>, op: usize, expect: Rc<Vec<u8>>) -> UrbCompletion {
    let done = Rc::clone(done);
    Rc::new(move |k: &Kernel, r| {
        let mut d = done.borrow_mut();
        d.at_ns[op] = k.now_ns();
        match r {
            Ok(data) if data == *expect => {}
            Ok(_) => d.mismatches.push(op),
            Err(_) => d.failed[op] = true,
        }
    })
}

/// The output checks: every write reached the flash, nothing was
/// CPU-copied, the URB ledgers close and the pool is empty again.
fn check(
    k: &Kernel,
    drv: &ShardedUhci,
    stats0: &decaf_core::simkernel::kernel::KernelStats,
    failed: u64,
    flash_writes: u64,
    sectors: usize,
) -> Result<(), String> {
    if failed == 0 && flash_writes != sectors as u64 {
        return Err(format!(
            "flash saw {flash_writes} writes for {sectors} sectors"
        ));
    }
    let copied = k.stats().bytes_copied - stats0.bytes_copied;
    if copied != 0 {
        return Err(format!(
            "{copied} payload bytes CPU-copied on the zero-copy path"
        ));
    }
    if !drv.urb_path.conserved() || drv.urb_path.in_flight() != 0 {
        return Err(format!(
            "URB ledger open: {} in flight",
            drv.urb_path.in_flight()
        ));
    }
    let pool = drv.urb_path.set().pool();
    if pool.in_use_sectors() != 0 {
        return Err(format!("{} pool sectors leaked", pool.in_use_sectors()));
    }
    no_violations(k)
}

#[allow(clippy::too_many_arguments)]
fn counters(
    k: &Kernel,
    drv: &ShardedUhci,
    stats0: &decaf_core::simkernel::kernel::KernelStats,
    clock0: &decaf_core::simkernel::clock::ClockSnapshot,
    chan0: &decaf_core::xpc::ChannelStats,
    ops: u64,
    flash_writes: u64,
    flash_reads: u64,
) -> Vec<layers::Metric> {
    let mut c = PerOp::new(ops, "URBs");
    c.kernel(k, stats0, clock0);
    c.channel(&drv.channels.stats(), chan0);
    let set = drv.urb_path.set();
    let (mut posts, mut backpressure, mut hwm) = (0, 0, 0);
    for i in 0..set.shards() {
        for r in [set.submit_ring(i).stats(), set.giveback_ring(i).stats()] {
            posts += r.posts;
            backpressure += r.backpressure;
            hwm = hwm.max(r.occupancy_hwm);
        }
    }
    c.per_op("shmring.ring_posts_per_op", posts, "count/op");
    c.count(
        "shmring.ring_backpressure",
        backpressure,
        "count",
        "full-ring refusals, submit and giveback rings",
    );
    c.count(
        "shmring.ring_occupancy_hwm",
        hwm,
        "count",
        "highest occupancy of any submit or giveback ring",
    );
    let pool = set.pool().stats();
    c.per_op("shmring.pool_allocs_per_op", pool.allocs, "count/op");
    c.ratio(
        "shmring.pool_sectors_per_alloc",
        pool.sectors_allocated,
        pool.allocs,
        "sectors/alloc",
        "sector-pool allocations",
    );
    c.count(
        "shmring.pool_frag_refusals",
        pool.frag_refusals,
        "count",
        "allocations refused for fragmentation",
    );
    c.count(
        "shmring.pool_exhausted",
        pool.exhausted,
        "count",
        "allocations refused for lack of sectors",
    );
    c.count(
        "shmring.pool_in_use_hwm",
        pool.in_use_hwm,
        "count",
        "sector-pool high-water mark, sectors",
    );
    c.count(
        "shmring.urb_in_flight_hwm",
        set.stats().in_flight_hwm,
        "count",
        "URBs in flight at once, all shards",
    );
    c.count(
        "simdev.flash_writes",
        flash_writes,
        "count",
        "flash write commands",
    );
    c.count(
        "simdev.flash_reads",
        flash_reads,
        "count",
        "flash read commands",
    );
    c.count("simdev.nic_tx_frames", 0, "count", "no NIC");
    c.count("simdev.nic_rx_frames", 0, "count", "no NIC");
    c.count("slicer.slices", 1, "count", "loads that ran the slicer");
    c.done()
}
