//! Decaf E1000 builds: nucleus + user-level decaf driver over XPC.
//!
//! The split follows the DriverSlicer plan computed from
//! [`super::minic::SOURCE`]: interrupt handling and the transmit/receive
//! data path stay in the kernel ([`super::E1000Hw`]), while probe,
//! bring-up, watchdog and management logic run as decaf-driver handlers
//! at user level. The channel's XDR spec and field masks are the slicer's
//! generated artifacts, not hand-written ones.
//!
//! [`install`] is the paper's build: the data path stays in the nucleus.
//! [`install_sharded`] goes one step further and hosts the *data path*
//! at user level too, over `shards` async-transport XPC channels.
//! Transmit payloads are written once into a shared buffer pool carved
//! from the device's DMA region; 16-byte descriptors cross through
//! pinned SPSC rings; the decaf driver's drain handlers program the
//! hardware descriptor ring straight from the shared mapping (one TDT
//! write per batch); and received frames flow back the same way. Zero
//! payload bytes touch the XDR marshaler. The single-queue ring build is
//! `install_sharded(.., 1)`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use decaf_simdev::E1000Device;

use decaf_shmring::{BufHandle, BufPool, Descriptor, DoorbellPolicy, RingSet};
use decaf_simkernel::kernel::IrqHandler;
use decaf_simkernel::{CpuClass, KError, KResult, Kernel, SkBuff, TimerId};
use decaf_slicer::{slice, SliceConfig, SlicePlan};
use decaf_xdr::graph::CAddr;
use decaf_xdr::XdrValue;
use decaf_xpc::{
    ChannelConfig, DataPathChannel, Domain, NuclearRuntime, ProcDef, ShardPolicy, ShardedChannel,
    XpcChannel, MAX_SHARDS,
};

use super::{attach, E1000Hw, BUF_SIZE, IRQ_LINE, N_DESC, TX_BUF_OFF};
use crate::support::{self, decaf_readl, decaf_writel};
use decaf_simdev::e1000 as hwreg;

/// TX descriptors per doorbell at line rate (the batch a crossing is
/// amortized over when the ring fills faster than the coalescing
/// deadline).
pub const TX_DOORBELL_WATERMARK: usize = 8;

/// The installed decaf driver (kernel-resident data path).
pub struct DecafE1000 {
    /// Kernel handle.
    pub kernel: Kernel,
    /// Kernel-resident hardware state (the nucleus data path).
    pub hw: Rc<E1000Hw>,
    /// Interface name.
    pub ifname: String,
    /// The XPC channel between nucleus and decaf driver.
    pub channel: Rc<XpcChannel>,
    /// The nuclear runtime guarding upcalls.
    pub nuc: Rc<NuclearRuntime>,
    /// The shared adapter object (nucleus heap address).
    pub adapter: CAddr,
    /// Measured `insmod` latency (virtual ns).
    pub init_latency_ns: u64,
    /// The slicing plan this build implements.
    pub plan: SlicePlan,
    /// Handle to the device model (for traffic injection in workloads).
    pub dev: Rc<RefCell<E1000Device>>,
    watchdog: TimerId,
}

/// Loads the decaf driver (kernel-resident data path, batched control
/// paths — the `ChannelConfig::kernel_user_batched()` build).
pub fn install(kernel: &Kernel, ifname: &str) -> KResult<DecafE1000> {
    let (bar, dma, dev) = attach(kernel);
    let hw = Rc::new(E1000Hw::new(bar.clone(), dma));
    let plan = slice(super::minic::SOURCE, &SliceConfig::default()).map_err(|_| KError::Inval)?;
    let channel = support::channel_from_plan(&plan);
    support::register_io_procs(&channel, bar).map_err(|_| KError::Io)?;

    let hw_irq = Rc::clone(&hw);
    let name = ifname.to_string();
    let irq_handler: IrqHandler = Rc::new(move |k| {
        hw_irq.handle_irq(k, &name);
    });
    let hw_ops = Rc::clone(&hw);
    let xmit: decaf_simkernel::net::XmitOp = Rc::new(move |k, skb| hw_ops.xmit(k, &skb));

    register_nucleus_procs(kernel, &channel, &hw, irq_handler).map_err(|_| KError::Io)?;
    register_decaf_handlers(&channel).map_err(|_| KError::Io)?;

    let nuc = Rc::new(NuclearRuntime::new(
        kernel.clone(),
        Rc::clone(&channel),
        Some(IRQ_LINE),
    ));

    // insmod: allocate the shared adapter and run the user-level probe.
    let mut adapter = 0;
    let nuc_init = Rc::clone(&nuc);
    let ch_init = Rc::clone(&channel);
    let name_init = ifname.to_string();
    let plan_spec = plan.spec.clone();
    let adapter_ref = &mut adapter;
    let init_latency_ns = kernel.insmod("e1000_decaf", move |k| {
        let a = {
            let heap = ch_init.heap(Domain::Nucleus);
            let mut h = heap.borrow_mut();
            h.alloc_default("e1000_adapter", &plan_spec)
                .map_err(|_| KError::NoMem)?
        };
        *adapter_ref = a;
        let ret = nuc_init
            .upcall_errno("e1000_probe", &[Some(a)], &[])
            .map_err(|_| KError::Io)?;
        if ret < 0 {
            return Err(KError::from_errno(ret).unwrap_or(KError::Io));
        }
        // Register the netdevice: open/stop go through the decaf driver;
        // transmit stays in the nucleus.
        let nuc_open = Rc::clone(&nuc_init);
        let nuc_stop = Rc::clone(&nuc_init);
        k.register_netdev(
            &name_init,
            decaf_simkernel::net::NetDeviceOps {
                open: Rc::new(move |_k| {
                    match nuc_open.upcall_errno("e1000_open", &[Some(a)], &[]) {
                        Ok(0) => Ok(()),
                        Ok(e) => Err(KError::from_errno(e).unwrap_or(KError::Io)),
                        Err(_) => Err(KError::Io),
                    }
                }),
                stop: Rc::new(move |_k| {
                    match nuc_stop.upcall_errno("e1000_close", &[Some(a)], &[]) {
                        Ok(_) => Ok(()),
                        Err(_) => Err(KError::Io),
                    }
                }),
                xmit,
            },
        )?;
        Ok(())
    })?;

    // The watchdog timer fires at softirq priority, so it only enqueues a
    // work item; the work item (process context) makes the upcall
    // (paper §3.1.3).
    let nuc_wd = Rc::clone(&nuc);
    let ch_wd = Rc::clone(&channel);
    let name_wd = ifname.to_string();
    let watchdog = kernel.timer_create(
        "e1000_watchdog",
        Rc::new(move |k| {
            let nuc = Rc::clone(&nuc_wd);
            let ch = Rc::clone(&ch_wd);
            let name = name_wd.clone();
            let a = adapter;
            k.schedule_work("e1000_watchdog_task", move |k| {
                if nuc.upcall("e1000_watchdog_task", &[Some(a)], &[]).is_ok() {
                    // The decaf driver updated adapter->link_up; the nucleus
                    // mirrors it into the stack.
                    let heap = ch.heap(Domain::Nucleus);
                    let up = heap
                        .borrow()
                        .scalar(a, "link_up")
                        .ok()
                        .and_then(|v| v.as_int())
                        .unwrap_or(0);
                    k.netif_carrier(&name, up != 0);
                }
            });
        }),
    );
    kernel.timer_arm_periodic(watchdog, 2_000_000_000);

    Ok(DecafE1000 {
        kernel: kernel.clone(),
        hw,
        ifname: ifname.to_string(),
        channel,
        nuc,
        adapter,
        init_latency_ns,
        plan,
        dev,
        watchdog,
    })
}

impl DecafE1000 {
    /// Round trips between nucleus and decaf driver so far.
    pub fn crossings(&self) -> u64 {
        self.channel.stats().round_trips
    }

    /// Upcalls into the decaf driver so far.
    pub fn decaf_invocations(&self) -> u64 {
        self.nuc.decaf_invocations()
    }

    /// Unloads the driver.
    pub fn remove(self) {
        self.kernel.timer_del(self.watchdog);
        self.kernel.free_irq(IRQ_LINE);
        let ifname = self.ifname.clone();
        self.kernel
            .rmmod("e1000_decaf", move |k| k.unregister_netdev(&ifname));
    }
}

/// The sharded decaf driver: N parallel XPC channels behind a
/// [`ShardedChannel`] facade, with RSS-style per-shard TX/RX descriptor
/// rings ([`RingSet`]) feeding the one simulated device.
///
/// * **TX** — the netdev xmit op flow-hashes each frame to a shard,
///   writes the payload into the shared pool (one audited copy), posts a
///   descriptor into that shard's ring and rides that shard's doorbell;
///   the decaf-side drain of each shard programs the hardware ring from
///   the shared mapping. The IRQ-side completion is *steered back to the
///   posting shard* through the ring set's origin map.
/// * **RX** — harvested receive slots flow-hash to per-shard RX rings;
///   each shard's drain hands ownership back through its own completion
///   ring.
/// * **Control** — shard 0 is the control shard: the adapter object is
///   homed there, probe/open/watchdog upcalls ride its channel.
///
/// All data-path work is charged under [`Kernel::shard_scope`], so the
/// shards=1/2/4/8 ablation can report the parallel wall-clock estimate
/// (serial work + critical-path shard).
pub struct ShardedE1000 {
    /// Kernel handle.
    pub kernel: Kernel,
    /// Kernel-resident hardware state.
    pub hw: Rc<E1000Hw>,
    /// Interface name.
    pub ifname: String,
    /// The sharded channel facade (shard 0 is the control shard).
    pub channels: Rc<ShardedChannel>,
    /// The nuclear runtime guarding upcalls (control shard).
    pub nuc: Rc<NuclearRuntime>,
    /// The shared adapter object (homed on shard 0).
    pub adapter: CAddr,
    /// Measured `insmod` latency (virtual ns).
    pub init_latency_ns: u64,
    /// The slicing plan this build implements.
    pub plan: SlicePlan,
    /// Handle to the device model.
    pub dev: Rc<RefCell<E1000Device>>,
    /// Per-shard transmit data paths.
    pub tx_paths: Vec<Rc<DataPathChannel>>,
    /// Per-shard receive data paths.
    pub rx_paths: Vec<Rc<DataPathChannel>>,
    /// The TX ring set (flow steering + completion steering).
    pub tx_set: Rc<RingSet>,
    /// The RX ring set.
    pub rx_set: Rc<RingSet>,
    watchdog: TimerId,
    poll_timer: TimerId,
}

impl ShardedE1000 {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.channels.shard_count()
    }

    /// Aggregated round trips across every shard channel.
    pub fn crossings(&self) -> u64 {
        self.channels.stats().round_trips
    }

    /// Unloads the driver.
    pub fn remove(self) {
        self.kernel.timer_del(self.watchdog);
        self.kernel.timer_del(self.poll_timer);
        self.kernel.free_irq(IRQ_LINE);
        let ifname = self.ifname.clone();
        self.kernel
            .rmmod("e1000_decaf_sharded", move |k| k.unregister_netdev(&ifname));
    }
}

/// Loads the decaf driver with `shards` parallel channels and per-shard
/// shmring TX/RX queues — the multi-queue, multi-channel build. A shard
/// count outside `1..=MAX_SHARDS` is refused with [`KError::Inval`]
/// before the NIC is attached.
pub fn install_sharded(kernel: &Kernel, ifname: &str, shards: usize) -> KResult<ShardedE1000> {
    if !(1..=MAX_SHARDS).contains(&shards) {
        return Err(KError::Inval);
    }
    let (bar, dma, dev) = attach(kernel);
    let hw = Rc::new(E1000Hw::new(bar.clone(), dma));
    let plan = slice(super::minic::SOURCE, &SliceConfig::default()).map_err(|_| KError::Inval)?;
    // The sharded build rides the completion-based async transport:
    // per-shard doorbells *launch* rather than block, and the send-path
    // reclaim harvests them — crossing latency overlaps with posting.
    let channels = ShardedChannel::new(
        plan.spec.clone(),
        plan.masks.clone(),
        ChannelConfig::kernel_user_async(),
        Domain::Nucleus,
        Domain::Decaf,
        shards,
        ShardPolicy::FlowHash,
    );
    for i in 0..shards {
        support::register_io_procs(channels.shard(i), bar.clone()).map_err(|_| KError::Io)?;
        register_decaf_handlers(channels.shard(i)).map_err(|_| KError::Io)?;
    }

    // Per-shard rings and data paths over one shared DMA-resident pool.
    let tx_set = RingSet::new("e1000-tx", shards, N_DESC as usize, 2 * N_DESC as usize);
    let rx_set = RingSet::new("e1000-rx", shards, N_DESC as usize, 2 * N_DESC as usize);
    let pool = Rc::new(BufPool::new(
        hw.dma.clone(),
        TX_BUF_OFF,
        BUF_SIZE,
        N_DESC as usize,
    ));
    let mut tx_paths = Vec::with_capacity(shards);
    let mut rx_paths = Vec::with_capacity(shards);
    for i in 0..shards {
        tx_paths.push(
            DataPathChannel::new(
                Rc::clone(channels.shard(i)),
                Domain::Nucleus,
                "e1000_tx_drain",
                Rc::clone(tx_set.ring(i)),
                Rc::clone(tx_set.completions(i)),
                Some(Rc::clone(&pool)),
                DoorbellPolicy::with_watermark(TX_DOORBELL_WATERMARK),
            )
            .map_err(|_| KError::Io)?,
        );
        rx_paths.push(
            DataPathChannel::new(
                Rc::clone(channels.shard(i)),
                Domain::Nucleus,
                "e1000_rx_drain",
                Rc::clone(rx_set.ring(i)),
                Rc::clone(rx_set.completions(i)),
                None,
                DoorbellPolicy::with_watermark(N_DESC as usize),
            )
            .map_err(|_| KError::Io)?,
        );
    }

    // TX descriptors queued to hardware, awaiting the TXDW completion.
    let inflight: Rc<RefCell<VecDeque<Descriptor>>> = Rc::new(RefCell::new(VecDeque::new()));

    // Decaf-side drains, one pair per shard, each charged to its shard.
    for (i, (tx_path, rx_path)) in tx_paths.iter().zip(&rx_paths).enumerate() {
        let end = tx_path.end(Domain::Decaf);
        let pool = Rc::clone(&pool);
        let hw_drain = Rc::clone(&hw);
        let inflight_drain = Rc::clone(&inflight);
        let set = Rc::clone(&tx_set);
        channels
            .shard(i)
            .register_proc(
                Domain::Decaf,
                ProcDef {
                    name: "e1000_tx_drain".into(),
                    arg_types: vec![],
                    handler: Rc::new(move |k, _, _, _| {
                        k.shard_scope(i, || {
                            let drained = end.consume(k);
                            if drained.is_empty() {
                                return XdrValue::Int(0);
                            }
                            let mut queued = 0;
                            for d in &drained {
                                let off = pool.offset_of(d.buf).expect("live pool handle");
                                match hw_drain.xmit_desc(k, off, d.len as usize) {
                                    Ok(()) => {
                                        inflight_drain.borrow_mut().push_back(*d);
                                        queued += 1;
                                    }
                                    // A rejected frame is completed on the
                                    // spot — steered home like any other.
                                    Err(_) => {
                                        let _ = set.complete(k, CpuClass::User, *d);
                                    }
                                }
                            }
                            if queued > 0 {
                                hw_drain.tx_kick(k);
                            }
                            XdrValue::Int(queued)
                        })
                    }),
                },
            )
            .map_err(|_| KError::Io)?;

        let end = rx_path.end(Domain::Decaf);
        let set = Rc::clone(&rx_set);
        channels
            .shard(i)
            .register_proc(
                Domain::Decaf,
                ProcDef {
                    name: "e1000_rx_drain".into(),
                    arg_types: vec![],
                    handler: Rc::new(move |k, _, _, _| {
                        k.shard_scope(i, || {
                            let mut n = 0;
                            for d in end.consume(k) {
                                let _ = set.complete(k, CpuClass::User, d);
                                n += 1;
                            }
                            XdrValue::Int(n)
                        })
                    }),
                },
            )
            .map_err(|_| KError::Io)?;
    }

    // Nucleus IRQ handler: TX completions steer home through the ring
    // set; harvested RX slots flow-hash across the per-shard RX rings.
    let irq_handler: IrqHandler = {
        let hw = Rc::clone(&hw);
        let inflight = Rc::clone(&inflight);
        let tx_set = Rc::clone(&tx_set);
        let rx_set = Rc::clone(&rx_set);
        let rx_paths_irq = rx_paths.clone();
        let name = ifname.to_string();
        Rc::new(move |k| {
            let icr = hw.bar.read32(k, hwreg::ICR);
            if icr & hwreg::ICR_TXDW != 0 {
                let (mut pkts, mut bytes) = (0u64, 0u64);
                let done: Vec<Descriptor> = inflight.borrow_mut().drain(..).collect();
                for d in done {
                    pkts += 1;
                    bytes += d.len as u64;
                    // Completion steering: handback lands on the ring of
                    // the shard that posted the descriptor.
                    let _ = tx_set.complete(k, CpuClass::Kernel, d);
                }
                k.net_tx_done(&name, pkts, bytes);
            }
            if icr & hwreg::ICR_RXT0 != 0 {
                for (slot, len) in hw.rx_harvest(k) {
                    let shard = rx_set.steer(slot as u64);
                    let posted = rx_paths_irq[shard].post(
                        k,
                        Descriptor {
                            buf: BufHandle(slot),
                            len: len as u32,
                            cookie: slot as u64,
                        },
                    );
                    if posted.is_ok() {
                        rx_set.note_post(shard, slot as u64);
                    }
                }
                if rx_paths_irq.iter().any(|p| p.pending() > 0) {
                    let rx_paths_work = rx_paths_irq.clone();
                    let hw_work = Rc::clone(&hw);
                    let name_work = name.clone();
                    k.schedule_work("e1000_rx_drain_task", move |k| {
                        for (i, path) in rx_paths_work.iter().enumerate() {
                            k.shard_scope(i, || {
                                let _ = path.ring_doorbell(k);
                            });
                        }
                        let mut last = None;
                        for path in &rx_paths_work {
                            for d in path.reclaim_completions(k) {
                                // The decaf side wrote this completion:
                                // a slot or length outside the receive
                                // buffers is dropped, never dereferenced.
                                if d.cookie >= N_DESC as u64 || d.len as usize > BUF_SIZE {
                                    k.net_rx_dropped(&name_work);
                                    continue;
                                }
                                let slot = d.cookie as u32;
                                let data = hw_work
                                    .dma
                                    .read_bytes(E1000Hw::rx_buf_off(slot), d.len as usize);
                                let _ = k.netif_rx(
                                    &name_work,
                                    SkBuff {
                                        data,
                                        protocol: 0x0800,
                                    },
                                );
                                hw_work.rx_recycle(k, slot);
                                last = Some(slot);
                            }
                        }
                        if let Some(slot) = last {
                            hw_work.rx_kick(k, slot);
                        }
                    });
                }
            }
            if icr & hwreg::ICR_LSC != 0 {
                k.netif_carrier(&name, hw.link_up(k));
            }
        })
    };

    for i in 0..shards {
        register_nucleus_procs(kernel, channels.shard(i), &hw, Rc::clone(&irq_handler))
            .map_err(|_| KError::Io)?;
    }

    let nuc = Rc::new(NuclearRuntime::new(
        kernel.clone(),
        Rc::clone(channels.shard(0)),
        Some(IRQ_LINE),
    ));

    let xmit = support::sharded_xmit_op(Rc::clone(&tx_set), tx_paths.clone(), BUF_SIZE);

    // insmod: the adapter is homed on the control shard; probe runs there.
    let mut adapter = 0;
    let nuc_init = Rc::clone(&nuc);
    let channels_init = Rc::clone(&channels);
    let name_init = ifname.to_string();
    let adapter_ref = &mut adapter;
    let init_latency_ns = kernel.insmod("e1000_decaf_sharded", move |k| {
        let a = channels_init
            .alloc_shared_at(0, Domain::Nucleus, "e1000_adapter")
            .map_err(|_| KError::NoMem)?;
        *adapter_ref = a;
        let ret = nuc_init
            .upcall_errno("e1000_probe", &[Some(a)], &[])
            .map_err(|_| KError::Io)?;
        if ret < 0 {
            return Err(KError::from_errno(ret).unwrap_or(KError::Io));
        }
        let nuc_open = Rc::clone(&nuc_init);
        let nuc_stop = Rc::clone(&nuc_init);
        k.register_netdev(
            &name_init,
            decaf_simkernel::net::NetDeviceOps {
                open: Rc::new(move |_k| {
                    match nuc_open.upcall_errno("e1000_open", &[Some(a)], &[]) {
                        Ok(0) => Ok(()),
                        Ok(e) => Err(KError::from_errno(e).unwrap_or(KError::Io)),
                        Err(_) => Err(KError::Io),
                    }
                }),
                stop: Rc::new(move |_k| {
                    match nuc_stop.upcall_errno("e1000_close", &[Some(a)], &[]) {
                        Ok(_) => Ok(()),
                        Err(_) => Err(KError::Io),
                    }
                }),
                xmit,
            },
        )?;
        Ok(())
    })?;

    let nuc_wd = Rc::clone(&nuc);
    let channels_wd = Rc::clone(&channels);
    let name_wd = ifname.to_string();
    let watchdog = kernel.timer_create(
        "e1000_watchdog",
        Rc::new(move |k| {
            let nuc = Rc::clone(&nuc_wd);
            let channels = Rc::clone(&channels_wd);
            let name = name_wd.clone();
            let a = adapter;
            k.schedule_work("e1000_watchdog_task", move |k| {
                if nuc.upcall("e1000_watchdog_task", &[Some(a)], &[]).is_ok() {
                    let heap = channels.heap(0, Domain::Nucleus);
                    let up = heap
                        .borrow()
                        .scalar(a, "link_up")
                        .ok()
                        .and_then(|v| v.as_int())
                        .unwrap_or(0);
                    k.netif_carrier(&name, up != 0);
                }
            });
        }),
    );
    kernel.timer_arm_periodic(watchdog, 2_000_000_000);

    let poll_timer = support::tx_poll_timer(kernel, "e1000_shard_poll", &tx_paths);

    Ok(ShardedE1000 {
        kernel: kernel.clone(),
        hw,
        ifname: ifname.to_string(),
        channels,
        nuc,
        adapter,
        init_latency_ns,
        plan,
        dev,
        tx_paths,
        rx_paths,
        tx_set,
        rx_set,
        watchdog,
        poll_timer,
    })
}

/// Kernel procedures the decaf driver calls down into. These correspond
/// to the slicer's `kernel_entry_points` and `kernel_imports_from_user`.
/// `irq_handler` is what `request_irq` installs — the kernel-resident
/// data path for [`install`], the ring-posting handler for
/// [`install_sharded`].
fn register_nucleus_procs(
    kernel: &Kernel,
    channel: &Rc<XpcChannel>,
    hw: &Rc<E1000Hw>,
    irq_handler: IrqHandler,
) -> decaf_xpc::XpcResult<()> {
    type ScalarFn = Rc<dyn Fn(&Kernel, &[XdrValue]) -> XdrValue>;
    let scalar_proc = |name: &str, f: ScalarFn| ProcDef {
        name: name.into(),
        arg_types: vec![],
        handler: Rc::new(move |k, _, _, scalars| f(k, scalars)),
    };

    let h = Rc::clone(hw);
    channel.register_proc(
        Domain::Nucleus,
        scalar_proc(
            "eeprom_read",
            Rc::new(move |k, s| {
                XdrValue::UInt(h.eeprom_read(k, s[0].as_uint().unwrap_or(0)) as u32)
            }),
        ),
    )?;
    let h = Rc::clone(hw);
    channel.register_proc(
        Domain::Nucleus,
        scalar_proc(
            "phy_read",
            Rc::new(move |k, s| XdrValue::UInt(h.phy_read(k, s[0].as_uint().unwrap_or(0)) as u32)),
        ),
    )?;
    let h = Rc::clone(hw);
    channel.register_proc(
        Domain::Nucleus,
        scalar_proc(
            "phy_write",
            Rc::new(move |k, s| {
                h.phy_write(
                    k,
                    s[0].as_uint().unwrap_or(0),
                    s[1].as_uint().unwrap_or(0) as u16,
                );
                XdrValue::Int(0)
            }),
        ),
    )?;
    let h = Rc::clone(hw);
    channel.register_proc(
        Domain::Nucleus,
        scalar_proc(
            "setup_tx_resources",
            Rc::new(move |k, _| support::errno_value(h.setup_tx(k))),
        ),
    )?;
    let h = Rc::clone(hw);
    channel.register_proc(
        Domain::Nucleus,
        scalar_proc(
            "setup_rx_resources",
            Rc::new(move |k, _| support::errno_value(h.setup_rx(k))),
        ),
    )?;
    let h = Rc::clone(hw);
    channel.register_proc(
        Domain::Nucleus,
        scalar_proc(
            "free_tx_resources",
            Rc::new(move |k, _| {
                h.down(k);
                XdrValue::Int(0)
            }),
        ),
    )?;
    let h = Rc::clone(hw);
    channel.register_proc(
        Domain::Nucleus,
        scalar_proc(
            "free_rx_resources",
            Rc::new(move |k, _| {
                h.down(k);
                XdrValue::Int(0)
            }),
        ),
    )?;
    let k_handle = kernel.clone();
    channel.register_proc(
        Domain::Nucleus,
        scalar_proc(
            "request_irq",
            Rc::new(move |_k, _| {
                support::errno_value(k_handle.request_irq(
                    IRQ_LINE,
                    "e1000_decaf",
                    Rc::clone(&irq_handler),
                ))
            }),
        ),
    )?;
    let k_handle = kernel.clone();
    channel.register_proc(
        Domain::Nucleus,
        scalar_proc(
            "free_irq",
            Rc::new(move |_k, _| {
                k_handle.free_irq(IRQ_LINE);
                XdrValue::Int(0)
            }),
        ),
    )?;
    let h = Rc::clone(hw);
    channel.register_proc(
        Domain::Nucleus,
        scalar_proc(
            "up_datapath",
            Rc::new(move |k, _| {
                h.up(k);
                XdrValue::Int(0)
            }),
        ),
    )?;
    let h = Rc::clone(hw);
    channel.register_proc(
        Domain::Nucleus,
        scalar_proc(
            "down_datapath",
            Rc::new(move |k, _| {
                h.down(k);
                XdrValue::Int(0)
            }),
        ),
    )?;
    Ok(())
}

/// Sets an embedded-struct member (`adapter->hw.<member>`) on the decaf
/// heap copy of the adapter.
fn set_hw_member(ch: &XpcChannel, adapter: CAddr, member: &str, value: XdrValue) {
    let heap = ch.heap(Domain::Decaf);
    let mut h = heap.borrow_mut();
    if let Ok(mut hw_val) = h.scalar(adapter, "hw").cloned() {
        hw_val.set_field(member, value);
        let _ = h.set_scalar(adapter, "hw", hw_val);
    }
}

fn set_field(ch: &XpcChannel, adapter: CAddr, field: &str, value: XdrValue) {
    let heap = ch.heap(Domain::Decaf);
    let _ = heap.borrow_mut().set_scalar(adapter, field, value);
}

fn get_int(ch: &XpcChannel, adapter: CAddr, field: &str) -> i32 {
    let heap = ch.heap(Domain::Decaf);
    let v = heap.borrow().scalar(adapter, field).ok().cloned();
    v.and_then(|v| v.as_int()).unwrap_or(0)
}

/// User-level decaf-driver handlers: the converted Java (here: safe Rust)
/// implementations of the user partition.
fn register_decaf_handlers(channel: &Rc<XpcChannel>) -> decaf_xpc::XpcResult<()> {
    // e1000_probe: sw_init + check_options + EEPROM + reset + link setup,
    // mirroring the mini-C bodies.
    channel.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "e1000_probe".into(),
            arg_types: vec!["e1000_adapter".into()],
            handler: Rc::new(|k, ch, args, _| {
                let a = match args[0] {
                    Some(a) => a,
                    None => return XdrValue::Int(KError::Inval.errno()),
                };
                // e1000_sw_init.
                set_field(ch, a, "msg_enable", XdrValue::Int(3));
                set_field(ch, a, "itr", XdrValue::Int(8000));
                set_field(ch, a, "rx_csum", XdrValue::Int(1));
                set_hw_member(ch, a, "mac_type", XdrValue::Int(5));
                set_hw_member(ch, a, "media_type", XdrValue::Int(1));
                set_hw_member(ch, a, "autoneg", XdrValue::Int(1));
                // e1000_check_options: range/set-membership validation.
                set_field(ch, a, "speed", XdrValue::Int(1000));
                set_field(ch, a, "duplex", XdrValue::Int(1));
                // e1000_init_eeprom: MAC + checksum through downcalls.
                let mut mac = [0u8; 6];
                for w in 0..3u32 {
                    let word = ch
                        .call(k, Domain::Decaf, "eeprom_read", &[], &[XdrValue::UInt(w)])
                        .ok()
                        .and_then(|v| v.as_uint())
                        .unwrap_or(0) as u16;
                    mac[w as usize * 2] = (word & 0xff) as u8;
                    mac[w as usize * 2 + 1] = (word >> 8) as u8;
                }
                let _checksum = ch
                    .call(k, Domain::Decaf, "eeprom_read", &[], &[XdrValue::UInt(63)])
                    .ok();
                set_field(ch, a, "mac", XdrValue::Opaque(mac.to_vec()));
                set_hw_member(ch, a, "fc_mode", XdrValue::Int(3));
                // e1000_reset_hw_decaf.
                decaf_writel(k, ch, hwreg::CTRL, hwreg::CTRL_RST);
                let _ = decaf_readl(k, ch, hwreg::STATUS);
                decaf_writel(k, ch, hwreg::IMC, 0xffff_ffff);
                let _ = decaf_readl(k, ch, hwreg::ICR);
                // Save PCI config space (the @exp(PCI_LEN) array exists
                // for this path).
                for w in 0..8u64 {
                    let _ = decaf_readl(k, ch, w * 4);
                }
                // e1000_setup_link + the Figure 5 DSP sequence.
                let phy_read = |k: &Kernel, reg: u32| {
                    ch.call(k, Domain::Decaf, "phy_read", &[], &[XdrValue::UInt(reg)])
                        .ok()
                        .and_then(|v| v.as_uint())
                        .unwrap_or(0)
                };
                // PHY writes are posted: defer them so a whole DSP
                // programming sequence crosses in one batched flush.
                let phy_write = |k: &Kernel, reg: u32, val: u32| {
                    let _ = ch.call_deferred(
                        k,
                        Domain::Decaf,
                        "phy_write",
                        &[],
                        &[XdrValue::UInt(reg), XdrValue::UInt(val)],
                    );
                };
                let _ctrl = phy_read(k, 0);
                phy_write(k, 0, 0x1140);
                phy_write(k, 4, 0x0de0);
                phy_write(k, 9, 0x0300);
                let _status = phy_read(k, 1);
                for (reg, val) in [
                    (29u32, 0x001f_u32),
                    (30, 0x0646),
                    (29, 0x001b),
                    (30, 0x8fae),
                ] {
                    phy_write(k, reg, val);
                }
                let _ = phy_read(k, 30);
                XdrValue::Int(0)
            }),
        },
    )?;

    // e1000_open: the Figure 4 function. Result-based staged cleanup —
    // the Rust rendition of the nested exception handlers.
    channel.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "e1000_open".into(),
            arg_types: vec!["e1000_adapter".into()],
            handler: Rc::new(|k, ch, args, _| {
                let a = match args[0] {
                    Some(a) => a,
                    None => return XdrValue::Int(KError::Inval.errno()),
                };
                let down = |k: &Kernel, proc: &str| -> Result<(), i32> {
                    match ch.call(k, Domain::Decaf, proc, &[], &[]) {
                        Ok(XdrValue::Int(0)) => Ok(()),
                        Ok(XdrValue::Int(e)) => Err(e),
                        _ => Err(KError::Io.errno()),
                    }
                };
                // Stage 1: transmit resources.
                if let Err(e) = down(k, "setup_tx_resources") {
                    let _ = down(k, "down_datapath"); // e1000_reset
                    return XdrValue::Int(e);
                }
                // Stage 2: receive resources; on failure free stage 1.
                if let Err(e) = down(k, "setup_rx_resources") {
                    let _ = down(k, "free_tx_resources");
                    return XdrValue::Int(e);
                }
                // Stage 3: the interrupt line; on failure free stages 1-2.
                if let Err(e) = down(k, "request_irq") {
                    let _ = down(k, "free_rx_resources");
                    let _ = down(k, "free_tx_resources");
                    return XdrValue::Int(e);
                }
                // Power up the PHY and start the data path.
                let _ = ch.call(k, Domain::Decaf, "phy_read", &[], &[XdrValue::UInt(0)]);
                let _ = ch.call_deferred(
                    k,
                    Domain::Decaf,
                    "phy_write",
                    &[],
                    &[XdrValue::UInt(0), XdrValue::UInt(0x1000)],
                );
                if let Err(e) = down(k, "up_datapath") {
                    let _ = down(k, "free_irq");
                    let _ = down(k, "free_rx_resources");
                    let _ = down(k, "free_tx_resources");
                    return XdrValue::Int(e);
                }
                set_field(ch, a, "link_up", XdrValue::Int(1));
                XdrValue::Int(0)
            }),
        },
    )?;

    channel.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "e1000_close".into(),
            arg_types: vec!["e1000_adapter".into()],
            handler: Rc::new(|k, ch, args, _| {
                if let Some(a) = args[0] {
                    set_field(ch, a, "link_up", XdrValue::Int(0));
                }
                let _ = ch.call(k, Domain::Decaf, "down_datapath", &[], &[]);
                let _ = ch.call(k, Domain::Decaf, "free_irq", &[], &[]);
                XdrValue::Int(0)
            }),
        },
    )?;

    channel.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "e1000_watchdog_task".into(),
            arg_types: vec!["e1000_adapter".into()],
            handler: Rc::new(|k, ch, args, _| {
                let a = match args[0] {
                    Some(a) => a,
                    None => return XdrValue::Int(KError::Inval.errno()),
                };
                let status = decaf_readl(k, ch, hwreg::STATUS);
                let up = status & hwreg::STATUS_LU != 0;
                set_field(ch, a, "link_up", XdrValue::Int(up as i32));
                let events = get_int(ch, a, "watchdog_events");
                set_field(ch, a, "watchdog_events", XdrValue::Int(events + 1));
                XdrValue::Int(0)
            }),
        },
    )?;

    // Management paths (ethtool get/set analogues).
    channel.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "e1000_get_settings".into(),
            arg_types: vec!["e1000_adapter".into()],
            handler: Rc::new(|_k, ch, args, _| {
                let a = match args[0] {
                    Some(a) => a,
                    None => return XdrValue::Int(0),
                };
                XdrValue::Int(get_int(ch, a, "speed"))
            }),
        },
    )?;
    channel.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "e1000_set_settings".into(),
            arg_types: vec!["e1000_adapter".into()],
            handler: Rc::new(|k, ch, args, scalars| {
                let a = match args[0] {
                    Some(a) => a,
                    None => return XdrValue::Int(KError::Inval.errno()),
                };
                let speed = scalars.first().and_then(|v| v.as_int()).unwrap_or(1000);
                set_field(ch, a, "speed", XdrValue::Int(speed));
                decaf_writel(k, ch, hwreg::CTRL, hwreg::CTRL_RST);
                XdrValue::Int(0)
            }),
        },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use decaf_simkernel::SkBuff;

    #[test]
    fn install_probes_through_xpc() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        assert!(drv.init_latency_ns > 0);
        // Initialization crossed the boundary dozens of times.
        let crossings = drv.crossings();
        assert!(
            (20..300).contains(&crossings),
            "expected tens of crossings during init, got {crossings}"
        );
        // The decaf driver populated the shared adapter: the nucleus can
        // read back the MAC the user-level code assembled.
        let heap = drv.channel.heap(Domain::Nucleus);
        let mac = heap.borrow().scalar(drv.adapter, "mac").unwrap().clone();
        assert_eq!(mac.as_opaque().unwrap(), super::super::MAC);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn open_then_traffic_stays_in_kernel() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let crossings_after_open = drv.crossings();
        for _ in 0..20 {
            k.net_xmit("eth0", SkBuff::synthetic(1400, 9, 0x0800))
                .unwrap();
            k.schedule_point();
        }
        let st = k.net_stats("eth0");
        assert_eq!(st.tx_packets, 20);
        assert_eq!(st.rx_packets, 20);
        assert_eq!(
            drv.crossings(),
            crossings_after_open,
            "the data path must not touch the decaf driver"
        );
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn watchdog_upcalls_every_two_seconds() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        k.netdev_open("eth0").unwrap();
        let invocations_before = drv.decaf_invocations();
        k.run_for(6_500_000_000);
        let delta = drv.decaf_invocations() - invocations_before;
        assert_eq!(delta, 3, "one upcall per 2 s watchdog period");
        assert!(k.carrier_ok("eth0"));
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn open_failure_runs_staged_cleanup() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        // Occupy the IRQ line so the decaf driver's request_irq fails.
        k.request_irq(IRQ_LINE, "squatter", Rc::new(|_| {}))
            .unwrap();
        let err = k.netdev_open("eth0").unwrap_err();
        assert_eq!(err, KError::Busy);
        // The adapter must not report link-up after the failed open.
        let heap = drv.channel.heap(Domain::Nucleus);
        let up = heap
            .borrow()
            .scalar(drv.adapter, "link_up")
            .unwrap()
            .as_int();
        assert_eq!(up, Some(0));
    }

    #[test]
    fn shmring_build_moves_packets_with_zero_marshaled_payload() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "eth0", 1).unwrap();
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let before = drv.channels.stats();
        let copied_before = k.stats().bytes_copied;
        for i in 0..32 {
            k.net_xmit("eth0", SkBuff::synthetic(1400, i as u8, 0x0800))
                .unwrap();
            k.schedule_point();
            k.run_for(200_000);
        }
        k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
        let st = k.net_stats("eth0");
        assert_eq!(st.tx_packets, 32, "all frames transmitted through the ring");
        assert_eq!(
            st.rx_packets, 32,
            "loopback frames received through the ring"
        );
        let after = drv.channels.stats();
        // The data path crossed (descriptors + doorbells), but zero
        // payload bytes went through the XDR marshaler: the per-doorbell
        // wire cost is a handful of header bytes, independent of the
        // 1400-byte payloads.
        let marshaled = (after.bytes_in + after.bytes_out) - (before.bytes_in + before.bytes_out);
        assert!(
            marshaled < 32 * 64,
            "marshaled {marshaled} B for 44800 payload B — payload leaked into the marshaler"
        );
        assert_eq!(
            after.ring_posts - before.ring_posts,
            64,
            "one TX and one RX descriptor per packet"
        );
        assert!(after.doorbells > before.doorbells);
        assert!(after.ring_occupancy_hwm >= 1);
        // Copy audit: exactly one copy into the pool and one into the
        // stack per packet — same as the native build.
        assert_eq!(k.stats().bytes_copied - copied_before, 2 * 32 * 1400);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn shmring_marshaled_bytes_independent_of_payload_size() {
        // The zero-copy proof: run the same packet count at two payload
        // sizes; the marshaled-byte counters must come out identical.
        let run = |pkt_len: usize| {
            let k = Kernel::new();
            let drv = install_sharded(&k, "eth0", 1).unwrap();
            k.netdev_open("eth0").unwrap();
            k.schedule_point();
            let before = drv.channels.stats();
            for _ in 0..TX_DOORBELL_WATERMARK * 2 {
                k.net_xmit("eth0", SkBuff::synthetic(pkt_len, 7, 0x0800))
                    .unwrap();
            }
            k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
            let after = drv.channels.stats();
            (
                after.bytes_in - before.bytes_in,
                after.bytes_out - before.bytes_out,
            )
        };
        assert_eq!(run(64), run(1500), "payload size must not reach the wire");
    }

    #[test]
    fn shmring_batches_descriptors_per_doorbell_at_line_rate() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "eth0", 1).unwrap();
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let before = drv.channels.stats();
        // Back-to-back sends (no virtual time between them): the
        // watermark, not the deadline, should trigger the doorbells.
        for _ in 0..TX_DOORBELL_WATERMARK * 4 {
            k.net_xmit("eth0", SkBuff::synthetic(1000, 1, 0x0800))
                .unwrap();
        }
        let after = drv.channels.stats();
        let tx_doorbells = after.doorbells - before.doorbells;
        assert_eq!(tx_doorbells, 4, "one doorbell per watermark batch");
        assert_eq!(
            after.ring_occupancy_hwm as usize, TX_DOORBELL_WATERMARK,
            "ring fills to the watermark between doorbells"
        );
    }

    #[test]
    fn sharded_build_moves_packets_across_per_shard_rings() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "eth0", 4).unwrap();
        assert_eq!(drv.shards(), 4);
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let before = drv.channels.stats();
        for i in 0..48u64 {
            k.net_xmit("eth0", SkBuff::synthetic(1200, i as u8, 0x0800))
                .unwrap();
            k.schedule_point();
            k.run_for(100_000);
        }
        k.run_for(4 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
        let st = k.net_stats("eth0");
        assert_eq!(st.tx_packets, 48, "all frames transmitted");
        assert_eq!(st.rx_packets, 48, "loopback frames received");
        // Flow steering spread the frames: at least two TX shards and at
        // least two shard channels saw traffic.
        let tx_rings_used = (0..4)
            .filter(|&i| drv.tx_set.ring(i).stats().posts > 0)
            .count();
        assert!(
            tx_rings_used >= 2,
            "frames stuck on {tx_rings_used} ring(s)"
        );
        // Descriptor conservation: everything posted was completed and
        // steered home; nothing in flight once quiesced.
        assert!(drv.tx_set.conserved());
        assert!(drv.rx_set.conserved());
        assert_eq!(drv.tx_set.in_flight(), 0, "{:?}", drv.tx_set.stats());
        assert_eq!(drv.rx_set.in_flight(), 0, "{:?}", drv.rx_set.stats());
        assert_eq!(drv.tx_set.stats().posted, 48);
        // Zero payload bytes through the marshaler.
        let after = drv.channels.stats();
        let marshaled = (after.bytes_in + after.bytes_out) - (before.bytes_in + before.bytes_out);
        assert!(marshaled < 48 * 64, "payload leaked into the marshaler");
        // Per-shard cost accounting saw parallel work.
        let busy = k.shard_busy_ns();
        assert!(
            busy.iter().filter(|&&ns| ns > 0).count() >= 2,
            "expected work on ≥2 shards: {busy:?}"
        );
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn sharded_build_with_one_shard_matches_native_copy_audit() {
        // shards=1 hosts the data path at user level yet must copy
        // exactly like the native build: one copy into the pool, one
        // into the stack per packet.
        const PKTS: u64 = 20;
        const LEN: usize = 1000;
        let run = |sharded: bool| {
            let k = Kernel::new();
            if sharded {
                install_sharded(&k, "eth0", 1).map(|_| ()).unwrap();
            } else {
                super::super::native::install(&k, "eth0")
                    .map(|_| ())
                    .unwrap();
            }
            k.netdev_open("eth0").unwrap();
            k.schedule_point();
            let before = k.stats().bytes_copied;
            for i in 0..PKTS {
                k.net_xmit("eth0", SkBuff::synthetic(LEN, i as u8, 0x0800))
                    .unwrap();
                k.schedule_point();
                k.run_for(200_000);
            }
            k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
            assert_eq!(k.net_stats("eth0").tx_packets, PKTS);
            k.stats().bytes_copied - before
        };
        assert_eq!(run(true), run(false), "copy audit must not regress");
    }

    #[test]
    fn forged_rx_completions_are_dropped_not_dereferenced() {
        // The decaf side writes the RX completion ring. Completions whose
        // slot or length lie outside the receive buffers must be dropped
        // and counted, not read from DMA memory.
        const PKTS: u64 = 8;
        let k = Kernel::new();
        let drv = install_sharded(&k, "eth0", 1).unwrap();
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        let forged = [
            (0, 1 << 30),
            (1 << 20, 64),
            // Truncates to slot 0 if narrowed before the check.
            (1 << 32, 64),
        ];
        for (cookie, len) in forged {
            let d = Descriptor {
                buf: BufHandle(0),
                len,
                cookie,
            };
            drv.rx_set
                .completions(0)
                .push(&k, CpuClass::User, d)
                .unwrap();
        }
        for i in 0..PKTS {
            k.net_xmit("eth0", SkBuff::synthetic(600, i as u8, 0x0800))
                .unwrap();
            k.schedule_point();
            k.run_for(200_000);
        }
        k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
        let st = k.net_stats("eth0");
        assert_eq!(st.tx_packets, PKTS);
        assert_eq!(st.rx_packets, PKTS, "every real frame still delivered");
        assert_eq!(st.rx_dropped, forged.len() as u64);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn install_sharded_refuses_out_of_range_shard_counts() {
        // An out-of-range count is an error the caller can handle, and it
        // is refused before the NIC is attached.
        let k = Kernel::new();
        for shards in [0, MAX_SHARDS + 1] {
            assert!(
                matches!(install_sharded(&k, "eth0", shards), Err(KError::Inval)),
                "shards={shards}"
            );
        }
        assert!(k.pci_devices().is_empty(), "refused before attach");
        let drv = install_sharded(&k, "eth0", 1).unwrap();
        assert_eq!(drv.shards(), 1);
    }

    #[test]
    fn sharded_probe_and_watchdog_ride_the_control_shard() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "eth0", 4).unwrap();
        assert!(drv.init_latency_ns > 0);
        // The decaf driver populated the shared adapter on shard 0.
        let heap = drv.channels.heap(0, Domain::Nucleus);
        let mac = heap.borrow().scalar(drv.adapter, "mac").unwrap().clone();
        assert_eq!(mac.as_opaque().unwrap(), super::super::MAC);
        assert_eq!(drv.channels.home_of(drv.adapter), Some(0));
        // Control traffic lands on shard 0 only.
        assert!(drv.channels.shard_stats(0).round_trips > 0);
        for i in 1..4 {
            assert_eq!(
                drv.channels.shard_stats(i).round_trips,
                0,
                "shard {i} saw control traffic"
            );
        }
        k.netdev_open("eth0").unwrap();
        k.run_for(4_500_000_000);
        assert!(k.carrier_ok("eth0"));
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }

    #[test]
    fn runtime_split_matches_slicer_plan() {
        let k = Kernel::new();
        let drv = install(&k, "eth0").unwrap();
        // Every decaf-registered proc must be a user-partition function in
        // the plan; nucleus procs must not be decaf functions.
        for proc in drv.channel.proc_names(Domain::Decaf) {
            assert!(
                drv.plan.decaf_fns.contains(&proc),
                "`{proc}` is registered decaf but the slicer placed it elsewhere"
            );
        }
        for proc in drv.channel.proc_names(Domain::Nucleus) {
            assert!(
                !drv.plan.decaf_fns.contains(&proc),
                "`{proc}` is registered in the nucleus but sliced to decaf"
            );
        }
    }

    #[test]
    fn sharded_async_transport_overlaps_doorbell_crossings() {
        let k = Kernel::new();
        let drv = install_sharded(&k, "eth0", 4).unwrap();
        assert_eq!(
            drv.channels.shard(0).transport_kind(),
            decaf_xpc::TransportKind::Async
        );
        k.netdev_open("eth0").unwrap();
        k.schedule_point();
        for i in 0..48u64 {
            k.net_xmit("eth0", SkBuff::synthetic(900, i as u8, 0x0800))
                .unwrap();
            k.schedule_point();
            k.run_for(150_000);
        }
        k.run_for(2 * decaf_simkernel::costs::DOORBELL_COALESCE_NS);
        drv.channels.flush_all(&k).unwrap();
        drv.channels.harvest_all(&k);
        let s = drv.channels.stats();
        assert!(s.tokens_issued > 0, "doorbells launched through tokens");
        assert!(
            s.overlap_ns > 0,
            "posting must overlap launched crossings: {s:?}"
        );
        assert_eq!(
            s.tokens_issued,
            s.tokens_harvested + s.tokens_cancelled,
            "token conservation"
        );
        assert_eq!(drv.channels.tokens_outstanding(), 0);
        assert!(k.violations().is_empty(), "{:?}", k.violations());
    }
}
