//! Criterion microbenchmarks: the mechanisms behind Table 3's costs,
//! plus the ablations DESIGN.md calls out (field-selective vs full
//! marshaling, thread-reuse vs thread-handoff transport, combolock vs
//! always-semaphore).
//!
//! Run via `cargo bench -p decaf-bench --bench micro`.

use std::rc::Rc;

use criterion::{criterion_group, criterion_main, Criterion};
use decaf_core::simkernel::Kernel;
use decaf_core::xdr::graph::{self, NullTracker, ObjHeap};
use decaf_core::xdr::mask::{Access, Direction, FieldMask, MaskSet};
use decaf_core::xdr::{codec, XdrSpec, XdrType, XdrValue};
use decaf_core::xpc::{ChannelConfig, Combolock, Domain, ProcDef, TransportKind, XpcChannel};

fn adapter_spec() -> XdrSpec {
    XdrSpec::parse(
        "struct ring { int count; int next; opaque pad[32]; };\n\
         struct adapter { int msg_enable; int link_up; int speed; hyper stats; \
         opaque mac[6]; struct ring *tx; struct ring *rx; };",
    )
    .unwrap()
}

fn build_heap(spec: &XdrSpec) -> (ObjHeap, u64) {
    let mut heap = ObjHeap::new();
    let tx = heap.alloc_default("ring", spec).unwrap();
    let rx = heap.alloc_default("ring", spec).unwrap();
    let a = heap.alloc_default("adapter", spec).unwrap();
    heap.set_ptr(a, "tx", Some(tx)).unwrap();
    heap.set_ptr(a, "rx", Some(rx)).unwrap();
    heap.set_scalar(a, "stats", XdrValue::Hyper(123_456))
        .unwrap();
    (heap, a)
}

fn bench_xdr_codec(c: &mut Criterion) {
    let spec = adapter_spec();
    let ty = XdrType::Struct("adapter".into());
    let value = graph::default_value(&ty, &spec).unwrap();
    let bytes = codec::encode(&value, &ty, &spec).unwrap();
    c.bench_function("xdr/encode_adapter", |b| {
        b.iter(|| codec::encode(&value, &ty, &spec).unwrap())
    });
    c.bench_function("xdr/decode_adapter", |b| {
        b.iter(|| codec::decode(&bytes, &ty, &spec).unwrap())
    });
}

fn bench_graph_marshal(c: &mut Criterion) {
    let spec = adapter_spec();
    let (heap, a) = build_heap(&spec);
    c.bench_function("xdr/marshal_graph_full", |b| {
        b.iter(|| {
            graph::marshal_graph(&heap, Some(a), &spec, &MaskSet::full(), Direction::In).unwrap()
        })
    });
    // Ablation: field-selective masks vs full-struct copies.
    let mut masks = MaskSet::selective();
    let mut m = FieldMask::new();
    m.record("msg_enable", Access::ReadWrite);
    m.record("link_up", Access::Write);
    masks.insert("adapter", m);
    c.bench_function("xdr/marshal_graph_selective", |b| {
        b.iter(|| graph::marshal_graph(&heap, Some(a), &spec, &masks, Direction::In).unwrap())
    });
    let bytes =
        graph::marshal_graph(&heap, Some(a), &spec, &MaskSet::full(), Direction::In).unwrap();
    c.bench_function("xdr/unmarshal_graph_fresh", |b| {
        b.iter(|| {
            let mut dst = ObjHeap::with_base(0x9000_0000);
            graph::unmarshal_graph(
                &bytes,
                "adapter",
                &mut dst,
                &spec,
                &MaskSet::full(),
                Direction::In,
                &mut NullTracker,
            )
            .unwrap()
        })
    });
}

fn channel(config: ChannelConfig) -> (Kernel, XpcChannel, u64) {
    let kernel = Kernel::new();
    let ch = XpcChannel::new(
        adapter_spec(),
        MaskSet::full(),
        config,
        Domain::Nucleus,
        Domain::Decaf,
    );
    ch.register_proc(
        Domain::Decaf,
        ProcDef {
            name: "touch".into(),
            arg_types: vec!["adapter".into()],
            handler: Rc::new(|_, _, _, _| XdrValue::Int(0)),
        },
    )
    .unwrap();
    let a = {
        let heap = ch.heap(Domain::Nucleus);
        let spec = adapter_spec();
        let mut h = heap.borrow_mut();
        let tx = h.alloc_default("ring", &spec).unwrap();
        let a = h.alloc_default("adapter", &spec).unwrap();
        h.set_ptr(a, "tx", Some(tx)).unwrap();
        a
    };
    (kernel, ch, a)
}

fn bench_xpc_call(c: &mut Criterion) {
    // Ablation: thread-reuse (InProc) vs dedicated-thread handoff.
    let (kernel, ch, a) = channel(ChannelConfig::kernel_user());
    c.bench_function("xpc/roundtrip_inproc", |b| {
        b.iter(|| {
            ch.call(&kernel, Domain::Nucleus, "touch", &[Some(a)], &[])
                .unwrap()
        })
    });
    let (kernel, ch, a) = channel(ChannelConfig {
        transport: TransportKind::Threaded,
        ..ChannelConfig::kernel_user()
    });
    c.bench_function("xpc/roundtrip_threaded_model", |b| {
        b.iter(|| {
            ch.call(&kernel, Domain::Nucleus, "touch", &[Some(a)], &[])
                .unwrap()
        })
    });
    // Cross-language conversion off: the kernel/user-only path.
    let (kernel, ch, a) = channel(ChannelConfig {
        cross_language: false,
        ..ChannelConfig::kernel_user()
    });
    c.bench_function("xpc/roundtrip_no_crosslang", |b| {
        b.iter(|| {
            ch.call(&kernel, Domain::Nucleus, "touch", &[Some(a)], &[])
                .unwrap()
        })
    });
}

fn bench_shmring(c: &mut Criterion) {
    use decaf_core::shmring::{BufPool, Descriptor, ShmRing};
    use decaf_core::simkernel::CpuClass;

    // The raw ring protocol: post + consume, the per-descriptor cost
    // that replaces per-byte marshaling on the data path.
    let kernel = Kernel::new();
    let ring = ShmRing::new("bench", 64);
    let pool = BufPool::with_capacity(2048, 64);
    c.bench_function("shmring/push_pop", |b| {
        b.iter(|| {
            ring.push(
                &kernel,
                CpuClass::Kernel,
                Descriptor {
                    buf: decaf_core::shmring::BufHandle(0),
                    len: 1500,
                    cookie: 0,
                },
            )
            .unwrap();
            ring.pop(&kernel, CpuClass::User).unwrap()
        })
    });
    let payload = vec![0x5au8; 1500];
    c.bench_function("shmring/pool_write_free", |b| {
        b.iter(|| {
            let h = pool.alloc().unwrap();
            pool.write_payload(&kernel, CpuClass::Kernel, h, &payload)
                .unwrap();
            pool.free(h).unwrap();
        })
    });
}

fn bench_datapath_ablation(c: &mut Criterion) {
    // Ablation: copy vs batched-copy vs shmring on the same 20-packet
    // burst — the Table-3-adjacent scale story in microbench form.
    use decaf_core::experiments::DataPathKind;
    for kind in [
        DataPathKind::Copy,
        DataPathKind::BatchedCopy,
        DataPathKind::Shmring,
    ] {
        c.bench_function(&format!("datapath/burst20[{kind:?}]"), |b| {
            b.iter(|| decaf_core::experiments::datapath_run(kind, 20))
        });
    }
}

fn bench_storage_ablation(c: &mut Criterion) {
    // Ablation: the tar write + streaming-read pair under the three
    // user-level hostings of the uhci URB path — wall time tracks the
    // simulated marshal/copy work each hosting removes.
    use decaf_core::experiments::DataPathKind;
    for kind in [
        DataPathKind::Copy,
        DataPathKind::BatchedCopy,
        DataPathKind::Shmring,
    ] {
        c.bench_function(&format!("storage/tar32[{kind:?}]"), |b| {
            b.iter(|| decaf_core::experiments::storage_run(kind))
        });
    }
}

fn bench_frag_ablation(c: &mut Criterion) {
    // Ablation: the buddy+SG pool on one adversarially fragmented
    // pressure point — every iteration re-asserts the zero-copy and
    // conservation invariants inside frag_run; wall time tracks the
    // buddy free-list walk and SG chaining.
    c.bench_function("frag/pinned50", |b| {
        b.iter(|| decaf_core::experiments::frag_run(50))
    });
}

fn bench_transport_ablation(c: &mut Criterion) {
    // Ablation: mask-only vs mask+delta vs mask+delta+batch on the
    // repeated-configuration workload (the decaf control-path shape).
    // Each iteration runs the full deterministic sequence, so wall time
    // tracks the simulated marshal + dispatch work each layer removes.
    for (label, config) in decaf_core::experiments::transport_ablation_configs() {
        c.bench_function(&format!("xpc/repeat_config[{label}]"), |b| {
            b.iter(|| decaf_core::experiments::repeated_config_run(config, 10))
        });
    }
}

fn bench_shard_ablation(c: &mut Criterion) {
    // Ablation: the sharded e1000 build at 1/2/4/8 shards on the same
    // short netperf stream — wall time tracks the simulated per-shard
    // steering, posting and doorbell work.
    for shards in decaf_core::experiments::SHARD_COUNTS {
        c.bench_function(&format!("shard/netperf[shards={shards}]"), |b| {
            b.iter(|| decaf_core::experiments::shard_run(shards, 1, 500))
        });
    }
}

fn bench_storage_shard_ablation(c: &mut Criterion) {
    // Ablation: the sharded uhci build at 1/2/4/8 URB queues on the
    // same short multi-LUN tar pair — every iteration also re-asserts
    // the bytes_copied == 0 invariant inside storage_shard_run.
    for shards in decaf_core::experiments::STORAGE_SHARD_COUNTS {
        c.bench_function(&format!("storage-shard/tar[shards={shards}]"), |b| {
            b.iter(|| decaf_core::experiments::storage_shard_run(shards, 1, 8))
        });
    }
}

fn bench_async_transport(c: &mut Criterion) {
    // Ablation: batched (synchronous flush) vs async (completion-token
    // launch + harvest) on the identical paced deferred-call stream —
    // wall time tracks the bookkeeping, virtual time the overlap credit.
    use decaf_core::xpc::ChannelConfig;
    for (label, config) in [
        ("batched", ChannelConfig::kernel_user_batched()),
        ("async", ChannelConfig::kernel_user_async()),
    ] {
        let (kernel, ch, a) = channel(config);
        c.bench_function(&format!("xpc/deferred_flush_harvest[{label}]"), |b| {
            b.iter(|| {
                for _ in 0..8 {
                    ch.call_deferred(&kernel, Domain::Nucleus, "touch", &[Some(a)], &[])
                        .unwrap();
                }
                ch.flush(&kernel).unwrap();
                ch.harvest(&kernel).len()
            })
        });
    }
}

fn bench_rx_mode(c: &mut Criterion) {
    // Ablation: interrupt-driven vs poll-mode receive servicing at one
    // rate either side of the crossover — each iteration re-asserts the
    // zero-copy invariant inside rx_mode_run.
    use decaf_core::experiments::RxMode;
    for (label, mode, pps) in [
        ("interrupt@2k", RxMode::Interrupt, 2_000u32),
        ("poll@2k", RxMode::Poll, 2_000),
        ("interrupt@16k", RxMode::Interrupt, 16_000),
        ("poll@16k", RxMode::Poll, 16_000),
    ] {
        c.bench_function(&format!("rx-mode/{label}"), |b| {
            b.iter(|| decaf_core::experiments::rx_mode_run(mode, pps))
        });
    }
}

fn bench_combolock(c: &mut Criterion) {
    // Ablation: combolock (spin when kernel-only) vs forced semaphore.
    let kernel = Kernel::new();
    let lock = Combolock::new("bench");
    c.bench_function("combolock/kernel_only_spin", |b| {
        b.iter(|| drop(lock.acquire(&kernel, Domain::Nucleus)))
    });
    let lock = Combolock::new("bench_user");
    // Holding from user mode once keeps switching costs visible.
    c.bench_function("combolock/user_semaphore", |b| {
        b.iter(|| drop(lock.acquire(&kernel, Domain::Decaf)))
    });
}

fn bench_slicer(c: &mut Criterion) {
    let src = decaf_core::drivers::DriverKind::E1000.minic_source();
    c.bench_function("slicer/slice_e1000", |b| {
        b.iter(|| {
            decaf_core::slicer::slice(src, &decaf_core::slicer::SliceConfig::default()).unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_xdr_codec,
    bench_graph_marshal,
    bench_xpc_call,
    bench_shmring,
    bench_datapath_ablation,
    bench_storage_ablation,
    bench_frag_ablation,
    bench_transport_ablation,
    bench_shard_ablation,
    bench_storage_shard_ablation,
    bench_async_transport,
    bench_rx_mode,
    bench_combolock,
    bench_slicer
);
criterion_main!(benches);
