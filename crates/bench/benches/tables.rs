//! Regenerates every table of the paper's evaluation (run via
//! `cargo bench -p decaf-bench --bench tables`).
//!
//! Every table renders through [`Table`] — decaf-trace's one report
//! path — instead of a hand-rolled `format!` string per table, and the
//! ablation tables print the p50/p99/p999 request-latency percentiles
//! their rows now carry.

use decaf_core::experiments::{self, LatencyPercentiles};
use decaf_core::simkernel::decaf_trace::Table;

fn main() {
    table1();
    table2();
    table3();
    transport_ablation();
    async_sweep();
    datapath_ablation();
    storage_ablation();
    frag_ablation();
    rx_mode_sweep();
    shard_ablation();
    storage_shard_ablation();
    overload_knee();
    table4();
}

/// Renders nanoseconds as one-decimal microseconds.
fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// Headers for the request-latency percentile triple every ablation
/// table appends.
const LAT_HEADERS: [&str; 3] = ["p50 µs", "p99 µs", "p999 µs"];

/// Cells for the percentile triple, rendered by the one shared path.
/// Three decimals: submit-side latencies sit well under a microsecond.
fn lat_cells(lat: &LatencyPercentiles) -> [String; 3] {
    let f = |ns: u64| format!("{:.3}", ns as f64 / 1e3);
    [f(lat.p50_ns), f(lat.p99_ns), f(lat.p999_ns)]
}

/// Headers for the async completion-token ledger pair (shared by the
/// shard ablation and the async sweep — previously two copies of the
/// same column code).
const TOKEN_HEADERS: [&str; 2] = ["Tokens", "Overlap µs"];

/// Cells for the completion-token ledger pair.
fn token_cells(tokens: u64, overlap_ns: u64) -> [String; 2] {
    [tokens.to_string(), us(overlap_ns)]
}

fn banner(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

fn table1() {
    banner("Table 1: Lines of code supporting Decaf Drivers");
    let mut t = Table::new("");
    t.columns(&["Component", "paper", "ours"]);
    let rows = experiments::table1();
    let mut group = "";
    let mut total = 0;
    for row in &rows {
        if row.group != group {
            group = row.group;
            t.row(vec![group.to_string()]);
        }
        t.row(vec![
            format!("  {}", row.component),
            row.paper_loc.to_string(),
            row.measured_loc.to_string(),
        ]);
        total += row.measured_loc;
    }
    t.row(vec![
        "  Total".to_string(),
        23_423.to_string(),
        total.to_string(),
    ]);
    print!("{}", t.render());
}

fn table2() {
    banner("Table 2: The drivers converted to the Decaf architecture");
    let mut t = Table::new("");
    t.columns(&[
        "Driver", "Type", "LoC", "Annot", "N.fn", "N.loc", "L.fn", "L.loc", "D.fn", "D.loc",
        "user%",
    ]);
    for row in experiments::table2() {
        t.row(vec![
            row.name.to_string(),
            row.device_type.to_string(),
            row.loc.to_string(),
            row.annotations.to_string(),
            row.nucleus_funcs.to_string(),
            row.nucleus_loc.to_string(),
            row.library_funcs.to_string(),
            row.library_loc.to_string(),
            row.decaf_funcs.to_string(),
            row.decaf_loc.to_string(),
            format!("{:.0}%", row.user_fraction() * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!(
        "(paper: >75% of functions moved to user level in 4 of 5 drivers;\n\
         uhci-hcd converted only 4% to Java — same shape expected above)"
    );
}

fn table3() {
    banner("Table 3: Performance of Decaf Drivers on common workloads");
    let mut t = Table::new("");
    t.columns(&[
        "Driver",
        "Workload",
        "RelPerf",
        "CPU n.",
        "CPU d.",
        "Init n.",
        "Init d.",
        "Crossings",
        "InBytes",
        "Batched",
        "Invoc",
        "DBell",
        "D/DB",
        "HWM",
    ]);
    for row in experiments::table3() {
        t.row(vec![
            row.driver.to_string(),
            row.workload.to_string(),
            format!("{:.3}", row.relative_perf),
            format!("{:.1}%", row.cpu_native * 100.0),
            format!("{:.1}%", row.cpu_decaf * 100.0),
            format!("{:.3}ms", row.init_native_s * 1e3),
            format!("{:.3}ms", row.init_decaf_s * 1e3),
            row.init_crossings.to_string(),
            row.init_bytes_in.to_string(),
            row.init_batched_calls.to_string(),
            row.workload_invocations.to_string(),
            row.doorbells.to_string(),
            format!("{:.1}", row.descs_per_doorbell),
            row.ring_occupancy_hwm.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "(paper: relative performance 0.99-1.03, CPU within a point or two,\n\
         decaf init several times slower, crossings 24-237 per driver;\n\
         init latencies here are virtual-time and reflect crossing+marshal\n\
         overhead, not JVM start-up — see EXPERIMENTS.md. InBytes/Batched\n\
         show the batched transport + delta marshaling at work during init.\n\
         The netperf-send/shm rows host the data path at user level over\n\
         the shmring subsystem — E1000 rides the async-transport\n\
         install_sharded(.., 1), 8139too its synchronous single-queue ring:\n\
         DBell/D-per-DB/HWM are the doorbell count, descriptors amortized\n\
         per doorbell, and ring occupancy high-water)"
    );
}

fn datapath_ablation() {
    banner("Data-path ablation: hosting the packet path at user level");
    let mut t = Table::new("");
    let mut headers = vec![
        "Configuration",
        "Pkts",
        "Payload",
        "Marshaled",
        "RT",
        "DBell",
        "D/DB",
        "HWM",
        "Copied",
        "Virt. µs",
        "Virt.Mb/s",
    ];
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    for row in experiments::datapath_ablation() {
        let mut cells = vec![
            row.label.to_string(),
            row.packets.to_string(),
            row.payload_bytes.to_string(),
            row.marshaled_bytes.to_string(),
            row.round_trips.to_string(),
            row.doorbells.to_string(),
            format!("{:.1}", row.descs_per_doorbell),
            row.ring_occupancy_hwm.to_string(),
            row.bytes_copied.to_string(),
            us(row.virtual_ns),
            format!("{:.1}", row.virtual_mbps()),
        ];
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "(every configuration copies identical payload bytes — the ablation\n\
         isolates marshaling and crossing costs. Batched-copy removes the\n\
         per-packet round trips; shmring removes the bytes: descriptors +\n\
         coalesced doorbells make the user-level hot path cheaper than the\n\
         by-value paths on both bytes moved and virtual time. p50/p99/p999\n\
         are per-packet request latencies from the metrics registry)"
    );
}

fn storage_ablation() {
    banner("Storage ablation: hosting the uhci URB path at user level");
    let mut t = Table::new("");
    let mut headers = vec![
        "Configuration",
        "URBs",
        "Payload",
        "Marshaled",
        "RT",
        "DBell",
        "D/DB",
        "Copied",
        "Virt. µs",
        "Virt.Mb/s",
    ];
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    for row in experiments::storage_ablation() {
        let mut cells = vec![
            row.label.to_string(),
            row.urbs.to_string(),
            row.payload_bytes.to_string(),
            row.marshaled_bytes.to_string(),
            row.round_trips.to_string(),
            row.doorbells.to_string(),
            format!("{:.1}", row.descs_per_doorbell),
            row.bytes_copied.to_string(),
            us(row.virtual_ns),
            format!("{:.1}", row.virtual_mbps()),
        ];
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "(the same tar write + streaming-read pair under three hostings of\n\
         the URB path. Batched-copy amortizes crossings but still marshals\n\
         and copies every payload; shmring posts URB descriptors through\n\
         pinned rings, adopts page-granular sector payloads into the shared\n\
         pool, and hands IN data back by ownership — Copied drops to ZERO,\n\
         descriptor traffic only, asserted in decaf-core's\n\
         storage_ablation_shmring_drops_copies_to_descriptor_traffic test.\n\
         p50/p99/p999 are per-URB submit→completion latencies)"
    );
}

fn frag_ablation() {
    banner("Fragmentation ablation: the buddy+SG pool under adversarial pinning");
    let verdict = |refuses: bool| if refuses { "refuse" } else { "fits" }.to_string();
    let mut t = Table::new("");
    t.columns(&[
        "Pinned %",
        "Attempts",
        "Failures",
        "FragRef",
        "Exhausted",
        "Copied",
        "Virt. µs",
        "Virt.Mb/s",
        "Need",
        "FreeRun",
        "FirstFit",
        "FreeBlk",
        "Buddy",
    ]);
    for row in experiments::frag_ablation() {
        t.row(vec![
            row.pressure.to_string(),
            row.attempts.to_string(),
            row.failures.to_string(),
            row.frag_refusals.to_string(),
            row.exhausted.to_string(),
            row.bytes_copied.to_string(),
            format!("{:.3}", row.virtual_ns as f64 / 1e3),
            format!("{:.1}", row.virtual_mbps()),
            row.need.to_string(),
            row.largest_free_run.to_string(),
            verdict(row.first_fit_refuses()),
            row.largest_free_block.to_string(),
            verdict(row.buddy_refuses()),
        ]);
    }
    print!("{}", t.render());
    println!(
        "(each row pins Pinned% of the sector pool as scattered singles,\n\
         then fires multi-sector flash writes through the single-queue\n\
         uhci ring build. The pool chains scattered blocks into one URB\n\
         and holds Failures AND FragRef at zero across the sweep\n\
         (asserted inside frag_ablation), with Copied exactly zero. The\n\
         right-hand columns read the pinned free map: FreeRun is its\n\
         longest run of adjacent free sectors, FreeBlk its largest buddy\n\
         block; FirstFit / Buddy say whether a contiguity-requiring\n\
         allocator would refuse every attempt — first-fit needs a run of\n\
         Need sectors, aligned buddy a block of Need rounded up to a\n\
         power of two)"
    );
}

fn shard_ablation() {
    banner("Shard ablation: multi-channel XPC + per-shard shmrings (netperf)");
    let mut t = Table::new("");
    let mut headers = vec![
        "Shards",
        "Pkts",
        "Payload",
        "Serial µs",
        "Crit. µs",
        "Eff. µs",
        "DBell",
        "D/DB",
    ];
    headers.extend(TOKEN_HEADERS);
    headers.extend(["Copied", "Virt.Mb/s"]);
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    let rows = experiments::shard_ablation();
    for row in &rows {
        let mut cells = vec![
            row.shards.to_string(),
            row.packets.to_string(),
            row.payload_bytes.to_string(),
            us(row.effective_ns - row.shard_max_ns),
            us(row.shard_max_ns),
            us(row.effective_ns),
            row.doorbells.to_string(),
            format!("{:.1}", row.descs_per_doorbell),
        ];
        cells.extend(token_cells(row.tokens, row.overlap_ns));
        cells.push(row.bytes_copied.to_string());
        cells.push(format!("{:.1}", row.virtual_mbps()));
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "(identical netperf stream at every shard count; Eff = serial work\n\
         + the critical-path shard, the parallel wall-clock model of\n\
         per-CPU channels. Copied must not move: sharding changes flow\n\
         steering, never copy accounting. Tokens/Overlap are the async\n\
         transport's completion ledger: doorbell crossings launch, harvest\n\
         collects later, and the overlapped slice is never charged.\n\
         shards=4 beating shards=1 on Virt.Mb/s is the tentpole\n\
         acceptance claim, asserted in decaf-core's\n\
         shard_ablation_parallelism_wins test)"
    );
}

fn storage_shard_ablation() {
    banner("Sharded storage ablation: multi-LUN tar over per-shard URB queues");
    let mut t = Table::new("");
    let mut headers = vec![
        "Shards",
        "Used",
        "URBs",
        "Payload",
        "Serial µs",
        "Crit. µs",
        "Eff. µs",
        "DBell",
        "D/DB",
        "Copied",
        "Virt.Mb/s",
    ];
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    for row in experiments::storage_shard_ablation() {
        let mut cells = vec![
            row.shards.to_string(),
            row.shards_used.to_string(),
            row.urbs.to_string(),
            row.payload_bytes.to_string(),
            us(row.effective_ns - row.shard_max_ns),
            us(row.shard_max_ns),
            us(row.effective_ns),
            row.doorbells.to_string(),
            format!("{:.1}", row.descs_per_doorbell),
            row.bytes_copied.to_string(),
            format!("{:.1}", row.virtual_mbps()),
        ];
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "(identical 4-LUN tar write + streaming-read pair at every shard\n\
         count; each LUN's URBs stay FIFO on one queue while LUNs spread.\n\
         Copied is asserted EXACTLY ZERO at every width inside\n\
         storage_shard_run — sharding changes steering, payload adoption\n\
         stays zero-copy. shards=4 beating shards=1 on Virt.Mb/s is the\n\
         tentpole acceptance claim, asserted in decaf-core's\n\
         storage_shard_ablation_parallelism_wins_and_stays_zero_copy test)"
    );
}

fn transport_ablation() {
    banner("Transport ablation: the same repeated-configuration sequence");
    let mut t = Table::new("");
    let mut headers = vec![
        "Configuration",
        "RT",
        "1-way",
        "B.in",
        "B.out",
        "Flush",
        "Batch",
        "Elided",
        "Virt. µs",
    ];
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    for row in experiments::transport_ablation() {
        let mut cells = vec![
            row.label.to_string(),
            row.round_trips.to_string(),
            row.one_way_crossings.to_string(),
            row.bytes_in.to_string(),
            row.bytes_out.to_string(),
            row.flushes.to_string(),
            row.batched_calls.to_string(),
            row.delta_fields_elided.to_string(),
            us(row.virtual_ns),
        ];
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "(each layer stacks on field-selective masks: delta cuts bytes,\n\
         batching cuts crossings — see DESIGN.md's ablation matrix.\n\
         p50/p99/p999 are per-configuration-cycle latencies)"
    );
}

fn async_sweep() {
    banner("Async transport sweep: batched vs completion-token launches");
    let mut t = Table::new("");
    let mut headers = vec!["Calls/s", "Batched µs", "Async µs"];
    headers.extend(TOKEN_HEADERS);
    headers.push("Saved");
    headers.extend(LAT_HEADERS);
    t.columns(&headers);
    for row in experiments::async_transport_sweep() {
        let mut cells = vec![
            row.offered_cps.to_string(),
            us(row.batched_ns),
            us(row.async_ns),
        ];
        cells.extend(token_cells(row.tokens, row.overlap_ns));
        cells.push(format!("{:.1}%", row.saving() * 100.0));
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "(identical paced deferred-call stream on both transports. The\n\
         async transport launches the batch when the doorbell fires and\n\
         harvests the completion later, charging only the uncovered slice\n\
         of each crossing — computation during an in-flight crossing is\n\
         overlap, not wait. Async ≤ batched at EVERY rate is the tentpole\n\
         acceptance claim, asserted per row inside async_transport_sweep.\n\
         p50/p99/p999 are per-call submit latencies on the async run)"
    );
}

fn rx_mode_sweep() {
    banner("RX-mode sweep: interrupt-driven vs poll-mode receive");
    let mut t = Table::new("");
    t.columns(&[
        "Pkts/s", "Pkts", "Intr µs", "Poll µs", "I.DBl", "P.DBl", "Winner", "I.p50", "I.p99",
        "P.p50", "P.p99",
    ]);
    let rows = experiments::rx_mode_sweep();
    for row in &rows {
        t.row(vec![
            row.offered_pps.to_string(),
            row.packets.to_string(),
            us(row.interrupt_ns),
            us(row.poll_ns),
            row.interrupt_doorbells.to_string(),
            row.poll_doorbells.to_string(),
            row.winner().to_string(),
            us(row.interrupt_lat.p50_ns),
            us(row.interrupt_lat.p99_ns),
            us(row.poll_lat.p50_ns),
            us(row.poll_lat.p99_ns),
        ]);
    }
    print!("{}", t.render());
    match experiments::rx_crossover_pps(&rows) {
        Some(pps) => println!("crossover: poll-mode receive first wins at {pps} pkts/s offered"),
        None => println!("crossover: not reached in this sweep"),
    }
    println!(
        "(one virtual second of paced arrivals through a pool-less shmring\n\
         data path. Interrupt mode pays interrupt entry per frame plus a\n\
         watermark doorbell crossing; poll mode pays a softirq tick plus\n\
         budgeted ring probes and rings NO doorbells. The fixed poll tax\n\
         loses at low rates and wins at high rates; the single flip is\n\
         asserted inside rx_mode_sweep, with zero payload bytes copied.\n\
         I./P. p50/p99 are per-packet post→reclaim latencies in µs:\n\
         interrupt mode services each frame as it lands, poll mode holds\n\
         frames until the next grid tick — the latency cost of the CPU\n\
         the poll grid saves at high rates)"
    );
}

fn overload_knee() {
    banner("Overload knee: open-loop offered rate vs goodput and tail latency");
    let sat = experiments::overload_saturation_rate();
    let mut t = Table::new("");
    let mut cols = vec![
        "Policy",
        "Rate%",
        "Offered",
        "Admit",
        "Rej",
        "Shed",
        "Goodput/s",
    ];
    cols.extend(LAT_HEADERS);
    t.columns(&cols);
    let rows = experiments::overload_sweep();
    for row in &rows {
        let mut cells = vec![
            row.policy.name().to_string(),
            row.multiplier_pct.to_string(),
            row.offered.to_string(),
            row.admitted.to_string(),
            row.rejected.to_string(),
            row.shed.to_string(),
            row.goodput_per_s.to_string(),
        ];
        cells.extend(lat_cells(&row.lat));
        t.row(cells);
    }
    print!("{}", t.render());
    let v = experiments::knee_verdict(&rows);
    println!(
        "calibrated saturation: {sat} req/s. Unbounded p99 blows up {:.1}×\n\
         past saturation; {} holds p99 within {:.1}× pre-knee at {:.0}% of\n\
         peak goodput (acceptance: ≥10× / ≤3× / ≥80% — {}).",
        v.unbounded_blowup,
        v.bounded_policy.name(),
        v.bounded_ratio,
        v.goodput_fraction * 100.0,
        if v.holds { "holds" } else { "FAILS" }
    );
    println!(
        "(seeded open-loop arrivals — Poisson netperf packets plus bursty\n\
         tar URBs — dispatched by an absolute-deadline kernel timer into\n\
         real shmring data paths. Latency is completion minus *scheduled*\n\
         arrival: when the single CPU falls behind, the wait shows up in\n\
         the tail. Queue-unbounded admits everything and pays in p99;\n\
         reject-at-admission turns arrivals away at the door with per-class\n\
         token buckets; shed-oldest drops the stalest queued request. Every\n\
         cell asserts zero payload bytes copied, URB descriptor/sector\n\
         conservation, a closed admission ledger, and every async doorbell\n\
         token settled)"
    );
}

fn table4() {
    banner("Table 4: E1000 evolution, 2.6.18.1 -> 2.6.27 (320 patches)");
    let study = experiments::table4();
    let mut t = Table::new("");
    t.columns(&["Category", "paper", "ours"]);
    t.row(vec![
        "Driver nucleus lines".to_string(),
        381.to_string(),
        study.total.nucleus_lines.to_string(),
    ]);
    t.row(vec![
        "Decaf driver lines".to_string(),
        4690.to_string(),
        study.total.decaf_lines.to_string(),
    ]);
    t.row(vec![
        "User/kernel interface".to_string(),
        23.to_string(),
        study.total.interface_changes.to_string(),
    ]);
    print!("{}", t.render());
    println!(
        "(batch 1: {} lines decaf / {} nucleus; batch 2: {} / {})",
        study.batch1.decaf_lines,
        study.batch1.nucleus_lines,
        study.batch2.decaf_lines,
        study.batch2.nucleus_lines
    );
}
