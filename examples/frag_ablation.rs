//! Fragmentation ablation smoke: prints the buddy+SG pool's sweep over
//! adversarially fragmented sector pools and gates the headline claim
//! of the scatter-gather data path.
//!
//! Each row installs the single-queue uhci ring build, pins a
//! pressure-point fraction of its sector pool as *scattered*
//! single-sector chains (the free map becomes singles — plenty of
//! bytes, no contiguity), then fires a burst of multi-sector flash
//! writes. The pool chains them and never refuses (`frag_refusals`
//! would count a refusal issued while free bytes sufficed). From the
//! pinned free map each row also reports what a contiguity-requiring
//! allocator would have done: first-fit needs a free run as long as the
//! transfer, an aligned buddy allocator a free block of the next power
//! of two.
//!
//! The measurements and every per-row invariant (zero CPU-copied
//! payload bytes, URB + pool conservation, no leaked sectors) live in
//! `decaf_core::experiments::frag_run`, the same code the published
//! table rows are built from, so this smoke and the numbers can never
//! diverge.
//!
//! Run with: `cargo run --release --example frag_ablation`

use decaf_core::experiments::{frag_ablation, FRAG_ATTEMPTS, FRAG_PRESSURES};

fn main() {
    println!(
        "fragmentation ablation: {} multi-sector writes per row, pressures {:?}%",
        FRAG_ATTEMPTS, FRAG_PRESSURES
    );
    println!(
        "{:>7} {:>8} {:>8} {:>13} {:>9} {:>8} {:>11} {:>8} {:>9} {:>8} {:>9}",
        "pinned%",
        "attempts",
        "failures",
        "frag refusals",
        "exhausted",
        "copied B",
        "virt Mbit/s",
        "free run",
        "first-fit",
        "free blk",
        "buddy"
    );
    let verdict = |refuses: bool| if refuses { "refuse" } else { "fits" };
    // `frag_ablation` itself asserts the acceptance gates: zero failures
    // and zero frag refusals across the sweep, and a pinned free map
    // that first-fit could not place a transfer in.
    let rows = frag_ablation();
    for r in &rows {
        println!(
            "{:>7} {:>8} {:>8} {:>13} {:>9} {:>8} {:>11.1} {:>8} {:>9} {:>8} {:>9}",
            r.pressure,
            r.attempts,
            r.failures,
            r.frag_refusals,
            r.exhausted,
            r.bytes_copied,
            r.virtual_mbps(),
            r.largest_free_run,
            verdict(r.first_fit_refuses()),
            r.largest_free_block,
            verdict(r.buddy_refuses()),
        );
    }

    let first_ff = rows
        .iter()
        .find(|r| r.first_fit_refuses())
        .expect("the gate in frag_ablation guarantees a refusing row");
    println!(
        "first-fit would refuse from {}% pressure (largest free run {} < {} sectors); \
         the buddy+SG pool sustains a zero alloc-failure rate at every pressure \
         point — a fragmented pool never refuses a transfer it has the bytes for",
        first_ff.pressure, first_ff.largest_free_run, first_ff.need
    );
}
