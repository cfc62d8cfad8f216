//! Heap allocations per cross-shard bulk packet.
//!
//! A bulk packet that crosses engine shards should cost the host no heap
//! block: its payload is a range of the transfer's shared snapshot
//! (`sp_am::Payload`), its retransmit save shares that snapshot too, and
//! the window barrier moves the packet by value into the destination
//! shard's message slab. A block allocated on one shard's thread and freed
//! on the other's makes the free wait for the allocating thread's arena
//! lock, which is what this budget keeps out of the bulk path.
//!
//! A counting `#[global_allocator]` counts every allocation in the
//! process, so this file is a test binary of its own with a single test:
//! no other test's allocations can land in the count. Its counter is a
//! process-wide static; CI's check against such statics covers only
//! `crates/*/src`, where a static would mix the figures of concurrent runs.

use sp_adapter::SpConfig;
use sp_am::{AmConfig, AmMachine, CHUNK_BYTES};
use sp_sim::Dur;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One-chunk stores node 0 makes to node 1.
const STORES: usize = 64;
/// Stores in flight at once (the 2-deep chunk pipeline stays full).
const IN_FLIGHT: usize = 4;

/// Heap allocations per packet of a 2-shard run (one node per shard, so
/// every packet crosses shards) in which node 0 streams `STORES`
/// one-chunk stores to node 1. Counts the whole run: thread start-up,
/// buffers growing to their steady size, and one snapshot per store.
fn allocations_per_cross_shard_packet() -> (f64, u64, u64) {
    let mut m = AmMachine::new(SpConfig::thin(2).parallel(2), AmConfig::default(), 1);
    let landing = m.mem().alloc(1, (STORES * CHUNK_BYTES) as u32);
    let src: Vec<u8> = (0..STORES * CHUNK_BYTES).map(|i| (i % 251) as u8).collect();
    let data = src.clone();
    m.spawn("src", (), move |am| {
        let mut pending = std::collections::VecDeque::new();
        for k in 0..STORES {
            if pending.len() == IN_FLIGHT {
                am.wait_bulk(pending.pop_front().expect("a store in flight"));
            }
            let off = k * CHUNK_BYTES;
            let dst = landing.offset(off as u32);
            pending.push_back(am.store_async(dst, &src[off..off + CHUNK_BYTES], None, &[], None));
        }
        for h in pending {
            am.wait_bulk(h);
        }
    });
    // Silence only falls once the last chunk is acknowledged.
    m.spawn("dst", (), |am| am.drain_quiet(Dur::us(200.0)));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = m.run().expect("run completes");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(report.shards.len(), 2, "the run must be sharded");
    assert_eq!(
        report.mem.read_vec(landing, STORES * CHUNK_BYTES),
        data,
        "stored bytes landed intact"
    );
    let packets: u64 = (0..2).map(|n| report.world.adapter_stats(n).sent).sum();
    (allocations as f64 / packets as f64, allocations, packets)
}

/// Before shared payloads and typed barrier messages, each cross-shard
/// data packet cost at least three blocks: its payload copy, the
/// retransmit save's copy of that, and the barrier's boxed closure.
#[test]
fn cross_shard_bulk_packets_allocate_nothing_per_packet() {
    let (per_packet, allocations, packets) = allocations_per_cross_shard_packet();
    println!("{allocations} allocations, {packets} packets: {per_packet:.3} per packet");
    assert!(
        packets >= (STORES * sp_am::CHUNK_PACKETS) as u64,
        "only {packets} packets sent"
    );
    assert!(
        per_packet < BUDGET,
        "{allocations} allocations for {packets} cross-shard packets: \
         {per_packet:.3} per packet, budget {BUDGET}"
    );
}

/// Allocations per packet the run may make. Measured at 0.11 (252
/// allocations for 2,368 packets: thread start-up, buffers growing to
/// their steady size, one snapshot per store), where boxed payloads and
/// closures measured 6.05.
const BUDGET: f64 = 0.5;
