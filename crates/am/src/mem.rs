//! Per-node memory arenas and global pointers.
//!
//! Bulk transfers move real bytes between node memories. Each node owns a
//! flat byte arena with a bump allocator; a [`GlobalPtr`] names a byte range
//! on a specific node, exactly like a Split-C global pointer. The pool
//! lives outside the simulation world (behind an `Arc`), so benchmark code
//! can inspect memory after the run; the engine's one-thread-at-a-time
//! discipline keeps access deterministic.

use crate::stats::AmStats;
use parking_lot::Mutex;
use std::sync::Arc;

/// Address on a specific node: the global address space's pointer type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalPtr {
    /// Owning node.
    pub node: usize,
    /// Byte offset within the node's arena.
    pub addr: u32,
}

impl GlobalPtr {
    /// A pointer `delta` bytes further into the same node's arena.
    #[inline]
    pub fn offset(self, delta: u32) -> GlobalPtr {
        GlobalPtr {
            node: self.node,
            addr: self.addr + delta,
        }
    }
}

/// One node's memory arena.
#[derive(Debug)]
pub struct Arena {
    data: Vec<u8>,
    next: u32,
}

const ALIGN: u32 = 8;

impl Arena {
    fn new() -> Self {
        Arena {
            data: Vec::new(),
            next: 0,
        }
    }

    fn alloc(&mut self, len: u32) -> u32 {
        let addr = self.next;
        self.next = (self.next + len).div_ceil(ALIGN) * ALIGN;
        let need = self.next as usize;
        if self.data.len() < need {
            self.data.resize(need, 0);
        }
        addr
    }

    fn read(&self, addr: u32, out: &mut [u8]) {
        let a = addr as usize;
        out.copy_from_slice(&self.data[a..a + out.len()]);
    }

    fn write(&mut self, addr: u32, bytes: &[u8]) {
        let a = addr as usize;
        let end = a + bytes.len();
        assert!(
            end <= self.data.len(),
            "write past end of arena: {end} > {}",
            self.data.len()
        );
        self.data[a..end].copy_from_slice(bytes);
    }
}

/// The pool of all node arenas (shared handle). An AM machine's node
/// programs also leave their final protocol counters here as they return,
/// for [`AmReport::am_stats`](crate::AmReport::am_stats).
#[derive(Clone)]
pub struct MemPool {
    shared: Arc<Shared>,
}

struct Shared {
    arenas: Mutex<Vec<Arena>>,
    /// `(node, final counters)`, in the order the programs returned.
    stats: Mutex<Vec<(usize, AmStats)>>,
}

impl std::fmt::Debug for MemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let arenas = self.shared.arenas.lock();
        f.debug_struct("MemPool")
            .field("nodes", &arenas.len())
            .field(
                "allocated",
                &arenas.iter().map(|a| a.next).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl MemPool {
    /// A pool with one empty arena per node.
    pub fn new(nodes: usize) -> Self {
        MemPool {
            shared: Arc::new(Shared {
                arenas: Mutex::new((0..nodes).map(|_| Arena::new()).collect()),
                stats: Mutex::default(),
            }),
        }
    }

    /// A view of `node`'s arena.
    pub fn on(&self, node: usize) -> Mem {
        Mem {
            pool: self.clone(),
            node,
        }
    }

    /// Allocate `len` bytes on `node` (8-byte aligned bump allocation).
    pub fn alloc(&self, node: usize, len: u32) -> GlobalPtr {
        let addr = self.shared.arenas.lock()[node].alloc(len);
        GlobalPtr { node, addr }
    }

    /// Read `out.len()` bytes at `p`.
    pub fn read(&self, p: GlobalPtr, out: &mut [u8]) {
        self.shared.arenas.lock()[p.node].read(p.addr, out);
    }

    /// Read `len` bytes at `p` into a fresh buffer.
    pub fn read_vec(&self, p: GlobalPtr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read(p, &mut out);
        out
    }

    /// Read `len` bytes at `p` into a fresh shared snapshot: one copy,
    /// straight out of the arena.
    pub(crate) fn read_shared(&self, p: GlobalPtr, len: usize) -> Arc<[u8]> {
        let a = p.addr as usize;
        Arc::from(&self.shared.arenas.lock()[p.node].data[a..a + len])
    }

    /// Write `bytes` at `p`.
    pub fn write(&self, p: GlobalPtr, bytes: &[u8]) {
        self.shared.arenas.lock()[p.node].write(p.addr, bytes);
    }

    /// Bytes currently allocated on `node`.
    pub fn allocated(&self, node: usize) -> u32 {
        self.shared.arenas.lock()[node].next
    }

    /// Record `node`'s final protocol counters as its program returns.
    pub(crate) fn leave_stats(&self, node: usize, stats: AmStats) {
        self.shared.stats.lock().push((node, stats));
    }

    /// Every recorded node's final counters, in node order.
    pub(crate) fn take_stats(&self) -> Vec<AmStats> {
        let mut stats = std::mem::take(&mut *self.shared.stats.lock());
        stats.sort_unstable_by_key(|&(node, _)| node);
        stats.into_iter().map(|(_, s)| s).collect()
    }
}

/// A [`MemPool`] view pinned to one node, with typed convenience accessors.
#[derive(Clone)]
pub struct Mem {
    pool: MemPool,
    node: usize,
}

impl Mem {
    /// The node this view is pinned to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Allocate `len` bytes locally.
    pub fn alloc(&self, len: u32) -> GlobalPtr {
        self.pool.alloc(self.node, len)
    }

    /// Read from a *local* address.
    pub fn read(&self, addr: u32, out: &mut [u8]) {
        self.pool.read(
            GlobalPtr {
                node: self.node,
                addr,
            },
            out,
        );
    }

    /// Write to a *local* address.
    pub fn write(&self, addr: u32, bytes: &[u8]) {
        self.pool.write(
            GlobalPtr {
                node: self.node,
                addr,
            },
            bytes,
        );
    }

    /// Read a little-endian `f64` at a local address.
    pub fn read_f64(&self, addr: u32) -> f64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        f64::from_le_bytes(b)
    }

    /// Write a little-endian `f64` at a local address.
    pub fn write_f64(&self, addr: u32, v: f64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Read a little-endian `u32` at a local address.
    pub fn read_u32(&self, addr: u32) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Write a little-endian `u32` at a local address.
    pub fn write_u32(&self, addr: u32, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let pool = MemPool::new(2);
        let a = pool.alloc(0, 5);
        let b = pool.alloc(0, 16);
        let c = pool.alloc(0, 1);
        assert_eq!(a.addr % ALIGN, 0);
        assert_eq!(b.addr % ALIGN, 0);
        assert!(b.addr >= a.addr + 5);
        assert!(c.addr >= b.addr + 16);
        // Other node's arena is independent.
        let d = pool.alloc(1, 8);
        assert_eq!(d.addr, 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let pool = MemPool::new(1);
        let p = pool.alloc(0, 64);
        let data: Vec<u8> = (0..64).collect();
        pool.write(p, &data);
        assert_eq!(pool.read_vec(p, 64), data);
        // Partial interior read.
        assert_eq!(pool.read_vec(p.offset(10), 4), vec![10, 11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "write past end")]
    fn out_of_bounds_write_panics() {
        let pool = MemPool::new(1);
        let p = pool.alloc(0, 8);
        pool.write(p, &[0u8; 64]);
    }

    #[test]
    fn typed_accessors() {
        let pool = MemPool::new(1);
        let mem = pool.on(0);
        let p = mem.alloc(16);
        mem.write_f64(p.addr, 3.25);
        mem.write_u32(p.addr + 8, 0xBEEF);
        assert_eq!(mem.read_f64(p.addr), 3.25);
        assert_eq!(mem.read_u32(p.addr + 8), 0xBEEF);
    }

    #[test]
    fn allocated_tracks_high_water() {
        let pool = MemPool::new(1);
        assert_eq!(pool.allocated(0), 0);
        pool.alloc(0, 100);
        assert!(pool.allocated(0) >= 100);
    }
}
