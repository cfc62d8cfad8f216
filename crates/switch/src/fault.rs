//! Deterministic fault injection for exercising the reliability layer.
//!
//! The real SP switch is lossless; SP AM's flow control exists because the
//! *receive FIFO* can overflow (§2.2). Tests additionally need to force
//! losses, duplicates, reordering, and bursts at precise points, so the
//! switch accepts an injector consulted once per packet.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sp_sim::Time;
use std::collections::BTreeSet;

/// What to do with a packet selected by the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Deliver normally.
    None,
    /// Silently drop the packet (models a lost packet).
    Drop,
    /// Deliver, but delayed by an extra fixed hop latency multiple — enough
    /// to push it behind its successors and exercise the out-of-order NACK
    /// path.
    Delay,
    /// Deliver twice: the normal copy on time, a second copy after a delay
    /// (models a stale copy surviving in the fabric — e.g. a retried cable
    /// transfer whose first attempt actually arrived). Exercises the
    /// receiver's duplicate-drop / re-ACK path against *fabric-level*
    /// duplicates, not just retransmit-induced ones.
    Duplicate,
}

impl FaultKind {
    /// Composition precedence when several selectors hit the same packet:
    /// `Drop` beats `Duplicate` beats `Delay` beats `None`.
    fn rank(self) -> u8 {
        match self {
            FaultKind::Drop => 3,
            FaultKind::Duplicate => 2,
            FaultKind::Delay => 1,
            FaultKind::None => 0,
        }
    }

    fn stronger(self, other: FaultKind) -> FaultKind {
        if other.rank() > self.rank() {
            other
        } else {
            self
        }
    }
}

/// A fault rule active over a virtual-time window `[from, until)`: packets
/// classified while the window is open are hit with `probability` (1.0 =
/// every packet). Windows compose with the index-based selectors under the
/// usual precedence (`Drop` > `Duplicate` > `Delay`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window opens (inclusive), in virtual time.
    pub from: Time,
    /// Window closes (exclusive), in virtual time.
    pub until: Time,
    /// The fault applied to selected packets.
    pub kind: FaultKind,
    /// Per-packet selection probability while the window is open.
    pub probability: f64,
}

/// A bidirectional network partition active over `[from, until)`: while
/// the window is open, every packet whose source and destination fall on
/// opposite sides of the split is dropped — in both directions. Node sets
/// are bitmasks (node `i` ⇒ bit `i`, capped at 64 nodes), so the rule
/// stays `Copy` and cheap to test per packet. Nodes in neither set (or in
/// both) are unaffected.
///
/// Partitions are *topology* faults, not per-packet selectors: they draw
/// nothing from the RNG and ignore `stop_after` (their own time window is
/// the bound), so adding one never shifts the stochastic fault stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// One side of the split (bitmask, node `i` ⇒ bit `i`).
    pub a_nodes: u64,
    /// The other side (bitmask).
    pub b_nodes: u64,
    /// Partition begins (inclusive), in virtual time.
    pub from: Time,
    /// Partition heals (exclusive), in virtual time.
    pub until: Time,
}

impl PartitionWindow {
    fn bit(node: usize) -> u64 {
        if node < 64 {
            1u64 << node
        } else {
            0
        }
    }

    /// Does this partition sever the (`src` → `dst`) path at `now`?
    pub fn severs(&self, src: usize, dst: usize, now: Time) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let (s, d) = (Self::bit(src), Self::bit(dst));
        (s & self.a_nodes != 0 && d & self.b_nodes != 0)
            || (s & self.b_nodes != 0 && d & self.a_nodes != 0)
    }

    /// Can this partition ever sever anything?
    fn effective(&self) -> bool {
        self.until > self.from && self.a_nodes != 0 && self.b_nodes != 0
    }
}

/// Per-packet fault plan. All selectors compose; when several hit the same
/// packet, `Drop` beats `Duplicate` beats `Delay`.
#[derive(Debug)]
pub struct FaultInjector {
    /// Drop every packet whose global index (0-based, in injection order)
    /// is a multiple of this (if `Some`). `Some(1)` drops everything.
    pub drop_every_nth: Option<u64>,
    /// Drop with this probability (deterministic RNG).
    pub drop_probability: f64,
    /// Duplicate with this probability (deterministic RNG).
    pub dup_probability: f64,
    /// Delay with this probability (deterministic RNG).
    pub delay_probability: f64,
    /// Explicit global packet indices to drop.
    pub drop_indices: BTreeSet<u64>,
    /// Explicit global packet indices to duplicate.
    pub dup_indices: BTreeSet<u64>,
    /// Explicit global packet indices to delay (reorder).
    pub delay_indices: BTreeSet<u64>,
    /// Time-windowed fault rules (see [`FaultWindow`]). Only meaningful on
    /// classification paths that know the packet's time
    /// ([`FaultInjector::classify_at`]); `classify()` evaluates them at
    /// `Time::ZERO`.
    pub windows: Vec<FaultWindow>,
    /// Bidirectional node-set partitions (see [`PartitionWindow`]). Only
    /// meaningful on classification paths that know the packet's endpoints
    /// ([`FaultInjector::classify_pair_at`]); the pairless paths ignore
    /// them.
    pub partitions: Vec<PartitionWindow>,
    /// Inject faults only among the first `stop_after` packets (if `Some`):
    /// tests use this to bound the lossy phase so graceful shutdown runs
    /// over a lossless tail.
    pub stop_after: Option<u64>,
    rng: SmallRng,
    next_index: u64,
}

impl FaultInjector {
    /// An injector that never faults.
    pub fn none() -> Self {
        Self::with_seed(0)
    }

    /// An injector with a specific RNG seed (only relevant when one of the
    /// probabilistic selectors is non-zero).
    pub fn with_seed(seed: u64) -> Self {
        FaultInjector {
            drop_every_nth: None,
            drop_probability: 0.0,
            dup_probability: 0.0,
            delay_probability: 0.0,
            drop_indices: BTreeSet::new(),
            dup_indices: BTreeSet::new(),
            delay_indices: BTreeSet::new(),
            windows: Vec::new(),
            partitions: Vec::new(),
            stop_after: None,
            rng: SmallRng::seed_from_u64(seed),
            next_index: 0,
        }
    }

    /// An injector dropping each packet independently with probability `p`.
    pub fn bernoulli(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let mut inj = Self::with_seed(seed);
        inj.drop_probability = p;
        inj
    }

    /// An injector dropping exactly the packets with the given global
    /// injection indices.
    pub fn drop_at(indices: impl IntoIterator<Item = u64>) -> Self {
        let mut inj = Self::with_seed(0);
        inj.drop_indices = indices.into_iter().collect();
        inj
    }

    /// An injector duplicating exactly the packets with the given global
    /// injection indices.
    pub fn dup_at(indices: impl IntoIterator<Item = u64>) -> Self {
        let mut inj = Self::with_seed(0);
        inj.dup_indices = indices.into_iter().collect();
        inj
    }

    /// Total number of packets classified so far.
    pub fn packets_seen(&self) -> u64 {
        self.next_index
    }

    /// `true` when no selector can ever fault a packet: classification is
    /// provably [`FaultKind::None`] for every packet at every time. The
    /// parallel (sharded) fabric requires this — per-shard injectors would
    /// see disjoint packet substreams and diverge from the serial run.
    pub fn is_noop(&self) -> bool {
        self.drop_every_nth.is_none_or(|n| n == 0)
            && self.drop_probability == 0.0
            && self.dup_probability == 0.0
            && self.delay_probability == 0.0
            && self.drop_indices.is_empty()
            && self.dup_indices.is_empty()
            && self.delay_indices.is_empty()
            && self
                .windows
                .iter()
                .all(|w| w.kind == FaultKind::None || w.probability == 0.0 || w.until <= w.from)
            && self.partitions.iter().all(|p| !p.effective())
    }

    /// `true` when every packet is dropped unconditionally: the link is,
    /// for routing purposes, severed. The adaptive route policy masks such
    /// links out of selection — modeling the SP fault daemon regenerating
    /// route tables around a failed cable — while round-robin stays
    /// fault-blind and keeps paying retransmissions on the dead lane.
    pub fn lane_dead(&self) -> bool {
        self.drop_every_nth == Some(1) || self.drop_probability >= 1.0
    }

    /// Classify the next packet without time context: time windows are
    /// evaluated at `Time::ZERO` (i.e. only windows opening at zero apply).
    pub fn classify(&mut self) -> FaultKind {
        self.classify_at(Time::ZERO)
    }

    /// Classify the next packet, known to enter the fabric at `now`.
    /// Called exactly once per injected packet, in injection order, so
    /// explicit indices are meaningful.
    ///
    /// Every stochastic selector draws from the RNG exactly once per packet,
    /// regardless of `stop_after`, of whether its window is open, or of
    /// whether an earlier selector already matched — so bounded and
    /// unbounded runs (and runs differing only in one explicit index) see
    /// identical random streams past the point of divergence.
    pub fn classify_at(&mut self, now: Time) -> FaultKind {
        let idx = self.next_index;
        self.next_index += 1;

        let p_drop = self.drop_probability > 0.0 && self.rng.gen_bool(self.drop_probability);
        let p_dup = self.dup_probability > 0.0 && self.rng.gen_bool(self.dup_probability);
        let p_delay = self.delay_probability > 0.0 && self.rng.gen_bool(self.delay_probability);
        let mut windowed = FaultKind::None;
        for i in 0..self.windows.len() {
            let w = self.windows[i];
            let hit = if w.probability >= 1.0 {
                true
            } else {
                // Drawn even while the window is closed: uniform stream.
                w.probability > 0.0 && self.rng.gen_bool(w.probability)
            };
            if hit && now >= w.from && now < w.until {
                windowed = windowed.stronger(w.kind);
            }
        }

        if self.stop_after.is_some_and(|n| idx >= n) {
            return FaultKind::None;
        }

        let mut kind = windowed;
        if self.drop_indices.contains(&idx) || p_drop {
            kind = kind.stronger(FaultKind::Drop);
        }
        if let Some(n) = self.drop_every_nth {
            if n > 0 && idx.is_multiple_of(n) {
                kind = kind.stronger(FaultKind::Drop);
            }
        }
        if self.dup_indices.contains(&idx) || p_dup {
            kind = kind.stronger(FaultKind::Duplicate);
        }
        if self.delay_indices.contains(&idx) || p_delay {
            kind = kind.stronger(FaultKind::Delay);
        }
        kind
    }

    /// Classify the next packet, known to travel `src` → `dst` entering the
    /// fabric at `now`. Runs [`FaultInjector::classify_at`] first — burning
    /// exactly the same RNG draws, so pair-aware and pairless call sites
    /// see identical stochastic streams — then overrides with `Drop` if any
    /// partition severs the pair. Partitions ignore `stop_after` (their own
    /// window is the bound).
    pub fn classify_pair_at(&mut self, src: usize, dst: usize, now: Time) -> FaultKind {
        let mut kind = self.classify_at(now);
        if self.partitions.iter().any(|p| p.severs(src, dst, now)) {
            kind = kind.stronger(FaultKind::Drop);
        }
        kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_faults() {
        let mut inj = FaultInjector::none();
        for _ in 0..1000 {
            assert_eq!(inj.classify(), FaultKind::None);
        }
        assert_eq!(inj.packets_seen(), 1000);
    }

    #[test]
    fn explicit_indices_hit_exactly() {
        let mut inj = FaultInjector::drop_at([2, 5]);
        let kinds: Vec<_> = (0..7).map(|_| inj.classify()).collect();
        assert_eq!(kinds[2], FaultKind::Drop);
        assert_eq!(kinds[5], FaultKind::Drop);
        assert_eq!(kinds.iter().filter(|k| **k == FaultKind::Drop).count(), 2);
    }

    #[test]
    fn every_nth_drops_multiples() {
        let mut inj = FaultInjector::none();
        inj.drop_every_nth = Some(3);
        let kinds: Vec<_> = (0..9).map(|_| inj.classify()).collect();
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(*k == FaultKind::Drop, i % 3 == 0, "index {i}");
        }
    }

    #[test]
    fn bernoulli_is_deterministic_per_seed() {
        let run = |seed| {
            let mut inj = FaultInjector::bernoulli(0.3, seed);
            (0..100).map(|_| inj.classify()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let drops = run(7).iter().filter(|k| **k == FaultKind::Drop).count();
        assert!((10..60).contains(&drops), "p=0.3 of 100 gave {drops}");
    }

    #[test]
    fn delay_classification() {
        let mut inj = FaultInjector::none();
        inj.delay_indices.insert(1);
        assert_eq!(inj.classify(), FaultKind::None);
        assert_eq!(inj.classify(), FaultKind::Delay);
    }

    #[test]
    fn duplicate_classification() {
        let mut inj = FaultInjector::dup_at([1]);
        assert_eq!(inj.classify(), FaultKind::None);
        assert_eq!(inj.classify(), FaultKind::Duplicate);
    }

    #[test]
    fn drop_wins_over_duplicate_and_delay() {
        let mut inj = FaultInjector::drop_at([0]);
        inj.dup_indices.insert(0);
        inj.delay_indices.insert(1);
        inj.dup_indices.insert(1);
        assert_eq!(inj.classify(), FaultKind::Drop);
        assert_eq!(inj.classify(), FaultKind::Duplicate, "dup beats delay");
    }

    #[test]
    fn windows_apply_only_inside_their_time_range() {
        let mut inj = FaultInjector::none();
        inj.windows.push(FaultWindow {
            from: Time(1_000),
            until: Time(2_000),
            kind: FaultKind::Drop,
            probability: 1.0,
        });
        assert_eq!(inj.classify_at(Time(999)), FaultKind::None);
        assert_eq!(inj.classify_at(Time(1_000)), FaultKind::Drop);
        assert_eq!(inj.classify_at(Time(1_999)), FaultKind::Drop);
        assert_eq!(inj.classify_at(Time(2_000)), FaultKind::None);
    }

    /// Regression (uniform stream advance): an explicit index match must
    /// not skip the Bernoulli draw, or runs differing in one pinned index
    /// see divergent random streams ever after.
    #[test]
    fn explicit_index_does_not_shift_bernoulli_stream() {
        let mut plain = FaultInjector::bernoulli(0.3, 7);
        let mut pinned = FaultInjector::bernoulli(0.3, 7);
        pinned.drop_indices.insert(0);
        let a: Vec<_> = (0..100).map(|_| plain.classify()).collect();
        let b: Vec<_> = (0..100).map(|_| pinned.classify()).collect();
        assert_eq!(a[1..], b[1..], "streams diverge after a pinned index");
    }

    #[test]
    fn partition_severs_both_directions_inside_its_window() {
        let mut inj = FaultInjector::none();
        inj.partitions.push(PartitionWindow {
            a_nodes: 0b0011, // nodes 0,1
            b_nodes: 0b0100, // node 2
            from: Time(1_000),
            until: Time(2_000),
        });
        assert!(!inj.is_noop(), "an effective partition forces serial mode");
        assert_eq!(inj.classify_pair_at(0, 2, Time(999)), FaultKind::None);
        assert_eq!(inj.classify_pair_at(0, 2, Time(1_000)), FaultKind::Drop);
        assert_eq!(inj.classify_pair_at(2, 1, Time(1_500)), FaultKind::Drop);
        // Same-side and uninvolved pairs pass.
        assert_eq!(inj.classify_pair_at(0, 1, Time(1_500)), FaultKind::None);
        assert_eq!(inj.classify_pair_at(2, 3, Time(1_500)), FaultKind::None);
        assert_eq!(inj.classify_pair_at(3, 0, Time(1_500)), FaultKind::None);
        // Healed: traffic flows again.
        assert_eq!(inj.classify_pair_at(0, 2, Time(2_000)), FaultKind::None);
    }

    /// Regression (uniform stream advance): partitions must draw nothing
    /// from the RNG, so pair-aware classification of a partitioned world
    /// yields the same stochastic stream as pairless classification.
    #[test]
    fn partition_does_not_shift_the_stochastic_stream() {
        let mut plain = FaultInjector::bernoulli(0.3, 7);
        let mut split = FaultInjector::bernoulli(0.3, 7);
        split.partitions.push(PartitionWindow {
            a_nodes: 0b01,
            b_nodes: 0b10,
            from: Time(0),
            until: Time(1),
        });
        let a: Vec<_> = (0..100).map(|_| plain.classify_at(Time(5))).collect();
        let b: Vec<_> = (0..100)
            .map(|_| split.classify_pair_at(0, 1, Time(5)))
            .collect();
        assert_eq!(a, b, "closed partition altered the fault stream");
    }

    #[test]
    fn ineffective_partitions_keep_the_injector_noop() {
        let mut inj = FaultInjector::none();
        inj.partitions.push(PartitionWindow {
            a_nodes: 0b01,
            b_nodes: 0, // empty side: can never sever
            from: Time(0),
            until: Time(1_000),
        });
        inj.partitions.push(PartitionWindow {
            a_nodes: 0b01,
            b_nodes: 0b10,
            from: Time(1_000),
            until: Time(1_000), // empty window
        });
        assert!(inj.is_noop());
    }

    /// Regression (uniform stream advance): `stop_after` must advance every
    /// stochastic selector past the bound, not just `drop_probability`.
    #[test]
    fn stop_after_advances_all_stochastic_selectors() {
        let mk = |stop| {
            let mut inj = FaultInjector::with_seed(11);
            inj.dup_probability = 0.25;
            inj.delay_probability = 0.25;
            inj.stop_after = stop;
            inj
        };
        let mut unbounded = mk(None);
        let mut bounded = mk(Some(10));
        let a: Vec<_> = (0..50).map(|_| unbounded.classify()).collect();
        let b: Vec<_> = (0..50).map(|_| bounded.classify()).collect();
        assert_eq!(a[..10], b[..10], "bounded run diverged before the bound");
        assert!(b[10..].iter().all(|k| *k == FaultKind::None));
    }
}
