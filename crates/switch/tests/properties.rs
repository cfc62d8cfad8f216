//! Property tests on the fabric model: per-pair FIFO, link conservation,
//! fault-injection accounting, and topology-independent timing laws.

use proptest::prelude::*;
use sp_sim::Time;
use sp_switch::{FaultInjector, RoutePolicy, Switch, SwitchConfig, Topology, Transit};

/// Decode a generated bit into a routing policy.
fn make_policy(adaptive: bool) -> RoutePolicy {
    if adaptive {
        RoutePolicy::Adaptive
    } else {
        RoutePolicy::RoundRobin
    }
}

/// Decode three generated integers into an arbitrary topology — a single
/// frame or a multi-frame arrangement, both within frame-port limits,
/// always with ≥ 2 nodes so a non-loopback pair exists.
fn make_topology(kind: u8, a: usize, b: usize) -> Topology {
    if kind.is_multiple_of(2) {
        Topology::single_frame(2 + a % 15)
    } else {
        Topology::multi_frame(2 + a % 3, 1 + b % 4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Deliveries on each (src, dst) pair are strictly increasing in time
    /// (the ordering SP AM's sequence numbers rely on).
    #[test]
    fn per_pair_fifo(
        packets in prop::collection::vec((0usize..4, 0usize..4, 33usize..256), 1..200),
    ) {
        let mut sw = Switch::new(4, SwitchConfig::default());
        let mut last: Vec<Vec<Option<Time>>> = vec![vec![None; 4]; 4];
        for (src, dst, bytes) in packets {
            if let Transit::Delivered { at, .. } = sw.transit(src, dst, bytes, Time::ZERO) {
                if let Some(prev) = last[src][dst] {
                    prop_assert!(at > prev, "pair ({src},{dst}) reordered");
                }
                last[src][dst] = Some(at);
            }
        }
    }

    /// No link ever carries more than its bandwidth: consecutive
    /// deliveries *to one node* are separated by at least the smaller
    /// packet's serialization time.
    #[test]
    fn ejection_link_conserved(
        packets in prop::collection::vec((0usize..3, 64usize..256), 2..150),
    ) {
        let mut sw = Switch::new(4, SwitchConfig::default());
        let mut deliveries: Vec<(Time, usize)> = Vec::new();
        for (src, bytes) in packets {
            if let Transit::Delivered { at, .. } = sw.transit(src, 3, bytes, Time::ZERO) {
                deliveries.push((at, bytes));
            }
        }
        deliveries.sort();
        for w in deliveries.windows(2) {
            let min_gap = sw.serialization(w[1].1.min(w[0].1));
            prop_assert!(
                w[1].0 - w[0].0 >= min_gap,
                "two deliveries {} apart, min serialization {}",
                w[1].0 - w[0].0,
                min_gap
            );
        }
    }

    /// Fault accounting: delivered + dropped equals packets injected, and
    /// the injector's own count matches.
    #[test]
    fn fault_accounting(
        count in 1u64..300,
        p_millis in 0u32..300,
        seed in any::<u64>(),
    ) {
        let mut sw = Switch::new(2, SwitchConfig::default());
        sw.set_fault_injector(FaultInjector::bernoulli(p_millis as f64 / 1000.0, seed));
        let mut delivered = 0u64;
        for _ in 0..count {
            match sw.transit(0, 1, 128, Time::ZERO) {
                Transit::Delivered { .. } => delivered += 1,
                Transit::Dropped => {}
            }
        }
        prop_assert_eq!(sw.stats().delivered, delivered);
        prop_assert_eq!(sw.stats().delivered + sw.stats().dropped, count);
    }

    /// Route selection cycles through all configured routes uniformly.
    #[test]
    fn routes_round_robin(count in 4usize..100) {
        let mut sw = Switch::new(2, SwitchConfig::default());
        let mut seen = [0usize; 4];
        for _ in 0..count {
            if let Transit::Delivered { route, .. } = sw.transit(0, 1, 64, Time::ZERO) {
                seen[route] += 1;
            }
        }
        let max = *seen.iter().max().unwrap();
        let min = *seen.iter().min().unwrap();
        prop_assert!(max - min <= 1, "route imbalance: {seen:?}");
    }

    /// On any topology, a fault-free uncontended transit takes exactly
    /// `serialization + hops * hop_latency` — the wormhole law the latency
    /// breakdown report decomposes against.
    #[test]
    fn uncontended_delivery_is_serialization_plus_hops(
        kind in any::<u8>(),
        ta in 0usize..64,
        tb in 0usize..64,
        src in 0usize..64,
        offset in 0usize..64,
        bytes in 33usize..256,
        adaptive in any::<bool>(),
    ) {
        let topo = make_topology(kind, ta, tb);
        let n = topo.nodes();
        let src = src % n;
        let dst = (src + 1 + offset % (n - 1)) % n; // any node but src
        let hops = topo.hops(src, dst) as u64;
        let cfg = SwitchConfig {
            route_policy: make_policy(adaptive),
            ..SwitchConfig::default()
        };
        let mut sw = Switch::with_topology(topo, cfg);
        let at = match sw.transit(src, dst, bytes, Time::ZERO) {
            Transit::Delivered { at, .. } => at,
            Transit::Dropped => unreachable!("no faults configured"),
        };
        let expected = Time::ZERO
            + sw.serialization(bytes)
            + sw.config().hop_latency * hops;
        prop_assert_eq!(at, expected);
        prop_assert_eq!(sw.stats().hops, hops);
    }

    /// Route round-robin cycles `0..routes_per_pair` per (src, dst) pair on
    /// any topology, independent of other pairs' traffic.
    #[test]
    fn routes_cycle_on_any_topology(
        kind in any::<u8>(),
        ta in 0usize..64,
        tb in 0usize..64,
        count in 1usize..40,
        interleave in 0u8..2,
    ) {
        let interleave = interleave == 1;
        let mut sw = Switch::with_topology(make_topology(kind, ta, tb), SwitchConfig::default());
        let rpp = sw.config().routes_per_pair;
        for i in 0..count {
            if interleave {
                // Traffic on another pair must not perturb (0, 1)'s cycle.
                let _ = sw.transit(1, 0, 64, Time::ZERO);
            }
            match sw.transit(0, 1, 64, Time::ZERO) {
                Transit::Delivered { route, .. } => prop_assert_eq!(route, i % rpp),
                Transit::Dropped => unreachable!("no faults configured"),
            }
        }
    }

    /// The adaptive policy never selects a candidate route whose
    /// contention key (first-contended-link `free` time) is strictly worse
    /// than another candidate's at decision time — i.e. the chosen route
    /// always attains the minimum key over all candidates.
    #[test]
    fn adaptive_never_picks_a_strictly_busier_candidate(
        ta in 0usize..64,
        tb in 0usize..64,
        packets in prop::collection::vec((0usize..64, 0usize..64, 33usize..256, 0u64..40_000), 1..150),
    ) {
        let topo = make_topology(1, ta, tb); // multi-frame only
        let n = topo.nodes();
        let cfg = SwitchConfig {
            route_policy: RoutePolicy::Adaptive,
            ..SwitchConfig::default()
        };
        let rpp = cfg.routes_per_pair;
        let mut sw = Switch::with_topology(topo, cfg);
        for (src, offset, bytes, ready_ns) in packets {
            let src = src % n;
            let dst = (src + 1 + offset % (n - 1)) % n;
            let ready = Time(ready_ns);
            let keys: Vec<Time> =
                (0..rpp).map(|r| sw.contention_key(src, dst, r, ready)).collect();
            match sw.transit(src, dst, bytes, ready) {
                Transit::Delivered { route, .. } => {
                    let min = *keys.iter().min().unwrap();
                    prop_assert_eq!(
                        keys[route], min,
                        "picked route {} (key {:?}) over keys {:?}",
                        route, keys[route], keys
                    );
                }
                Transit::Dropped => unreachable!("no faults configured"),
            }
        }
    }

    /// With zero contention at every decision instant, `Adaptive` degrades
    /// to exactly the round-robin sequence `0, 1, 2, 3, ...` per pair.
    #[test]
    fn adaptive_without_contention_is_exactly_round_robin(
        kind in any::<u8>(),
        ta in 0usize..64,
        tb in 0usize..64,
        count in 1usize..40,
    ) {
        let cfg = SwitchConfig {
            route_policy: RoutePolicy::Adaptive,
            ..SwitchConfig::default()
        };
        let rpp = cfg.routes_per_pair;
        let mut sw = Switch::with_topology(make_topology(kind, ta, tb), cfg);
        for i in 0..count {
            // Decisions spaced 1 ms apart: every link is idle again.
            let ready = Time(i as u64 * 1_000_000);
            match sw.transit(0, 1, 64, ready) {
                Transit::Delivered { route, .. } => prop_assert_eq!(route, i % rpp),
                Transit::Dropped => unreachable!("no faults configured"),
            }
        }
    }
}

/// SplitMix64: a dependency-free generator, so the frozen battery below
/// stays pinned whatever random-number crate the workspace carries.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over u64 words, the construction the golden pins use.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// A per-link injector drawn from `rng`: none, a few explicit
/// drop/dup/delay indices, or low-probability Bernoulli selectors.
fn link_injector(rng: &mut SplitMix) -> Option<FaultInjector> {
    match rng.below(4) {
        0 | 1 => None,
        2 => {
            let mut f = FaultInjector::none();
            f.drop_indices.insert(rng.below(12));
            f.dup_indices.insert(rng.below(12));
            f.delay_indices.insert(rng.below(12));
            Some(f)
        }
        _ => {
            let mut f = FaultInjector::with_seed(rng.next());
            f.drop_probability = 0.04;
            f.dup_probability = 0.04;
            f.delay_probability = 0.04;
            Some(f)
        }
    }
}

/// One fabric of the frozen battery: `topo` under `policy`, a fabric-wide
/// injector (explicit drop/dup/delay indices, a Bernoulli drop window, a
/// delay window and a partition) plus seeded per-link injectors on
/// injection, ejection and cable/up/down links and one severed
/// cable/up-link, driven by a seeded
/// stream of sends (loopback included). Every outcome and the final
/// stats are folded into `h`; the per-fabric stats are returned so the
/// caller can check the battery really exercised each fault kind.
fn frozen_run(
    topo: Topology,
    policy: RoutePolicy,
    seed: u64,
    h: &mut Fnv,
) -> sp_switch::SwitchStats {
    use sp_switch::{FaultKind, FaultWindow, PartitionWindow};
    let mut rng = SplitMix(seed);
    let cfg = SwitchConfig {
        route_policy: policy,
        ..SwitchConfig::default()
    };
    let mut sw = Switch::with_topology(topo, cfg);
    let n = sw.nodes();
    let mut global = FaultInjector::with_seed(seed ^ 0x5eed);
    global.drop_indices.extend([3, 17, 40]);
    global.dup_indices.extend([5, 22, 61]);
    global.delay_indices.extend([8, 31, 77]);
    global.windows.push(FaultWindow {
        from: Time(200_000),
        until: Time(320_000),
        kind: FaultKind::Drop,
        probability: 0.2,
    });
    global.windows.push(FaultWindow {
        from: Time(400_000),
        until: Time(450_000),
        kind: FaultKind::Delay,
        probability: 1.0,
    });
    global.partitions.push(PartitionWindow {
        a_nodes: 1,
        b_nodes: ((1u64 << n) - 1) & !1,
        from: Time(600_000),
        until: Time(700_000),
    });
    sw.set_fault_injector(global);
    for link in 0..sw.topology().num_links() {
        if let Some(f) = link_injector(&mut rng) {
            sw.set_link_fault_injector(link as sp_switch::LinkId, f);
        }
    }
    // A severed first cable / up-link: round-robin keeps feeding it,
    // adaptive masks it out of selection.
    let first_xlink = 2 * n;
    if first_xlink < sw.topology().num_links() {
        let mut dead = FaultInjector::none();
        dead.drop_every_nth = Some(1);
        sw.set_link_fault_injector(first_xlink as sp_switch::LinkId, dead);
    }
    let mut ready = Time::ZERO;
    for _ in 0..600 {
        // Bursts at one instant as well as spread-out sends.
        if rng.below(3) != 0 {
            ready = Time(ready.as_ns() + rng.below(4_000));
        }
        let src = rng.below(n as u64) as usize;
        let dst = if rng.below(16) == 0 {
            src
        } else {
            (src + 1 + rng.below(n as u64 - 1) as usize) % n
        };
        let bytes = 33 + rng.below(256) as usize;
        match sw.transit(src, dst, bytes, ready) {
            Transit::Delivered { at, route, dup_at } => {
                h.word(1);
                h.word(at.as_ns());
                h.word(route as u64);
                h.word(dup_at.map_or(u64::MAX, |d| d.as_ns()));
            }
            Transit::Dropped => h.word(0),
        }
    }
    let s = sw.stats().clone();
    for v in [
        s.delivered,
        s.dropped,
        s.delayed,
        s.duplicated,
        s.wire_bytes,
        s.hops,
    ] {
        h.word(v);
    }
    s
}

/// Frozen reference for the packet path. The fingerprint was captured by
/// running this battery against the original serial `transit` walk, before
/// `transit` became the composition of the staged phases; it pins every
/// arrival instant, route, duplicate instant and drop, plus the final
/// statistics, across a single frame, a multi-frame fabric and a
/// three-tier fat tree under both routing policies.
#[test]
fn transit_matches_frozen_reference() {
    const FROZEN: u64 = 0xea5f_ee7c_0e94_7b6a;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut total = sp_switch::SwitchStats::default();
    for (i, topo) in [
        Topology::single_frame(4),
        Topology::multi_frame(2, 2),
        Topology::fat_tree_custom(3, 2, 1, 2, 2),
    ]
    .into_iter()
    .enumerate()
    {
        for policy in [RoutePolicy::RoundRobin, RoutePolicy::Adaptive] {
            let s = frozen_run(topo.clone(), policy, 0xC0FFEE + i as u64, &mut h);
            total.dropped += s.dropped;
            total.delayed += s.delayed;
            total.duplicated += s.duplicated;
            total.delivered += s.delivered;
        }
    }
    // The battery must actually exercise every verdict.
    assert!(total.dropped > 0 && total.delayed > 0 && total.duplicated > 0);
    assert!(total.delivered > total.dropped);
    if std::env::var_os("SP_GOLDEN_PRINT").is_some() {
        println!("frozen transit fingerprint: {:#018x} ({total:?})", h.0);
    }
    assert_eq!(h.0, FROZEN, "transit diverged from the frozen reference");
}
