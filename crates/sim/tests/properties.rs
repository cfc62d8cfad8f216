//! Property tests on the engine's core guarantees: global time order,
//! determinism, and park/unpark liveness under arbitrary schedules.

use proptest::prelude::*;
use sp_sim::{Dur, NodeId, Sim};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// World mutations from any mix of node advances and scheduled events
    /// are observed in non-decreasing virtual-time order.
    #[test]
    fn observations_in_time_order(
        steps in prop::collection::vec((0usize..4, 1u64..5000), 1..120),
        seed in any::<u64>(),
    ) {
        let mut sim = Sim::new(Vec::<u64>::new(), seed);
        // Partition steps among 4 nodes.
        let mut per_node: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for (node, d) in steps {
            per_node[node].push(d);
        }
        for (i, durs) in per_node.into_iter().enumerate() {
            sim.spawn(format!("n{i}"), move |ctx| {
                for d in durs {
                    ctx.advance(Dur::ns(d));
                    let t = ctx.now().as_ns();
                    ctx.world(|w| w.push(t));
                    // Also schedule an event that records its own time.
                    ctx.schedule(Dur::ns(d / 2), move |e| {
                        let at = e.now().as_ns();
                        e.world().push(at);
                    });
                }
            });
        }
        let report = sim.run().unwrap();
        let times = report.world;
        for w in times.windows(2) {
            prop_assert!(w[0] <= w[1], "out of order: {} then {}", w[0], w[1]);
        }
    }

    /// Same seed and program ⇒ identical event counts and end times.
    #[test]
    fn deterministic_replay(
        steps in prop::collection::vec(1u64..2000, 1..60),
        seed in any::<u64>(),
    ) {
        let run = |steps: Vec<u64>, seed: u64| {
            let mut sim = Sim::new(0u64, seed);
            for i in 0..3usize {
                let steps = steps.clone();
                sim.spawn(format!("n{i}"), move |ctx| {
                    for &d in &steps {
                        ctx.advance(Dur::ns(d + i as u64));
                        ctx.world(|w| *w = w.wrapping_mul(31).wrapping_add(d));
                    }
                });
            }
            let r = sim.run().unwrap();
            (r.world, r.end_time, r.events)
        };
        prop_assert_eq!(run(steps.clone(), seed), run(steps, seed));
    }

    /// Every park is matched by an unpark from a partner: no deadlock, and
    /// the parked node always resumes.
    #[test]
    fn matched_park_unpark_always_completes(rounds in 1usize..40, seed in any::<u64>()) {
        let mut sim = Sim::new(0u32, seed);
        let sleeper = NodeId(0);
        sim.spawn("sleeper", move |ctx| {
            for _ in 0..rounds {
                ctx.park();
                ctx.world(|w| *w += 1);
            }
        });
        sim.spawn("waker", move |ctx| {
            for _ in 0..rounds {
                ctx.advance(Dur::ns(100));
                ctx.unpark(sleeper);
                // Wait long enough that the signal cannot race the next
                // park (unparks latch, so even back-to-back is safe; the
                // advance just varies the interleaving).
                ctx.advance(Dur::ns(50));
            }
        });
        let report = sim.run().unwrap();
        prop_assert_eq!(report.world, rounds as u32);
    }
}
