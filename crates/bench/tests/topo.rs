//! Acceptance tests for the multi-frame topology sweep: a cross-frame
//! round trip is strictly slower than the single-frame one, and the whole
//! premium inside the fabric segments is exactly the added hop-latency
//! terms — the trace-based breakdown attributes it, stage by stage.

use sp_adapter::{RoutePolicy, SpConfig};
use sp_bench::{topo_exp, Tally};
use sp_switch::SwitchConfig;

#[test]
fn cross_frame_round_trip_pays_exactly_the_extra_hops() {
    let hop = SwitchConfig::default().hop_latency.as_ns();
    let single = topo_exp::traced_round_trip(&SpConfig::thin(2), 1, 3, &mut Tally::default());
    let multi =
        topo_exp::traced_round_trip(&SpConfig::multi_frame(2, 1), 1, 3, &mut Tally::default());
    // Both breakdowns fully attribute their round trips.
    assert_eq!(single.sum_ns(), single.rtt_ns);
    assert_eq!(multi.sum_ns(), multi.rtt_ns);
    // The cross-frame trip is strictly slower end to end, and the fabric
    // share of the premium is exactly one extra hop per direction.
    assert!(
        multi.rtt_ns > single.rtt_ns,
        "cross-frame RTT {} ns not above single-frame {} ns",
        multi.rtt_ns,
        single.rtt_ns
    );
    assert_eq!(
        multi.wire_switch_ns() - single.wire_switch_ns(),
        2 * hop,
        "fabric premium is not 2 * hop_latency"
    );
}

#[test]
fn multi_frame_breakdown_components_match_cost_model() {
    // Corner-to-corner ping on a 4-frame, 16-node machine: every modeled
    // segment still reconstructs its cost constant, and the chain contains
    // exactly one inter-frame stage per direction.
    let cfg = SpConfig::multi_frame(4, 4);
    let dst = cfg.nodes - 1;
    let bd = topo_exp::traced_round_trip(&cfg, dst, 3, &mut Tally::default());
    assert_eq!(bd.sum_ns(), bd.rtt_ns);
    for s in &bd.segments {
        let Some(exp) = s.expected_ns else { continue };
        let err = (s.measured_ns as f64 - exp as f64).abs() / exp.max(1) as f64;
        assert!(
            err <= 0.05,
            "segment {:?}: measured {} ns vs model {} ns",
            s.label,
            s.measured_ns,
            exp
        );
    }
    let hop = SwitchConfig::default().hop_latency.as_ns();
    let xframe: Vec<_> = bd
        .segments
        .iter()
        .filter(|s| s.label.starts_with("inter-frame"))
        .collect();
    assert_eq!(xframe.len(), 2, "one inter-frame stage per direction");
    for s in &xframe {
        assert_eq!(s.measured_ns, hop, "uncontended cable stage {:?}", s.label);
    }
}

#[test]
fn breakdown_chain_holds_under_adaptive_routing() {
    // The causal chain walk matches cross-frame hops on *any* cable track,
    // so it must reconstruct the round trip unchanged when the adaptive
    // policy steers packets across lanes — and with the fabric otherwise
    // quiet, the adaptive round trip must equal the round-robin one.
    let rr = topo_exp::traced_round_trip(&SpConfig::multi_frame(2, 1), 1, 3, &mut Tally::default());
    let ad = topo_exp::traced_round_trip(
        &SpConfig::multi_frame(2, 1).routed(RoutePolicy::Adaptive),
        1,
        3,
        &mut Tally::default(),
    );
    assert_eq!(ad.sum_ns(), ad.rtt_ns);
    assert_eq!(
        ad.rtt_ns, rr.rtt_ns,
        "uncontended adaptive round trip differs from round-robin"
    );
}

#[test]
fn adaptive_beats_round_robin_under_hot_spot_congestion() {
    // The PR's acceptance experiment: with a bulk stream hammering one
    // frame pair, adaptive pingers dodge the occupied cable lanes. The
    // simulator is deterministic, so strict inequalities are stable.
    let (rr, ad) = topo_exp::congestion(true, &mut Tally::default());
    assert_eq!(rr.adaptive_picks, 0, "round-robin never dodges");
    assert!(ad.adaptive_picks > 0, "adaptive run recorded no dodges");
    assert!(
        ad.rtt_p99_ns < rr.rtt_p99_ns,
        "adaptive p99 {} ns not below round-robin {} ns",
        ad.rtt_p99_ns,
        rr.rtt_p99_ns
    );
    assert!(
        ad.lane_spread < rr.lane_spread,
        "adaptive lane spread {:.3} not tighter than round-robin {:.3}",
        ad.lane_spread,
        rr.lane_spread
    );
}

#[test]
fn streaming_bandwidth_survives_the_extra_hop() {
    // Pipelined stores hide per-packet fabric latency: the cross-frame
    // machine must deliver at least ~95% of the single-frame rate.
    let single = topo_exp::store_bandwidth(SpConfig::thin(2), 1, 4096, 12, &mut Tally::default());
    let multi = topo_exp::store_bandwidth(
        SpConfig::multi_frame(2, 1),
        1,
        4096,
        12,
        &mut Tally::default(),
    );
    assert!(single > 0.0 && multi > 0.0);
    assert!(
        multi >= 0.95 * single,
        "cross-frame streaming bandwidth collapsed: {multi:.1} vs {single:.1} MB/s"
    );
}
