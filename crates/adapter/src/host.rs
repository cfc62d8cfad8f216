//! Host-side adapter operations, with their MicroChannel / cache-flush /
//! copy costs charged to the calling node's virtual clock.
//!
//! These functions are the Rust equivalent of the few dozen lines of
//! user-level C that the paper's SP AM uses to talk to the TB2 firmware
//! (§2.1): build a packet in the send FIFO, flush it, store its length
//! across the I/O bus; poll the receive FIFO, copy entries out, flush and
//! lazily pop them. Protocol layers add their *own* software costs on top.

use crate::unit::{FifoFull, WirePacket};
use crate::world::{fw_send_step, SpWorld};
use crate::SpCtx;
use sp_sim::{Dur, Time};
use sp_trace::{Kind, Track};

/// Write one packet into the caller's send FIFO (host copy + cache-line
/// flush are charged), *without* making it visible to the firmware — call
/// [`ring_doorbell`] to publish written packets. Returns [`FifoFull`] if no
/// entry is free (the caller should poll and retry).
pub fn write_packet<P: Send + 'static>(
    ctx: &mut SpCtx<P>,
    dst: usize,
    payload_bytes: usize,
    payload: P,
) -> Result<(), FifoFull> {
    let src = ctx.id().0;
    let pkt = WirePacket::new(src, dst, payload_bytes, payload);
    let t0 = ctx.now();
    // One fused world-access + time charge; a full FIFO charges nothing
    // (the caller never touched the hardware).
    ctx.world_then_advance(|w| {
        debug_assert!(dst < w.nodes(), "destination {dst} out of range");
        let wire_bytes = pkt.wire_bytes;
        let cost = w.cost.packet_host_cost(wire_bytes);
        match w.adapters[src].push_send(pkt) {
            Ok(()) => {
                if let Some(t) = &w.tracer {
                    t.span(
                        t0.as_ns(),
                        (t0 + cost).as_ns(),
                        Track::program(src),
                        Kind::HostWrite,
                        wire_bytes as u64,
                    );
                }
                (Ok(()), cost)
            }
            Err(e) => (Err(e), Dur::ZERO),
        }
    })
}

/// Publish the oldest `count` written-but-unpublished packets by storing
/// their lengths into the adapter's packet-length array. One MicroChannel
/// store is charged regardless of `count` — this is the paper's bulk
/// optimization of "writing the lengths of several packets at a time".
pub fn ring_doorbell<P: Send + Clone + 'static>(ctx: &mut SpCtx<P>, count: usize) {
    let src = ctx.id().0;
    let t0 = ctx.now();
    let scan = ctx.world_then_advance(|w| {
        let cost = w.cost.pio_write;
        if let Some(t) = &w.tracer {
            t.span(
                t0.as_ns(),
                (t0 + cost).as_ns(),
                Track::program(src),
                Kind::HostDoorbell,
                count as u64,
            );
        }
        (w.cfg.fw_scan_delay, cost)
    });
    let kick = ctx.world(|w| {
        let a = &mut w.adapters[src];
        let marked = a.mark_ready(count);
        debug_assert_eq!(
            marked, count,
            "doorbell for packets that were never written"
        );
        a.stats.doorbells += 1;
        if a.fw_send_active {
            false
        } else {
            a.fw_send_active = true;
            true
        }
    });
    if kick {
        ctx.schedule_hot_ranked(scan, src as u32, fw_send_step, src as u64, 0);
    }
}

/// Convenience: write one packet and immediately publish it.
pub fn send_packet<P: Send + Clone + 'static>(
    ctx: &mut SpCtx<P>,
    dst: usize,
    payload_bytes: usize,
    payload: P,
) -> Result<(), FifoFull> {
    write_packet(ctx, dst, payload_bytes, payload)?;
    ring_doorbell(ctx, 1);
    Ok(())
}

/// Number of free send-FIFO entries (a cached host-memory read; free).
pub fn send_fifo_free<P: Send + 'static>(ctx: &mut SpCtx<P>) -> usize {
    let src = ctx.id().0;
    ctx.world(|w| w.adapters[src].send_capacity - w.adapters[src].send_fifo.len())
}

/// Poll the receive FIFO for one packet.
///
/// * Empty: charges the cheap head check and returns `None`.
/// * Non-empty: charges the copy out of the FIFO entry, the cache flush of
///   the entry (preparation for wrap-around), and — every
///   `recv_pop_batch`-th packet — one MicroChannel store for the lazy pop.
pub fn poll_packet<P: Send + 'static>(ctx: &mut SpCtx<P>) -> Option<WirePacket<P>> {
    let me = ctx.id().0;
    let t0 = ctx.now();
    ctx.world_then_advance(|w| poll_fifo(w, me, t0))
}

/// Rounds of [`NodeCtx::advance`](sp_sim::NodeCtx::advance)`(d)`, then
/// [`poll_packet`], until one finds a packet or the next round would start
/// at or after `until`: the same virtual-time charges and result, but the
/// FIFO checks run in the driver that would resume this node (see
/// [`NodeCtx::advance_then`](sp_sim::NodeCtx::advance_then)), so the node
/// thread is resumed once per call, not twice per round. `until` at or
/// before now polls once; `span`, if given, is recorded over each round's
/// advance as the round ends. The popped packet waits in the adapter's
/// poll slot until this node takes it. Returns the packet and the rounds
/// run.
pub fn poll_packet_after<P: Send + 'static>(
    ctx: &mut SpCtx<P>,
    d: Dur,
    until: Time,
    span: Option<Kind>,
) -> (Option<WirePacket<P>>, u64) {
    let me = ctx.id().0;
    let rounds = ctx.advance_then(d, poll_step::<P>, me as u64, until, span);
    (ctx.world(|w| w.adapters[me].polled.take()), rounds)
}

/// [`poll_packet_after`]'s world step: node `me`'s FIFO check at `t0`, its
/// packet left in the poll slot; idle when the FIFO was empty.
fn poll_step<P: Send + 'static>(w: &mut SpWorld<P>, me: u64, t0: Time) -> (Dur, bool) {
    let me = me as usize;
    let (pkt, cost) = poll_fifo(w, me, t0);
    let idle = pkt.is_none();
    w.adapters[me].polled = pkt;
    (cost, idle)
}

/// Node `me`'s receive-FIFO check at `t0`: the packet, if any, and the host
/// cost to charge (see [`poll_packet`]).
fn poll_fifo<P: Send + 'static>(
    w: &mut SpWorld<P>,
    me: usize,
    t0: Time,
) -> (Option<WirePacket<P>>, Dur) {
    let pop_batch = w.cfg.recv_pop_batch;
    let empty_check = w.cfg.recv_empty_check;
    let a = &mut w.adapters[me];
    let track = Track::program(me);
    match a.recv_fifo.pop_front() {
        None => {
            // Idle moment: flush any pending lazy pops so consumed
            // entries stop holding FIFO capacity (otherwise a partial
            // batch could pin a small FIFO at "full" forever).
            if a.recv_unpopped > 0 {
                let flushed = a.recv_unpopped as u64;
                a.recv_unpopped = 0;
                a.stats.lazy_pops += 1;
                if let Some(t) = &w.tracer {
                    let mid = t0 + empty_check;
                    t.span(t0.as_ns(), mid.as_ns(), track, Kind::HostPollEmpty, 0);
                    t.span(
                        mid.as_ns(),
                        (mid + w.cost.pio_write).as_ns(),
                        track,
                        Kind::HostLazyPop,
                        flushed,
                    );
                }
                (None, empty_check + w.cost.pio_write)
            } else {
                if let Some(t) = &w.tracer {
                    t.span(
                        t0.as_ns(),
                        (t0 + empty_check).as_ns(),
                        track,
                        Kind::HostPollEmpty,
                        0,
                    );
                }
                (None, empty_check)
            }
        }
        Some(pkt) => {
            a.recv_unpopped += 1;
            // Copy out + flush the entry's *used* lines in preparation
            // for wrap-around.
            let copy = w.cost.packet_host_cost(pkt.wire_bytes);
            let mut cost = copy;
            let mut popped = 0u64;
            if a.recv_unpopped >= pop_batch {
                popped = a.recv_unpopped as u64;
                a.recv_unpopped = 0;
                a.stats.lazy_pops += 1;
                cost += w.cost.pio_write;
            }
            if let Some(t) = &w.tracer {
                let mid = t0 + copy;
                t.span(
                    t0.as_ns(),
                    mid.as_ns(),
                    track,
                    Kind::HostPollHit,
                    pkt.wire_bytes as u64,
                );
                if popped > 0 {
                    t.span(
                        mid.as_ns(),
                        (t0 + cost).as_ns(),
                        track,
                        Kind::HostLazyPop,
                        popped,
                    );
                }
                // Drain-side occupancy sample: deliveries record the
                // rising edge, pops record the falling edge, so the
                // FIFO-depth gauge sees both directions.
                t.counter(
                    t0.as_ns(),
                    Track::adapter(me),
                    Kind::RecvOccupancy,
                    a.recv_fifo.len() as u64,
                );
            }
            (Some(pkt), cost)
        }
    }
}

/// True if a packet is waiting in the receive FIFO (free cached check; used
/// by layers that want to batch their poll bookkeeping).
pub fn recv_pending<P: Send + 'static>(ctx: &mut SpCtx<P>) -> bool {
    let me = ctx.id().0;
    ctx.world(|w| !w.adapters[me].recv_fifo.is_empty())
}

/// Busy-poll until a packet arrives, charging `spin_cost` per empty check
/// on top of the hardware check cost. Used by raw (protocol-less)
/// calibration benchmarks.
pub fn spin_recv<P: Send + 'static>(ctx: &mut SpCtx<P>, spin_cost: Dur) -> WirePacket<P> {
    let mut pkt = poll_packet(ctx);
    loop {
        if let Some(pkt) = pkt {
            return pkt;
        }
        pkt = poll_packet_after(ctx, spin_cost, Time::ZERO, None).0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{SpConfig, SpWorld};
    use sp_sim::Sim;

    fn two_node_sim() -> Sim<SpWorld<u64>> {
        Sim::new(SpWorld::new(SpConfig::thin(2)), 1)
    }

    #[test]
    fn packet_crosses_machine() {
        let mut sim = two_node_sim();
        sim.spawn("sender", |ctx| {
            send_packet(ctx, 1, 24, 0xDEAD).unwrap();
        });
        sim.spawn("receiver", |ctx| {
            let pkt = spin_recv(ctx, Dur::ns(200));
            assert_eq!(pkt.payload, 0xDEAD);
            assert_eq!(pkt.src, 0);
            assert_eq!(pkt.wire_bytes, 56);
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world.adapter_stats(0).sent, 1);
        assert_eq!(report.world.adapter_stats(1).received, 1);
        // One-way raw time for a small packet: ~15-25 us on the calibrated
        // machine (the full raw round-trip target is ~47 us).
        let t = report.end_time.as_us();
        assert!((10.0..30.0).contains(&t), "one-way raw time {t:.1} us");
    }

    #[test]
    fn doorbell_batching_publishes_fifo_order() {
        let mut sim = two_node_sim();
        sim.spawn("sender", |ctx| {
            for i in 0..5u64 {
                write_packet(ctx, 1, 100, i).unwrap();
            }
            ring_doorbell(ctx, 5);
        });
        sim.spawn("receiver", |ctx| {
            for expect in 0..5u64 {
                let pkt = spin_recv(ctx, Dur::ns(200));
                assert_eq!(pkt.payload, expect, "FIFO order violated");
            }
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world.adapter_stats(0).doorbells, 1);
    }

    #[test]
    fn send_fifo_backpressure() {
        let mut sim = two_node_sim();
        sim.spawn("sender", |ctx| {
            // Fill the FIFO without ever ringing the doorbell: the 129th
            // write must fail.
            for i in 0..128u64 {
                write_packet(ctx, 1, 10, i).unwrap();
            }
            assert_eq!(write_packet(ctx, 1, 10, 999), Err(FifoFull));
            assert_eq!(send_fifo_free(ctx), 0);
            // Publishing lets the firmware drain; entries free up.
            ring_doorbell(ctx, 128);
            loop {
                ctx.advance(Dur::us(5.0));
                if send_fifo_free(ctx) > 0 {
                    break;
                }
            }
            write_packet(ctx, 1, 10, 1000).unwrap();
            ring_doorbell(ctx, 1);
        });
        sim.spawn("receiver", |ctx| {
            for _ in 0..129 {
                let _ = spin_recv(ctx, Dur::ns(200));
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_overflow_drops_and_counts() {
        let mut sim = Sim::new(
            {
                let mut w: SpWorld<u64> = SpWorld::new(SpConfig::thin(2));
                w.set_recv_capacity(1, 4);
                w
            },
            1,
        );
        sim.spawn("sender", |ctx| {
            for i in 0..16u64 {
                write_packet(ctx, 1, 100, i).unwrap();
            }
            ring_doorbell(ctx, 16);
        });
        sim.spawn("receiver", |ctx| {
            // Sleep long enough that all 16 packets arrive before any poll.
            ctx.advance(Dur::ms(1.0));
            let mut got = 0;
            while let Some(_p) = poll_packet(ctx) {
                got += 1;
            }
            assert_eq!(got, 4, "only the FIFO capacity may survive");
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world.adapter_stats(1).dropped_overflow, 12);
    }

    #[test]
    fn lazy_pop_charges_one_pio_per_batch() {
        let mut sim = two_node_sim();
        sim.spawn("sender", |ctx| {
            for i in 0..32u64 {
                write_packet(ctx, 1, 32, i).unwrap();
            }
            ring_doorbell(ctx, 32);
        });
        sim.spawn("receiver", |ctx| {
            // Let all 32 packets land, then drain them back-to-back: the
            // pops must batch (one MicroChannel access per 16 packets).
            ctx.advance(Dur::ms(1.0));
            for _ in 0..32 {
                assert!(poll_packet(ctx).is_some(), "packet should be waiting");
            }
        });
        let report = sim.run().unwrap();
        // 32 packets at the default batch of 16 = exactly 2 lazy pops.
        assert_eq!(report.world.adapter_stats(1).lazy_pops, 2);
    }

    #[test]
    fn idle_poll_flushes_partial_pop_batch() {
        // Consumed-but-unpopped entries hold capacity; an empty poll must
        // release them so a small FIFO cannot wedge at "full".
        let mut sim = Sim::new(
            {
                let mut w: SpWorld<u64> = SpWorld::new(SpConfig::thin(2));
                w.set_recv_capacity(1, 4);
                w
            },
            1,
        );
        sim.spawn("sender", |ctx| {
            // First wave fills the 4-entry FIFO.
            for i in 0..4u64 {
                write_packet(ctx, 1, 16, i).unwrap();
            }
            ring_doorbell(ctx, 4);
            ctx.advance(Dur::ms(1.0));
            // Second wave must be accepted after the receiver drained.
            for i in 4..8u64 {
                write_packet(ctx, 1, 16, i).unwrap();
            }
            ring_doorbell(ctx, 4);
        });
        sim.spawn("receiver", |ctx| {
            ctx.advance(Dur::us(500.0));
            for _ in 0..4 {
                assert!(poll_packet(ctx).is_some());
            }
            // Empty poll flushes the partial pop batch (4 < 16).
            assert!(poll_packet(ctx).is_none());
            // Second wave arrives into the freed capacity.
            for _ in 0..4 {
                let _ = spin_recv(ctx, Dur::us(1.0));
            }
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world.adapter_stats(1).dropped_overflow, 0);
        assert_eq!(report.world.adapter_stats(1).received, 8);
    }

    #[test]
    fn loopback_send_to_self() {
        let mut sim = Sim::new(SpWorld::new(SpConfig::thin(1)), 1);
        sim.spawn("solo", |ctx| {
            send_packet(ctx, 0, 8, 7u64).unwrap();
            let pkt = spin_recv(ctx, Dur::ns(200));
            assert_eq!(pkt.payload, 7);
            assert_eq!(pkt.src, 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn bulk_stream_hits_asymptotic_bandwidth() {
        // 2000 full packets, lengths rung in batches of 8: payload rate must
        // land on the paper's r_inf of ~34.3 MB/s.
        let mut sim = two_node_sim();
        const N: u64 = 2000;
        sim.spawn("sender", |ctx| {
            let mut written = 0u64;
            while written < N {
                let mut batch = 0;
                while batch < 8 && written < N {
                    match write_packet(ctx, 1, crate::MAX_PAYLOAD, written) {
                        Ok(()) => {
                            batch += 1;
                            written += 1;
                        }
                        Err(FifoFull) => break,
                    }
                }
                if batch > 0 {
                    ring_doorbell(ctx, batch);
                } else {
                    ctx.advance(Dur::us(2.0));
                }
            }
        });
        sim.spawn("receiver", |ctx| {
            for _ in 0..N {
                let _ = spin_recv(ctx, Dur::us(0.2));
            }
        });
        let report = sim.run().unwrap();
        let bytes = N * crate::MAX_PAYLOAD as u64;
        let mb_s = bytes as f64 / report.end_time.as_secs() / 1e6;
        assert!(
            (32.0..35.5).contains(&mb_s),
            "asymptotic payload bandwidth {mb_s:.2} MB/s, want ~34.3"
        );
    }
}
