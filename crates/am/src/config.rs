//! SP AM software-cost and protocol configuration.

use sp_sim::Dur;

/// Reliability-layer mode switches and timer parameters.
///
/// The default is the paper's protocol exactly — go-back-N retransmission
/// driven by NACKs and poll-counting keep-alives, no retransmission timer,
/// no selective repeat — so every golden pin and pre-reliability chaos
/// reproducer stays byte-identical. The adaptive extensions layer on top:
///
/// * `adaptive_rto` arms a per-channel retransmission timeout fed by a
///   Jacobson-style SRTT/RTTVAR estimator (Karn's rule: retransmitted
///   packets never produce samples), with exponential backoff capped at
///   `backoff_cap` doublings;
/// * `sack` switches the receiver to selective repeat: out-of-order
///   packets are buffered instead of dropped, a SACK bitmap piggybacks on
///   ACKs, and the sender retransmits only the gap sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Enable the RTT-estimated retransmission timeout.
    pub adaptive_rto: bool,
    /// Enable selective repeat (SACK bitmap + out-of-order buffering);
    /// go-back-N remains the fallback whenever this is off.
    pub sack: bool,
    /// Lower clamp on the computed RTO, virtual ns.
    pub min_rto_ns: u64,
    /// Upper clamp on the (backed-off) RTO, virtual ns.
    pub max_rto_ns: u64,
    /// Timer granularity `g` in `RTO = SRTT + max(g, 4·RTTVAR)`, ns.
    pub granularity_ns: u64,
    /// Maximum exponential-backoff doublings after repeated expiries.
    pub backoff_cap: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            adaptive_rto: false,
            sack: false,
            min_rto_ns: 50_000,
            max_rto_ns: 4_000_000,
            granularity_ns: 10_000,
            backoff_cap: 6,
        }
    }
}

impl ReliabilityConfig {
    /// Both adaptive extensions on, default timer parameters.
    pub fn adaptive() -> Self {
        ReliabilityConfig {
            adaptive_rto: true,
            sack: true,
            ..ReliabilityConfig::default()
        }
    }

    /// `true` when this is exactly the legacy paper protocol.
    pub fn is_legacy(&self) -> bool {
        *self == ReliabilityConfig::default()
    }

    /// Canonical single-line text form (inverse of
    /// [`ReliabilityConfig::from_values`]); the form embedded in chaos
    /// schedule files and hashed into replay reports.
    pub fn format_fields(&self) -> String {
        format!(
            "adaptive_rto {} sack {} min_rto_ns {} max_rto_ns {} granularity_ns {} backoff_cap {}",
            self.adaptive_rto as u32,
            self.sack as u32,
            self.min_rto_ns,
            self.max_rto_ns,
            self.granularity_ns,
            self.backoff_cap,
        )
    }

    /// Parse the `format_fields` form from already-split label/value pairs
    /// (`[v_adaptive, v_sack, v_min, v_max, v_gran, v_cap]`).
    pub fn from_values(v: &[u64]) -> Option<ReliabilityConfig> {
        if v.len() != 6 || v[0] > 1 || v[1] > 1 {
            return None;
        }
        Some(ReliabilityConfig {
            adaptive_rto: v[0] == 1,
            sack: v[1] == 1,
            min_rto_ns: v[2],
            max_rto_ns: v[3],
            granularity_ns: v[4],
            backoff_cap: v[5] as u32,
        })
    }

    /// FNV-1a hash of the canonical text form. Embedded in chaos replay
    /// reports so a schedule replayed under a *different* reliability
    /// configuration fails the byte-compare loudly instead of silently
    /// diverging.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.format_fields().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// SP AM protocol parameters and software costs.
///
/// Protocol constants are the paper's (§2.2); software costs are calibrated
/// to Table 2 (request 7.7–8.2 µs, reply 4.0–4.4 µs, empty poll 1.3 µs,
/// +1.8 µs per received message) and §2.3's 51 µs round trip.
#[derive(Debug, Clone)]
pub struct AmConfig {
    /// Sliding-window size for the request channel, in packets
    /// (≥ 2 chunks = 72, §2.2).
    pub window_request: u32,
    /// Sliding-window size for the reply channel, in packets (76: the extra
    /// slots accommodate start-up request traffic, §2.2).
    pub window_reply: u32,
    /// Receiver issues an explicit ACK once this many packets are received
    /// but unacknowledged ("when one-quarter of the window remains
    /// unacknowledged"). Expressed as a divisor of the window size.
    pub ack_threshold_div: u32,
    /// Packets per bulk-transfer chunk (36 on the SP: 36 × 224 B = 8064 B,
    /// §2.2). Exposed for the chunk-size ablation; the window must hold at
    /// least two chunks.
    pub chunk_packets: u32,
    /// Consecutive unsuccessful polls (with traffic outstanding) before the
    /// keep-alive protocol probes the peer (§2.2: "timeouts are emulated by
    /// counting the number of unsuccessful polls").
    pub keepalive_polls: u32,
    /// CPU cost of the `am_request_*` path beyond the raw hardware
    /// operations (window bookkeeping, sequence stamping, retransmit
    /// buffering).
    pub request_cpu: Dur,
    /// Same for `am_reply_*` (no post-send poll, less bookkeeping).
    pub reply_cpu: Dur,
    /// Extra CPU per argument word beyond the first.
    pub per_word_cpu: Dur,
    /// CPU cost of `am_poll` finding the network empty (minus the hardware
    /// head check charged by the adapter layer).
    pub poll_cpu: Dur,
    /// CPU dispatch cost per received message (header decode, sequence
    /// check, handler dispatch) on top of the adapter's copy-out cost.
    pub dispatch_cpu: Dur,
    /// Cost of taking a receive interrupt (kernel dispatch + context): the
    /// reason the paper analyzes the *polling* mode — AIX interrupt
    /// dispatch dwarfed the 1.3 µs poll. Used by
    /// [`Am::wait_message`](crate::Am::wait_message).
    pub interrupt_cpu: Dur,
    /// Per-bulk-transfer setup cost (`am_store`/`am_get` call overhead).
    pub bulk_setup_cpu: Dur,
    /// Per-packet CPU on the bulk send path beyond the FIFO write
    /// (offset/length arithmetic, window accounting amortized per chunk).
    pub bulk_per_packet_cpu: Dur,
    /// How many packet lengths a bulk sender accumulates per doorbell
    /// (batching the MicroChannel length stores, §2.1).
    pub doorbell_batch: usize,
    /// Reliability-layer mode (legacy go-back-N by default; see
    /// [`ReliabilityConfig`]).
    pub reliability: ReliabilityConfig,
}

impl Default for AmConfig {
    fn default() -> Self {
        AmConfig {
            window_request: 72,
            window_reply: 76,
            ack_threshold_div: 4,
            chunk_packets: crate::CHUNK_PACKETS as u32,
            keepalive_polls: 4096,
            request_cpu: Dur::us(4.3),
            reply_cpu: Dur::us(1.7),
            per_word_cpu: Dur::ns(120),
            poll_cpu: Dur::us(1.2),
            dispatch_cpu: Dur::ns(400),
            interrupt_cpu: Dur::us(35.0),
            bulk_setup_cpu: Dur::us(2.0),
            bulk_per_packet_cpu: Dur::ns(350),
            doorbell_batch: 8,
            reliability: ReliabilityConfig::default(),
        }
    }
}

impl AmConfig {
    /// Explicit-ACK threshold in packets for a window of `window` packets.
    #[inline]
    pub fn ack_threshold(&self, window: u32) -> u32 {
        (window / self.ack_threshold_div).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_protocol() {
        let c = AmConfig::default();
        assert_eq!(c.window_request, 72);
        assert_eq!(c.window_reply, 76);
        // Window must fit at least two chunks for the pipelined chunk
        // protocol (§2.2).
        assert!(c.window_request as usize >= 2 * crate::CHUNK_PACKETS);
        assert_eq!(c.ack_threshold(72), 18);
    }

    #[test]
    fn ack_threshold_never_zero() {
        let c = AmConfig::default();
        assert_eq!(c.ack_threshold(1), 1);
        assert_eq!(c.ack_threshold(3), 1);
    }

    #[test]
    fn reliability_default_is_legacy() {
        assert!(ReliabilityConfig::default().is_legacy());
        assert!(!ReliabilityConfig::adaptive().is_legacy());
        assert!(AmConfig::default().reliability.is_legacy());
    }

    #[test]
    fn reliability_fields_round_trip() {
        for r in [
            ReliabilityConfig::default(),
            ReliabilityConfig::adaptive(),
            ReliabilityConfig {
                adaptive_rto: true,
                sack: false,
                min_rto_ns: 7,
                max_rto_ns: 9_000_000,
                granularity_ns: 1,
                backoff_cap: 11,
            },
        ] {
            let text = r.format_fields();
            let vals: Vec<u64> = text
                .split_whitespace()
                .skip(1)
                .step_by(2)
                .map(|v| v.parse().unwrap())
                .collect();
            assert_eq!(ReliabilityConfig::from_values(&vals), Some(r));
        }
    }

    #[test]
    fn reliability_hash_separates_configs() {
        let legacy = ReliabilityConfig::default().hash();
        let adaptive = ReliabilityConfig::adaptive().hash();
        assert_ne!(legacy, adaptive);
        let mut tweaked = ReliabilityConfig::adaptive();
        tweaked.min_rto_ns += 1;
        assert_ne!(adaptive, tweaked.hash());
        // Stable across calls (pure function of the fields).
        assert_eq!(legacy, ReliabilityConfig::default().hash());
    }
}
