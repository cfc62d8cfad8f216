//! Protocol statistics, exposed for tests and experiments.

/// Counters kept by each node's [`AmPort`](crate::AmPort).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AmStats {
    /// `am_request_*` calls.
    pub requests_sent: u64,
    /// `am_reply_*` calls.
    pub replies_sent: u64,
    /// `am_store`/`am_store_async` calls.
    pub stores: u64,
    /// `am_get` calls.
    pub gets: u64,
    /// `am_poll` rounds, including the empty ones a waiting loop repeats
    /// in the engine.
    pub polls: u64,
    /// Sequenced packets emitted (first transmissions).
    pub packets_sent: u64,
    /// Packets retransmitted (go-back-N).
    pub packets_retransmitted: u64,
    /// AM packets of any kind popped from the receive FIFO. Balances exactly
    /// against the dispositions: `shorts_delivered + data_packets_delivered
    /// + dup_dropped + ooo_dropped + controls_received`.
    pub packets_received: u64,
    /// Pure control packets received (ACK, NACK, keep-alive probe).
    pub controls_received: u64,
    /// Short messages delivered to handlers.
    pub shorts_delivered: u64,
    /// Bulk data packets whose bytes were written to memory.
    pub data_packets_delivered: u64,
    /// Bulk payload bytes delivered.
    pub bulk_bytes_delivered: u64,
    /// Duplicates dropped by the receiver.
    pub dup_dropped: u64,
    /// Out-of-order packets dropped by the receiver.
    pub ooo_dropped: u64,
    /// Loss NACKs sent (a receiver saw a sequence gap).
    pub nacks_sent: u64,
    /// Loss NACKs received (each triggers a go-back-N).
    pub nacks_received: u64,
    /// Keep-alive probes answered. The answer is a NACK-shaped packet
    /// carrying the expected sequence number, but it is routine chatter,
    /// not a loss report, so it is counted here and not in `nacks_sent`.
    pub probe_answers_sent: u64,
    /// Probe answers received (each may trigger a go-back-N, counted in
    /// `rtx_keepalive`).
    pub probe_answers_received: u64,
    /// Explicit ACK packets sent (piggybacked ACKs are free).
    pub explicit_acks_sent: u64,
    /// Keep-alive probes sent.
    pub probes_sent: u64,
    /// Keep-alive activations (a probe round for outstanding traffic).
    pub keepalive_rounds: u64,
    /// Packets retransmitted because the adaptive RTO expired.
    pub rtx_timeout: u64,
    /// Packets retransmitted to fill a receiver-reported SACK gap.
    pub rtx_sack_gap: u64,
    /// Packets retransmitted in response to a keep-alive probe answer.
    pub rtx_keepalive: u64,
    /// Packets from (or addressed to) a dead incarnation, dropped by the
    /// epoch check before any sequence processing.
    pub stale_dropped: u64,
    /// Out-of-order packets buffered for selective repeat (total ever
    /// buffered; each is delivered later or wiped into `ooo_dropped` by a
    /// crash).
    pub ooo_buffered: u64,
    /// Out-of-order packets currently held in the selective-repeat buffer
    /// (a gauge: zero at quiescence).
    pub ooo_held: u64,
    /// This node's incarnation epoch (a gauge: crash/restart count).
    pub epoch: u64,
    /// Crash/restart cycles this node performed.
    pub restarts: u64,
    /// Exponential-backoff high-water mark across all channels.
    pub backoff_hwm: u64,
    /// Virtual ns from the last restart to the first delivered packet of
    /// the new incarnation (0 until a post-restart delivery happens).
    pub recovery_ns: u64,
}
