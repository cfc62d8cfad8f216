//! SP AM wire format.
//!
//! One [`AmPacket`] rides in one TB2 packet. Protocol bookkeeping (channel,
//! sequence number, piggybacked cumulative ACKs, bulk addressing) lives in
//! the 32-byte adapter header, so a full chunk packet still carries 224
//! payload bytes and the paper's chunk arithmetic (36 × 224 = 8064) holds.
//!
//! A bulk packet's bytes are a [`Payload`]: a range of its transfer's
//! immutable snapshot, shared by reference count. Emitting a packet,
//! saving it for retransmission and retransmitting it copy no bytes, so
//! a packet that crosses engine shards leaves no heap block behind for
//! the other shard's thread to free.

use sp_adapter::MAX_PAYLOAD;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Packets per bulk-transfer chunk (§2.2 footnote: 8064-byte chunks).
pub const CHUNK_PACKETS: usize = 36;
/// Bytes per bulk-transfer chunk.
pub const CHUNK_BYTES: usize = CHUNK_PACKETS * MAX_PAYLOAD;

/// The two independent reliable channels between every node pair.
///
/// Requests (and store/get-request traffic) and replies (and get data)
/// travel on separate sequence spaces with separate windows, the classic
/// Active-Messages deadlock-avoidance split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Requests, store data, get requests. Window: 72 packets.
    Request,
    /// Replies, get data flowing back. Window: 76 packets.
    Reply,
}

impl Channel {
    /// Index (0/1) for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            Channel::Request => 0,
            Channel::Reply => 1,
        }
    }

    /// Both channels.
    pub const BOTH: [Channel; 2] = [Channel::Request, Channel::Reply];
}

/// The bytes of one bulk packet: `data[start..end]` of its transfer's
/// snapshot. Cloning shares the snapshot. Sharing is safe because nothing
/// writes a snapshot once it is taken: the switch's fault kinds drop,
/// delay or duplicate a packet but never rewrite its bytes. Compares and
/// prints as the byte slice it names.
#[derive(Clone)]
pub struct Payload {
    data: Arc<[u8]>,
    start: u32,
    end: u32,
}

impl Payload {
    /// The bytes `range` of `data`. Panics if the range is out of bounds.
    pub fn new(data: Arc<[u8]>, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= data.len(),
            "payload range {range:?} outside a {}-byte snapshot",
            data.len()
        );
        Payload {
            data,
            start: range.start as u32,
            end: range.end as u32,
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.start as usize..self.end as usize]
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

/// Short-message flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShortKind {
    /// A user request/reply carrying a handler and up to 4 words.
    User,
    /// An `am_get` request: the protocol engine on the target streams
    /// `len` bytes from `src_addr` (its memory) back on the reply channel,
    /// landing at `dst_addr` on the requester, whose `handler` then runs.
    GetReq {
        /// Address to read on the *target* node.
        src_addr: u32,
        /// Address to write on the *requesting* node.
        dst_addr: u32,
        /// Transfer length in bytes.
        len: u32,
        /// Requester's transfer handle, echoed in the data packets.
        xfer: u32,
    },
    /// Benchmark-utility barrier token (`go = false`: a hit reported to
    /// node 0; `go = true`: node 0's release broadcast).
    Barrier {
        /// Release flag.
        go: bool,
    },
}

/// Packet body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Request/reply with handler index and argument words.
    Short {
        /// Flavour (user message or get request).
        kind: ShortKind,
        /// Handler table index on the destination (for `GetReq`: on the
        /// *requester*, run when the fetched data has arrived).
        handler: u16,
        /// Number of valid argument words (0..=4).
        nargs: u8,
        /// Argument words.
        args: [u32; 4],
    },
    /// One packet of a bulk transfer (store data, or get data coming back).
    Data {
        /// Destination address on the receiving node.
        addr: u32,
        /// Payload bytes (also implied by `bytes.len()`; kept for symmetry
        /// with the real header's length field).
        len: u16,
        /// Last packet of its chunk (triggers the per-chunk ACK).
        last_of_chunk: bool,
        /// Last packet of the whole transfer (triggers the handler).
        last_of_xfer: bool,
        /// Handler to run on the receiving node when the transfer
        /// completes; `u16::MAX` means none.
        handler: u16,
        /// Handler argument words.
        args: [u32; 4],
        /// Base address of the whole transfer (handler info).
        base_addr: u32,
        /// Total transfer length (handler info).
        total_len: u32,
        /// Issuing node's transfer id: lets an `am_get` requester match the
        /// arriving data to its handle.
        xfer: u32,
        /// The data: a range of the transfer's shared snapshot.
        bytes: Payload,
    },
    /// Explicit acknowledgement (ACK content rides in the shared header
    /// fields `ack_req`/`ack_rep`).
    Ack,
    /// Negative acknowledgement: "I expected sequence `seq` (at `offset`
    /// within its chunk); retransmit from there."
    Nack {
        /// Next sequence number the receiver expects on `chan`.
        seq: u32,
        /// Next in-chunk packet index expected (0 for short messages).
        offset: u32,
        /// `true` when this NACK answers a keep-alive probe rather than an
        /// out-of-order arrival — lets the sender attribute the resulting
        /// retransmissions to the keep-alive path. Rides in a header flag
        /// bit, so the NACK payload stays 8 bytes.
        probe: bool,
    },
    /// Keep-alive probe: the receiver answers with an ACK or NACK
    /// reflecting its current expected sequence number.
    Probe,
}

/// One SP AM packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmPacket {
    /// Which reliable channel this packet belongs to (for control packets:
    /// which channel it talks about).
    pub chan: Channel,
    /// Sequence number (shared by all packets of a chunk); ignored for
    /// control packets.
    pub seq: u32,
    /// In-chunk packet index (0 for shorts and controls).
    pub offset: u32,
    /// Piggybacked cumulative ACK: the sender's next expected sequence
    /// number on its *request* receive channel (i.e. it has every request
    /// packet below this).
    pub ack_req: u32,
    /// Same for the reply channel.
    pub ack_rep: u32,
    /// Sender's incarnation epoch: bumped every time the sending node
    /// crash/restarts, so packets from a dead incarnation are recognizably
    /// stale. `0` forever on the legacy (no-crash) protocol, making the
    /// field invisible to every pre-epoch golden run.
    pub src_epoch: u32,
    /// The sender's view of the *receiver's* incarnation epoch. A receiver
    /// whose own epoch is newer drops the packet as stale and advertises
    /// its current epoch back.
    pub dst_epoch: u32,
    /// Selective-ACK bitmap for the request channel, piggybacked like
    /// `ack_req`: bit `i` set means the receiver fully holds sequence
    /// `ack_req + 1 + i` out of order. All-zero (and ignored) in legacy
    /// go-back-N mode.
    pub sack_req: u64,
    /// Same for the reply channel.
    pub sack_rep: u64,
    /// Body.
    pub body: Body,
}

impl AmPacket {
    /// Payload bytes this packet occupies on the wire (protocol fields ride
    /// in the 32-byte adapter header; see module docs).
    pub fn payload_bytes(&self) -> usize {
        match &self.body {
            Body::Short { nargs, .. } => 12 + 4 * (*nargs as usize),
            Body::Data { bytes, .. } => bytes.len(),
            Body::Ack | Body::Probe => 4,
            Body::Nack { .. } => 8,
        }
    }

    /// Whether this is a control packet (outside the sequence space).
    pub fn is_control(&self) -> bool {
        matches!(self.body, Body::Ack | Body::Nack { .. } | Body::Probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(nargs: u8) -> AmPacket {
        AmPacket {
            chan: Channel::Request,
            seq: 3,
            offset: 0,
            ack_req: 0,
            ack_rep: 0,
            src_epoch: 0,
            dst_epoch: 0,
            sack_req: 0,
            sack_rep: 0,
            body: Body::Short {
                kind: ShortKind::User,
                handler: 1,
                nargs,
                args: [0; 4],
            },
        }
    }

    #[test]
    fn chunk_geometry_matches_paper() {
        assert_eq!(CHUNK_BYTES, 8064);
        assert_eq!(CHUNK_PACKETS, 36);
    }

    #[test]
    fn short_payload_grows_per_word() {
        // 1-word request: 16 payload bytes => 48 wire bytes; each extra
        // word adds 4 bytes.
        assert_eq!(short(1).payload_bytes(), 16);
        assert_eq!(short(4).payload_bytes(), 28);
    }

    #[test]
    fn data_payload_is_byte_count() {
        let p = AmPacket {
            chan: Channel::Request,
            seq: 0,
            offset: 0,
            ack_req: 0,
            ack_rep: 0,
            src_epoch: 0,
            dst_epoch: 0,
            sack_req: 0,
            sack_rep: 0,
            body: Body::Data {
                addr: 0,
                len: 224,
                last_of_chunk: true,
                last_of_xfer: false,
                handler: u16::MAX,
                args: [0; 4],
                base_addr: 0,
                total_len: 8064,
                xfer: 0,
                bytes: Payload::new(vec![0u8; 224].into(), 0..224),
            },
        };
        assert_eq!(p.payload_bytes(), MAX_PAYLOAD);
        assert!(!p.is_control());
    }

    #[test]
    fn payload_clones_share_the_snapshot() {
        let snap: Arc<[u8]> = (0..=255u8).collect::<Vec<u8>>().into();
        let p = Payload::new(snap.clone(), 10..14);
        let q = p.clone();
        assert_eq!(&*q, &[10, 11, 12, 13]);
        assert!(Arc::ptr_eq(&p.data, &q.data), "a clone copied the bytes");
        assert_eq!(Arc::strong_count(&snap), 3);
        assert_eq!(p, Payload::new(vec![9, 10, 11, 12, 13].into(), 1..5));
        assert_eq!(format!("{q:?}"), "[10, 11, 12, 13]");
    }

    #[test]
    fn control_classification() {
        for body in [
            Body::Ack,
            Body::Nack {
                seq: 0,
                offset: 0,
                probe: false,
            },
            Body::Probe,
        ] {
            let p = AmPacket {
                chan: Channel::Reply,
                seq: 0,
                offset: 0,
                ack_req: 0,
                ack_rep: 0,
                src_epoch: 0,
                dst_epoch: 0,
                sack_req: 0,
                sack_rep: 0,
                body,
            };
            assert!(p.is_control());
            assert!(p.payload_bytes() <= 8);
        }
    }

    #[test]
    fn channel_indices() {
        assert_eq!(Channel::Request.idx(), 0);
        assert_eq!(Channel::Reply.idx(), 1);
        assert_eq!(Channel::BOTH.len(), 2);
    }
}
