//! Columnar (structure-of-arrays) packet storage with dictionary-encoded
//! payloads.
//!
//! A row-oriented `Vec<Packet>` stores each packet's payload as its own
//! heap allocation, even though real traces — and the Hotspot generator —
//! draw payloads from a small pool of recurring strings (HTTP verbs, worm
//! bodies, pooled application data). [`PacketColumns`] stores each header
//! field in its own contiguous array and replaces every payload with a
//! `u32` code into a [`PayloadDict`] of distinct payloads: a few hundred
//! thousand packets typically need only a few hundred dictionary entries,
//! so the trace shrinks from one allocation per packet to one per *distinct
//! payload*. Each entry is built once; rows materialized from the columns
//! share it (a reference-count bump per row, no byte copy).
//!
//! The columnar form is the storage/interchange layout. The DP engine's
//! operators take row closures, so [`PacketColumns::to_shards`] re-emits
//! rows, chunked into fixed-size `Arc`-shared shards ready for
//! `pinq::Queryable::from_shared_shards`: the decode pass runs once, and
//! every protected view built afterwards shares the shard buffers instead
//! of re-cloning the trace. The flat row order is exactly the source order,
//! so releases over the shards are bit-identical to releases over the
//! original row vector.

use crate::packet::{shared_payload, Packet, Proto, TcpFlags};
use std::collections::HashMap;
use std::sync::Arc;

/// A dictionary of distinct payload byte strings, assigning each a dense
/// `u32` code in first-appearance order.
#[derive(Debug, Clone, Default)]
pub struct PayloadDict {
    codes: HashMap<Arc<[u8]>, u32>,
    table: Vec<Arc<[u8]>>,
}

impl PayloadDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `payload`, returning its code. Re-interning the same bytes
    /// returns the same code; distinct bytes always get distinct codes,
    /// even when they first appear in different shards of a trace.
    pub fn intern(&mut self, payload: &[u8]) -> u32 {
        if let Some(&code) = self.codes.get(payload) {
            return code;
        }
        let code = u32::try_from(self.table.len()).expect("more than 2^32 distinct payloads");
        let shared = shared_payload(payload);
        self.codes.insert(shared.clone(), code);
        self.table.push(shared);
        code
    }

    /// The payload bytes behind `code`.
    ///
    /// # Panics
    /// Panics if `code` was not produced by this dictionary.
    pub fn decode(&self, code: u32) -> &[u8] {
        &self.table[code as usize]
    }

    /// Number of distinct payloads interned.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// Structure-of-arrays packet storage (see the module docs). All column
/// vectors have identical length; row `i` of the logical trace is the
/// `i`-th element of every column.
#[derive(Debug, Clone, Default)]
pub struct PacketColumns {
    /// Capture times, microseconds since trace start.
    pub ts_us: Vec<u64>,
    /// Source IPv4 addresses.
    pub src_ip: Vec<u32>,
    /// Destination IPv4 addresses.
    pub dst_ip: Vec<u32>,
    /// Source ports.
    pub src_port: Vec<u16>,
    /// Destination ports.
    pub dst_port: Vec<u16>,
    /// IANA protocol numbers (see [`Proto::number`]).
    pub proto: Vec<u8>,
    /// Total packet lengths.
    pub len: Vec<u16>,
    /// TCP flag bytes.
    pub flags: Vec<u8>,
    /// TCP sequence numbers.
    pub seq: Vec<u32>,
    /// TCP acknowledgment numbers.
    pub ack: Vec<u32>,
    /// Dictionary codes of each packet's payload.
    pub payload_code: Vec<u32>,
    /// The payload dictionary the codes index into.
    pub dict: PayloadDict,
}

impl PacketColumns {
    /// An empty columnar trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one packet, interning its payload.
    pub fn push(&mut self, p: &Packet) {
        self.ts_us.push(p.ts_us);
        self.src_ip.push(p.src_ip);
        self.dst_ip.push(p.dst_ip);
        self.src_port.push(p.src_port);
        self.dst_port.push(p.dst_port);
        self.proto.push(p.proto.number());
        self.len.push(p.len);
        self.flags.push(p.flags.0);
        self.seq.push(p.seq);
        self.ack.push(p.ack);
        self.payload_code.push(self.dict.intern(&p.payload));
    }

    /// Encode a row-oriented trace, preserving order.
    pub fn from_packets(packets: &[Packet]) -> Self {
        let mut cols = PacketColumns::new();
        cols.ts_us.reserve(packets.len());
        for p in packets {
            cols.push(p);
        }
        cols
    }

    /// Number of packets stored.
    pub fn len(&self) -> usize {
        self.ts_us.len()
    }

    /// Whether the trace holds no packets.
    pub fn is_empty(&self) -> bool {
        self.ts_us.is_empty()
    }

    /// Materialize row `i`. The payload shares the dictionary's buffer.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> Packet {
        Packet {
            ts_us: self.ts_us[i],
            src_ip: self.src_ip[i],
            dst_ip: self.dst_ip[i],
            src_port: self.src_port[i],
            dst_port: self.dst_port[i],
            proto: Proto::from_number(self.proto[i]),
            len: self.len[i],
            flags: TcpFlags(self.flags[i]),
            seq: self.seq[i],
            ack: self.ack[i],
            payload: self.dict.table[self.payload_code[i] as usize].clone(),
        }
    }

    /// Emit the trace as row shards of at most `shard_size` packets each
    /// (the last shard may be shorter), wrapped in `Arc` so protected views
    /// built with `pinq::Queryable::from_shared_shards` share the buffers
    /// instead of re-cloning the trace per experiment run. Flat order is
    /// the source order, so releases over the shards are bit-identical to
    /// releases over the original row vector.
    ///
    /// # Panics
    /// Panics if `shard_size` is zero.
    pub fn to_shards(&self, shard_size: usize) -> Vec<Arc<Vec<Packet>>> {
        assert!(shard_size > 0, "shard_size must be positive");
        let mut shards = Vec::with_capacity(self.len().div_ceil(shard_size));
        let mut i = 0;
        while i < self.len() {
            let hi = (i + shard_size).min(self.len());
            shards.push(Arc::new((i..hi).map(|j| self.row(j)).collect()));
            i = hi;
        }
        shards
    }

    /// Heap bytes held by the column arrays and the payload dictionary —
    /// the number a row layout should be compared against.
    pub fn heap_bytes(&self) -> usize {
        let fixed = self.len()
            * (8 /* ts */ + 4 + 4 /* ips */ + 2 + 2 /* ports */ + 1 /* proto */
                + 2 /* len */ + 1 /* flags */ + 4 + 4 /* seq/ack */ + 4/* code */);
        let dict: usize = self.dict.table.iter().map(|p| p.len()).sum();
        fixed + dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(i: u32, payload: &[u8]) -> Packet {
        Packet {
            ts_us: u64::from(i) * 10,
            src_ip: 0x0a00_0000 | i,
            dst_ip: 0xc0a8_0001,
            src_port: 40_000 + i as u16,
            dst_port: 80,
            proto: if i % 3 == 0 { Proto::Udp } else { Proto::Tcp },
            len: 40 + i as u16,
            flags: TcpFlags::new(i % 2 == 0, true, false, false, i % 5 == 0),
            seq: i * 1000,
            ack: i * 500,
            payload: payload.into(),
        }
    }

    fn pool_trace(n: u32) -> Vec<Packet> {
        let pool: [&[u8]; 3] = [b"GET / HTTP/1.1", b"", b"wormbody"];
        (0..n).map(|i| packet(i, pool[i as usize % 3])).collect()
    }

    #[test]
    fn rows_round_trip_exactly() {
        let packets = pool_trace(50);
        let cols = PacketColumns::from_packets(&packets);
        assert_eq!(cols.len(), 50);
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(&cols.row(i), p, "row {i} diverged");
        }
    }

    #[test]
    fn dictionary_deduplicates_payloads() {
        let cols = PacketColumns::from_packets(&pool_trace(300));
        assert_eq!(cols.dict.len(), 3, "3 distinct payloads in the pool");
        // Same bytes → same code, across the whole trace.
        assert_eq!(cols.payload_code[0], cols.payload_code[3]);
        assert_ne!(cols.payload_code[0], cols.payload_code[1]);
    }

    #[test]
    fn interning_is_stable_and_injective() {
        let mut dict = PayloadDict::new();
        let a = dict.intern(b"alpha");
        let b = dict.intern(b"beta");
        assert_ne!(a, b);
        assert_eq!(dict.intern(b"alpha"), a);
        assert_eq!(dict.decode(a), b"alpha");
        assert_eq!(dict.decode(b), b"beta");
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn shards_preserve_flat_order_for_any_shard_size() {
        let packets = pool_trace(23);
        let cols = PacketColumns::from_packets(&packets);
        for shard_size in [1, 4, 7, 23, 100] {
            let shards = cols.to_shards(shard_size);
            let flat: Vec<Packet> = shards.iter().flat_map(|s| s.iter().cloned()).collect();
            assert_eq!(flat, packets, "shard_size {shard_size}");
            assert!(shards.iter().all(|s| s.len() <= shard_size));
        }
    }

    #[test]
    fn empty_trace_emits_no_shards() {
        let cols = PacketColumns::new();
        assert!(cols.is_empty());
        assert!(cols.to_shards(8).is_empty());
        assert_eq!(cols.heap_bytes(), 0);
    }

    #[test]
    fn columnar_heap_is_smaller_than_row_heap_for_pooled_payloads() {
        let packets = pool_trace(1000);
        let cols = PacketColumns::from_packets(&packets);
        // Rows: every packet re-owns its payload bytes.
        let row_payload_heap: usize = packets.iter().map(|p| p.payload.len()).sum();
        let dict_heap: usize = cols.dict.table.iter().map(|p| p.len()).sum();
        assert!(dict_heap < row_payload_heap / 100);
    }
}
