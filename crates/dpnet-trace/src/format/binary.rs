//! Compact binary trace encoding.
//!
//! Layout:
//!
//! ```text
//! [ MAGIC (4 bytes) ][ VERSION (1) ][ count (u64 LE) ]
//! count × [ ts_us u64 | src u32 | dst u32 | sport u16 | dport u16
//!         | proto u8 | flags u8 | len u16 | seq u32 | ack u32
//!         | payload_len u32 | payload bytes ]
//! ```
//!
//! All integers little-endian. The format is deliberately boring: it exists
//! so generated traces can be cached between harness runs and shipped
//! between the generator and analysis sides without re-generation.

use crate::packet::{shared_payload, Packet, Proto, TcpFlags};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::io::{Read, Write};

/// File magic: "DPNT".
pub const MAGIC: [u8; 4] = *b"DPNT";
/// Current format version.
pub const VERSION: u8 = 1;

/// Errors from reading or writing the trace format.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The header magic did not match.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u8),
    /// The payload or record data was truncated.
    Truncated,
    /// A payload length field exceeded the sanity limit.
    OversizedPayload(u32),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "I/O error: {e}"),
            FormatError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            FormatError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FormatError::Truncated => write!(f, "truncated trace file"),
            FormatError::OversizedPayload(n) => write!(f, "payload length {n} exceeds limit"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// Refuse payloads above 1 MiB: generated traces use short payloads, and the
/// limit keeps a corrupted length field from causing an absurd allocation.
const MAX_PAYLOAD: u32 = 1 << 20;

/// Serialize a trace to a writer.
pub fn write_trace<W: Write>(mut w: W, packets: &[Packet]) -> Result<(), FormatError> {
    let mut buf = BytesMut::with_capacity(16 + packets.len() * 40);
    buf.put_slice(&MAGIC);
    buf.put_u8(VERSION);
    buf.put_u64_le(packets.len() as u64);
    for p in packets {
        buf.put_u64_le(p.ts_us);
        buf.put_u32_le(p.src_ip);
        buf.put_u32_le(p.dst_ip);
        buf.put_u16_le(p.src_port);
        buf.put_u16_le(p.dst_port);
        buf.put_u8(p.proto.number());
        buf.put_u8(p.flags.0);
        buf.put_u16_le(p.len);
        buf.put_u32_le(p.seq);
        buf.put_u32_le(p.ack);
        buf.put_u32_le(p.payload.len() as u32);
        buf.put_slice(&p.payload);
        // Flush periodically so huge traces do not hold 2× memory.
        if buf.len() > 1 << 20 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Deserialize a trace from a reader.
pub fn read_trace<R: Read>(mut r: R) -> Result<Vec<Packet>, FormatError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let mut buf = Bytes::from(raw);
    if buf.remaining() < 13 {
        return Err(FormatError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(FormatError::BadMagic(magic));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(FormatError::BadVersion(version));
    }
    let count = buf.get_u64_le() as usize;
    let mut packets = Vec::with_capacity(count.min(1 << 24));
    for _ in 0..count {
        // Fixed part: 8+4+4+2+2+1+1+2+4+4+4 = 36 bytes.
        if buf.remaining() < 36 {
            return Err(FormatError::Truncated);
        }
        let ts_us = buf.get_u64_le();
        let src_ip = buf.get_u32_le();
        let dst_ip = buf.get_u32_le();
        let src_port = buf.get_u16_le();
        let dst_port = buf.get_u16_le();
        let proto = Proto::from_number(buf.get_u8());
        let flags = TcpFlags(buf.get_u8());
        let len = buf.get_u16_le();
        let seq = buf.get_u32_le();
        let ack = buf.get_u32_le();
        let plen = buf.get_u32_le();
        if plen > MAX_PAYLOAD {
            return Err(FormatError::OversizedPayload(plen));
        }
        if buf.remaining() < plen as usize {
            return Err(FormatError::Truncated);
        }
        let payload = shared_payload(&buf.as_slice()[..plen as usize]);
        buf.advance(plen as usize);
        packets.push(Packet {
            ts_us,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
            len,
            flags,
            seq,
            ack,
            payload,
        });
    }
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packets() -> Vec<Packet> {
        vec![
            Packet {
                ts_us: 123,
                src_ip: 0x0a000001,
                dst_ip: 0x0a000002,
                src_port: 40000,
                dst_port: 80,
                proto: Proto::Tcp,
                len: 60,
                flags: TcpFlags::syn(),
                seq: 1000,
                ack: 0,
                payload: vec![].into(),
            },
            Packet {
                ts_us: 456,
                src_ip: 0x0a000002,
                dst_ip: 0x0a000001,
                src_port: 80,
                dst_port: 40000,
                proto: Proto::Udp,
                len: 1492,
                flags: TcpFlags::default(),
                seq: 0,
                ack: 0,
                payload: b"GET / HTTP/1.1".to_vec().into(),
            },
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        let pkts = sample_packets();
        let mut buf = Vec::new();
        write_trace(&mut buf, &pkts).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, pkts);
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert!(read_trace(&buf[..]).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_packets()).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_trace(&buf[..]),
            Err(FormatError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_packets()).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_trace(&buf[..]),
            Err(FormatError::BadVersion(99))
        ));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_packets()).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(matches!(read_trace(&buf[..]), Err(FormatError::Truncated)));
    }

    #[test]
    fn oversized_payload_length_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_packets()[..1]).unwrap();
        // Record starts at 13; payload_len field is the last 4 bytes of the
        // 36-byte fixed part.
        let plen_off = 13 + 32;
        buf[plen_off..plen_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_trace(&buf[..]),
            Err(FormatError::OversizedPayload(_))
        ));
    }

    #[test]
    fn large_trace_round_trips() {
        let mut pkts = Vec::new();
        for i in 0..10_000u32 {
            pkts.push(Packet {
                ts_us: i as u64,
                src_ip: i,
                dst_ip: !i,
                src_port: (i % 65536) as u16,
                dst_port: 80,
                proto: Proto::Tcp,
                len: 40,
                flags: TcpFlags::ack(),
                seq: i,
                ack: i,
                payload: vec![(i % 256) as u8; (i % 16) as usize].into(),
            });
        }
        let mut buf = Vec::new();
        write_trace(&mut buf, &pkts).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), pkts);
    }
}
