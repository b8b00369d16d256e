//! The packet record model.
//!
//! Records mirror what a tcpdump-style capture of an access link yields:
//! timestamped packets with addresses, ports, TCP header fields, and —
//! unlike publicly released traces — *unaltered payloads*. The paper's
//! Hotspot dataset has exactly this shape (`<timestamp, packet>`), and its
//! analyses rely on the sensitive fields (payloads for worm fingerprinting,
//! addresses/ports for stepping stones) that sanitized public traces remove.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// Transport protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
    /// Internet Control Message Protocol.
    Icmp,
    /// Anything else, carrying the raw IP protocol number.
    Other(u8),
}

impl Proto {
    /// IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            Proto::Tcp => 6,
            Proto::Udp => 17,
            Proto::Icmp => 1,
            Proto::Other(n) => n,
        }
    }

    /// Build from an IANA protocol number.
    pub fn from_number(n: u8) -> Self {
        match n {
            6 => Proto::Tcp,
            17 => Proto::Udp,
            1 => Proto::Icmp,
            other => Proto::Other(other),
        }
    }
}

/// TCP header flags, packed into one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN bit.
    pub const FIN: u8 = 0x01;
    /// SYN bit.
    pub const SYN: u8 = 0x02;
    /// RST bit.
    pub const RST: u8 = 0x04;
    /// PSH bit.
    pub const PSH: u8 = 0x08;
    /// ACK bit.
    pub const ACK: u8 = 0x10;

    /// Construct from individual bits.
    pub fn new(syn: bool, ack: bool, fin: bool, rst: bool, psh: bool) -> Self {
        let mut f = 0;
        if syn {
            f |= Self::SYN;
        }
        if ack {
            f |= Self::ACK;
        }
        if fin {
            f |= Self::FIN;
        }
        if rst {
            f |= Self::RST;
        }
        if psh {
            f |= Self::PSH;
        }
        TcpFlags(f)
    }

    /// A plain SYN (connection request).
    pub fn syn() -> Self {
        TcpFlags(Self::SYN)
    }

    /// A SYN-ACK (connection accept).
    pub fn syn_ack() -> Self {
        TcpFlags(Self::SYN | Self::ACK)
    }

    /// A plain ACK.
    pub fn ack() -> Self {
        TcpFlags(Self::ACK)
    }

    /// Whether the SYN bit is set.
    pub fn is_syn(self) -> bool {
        self.0 & Self::SYN != 0
    }

    /// Whether the ACK bit is set.
    pub fn is_ack(self) -> bool {
        self.0 & Self::ACK != 0
    }

    /// Whether the FIN bit is set.
    pub fn is_fin(self) -> bool {
        self.0 & Self::FIN != 0
    }

    /// Whether the RST bit is set.
    pub fn is_rst(self) -> bool {
        self.0 & Self::RST != 0
    }

    /// Whether the PSH bit is set.
    pub fn is_psh(self) -> bool {
        self.0 & Self::PSH != 0
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        for (bit, c) in [
            (Self::SYN, 'S'),
            (Self::ACK, 'A'),
            (Self::FIN, 'F'),
            (Self::RST, 'R'),
            (Self::PSH, 'P'),
        ] {
            if self.0 & bit != 0 {
                out.push(c);
            }
        }
        if out.is_empty() {
            out.push('.');
        }
        f.write_str(&out)
    }
}

/// One captured packet. The `<timestamp, packet>` record of the paper's
/// Hotspot dataset.
///
/// Timestamps are microseconds since the start of the trace: integral
/// timestamps keep generation and analysis exactly reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Packet {
    /// Capture time, microseconds since trace start.
    pub ts_us: u64,
    /// Source IPv4 address (host byte order).
    pub src_ip: u32,
    /// Destination IPv4 address (host byte order).
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Proto,
    /// Total packet length in bytes (header + payload).
    pub len: u16,
    /// TCP flags (zero for non-TCP packets).
    pub flags: TcpFlags,
    /// TCP sequence number (zero for non-TCP).
    pub seq: u32,
    /// TCP acknowledgment number (zero for non-TCP).
    pub ack: u32,
    /// Application payload bytes. Kept verbatim — this is sensitive data the
    /// DP layer is responsible for protecting.
    ///
    /// Immutable and shared: cloning a packet (which every engine barrier
    /// does) bumps a reference count instead of copying the bytes, and
    /// packets carrying the same pooled string share one buffer. Build it
    /// with `.into()` from a `Vec<u8>` or byte slice, or with
    /// [`shared_payload`], which maps every empty payload to one buffer.
    pub payload: Arc<[u8]>,
}

impl Packet {
    /// Capture time in whole milliseconds.
    pub fn ts_ms(&self) -> u64 {
        self.ts_us / 1000
    }

    /// Capture time in seconds as a float (for display only; analysis code
    /// uses the integral microsecond clock).
    pub fn ts_secs(&self) -> f64 {
        self.ts_us as f64 / 1e6
    }
}

/// `bytes` as a packet payload. Every empty payload is the same shared
/// buffer, so header-only packets (SYNs, pure ACKs) allocate nothing.
pub fn shared_payload(bytes: &[u8]) -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    if bytes.is_empty() {
        EMPTY.get_or_init(|| Arc::from(bytes)).clone()
    } else {
        Arc::from(bytes)
    }
}

/// Render an IPv4 address stored as a `u32` in dotted-quad form.
pub fn format_ip(ip: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        (ip >> 24) & 0xff,
        (ip >> 16) & 0xff,
        (ip >> 8) & 0xff,
        ip & 0xff
    )
}

/// Parse a dotted-quad IPv4 address into a `u32`. Returns `None` on
/// malformed input.
pub fn parse_ip(s: &str) -> Option<u32> {
    let mut parts = s.split('.');
    let mut ip: u32 = 0;
    for _ in 0..4 {
        let octet: u32 = parts.next()?.parse().ok()?;
        if octet > 255 {
            return None;
        }
        ip = (ip << 8) | octet;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(ip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proto_numbers_round_trip() {
        for p in [Proto::Tcp, Proto::Udp, Proto::Icmp, Proto::Other(89)] {
            assert_eq!(Proto::from_number(p.number()), p);
        }
    }

    #[test]
    fn flags_constructors_and_accessors() {
        assert!(TcpFlags::syn().is_syn());
        assert!(!TcpFlags::syn().is_ack());
        assert!(TcpFlags::syn_ack().is_syn());
        assert!(TcpFlags::syn_ack().is_ack());
        let f = TcpFlags::new(false, true, true, false, true);
        assert!(f.is_ack() && f.is_fin() && f.is_psh());
        assert!(!f.is_syn() && !f.is_rst());
    }

    #[test]
    fn flags_display_is_compact() {
        assert_eq!(TcpFlags::syn_ack().to_string(), "SA");
        assert_eq!(TcpFlags::default().to_string(), ".");
    }

    #[test]
    fn timestamps_convert() {
        let p = Packet {
            ts_us: 1_500_000,
            src_ip: 0,
            dst_ip: 0,
            src_port: 0,
            dst_port: 0,
            proto: Proto::Tcp,
            len: 40,
            flags: TcpFlags::ack(),
            seq: 0,
            ack: 0,
            payload: shared_payload(&[]),
        };
        assert_eq!(p.ts_ms(), 1500);
        assert!((p.ts_secs() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn ip_formatting_round_trips() {
        for s in ["0.0.0.0", "10.1.2.3", "255.255.255.255", "192.168.69.100"] {
            assert_eq!(format_ip(parse_ip(s).unwrap()), s);
        }
    }

    #[test]
    fn ip_parsing_rejects_garbage() {
        assert!(parse_ip("1.2.3").is_none());
        assert!(parse_ip("1.2.3.4.5").is_none());
        assert!(parse_ip("1.2.3.256").is_none());
        assert!(parse_ip("a.b.c.d").is_none());
    }
}
