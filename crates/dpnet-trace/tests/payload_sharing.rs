//! Packet payloads are shared, immutable buffers: cloning a packet bumps a
//! reference count, every empty payload is one buffer, and sharing changes
//! nothing the persisted formats see.

use dpnet_trace::format::pcap::{read_pcap, write_pcap};
use dpnet_trace::format::text::{read_text, write_text};
use dpnet_trace::format::{read_trace, write_trace};
use dpnet_trace::gen::hotspot::{generate, HotspotConfig};
use dpnet_trace::{shared_payload, Packet, PacketColumns};
use std::sync::{Arc, OnceLock};

/// The default Hotspot trace, generated once for the whole file.
fn hotspot() -> &'static [Packet] {
    static TRACE: OnceLock<Vec<Packet>> = OnceLock::new();
    TRACE.get_or_init(|| generate(HotspotConfig::default()).packets)
}

/// Every empty payload in `packets` is the one shared empty buffer; returns
/// how many there were.
fn assert_empties_shared(packets: &[Packet], what: &str) -> usize {
    let empty = shared_payload(&[]);
    let empties: Vec<&Packet> = packets.iter().filter(|p| p.payload.is_empty()).collect();
    for p in &empties {
        assert!(
            Arc::ptr_eq(&p.payload, &empty),
            "{what}: a fresh empty payload"
        );
    }
    empties.len()
}

#[test]
fn cloning_a_packet_shares_its_payload() {
    let p = hotspot().iter().find(|p| !p.payload.is_empty()).unwrap();
    let q = p.clone();
    assert!(Arc::ptr_eq(&p.payload, &q.payload));
    assert_eq!(&q, p);
}

#[test]
fn generated_packets_share_pooled_and_empty_payloads() {
    let packets = hotspot();
    assert!(assert_empties_shared(packets, "generator") > 10_000);
    // Pooled strings: far fewer distinct buffers than payload-carrying packets.
    let mut buffers: Vec<*const u8> = packets
        .iter()
        .filter(|p| !p.payload.is_empty())
        .map(|p| p.payload.as_ptr())
        .collect();
    let carrying = buffers.len();
    buffers.sort_unstable();
    buffers.dedup();
    assert!(
        buffers.len() < carrying / 2,
        "{} of {carrying}",
        buffers.len()
    );
}

#[test]
fn columnar_rows_share_the_dictionary_buffers() {
    let packets = &hotspot()[..5_000];
    let cols = PacketColumns::from_packets(packets);
    let rows: Vec<Packet> = (0..cols.len()).map(|i| cols.row(i)).collect();
    assert_eq!(rows, packets);
    assert_empties_shared(&rows, "columns");
    for (i, row) in rows.iter().enumerate() {
        let again = cols.row(i);
        assert!(Arc::ptr_eq(&row.payload, &again.payload), "row {i}");
    }
}

#[test]
fn binary_format_round_trips_byte_for_byte() {
    let mut first = Vec::new();
    write_trace(&mut first, hotspot()).unwrap();
    let back = read_trace(&first[..]).unwrap();
    assert_eq!(back, hotspot());
    assert_empties_shared(&back, "binary");
    let mut second = Vec::new();
    write_trace(&mut second, &back).unwrap();
    assert!(first == second, "binary re-encoding differs");
}

#[test]
fn pcap_format_round_trips_byte_for_byte() {
    let mut first = Vec::new();
    write_pcap(&mut first, hotspot()).unwrap();
    let back = read_pcap(&first[..]).unwrap();
    assert_eq!(back, hotspot());
    assert_empties_shared(&back, "pcap");
    let mut second = Vec::new();
    write_pcap(&mut second, &back).unwrap();
    assert!(first == second, "pcap re-encoding differs");
}

#[test]
fn text_format_round_trips_byte_for_byte() {
    let mut first = Vec::new();
    write_text(&mut first, hotspot()).unwrap();
    let back = read_text(&first[..]).unwrap();
    assert_eq!(back, hotspot());
    assert_empties_shared(&back, "text");
    let mut second = Vec::new();
    write_text(&mut second, &back).unwrap();
    assert!(first == second, "text re-encoding differs");
}
