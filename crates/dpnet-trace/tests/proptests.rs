//! Property-based tests of the trace substrate: format round-trips for
//! arbitrary packets, TCP interpretation invariants, connection annotation
//! invariants.

use dpnet_trace::connections::annotate_connections;
use dpnet_trace::format::text::{read_text, write_text};
use dpnet_trace::format::{read_trace, write_trace};
use dpnet_trace::packet::{Packet, Proto, TcpFlags};
use dpnet_trace::tcp::{activation_correlation, activations};
use proptest::prelude::*;

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u64..10_000_000_000,
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        0u8..4,
        any::<u16>(),
        0u8..32,
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(
            |(ts_us, src_ip, dst_ip, src_port, dst_port, proto, len, flags, seq, ack, payload)| {
                Packet {
                    ts_us,
                    src_ip,
                    dst_ip,
                    src_port,
                    dst_port,
                    proto: match proto {
                        0 => Proto::Tcp,
                        1 => Proto::Udp,
                        2 => Proto::Icmp,
                        _ => Proto::Other(42),
                    },
                    len,
                    flags: TcpFlags(flags),
                    seq,
                    ack,
                    payload: payload.into(),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_format_round_trips(packets in prop::collection::vec(arb_packet(), 0..50)) {
        let mut buf = Vec::new();
        write_trace(&mut buf, &packets).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        prop_assert_eq!(back, packets);
    }

    #[test]
    fn text_format_round_trips(packets in prop::collection::vec(arb_packet(), 0..50)) {
        let mut buf = Vec::new();
        write_text(&mut buf, &packets).unwrap();
        let back = read_text(&buf[..]).unwrap();
        prop_assert_eq!(back, packets);
    }

    #[test]
    fn truncated_binary_never_panics(
        packets in prop::collection::vec(arb_packet(), 1..20),
        cut in 0usize..200,
    ) {
        let mut buf = Vec::new();
        write_trace(&mut buf, &packets).unwrap();
        let cut = cut.min(buf.len());
        // Must return an error or a (possibly shorter) valid trace, never
        // panic.
        let _ = read_trace(&buf[..cut]);
    }

    #[test]
    fn activations_are_subset_of_packets_and_spaced(
        mut times in prop::collection::vec(0u64..100_000_000, 1..80),
        t_idle in 100_000u64..5_000_000,
    ) {
        times.sort_unstable();
        let packets: Vec<Packet> = times
            .iter()
            .map(|&ts| Packet {
                ts_us: ts,
                src_ip: 1,
                dst_ip: 2,
                src_port: 10,
                dst_port: 22,
                proto: Proto::Tcp,
                len: 60,
                flags: TcpFlags::ack(),
                seq: 0,
                ack: 0,
                payload: vec![1].into(),
            })
            .collect();
        let acts = activations(&packets, t_idle);
        // At least the first packet activates; consecutive activations of
        // the single flow are at least t_idle apart.
        prop_assert!(!acts.is_empty());
        prop_assert_eq!(acts[0].ts_us, times[0]);
        for w in acts.windows(2) {
            prop_assert!(w[1].ts_us - w[0].ts_us >= t_idle);
        }
    }

    #[test]
    fn correlation_is_a_fraction_and_self_correlation_is_full(
        mut a in prop::collection::vec(0u64..1_000_000_000, 1..50),
        delta in 1u64..1_000_000,
    ) {
        a.sort_unstable();
        let c_self = activation_correlation(&a, &a, delta);
        prop_assert!((c_self - 1.0).abs() < 1e-12);
        let c_none = activation_correlation(&a, &[], delta);
        prop_assert_eq!(c_none, 0.0);
    }

    #[test]
    fn decision_tree_always_agrees_with_linear_scan(
        packets in prop::collection::vec(arb_packet(), 0..200),
        leaf_size in 1usize..6,
    ) {
        use dpnet_trace::classify::{example_ruleset, DecisionTree};
        let cls = example_ruleset();
        let tree = DecisionTree::build(cls.clone(), leaf_size, 24);
        for p in &packets {
            prop_assert_eq!(tree.classify(p), cls.classify(p));
        }
    }

    #[test]
    fn connection_annotation_preserves_packets_and_flow_locality(
        packets in prop::collection::vec(arb_packet(), 0..60),
    ) {
        let annotated = annotate_connections(&packets);
        prop_assert_eq!(annotated.len(), packets.len());
        for (cp, p) in annotated.iter().zip(&packets) {
            prop_assert_eq!(&cp.packet, p);
        }
        // Packets of different conversations never share a connection id.
        for i in 0..annotated.len() {
            for j in (i + 1)..annotated.len() {
                let ki = dpnet_trace::FlowKey::of(&annotated[i].packet).canonical();
                let kj = dpnet_trace::FlowKey::of(&annotated[j].packet).canonical();
                if annotated[i].conn_id == annotated[j].conn_id {
                    prop_assert_eq!(ki, kj, "shared conn_id across conversations");
                }
            }
        }
    }
}
