//! Integration test: the WPA-TKIP attack pipeline across crates — real TKIP
//! encapsulation (`wpa-tkip`), candidate generation (`plaintext-recovery`),
//! Michael inversion (`crypto-prims`) and the Fig. 8 experiment driver
//! (`rc4-attacks`).

use crypto_prims::michael::MichaelKey;
use rc4_attacks::{
    experiments::fig8::{run, Fig8Config, TkipTrafficModel},
    ExperimentContext,
};
use wpa_tkip::{
    injection::{InjectionConfig, InjectionSimulator},
    keymix::mix_key,
    mpdu::{decapsulate, derive_mic_key, encapsulate, FrameAddressing, TRAILER_LEN},
    net::{build_tcp_msdu, Ipv4Header, TcpHeader},
    Tsc,
};

fn addressing() -> FrameAddressing {
    FrameAddressing {
        dst: [0x02, 0x00, 0x00, 0x00, 0x00, 0x01],
        src: [0x02, 0x00, 0x00, 0x00, 0x00, 0x02],
        transmitter: [0x02, 0x00, 0x00, 0x00, 0x00, 0x02],
        priority: 0,
    }
}

/// A full software WPA-TKIP "network": the injected TCP packet round-trips
/// through encapsulation, a genie decryption of one captured frame yields the
/// MIC whose inversion recovers the MIC key, and that key then validates (and
/// can forge) further frames.
#[test]
fn tkip_network_roundtrip_and_mic_key_inversion() {
    let ip = Ipv4Header::tcp([10, 0, 0, 5], [198, 51, 100, 1], 7, 64);
    let tcp = TcpHeader {
        src_port: 40000,
        dst_port: 80,
        seq: 7,
        ack: 9,
        flags: 0x18,
        window: 512,
    };
    let msdu = build_tcp_msdu(&ip, &tcp, b"payload");
    assert_eq!(
        msdu.len(),
        55,
        "7-byte payload places the trailer at position 56"
    );

    let tk = [0x3Cu8; 16];
    let mic_key = MichaelKey {
        l: 0xAABB_CCDD,
        r: 0x0011_2233,
    };
    let mut sim = InjectionSimulator::new(
        tk,
        mic_key,
        addressing(),
        msdu.clone(),
        InjectionConfig {
            retransmission_rate: 0.05,
            loss_rate: 0.02,
            ..InjectionConfig::default()
        },
    )
    .unwrap();
    let captures = sim.capture(100);
    assert_eq!(captures.len(), 100);

    // Every captured frame decapsulates correctly with the network keys.
    for cap in captures.iter().take(5) {
        let mpdu = wpa_tkip::mpdu::EncryptedMpdu {
            tsc: cap.tsc,
            ciphertext: cap.ciphertext.clone(),
        };
        let plain = decapsulate(&tk, mic_key, &addressing(), &mpdu).unwrap();
        assert_eq!(plain, msdu);
    }

    // "Genie" decryption of one frame (the attack's end state): knowing the
    // plaintext trailer, Michael inversion recovers the MIC key.
    let cap = &captures[0];
    let key = mix_key(&tk, &addressing().transmitter, cap.tsc);
    let mut plain = cap.ciphertext.clone();
    rc4::apply(&key, &mut plain).unwrap();
    let mic: [u8; 8] = plain[msdu.len()..msdu.len() + 8].try_into().unwrap();
    let recovered = derive_mic_key(&addressing(), &msdu, &mic);
    assert_eq!(recovered, mic_key);

    // The recovered key forges a brand-new packet the receiver accepts.
    let forged_payload = build_tcp_msdu(&ip, &tcp, b"FORGED!");
    let forged = encapsulate(&tk, recovered, &addressing(), Tsc(0xFFFF), &forged_payload);
    let accepted = decapsulate(&tk, mic_key, &addressing(), &forged).unwrap();
    assert_eq!(accepted, forged_payload);
}

/// The Fig. 8 driver exercises the statistical attack end to end and its output
/// obeys the paper's qualitative relationships.
#[test]
fn fig8_driver_produces_monotone_success_and_trailer_consistency() {
    let config = Fig8Config {
        capture_counts: vec![1 << 9, 1 << 12],
        trials: 4,
        max_candidates: 1 << 10,
        payload_len: 55,
        model: TkipTrafficModel::Synthetic { relative_bias: 0.9 },
        seed: 1,
    };
    let (points, report) = run(&config, &ExperimentContext::new()).unwrap();
    assert_eq!(points.len(), 2);
    assert!(points[1].success_full_list >= points[0].success_full_list);
    for p in &points {
        assert!(p.success_full_list >= p.success_top2);
        assert!(p.success_full_list >= 0.0 && p.success_full_list <= 1.0);
    }
    let text = report.render();
    assert!(text.contains("fig8_fig9"));
    assert!(text.contains("captures"));
    // The trailer the attack searches for is always MIC + ICV = 12 bytes.
    assert_eq!(TRAILER_LEN, 12);
}
