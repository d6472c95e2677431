//! Frame parity: the engine's byte counters are the lengths of real
//! encoded wire frames, not payload approximations.
//!
//! Two invariants pinned here, end to end:
//!
//! 1. For a fixed-seed run, each link's `bytes_sent` equals the summed
//!    `write_frame_buf` lengths of exactly the frames that crossed it
//!    (the frame tap materializes them, so the equality is against real
//!    encoder output, not a second copy of the closed-form arithmetic).
//! 2. The mesh preset's `wire_bytes` outcome is a deterministic golden:
//!    a fixed seed reproduces it exactly, run after run.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use icd_overlay::net::{
    run_mesh_download, ConnectSpec, Link, LinkId, OverlayNet, RunLimit, StopReason,
};
use icd_overlay::scenario::{ScenarioParams, TwoPeerScenario};
use icd_overlay::strategy::StrategyKind;
use icd_overlay::SymbolId;

/// Per-link tap accumulator: (frames, bytes) keyed by link.
type TapLog = Rc<RefCell<HashMap<LinkId, (u64, u64)>>>;

fn install_tap(net: &mut OverlayNet) -> TapLog {
    let log: TapLog = Rc::new(RefCell::new(HashMap::new()));
    let sink = Rc::clone(&log);
    net.set_frame_tap(move |link, frame| {
        let mut map = sink.borrow_mut();
        let entry = map.entry(link).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += frame.len() as u64;
    });
    log
}

/// Invariant 1 on a heterogeneous packet-link mesh: three links with
/// different strategies and profiles (one lossy, so `bytes_sent` must
/// book the dropped frames too), each link's booked bytes equal to the
/// summed lengths of the frames the tap materialized for it.
#[test]
fn per_link_byte_totals_equal_summed_frame_lengths() {
    let params = ScenarioParams::compact(1_200, 0xFACE);
    let scenario = TwoPeerScenario::build(&params, 0.25);
    let mut net = OverlayNet::new(0xF4A3);
    let r = net.add_node(&scenario.receiver_set, scenario.target);
    net.set_observer(r, true);
    let s1 = net.add_seeder(&scenario.sender_set);
    let extra: Vec<SymbolId> = scenario
        .sender_set
        .iter()
        .map(|id| id ^ 0x8000_0000)
        .collect();
    let s2 = net.add_seeder(&extra);
    let more: Vec<SymbolId> = scenario
        .sender_set
        .iter()
        .map(|id| id ^ 0x4000_0000)
        .collect();
    let s3 = net.add_seeder(&more);
    let log = install_tap(&mut net);
    let links = [
        net.connect(
            s1,
            r,
            StrategyKind::Random,
            Link::default(),
            ConnectSpec::seeded(1),
        ),
        net.connect(
            s2,
            r,
            StrategyKind::Recode,
            Link::slower(2),
            ConnectSpec::seeded(2),
        ),
        net.connect(
            s3,
            r,
            StrategyKind::Recode,
            Link::lossy(0.15),
            ConnectSpec::seeded(3),
        ),
    ];
    let stop = net.run(RunLimit::ticks(200_000));
    assert_eq!(stop, StopReason::Completed, "fixed-seed mesh must finish");
    let map = log.borrow();
    for l in links {
        let (frames, bytes) = map.get(&l).copied().unwrap_or((0, 0));
        let (sent, _, _) = net.link_packets(l);
        let (bytes_sent, bytes_delivered) = net.link_wire_bytes(l);
        assert!(frames > 0, "link {} moved no frames", l.0);
        assert_eq!(
            frames, sent,
            "link {}: every frame takes one send slot",
            l.0
        );
        assert_eq!(
            bytes, bytes_sent,
            "link {}: booked bytes != framed bytes",
            l.0
        );
        assert!(
            bytes_delivered <= bytes_sent,
            "link {}: delivered > sent",
            l.0
        );
    }
    // The net-wide counters are exactly the per-link sums.
    let tap_total: u64 = map.values().map(|&(_, b)| b).sum();
    assert_eq!(tap_total, net.wire_bytes_sent());
}

/// Invariant 2: the mesh preset's wire-byte outcome is a fixed-seed
/// golden — two runs agree bit-for-bit, and the counter is strictly
/// larger than the payload floor (frames carry headers; the pre-fix
/// payload arithmetic undercounted 9–11 bytes per frame).
#[test]
fn mesh_preset_wire_bytes_are_a_deterministic_golden() {
    let params = ScenarioParams::compact(1_500, 0xBEAD);
    let run = || run_mesh_download(&params, 3, 0.2, &[Link::default()], true, 0x31337);
    let a = run();
    let b = run();
    assert!(a.transfer.completed);
    assert_eq!(
        a.wire_bytes, b.wire_bytes,
        "mesh wire bytes must be deterministic"
    );
    assert_eq!(a.transfer, b.transfer);
    // Every delivered packet occupies at least a full payload on the
    // wire, plus framing: the honest counter clears the payload floor.
    let payload_floor = a.transfer.packets_from_partial * 1024;
    assert!(
        a.wire_bytes > payload_floor,
        "wire bytes {} must exceed payload floor {payload_floor}",
        a.wire_bytes
    );
}
