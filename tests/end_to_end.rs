//! End-to-end integration: encode → estimate → reconcile → transfer →
//! decode, across every crate in the workspace.

use icd_core::{FramePump, PolicyKnobs, ReceiverMachine, SenderMachine, SessionConfig, WorkingSet};
use icd_fountain::{DecodeStatus, Decoder, EncodedSymbol, Encoder};
use icd_util::rng::{Rng64, SplitMix64};
use icd_wire::Message;

fn content(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
}

/// Splits a symbol universe into two overlapping working sets.
fn split_universe(
    universe: &[EncodedSymbol],
    receiver_share: f64,
    sender_share: f64,
) -> (WorkingSet, WorkingSet) {
    let r_cut = (universe.len() as f64 * receiver_share) as usize;
    let s_cut = universe.len() - (universe.len() as f64 * sender_share) as usize;
    (
        WorkingSet::from_symbols(universe[..r_cut].iter().cloned()),
        WorkingSet::from_symbols(universe[s_cut..].iter().cloned()),
    )
}

/// Runs one session to quiescence; returns the receiver machine and the
/// framed bytes that crossed `(to_sender, to_receiver)`.
fn run_session(
    receiver_ws: WorkingSet,
    sender_ws: WorkingSet,
    config: SessionConfig,
    seed: u64,
) -> (ReceiverMachine, (u64, u64)) {
    let mut receiver = ReceiverMachine::new(receiver_ws, config);
    let mut sender = SenderMachine::new(sender_ws, seed);
    let mut pump = FramePump::new();
    pump.run(&mut receiver, &mut sender).expect("session");
    (receiver, pump.wire_bytes())
}

/// Feeds a working set to a fresh decoder; returns the content if it
/// suffices.
fn decode(encoder: &Encoder, working: &WorkingSet, len: usize) -> Option<Vec<u8>> {
    let mut decoder = Decoder::new(encoder.spec().clone());
    let complete = working
        .symbols()
        .any(|sym| matches!(decoder.receive(&sym), DecodeStatus::Complete));
    complete.then(|| decoder.into_content(len).expect("complete"))
}

#[test]
fn reconcile_then_decode_byte_exact() {
    let data = content(100_000, 1);
    let encoder = Encoder::for_content(&data, 500, 2);
    let l = encoder.spec().num_blocks();
    let universe: Vec<EncodedSymbol> = encoder.stream(3).take(l * 3 / 2).collect();
    let (receiver_ws, sender_ws) = split_universe(&universe, 0.6, 0.6);

    let config = SessionConfig::new().with_request((l + l / 5) as u64);
    let (session, _) = run_session(receiver_ws, sender_ws, config, 4);
    assert!(session.is_done());
    assert!(session.gained() > 0);

    let decoded = decode(&encoder, session.working(), data.len());
    assert_eq!(decoded, Some(data), "post-reconciliation working set must decode");
}

#[test]
fn transferred_payloads_are_authentic() {
    // Every symbol the receiver gains must be byte-identical to the
    // encoder's ground truth for that id.
    let data = content(30_000, 5);
    let encoder = Encoder::for_content(&data, 300, 6);
    let l = encoder.spec().num_blocks();
    let universe: Vec<EncodedSymbol> = encoder.stream(7).take(l * 2).collect();
    let (receiver_ws, sender_ws) = split_universe(&universe, 0.5, 0.7);
    let before: std::collections::HashSet<u64> = receiver_ws.ids().collect();

    let config = SessionConfig::new().with_request(l as u64);
    let (session, _) = run_session(receiver_ws, sender_ws, config, 8);

    let mut checked = 0;
    for sym in session.working().symbols() {
        if !before.contains(&sym.id) {
            assert_eq!(sym.payload, encoder.symbol(sym.id).payload, "id {}", sym.id);
            checked += 1;
        }
    }
    assert!(checked > 0, "some symbols should have moved");
}

#[test]
fn admission_control_spends_only_control_packets() {
    let data = content(20_000, 9);
    let encoder = Encoder::for_content(&data, 200, 10);
    let universe: Vec<EncodedSymbol> = encoder.stream(11).take(150).collect();
    let a = WorkingSet::from_symbols(universe.iter().cloned());
    let b = WorkingSet::from_symbols(universe.iter().cloned());
    // Three control frames at most: sketch out, sketch back, End.
    let card = Message::Minwise(a.sketch().clone()).frame_len() as u64;
    let bound = 2 * card + Message::End { sent: 0 }.frame_len() as u64;
    let (session, (to_sender, to_receiver)) = run_session(a, b, SessionConfig::default(), 12);
    assert!(session.was_rejected());
    assert_eq!(session.gained(), 0);
    assert!(to_sender + to_receiver <= bound, "rejection must be cheap");
}

#[test]
fn speculative_path_decodes_too() {
    // Weak-client path: recoded symbols only, still ends in a decode.
    let data = content(40_000, 13);
    let encoder = Encoder::for_content(&data, 400, 14);
    let l = encoder.spec().num_blocks();
    let universe: Vec<EncodedSymbol> = encoder.stream(15).take(l * 2).collect();
    let (receiver_ws, sender_ws) = split_universe(&universe, 0.55, 0.9);
    let config = SessionConfig::new()
        .with_request((l * 3) as u64)
        .with_knobs(PolicyKnobs {
            fine_grained_capable: false,
            ..PolicyKnobs::default()
        });
    let (session, _) = run_session(receiver_ws, sender_ws, config, 16);
    assert!(matches!(
        session.plan(),
        Some(icd_core::TransferPlan::Speculative { .. })
    ));
    let decoded = decode(&encoder, session.working(), data.len());
    assert_eq!(decoded, Some(data), "speculative transfer must still enable decode");
}
