//! Session round-trips over the in-memory `FramePump`: both transfer
//! plans (reconciled and speculative) must carry the receiver to its
//! request target, the plan chosen must match the policy configuration,
//! and — the registry contract — every registered summary mechanism
//! must carry a session end to end when pinned by id.

use bytes::Bytes;
use icd_core::summary::{standard_registry, SummaryId};
use icd_core::{
    FramePump, MachineError, PolicyKnobs, PumpStep, ReceiverMachine, SenderMachine,
    SessionAction, SessionConfig, SessionError, SessionEvent, TransferPlan, WorkingSet,
};
use icd_fountain::EncodedSymbol;
use icd_util::rng::{Rng64, Xoshiro256StarStar};
use icd_wire::framing::write_frame_buf;
use icd_wire::Message;

fn sym(id: u64) -> EncodedSymbol {
    EncodedSymbol {
        id,
        payload: Bytes::from(id.to_le_bytes().to_vec()),
    }
}

fn ids(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Overlapping working sets: receiver holds the first `shared + own`
/// ids, sender holds the `shared` ids plus `fresh` ids of its own.
fn overlapping_sets(shared: usize, receiver_extra: usize, sender_extra: usize) -> (WorkingSet, WorkingSet) {
    let shared_ids = ids(shared, 0xAB);
    let r_extra = ids(receiver_extra, 0xCD);
    let s_extra = ids(sender_extra, 0xEF);
    let receiver = WorkingSet::from_symbols(
        shared_ids.iter().chain(r_extra.iter()).map(|&id| sym(id)),
    );
    let sender = WorkingSet::from_symbols(
        shared_ids.iter().chain(s_extra.iter()).map(|&id| sym(id)),
    );
    (receiver, sender)
}

/// Runs one session to quiescence and returns the receiver machine.
fn run(
    receiver_ws: WorkingSet,
    sender_ws: WorkingSet,
    config: SessionConfig,
    seed: u64,
) -> ReceiverMachine {
    let mut receiver = ReceiverMachine::new(receiver_ws, config);
    let mut sender = SenderMachine::new(sender_ws, seed);
    FramePump::new()
        .run(&mut receiver, &mut sender)
        .expect("clean session");
    receiver
}

#[test]
fn reconciled_plan_reaches_the_request_target() {
    let (receiver_ws, sender_ws) = overlapping_sets(1_500, 300, 600);
    let before = receiver_ws.len();
    let request = 200u64; // comfortably below the true difference (600)
    let config = SessionConfig {
        request,
        knobs: PolicyKnobs {
            fine_grained_capable: true,
            ..PolicyKnobs::default()
        },
        ..SessionConfig::default()
    };
    let session = run(receiver_ws, sender_ws, config, 0x5EED);

    assert!(session.is_done());
    assert!(
        matches!(session.plan(), Some(TransferPlan::Reconciled { .. })),
        "capable peers at this overlap must reconcile, got {:?}",
        session.plan()
    );
    assert!(
        session.gained() >= request,
        "reconciled transfer fell short: gained {} of {request}",
        session.gained()
    );
    assert_eq!(session.working().len() as u64, before as u64 + session.gained());
}

#[test]
fn speculative_plan_reaches_the_target_over_repeated_sessions() {
    // A recoded (speculative) session resolves only the packets whose
    // components land close enough to the receiver's working set, so a
    // single fixed-size request gains a fraction of what it asked for.
    // The protocol's model is repetition: the receiver keeps opening
    // sessions until satisfied. The target here is the full difference.
    let (mut receiver_ws, sender_ws) = overlapping_sets(1_500, 300, 600);
    let start = receiver_ws.len();
    let difference = 600usize;
    // Target: 90 % of the sender's useful symbols. The last few percent
    // are genuinely unreachable by sketches — once the remaining
    // difference is a handful of keys, the min-wise estimate reads
    // "identical" and admission control correctly rejects the session.
    let target = start + difference * 9 / 10;
    let mut first_plan = None;
    for session_no in 1..=60u64 {
        let config = SessionConfig {
            request: 400,
            knobs: PolicyKnobs {
                // A client without fine-grained machinery: policy must
                // fall back to recoded (speculative) transfer.
                fine_grained_capable: false,
                ..PolicyKnobs::default()
            },
            seed: 0x5E55_1014 + session_no,
            ..SessionConfig::default()
        };
        let session = run(receiver_ws, sender_ws.clone(), config, 0xF00D + session_no);
        if first_plan.is_none() {
            first_plan = session.plan();
        }
        let rejected = session.was_rejected();
        receiver_ws = session.into_working();
        if rejected || receiver_ws.len() >= target {
            break;
        }
    }
    assert!(
        matches!(first_plan, Some(TransferPlan::Speculative { .. })),
        "incapable peers must go speculative, got {first_plan:?}"
    );
    assert!(
        receiver_ws.len() >= target,
        "speculative sessions stalled at {} of target {target}",
        receiver_ws.len()
    );
}

#[test]
fn every_registered_summary_carries_a_session_end_to_end() {
    // The acceptance bar for the trait API: whole-set, hash-set,
    // char-poly, bloom, and art all drive the *same* session machines
    // over the *same* generic wire frame, selected purely by SummaryId.
    for mechanism in standard_registry().ids() {
        let (receiver_ws, sender_ws) = overlapping_sets(400, 40, 80);
        let sender_ids: std::collections::HashSet<u64> = sender_ws.ids().collect();
        let before: std::collections::HashSet<u64> = receiver_ws.ids().collect();
        let true_diff = sender_ids.difference(&before).count() as u64;
        let config = SessionConfig::new()
            .with_request(200)
            .with_summary(mechanism)
            .with_seed(0x1D ^ u64::from(mechanism.0));
        let mut session = ReceiverMachine::new(receiver_ws, config);
        let mut sender = SenderMachine::new(sender_ws, 0xBEEF ^ u64::from(mechanism.0));
        FramePump::new()
            .run(&mut session, &mut sender)
            .unwrap_or_else(|e| panic!("{mechanism}: session failed: {e}"));
        assert!(session.is_done(), "{mechanism}: session did not finish");
        assert_eq!(
            session.plan(),
            Some(TransferPlan::Reconciled { summary: mechanism }),
            "{mechanism}: plan must carry the pinned id"
        );
        assert!(
            session.gained() > 0,
            "{mechanism}: no symbols moved end-to-end"
        );
        assert!(
            session.gained() <= true_diff,
            "{mechanism}: gained {} exceeds the true difference {true_diff}",
            session.gained()
        );
        // Exact mechanisms deliver the full difference; approximate ones
        // must clear a usable share (one-sided error only withholds).
        let exact = mechanism == SummaryId::WHOLE_SET || mechanism == SummaryId::CHAR_POLY;
        if exact {
            assert_eq!(
                session.gained(),
                true_diff,
                "{mechanism}: exact mechanism fell short"
            );
        } else {
            assert!(
                session.gained() * 2 >= true_diff,
                "{mechanism}: cleared only {} of {true_diff}",
                session.gained()
            );
        }
        // One-sided error: everything gained came from the sender.
        for id in session.working().ids() {
            if !before.contains(&id) {
                assert!(sender_ids.contains(&id), "{mechanism}: alien symbol {id}");
            }
        }
    }
}

#[test]
fn poll_style_stepping_matches_the_batch_run_exactly() {
    // Twin session pairs: one driven by `run`, one a step at a time.
    // Same actions in the same order, same wire bytes, same plan, same
    // final working set.
    let make = || {
        let (receiver_ws, sender_ws) = overlapping_sets(900, 100, 300);
        let config = SessionConfig::new().with_request(250).with_seed(0xAA);
        (
            ReceiverMachine::new(receiver_ws, config),
            SenderMachine::new(sender_ws, 0xBB),
        )
    };
    let (mut recv_batch, mut send_batch) = make();
    let mut batch = FramePump::new();
    let batch_actions = batch.run(&mut recv_batch, &mut send_batch).expect("batch");

    let (mut recv_step, mut send_step) = make();
    let mut stepped = FramePump::new();
    let mut step_actions = Vec::new();
    stepped
        .start(&mut recv_step, &mut send_step, &mut step_actions)
        .expect("start");
    let mut steps = 0u64;
    while stepped
        .step(&mut recv_step, &mut send_step, &mut step_actions)
        .expect("step")
        == PumpStep::Progressed
    {
        steps += 1;
        assert!(steps < 100_000, "step driver must terminate");
    }
    assert!(stepped.is_idle());
    assert_eq!(step_actions, batch_actions);
    assert_eq!(stepped.wire_bytes(), batch.wire_bytes());
    assert_eq!(recv_step.plan(), recv_batch.plan());
    assert_eq!(recv_step.gained(), recv_batch.gained());
    assert_eq!(recv_step.working().sorted_ids(), recv_batch.working().sorted_ids());
    // Once idle, further steps stay idle without blocking or erroring.
    for _ in 0..3 {
        assert_eq!(
            stepped
                .step(&mut recv_step, &mut send_step, &mut step_actions)
                .expect("idle step"),
            PumpStep::Idle
        );
    }
}

#[test]
fn independent_sessions_interleave_one_frame_at_a_time() {
    // The event-driven shape: a scheduler round-robins single steps of
    // two unrelated sessions. Each must finish exactly as it would have
    // run alone — no cross-talk through the poll API.
    let start = |seed: u64| {
        let (ws, sender_ws) = overlapping_sets(600, 50, 200);
        let config = SessionConfig::new().with_request(150).with_seed(seed);
        (
            ReceiverMachine::new(ws, config),
            SenderMachine::new(sender_ws, seed ^ 0xF0),
        )
    };
    let solo = |seed: u64| {
        let (mut receiver, mut sender) = start(seed);
        FramePump::new().run(&mut receiver, &mut sender).expect("solo");
        (receiver.gained(), receiver.working().len())
    };
    let expect_a = solo(0x01);
    let expect_b = solo(0x02);

    let (mut recv_a, mut send_a) = start(0x01);
    let (mut recv_b, mut send_b) = start(0x02);
    let (mut pump_a, mut pump_b) = (FramePump::new(), FramePump::new());
    let mut actions: Vec<SessionAction> = Vec::new();
    pump_a.start(&mut recv_a, &mut send_a, &mut actions).expect("a");
    pump_b.start(&mut recv_b, &mut send_b, &mut actions).expect("b");
    loop {
        let a = pump_a.step(&mut recv_a, &mut send_a, &mut actions).expect("a");
        let b = pump_b.step(&mut recv_b, &mut send_b, &mut actions).expect("b");
        if a == PumpStep::Idle && b == PumpStep::Idle {
            break;
        }
    }
    assert_eq!((recv_a.gained(), recv_a.working().len()), expect_a);
    assert_eq!((recv_b.gained(), recv_b.working().len()), expect_b);
}

/// A speculative (recoded-stream) config, so the sender serves its own
/// payloads through the `Recoder`.
fn speculative(request: u64) -> SessionConfig {
    SessionConfig::new()
        .with_request(request)
        .with_knobs(PolicyKnobs {
            fine_grained_capable: false,
            ..PolicyKnobs::default()
        })
}

fn is_payload_length(err: &MachineError, expected: usize, got: usize) -> bool {
    matches!(
        err,
        MachineError::Session(SessionError::PayloadLength { expected: e, got: g })
            if (*e, *g) == (expected, got)
    )
}

#[test]
fn short_payload_from_the_peer_is_an_error_not_a_panic() {
    // The receiver holds 8-byte symbols; the sender serves 4-byte ones.
    // The first recoded frame must surface as a typed session error
    // before it can reach the substitution buffer's XOR.
    let (receiver_ws, _) = overlapping_sets(400, 50, 0);
    let short = |id: u64| EncodedSymbol {
        id,
        payload: Bytes::from(id.to_le_bytes()[..4].to_vec()),
    };
    let sender_ws = WorkingSet::from_symbols(
        ids(400, 0xAB).into_iter().chain(ids(300, 0x51)).map(short),
    );
    let mut receiver = ReceiverMachine::new(receiver_ws, speculative(100));
    let mut sender = SenderMachine::new(sender_ws, 3);
    let err = FramePump::new()
        .run(&mut receiver, &mut sender)
        .expect_err("mismatched payloads must fail the session");
    assert!(is_payload_length(&err, 8, 4), "got {err:?}");
    assert!(matches!(receiver.plan(), Some(TransferPlan::Speculative { .. })));
    assert_eq!(receiver.gained(), 0);
}

#[test]
fn first_received_symbol_fixes_the_length_of_an_empty_receiver() {
    // With nothing held, the first data frame sets the symbol length and
    // a later frame that differs is rejected.
    let frame = |msg: &Message| {
        let mut out = Vec::new();
        write_frame_buf(&mut out, msg, &mut Vec::new()).expect("frame");
        SessionEvent::FrameReceived(Bytes::from(out))
    };
    let peer = WorkingSet::from_symbols(ids(200, 0x77).into_iter().map(sym));
    let mut receiver = ReceiverMachine::new(WorkingSet::new(), speculative(10));
    receiver.handle(SessionEvent::PeerConnected).expect("connect");
    receiver
        .handle(frame(&Message::Minwise(peer.sketch().clone())))
        .expect("peer sketch");
    let first = Message::EncodedSymbol {
        id: 5,
        payload: Bytes::from(vec![0xAA; 8]),
    };
    let actions = receiver.handle(frame(&first)).expect("first symbol accepted");
    assert_eq!(actions, vec![SessionAction::SymbolDecoded(5)]);
    let second = Message::RecodedSymbol {
        components: vec![5, 6],
        payload: Bytes::from(vec![0x55; 4]),
    };
    let err = receiver.handle(frame(&second)).expect_err("short payload");
    assert!(is_payload_length(&err, 8, 4), "got {err:?}");
    assert_eq!(receiver.gained(), 1);
    assert_eq!(receiver.working().len(), 1);
}

#[test]
fn both_plans_deliver_only_authentic_novel_symbols() {
    for fine_grained in [true, false] {
        let (receiver_ws, sender_ws) = overlapping_sets(800, 150, 400);
        let before: std::collections::HashSet<u64> = receiver_ws.ids().collect();
        let sender_ids: std::collections::HashSet<u64> = sender_ws.ids().collect();
        let config = SessionConfig {
            request: 100,
            knobs: PolicyKnobs {
                fine_grained_capable: fine_grained,
                ..PolicyKnobs::default()
            },
            ..SessionConfig::default()
        };
        let session = run(receiver_ws, sender_ws, config, 7);
        assert!(session.gained() > 0);
        for s in session.working().symbols() {
            if !before.contains(&s.id) {
                assert!(
                    sender_ids.contains(&s.id),
                    "gained symbol {} not from the sender (fine_grained={fine_grained})",
                    s.id
                );
                assert_eq!(
                    s.payload,
                    sym(s.id).payload,
                    "payload corrupted in transit (fine_grained={fine_grained})"
                );
            }
        }
    }
}

#[test]
fn speculative_frames_are_a_function_of_the_seeds() {
    // Two identical speculative exchanges must put the same bytes on the
    // wire: the sender's recoder walks its working set in sorted order,
    // never in hash-map order.
    let exchange = || {
        let receiver_ws = WorkingSet::from_symbols((0..300).map(sym));
        let sender_ws = WorkingSet::from_symbols((150..600).map(sym));
        let mut receiver = ReceiverMachine::new(receiver_ws, speculative(50).with_seed(7));
        let mut sender = SenderMachine::new(sender_ws, 11);
        let mut frames = Vec::new();
        FramePump::new()
            .run_observed(&mut receiver, &mut sender, |frame| frames.push(frame.clone()))
            .expect("clean session");
        assert!(matches!(receiver.plan(), Some(TransferPlan::Speculative { .. })));
        frames
    };
    let first = exchange();
    assert_eq!(first.len(), 54, "card, reply, request, 50 symbols, End");
    assert_eq!(first, exchange());
}

#[test]
fn wire_bytes_count_frames_on_delivery_not_when_queued() {
    let make = || {
        let (receiver_ws, sender_ws) = overlapping_sets(300, 20, 60);
        let config = SessionConfig::new().with_request(60).with_seed(0x51);
        (
            ReceiverMachine::new(receiver_ws, config),
            SenderMachine::new(sender_ws, 0x52),
        )
    };
    // The receiver opens with its calling card and nothing else.
    let (mut twin, _) = make();
    let opening: Vec<usize> = twin
        .handle(SessionEvent::PeerConnected)
        .expect("connect")
        .into_iter()
        .filter_map(|a| match a {
            SessionAction::SendFrame(frame) => Some(frame.len()),
            _ => None,
        })
        .collect();
    let [card_len] = opening[..] else {
        panic!("expected one opening frame, got {opening:?}");
    };

    let (mut receiver, mut sender) = make();
    let mut pump = FramePump::new();
    let mut actions = Vec::new();
    pump.start(&mut receiver, &mut sender, &mut actions)
        .expect("start");
    assert!(!pump.is_idle(), "the card is queued");
    assert_eq!(pump.wire_bytes(), (0, 0), "nothing delivered before a step");
    pump.step(&mut receiver, &mut sender, &mut actions)
        .expect("step");
    assert_eq!(
        pump.wire_bytes(),
        (card_len as u64, 0),
        "the first step delivers the card; the reply waits for the next"
    );
}

/// FNV-1a over every frame the pump delivers, in delivery order across
/// both directions, each frame preceded by its length so boundaries are
/// part of the digest. Returns the plan, the digest, the frame count and
/// the pump's per-direction byte counters.
fn frame_digest(
    receiver_ws: WorkingSet,
    sender_ws: WorkingSet,
    config: SessionConfig,
    seed: u64,
) -> (TransferPlan, u64, usize, (u64, u64)) {
    let mut receiver = ReceiverMachine::new(receiver_ws, config);
    let mut sender = SenderMachine::new(sender_ws, seed);
    let mut pump = FramePump::new();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut frames = 0;
    let mut absorb = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    pump.run_observed(&mut receiver, &mut sender, |frame| {
        absorb(&(frame.len() as u64).to_le_bytes());
        absorb(frame);
        frames += 1;
    })
    .expect("clean session");
    let plan = receiver.plan().expect("plan chosen");
    (plan, hash, frames, pump.wire_bytes())
}

#[test]
fn frame_sequences_are_pinned() {
    // One fixed session per plan, every frame's bytes and the delivery
    // interleaving hashed. The values were recorded when the sender
    // still generated its whole answer up front; a sender that streams
    // must put the identical sequence on the wire.
    let (receiver_ws, sender_ws) = overlapping_sets(600, 80, 240);
    let config = SessionConfig::new().with_request(200).with_seed(0x31);
    let (plan, hash, frames, bytes) = frame_digest(receiver_ws, sender_ws, config, 0x32);
    assert_eq!(plan, TransferPlan::Reconciled { summary: SummaryId::BLOOM });
    assert_eq!((hash, frames, bytes), (5_030_036_419_189_950_874, 205, (1_783, 6_062)));

    let (receiver_ws, sender_ws) = overlapping_sets(600, 80, 240);
    let config = speculative(200).with_seed(0x33);
    let (plan, hash, frames, bytes) = frame_digest(receiver_ws, sender_ws, config, 0x34);
    assert!(matches!(plan, TransferPlan::Speculative { .. }), "got {plan:?}");
    assert_eq!((hash, frames, bytes), (5_184_618_817_629_827_075, 204, (1_062, 32_462)));
}

#[test]
fn sender_yields_its_first_data_frame_before_generating_the_rest() {
    // A speculative request for u64::MAX symbols: a sender that built
    // its whole answer when the request arrived would never return.
    let frames = |actions: Vec<SessionAction>| -> Vec<Bytes> {
        actions
            .into_iter()
            .filter_map(|a| match a {
                SessionAction::SendFrame(frame) => Some(frame),
                _ => None,
            })
            .collect()
    };
    let (receiver_ws, sender_ws) = overlapping_sets(300, 20, 60);
    let mut receiver = ReceiverMachine::new(receiver_ws, speculative(u64::MAX));
    let mut sender = SenderMachine::new(sender_ws, 5);
    let card = frames(receiver.handle(SessionEvent::PeerConnected).expect("connect"));
    assert!(frames(sender.handle(SessionEvent::PeerConnected).expect("connect")).is_empty());
    let [card] = &card[..] else { panic!("one calling card") };
    let reply = frames(sender.handle(SessionEvent::FrameReceived(card.clone())).expect("card"));
    let [reply] = &reply[..] else { panic!("one calling card back") };
    let request = frames(receiver.handle(SessionEvent::FrameReceived(reply.clone())).expect("reply"));
    let [request] = &request[..] else { panic!("a speculative plan sends only the request") };

    let answered = sender.handle(SessionEvent::FrameReceived(request.clone())).expect("request");
    assert!(answered.is_empty(), "the request opens the answer but generates no frame");
    assert!(sender.is_streaming() && !sender.is_finished());
    for _ in 0..3 {
        let mut pulled = Vec::new();
        assert!(sender.next_frame(&mut pulled).expect("pull"));
        let [SessionAction::SendFrame(frame)] = &pulled[..] else {
            panic!("one frame per pull, got {pulled:?}");
        };
        assert!(Message::is_data_tag(frame[4]), "a data frame");
        receiver.handle(SessionEvent::FrameReceived(frame.clone())).expect("ingest");
    }
    assert!(sender.is_streaming() && !sender.is_finished());
}
