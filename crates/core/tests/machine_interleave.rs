//! Property test for the sans-I/O machine layer: any interleaving of
//! `step` orderings across two independent session pairs must leave
//! each pair exactly where `FramePump::run` leaves an identical twin —
//! same gain, same final working set, same wire bytes, same decode
//! actions. Extends the step-vs-batch equality pinned in
//! `frame_pump.rs` to concurrent sessions.

use bytes::Bytes;
use icd_core::machine::{FramePump, ReceiverMachine, SenderMachine, SessionAction};
use icd_core::{SessionConfig, WorkingSet};
use icd_fountain::EncodedSymbol;
use icd_util::rng::{Rng64, Xoshiro256StarStar};
use proptest::prelude::*;

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

fn overlapping_sets(
    shared: usize,
    receiver_extra: usize,
    sender_extra: usize,
    salt: u64,
) -> (WorkingSet, WorkingSet) {
    let shared_ids = ids(shared, 0xAB ^ salt);
    let r_extra = ids(receiver_extra, 0xCD ^ salt);
    let s_extra = ids(sender_extra, 0xEF ^ salt);
    let receiver =
        WorkingSet::from_symbols(shared_ids.iter().chain(r_extra.iter()).map(|&id| sym(id)));
    let sender =
        WorkingSet::from_symbols(shared_ids.iter().chain(s_extra.iter()).map(|&id| sym(id)));
    (receiver, sender)
}

/// One scenario's reference: its twin pair run to quiescence alone.
struct BatchOutcome {
    gained: u64,
    final_ids: Vec<u64>,
    wire_bytes: u64,
}

fn batch_reference(scenario: &Scenario) -> BatchOutcome {
    let (mut receiver, mut sender) = machines_for(scenario);
    let mut pump = FramePump::new();
    pump.run(&mut receiver, &mut sender).expect("batch run");
    let (to_sender, to_receiver) = pump.wire_bytes();
    BatchOutcome {
        gained: receiver.gained(),
        final_ids: receiver.working().sorted_ids(),
        wire_bytes: to_sender + to_receiver,
    }
}

#[derive(Clone, Copy)]
struct Scenario {
    shared: usize,
    recv_extra: usize,
    send_extra: usize,
    request: u64,
    session_seed: u64,
    sender_seed: u64,
    salt: u64,
}

fn machines_for(scenario: &Scenario) -> (ReceiverMachine, SenderMachine) {
    let (ws, sender_ws) = overlapping_sets(
        scenario.shared,
        scenario.recv_extra,
        scenario.send_extra,
        scenario.salt,
    );
    let config = SessionConfig::new()
        .with_request(scenario.request)
        .with_seed(scenario.session_seed);
    (
        ReceiverMachine::new(ws, config),
        SenderMachine::new(sender_ws, scenario.sender_seed),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_step_interleaving_matches_the_batch_run(
        shared in 50usize..250,
        recv_extra in 5usize..60,
        send_extra in 20usize..120,
        request in 20u64..150,
        salt in any::<u64>(),
        schedule in proptest::collection::vec(any::<bool>(), 0..96),
    ) {
        let scenario_a = Scenario {
            shared,
            recv_extra,
            send_extra,
            request,
            session_seed: 0xA5A5 ^ salt,
            sender_seed: 0x0F0F ^ salt,
            salt,
        };
        // A second, differently shaped pair sharing the scheduler.
        let scenario_b = Scenario {
            shared: shared / 2 + 10,
            recv_extra: send_extra / 2 + 1,
            send_extra: recv_extra + 15,
            request: request / 2 + 5,
            session_seed: 0x5A5A ^ salt,
            sender_seed: 0xF0F0 ^ salt,
            salt: salt.rotate_left(17),
        };
        let expect_a = batch_reference(&scenario_a);
        let expect_b = batch_reference(&scenario_b);

        let (mut recv_a, mut send_a) = machines_for(&scenario_a);
        let (mut recv_b, mut send_b) = machines_for(&scenario_b);
        let mut pump_a = FramePump::new();
        let mut pump_b = FramePump::new();
        let mut actions_a = Vec::new();
        let mut actions_b = Vec::new();
        pump_a.start(&mut recv_a, &mut send_a, &mut actions_a).expect("start a");
        pump_b.start(&mut recv_b, &mut send_b, &mut actions_b).expect("start b");

        // The generated schedule chooses which pair steps next; once it
        // runs out, round-robin until both pairs are quiescent. Each
        // step moves at most one frame per direction, so the schedule
        // genuinely permutes delivery order between the pairs.
        let mut cursor = 0usize;
        let mut guard = 0u32;
        while !(pump_a.is_idle() && pump_b.is_idle()) {
            let pick_a = schedule.get(cursor).copied().unwrap_or(cursor.is_multiple_of(2));
            cursor += 1;
            if pick_a {
                pump_a.step(&mut recv_a, &mut send_a, &mut actions_a).expect("step a");
            } else {
                pump_b.step(&mut recv_b, &mut send_b, &mut actions_b).expect("step b");
            }
            guard += 1;
            prop_assert!(guard < 200_000, "interleaved driver must terminate");
        }

        for (label, recv, pump, actions, expect) in [
            ("a", &recv_a, &pump_a, &actions_a, &expect_a),
            ("b", &recv_b, &pump_b, &actions_b, &expect_b),
        ] {
            prop_assert!(recv.is_finished(), "pair {label} unfinished");
            prop_assert_eq!(recv.gained(), expect.gained, "gain mismatch in pair {}", label);
            prop_assert_eq!(
                &recv.working().sorted_ids(),
                &expect.final_ids,
                "working-set mismatch in pair {}",
                label
            );
            let (to_sender, to_receiver) = pump.wire_bytes();
            prop_assert_eq!(
                to_sender + to_receiver,
                expect.wire_bytes,
                "wire-byte mismatch in pair {}",
                label
            );
            // SymbolDecoded actions enumerate exactly the gained ids.
            let decoded = actions
                .iter()
                .filter(|a| matches!(a, SessionAction::SymbolDecoded(_)))
                .count() as u64;
            prop_assert_eq!(decoded, expect.gained, "decode actions in pair {}", label);
        }
    }
}
