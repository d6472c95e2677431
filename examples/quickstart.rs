//! Quickstart: encode a file with the digital fountain, let two peers
//! with partially overlapping working sets reconcile (sketch → plan →
//! summary → informed transfer), and decode the file at the receiver.
//!
//! Run with: `cargo run --release --example quickstart`

use icd_core::{FramePump, ReceiverMachine, SenderMachine, SessionConfig, WorkingSet};
use icd_fountain::{DecodeStatus, Decoder, EncodedSymbol, Encoder};

fn main() {
    // A 256 KB "file" of synthetic content, split into 1400-byte blocks
    // (the paper's block size for its 32 MB reference file).
    let content: Vec<u8> = (0..256 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let encoder = Encoder::for_content(&content, 1400, 42);
    let l = encoder.spec().num_blocks();
    println!("content: {} bytes → {} source blocks of 1400 B", content.len(), l);

    // The universe of encoded symbols floating around the overlay:
    // 1.4·l distinct symbols, produced by one fountain stream.
    let universe: Vec<EncodedSymbol> = encoder.stream(7).take(l * 14 / 10).collect();

    // The receiver holds the first 60 %, the sender the last 60 % —
    // a substantial but incomplete overlap, like two peers that joined
    // a multicast session at different times.
    let cut = universe.len() * 6 / 10;
    let receiver_ws = WorkingSet::from_symbols(universe[..cut].iter().cloned());
    let sender_ws = WorkingSet::from_symbols(universe[universe.len() - cut..].iter().cloned());
    println!(
        "receiver: {} symbols, sender: {} symbols",
        receiver_ws.len(),
        sender_ws.len()
    );

    // One reconciliation session: the receiver's sketch goes out, the
    // plan is scored over the summary registry from the estimated
    // overlap, the winning digest crosses the wire in the generic
    // tagged frame, and the sender streams only symbols the receiver
    // lacks. The two sans-I/O machines exchange real wire frames over
    // the in-memory pump; a socket driver would move the same bytes.
    let config = SessionConfig::new().with_request((l + l / 10) as u64); // ask for everything we might need
    let mut receiver = ReceiverMachine::new(receiver_ws, config);
    let mut sender = SenderMachine::new(sender_ws, 99);
    let mut pump = FramePump::new();
    pump.run(&mut receiver, &mut sender).expect("session");
    let (bytes_to_sender, bytes_to_receiver) = pump.wire_bytes();
    println!(
        "session: plan {:?}, gained {} new symbols ({} B →sender, {} B →receiver)",
        receiver.plan().expect("plan chosen"),
        receiver.gained(),
        bytes_to_sender,
        bytes_to_receiver
    );

    // Decode the file from the receiver's (now larger) working set.
    let mut decoder = Decoder::new(encoder.spec().clone());
    let mut complete = false;
    for symbol in receiver.working().symbols() {
        if matches!(decoder.receive(&symbol), DecodeStatus::Complete) {
            complete = true;
            break;
        }
    }
    assert!(complete, "working set should now suffice to decode");
    let decoded = decoder.into_content(content.len()).expect("complete");
    assert_eq!(decoded, content, "byte-exact reconstruction");
    println!("decoded {} bytes — byte-exact ✓", decoded.len());
}
