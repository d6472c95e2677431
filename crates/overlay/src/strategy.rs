//! The simulator's side of the §6.2 strategies.
//!
//! The strategies themselves run in `icd-core` ([`StrategyKind`],
//! `StrategySender`): the one sender both the session machines and the
//! engine's packet links drive, each packet link's built from the
//! handshake `OverlayNet::try_connect` derives. What is left here is
//! what only a simulated connection needs: the digital fountain a full
//! peer streams (`FullSender`) and the id bit that keeps its symbols
//! apart from scenario symbols ([`FRESH_ID_BIT`]).

use icd_core::strategy::PacketScratch;

pub use icd_core::strategy::StrategyKind;

/// A *full* sender: holds the whole file and streams fresh encoded
/// symbols from an unbounded universe (the digital fountain). Fresh ids
/// are drawn from a private counter namespace that cannot collide with
/// scenario symbols (which are hashes with the top bit clear).
#[derive(Debug)]
pub(crate) struct FullSender {
    next: u64,
}

/// Tag bit marking full-sender (fresh fountain) symbol ids.
pub const FRESH_ID_BIT: u64 = 1 << 63;

impl FullSender {
    /// Creates a full sender with its own id namespace (`stream` keeps
    /// multiple full senders disjoint).
    #[must_use]
    pub(crate) fn new(stream: u32) -> Self {
        Self {
            next: FRESH_ID_BIT | (u64::from(stream) << 48),
        }
    }

    /// Writes the next fresh symbol (always new to every receiver) into
    /// `out`; a full sender never exhausts.
    pub(crate) fn emit(&mut self, out: &mut PacketScratch) {
        out.set_encoded(self.next);
        self.next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};
    use std::collections::HashSet;

    #[test]
    fn full_sender_never_repeats_and_never_collides() {
        let mut fs = FullSender::new(0);
        let mut fs2 = FullSender::new(1);
        let mut rng = Xoshiro256StarStar::new(13);
        // Scenario ids clear the top bit, so they never collide with
        // fresh ids.
        let scenario_ids: HashSet<u64> =
            (0..1000).map(|_| rng.next_u64() & !FRESH_ID_BIT).collect();
        let mut out = PacketScratch::default();
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            fs.emit(&mut out);
            let id = out.ids()[0];
            assert!(!out.is_recoded());
            assert!(seen.insert(id), "full sender repeated {id}");
            assert!(!scenario_ids.contains(&id), "collided with scenario id");
        }
        fs2.emit(&mut out);
        assert!(!seen.contains(&out.ids()[0]), "streams must be disjoint");
    }
}
