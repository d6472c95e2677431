//! The send calendar: the tick at which each live link takes its next
//! send opportunity.
//!
//! Send opportunities recur on a fixed per-link cadence of a few ticks,
//! so the calendar is a timing wheel rather than a comparison heap:
//! [`WHEEL`] per-tick bitsets over link indices, covering the ticks
//! `[cursor, cursor + WHEEL)`. Draining one tick's bitset word by word in
//! `trailing_zeros` order visits its links in index order — link-creation
//! order, which is exactly the tick semantics the parity goldens pin.
//! Cadences that reach past the wheel wait in a small overflow heap and
//! move into the wheel once the cursor brings them within range.
//!
//! Every link has at most one entry, due at its `next_send`, so removal
//! is eager and exact: no dead entries ever surface.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::net::Time;

/// Ticks the wheel covers; one bit of the slot-occupancy word per tick.
pub(crate) const WHEEL: Time = u64::BITS as Time;

/// A timing wheel of due links (see the module docs).
#[derive(Debug)]
pub(crate) struct SendCalendar {
    /// `WHEEL` bitsets over link indices, slot `t % WHEEL` for tick `t`.
    slots: Vec<Vec<u64>>,
    /// Entries per slot.
    counts: [u32; WHEEL as usize],
    /// Bit `s` is set iff slot `s` holds an entry.
    occupied: u64,
    /// First tick the wheel covers. Wheel entries are due in
    /// `[cursor, cursor + WHEEL)`, overflow entries at or after
    /// `cursor + WHEEL`.
    cursor: Time,
    /// Word of the cursor's slot below which it is known to be empty.
    drain_word: usize,
    /// `(due, link)` entries beyond the wheel's reach.
    overflow: BinaryHeap<Reverse<(Time, u32)>>,
}

impl SendCalendar {
    pub(crate) fn new() -> Self {
        Self {
            slots: vec![Vec::new(); WHEEL as usize],
            counts: [0; WHEEL as usize],
            occupied: 0,
            cursor: 0,
            drain_word: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Books `link` to send at tick `due` (never before the cursor).
    pub(crate) fn push(&mut self, due: Time, link: u32) {
        debug_assert!(due >= self.cursor, "cannot book a send in the past");
        if due - self.cursor >= WHEEL {
            self.overflow.push(Reverse((due, link)));
            return;
        }
        let slot = (due % WHEEL) as usize;
        let (word, bit) = (link as usize / 64, link % 64);
        let bits = &mut self.slots[slot];
        if bits.len() <= word {
            bits.resize(word + 1, 0);
        }
        debug_assert_eq!(bits[word] >> bit & 1, 0, "link {link} booked twice");
        bits[word] |= 1 << bit;
        self.counts[slot] += 1;
        self.occupied |= 1 << slot;
        if due == self.cursor {
            self.drain_word = self.drain_word.min(word);
        }
    }

    /// Cancels `link`'s booking at tick `due`.
    pub(crate) fn remove(&mut self, due: Time, link: u32) {
        if due - self.cursor >= WHEEL {
            let before = self.overflow.len();
            self.overflow.retain(|&Reverse(entry)| entry != (due, link));
            debug_assert_eq!(
                self.overflow.len() + 1,
                before,
                "link {link} was not booked"
            );
            return;
        }
        let slot = (due % WHEEL) as usize;
        let (word, bit) = (link as usize / 64, link % 64);
        let bits = &mut self.slots[slot];
        debug_assert!(
            bits.get(word).is_some_and(|w| w >> bit & 1 == 1),
            "link {link} was not booked at {due}"
        );
        bits[word] &= !(1 << bit);
        self.release(slot);
    }

    /// The earliest tick with a booked link, if any.
    pub(crate) fn next_due(&self) -> Option<Time> {
        if self.occupied != 0 {
            let ahead = self.occupied.rotate_right((self.cursor % WHEEL) as u32);
            return Some(self.cursor + Time::from(ahead.trailing_zeros()));
        }
        self.overflow.peek().map(|&Reverse((due, _))| due)
    }

    /// Pops the lowest-index link due at tick `t`, moving the wheel to
    /// `t` first. `t` must not skip a booked tick: it is the tick being
    /// executed, at or before [`SendCalendar::next_due`].
    pub(crate) fn pop_due(&mut self, t: Time) -> Option<u32> {
        self.advance(t);
        let slot = (t % WHEEL) as usize;
        if self.occupied >> slot & 1 == 0 {
            return None;
        }
        let bits = &mut self.slots[slot];
        while bits[self.drain_word] == 0 {
            self.drain_word += 1;
        }
        let word = &mut bits[self.drain_word];
        let bit = word.trailing_zeros();
        *word &= *word - 1;
        let link = (self.drain_word * 64) as u32 + bit;
        self.release(slot);
        Some(link)
    }

    /// Moves the cursor to `t` and pulls overflow entries that came
    /// within the wheel's reach into their slots.
    fn advance(&mut self, t: Time) {
        if t == self.cursor {
            return;
        }
        debug_assert!(t > self.cursor, "the calendar never runs backwards");
        debug_assert!(
            self.next_due().is_none_or(|due| due >= t),
            "advancing past a booked tick"
        );
        self.cursor = t;
        self.drain_word = 0;
        while let Some(&Reverse((due, link))) = self.overflow.peek() {
            if due - t >= WHEEL {
                break;
            }
            self.overflow.pop();
            self.push(due, link);
        }
    }

    /// Accounts for one entry leaving `slot`.
    fn release(&mut self, slot: usize) {
        self.counts[slot] -= 1;
        if self.counts[slot] == 0 {
            self.occupied &= !(1 << slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    /// The heap the wheel replaced, as a reference model.
    #[derive(Default)]
    struct Reference(BinaryHeap<Reverse<(Time, u32)>>);

    impl Reference {
        fn next_due(&self) -> Option<Time> {
            self.0.peek().map(|&Reverse((due, _))| due)
        }

        fn pop_due(&mut self, t: Time) -> Option<u32> {
            match self.0.peek() {
                Some(&Reverse((due, link))) if due <= t => {
                    self.0.pop();
                    Some(link)
                }
                _ => None,
            }
        }

        fn remove(&mut self, due: Time, link: u32) {
            self.0.retain(|&Reverse(entry)| entry != (due, link));
        }
    }

    /// Drives the wheel and the reference heap through the engine's
    /// usage pattern — pop everything due, re-book at `t + interval`,
    /// cancel random bookings, install new links, and stop early in
    /// the middle of a tick — and demands identical pop sequences.
    fn differential(seed: u64, steps: usize) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut wheel = SendCalendar::new();
        let mut reference = Reference::default();
        // due tick of each booked link; None once removed or exhausted.
        let mut booked: Vec<Option<Time>> = Vec::new();
        let mut now: Time = 0;
        let interval = |rng: &mut Xoshiro256StarStar| 1 + rng.index(3 * WHEEL as usize) as Time;
        for _ in 0..steps {
            // Topology changes between runs: new links at now + 1,
            // cancellations of any live booking (overflow ones too).
            for _ in 0..rng.index(4) {
                let link = booked.len() as u32;
                booked.push(Some(now + 1));
                wheel.push(now + 1, link);
                reference.0.push(Reverse((now + 1, link)));
            }
            for _ in 0..rng.index(3) {
                let link = rng.index(booked.len().max(1));
                if let Some(Some(due)) = booked.get(link).copied() {
                    wheel.remove(due, link as u32);
                    reference.remove(due, link as u32);
                    booked[link] = None;
                }
            }
            // A run: whole ticks, then an early return mid-slot.
            for _ in 0..rng.index(6) {
                let due = wheel.next_due();
                assert_eq!(due, reference.next_due(), "seed {seed}");
                let Some(t) = due else { break };
                assert!(t >= now);
                now = t;
                let stop_after = (rng.index(4) == 0).then(|| rng.index(4));
                let mut popped = 0;
                loop {
                    if stop_after == Some(popped) {
                        break;
                    }
                    let got = wheel.pop_due(t);
                    assert_eq!(got, reference.pop_due(t), "seed {seed} tick {t}");
                    let Some(link) = got else { break };
                    popped += 1;
                    assert_eq!(booked[link as usize], Some(t));
                    if rng.index(8) == 0 {
                        booked[link as usize] = None; // exhausted
                    } else {
                        let due = t + interval(&mut rng);
                        booked[link as usize] = Some(due);
                        wheel.push(due, link);
                        reference.0.push(Reverse((due, link)));
                    }
                }
            }
        }
        // Drain to the end: the full remaining order must agree too.
        while let Some(t) = reference.next_due() {
            assert_eq!(wheel.next_due(), Some(t));
            while let Some(link) = reference.pop_due(t) {
                assert_eq!(wheel.pop_due(t), Some(link));
            }
            assert_eq!(wheel.pop_due(t), None);
        }
        assert_eq!(wheel.next_due(), None);
    }

    #[test]
    fn wheel_pops_exactly_what_the_reference_heap_pops() {
        for seed in 0..200 {
            differential(seed, 300);
        }
    }

    #[test]
    fn same_tick_drains_in_link_index_order() {
        let mut wheel = SendCalendar::new();
        for link in [130, 3, 64, 0, 63] {
            wheel.push(5, link);
        }
        wheel.push(4, 7);
        assert_eq!(wheel.next_due(), Some(4));
        assert_eq!(wheel.pop_due(4), Some(7));
        assert_eq!(wheel.pop_due(4), None);
        let order: Vec<u32> = std::iter::from_fn(|| wheel.pop_due(5)).collect();
        assert_eq!(order, vec![0, 3, 63, 64, 130]);
        assert_eq!(wheel.next_due(), None);
    }

    #[test]
    fn long_cadences_wait_in_overflow_and_can_be_cancelled() {
        let mut wheel = SendCalendar::new();
        wheel.push(WHEEL, 1); // exactly one wheel-length out: overflow
        wheel.push(3 * WHEEL, 2);
        wheel.push(WHEEL - 1, 3);
        assert_eq!(wheel.overflow.len(), 2);
        assert_eq!(wheel.next_due(), Some(WHEEL - 1));
        assert_eq!(wheel.pop_due(WHEEL - 1), Some(3));
        assert_eq!(wheel.overflow.len(), 1, "tick 64 moved into the wheel");
        wheel.remove(3 * WHEEL, 2);
        assert_eq!(wheel.next_due(), Some(WHEEL));
        assert_eq!(wheel.pop_due(WHEEL), Some(1));
        assert_eq!(wheel.next_due(), None);
    }
}
