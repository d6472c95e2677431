//! Hostile RIBLT bodies reach typed errors, never panics.
//!
//! A summary body arrives from a peer. Every byte string decoded under
//! `SummaryId::RIBLT` must either fail with a `SummaryError` or yield a
//! reconciler whose `missing_at_peer(local)` terminates and returns a
//! sorted, duplicate-free subset of `local`: arbitrary bytes, bodies
//! with a consistent header and garbage cells, every truncation of a
//! valid body, and valid bodies with flipped bits.

use icd_sketch::{standard_registry, DiffEstimate, SummaryError, SummaryId, SummarySizing};
use proptest::prelude::*;

/// Decodes `body` and, if it decodes, checks the reconciler's answer.
fn check(body: &[u8], local: &[u64]) {
    let Ok(reconciler) = standard_registry().decode(SummaryId::RIBLT, body) else {
        return;
    };
    let found = reconciler.missing_at_peer(local);
    assert!(found.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
    assert!(found.iter().all(|k| local.contains(k)), "a subset of local");
}

/// A valid body over `keys`, sized for an estimated difference `delta`.
fn valid_body(keys: &[u64], delta: usize) -> Vec<u8> {
    let est = DiffEstimate {
        summarized: keys.len(),
        searched: keys.len() + delta,
        expected_new: delta,
        expected_delta: delta,
    };
    standard_registry()
        .build(SummaryId::RIBLT, &SummarySizing::default(), &est, keys)
        .expect("registered")
        .encode_body()
}

/// The local set for a body over `keys`: some of its keys plus `extra`.
fn local_for(keys: &[u64], extra: &[u64]) -> Vec<u64> {
    keys.iter().step_by(2).chain(extra).copied().collect()
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_typed(
        body in proptest::collection::vec(any::<u8>(), 0..400),
        local in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        check(&body, &local);
    }

    #[test]
    fn garbage_cells_behind_a_consistent_header_are_typed(
        cells in proptest::collection::vec(any::<u8>(), 0..600),
        local in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let m = cells.len() / 20;
        let mut body = u32::try_from(m).expect("small").to_le_bytes().to_vec();
        body.extend_from_slice(&cells[..m * 20]);
        check(&body, &local);
    }

    #[test]
    fn every_truncation_of_a_valid_body_is_typed(
        keys in proptest::collection::vec(any::<u64>(), 0..60),
        extra in proptest::collection::vec(any::<u64>(), 0..10),
        delta in 0usize..12,
    ) {
        let body = valid_body(&keys, delta);
        let local = local_for(&keys, &extra);
        check(&body, &local);
        for cut in 0..body.len() {
            let truncated = standard_registry().decode(SummaryId::RIBLT, &body[..cut]);
            prop_assert!(matches!(truncated, Err(SummaryError::Malformed(_))), "cut {}", cut);
        }
    }

    #[test]
    fn flipped_bits_in_a_valid_body_are_typed(
        keys in proptest::collection::vec(any::<u64>(), 1..60),
        extra in proptest::collection::vec(any::<u64>(), 0..10),
        delta in 0usize..12,
        flips in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut body = valid_body(&keys, delta);
        for flip in flips {
            let bit = flip % (body.len() as u64 * 8);
            body[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        check(&body, &local_for(&keys, &extra));
    }
}

#[test]
fn declared_cell_count_beyond_the_body_is_malformed() {
    // ~16.7M cells declared, one cell present: rejected on the length
    // check, before anything is sized by the declared count.
    let mut body = 0x00FF_FFFFu32.to_le_bytes().to_vec();
    body.extend_from_slice(&[0u8; 20]);
    assert!(matches!(
        standard_registry().decode(SummaryId::RIBLT, &body),
        Err(SummaryError::Malformed(_))
    ));
}

#[test]
fn a_forged_body_cannot_report_a_key_the_sender_lacks() {
    // Cell by cell, the body codes local ∪ {z} with z counted −1 instead
    // of +1, so the difference peels to z alone, as if the sender held
    // it. The sender must drop a key it does not hold.
    let local: Vec<u64> = (1..=200u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let z = 0xDEAD_BEEF;
    let mut with_z = local.clone();
    with_z.push(z);
    let mut body = valid_body(&with_z, 2);
    let only_z = valid_body(&[z], 2);
    // Layout: a u32 cell count, then per cell a u32 count and two u64s.
    for (cell, z_cell) in body[4..]
        .chunks_exact_mut(20)
        .zip(only_z[4..].chunks_exact(20))
    {
        let count = u32::from_le_bytes(cell[..4].try_into().expect("4 bytes"));
        let z_count = u32::from_le_bytes(z_cell[..4].try_into().expect("4 bytes"));
        let forged = count
            .checked_sub(2 * z_count)
            .expect("every cell z lands in holds local keys");
        cell[..4].copy_from_slice(&forged.to_le_bytes());
    }
    let reconciler = standard_registry()
        .decode(SummaryId::RIBLT, &body)
        .expect("well-formed");
    assert_eq!(reconciler.missing_at_peer(&local), Vec::<u64>::new());
}

#[test]
fn retired_char_poly_id_is_unknown() {
    let body = valid_body(&[1, 2, 3], 2);
    assert_eq!(
        standard_registry().decode(SummaryId(3), &body).map(|_| ()),
        Err(SummaryError::Unknown(SummaryId(3)))
    );
}
