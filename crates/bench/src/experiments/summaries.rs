//! The multi-mechanism sweep: every registered summary, end to end.
//!
//! The `recon_cost_table` measures the five mechanisms offline; the
//! sweeps here run them *live* — the strategy axis of the
//! [`ExperimentGrid`] is the list of [`SummaryId`]s from the standard
//! registry, and every cell drives the real machinery:
//!
//! * `session_matrix` — one full `ReceiverMachine`/`SenderMachine`
//!   session per cell, the mechanism pinned via the session config's
//!   summary override, the digest crossing the (in-memory) wire in the
//!   generic tagged frame. Columns report recovered fraction of the true
//!   difference and summary bytes shipped.
//! * `overlay_matrix` — the §6.2 Random/summary strategy under each
//!   mechanism in the tick-loop simulator: the paper's Figure-5 shape,
//!   but with the digest pluggable.
//! * `selection_report` — no transfer at all: the mechanism the
//!   policy's scorer picks, at default and at precision knobs, on the
//!   benchmark workloads' links that select one.
//!
//! Adding a mechanism to the registry adds a row to both tables without
//! touching this file — the whole point of the trait API.

use bytes::Bytes;
use icd_core::{
    select_summary, FramePump, PolicyKnobs, ReceiverMachine, SenderMachine, SessionConfig,
    WorkingSet,
};
use icd_fountain::EncodedSymbol;
use icd_overlay::scenario::{ScenarioParams, TwoPeerScenario};
use icd_overlay::strategy::StrategyKind;
use icd_overlay::transfer::run_transfer;
use icd_sketch::{standard_registry, OverlapEstimate, SummaryId, SummarySizing};
use icd_util::rng::{Rng64, Xoshiro256StarStar};
use icd_wire::{Message, FRAME_PREFIX_BYTES};

use crate::config::ExpConfig;
use crate::engine::ExperimentGrid;
use crate::output::{f3, Table};

/// One session-matrix geometry: shared keys, receiver-only keys,
/// sender-only keys (the true difference a mechanism must recover).
#[derive(Debug, Clone, Copy)]
pub struct SessionGeometry {
    /// Row label.
    pub label: &'static str,
    /// Keys held by both peers.
    pub shared: usize,
    /// Keys only the receiver holds.
    pub receiver_extra: usize,
    /// Keys only the sender holds — the transferable difference.
    pub sender_extra: usize,
}

/// The default geometries: a small difference (the ART/RIBLT regime), a
/// moderate one, and a low-correlation one (Bloom territory).
#[must_use]
pub(crate) fn default_geometries() -> Vec<SessionGeometry> {
    vec![
        SessionGeometry {
            label: "d=40 (1.6k shared)",
            shared: 1_600,
            receiver_extra: 0,
            sender_extra: 40,
        },
        SessionGeometry {
            label: "d=150 (1.2k shared)",
            shared: 1_200,
            receiver_extra: 50,
            sender_extra: 150,
        },
        SessionGeometry {
            label: "d=250 (0.8k shared)",
            shared: 800,
            receiver_extra: 50,
            sender_extra: 250,
        },
    ]
}

/// Per-cell result of one pumped session.
#[derive(Debug, Clone, Copy)]
pub struct SessionCellOutcome {
    /// Fraction of the true difference delivered.
    pub recovered: f64,
    /// Encoded summary frame bytes shipped by the receiver.
    pub summary_bytes: usize,
    /// Total control-plane bytes (sketches + summary + request + end).
    pub control_bytes: usize,
}

fn sym(id: u64) -> EncodedSymbol {
    EncodedSymbol {
        id,
        payload: Bytes::from(id.to_le_bytes().to_vec()),
    }
}

/// Runs one pumped session with `mechanism` pinned, returning the cell
/// outcome. Deterministic in (`geometry`, `mechanism`, `seed`).
#[must_use]
pub fn session_cell(
    geometry: &SessionGeometry,
    mechanism: SummaryId,
    seed: u64,
) -> SessionCellOutcome {
    let mut rng = Xoshiro256StarStar::new(seed);
    let shared: Vec<u64> = (0..geometry.shared).map(|_| rng.next_u64()).collect();
    let r_extra: Vec<u64> = (0..geometry.receiver_extra)
        .map(|_| rng.next_u64())
        .collect();
    let s_extra: Vec<u64> = (0..geometry.sender_extra).map(|_| rng.next_u64()).collect();
    let receiver_ws =
        WorkingSet::from_symbols(shared.iter().chain(r_extra.iter()).map(|&id| sym(id)));
    let sender_ws =
        WorkingSet::from_symbols(shared.iter().chain(s_extra.iter()).map(|&id| sym(id)));

    let config = SessionConfig::new()
        .with_request(geometry.sender_extra as u64 * 2)
        .with_summary(mechanism)
        .with_seed(seed ^ 0x5E55);
    let mut session = ReceiverMachine::new(receiver_ws, config);
    let mut sender = SenderMachine::new(sender_ws, seed ^ 0xF00D);

    // Observe the pump to count the control-plane bytes that actually
    // cross the wire, as message bodies (frame minus length prefix).
    // (A RIBLT frame's size depends on the sketch-noisy estimate the
    // *session* made, so only measuring the real frames is honest.)
    let mut summary_bytes = 0usize;
    let mut control_bytes = 0usize;
    FramePump::new()
        .run_observed(&mut session, &mut sender, |frame| {
            let body = &frame[FRAME_PREFIX_BYTES..];
            if Message::is_data_tag(body[0]) {
                return;
            }
            control_bytes += body.len();
            if matches!(Message::decode(body), Ok(Message::Summary { .. })) {
                summary_bytes += body.len();
            }
        })
        .expect("session");

    SessionCellOutcome {
        recovered: session.gained() as f64 / geometry.sender_extra.max(1) as f64,
        summary_bytes,
        control_bytes,
    }
}

/// The session matrix: rows = geometries, columns = registered
/// mechanisms, cell = mean recovered fraction (and the summary bytes the
/// mechanism shipped, in a second table block).
#[must_use]
pub(crate) fn session_matrix(cfg: &ExpConfig) -> Table {
    let geometries = default_geometries();
    let mechanisms = standard_registry().ids();
    let sweep = ExperimentGrid::new(geometries.clone(), mechanisms.clone(), cfg.seeds());
    let results = sweep.run(cfg.threads, |cell| {
        session_cell(cell.scenario, *cell.strategy, cell.seed)
    });

    let mut header: Vec<&str> = vec!["geometry"];
    let labels: Vec<String> = mechanisms.iter().map(|m| m.label().to_string()).collect();
    header.extend(labels.iter().map(String::as_str));
    let mut table = Table::new(
        "Session matrix: fraction of true difference recovered per mechanism (live pump)"
            .to_string(),
        &header,
    );
    let recovered = results.summaries(|o| o.recovered);
    for (si, geometry) in geometries.iter().enumerate() {
        let mut cells = vec![geometry.label.to_string()];
        cells.extend(recovered[si].iter().map(|s| f3(s.mean())));
        table.push_row(cells);
    }
    // Frame bytes measured off the wire, first trial of the middle
    // geometry (RIBLT frames vary with the per-seed sketch estimate,
    // so this is a sample, not a constant).
    let bi = geometries.len() / 2;
    let mut bytes_row = vec![format!("summary bytes ({})", geometries[bi].label)];
    for (gi, _) in mechanisms.iter().enumerate() {
        bytes_row.push(format!("{}", results.point(bi, gi)[0].summary_bytes));
    }
    table.push_row(bytes_row);
    table
}

/// Appends a per-mechanism completion row so stalls (an approximate
/// digest withholding too much, a RIBLT prefix that did not peel) are
/// reported rather than silently folded into the overhead averages.
fn push_completion_row(
    table: &mut Table,
    results: &crate::engine::GridResults<(bool, f64)>,
    scenarios: usize,
    mechanisms: usize,
) {
    let mut row = vec!["completed".to_string()];
    for gi in 0..mechanisms {
        let mut done = 0usize;
        let mut total = 0usize;
        for si in 0..scenarios {
            for &(completed, _) in results.point(si, gi) {
                total += 1;
                done += usize::from(completed);
            }
        }
        row.push(format!("{done}/{total}"));
    }
    table.push_row(row);
}

/// The overlay matrix: the Random/summary strategy of §6.2 under every
/// registered mechanism, on one compact two-peer scenario — overhead
/// (packets per needed symbol) per mechanism, Figure-5 style.
#[must_use]
pub(crate) fn overlay_matrix(cfg: &ExpConfig) -> Table {
    let blocks = cfg.num_blocks;
    let mechanisms = standard_registry().ids();
    let correlations = vec![0.0, 0.2, 0.4];
    let sweep = ExperimentGrid::new(correlations.clone(), mechanisms.clone(), cfg.seeds());
    let results = sweep.run(cfg.threads, |cell| {
        let params = ScenarioParams::compact(blocks, cell.seed);
        let scenario = TwoPeerScenario::build(&params, *cell.scenario);
        let outcome = run_transfer(
            &scenario,
            StrategyKind::RandomSummary(*cell.strategy),
            cell.seed ^ 0x5A5A,
        );
        (outcome.completed, outcome.overhead())
    });

    let mut header: Vec<&str> = vec!["correlation"];
    let labels: Vec<String> = mechanisms
        .iter()
        .map(|m| StrategyKind::RandomSummary(*m).label().to_string())
        .collect();
    header.extend(labels.iter().map(String::as_str));
    let mut table = Table::new(
        format!("Overlay matrix: Random/summary overhead per mechanism (compact, n={blocks})"),
        &header,
    );
    let overheads = results.summaries(|&(_, v)| v);
    for (si, c) in correlations.iter().enumerate() {
        let mut cells = vec![f3(*c)];
        for (gi, s) in overheads[si].iter().enumerate() {
            // A mechanism that never completed moved (almost) nothing;
            // its overhead mean would print as a flattering 0.000 —
            // render the stall explicitly instead.
            let any_completed = results.point(si, gi).iter().any(|&(done, _)| done);
            cells.push(if any_completed {
                f3(s.mean())
            } else {
                "-".to_string()
            });
        }
        table.push_row(cells);
    }
    push_completion_row(&mut table, &results, correlations.len(), mechanisms.len());
    table
}

/// The links of the benchmark workloads whose sessions select a
/// mechanism, as each link first sees them (later rounds only grow the
/// sets): label, receiver symbols, sender symbols, shared symbols.
/// `ring5-*` leechers hold a random share of the universe (37 of 100,
/// 30 of 80), and two shares overlap in share² / universe symbols on
/// average. `file-pair-32m`'s sides hold the first and the last 60 % of
/// a universe of 1.4 l symbols at l = 23 968. `fig5-sweep` and
/// `swarm10k` run fixed Bloom strategies and select nothing; the policy
/// tests pin the synthetic grid.
const SELECTION_LINKS: [(&str, u64, u64, u64); 5] = [
    ("ring5-p16k from seeder", 37, 100, 37),
    ("ring5-p16k from peer", 37, 37, 14),
    ("ring5-p64 from seeder", 30, 80, 30),
    ("ring5-p64 from peer", 30, 30, 11),
    ("file-pair-32m", 20_133, 20_133, 6_711),
];

/// The selection report: per link geometry, the mechanism
/// [`select_summary`] picks from the standard registry at default knobs
/// and at precision knobs (recall ≥ 0.98, compute free — the regime
/// that unlocks the exact mechanisms). The estimate is exact (the true
/// resemblance), so the report shows the scorer, not sketch noise;
/// `none` means no mechanism qualifies and the plan falls back to the
/// speculative transfer.
#[must_use]
pub(crate) fn selection_report() -> Table {
    let precision = PolicyKnobs {
        min_recall: 0.98,
        compute_weight: 0.0,
        ..PolicyKnobs::default()
    };
    let mut table = Table::new(
        "Summary selection: mechanism select_summary picks per link geometry",
        &[
            "geometry",
            "receiver",
            "sender",
            "resemblance",
            "default",
            "precision",
        ],
    );
    for (label, a, b, shared) in SELECTION_LINKS {
        let r = shared as f64 / (a + b - shared) as f64;
        let estimate = OverlapEstimate::from_resemblance(r, a, b);
        let pick = |knobs: &PolicyKnobs| {
            select_summary(
                &estimate,
                knobs,
                &SummarySizing::default(),
                standard_registry(),
            )
            .map_or("none", SummaryId::label)
            .to_string()
        };
        let default = pick(&PolicyKnobs::default());
        let row = vec![
            label.to_string(),
            a.to_string(),
            b.to_string(),
            f3(r),
            default,
            pick(&precision),
        ];
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_per_mechanism_recovers_something() {
        // The CI grid smoke in miniature: one cell per registered id.
        let geometry = SessionGeometry {
            label: "smoke",
            shared: 400,
            receiver_extra: 20,
            sender_extra: 60,
        };
        for mechanism in standard_registry().ids() {
            let out = session_cell(&geometry, mechanism, 0xC0FFEE);
            assert!(out.recovered > 0.0, "{mechanism} moved nothing end-to-end");
            assert!(out.recovered <= 1.0 + 1e-9);
            assert!(out.summary_bytes > 0);
            assert!(out.control_bytes > out.summary_bytes);
        }
    }

    #[test]
    fn exact_mechanisms_recover_everything() {
        let geometry = SessionGeometry {
            label: "exact",
            shared: 500,
            receiver_extra: 30,
            sender_extra: 80,
        };
        for mechanism in [SummaryId::WHOLE_SET, SummaryId::RIBLT] {
            let out = session_cell(&geometry, mechanism, 7);
            assert!(
                (out.recovered - 1.0).abs() < 1e-9,
                "{mechanism} recovered only {}",
                out.recovered
            );
        }
    }
}
