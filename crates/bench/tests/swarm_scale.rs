//! The scale acceptance pin: a seeded power-law swarm with ≥10%
//! membership churn runs to all-nodes-complete through `Swarm::run`,
//! byte-identical whether the grid ran its cells on one worker or
//! eight. This is the geometry the engine's indexed send calendar
//! exists for; the `swarm_events_per_s` probes in `perf_baseline`
//! track its throughput.
//!
//! Node count is `ICD_SCALE` (default 1000, so CI stays fast). The 10k
//! and 100k geometries run locally:
//!
//! ```text
//! ICD_SCALE=100000 cargo test --release -p icd-bench --test swarm_scale
//! ```
//!
//! Scaled runs print the completed-peer count, engine event total, and
//! peak RSS (`icd_bench::peak_rss_mb`), then the engine's byte breakdown
//! (`Swarm::bytes_held`) and the share of the run's `VmHWM` growth it
//! accounts for, so a 100k-node invocation doubles as the
//! memory-footprint report. Up to 20k peers it also asserts that the
//! receivers' known sets stay under 1 KB per node. Churn volume scales
//! with the roster (10% leavers, 1% joins, 2% rewires) and the tick
//! window grows with `peers` so the leave/rejoin schedule stays
//! feasible; all derived assertions are written in terms of `peers`,
//! not literals — the <=65k-only index assumptions that would break
//! here live in no crate of this workspace (peer ids are `usize` end to
//! end, link ids are `u32` slots good to 4 billion), and this test is
//! where that claim is exercised above the 2^16 boundary.

use icd_bench::engine::ExperimentGrid;
use icd_overlay::net::BytesHeld;
use icd_swarm::{run_swarm, ChurnConfig, Swarm, SwarmConfig, SwarmOutcome, TopologyKind};

/// Node count under test: `ICD_SCALE`, default 1000.
fn scale() -> usize {
    std::env::var("ICD_SCALE")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1000)
        .max(3)
}

fn power_law_config(peers: usize) -> SwarmConfig {
    // The churn window stays fixed as the roster grows: run length in
    // ticks is set by the per-peer download (symbols over link rate),
    // not by peer count, so a scale-widened window would schedule most
    // leaves after the swarm has already drained. Volume scales; the
    // time span does not.
    SwarmConfig::new(peers, 48, TopologyKind::PowerLaw { m: 2 }).with_churn(ChurnConfig {
        leave_fraction: 0.10,
        downtime: 30,
        window: (5, 80),
        joins: (peers / 100).max(1),
        rewires: (peers / 50).max(1),
    })
}

fn run_grid(peers: usize, threads: usize) -> Vec<SwarmOutcome> {
    // Two seeds → two cells, so the 8-thread run genuinely schedules
    // cells concurrently.
    let grid = ExperimentGrid::new(vec![()], vec![()], vec![0xA11, 0xA12]);
    grid.run_with_threads(threads, |cell| run_swarm(power_law_config(peers), cell.seed))
        .into_cells()
}

#[test]
fn power_law_swarm_completes_under_churn() {
    let peers = scale();
    // The footprint report runs first and alone: `VmHWM` only rises, so
    // its growth across this one `Swarm::new` + `run` is that run's.
    let before = icd_bench::peak_rss_mb();
    let mut swarm = Swarm::new(power_law_config(peers), 0xA11);
    let out = swarm.run();
    let held = swarm.bytes_held();
    report(peers, &out, before, held);
    assert_scaled(peers, &out);
    if peers <= 20_000 {
        // A peer aims for a few dozen ids: its known set is a scanned id
        // list with headroom, not a hash table, and a peer that takes a
        // last in-flight symbol past its target does not double it.
        let per_node = held.known_sets / out.peers;
        assert!(per_node < 1024, "known side holds {per_node} B per node");
    }
    drop(swarm);
    if peers > 20_000 {
        // The huge geometries run one cell, once — the point is the
        // completion + footprint report, not the thread-parity smoke
        // (pinned below at CI scale).
        return;
    }
    let serial = run_grid(peers, 1);
    let parallel = run_grid(peers, 8);
    assert_eq!(serial, parallel, "1-thread vs 8-thread outcomes diverged");
    assert_eq!(serial[0], out, "the grid's first cell is the reported run");
    for out in &serial {
        assert_scaled(peers, out);
    }
}

fn assert_scaled(peers: usize, out: &SwarmOutcome) {
    assert!(
        out.all_complete(),
        "swarm must run to all-nodes-complete: {}/{} (stop {:?})",
        out.completed,
        out.peers,
        out.stop
    );
    // ≥10% of the eligible (non-seed) peers actually cycled out, and
    // the roster grew by the scheduled joins.
    let eligible = peers - 2;
    assert!(
        u64::from(out.leaves) >= eligible as u64 / 10,
        "only {} leaves of {eligible} eligible",
        out.leaves
    );
    assert!(
        out.peers >= peers + (peers / 100).max(1),
        "joins missing: roster {}",
        out.peers
    );
    assert!(out.rejoins > 0 && out.rewires > 0);
}

/// Prints the completion line and the byte breakdown `held`. `before`
/// is the `VmHWM` read before the swarm was built.
fn report(peers: usize, out: &SwarmOutcome, before: Option<f64>, held: BytesHeld) {
    let peak = icd_bench::peak_rss_mb();
    let rss = peak.map_or_else(|| "n/a".to_string(), |mb| format!("{mb:.1}"));
    println!(
        "ICD_SCALE={peers}: {}/{} complete in {} ticks, {} events, peak RSS {rss} MB",
        out.completed, out.peers, out.ticks, out.events
    );
    let coverage = match (before, peak) {
        (Some(before), Some(peak)) if peak > before => {
            let held_mb = held.total() as f64 / f64::from(1 << 20);
            format!("{:.2} of the run's VmHWM growth", held_mb / (peak - before))
        }
        _ => "VmHWM growth n/a".to_string(),
    };
    println!("bytes held: {held} ({coverage})");
}
