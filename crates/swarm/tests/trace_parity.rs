//! Trace parity: a structured trace is a deterministic artifact of
//! `(config, seed)` — records carry the engine clock and a push-assigned
//! sequence number, never wall time — so a second run of the same
//! scenario must export *byte-identical* JSONL. This suite pins that
//! for the churning swarm, the fault-injected swarm, and the mesh
//! preset, and checks the export round-trips through the parser.

use icd_obs::{TraceBuf, TraceEvent};
use icd_overlay::net::{run_mesh_download_with, Link};
use icd_overlay::scenario::ScenarioParams;
use icd_swarm::{ChurnConfig, FaultConfig, Swarm, SwarmConfig, TopologyKind};

const SEED: u64 = 0x1CD_BA5E;
/// Large enough that no scenario here ever evicts — the comparisons
/// below cover the *whole* trace, not a ring tail.
const CAP: usize = 1 << 22;

/// The parity swarm geometry: power-law topology, heterogeneous link
/// rates, ≥10% churn.
fn churny_config(peers: usize) -> SwarmConfig {
    let profiles: Vec<Link> = [1u64, 2, 4, 8, 16].iter().map(|&f| Link::slower(f)).collect();
    let mut cfg = SwarmConfig::new(peers, 48, TopologyKind::PowerLaw { m: 2 })
        .with_link_profiles(profiles)
        .with_churn(ChurnConfig {
            leave_fraction: 0.10,
            downtime: 60,
            window: (5, 160),
            joins: (peers / 100).max(1),
            rewires: (peers / 50).max(1),
        });
    cfg.refresh_interval = 40;
    cfg
}

/// Runs the swarm with a recorder installed and returns the exported
/// JSONL.
fn swarm_trace(cfg: &SwarmConfig, seed: u64) -> String {
    let mut swarm = Swarm::new(cfg.clone(), seed);
    let tracer = TraceBuf::shared(CAP);
    swarm.set_tracer(tracer.clone());
    let out = swarm.run();
    assert!(out.all_complete(), "run must complete: {:?}", out.stop);
    let buf = tracer.borrow();
    assert_eq!(buf.dropped(), 0, "ring must not evict during parity runs");
    buf.to_jsonl()
}

/// Counts records whose event tag is `tag`.
fn count_tag(jsonl: &str, tag: &str) -> usize {
    let needle = format!("\"ev\":\"{tag}\"");
    jsonl.lines().filter(|l| l.contains(&needle)).count()
}

#[test]
fn swarm_trace_byte_identical_on_rerun() {
    let cfg = churny_config(200);
    let base = swarm_trace(&cfg, SEED ^ 13);
    assert!(count_tag(&base, "link_send") > 0, "no data plane traced");
    assert!(count_tag(&base, "round_start") > 0, "no rounds traced");
    assert!(count_tag(&base, "link_up") > 0, "no control plane traced");
    let got = swarm_trace(&cfg, SEED ^ 13);
    assert!(
        base == got,
        "trace diverged on rerun ({} lines, then {} lines)",
        base.lines().count(),
        got.lines().count()
    );
}

#[test]
fn faulty_swarm_trace_byte_identical_on_rerun() {
    let cfg = churny_config(200).with_faults(FaultConfig::link_cuts(10, (5, 160)));
    let base = swarm_trace(&cfg, SEED ^ 14);
    assert!(
        count_tag(&base, "fault_applied") > 0,
        "fault plane must fire for the parity to mean anything"
    );
    let got = swarm_trace(&cfg, SEED ^ 14);
    assert!(base == got, "faulty trace diverged on rerun");
}

/// The mesh preset builds its net internally; the recorder rides in via
/// `run_mesh_download_with`'s setup hook.
#[test]
fn mesh_trace_byte_identical_on_rerun() {
    let params = ScenarioParams::compact(1_500, 0xBEAD);
    let lossy = Link {
        loss: 0.05,
        ..Link::default()
    };
    let run = || -> String {
        let tracer = TraceBuf::shared(CAP);
        let handle = tracer.clone();
        let out = run_mesh_download_with(
            &params,
            3,
            0.2,
            &[Link::default(), lossy],
            true,
            0x31337,
            move |net| net.set_tracer(handle),
        );
        assert!(out.transfer.completed, "mesh must complete");
        let jsonl = tracer.borrow().to_jsonl();
        jsonl
    };
    let base = run();
    assert!(count_tag(&base, "link_send") > 0);
    assert!(
        count_tag(&base, "summary_exchanged") > 0,
        "connect-time control plane must be captured by the setup hook"
    );
    assert!(base == run(), "mesh trace diverged on rerun");
}

/// A real engine trace survives the JSONL round trip — not just the
/// synthetic records the unit/property tests feed the codec.
#[test]
fn engine_trace_round_trips_through_jsonl() {
    let cfg = churny_config(120);
    let mut swarm = Swarm::new(cfg, SEED ^ 15);
    let tracer = TraceBuf::shared(CAP);
    swarm.set_tracer(tracer.clone());
    let out = swarm.run();
    assert!(out.all_complete());
    let buf = tracer.borrow();
    let jsonl = buf.to_jsonl();
    let parsed = TraceBuf::parse_jsonl(&jsonl).expect("engine trace must parse");
    assert_eq!(parsed.len(), buf.len());
    assert!(parsed.iter().eq(buf.records()), "parsed records diverged");
    // Lost sends take send slots and must be visible in the trace for
    // loss accounting; this geometry has lossless profiles, so instead
    // check recoded last-resort sends appear once escalation fires.
    let kinds: Vec<&TraceEvent> = parsed.iter().map(|r| &r.event).collect();
    assert!(kinds
        .iter()
        .any(|e| matches!(e, TraceEvent::LinkSend { .. })));
}
