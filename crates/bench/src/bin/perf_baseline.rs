//! The tracked perf baseline: fixed-seed throughput probes over the
//! symbol data plane, written to `BENCH_symbols.json`.
//!
//! Every future PR is accountable to these numbers — run before and
//! after a change and diff the JSON. Probes:
//!
//! * **decode** — full fountain decode (encode → shuffle-free stream →
//!   peeling decoder, through `into_content`) in MB of content per
//!   second; each decode writes into one l×block_size buffer.
//! * **recode generate** — pooled recoded-symbol generation over a
//!   5 000-symbol working set of 1 400-byte payloads, in MB of payload
//!   emitted per second.
//! * **recode substitute** — receiver-side substitution of recoded
//!   symbols into a half-warm buffer, in MB absorbed per second.
//! * **bloom** — Bloom-filter membership probes per second at the §5.2
//!   reference geometry (8 bits/element).
//! * **minwise** — min-wise sketch build throughput in keys per second
//!   (128 permutations per key; the `reduce122` fast reduction's home).
//! * **sim** — simulator ticks per second across all five §6.2
//!   strategies at the Figure 5 geometry (two-node presets on the
//!   `OverlayNet` engine).
//! * **net** — discrete-event engine events per second on a mesh
//!   parallel download (4 neighbors + background ring, heterogeneous
//!   links).
//! * **faulty swarm** — engine events per second through a full
//!   `Swarm::run` at a thousand-node power-law geometry with the fault
//!   plane on (one scheduled link cut per twenty peers). No benchmark
//!   workload injects faults, so this is the fault plane's only
//!   throughput number; the fault-free and traced swarm numbers are the
//!   benchmark's `swarm10k` and `swarm10k-traced` workloads.
//! * **swarm split** — one churned 1 000-peer swarm run with a
//!   `PhaseProfile` installed: the share of `Swarm::run` wall time
//!   spent in each of `icd_swarm::PROFILE_SCOPES` (`split_*_pct`), plus
//!   how much of the run the three tiling scopes cover
//!   (`split_covered_pct`).
//! * **swarm bytes** — one churned-swarm run, first in the process:
//!   `Swarm::bytes_held` after the run (`swarm_bytes_held_mb`, the
//!   per-structure breakdown in its detail) and the share of that run's
//!   `VmHWM` growth the breakdown accounts for
//!   (`swarm_bytes_held_pct`).
//!
//! If an output file already exists, its metrics are read *before*
//! overwriting and a per-probe `DELTA <name> <old> -> <new> (±x.x%)`
//! table is printed — the before/after diff every PR is accountable to,
//! without needing a stashed copy of the old JSON. The written JSON
//! gains a `meta` block recording the scale knobs the run used.
//!
//! `--quick` shrinks the geometry for CI smoke runs;
//! `--out PATH` overrides the output path (default
//! `./BENCH_symbols.json`). All probes are pure functions of fixed
//! seeds; only the measured times vary between machines.

use std::time::Instant;

use icd_obs::PhaseProfile;

use icd_fountain::{
    DecodeStatus, Decoder, EncodedSymbol, RecodeBuffer, RecodePolicy, RecodeScratch, Recoder,
};
use icd_overlay::scenario::{ScenarioParams, TwoPeerScenario};
use icd_overlay::strategy::StrategyKind;
use icd_overlay::transfer::run_transfer;
use icd_util::rng::{Rng64, SplitMix64, Xoshiro256StarStar};

const SEED: u64 = 0x1CD_BA5E;

struct Probe {
    name: &'static str,
    value: f64,
    unit: &'static str,
    detail: String,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_symbols.json".to_string());

    // Read the previous baseline (if any) before it is overwritten, so
    // every run prints its own before/after delta table.
    let previous = std::fs::read_to_string(&out_path).ok();

    // First, while the process is fresh: the footprint probe reads the
    // VmHWM growth of its own run.
    let mut probes = Vec::from(swarm_bytes_probes(quick));
    probes.push(decode_probe(quick));
    let (generate, substitute) = recode_probes(quick);
    probes.push(generate);
    probes.push(substitute);
    probes.push(bloom_probe(quick));
    probes.push(minwise_probe(quick));
    probes.push(sim_probe(quick));
    probes.push(net_events_probe(quick));
    probes.push(faulty_swarm_events_probe(quick));
    probes.extend(swarm_split_probes(quick));

    let swarm = swarm_base(quick);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"symbols\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str("  \"meta\": {\n");
    json.push_str(&format!("    \"quick\": {quick},\n"));
    json.push_str(&format!("    \"swarm_peers\": {},\n", swarm.peers));
    json.push_str(&format!("    \"swarm_blocks\": {}\n", swarm.blocks));
    json.push_str("  },\n");
    json.push_str("  \"metrics\": {\n");
    for (i, p) in probes.iter().enumerate() {
        let comma = if i + 1 == probes.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{ \"value\": {:.3}, \"unit\": \"{}\", \"detail\": \"{}\" }}{comma}\n",
            p.name, p.value, p.unit, p.detail
        ));
    }
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_symbols.json");
    for p in &probes {
        println!("{:28} {:>12.3} {}  ({})", p.name, p.value, p.unit, p.detail);
    }
    if let Some(previous) = previous {
        println!("--- delta vs previous {out_path} ---");
        for p in &probes {
            match old_metric(&previous, p.name) {
                Some(old) if old != 0.0 => {
                    let pct = (p.value - old) / old * 100.0;
                    println!(
                        "DELTA {:28} {:>12.3} -> {:>12.3} ({pct:+.1}%)",
                        p.name, old, p.value
                    );
                }
                _ => println!("DELTA {:28} (new probe)", p.name),
            }
        }
    }
    println!("wrote {out_path}");
}

/// Scans a previous baseline's JSON for `"name": { "value": N`. The
/// format is our own hand-written flat shape, so a string scan is
/// exact enough — a missing or malformed entry just reports `new`.
fn old_metric(old: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let rest = &old[old.find(&key)? + key.len()..];
    let rest = &rest[rest.find("\"value\":")? + "\"value\":".len()..];
    let end = rest.find(',')?;
    rest[..end].trim().parse().ok()
}

/// Best-of-`reps` wall time for `f`, in seconds.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn decode_probe(quick: bool) -> Probe {
    let blocks = if quick { 500 } else { 2000 };
    let block_size = 1400usize;
    let content_len = blocks * block_size;
    let mut rng = SplitMix64::new(SEED);
    let content: Vec<u8> = (0..content_len)
        .map(|_| (rng.next_u64() & 0xFF) as u8)
        .collect();
    let encoder = icd_fountain::Encoder::for_content(&content, block_size, SEED ^ 1);
    // Pre-generate an ample symbol stream so only decoding is timed.
    let symbols: Vec<EncodedSymbol> = encoder
        .stream(SEED ^ 2)
        .take(blocks * 13 / 10 + 50)
        .collect();
    // Each rep builds a fresh decoder and is timed through
    // `into_content`, the span the benchmark's `fountain.decode` covers.
    let decode = || {
        let mut decoder = Decoder::new(encoder.spec().clone());
        for sym in &symbols {
            if matches!(decoder.receive(sym), DecodeStatus::Complete) {
                break;
            }
        }
        assert!(decoder.is_complete(), "probe stream too short");
        decoder.into_content(content_len)
    };
    // One l×block_size buffer per decode, and it is the content handed
    // back: nothing is copied out of the decoder.
    let out = decode().unwrap_or_default();
    assert_eq!(out, content, "probe decode must be byte-exact");
    assert_eq!(
        out.capacity(),
        blocks * block_size,
        "decode copied its buffer"
    );
    let reps = if quick { 2 } else { 4 };
    let best = best_of(reps, decode);
    Probe {
        name: "decode_mb_s",
        value: content_len as f64 / best / 1e6,
        unit: "MB/s",
        detail: format!("l={blocks}, best of {reps} decodes, one l×block_size buffer per decode"),
    }
}

fn recode_probes(quick: bool) -> (Probe, Probe) {
    let n = if quick { 1000 } else { 5000 };
    let count = if quick { 500 } else { 2000 };
    let payload = 1400usize;
    let symbols: Vec<EncodedSymbol> = (0..n as u64)
        .map(|i| EncodedSymbol {
            id: i * 977 + 1,
            payload: bytes::Bytes::from(vec![(i % 251) as u8; payload]),
        })
        .collect();
    let recoder = Recoder::new(symbols.clone(), 50, RecodePolicy::Oblivious);

    let mut emitted = 0usize;
    let gen_secs = best_of(if quick { 2 } else { 4 }, || {
        let mut rng = Xoshiro256StarStar::new(SEED ^ 3);
        let mut scratch = RecodeScratch::default();
        emitted = 0;
        for _ in 0..count {
            recoder.generate_into(&mut rng, &mut scratch);
            emitted += scratch.payload.len();
        }
    });
    let generate = Probe {
        name: "recode_generate_mb_s",
        value: emitted as f64 / gen_secs / 1e6,
        unit: "MB/s",
        detail: format!("n={n}, {count} symbols emitted"),
    };

    let mut rng = Xoshiro256StarStar::new(SEED ^ 4);
    let stream: Vec<_> = (0..count).map(|_| recoder.generate(&mut rng)).collect();
    let absorbed: usize = stream.iter().map(|r| r.payload.len()).sum();
    let mut warm = RecodeBuffer::<bytes::Bytes>::new();
    for s in &symbols[..n / 2] {
        warm.add_known(s.id, s.payload.clone(), |_, _| {});
    }
    // Clone and drop stay outside the timed region. Each repetition
    // clones its buffer before freeing the previous one, so the freed
    // memory lies below the live clone: the allocator cannot trim it
    // off the heap top, and the timed loop grows into pages that are
    // already mapped. Without that order the probe times the
    // allocator's trim policy (re-faulting the heap top on every
    // repetition) rather than substitution.
    let reps = if quick { 3 } else { 5 };
    let mut sub_secs = f64::MAX;
    let mut previous = None;
    for _ in 0..reps {
        let mut buf = warm.clone();
        drop(previous.take());
        let t = Instant::now();
        for rec in &stream {
            // Each recovery's `Bytes` is shared once more, as the
            // receiver machine shares it with its working set.
            buf.receive(&rec.components, rec.payload.clone(), |_, p| {
                std::hint::black_box(p.clone());
            });
        }
        sub_secs = sub_secs.min(t.elapsed().as_secs_f64());
        previous = Some(buf);
    }
    let substitute = Probe {
        name: "recode_substitute_mb_s",
        value: absorbed as f64 / sub_secs / 1e6,
        unit: "MB/s",
        detail: format!("n={n}, half-warm buffer, {count} recoded symbols"),
    };
    (generate, substitute)
}

fn bloom_probe(quick: bool) -> Probe {
    let n = if quick { 20_000 } else { 100_000 };
    let trials = if quick { 200_000u64 } else { 1_000_000 };
    let mut rng = Xoshiro256StarStar::new(SEED ^ 5);
    let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let mut filter = icd_sketch::bloom::BloomFilter::with_bits_per_element(n, 8.0, SEED ^ 6);
    for &k in &keys {
        filter.insert(k);
    }
    let secs = best_of(if quick { 2 } else { 4 }, || {
        let mut probe_rng = Xoshiro256StarStar::new(SEED ^ 7);
        let mut hits = 0u64;
        for i in 0..trials {
            // Half present, half random: both probe paths exercised.
            let key = if i % 2 == 0 {
                keys[(i as usize / 2) % keys.len()]
            } else {
                probe_rng.next_u64()
            };
            hits += u64::from(filter.contains(key));
        }
        hits
    });
    Probe {
        name: "bloom_probes_per_s",
        value: trials as f64 / secs,
        unit: "probes/s",
        detail: format!("n={n}, 8 bits/element, k={}", filter.num_hashes()),
    }
}

fn minwise_probe(quick: bool) -> Probe {
    let keys = if quick { 20_000usize } else { 100_000 };
    let family = icd_sketch::PermutationFamily::standard(0x1CD);
    let mut rng = Xoshiro256StarStar::new(SEED ^ 10);
    let key_vec: Vec<u64> = (0..keys).map(|_| rng.next_u64()).collect();
    let secs = best_of(if quick { 2 } else { 4 }, || {
        icd_sketch::MinwiseSketch::from_keys(&family, key_vec.iter().copied())
    });
    Probe {
        name: "minwise_build_keys_per_s",
        value: keys as f64 / secs,
        unit: "keys/s",
        detail: format!("{keys} keys, 128 permutations (1 KB calling card)"),
    }
}

fn sim_probe(quick: bool) -> Probe {
    // Figure 5 geometry: compact system, correlation 0.2. The full run
    // uses the paper's 23 968 source blocks; quick shrinks it for CI.
    let blocks = if quick { 2000 } else { 23_968 };
    let params = ScenarioParams::compact(blocks, SEED ^ 8);
    let scenario = TwoPeerScenario::build(&params, 0.2);
    let mut total_ticks = 0u64;
    let secs = best_of(if quick { 2 } else { 3 }, || {
        total_ticks = 0;
        for strategy in StrategyKind::ALL {
            let out = run_transfer(&scenario, strategy, SEED ^ 9);
            assert!(
                out.completed,
                "{} failed at fig5 geometry",
                strategy.label()
            );
            total_ticks += out.ticks;
        }
    });
    Probe {
        name: "sim_ticks_per_s",
        value: total_ticks as f64 / secs,
        unit: "ticks/s",
        detail: format!("fig5 compact n={blocks}, all 5 strategies"),
    }
}

fn net_events_probe(quick: bool) -> Probe {
    // A mesh parallel download: 4 informed neighbors over heterogeneous
    // links plus the seeders' background ring — the event-queue-heavy
    // workload the two-node presets do not exercise.
    let blocks = if quick { 1500 } else { 8000 };
    let params = ScenarioParams::compact(blocks, SEED ^ 11);
    let profiles = [
        icd_overlay::net::Link::default(),
        icd_overlay::net::Link::slower(2),
        icd_overlay::net::Link {
            interval: 1,
            latency: 5,
            loss: 0.02,
        },
    ];
    let mut events = 0u64;
    let secs = best_of(if quick { 2 } else { 3 }, || {
        let out = icd_overlay::net::run_mesh_download(&params, 4, 0.2, &profiles, true, SEED ^ 12);
        assert!(out.transfer.completed, "mesh probe failed to complete");
        events = out.events;
    });
    Probe {
        name: "net_events_per_s",
        value: events as f64 / secs,
        unit: "events/s",
        detail: format!("mesh n={blocks}, k=4 + ring, heterogeneous links"),
    }
}

fn faulty_swarm_events_probe(quick: bool) -> Probe {
    // A power-law swarm with the fault plane switched on: one scheduled
    // link cut per twenty peers inside the churn window. The fault
    // execution path — victim selection, in-flight frame wastage,
    // immediate redials — rides the engine hot loop, so a regression in
    // it shows up here.
    let cfg = swarm_base(quick);
    let blocks = cfg.blocks;
    let cuts = icd_swarm::FaultConfig::link_cuts(cfg.peers / 20, (5, 160));
    let cfg = cfg.with_faults(cuts);
    let mut events = 0u64;
    let mut roster = 0usize;
    let mut applied = 0u32;
    let secs = best_of(if quick { 2 } else { 3 }, || {
        let out = icd_swarm::run_swarm(cfg.clone(), SEED ^ 14);
        assert!(out.all_complete(), "faulty swarm probe failed to complete");
        events = out.events;
        roster = out.peers;
        applied = out.faults_applied;
    });
    Probe {
        name: "faulty_swarm_events_per_s",
        value: events as f64 / secs,
        unit: "events/s",
        detail: format!(
            "{roster}-peer power-law(m=2) swarm, n={blocks}, {applied} link cuts \
             applied, all complete"
        ),
    }
}

/// The power-law (m = 2) swarm every swarm probe runs: 1 000 peers and
/// n = 64 (250 and 48 under `--quick`), link intervals 1–16.
fn swarm_base(quick: bool) -> icd_swarm::SwarmConfig {
    let peers = if quick { 250 } else { 1000 };
    let blocks = if quick { 48 } else { 64 };
    let profiles: Vec<icd_swarm::Link> = [1u64, 2, 4, 8, 16]
        .iter()
        .map(|&i| icd_swarm::Link::slower(i))
        .collect();
    let mut cfg =
        icd_swarm::SwarmConfig::new(peers, blocks, icd_swarm::TopologyKind::PowerLaw { m: 2 })
            .with_link_profiles(profiles);
    // Slow links deliver few packets per maintenance window; match the
    // cadence so stagnation detection reflects rate, not impatience.
    cfg.refresh_interval = 40;
    cfg
}

/// [`swarm_base`] with 10% membership churn: the split and footprint
/// probes' geometry.
fn churned_swarm_config(quick: bool) -> icd_swarm::SwarmConfig {
    let cfg = swarm_base(quick);
    let peers = cfg.peers;
    cfg.with_churn(icd_swarm::ChurnConfig {
        leave_fraction: 0.10,
        downtime: 60,
        window: (5, 160),
        joins: peers / 100,
        rewires: peers / 50,
    })
}

/// Where a churned-swarm run spends its wall time: one profiled run of
/// the churned-swarm geometry, each `PROFILE_SCOPES` entry as a
/// percentage of `Swarm::run`. `swarm.connect` is nested inside
/// `swarm.refresh` and `swarm.membership`; the other three tile the run,
/// and `split_covered_pct` says how completely.
fn swarm_split_probes(quick: bool) -> Vec<Probe> {
    let cfg = churned_swarm_config(quick);
    let blocks = cfg.blocks;
    let mut swarm = icd_swarm::Swarm::new(cfg, SEED ^ 13);
    let profile = PhaseProfile::shared();
    swarm.set_profiler(profile.clone());
    let start = Instant::now();
    let out = swarm.run();
    let wall_ns = start.elapsed().as_nanos() as f64;
    assert!(
        out.all_complete(),
        "profiled swarm probe failed to complete"
    );
    let profile = profile.borrow();
    let pct = |scope: &str| profile.total_ns(scope) as f64 / wall_ns * 100.0;
    let mut probes: Vec<Probe> = icd_swarm::PROFILE_SCOPES
        .iter()
        .map(|&scope| Probe {
            name: match scope {
                "overlay.run" => "split_overlay_run_pct",
                "swarm.refresh" => "split_swarm_refresh_pct",
                "swarm.membership" => "split_swarm_membership_pct",
                "swarm.connect" => "split_swarm_connect_pct",
                other => panic!("no probe name for scope {other}"),
            },
            value: pct(scope),
            unit: "%",
            detail: format!(
                "{scope}: {} calls over a {}-peer churned swarm run, n={blocks}",
                profile.get(scope).map_or(0, |s| s.calls),
                out.peers
            ),
        })
        .collect();
    probes.push(Probe {
        name: "split_covered_pct",
        value: icd_swarm::PROFILE_SCOPES[..3].iter().map(|s| pct(s)).sum(),
        unit: "%",
        detail: "share of Swarm::run wall inside overlay.run + swarm.refresh + swarm.membership"
            .to_string(),
    });
    probes
}

/// Where one churned-swarm run's bytes sit: `Swarm::bytes_held` after
/// `run`, and its share of the `VmHWM` growth across `Swarm::new` plus
/// `run`. Called first in the process, so that growth is this run's.
fn swarm_bytes_probes(quick: bool) -> [Probe; 2] {
    let cfg = churned_swarm_config(quick);
    let blocks = cfg.blocks;
    let before = icd_bench::peak_rss_mb().unwrap_or(0.0);
    let mut swarm = icd_swarm::Swarm::new(cfg, SEED ^ 13);
    let out = swarm.run();
    assert!(
        out.all_complete(),
        "footprint swarm probe failed to complete"
    );
    let growth = icd_bench::peak_rss_mb().unwrap_or(0.0) - before;
    let held = swarm.bytes_held();
    let held_mb = held.total() as f64 / f64::from(1 << 20);
    [
        Probe {
            name: "swarm_bytes_held_mb",
            value: held_mb,
            unit: "MB",
            detail: format!(
                "{}-peer churned swarm, n={blocks}, after run: {held}",
                out.peers
            ),
        },
        Probe {
            name: "swarm_bytes_held_pct",
            value: if growth > 0.0 {
                held_mb / growth * 100.0
            } else {
                0.0
            },
            unit: "%",
            detail: format!(
                "swarm_bytes_held_mb over the {growth:.1} MB VmHWM growth across \
                 Swarm::new + run (0 where procfs is unavailable)"
            ),
        },
    ]
}
