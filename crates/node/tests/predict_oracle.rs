//! The `predict`/`predict_faulty` oracle pinned beyond the reference
//! seed: per-link wire bytes, completion, rounds and leecher distinct
//! counts for eight seeds × {`ring2`, `pl2`} at both reference
//! geometries (80 × 64 B and 100 × 16 KiB symbols), plus the chaos
//! harness's faulty replay. The values were recorded once and are
//! committed, so any change to how the oracle runs its sessions —
//! step order, snapshot freezing, seed derivation, cut timing — shows
//! up here as a changed number rather than only as a daemon mismatch.

use icd_node::{predict, predict_faulty, DistributionSpec, SwarmPlan};

/// One pinned fault-free prediction.
struct Pin {
    spec: &'static str,
    rounds: u32,
    completed: &'static [bool],
    leecher_distinct: &'static [usize],
    link_bytes: &'static [u64],
}

const PINS: &[Pin] = &[
    Pin {
        spec: "seed=1,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[
            6251, 6251, 6251, 6906, 3578, 3983, 7311, 3659, 6987, 3659, 3659,
        ],
    },
    Pin {
        spec: "seed=2,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[
            6251, 6251, 6251, 3578, 3578, 7864, 3983, 3821, 3821, 3416, 7297,
        ],
    },
    Pin {
        spec: "seed=3,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[
            6251, 6251, 6251, 3983, 3983, 4145, 4145, 7692, 3416, 3578, 7854,
        ],
    },
    Pin {
        spec: "seed=4,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[
            6251, 6251, 6251, 7234, 4064, 3902, 7072, 3902, 7072, 3578, 3578,
        ],
    },
    Pin {
        spec: "seed=5,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[
            6251, 6251, 6993, 3902, 6993, 3902, 5689, 5689, 3983, 7074, 3983, 7074,
        ],
    },
    Pin {
        spec: "seed=6,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=ring2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[6251, 6251, 6251, 6251, 3578, 3578, 3740, 3740, 4064, 4064],
    },
    Pin {
        spec: "seed=7,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[
            6251, 6251, 6251, 7147, 3740, 3902, 3902, 4064, 7471, 3902, 3902,
        ],
    },
    Pin {
        spec: "seed=8,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[
            6251, 6251, 6251, 7698, 3659, 3578, 3578, 3659, 7698, 3578, 3578,
        ],
    },
    Pin {
        spec: "seed=1,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[6251, 6251, 6251, 6251, 3578, 3578, 3983, 3983, 3659, 3659],
    },
    Pin {
        spec: "seed=2,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[6251, 6251, 6251, 6251, 3578, 3578, 3983, 3983, 3821, 3821],
    },
    Pin {
        spec: "seed=3,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[6251, 6251, 6251, 6251, 3983, 3983, 3821, 3821, 3497, 3497],
    },
    Pin {
        spec: "seed=4,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[6251, 6251, 6251, 6251, 4064, 4064, 3740, 3740, 3902, 3902],
    },
    Pin {
        spec: "seed=5,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=pl2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[
            6251, 6251, 6251, 3902, 3902, 7704, 3902, 3254, 3254, 7380, 3578,
        ],
    },
    Pin {
        spec: "seed=6,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[6251, 6251, 6251, 6251, 3578, 3578, 3578, 3578, 3578, 3578],
    },
    Pin {
        spec: "seed=7,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[6251, 6251, 6251, 6251, 3740, 3740, 3740, 3740, 4064, 4064],
    },
    Pin {
        spec: "seed=8,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=pl2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[80, 80, 80, 80],
        link_bytes: &[
            6251, 6251, 6251, 3659, 3659, 3578, 3578, 7617, 3578, 7779, 3740,
        ],
    },
    Pin {
        spec: "seed=1,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 611365, 379438, 461443, 693370, 330235, 562162, 461443,
            461443,
        ],
    },
    Pin {
        spec: "seed=2,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 379438, 379438, 791754, 379438, 379438, 379438, 412240,
            824556,
        ],
    },
    Pin {
        spec: "seed=3,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 379438, 379438, 412240, 412240, 873753, 412240, 379438,
            840951,
        ],
    },
    Pin {
        spec: "seed=4,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 676961, 379438, 428641, 726164, 363037, 660560, 379438,
            379438,
        ],
    },
    Pin {
        spec: "seed=5,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 676967, 428641, 611363, 363037, 381549, 381549, 379438, 627764,
            379438, 627764,
        ],
    },
    Pin {
        spec: "seed=6,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=ring2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 1035478, 461443, 461443, 330235, 330235, 379438, 379438,
        ],
    },
    Pin {
        spec: "seed=7,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 775349, 330235, 395839, 395839, 379438, 824552, 428641,
            428641,
        ],
    },
    Pin {
        spec: "seed=8,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=ring2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 775351, 346636, 445042, 445042, 379438, 808153, 461443,
            461443,
        ],
    },
    Pin {
        spec: "seed=1,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 1035478, 379438, 379438, 395839, 395839, 461443, 461443,
        ],
    },
    Pin {
        spec: "seed=2,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 1035478, 379438, 379438, 379438, 379438, 379438, 379438,
        ],
    },
    Pin {
        spec: "seed=3,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 1035478, 379438, 379438, 379438, 379438, 346636, 346636,
        ],
    },
    Pin {
        spec: "seed=4,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 1035478, 379438, 379438, 313834, 313834, 428641, 428641,
        ],
    },
    Pin {
        spec: "seed=5,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=pl2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 428641, 428641, 775353, 363037, 330235, 330235, 791754,
            379438,
        ],
    },
    Pin {
        spec: "seed=6,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 1035478, 461443, 461443, 313834, 313834, 346636, 346636,
        ],
    },
    Pin {
        spec: "seed=7,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=pl2",
        rounds: 1,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 1035478, 330235, 330235, 395839, 395839, 379438, 379438,
        ],
    },
    Pin {
        spec: "seed=8,nodes=5,seeders=1,universe=100,share=37,payload=16384,topo=pl2",
        rounds: 2,
        completed: &[true, true, true, true, true],
        leecher_distinct: &[100, 100, 100, 100],
        link_bytes: &[
            1035478, 1035478, 1035478, 346636, 346636, 412240, 412240, 857358, 445042, 775353,
            363037,
        ],
    },
];

#[test]
fn predict_matches_the_pinned_values() {
    assert_eq!(PINS.len(), 32);
    for pin in PINS {
        let spec: DistributionSpec = pin.spec.parse().expect("pinned spec parses");
        let p = predict(&SwarmPlan::new(spec));
        assert_eq!(p.link_bytes, pin.link_bytes, "{}: link bytes", pin.spec);
        assert_eq!(p.completed, pin.completed, "{}: completion", pin.spec);
        assert_eq!(p.rounds, pin.rounds, "{}: rounds", pin.spec);
        assert_eq!(
            &p.distinct[spec.seeders..],
            pin.leecher_distinct,
            "{}: leecher distinct",
            pin.spec
        );
    }
}

/// The chaos harness's spec and victim: the seeder's first planned link
/// to a peer other than node 1, severed 24 ticks into round 0.
#[test]
fn faulty_replay_matches_the_pinned_values() {
    let spec: DistributionSpec =
        "seed=7,nodes=5,seeders=1,universe=80,share=30,payload=64,topo=ring2"
            .parse()
            .expect("spec parses");
    let plan = SwarmPlan::new(spec);
    let victim = plan
        .links
        .iter()
        .find(|l| l.from == 0 && l.to != 1)
        .expect("the seeder serves a peer other than node 1");
    assert_eq!((victim.from, victim.to), (0, 3));
    let fp = predict_faulty(&plan, &[(0, 3)], 24);
    assert_eq!(fp.severed, [1]);
    assert_eq!(fp.retries, 1);
    assert_eq!(fp.base.total_bytes(), 56_783);
    assert_eq!(fp.faulty.total_bytes(), 57_271);
    assert_eq!(
        fp.faulty.link_bytes,
        [6251, 6739, 6251, 7147, 3740, 3902, 3902, 4064, 7471, 3902, 3902]
    );
    assert_eq!(fp.faulty.rounds, 2);
    assert!(fp.faulty.completed.iter().all(|&c| c));
    assert_eq!(fp.byte_bound(), 69_773);
}

/// Seeders report what they hold — the whole object — not zero. One
/// spec per geometry and topology.
#[test]
fn seeders_report_the_whole_universe() {
    for pin in PINS.iter().step_by(8) {
        let spec: DistributionSpec = pin.spec.parse().expect("pinned spec parses");
        let p = predict(&SwarmPlan::new(spec));
        assert!(
            p.distinct[..spec.seeders]
                .iter()
                .all(|&d| d == spec.universe),
            "{}: seeder distinct {:?}",
            pin.spec,
            &p.distinct[..spec.seeders]
        );
    }
}
