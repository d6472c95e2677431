//! Mesh parallel download on the `OverlayNet` engine: scenarios the
//! classic pairwise loops could not run.
//!
//! A receiver reconciles with k neighbors *concurrently* — each link's
//! summary mechanism chosen per link by the registry cost advisors from
//! the endpoints' calling cards — over heterogeneous links (a fast one,
//! a half-rate one, a laggy one, a lossy one), while the seeders
//! simultaneously reconcile among themselves over a background ring:
//! every seeder uploads on one link and downloads on another at the
//! same time, the multi-role behaviour §2 of the paper claims for
//! adaptive overlays.
//!
//! Run with: `cargo run --release --example mesh_download [k]`

use icd_overlay::net::{run_mesh_download, Link};
use icd_overlay::scenario::ScenarioParams;

fn main() {
    let k: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let n = 8_000usize;
    let params = ScenarioParams::compact(n, 0x0E5B);
    let profiles = [
        Link::default(),
        Link::slower(2),
        Link {
            interval: 1,
            latency: 8,
            loss: 0.0,
        },
        Link::lossy(0.10),
    ];
    println!(
        "mesh download: compact n = {n}, {k} concurrent neighbors + seeder ring,\n\
         link profiles cycled over [1×/0ms/0%, ½×/0ms/0%, 1×/8-tick/0%, 1×/0ms/10%]\n"
    );
    let columns = [
        "family",
        "done",
        "speedup",
        "overhead",
        "lost",
        "ring gained",
        "events",
    ];
    println!(
        "{:<18} {:>5} {:>10} {:>10} {:>8} {:>12} {:>10}  per-link summaries",
        columns[0], columns[1], columns[2], columns[3], columns[4], columns[5], columns[6]
    );
    println!("{}", "-".repeat(100));
    for (family, recode) in [("Random/summary", false), ("Recode/summary", true)] {
        let out = run_mesh_download(&params, k, 0.2, &profiles, recode, 7);
        // Recoded streams must ride through the lossy link; the one-shot
        // candidate walk (Random/summary) honestly may not — candidates
        // dropped on the lossy link are gone for good.
        if recode {
            assert!(out.transfer.completed, "{family} mesh failed");
        }
        let labels: Vec<&str> = out.summaries.iter().map(|s| s.label()).collect();
        println!(
            "{:<18} {:>5} {:>10.3} {:>10.3} {:>8} {:>12} {:>10}  {}",
            family,
            if out.transfer.completed { "yes" } else { "no" },
            out.transfer.speedup(),
            out.transfer.overhead(),
            out.packets_lost,
            out.seeder_gained,
            out.events,
            labels.join(","),
        );
    }
    println!(
        "\nspeedup is relative to a lone full sender; the advisors pick each\n\
         link's digest from the advertised wire/compute/recall costs. The\n\
         lossy link's drops are absorbed by the *recoded* stream (no ARQ\n\
         anywhere), while the one-shot candidate walk loses those symbols\n\
         for good — exactly the §2 robustness argument for encoded content."
    );
}
