//! Regenerates Figure 7(a,b): relative rate with two partial senders.
use icd_bench::experiments::transfers::{self, SystemShape};
use icd_bench::{output, ExpConfig};

fn main() {
    let cfg = ExpConfig::from_env();
    for shape in [SystemShape::Compact, SystemShape::Stretched] {
        output::emit(
            &transfers::fig78(&cfg, shape, 2),
            &transfers::csv_name("fig7", shape),
        );
    }
}
