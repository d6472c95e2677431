//! Regenerates Figure 8(a,b): relative rate with four partial senders.
use icd_bench::experiments::transfers::{self, SystemShape};
use icd_bench::{output, ExpConfig};

fn main() {
    let cfg = ExpConfig::from_env();
    for shape in [SystemShape::Compact, SystemShape::Stretched] {
        output::emit(
            &transfers::fig78(&cfg, shape, 4),
            &transfers::csv_name("fig8", shape),
        );
    }
}
