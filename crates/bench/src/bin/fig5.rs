//! Regenerates Figure 5(a,b): peer-to-peer transfer overhead.
use icd_bench::experiments::transfers::{self, SystemShape};
use icd_bench::{output, ExpConfig};

fn main() {
    let cfg = ExpConfig::from_env();
    for shape in [SystemShape::Compact, SystemShape::Stretched] {
        output::emit(
            &transfers::fig5(&cfg, shape),
            &transfers::csv_name("fig5", shape),
        );
    }
}
