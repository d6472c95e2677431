//! Regenerates Figure 6(a,b): speedup with a full + a partial sender.
use icd_bench::experiments::transfers::{self, SystemShape};
use icd_bench::{output, ExpConfig};

fn main() {
    let cfg = ExpConfig::from_env();
    for shape in [SystemShape::Compact, SystemShape::Stretched] {
        output::emit(
            &transfers::fig6(&cfg, shape),
            &transfers::csv_name("fig6", shape),
        );
    }
}
