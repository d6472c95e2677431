//! Runs the full battery: every table and figure, in paper order.
use icd_bench::experiments::transfers::{self, SystemShape};
use icd_bench::experiments::{art_accuracy, calibration, summaries};
use icd_bench::{output, ExpConfig};

fn main() {
    let cfg = ExpConfig::from_env();
    eprintln!(
        "[all_experiments] l={} trials={} (ICD_BLOCKS/ICD_TRIALS to override)",
        cfg.num_blocks, cfg.trials
    );
    output::emit(&calibration::bloom_fp_table(&cfg), "bloom_fp_table");
    output::emit(&calibration::coding_table(&cfg), "coding_table");
    output::emit(&calibration::recon_cost_table(&cfg), "recon_cost_table");
    output::emit(&summaries::session_matrix(&cfg), "summary_session_matrix");
    output::emit(&summaries::overlay_matrix(&cfg), "summary_overlay_matrix");
    output::emit(&art_accuracy::fig4a(&cfg), "fig4a");
    output::emit(&art_accuracy::table4b(&cfg), "table4b");
    output::emit(&art_accuracy::table4c(&cfg), "table4c");
    for shape in [SystemShape::Compact, SystemShape::Stretched] {
        output::emit(
            &transfers::fig5(&cfg, shape),
            &transfers::csv_name("fig5", shape),
        );
        output::emit(
            &transfers::fig6(&cfg, shape),
            &transfers::csv_name("fig6", shape),
        );
        output::emit(
            &transfers::fig78(&cfg, shape, 2),
            &transfers::csv_name("fig7", shape),
        );
        output::emit(
            &transfers::fig78(&cfg, shape, 4),
            &transfers::csv_name("fig8", shape),
        );
    }
}
