//! Regenerates the multi-mechanism summary matrices: every registered
//! `SummaryId` through the live session pump and the overlay simulator,
//! then the report of which mechanism the policy selects per benchmark
//! link geometry.
use icd_bench::experiments::summaries;
use icd_bench::{output, ExpConfig};

fn main() {
    let cfg = ExpConfig::from_env();
    output::emit(&summaries::session_matrix(&cfg), "summary_session_matrix");
    output::emit(&summaries::overlay_matrix(&cfg), "summary_overlay_matrix");
    output::emit(&summaries::selection_report(), "summary_selection");
}
