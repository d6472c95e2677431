//! Umbrella crate re-exporting the informed-content-delivery workspace.
pub use icd_core as core_api;
pub use icd_fountain as fountain;
pub use icd_overlay as overlay;
pub use icd_sketch as sketch;
pub use icd_swarm as swarm;
pub use icd_util as util;
pub use icd_wire as wire;
