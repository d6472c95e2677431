//! Process-memory probes for the scale experiments.
//!
//! The scale acceptance story is "a 100k+-peer swarm fits and
//! completes" — that claim needs a number, and the number the kernel
//! already keeps is `VmHWM` (peak resident set) in
//! `/proc/self/status`. Reading it costs one small file read, works
//! without privileges, and measures the whole process — exactly what a
//! "does the run fit in RAM" probe should charge for.

/// Peak resident-set size of this process in mebibytes, from
/// `/proc/self/status` (`VmHWM`). `None` where procfs is unavailable
/// (non-Linux hosts); callers report the probe as absent rather than
/// guessing.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // Format: "VmHWM:     123456 kB" — the unit is always kB.
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            let mb = peak_rss_mb().expect("procfs present on linux");
            assert!(mb > 1.0, "a running test binary holds > 1 MiB: {mb}");
        }
    }
}
