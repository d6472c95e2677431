//! The `/proc` readings the benchmark takes: CPU time and peak RSS.

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100
/// on every Linux ABI; reading `sysconf` would need libc.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds from the text of `/proc/<pid>/stat`: user + system time of
/// the process and of every child it has waited for (fields 14–17).
pub fn parse_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; the
    // numeric fields start after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let ticks: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    (ticks.len() == 4).then(|| ticks.iter().sum::<u64>() as f64 / TICKS_PER_S)
}

/// Peak resident set in MB (10^6 bytes) from the text of
/// `/proc/<pid>/status` (`VmHWM`, reported in KiB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 * 1024.0 / 1e6)
}

/// CPU seconds this process and its reaped children have used so far.
pub fn self_cpu_s() -> Option<f64> {
    parse_cpu_s(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set of process `pid` (`None`: this process) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    parse_peak_rss_mb(&std::fs::read_to_string(path).ok()?)
}

/// Starts a fresh peak-RSS reading for this process: returns the heap's
/// free pages to the kernel (glibc keeps them otherwise, so one heavy
/// operation would set the floor for every later one), then resets `VmHWM`
/// to the current resident set. Where the kernel refuses the reset, peaks
/// read as the process's lifetime high-water mark instead.
pub fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and touches only pages
        // the allocator holds free; glibc documents it as callable at
        // any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_found_past_an_awkward_command_name() {
        let stat = "4242 (icd node) x) S 1 4242 4242 0 -1 4194304 150 0 0 0 \
                    37 5 120 30 20 0 3 0 100 1000000 200 18446744073709551615";
        // utime 37 + stime 5 + cutime 120 + cstime 30 = 192 ticks.
        assert_eq!(parse_cpu_s(stat), Some(1.92));
        assert_eq!(parse_cpu_s("1 (x) S 1 2"), None);
        assert_eq!(parse_cpu_s("no parenthesis"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm_in_kib() {
        let status = "Name:\ticd-node\nVmPeak:\t  9000 kB\nVmHWM:\t    2500 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.56));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(self_cpu_s().is_some());
        assert!(peak_rss_mb(None).unwrap() > 0.0);
    }
}
