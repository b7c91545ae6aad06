//! Readers for the process's own `/proc` entries. Each one fails soft: a
//! missing or malformed file yields `None` ("unmeasured"), never a panic,
//! so the benchmark still runs where `/proc` is absent.

use std::time::Duration;

/// Peak resident set size (`VmHWM`) of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&text).map(|kb| kb as f64 * 1024.0 / 1e6)
}

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// User plus system CPU time this process has used so far.
pub fn cpu_time() -> Option<Duration> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    let ticks = parse_stat_cpu_ticks(&text)?;
    Some(Duration::from_secs_f64(ticks as f64 / clock_ticks_per_second()))
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some(utime + stime)
}

/// Busy-or-idle and steal ticks of all CPUs from the `cpu` line of
/// `/proc/stat`, to tell how much of a measured phase the hypervisor gave
/// to other guests.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    parse_stat_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// `(total, steal)` ticks from the aggregate `cpu` line of a `/proc/stat`
/// text.
pub fn parse_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> =
        line.split_whitespace().skip(1).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    let steal = *ticks.get(7)?;
    Some((ticks.iter().sum(), steal))
}

/// Share of CPU time stolen by the hypervisor between two readings of
/// [`cpu_ticks`].
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((t0, s0), (t1, s1)) = (before?, after?);
    let total = t1.checked_sub(t0).filter(|&t| t > 0)?;
    Some(s1.saturating_sub(s0) as f64 / total as f64)
}

/// `USER_HZ`. Linux fixes it at 100 on every architecture the toolchain
/// targets; reading it would need `libc::sysconf`.
fn clock_ticks_per_second() -> f64 {
    100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_and_fails_soft() {
        let status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t  4321 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4321));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 pages\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn stat_ticks_parse_and_fail_soft() {
        let stat = "42 (perf bench (x)) R 1 42 42 0 -1 4194304 100 0 0 0 250 31 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(281));
        assert_eq!(parse_stat_cpu_ticks("42 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis at all"), None);
        assert_eq!(parse_stat_cpu_ticks(""), None);
    }

    #[test]
    fn steal_parses_and_fails_soft() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n";
        assert_eq!(parse_stat_steal(stat), Some((1000, 35)));
        assert_eq!(parse_stat_steal("cpu  1 2 3\n"), None);
        assert_eq!(parse_stat_steal("intr 5\n"), None);
        assert_eq!(steal_share(Some((1000, 35)), Some((2000, 135))), Some(0.1));
        assert_eq!(steal_share(None, Some((2000, 135))), None);
        assert_eq!(steal_share(Some((1000, 35)), Some((1000, 35))), None);
    }

    #[test]
    fn live_readers_never_panic() {
        // On Linux both are measured; elsewhere both are `None`. Neither
        // may panic.
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
        let _ = cpu_time();
        let _ = cpu_ticks();
    }
}
