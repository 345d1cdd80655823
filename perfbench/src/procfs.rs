//! Host and process counters from `/proc`.
//!
//! Each reader is split into a pure parser (tested on fixed text) and a
//! thin file read. A counter that cannot be read is reported as an error
//! rather than as zero, so a broken reading never passes for a quiet host.

use std::fs;

/// Clock ticks per second of the `/proc` CPU counters (Linux `USER_HZ`,
/// 100 on every architecture the kernel exports it for).
pub const TICKS_PER_S: f64 = 100.0;

/// Counters of this process from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelfStat {
    /// Minor page faults.
    pub minflt: u64,
    /// User CPU, ticks (all threads, live and exited).
    pub utime: u64,
    /// System CPU, ticks.
    pub stime: u64,
}

/// Parses `/proc/<pid>/stat`. The command name (field 2) may hold spaces
/// and parentheses, so fields are counted from its last `)`.
pub fn parse_self_stat(text: &str) -> Result<SelfStat, String> {
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or("stat: no ')' after the command name")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state); field k sits at index k - 3.
    let at = |k: usize| -> Result<u64, String> {
        fields
            .get(k - 3)
            .ok_or(format!("stat: field {k} missing"))?
            .parse::<u64>()
            .map_err(|e| format!("stat: field {k}: {e}"))
    };
    Ok(SelfStat {
        minflt: at(10)?,
        utime: at(14)?,
        stime: at(15)?,
    })
}

/// Reads `/proc/self/stat`.
pub fn self_stat() -> Result<SelfStat, String> {
    parse_self_stat(&read("/proc/self/stat")?)
}

/// Aggregate CPU time of the host from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HostCpu {
    /// Ticks in every state from `user` through `steal` (guest time is
    /// already inside `user` and `nice`).
    pub total: u64,
    /// Ticks the hypervisor ran another guest while this one wanted a CPU.
    pub steal: u64,
}

/// Parses the `cpu ` line of `/proc/stat`.
pub fn parse_host_cpu(text: &str) -> Result<HostCpu, String> {
    let line = text
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or("stat: no aggregate cpu line")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse::<u64>().map_err(|e| format!("stat cpu: {e}")))
        .collect::<Result<_, _>>()?;
    if v.len() < 8 {
        return Err(format!("stat cpu: {} fields, need 8", v.len()));
    }
    Ok(HostCpu {
        total: v[..8].iter().sum(),
        steal: v[7],
    })
}

/// Reads `/proc/stat`.
pub fn host_cpu() -> Result<HostCpu, String> {
    parse_host_cpu(&read("/proc/stat")?)
}

/// Share of host CPU time stolen between two readings (0 when no time
/// passed).
pub fn steal_share(before: HostCpu, after: HostCpu) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Parses a `kB` line such as `VmHWM:` from `/proc/<pid>/status` into MiB.
pub fn parse_status_kib(text: &str, key: &str) -> Result<f64, String> {
    let line = text
        .lines()
        .find(|l| l.split(':').next() == Some(key))
        .ok_or(format!("status: no {key} line"))?;
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .ok_or(format!("status: {key} has no value"))?
        .parse()
        .map_err(|e| format!("status {key}: {e}"))?;
    Ok(kib as f64 / 1024.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    parse_status_kib(&read("/proc/self/status")?, "VmHWM")
}

/// Parses the 1, 5 and 15 minute load averages from `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Result<[f64; 3], String> {
    let mut it = text
        .split_whitespace()
        .map(|f| f.parse::<f64>().map_err(|e| format!("loadavg: {e}")));
    let mut out = [0.0; 3];
    for slot in &mut out {
        *slot = it.next().ok_or("loadavg: short line")??;
    }
    Ok(out)
}

/// Reads `/proc/loadavg`.
pub fn loadavg() -> Result<[f64; 3], String> {
    parse_loadavg(&read("/proc/loadavg")?)
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_stat_counts_fields_after_the_last_paren() {
        let text = "4242 (perf (bench) x) R 1 2 3 4 5 6 777 8 9 10 1234 56 0 0 20 0 3 0 99 \
                    1000 200 18446744073709551615";
        let s = parse_self_stat(text).unwrap();
        assert_eq!(
            s,
            SelfStat {
                minflt: 777,
                utime: 1234,
                stime: 56
            }
        );
        assert!(parse_self_stat("4242 perf R 1").is_err());
        assert!(parse_self_stat("4242 (perf) R 1 2 3").is_err());
    }

    #[test]
    fn self_stat_reads_this_process() {
        let s = self_stat().unwrap();
        assert!(s.minflt > 0);
    }

    #[test]
    fn host_cpu_sums_user_through_steal_and_ignores_guest() {
        let text = "cpu  100 5 50 800 20 1 2 30 7 0\ncpu0 50 2 25 400 10 0 1 15 3 0\nintr 1\n";
        let c = parse_host_cpu(text).unwrap();
        assert_eq!(c.total, 100 + 5 + 50 + 800 + 20 + 1 + 2 + 30);
        assert_eq!(c.steal, 30);
        assert!(parse_host_cpu("cpu0 1 2 3\n").is_err());
        assert!(parse_host_cpu("cpu  1 2 3\n").is_err());
    }

    #[test]
    fn steal_share_is_a_delta_ratio() {
        let a = HostCpu {
            total: 1000,
            steal: 10,
        };
        let b = HostCpu {
            total: 1400,
            steal: 50,
        };
        assert!((steal_share(a, b) - 0.1).abs() < 1e-12);
        assert_eq!(steal_share(a, a), 0.0);
    }

    #[test]
    fn status_kib_lines_become_mib() {
        let text = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kib(text, "VmHWM").unwrap(), 2.0);
        assert_eq!(parse_status_kib(text, "VmRSS").unwrap(), 1.0);
        assert!(parse_status_kib(text, "VmSwap").is_err());
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn loadavg_takes_the_three_averages() {
        assert_eq!(
            parse_loadavg("0.52 0.41 1.50 2/345 6789\n").unwrap(),
            [0.52, 0.41, 1.5]
        );
        assert!(parse_loadavg("0.52 x 1.50").is_err());
        assert!(parse_loadavg("0.52").is_err());
    }
}
