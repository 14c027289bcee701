//! Process CPU time and peak resident memory, read from Linux `/proc`.

/// `USER_HZ`: the unit of the CPU-time fields in `/proc/<pid>/stat`,
/// fixed at 100 by the Linux user-space ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all its threads, live and
/// exited) has consumed so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("/proc/self/stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric CPU-time field");
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("/proc/self/status reports VmHWM");
    kib as f64 / 1024.0
}
