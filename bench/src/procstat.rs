//! Process accounting read from `/proc`: CPU ticks and peak resident set.

/// CPU time of a process and of the children it has waited for, in clock
/// ticks (`USER_HZ`, 100 per second on Linux).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuTicks {
    /// `utime + stime` of the process itself.
    pub own: u64,
    /// `cutime + cstime`: reaped children (the distributed workers).
    pub children: u64,
}

impl CpuTicks {
    pub fn total(self) -> u64 {
        self.own + self.children
    }
}

/// Clock ticks per second of the `/proc/<pid>/stat` times.
pub const TICKS_PER_S: f64 = 100.0;

/// Parse one `/proc/<pid>/stat` line. The second field, the command name
/// in parentheses, may itself hold spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<CpuTicks> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime..cstime are fields 14..17.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut next = || fields.next()?.parse::<u64>().ok();
    let (utime, stime, cutime, cstime) = (next()?, next()?, next()?, next()?);
    Some(CpuTicks {
        own: utime + stime,
        children: cutime + cstime,
    })
}

/// Parse the `VmHWM` line (peak resident set, kB) out of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU ticks of this process so far.
pub fn cpu_ticks() -> CpuTicks {
    let line = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&line).expect("parse /proc/self/stat")
}

/// Peak resident set of this process so far, kB.
pub fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL: &str = "S 1 2 3 0 -1 4194560 100 200 0 0 17 5 40 2 20 0 3 0 12345 1000000 250";

    #[test]
    fn plain_command_name() {
        let t = parse_stat(&format!("4242 (bench) {TAIL}")).unwrap();
        assert_eq!(
            t,
            CpuTicks {
                own: 22,
                children: 42
            }
        );
        assert_eq!(t.total(), 64);
    }

    #[test]
    fn command_name_with_spaces_and_parentheses() {
        let t = parse_stat(&format!("7 (my (odd) name) 1 2) {TAIL}")).unwrap();
        assert_eq!(
            t,
            CpuTicks {
                own: 22,
                children: 42
            }
        );
    }

    #[test]
    fn truncated_lines_are_rejected() {
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis at all"), None);
    }

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    5124 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5124));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(vm_hwm_kb() > 0);
        let before = cpu_ticks();
        assert!(cpu_ticks().total() >= before.total());
    }
}
