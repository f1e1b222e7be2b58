//! Run hygiene: what must not be set, and what is recorded about the host.

use std::path::Path;

/// Environment switches that change what the program under test does. A run
/// with any of them set measures a different program and is refused.
pub const FORBIDDEN_ENV: [&str; 5] = [
    "RELSERVE_FAULT_SEED",
    "RELSERVE_SOCK_FAULTS",
    "RELSERVE_CACHE",
    "RELSERVE_WORKERS",
    "RELSERVE_ISA",
];

/// The forbidden variables that are set, by name.
pub fn forbidden_env_set() -> Vec<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .filter(|name| std::env::var_os(name).is_some())
        .collect()
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The commit checked out at `repo_root`, read from `.git` without running
/// git; `unknown` outside a repository (the driver's checkout is not one).
pub fn git_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&git.join(reference))
            .or_else(|| {
                read(&git.join("packed-refs"))?
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_in_kb() {
        let status = "Name:\trelbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn commit_is_unknown_outside_a_repository() {
        assert_eq!(git_commit(Path::new("/nonexistent-relbench")), "unknown");
    }
}
