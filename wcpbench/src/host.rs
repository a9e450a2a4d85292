//! Host metadata printed with every result: CPU count, CPU model,
//! compiler and source revision.

use std::fs;
use std::path::Path;

/// Where and with what a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub git: String,
}

impl Host {
    /// Probes the running host; the revision is read from `.git` under
    /// the current directory, without running git.
    pub fn probe() -> Host {
        Host {
            nproc: nproc(),
            cpu: fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| cpu_model(&s))
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("WCPBENCH_RUSTC").to_string(),
            git: git_revision(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Kernel clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on
/// Linux).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// A reading of the host's steal counter: CPU time the hypervisor gave
/// to other guests while this one wanted to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Steal {
    ticks: u64,
    cpus: usize,
}

impl Steal {
    /// Reads `/proc/stat`; `None` where the host does not report steal.
    pub fn now() -> Option<Steal> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let ticks = stat
            .lines()
            .next()?
            .split_whitespace()
            .nth(8)?
            .parse()
            .ok()?;
        let cpus = stat
            .lines()
            .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
            .count();
        Some(Steal { ticks, cpus })
    }

    /// Share of all CPUs' time stolen since this reading, over a window
    /// of `wall_s` seconds.
    pub fn share_since(self, wall_s: f64) -> Option<f64> {
        let later = Steal::now()?;
        let stolen = later.ticks.checked_sub(self.ticks)? as f64 / CLOCK_TICKS_PER_S;
        Some(stolen / (wall_s * self.cpus.max(1) as f64).max(1e-9))
    }
}

/// Usable CPUs (1 when the platform cannot tell).
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Resolves `HEAD` in the git directory `git_dir` (loose or packed ref).
fn git_revision(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git_dir.join(name)) {
        return Some(rev.trim().to_string());
    }
    fs::read_to_string(git_dir.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_reads_the_first_model_line() {
        let info = "processor\t: 0\nmodel name\t: Test CPU @ 2GHz\nmodel name\t: other\n";
        assert_eq!(cpu_model(info).as_deref(), Some("Test CPU @ 2GHz"));
        assert_eq!(cpu_model("flags: x"), None);
    }

    #[test]
    fn git_revision_is_unknown_without_a_git_dir() {
        assert_eq!(git_revision(Path::new("no-such-git-dir")), None);
    }
}
