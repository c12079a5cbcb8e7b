//! Host facts and process accounting read from `/proc`, plus the scratch
//! directory every file the harness writes lives under.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`. Linux
/// fixes it at 100 for userspace on every architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process has used so far (all threads,
/// including ones that already exited).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / TICKS_PER_SEC
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checkout's commit, or `unknown` outside a git work tree (the
/// driver's checkout is a plain directory).
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit.into()
    }
}

/// A scratch directory under the current directory (the checkout root),
/// removed on drop. Nothing is kept between runs, so `setup_s` repeats.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        // Unique per process and per use, so concurrent runs (and the
        // self-tests' threads) never share a directory.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when this was the last user.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        // Burn a little CPU so the counter cannot be read as a constant 0
        // on a freshly started test process.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 1.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn work_dir_is_removed_on_drop() {
        let path = {
            let w = WorkDir::new("selftest").unwrap();
            std::fs::write(w.path().join("f"), b"x").unwrap();
            w.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
