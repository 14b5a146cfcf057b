//! Small helpers: percentiles, peak memory and per-run scratch directories.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The value at quantile `p` of ascending `sorted` (nearest rank on
/// `(len - 1) * p`); 0 when empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Sorts and returns the samples.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_unstable_by(f64::total_cmp);
    values
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory unique to this process and call (PID plus a process-wide
/// counter), removed with its contents when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(root: &Path) -> std::io::Result<ScratchDir> {
        let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("scratch-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_rank() {
        let v = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn scratch_dirs_are_distinct_and_removed() {
        let root = std::env::temp_dir().join(format!("c2bench-test-{}", std::process::id()));
        let a = ScratchDir::create(&root).unwrap();
        let b = ScratchDir::create(&root).unwrap();
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        drop(b);
        let _ = std::fs::remove_dir_all(root);
    }
}
