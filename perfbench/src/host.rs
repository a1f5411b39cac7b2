//! Host record: what machine and which source a run measured, plus the
//! CPU's busy and steal ticks over the timed window. Recorded with every
//! run, never gated on, so a slow host can be told apart from a slow
//! commit.

use std::path::Path;

/// Aggregate `cpu` line of `/proc/stat`: (busy, steal, total) ticks.
/// Zeros where the file does not exist.
pub fn cpu_ticks() -> (u64, u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0, 0);
    };
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0, 0);
    };
    // user nice system idle iowait irq softirq steal guest guest_nice
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    let get = |i: usize| f.get(i).copied().unwrap_or(0);
    let busy = get(0) + get(1) + get(2) + get(5) + get(6);
    let total = (0..8).map(get).sum();
    (busy, get(7), total)
}

/// Ticks spent between two [`cpu_ticks`] samples, as a JSON fragment.
pub fn window_ticks(before: (u64, u64, u64), after: (u64, u64, u64)) -> String {
    format!(
        "{{\"busy_ticks\":{},\"steal_ticks\":{},\"total_ticks\":{}}}",
        after.0.saturating_sub(before.0),
        after.1.saturating_sub(before.1),
        after.2.saturating_sub(before.2)
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The source revision: `git rev-parse HEAD` when the checkout is a git
/// repository, otherwise an FNV-1a digest of the workspace sources (the
/// crates, shims and lock file), so two runs of the same code still
/// carry the same label.
fn source_rev(root: &Path) -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "shims"] {
        collect_files(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// The host fingerprint as a JSON object (without the window ticks).
pub fn fingerprint(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{:?},\"build_profile\":\"release\",\"rev\":{:?}}}",
        cpu_model(),
        source_rev(root)
    )
}
