//! The host block stamped on every result, and peak-RSS probes.

use serde::Value;
use std::path::Path;

/// Where and on what a result was measured. `compare.py` compares two
/// result sets only when nproc, CPU model, rustc, rayon threads and
/// daemons agree.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_sha: String,
    /// FNV-1a digest of the sources the benchmark builds, so results
    /// from a checkout without git still name the code they measured.
    pub source_digest: String,
    /// `RAYON_NUM_THREADS` as set (`unset` otherwise).
    pub rayon_threads: String,
    /// Workload seed.
    pub seed: u64,
    /// Daemons in the cluster workload (0 for in-process workloads).
    pub daemons: usize,
}

impl Host {
    /// Probe the current host for a run at `seed` with `daemons` daemons.
    pub fn probe(seed: u64, daemons: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            git_sha: command_line("git", &["rev-parse", "HEAD"]),
            source_digest: source_digest(Path::new(".")),
            rayon_threads: std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
            seed,
            daemons,
        }
    }

    /// One-line rendering for the human report.
    pub fn one_line(&self) -> String {
        format!(
            "nproc={} cpu={} rustc={} rayon={} daemons={} git={} src={} seed={}",
            self.nproc,
            self.cpu_model,
            self.rustc,
            self.rayon_threads,
            self.daemons,
            self.git_sha,
            self.source_digest,
            self.seed
        )
    }

    /// JSON form for the result record.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("nproc".into(), Value::U64(self.nproc as u64)),
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("git_sha".into(), Value::Str(self.git_sha.clone())),
            (
                "source_digest".into(),
                Value::Str(self.source_digest.clone()),
            ),
            (
                "rayon_threads".into(),
                Value::Str(self.rayon_threads.clone()),
            ),
            ("seed".into(), Value::U64(self.seed)),
            ("daemons".into(), Value::U64(self.daemons as u64)),
        ])
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Width of the rayon pool the program's parallel loops run on.
pub fn pool_width() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or_else(nproc, |n| n.max(1))
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the relative paths and bytes of every file the build
/// reads: the root manifests, `crates/`, `shims/` and this package's
/// own sources.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "shims",
        "e2ebench/src",
    ] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = crate::workloads::Fnv::default();
    for f in &files {
        h.eat(f.to_string_lossy().as_bytes());
        h.eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(path) {
        for e in rd.flatten() {
            let p = e.path();
            // build outputs never count as sources
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak RSS of this process, MiB.
pub fn own_peak_rss_mb() -> f64 {
    peak_rss_mb("self").unwrap_or(0.0)
}

/// Summed peak RSS of this process's live children named `comm`, MiB.
pub fn children_peak_rss_mb(comm: &str) -> f64 {
    let me = std::process::id().to_string();
    let Ok(rd) = std::fs::read_dir("/proc") else {
        return 0.0;
    };
    rd.flatten()
        .filter_map(|e| {
            let pid = e.file_name().to_string_lossy().into_owned();
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
            // "pid (comm) state ppid ..." — comm may hold spaces
            let open = stat.find('(')?;
            let close = stat.rfind(')')?;
            let name = &stat[open + 1..close];
            let ppid = stat[close + 1..].split_whitespace().nth(1)?;
            (ppid == me && name == comm).then(|| peak_rss_mb(&pid))?
        })
        .sum()
}
