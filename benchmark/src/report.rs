//! What a run prints: a readable summary, the environment stamp and, as
//! the last line, the result object.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits (`null` if not finite).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result object: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The environment a run measured: code, toolchain, machine and build.
#[derive(Debug)]
pub struct Environment {
    /// `git rev-parse HEAD`, when the working directory is a git checkout.
    pub git_commit: String,
    /// FNV-1a 64 over the measured sources (`Cargo.toml`, `Cargo.lock`,
    /// `crates/` and the benchmark's own sources): identifies the code
    /// where git cannot.
    pub source_fingerprint: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// How this binary was built.
    pub profile: &'static str,
}

impl Environment {
    /// Probes the environment of the working directory.
    pub fn probe() -> Environment {
        Environment {
            git_commit: git_commit()
                .unwrap_or_else(|| "unavailable: not a git checkout".to_owned()),
            source_fingerprint: source_fingerprint(),
            rustc: command_line("rustc", &["--version"])
                .unwrap_or_else(|| "unavailable".to_owned()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (codegen-units=1)"
            },
        }
    }

    /// The stamp as JSON fields (no braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"git_commit\": {}, \"source_fingerprint\": {}, \"rustc\": {}, \"nproc\": {}, \"profile\": {}",
            json_str(&self.git_commit),
            json_str(&self.source_fingerprint),
            json_str(&self.rustc),
            self.nproc,
            json_str(self.profile)
        )
    }
}

/// First stdout line of `program args`, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_owned())
}

/// The commit of the working directory, only if it is the top of a git
/// checkout (a checkout nested in some other repository reports nothing).
fn git_commit() -> Option<String> {
    let output = Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let mut lines = text.lines();
    let top = std::fs::canonicalize(lines.next()?).ok()?;
    let here = std::fs::canonicalize(".").ok()?;
    (top == here)
        .then(|| lines.next().map(str::to_owned))
        .flatten()
}

/// FNV-1a 64 over the sorted relative paths and contents of the sources.
fn source_fingerprint() -> String {
    let mut files = Vec::new();
    let roots = [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "benchmark/Cargo.toml",
        "benchmark/src",
        "benchmark/reference",
    ];
    for root in roots {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in &files {
        feed(file.to_string_lossy().as_bytes());
        feed(&[0]);
        feed(&std::fs::read(file).unwrap_or_default());
    }
    format!("fnv1a64:{hash:016x} over {} files", files.len())
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_owned());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}
