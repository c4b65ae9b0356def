//! Run records: machine identity, spans, and the files a run leaves in
//! `out/`.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Where a run writes its record and spans.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The machine a result was measured on. Results from different
/// machines must never be compared, so every record carries this and
/// `compare` refuses to mix keys.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `none` outside git.
    pub git: String,
}

impl Machine {
    /// Probe the current machine.
    #[must_use]
    pub fn probe() -> Machine {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // Ask git only inside a checkout's own repository, so the probe
        // never searches the directories above it.
        let git = if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "none".into()
        };
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu,
            rustc: command_line("rustc", &["-V"]),
            git,
        }
    }

    /// Comparison key: same CPU model, CPU count and compiler.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{} | nproc {} | {}", self.cpu, self.nproc, self.rustc)
    }

    /// As a JSON object.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj()
            .with("nproc", self.nproc)
            .with("cpu", self.cpu.as_str())
            .with("rustc", self.rustc.as_str())
            .with("git", self.git.as_str())
    }

    /// Read back from [`Machine::json`] output.
    #[must_use]
    pub fn from_json(j: &Json) -> Machine {
        let s = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string()
        };
        Machine {
            nproc: j.get("nproc").and_then(Json::as_f64).unwrap_or(0.0) as usize,
            cpu: s("cpu"),
            rustc: s("rustc"),
            git: s("git"),
        }
    }
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One span: a named interval of the benchmark's own work around a call
/// into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    ops: u64,
}

/// In-memory span log, written once when the run ends.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Empty log; times are relative to now.
    #[must_use]
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`; returns its id.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            ops: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, recording how many operations it covered.
    pub fn close(&mut self, id: usize, ops: u64) {
        let end_ns = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.ops = ops;
    }

    /// As a JSON array of `{name, start_ns, end_ns, parent, ops}`.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", s.name.as_str())
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with("parent", s.parent.map_or(Json::Null, Json::from))
                        .with("ops", s.ops)
                })
                .collect(),
        )
    }
}

/// Write `text` to `out/<name>`, creating the directory.
///
/// # Errors
/// Returns the I/O error.
pub fn write_out(name: &str, text: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    let path = dir.join(name);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_round_trips_through_json() {
        let m = Machine::probe();
        assert!(m.nproc >= 1);
        let back = Machine::from_json(&Json::parse(&m.json().render()).expect("parses"));
        assert_eq!(back.key(), m.key());
        assert_eq!(back.git, m.git);
    }

    #[test]
    fn spans_nest_and_count_ops() {
        let mut s = Spans::new();
        let root = s.open("round", None);
        let child = s.open("simulate", Some(root));
        s.close(child, 7);
        s.close(root, 1);
        let j = s.json();
        let items = j.items();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(items[1].get("ops").and_then(Json::as_f64), Some(7.0));
        let end = |i: usize| items[i].get("end_ns").and_then(Json::as_f64);
        assert!(end(0) >= end(1));
    }
}
