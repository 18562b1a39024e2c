//! Where and how a row was measured: stamped on every emitted row.

use ei_trace::json::{Json, JsonObject};
use std::process::Command;

#[derive(Debug, Clone)]
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub nproc: usize,
    pub clients: usize,
    pub ei_threads: usize,
    cpu: String,
    rustc: String,
    git: String,
}

impl Provenance {
    pub fn collect(
        workload: &str,
        seed: u64,
        traced: bool,
        nproc: usize,
        clients: usize,
        ei_threads: usize,
    ) -> Provenance {
        Provenance {
            workload: workload.to_string(),
            seed,
            traced,
            nproc,
            clients,
            ei_threads,
            cpu: cpu_model(),
            rustc: first_line("rustc", &["-V"]),
            git: first_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// One emitted row: a metric, its sample count, the operations the
    /// run attempted, and where it was measured.
    pub fn row(&self, name: &str, value: f64, unit: &str, samples: usize, ops: u64) -> String {
        JsonObject::new()
            .field("metric", Json::Str(name.to_string()))
            .field("value", Json::Float(value))
            .field("unit", Json::Str(unit.to_string()))
            .field("samples", Json::Uint(samples as u64))
            .field("workload", Json::Str(self.workload.clone()))
            .field("seed", Json::Uint(self.seed))
            .field("traced", Json::Bool(self.traced))
            .field("ops", Json::Uint(ops))
            .field("clients", Json::Uint(self.clients as u64))
            .field("EI_THREADS", Json::Uint(self.ei_threads as u64))
            .field("nproc", Json::Uint(self.nproc as u64))
            .field("cpu", Json::Str(self.cpu.clone()))
            .field("rustc", Json::Str(self.rustc.clone()))
            .field("git", Json::Str(self.git.clone()))
            .field("measurement", Json::Str("wall".into()))
            .to_json()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, or `"unknown"` (the
/// benchmark also runs from checkouts that are not git repositories).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
