//! The repo's benchmark: wall-clock end-to-end and per-layer numbers of
//! the real `Api` → `Server` → `ParPool` path. See `README.md`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints one row per metric, then, as the
//! last line of standard output, the result object `BENCHMARK.json`
//! describes.

mod clock;
mod fixtures;
mod harness;
mod probes;
mod provenance;
mod spans;
mod stats;
mod workloads;

use fixtures::Task;
use harness::{Measured, Phase, Traced, Workload, LAYERS};
use probes::Metric;
use provenance::Provenance;
use std::io::Write;
use std::process::ExitCode;
use workloads::design::DesignCycle;
use workloads::serve::{ServeChurn, ServeHit};
use workloads::stream::StreamLive;

const WORKLOADS: [&str; 5] =
    ["serve_kws", "serve_vww", "serve_churn", "stream_live", "design_cycle"];

const USAGE: &str = "usage: edgelab-benchmark --workload <serve_kws|serve_vww|serve_churn|\
stream_live|design_cycle> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("a workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a duration"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a duration in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports: the rows and the verdict.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // one closed-loop client per core; pools no wider than the host
    let clients = nproc;
    let ei_threads = match std::env::var(ei_par::config::THREADS_ENV) {
        Ok(value) => match value.parse::<usize>() {
            Ok(threads) if (1..=nproc).contains(&threads) => threads,
            _ => {
                eprintln!("refusing to start: EI_THREADS={value} on a host with nproc={nproc}");
                return ExitCode::from(2);
            }
        },
        Err(_) => {
            // before any thread exists: the global pool reads it on first use
            std::env::set_var(ei_par::config::THREADS_ENV, nproc.to_string());
            nproc
        }
    };
    let provenance =
        Provenance::collect(&args.workload, args.seed, args.trace, nproc, clients, ei_threads);

    let (seed, eon, tflm) =
        (args.seed, ei_runtime::EngineKind::EonCompiled, ei_runtime::EngineKind::TflmInterpreter);
    let report = match args.workload.as_str() {
        "serve_kws" => run(&args, clients, || ServeHit::setup(Task::Kws, eon, true, seed, clients)),
        "serve_vww" => {
            run(&args, clients, || ServeHit::setup(Task::Vww, tflm, false, seed, clients))
        }
        "serve_churn" => run(&args, clients, || ServeChurn::setup(seed, clients)),
        "stream_live" => run(&args, clients, || StreamLive::setup(seed, clients)),
        "design_cycle" => run(&args, clients, || DesignCycle::setup(seed, clients)),
        other => unreachable!("parse_args admitted {other}"),
    };

    let mut out = std::io::stdout().lock();
    for m in &report.metrics {
        let row = provenance.row(&m.name, m.value, m.unit, m.samples, report.attempted);
        writeln!(out, "{row}").expect("stdout is writable");
    }
    for error in &report.errors {
        eprintln!("FAILED: {error}");
    }
    let correct = report.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(r#""{}": {{"value": {}, "unit": "{}"}}"#, m.name, json_number(m.value), m.unit)
        })
        .collect();
    writeln!(
        out,
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
    .expect("stdout is writable");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A number as measured, with all its digits (JSON has no NaN or Inf).
fn json_number(value: f64) -> String {
    ei_trace::json::Json::Float(value).to_json()
}

fn run<W: Workload>(args: &Args, clients: usize, setup: impl Fn() -> W) -> Report {
    if args.trace {
        let probes = probes::layer_probes(args.seed, clients);
        let traced = harness::trace(setup(), clients, args.seconds);
        if let Err(e) = write_trace(&args.workload, &traced) {
            eprintln!("could not write the span file: {e}");
        }
        traced_report(probes, traced)
    } else {
        end_to_end_report(harness::measure(setup, clients, args.seconds))
    }
}

/// The end-to-end metrics, named alike on every workload: an operation is
/// one `Api::classify` (`serve_*`), one `Api::stream_push` (`stream_live`)
/// or one pass of the design loop (`design_cycle`).
fn end_to_end_report(measured: Measured) -> Report {
    let Measured { setup_s, timed, violations } = measured;
    let n = timed.latencies_ms.len();
    let mut metrics = Vec::new();
    if n > 0 {
        metrics.push(Metric::new("op_p50_ms", timed.block_median_ms(), "ms", n));
        metrics.push(Metric::new("ops_per_s", n as f64 / timed.wall_s, "1/s", n));
    }
    let setups = setup_s.len();
    metrics.push(Metric::new("setup_s", stats::median(setup_s), "s", setups));
    if let Some(mb) = provenance::peak_rss_mb() {
        metrics.push(Metric::new("peak_rss_mb", mb, "MB", 1));
    }
    verdict(metrics, &[&timed], violations)
}

/// The per-layer metrics: the fixed probes, then what this workload's
/// spans and counters say.
fn traced_report(mut metrics: Vec<Metric>, run: Traced) -> Report {
    let Traced { untraced, traced, violations, counters, attribution, .. } = run;
    let sorted = untraced.sorted_latencies();
    let n = sorted.len();
    let operations = traced.latencies_ms.len();
    let untraced_p50 = if n > 0 { stats::percentile(&sorted, 50.0) } else { f64::NAN };
    // tail percentiles do not repeat within a tenth on the reference host,
    // so they are diagnostics here, not bounded end-to-end metrics
    for (name, p) in [("bench.op_p95_ms", 95.0), ("bench.op_p99_ms", 99.0)] {
        if !stats::supported(n, p) {
            eprintln!("warning: {name} from {n} samples has fewer than ten beyond it");
        }
        let value = if n > 0 { stats::percentile(&sorted, p) } else { f64::NAN };
        metrics.push(Metric::new(name, value, "ms", n));
    }
    // the traced operation is its root span: the probes run outside it
    metrics.push(Metric::new(
        "bench.trace_overhead_ratio",
        attribution.op_ms / untraced_p50,
        "ratio",
        operations,
    ));
    let attributed: f64 = attribution.layer_ms.values().sum();
    metrics.push(Metric::new(
        "bench.unattributed_share",
        (untraced_p50 - attributed) / untraced_p50,
        "ratio",
        operations,
    ));
    for layer in LAYERS {
        let ms = attribution.layer_ms.get(layer).copied().unwrap_or(0.0);
        metrics.push(Metric::new(format!("share.{layer}"), ms / untraced_p50, "ratio", operations));
    }

    let lookups = counters.cache.hits + counters.cache.misses;
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let stream = counters.stream;
    let audio_s = stream.samples_in as f64 / 16_000.0;
    let wall_s = untraced.wall_s + traced.wall_s;
    let counts = [
        ("serve.cache_hits", counters.cache.hits as f64, "count"),
        ("serve.cache_misses", counters.cache.misses as f64, "count"),
        ("serve.cache_evictions", counters.cache.evictions as f64, "count"),
        ("serve.cache_hit_rate", counters.cache.hit_rate(), "ratio"),
        ("serve.rejected", counters.rejected as f64, "count"),
        ("serve.lost_tickets", counters.lost_tickets as f64, "count"),
        // every dispatched batch looks its artifact up exactly once
        ("serve.batch_size_mean", ratio(counters.requests, lookups), "count"),
        ("stream.windows_classified", stream.windows_classified as f64, "count"),
        ("stream.drops_total", stream.drops_total() as f64, "count"),
        ("stream.realtime_x", audio_s / wall_s, "ratio"),
        ("dsp.frames_reuse_ratio", ratio(stream.frames_used, stream.frames_computed), "ratio"),
        ("par.steals", counters.pool_steals as f64, "count"),
    ];
    let observations = (untraced.attempted + traced.attempted) as usize;
    metrics.extend(counts.map(|(name, value, unit)| Metric::new(name, value, unit, observations)));
    verdict(metrics, &[&untraced, &traced], violations)
}

/// Counts failed operations and violated invariants alike: either makes
/// the run incorrect.
fn verdict(metrics: Vec<Metric>, phases: &[&Phase], violations: Vec<String>) -> Report {
    let attempted = phases.iter().map(|p| p.attempted).sum();
    let failed = phases.iter().map(|p| p.failed).sum::<u64>() + violations.len() as u64;
    let mut errors: Vec<String> = phases.iter().flat_map(|p| p.errors.clone()).collect();
    errors.extend(violations);
    Report { metrics, attempted, failed, errors }
}

/// Writes every span of the run to `benchmark/out/<workload>.trace.jsonl`.
fn write_trace(workload: &str, traced: &Traced) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("{workload}.trace.jsonl")))?;
    let mut out = std::io::BufWriter::new(file);
    for recorder in &traced.recorders {
        recorder.write_jsonl(&mut out)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args("--workload serve_kws --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve_kws", 7, 10.0, true));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve_kws --seed 1 --seconds 1").is_err());
        assert!(args("--workload serve_kws --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve_kws --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload serve_kws --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload").is_err());
    }
}
