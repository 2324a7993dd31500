//! Benchmark of the served Menos split step: end-to-end speed, pool
//! capacity and a per-layer step breakdown over three workloads.
//!
//! ```text
//! splitbench --workload solo_tcp|pair_tcp|pool_admit --seed N --seconds S --trace 0|1
//!            [--out DIR] [--git-rev REV]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). A failed
//! correctness gate, protocol error or violated invariant exits 1.
//! See `README.md` beside this crate for the metrics and workloads.

mod pool;
mod report;
mod stats;
mod tcp;
mod trace;
mod world;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use menos_net::Codec;

use crate::report::{Measured, Metric};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Longest a run may measure while it waits for enough step samples.
pub const HARD_LIMIT: Duration = Duration::from_secs(120);
/// Steps at the end of each client's curve that `loss_final` averages.
pub const LOSS_TAIL: usize = 20;

pub const WORKLOADS: [&str; 3] = ["solo_tcp", "pair_tcp", "pool_admit"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Steps the measured interval must hold before it may end.
    pub min_steps: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub out: Option<PathBuf>,
    pub git_rev: String,
    pub process_start: Instant,
}

fn parse_args(process_start: Instant) -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (want one of {WORKLOADS:?})"
        ));
    }
    let num = |name: &str| -> Result<u64, String> {
        get(name)
            .ok_or(format!("{name} is required"))?
            .parse()
            .map_err(|e| format!("{name}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: Duration::from_secs(seconds),
        trace,
        // Enough that ten samples lie beyond the reported p95.
        min_steps: stats::samples_needed(0.95),
        setup_reps: SETUP_REPS,
        out: get("--out").map(PathBuf::from),
        git_rev: get("--git-rev").unwrap_or("unknown").to_string(),
        process_start,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("non-finite value {v}"))
    }
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let fields: Result<Vec<String>, String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            Ok(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value).map_err(|e| format!("{name}: {e}"))?,
                json_str(unit)
            ))
        })
        .collect();
    Ok(format!("{{{}}}", fields?.join(", ")))
}

/// Host and build facts every record carries.
fn host_json(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let features: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(f, _)| *f)
    .collect();
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}, \
         \"tensor_threads\": {}, \"target_cpu\": {}, \"target_features\": {}}}",
        json_str(&cpu),
        json_str(env!("SPLITBENCH_RUSTC")),
        json_str(&args.git_rev),
        menos_tensor::threads(),
        json_str(env!("SPLITBENCH_TARGET_CPU")),
        json_str(&features.join(","))
    )
}

fn spans_json(m: &Measured) -> String {
    let lines: Vec<String> = m
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                 \"client\": {}, \"step\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.client,
                s.step
            )
        })
        .collect();
    format!("[\n{}\n]", lines.join(",\n"))
}

fn run(args: &Args) -> Result<Measured, String> {
    match args.workload.as_str() {
        "solo_tcp" => tcp::run(args, 1, Codec::F32Raw),
        "pair_tcp" => tcp::run(args, 2, Codec::F16),
        "pool_admit" => pool::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(process_start) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("splitbench: {e}");
            std::process::exit(2);
        }
    };
    let host = host_json(&args);
    println!("{{\"host\": {host}}}");
    let outcome = run(&args).and_then(|m| {
        let metrics = if args.trace {
            m.per_layer()
        } else {
            m.end_to_end()?
        };
        Ok((json_metrics(&metrics)?, m))
    });
    let (metrics, m) = match outcome {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("splitbench {}: FAILED: {e}", args.workload);
            std::process::exit(1);
        }
    };
    // Any failed session or step aborts the run above, so a printed
    // result has none.
    let failed = 0u64;
    let info = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"steps\": {}, \"elapsed_s\": {:?}, \
         \"fail_ratio\": {{\"value\": {:?}, \"unit\": \"ratio\"}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        m.steps,
        m.elapsed_s,
        failed as f64 / m.attempted() as f64
    );
    println!("{{\"info\": {info}}}");
    if let Some(dir) = &args.out {
        let spans = if args.trace {
            spans_json(&m)
        } else {
            "[]".into()
        };
        let record = format!(
            "{{\"host\": {host}, \"info\": {info}, \"metrics\": {metrics}, \"spans\": {spans}}}\n"
        );
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, record)) {
            eprintln!("splitbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        m.attempted()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One set-up and the shortest measured interval the workload
    /// allows, with tracing on so every layer metric is computed.
    fn smoke(workload: &str) -> Measured {
        let args = Args {
            workload: workload.into(),
            seed: 7,
            seconds: Duration::ZERO,
            trace: true,
            min_steps: 1,
            setup_reps: 1,
            out: None,
            git_rev: "test".into(),
            process_start: Instant::now(),
        };
        let m = run(&args).unwrap_or_else(|e| panic!("{workload} failed its gate: {e}"));
        assert!(m.steps >= 1);
        let layers = m.per_layer();
        assert_eq!(layers.len(), 20);
        assert!(
            json_metrics(&layers).is_ok(),
            "every layer metric is finite"
        );
        m
    }

    #[test]
    fn solo_tcp_smoke_run_passes_the_gate() {
        let m = smoke("solo_tcp");
        assert_eq!(m.sessions_live_peak, 1.0);
        let layer = |name: &str| m.per_layer().iter().find(|l| l.0 == name).unwrap().1;
        assert_eq!(layer("loop.max_batch"), 1.0);
    }

    #[test]
    fn pair_tcp_smoke_run_passes_the_gate() {
        let m = smoke("pair_tcp");
        assert_eq!(m.sessions_live_peak, 2.0);
    }

    #[test]
    fn pool_admit_smoke_run_passes_the_gate() {
        let m = smoke("pool_admit");
        assert_eq!(m.sessions, pool::COHORT as u64);
        assert!(m.sessions_live_peak >= 1.0 && m.sessions_live_peak < pool::COHORT as f64);
        assert!(m.sheds > 0, "the pool is meant to shed");
    }

    #[test]
    fn unknown_workload_is_refused() {
        let args = Args {
            workload: "nope".into(),
            seed: 0,
            seconds: Duration::ZERO,
            trace: false,
            min_steps: 1,
            setup_reps: 1,
            out: None,
            git_rev: String::new(),
            process_start: Instant::now(),
        };
        assert!(run(&args).is_err());
    }

    #[test]
    fn json_refuses_non_finite_values() {
        assert!(json_metrics(&[("x", f64::NAN, "ms")]).is_err());
        assert_eq!(
            json_metrics(&[("x", 1.5, "ms")]).unwrap(),
            "{\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
    }
}
