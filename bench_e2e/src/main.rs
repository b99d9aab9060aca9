//! `bench_e2e` — client-observed ProQL read/write benchmark with a
//! per-layer ladder. See `README.md` beside this package for the
//! glossary, the layer → metric table and the reference numbers.
//!
//! ```text
//! bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! bench_e2e --compare A.json B.json
//! ```
//!
//! A run prints one JSON record per workload (every metric by name, unit
//! and sample count, plus diagnostics) and, last, the one-line result
//! the driver reads: `correct`, `attempted`, `failed`, `metrics`.

mod alloc;
mod client;
mod compare;
mod gen;
mod json;
mod ladder;
mod run;
mod spans;
mod stats;
mod verify;

use gen::Workload;
use json::{num, object};
use proql_service::proto::json_str;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Times the instance is set up per run; `setup_s` is their median and
/// the last one carries the traffic.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?}; expected one of {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must lie in 1..=60".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line a command prints, or "unknown" (a checkout without git
/// history, as the driver's, has no revision).
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken; every record carries it.
fn environment(seed: u64, seconds: f64) -> String {
    object(&[
        ("seed".into(), seed.to_string()),
        ("seconds".into(), num(seconds)),
        ("nproc".into(), nproc().to_string()),
        ("rustc".into(), json_str(&first_line_of("rustc", &["-V"]))),
        (
            "commit".into(),
            json_str(&first_line_of("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: String,
    samples: usize,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        }
    }
}

/// `{"name": {"value": .., "unit": .., ["samples": ..]}, ...}`; the
/// driver's result line carries no sample counts.
fn metrics_object(metrics: &[Metric], with_samples: bool) -> String {
    let rendered: Vec<(String, String)> = metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value".to_string(), num(m.value)),
                ("unit".to_string(), json_str(&m.unit)),
            ];
            if with_samples {
                fields.push(("samples".to_string(), m.samples.to_string()));
            }
            (m.name.clone(), object(&fields))
        })
        .collect();
    object(&rendered)
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` (each metric a value and a unit).
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    object(&[
        ("correct".into(), correct.to_string()),
        ("attempted".into(), attempted.max(1).to_string()),
        ("failed".into(), failed.to_string()),
        ("metrics".into(), metrics_object(metrics, false)),
    ])
}

/// A JSON array of strings.
fn string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// The timed run of one workload. Returns the result line and whether
/// the run was correct.
fn timed(workload: Workload, seed: u64, seconds: f64) -> proql_common::Result<(String, bool)> {
    // Load comes from this one process, with no more generator threads
    // or connections than processors (2 on the reference box).
    let conns = nproc().min(2);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inst = None;
    for _ in 0..SETUP_REPS {
        drop(inst.take()); // the previous server stops before the next starts
        let t = Instant::now();
        inst = Some(run::set_up(workload, seed, nproc())?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let inst = inst.expect("SETUP_REPS >= 1");
    let setup_s = stats::median(&setups);

    let out = match workload {
        Workload::MissUnfold | Workload::MissGraph => {
            run::run_miss(workload, seed, &inst, seconds, conns)?
        }
        Workload::HotRead => run::run_hot(seed, &inst, seconds, conns)?,
        Workload::WriteMixed | Workload::ReadMixed => {
            run::run_mixed(workload, seed, &inst, seconds)?
        }
    };
    let instance_rows = inst.rows;
    drop(inst);
    let rss = peak_rss_mb();
    let correct = out.failed == 0 && out.notes.is_empty();
    let n = out.primary.samples;

    let metrics = [
        Metric::new("setup_s", setup_s, "s", SETUP_REPS),
        Metric::new("lat_p50_ms", out.primary.p50_ms, "ms", n),
        Metric::new("lat_p99_ms", out.primary.tail_ms, "ms", n),
        Metric::new("ops_per_s", out.primary.per_s, "1/s", n),
        Metric::new("peak_rss_mb", rss, "MB", 1),
    ];
    let mut record = vec![
        ("workload".to_string(), json_str(workload.name())),
        ("mode".to_string(), json_str("timed")),
        ("env".to_string(), environment(seed, seconds)),
        ("correct".to_string(), correct.to_string()),
        ("attempted".to_string(), out.attempted.to_string()),
        ("failed".to_string(), out.failed.to_string()),
        (
            "failed_frac".to_string(),
            num(out.failed as f64 / out.attempted.max(1) as f64),
        ),
        ("metrics".to_string(), metrics_object(&metrics, true)),
        ("tail_quantile".to_string(), num(out.primary.tail_q)),
        ("instance_rows".to_string(), instance_rows.to_string()),
        ("notes".to_string(), string_array(&out.notes)),
    ];
    record.extend(out.diagnostics);
    println!("{}", object(&record));
    if out.primary.tail_q < 0.99 {
        eprintln!(
            "bench_e2e: {}: only {n} samples; lat_p99_ms is read at q={}",
            workload.name(),
            out.primary.tail_q
        );
    }
    let line = result_line(correct, out.attempted, out.failed, &metrics);
    Ok((line, correct))
}

/// The traced run of one workload (see `ladder.rs`).
fn traced(workload: Workload, seed: u64, seconds: f64) -> proql_common::Result<(String, bool)> {
    let report = ladder::trace_workload(workload, seed, nproc())?;
    println!("{}", report.table);
    let metrics: Vec<Metric> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| Metric::new(name, *value, unit, report.ops as usize))
        .collect();
    let record = [
        ("workload".to_string(), json_str(workload.name())),
        ("mode".to_string(), json_str("traced")),
        ("env".to_string(), environment(seed, seconds)),
        ("correct".to_string(), report.correct().to_string()),
        ("attempted".to_string(), report.ops.to_string()),
        ("failed".to_string(), report.failed.to_string()),
        ("span_file".to_string(), json_str(&report.span_file)),
        ("notes".to_string(), string_array(&report.notes)),
        ("metrics".to_string(), metrics_object(&metrics, true)),
        ("layers".to_string(), report.layers_json.clone()),
    ];
    println!("{}", object(&record));
    let line = result_line(report.correct(), report.ops, report.failed, &metrics);
    Ok((line, report.correct()))
}

fn main() {
    // Both sides of any later comparison run the program's shipped
    // defaults: drop every inherited knob before a thread exists.
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PROQL_"))
        .collect();
    for key in inherited {
        std::env::remove_var(key);
    }

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            std::process::exit(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        std::process::exit(compare::run(a, b));
    }
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_correct = true;
    let mut last_line = String::new();
    for w in workloads {
        let outcome = if args.trace {
            traced(w, args.seed, args.seconds)
        } else {
            timed(w, args.seed, args.seconds)
        };
        match outcome {
            Ok((line, correct)) => {
                all_correct &= correct;
                last_line = line;
            }
            Err(e) => {
                eprintln!("bench_e2e: {}: {e}", w.name());
                std::process::exit(1);
            }
        }
    }
    // With one workload named (how the driver calls it) this is the
    // contract's result line; after several it is the last workload's.
    println!("{last_line}");
    if !all_correct {
        std::process::exit(1);
    }
}
