//! End-to-end and per-layer benchmark of `moat`.
//!
//! ```text
//! moat-benchmark --workload <tune-paper|tune-grid|serve-jobs> --seed <n>
//!                --seconds <s> --trace <0|1>
//!                --root <repo> --serve-bin <moat-serve>
//! moat-benchmark --self-test --root <repo> --serve-bin <moat-serve>
//! ```
//!
//! Runs whole rounds of a workload until `--seconds` have passed, checks
//! every output, and prints one JSON line: with `--trace 0` the end-to-end
//! metrics, with `--trace 1` the per-layer metrics of a traced run. See
//! README.md for the workloads, the metrics and what each should move.

mod check;
mod serve;
mod stats;
mod tune;

use check::Inject;
use stats::{median, quantile, Outcome};
use std::path::PathBuf;
use std::process::exit;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("evals_per_s", "1/s"),
    ("evals_per_op", "count"),
    ("hv_ref", "1"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not call
/// from the benchmark reads 0 there.
const PER_LAYER: [(&str, &str); 43] = [
    ("ir.parse_us", "us"),
    ("ir.analyze_us", "us"),
    ("core.session_ms", "ms"),
    ("core.batches", "count"),
    ("core.batch_configs", "count"),
    ("core.batch_overhead_ms", "ms"),
    ("core.driver_ms", "ms"),
    ("eval.calls", "count"),
    ("eval.us_per_call", "us"),
    ("eval.busy_share", "1"),
    ("surrogate.screened", "count"),
    ("surrogate.forwarded", "count"),
    ("surrogate.setup_ms", "ms"),
    ("mv.table_us", "us"),
    ("mv.emit_us", "us"),
    ("mv.c_kb", "KiB"),
    ("archive.insert_ms", "ms"),
    ("archive.lookup_ms", "ms"),
    ("archive.disk_kb", "KiB"),
    ("serve.submit_ms", "ms"),
    ("serve.submit_q1_ms", "ms"),
    ("serve.submit_q4_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.list_ms", "ms"),
    ("serve.poll_wait_ms", "ms"),
    ("serve.phase_submit_ms", "ms"),
    ("serve.phase_queue_ms", "ms"),
    ("serve.phase_eval_ms", "ms"),
    ("serve.phase_persist_ms", "ms"),
    ("serve.table_kb", "KiB"),
    ("serve.write_kb_per_job", "KiB"),
    ("serve.dedupe_hits", "count"),
    ("serve.replays", "count"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.calib_ms", "ms"),
    ("host.steal_pct", "%"),
    ("traced.ops_per_s", "1/s"),
    ("untraced.ops_per_s", "1/s"),
    ("op_p99_ms", "ms"),
    ("submit_p50_ms", "ms"),
    ("submit_p99_ms", "ms"),
];

/// The tail percentile needs ten samples beyond it.
const P99_MIN_OPS: usize = 1000;

pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The fault the self-test slips into one operation's output.
    pub inject: Option<Inject>,
    pub serve_bin: PathBuf,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("moat-benchmark: {msg}");
    eprintln!(
        "usage: moat-benchmark --workload <tune-paper|tune-grid|serve-jobs> --seed <n> \
         --seconds <s> --trace <0|1> --root <repo> --serve-bin <path> | --self-test --root <repo> --serve-bin <path>"
    );
    exit(2)
}

fn parse_args() -> (Args, bool) {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut root, mut serve_bin, mut self_test) = (None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            self_test = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => seconds = Some(value.parse().unwrap_or_else(|_| usage("bad --seconds"))),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--root" => root = Some(PathBuf::from(value)),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let root = root.unwrap_or_else(|| usage("--root is required"));
    let args = Args {
        workload: workload.unwrap_or_default(),
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(0.0),
        trace: trace.unwrap_or(false),
        inject: None,
        serve_bin: serve_bin.unwrap_or_else(|| usage("--serve-bin is required")),
        work: root
            .join(".bench_work")
            .join(std::process::id().to_string()),
    };
    if !self_test
        && (workload_fn(&args.workload).is_none()
            || seed.is_none()
            || seconds.is_none()
            || trace.is_none())
    {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    (args, self_test)
}

type Workload = fn(&Args) -> Result<Outcome, String>;

fn workload_fn(name: &str) -> Option<Workload> {
    match name {
        "tune-paper" => Some(|a| tune::run(a, false)),
        "tune-grid" => Some(|a| tune::run(a, true)),
        "serve-jobs" => Some(serve::run),
        _ => None,
    }
}

/// Run one workload in its own scratch directory, removed afterwards.
fn run(args: &Args) -> Result<Outcome, String> {
    let f = workload_fn(&args.workload).ok_or("unknown workload")?;
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    let out = f(args);
    let _ = std::fs::remove_dir_all(&args.work);
    if let Some(parent) = args.work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    out
}

fn metrics(args: &Args, out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let op_p99 = if out.ops[0].len() >= P99_MIN_OPS {
        quantile(&out.ops[0], 0.99) * 1e3
    } else {
        0.0
    };
    let (submit_p50, submit_p99) = if out.submits.len() >= P99_MIN_OPS {
        (
            median(&out.submits) * 1e3,
            quantile(&out.submits, 0.99) * 1e3,
        )
    } else {
        (0.0, 0.0)
    };
    if !args.trace {
        return vec![
            ("setup_s", median(&out.setup_s), "s"),
            ("ops_per_s", out.ops_per_s(false), "1/s"),
            ("op_p50_ms", out.op_p50_s() * 1e3, "ms"),
            ("evals_per_s", out.evals_per_s(), "1/s"),
            ("evals_per_op", out.evals_per_op, "count"),
            ("hv_ref", out.hv_ref, "1"),
            ("peak_rss_mb", out.peak_rss_mb, "MiB"),
            // Workload-specific figures, printed beside the JSON line.
            ("op_p99_ms", op_p99, "ms"),
            ("submit_p50_ms", submit_p50, "ms"),
            ("submit_p99_ms", submit_p99, "ms"),
        ];
    }
    let (traced_ops, untraced_ops) = (out.ops_per_s(true), out.ops_per_s(false));
    let mut own: Vec<(&'static str, f64)> = out.layer_metrics.clone();
    own.extend([
        (
            "trace.overhead_pct",
            (untraced_ops / traced_ops - 1.0) * 100.0,
        ),
        ("host.calib_ms", out.layers.ratio("calib_s", "rounds") * 1e3),
        ("host.steal_pct", out.steal_s / out.wall_s * 100.0),
        ("traced.ops_per_s", traced_ops),
        ("untraced.ops_per_s", untraced_ops),
        ("op_p99_ms", op_p99),
        ("submit_p50_ms", submit_p50),
        ("submit_p99_ms", submit_p99),
    ]);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = own.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            (name, v, unit)
        })
        .collect()
}

fn print_result(
    correct: bool,
    out: &Outcome,
    metrics: &[(&str, f64, &str)],
    wanted: &[(&str, &str)],
) {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| wanted.iter().any(|w| w.0 == m.0))
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

/// Every check must be able to fail: a clean run of each workload passes,
/// and each injected fault makes the same run fail.
fn self_test(args: &Args) -> bool {
    let mut ok = true;
    for workload in ["tune-paper", "tune-grid", "serve-jobs"] {
        for inject in [
            None,
            Some(Inject::Dominated),
            Some(Inject::Perturbed),
            Some(Inject::OverBudget),
        ] {
            let a = Args {
                workload: workload.into(),
                seed: 1,
                seconds: 0.0,
                trace: false,
                inject,
                serve_bin: args.serve_bin.clone(),
                work: args.work.clone(),
            };
            let error = match run(&a) {
                Ok(out) => out.error,
                Err(e) => Some(format!("did not run: {e}")),
            };
            let verdict = match (&error, inject) {
                (None, None) => "ok",
                (Some(e), Some(_)) if !e.starts_with("did not run") => "ok",
                _ => "WRONG",
            };
            ok &= verdict == "ok";
            let detail = match &error {
                None => "checks passed".to_string(),
                Some(e) => format!("check failed: {e}"),
            };
            println!("self-test {workload} inject={inject:?}: {verdict} ({detail})");
        }
    }
    ok
}

fn main() {
    let (args, self_testing) = parse_args();
    if self_testing {
        let ok = self_test(&args);
        println!("self-test {}", if ok { "passed" } else { "FAILED" });
        exit(if ok { 0 } else { 1 });
    }
    match run(&args) {
        Ok(out) => {
            let m = metrics(&args, &out);
            if !args.trace {
                let extra: Vec<String> = m[END_TO_END.len()..]
                    .iter()
                    .filter(|x| x.1 > 0.0)
                    .map(|(n, v, u)| format!("{n}={v:.3} {u}"))
                    .collect();
                println!("{} seed={} {}", args.workload, args.seed, extra.join(" "));
            }
            let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            if let Some((name, v, _)) = m.iter().find(|x| !x.1.is_finite()) {
                eprintln!("moat-benchmark: {name} is not finite ({v})");
                exit(1);
            }
            if let Some(e) = &out.error {
                eprintln!("moat-benchmark: {}: check failed: {e}", args.workload);
            }
            print_result(out.error.is_none(), &out, &m, wanted);
            if out.error.is_some() {
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("moat-benchmark: {} did not run: {e}", args.workload);
            exit(1);
        }
    }
}
