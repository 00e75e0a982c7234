//! The datalog° engine benchmark: one named workload per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload closure_batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Untraced (`--trace 0`), a run prints every end-to-end metric by name
//! with its unit. Traced (`--trace 1`), it prints every per-layer metric
//! and writes its spans to `perfbench/out/`. Either way the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--smoke` shrinks
//! every input (the package's own tests run each workload that way).

mod harness;
mod inputs;
mod oracle;
mod report;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use harness::{Window, COUNTERS};
use report::{beyond, host, peak_rss_mb, quantile, Metrics, Samples};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics: name, unit. Every workload reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name, unit. A layer a workload
/// does not run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("demand.rewrite_ms", "ms"),
    ("plan.compile_ms", "ms"),
    ("intern.setup_ms", "ms"),
    ("storage.edb_index_ms", "ms"),
    ("arrange.arrange_ms", "ms"),
    ("arrange.merge_join_steps", "count"),
    ("arrange.batches_merged", "count"),
    ("worklist.eval_ms", "ms"),
    ("worklist.steps", "count"),
    ("worklist.us_per_step", "us"),
    ("driver.eval_ms", "ms"),
    ("exec.emits", "count"),
    ("exec.index_probes", "count"),
    ("exec.tuples_scanned", "count"),
    ("exec.ns_per_emit", "ns"),
    ("exec.useful_merge_ratio", "ratio"),
    ("output.decode_ms", "ms"),
    ("output.support_rows", "count"),
    ("par.threads", "count"),
    ("par.tasks_spawned", "count"),
    ("par.parallel_batches", "count"),
    ("incremental.insert_ms", "ms"),
    ("incremental.delete_ms", "ms"),
    ("incremental.insert_emits", "count"),
    ("incremental.delete_emits", "count"),
    ("incremental.delete_emits_per_view_row", "ratio"),
    ("incremental.view_rows", "count"),
    ("incremental.snapshot_ms", "ms"),
    ("query.eval_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("bench.input_gen_s", "s"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => args.smoke = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The outcome of one run: the result line's fields and the metrics.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// glibc allocator settings for the measured process: keep freed memory
/// mapped instead of returning it to the kernel after every operation.
/// Without them each operation re-faults tens of MB of fresh pages, whose
/// cost in a virtual machine swings with the host's load and buries the
/// engine's own timings in noise.
const MALLOC_TUNABLES: &str = "glibc.malloc.mmap_threshold=33554432:\
                               glibc.malloc.trim_threshold=4000000000:\
                               glibc.malloc.top_pad=268435456";

/// Runs this program again with [`MALLOC_TUNABLES`] in its environment
/// (glibc reads them only at start-up) and exits with its status.
fn reexec_with_tunables() -> ! {
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
            .status()
    });
    match status {
        Ok(s) => std::process::exit(s.code().unwrap_or(1)),
        Err(e) => {
            eprintln!("perfbench: cannot start the measured process: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    if std::env::var_os("GLIBC_TUNABLES").is_none() {
        reexec_with_tunables();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(r) => println!("{}", r.metrics.result_line(r.attempted, r.failed)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let t = Instant::now();
    let (spec, mut w) = workloads::build(&args.workload, args.seed, args.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let input_gen_s = t.elapsed().as_secs_f64();
    let (setup_s, setup_times, setup_failed) = harness::setups(w.as_mut(), workloads::SETUPS);
    let (nproc, cpu) = host();
    println!(
        "workload {} (seed {}, {} sizes); one operation = {}",
        spec.name,
        args.seed,
        if args.smoke { "smoke" } else { "full" },
        spec.op
    );
    println!("host: nproc {nproc}, cpu {cpu}");
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = harness::window(w.as_mut(), secs, &mut Tracer::new(false), spec.counter_ops);
    let threads =
        plain.counters.get("par.threads").copied().unwrap_or(0.0) / spec.counter_ops as f64;
    println!("engine threads (default, resolved): {threads}");
    println!(
        "input generation {input_gen_s:.3} s (not in setup_s); set-ups {:?} s",
        setup_times
    );
    let mut attempted = workloads::SETUPS as u64 + plain.attempted;
    let mut failed = setup_failed + plain.failed;
    let mut metrics = Metrics::default();
    if !args.trace {
        for &(name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => setup_s,
                "op_ms_p50" => quantile(&plain.op_ms, 0.5),
                "op_ms_tail" => quantile(&plain.op_ms, workloads::TAIL),
                "ops_per_s" => plain.ops_per_s,
                _ => peak_rss_mb(),
            };
            metrics.put(name, value, unit);
        }
        print_end_to_end(&spec, &plain, &metrics, attempted, failed);
    } else {
        let mut tr = Tracer::new(true);
        let traced = harness::window(w.as_mut(), secs, &mut tr, spec.counter_ops);
        attempted += traced.attempted;
        failed += traced.failed;
        let overhead = (quantile(&traced.op_ms, 0.5) / quantile(&plain.op_ms, 0.5) - 1.0) * 100.0;
        let counters: BTreeMap<&'static str, f64> = traced
            .counters
            .iter()
            .map(|(&k, &v)| (k, v / spec.counter_ops as f64))
            .collect();
        let mut extras = Samples::default();
        w.layer_extras(&counters, &mut extras);
        let op_self: Vec<f64> = tr
            .spans
            .iter()
            .zip(tr.self_ns())
            .filter(|(s, _)| s.name == "op")
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect();
        extras.add("bench.self_ms", report::median(&op_self));
        extras.add("bench.input_gen_s", input_gen_s);
        extras.add("trace.overhead_pct", overhead);
        for &(name, unit) in PER_LAYER {
            let value = if name == "exec.useful_merge_ratio" {
                let emits = counters.get("exec.emits").copied().unwrap_or(0.0);
                let useful = counters.get("exec.useful").copied().unwrap_or(0.0);
                if emits > 0.0 {
                    useful / emits
                } else {
                    0.0
                }
            } else if COUNTERS.contains(&name) {
                counters.get(name).copied().unwrap_or(0.0)
            } else if extras.0.contains_key(name) {
                extras.median(name)
            } else if traced.cx.calls.0.contains_key(name) {
                traced.cx.calls.median(name)
            } else {
                traced.per_op.median(name)
            };
            metrics.put(name, value, unit);
        }
        println!(
            "traced window: {} operations (work counters: the first {}); untraced half: {}",
            traced.op_ms.len(),
            spec.counter_ops,
            plain.op_ms.len()
        );
        for (name, value, unit) in &metrics.0 {
            println!("  {name:<40} {value:>14.4} {unit}");
        }
        let path = write_trace(args, &tr)?;
        println!("spans and self times written to {path}");
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics,
    })
}

/// Prints the end-to-end metrics, and the latency of each kind of call
/// an operation makes under the names its users know.
fn print_end_to_end(
    spec: &workloads::Spec,
    win: &Window,
    m: &Metrics,
    attempted: u64,
    failed: u64,
) {
    let n = win.op_ms.len();
    let tail = format!("p{}", workloads::TAIL * 100.0);
    for (name, value, unit) in &m.0 {
        println!("  {name:<24} {value:>12.4} {unit}");
    }
    println!(
        "  tail = {tail} of {n} operations ({} beyond it)",
        beyond(n, workloads::TAIL)
    );
    for &(kind, source) in spec.kinds {
        let xs = match source {
            "op" => &win.op_ms[..],
            _ => win.cx.calls.0.get(source).map_or(&[][..], |v| v),
        };
        println!(
            "  {:<24} {:>12.4} ms   {:<20} {:>12.4} ms (n={}, {} beyond)",
            format!("{kind}_p50"),
            quantile(xs, 0.5),
            format!("{kind}_{tail}"),
            quantile(xs, workloads::TAIL),
            xs.len(),
            beyond(xs.len(), workloads::TAIL)
        );
    }
    println!(
        "  error_rate {:.6} ({failed} failed of {attempted} attempted, set-ups and final checks included)",
        failed as f64 / attempted.max(1) as f64
    );
}

fn write_trace(args: &Args, tr: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let doc = tr.to_json(&[
        ("workload", report::json_str(&args.workload)),
        ("seed", args.seed.to_string()),
    ]);
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
