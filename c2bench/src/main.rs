//! c2bench: end-to-end and per-layer benchmark of the Cluster-and-Conquer
//! library, measured from outside through its public API.
//!
//! ```text
//! c2bench --workload <dense|sparse> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed check
//! exits 1; bad arguments exit 2. See README.md.

mod checks;
mod oracle;
mod trace;
mod util;
mod workload;

use std::path::Path;
use trace::Tracer;

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 16] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("build_runtime_s", "s"),
    ("build_distrib_s", "s"),
    ("lsh_s", "s"),
    ("quality", "ratio"),
    ("read_qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("recall_at_10", "ratio"),
    ("adopt_ms", "ms"),
    ("insert_p50_us", "us"),
    ("insert_p99_us", "us"),
    ("publish_ms", "ms"),
    ("publish_adopt_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric: name, unit, and the end-to-end metric the layer
/// should move with the factor that converts it to that metric's unit.
type Layer = (&'static str, &'static str, Option<(&'static str, f64)>);

const PER_LAYER: [Layer; 54] = [
    ("dataset.generate_s", "s", Some(("setup_s", 1.0))),
    ("oracle.quality_s", "s", Some(("setup_s", 1.0))),
    ("oracle.recall_s", "s", Some(("setup_s", 1.0))),
    ("similarity.goldfinger_s", "s", Some(("build_s", 1.0))),
    ("similarity.comparisons", "count", None),
    ("similarity.solve_mcmp_s", "Mcmp/s", None),
    ("similarity.kernel_mcmp_s", "Mcmp/s", None),
    ("core.assign_s", "s", Some(("build_s", 1.0))),
    ("core.local_knn_s", "s", Some(("build_s", 1.0))),
    ("core.clusters", "count", None),
    ("core.singletons", "count", None),
    ("core.max_cluster", "count", None),
    ("core.short_lists", "count", None),
    ("core.fingerprint_s", "s", Some(("publish_ms", 1e3))),
    ("core.partition_s", "s", Some(("publish_ms", 1e3))),
    ("core.reuse_ratio", "ratio", None),
    ("core.clusters_resolved", "count", None),
    ("baselines.lsh_buckets_s", "s", Some(("lsh_s", 1.0))),
    ("baselines.lsh_comparisons", "count", None),
    ("baselines.lsh_quality", "ratio", None),
    ("runtime.map_makespan_s", "s", Some(("build_runtime_s", 1.0))),
    ("runtime.map_busy_s", "s", None),
    ("runtime.map_imbalance", "ratio", None),
    ("runtime.reduce_busy_s", "s", None),
    ("runtime.shuffle_entries", "count", None),
    ("runtime.stolen_clusters", "count", None),
    ("distrib.wall_s", "s", Some(("build_distrib_s", 1.0))),
    ("distrib.worker_busy_s", "s", None),
    ("distrib.comparisons", "count", None),
    ("distrib.transport_retries", "count", None),
    ("query.comparisons_per_query", "count", None),
    ("query.search_us_p50", "us", Some(("query_p50_us", 1.0))),
    ("serve.query_us_p99", "us", None),
    ("serve.query_wait_us_p99", "us", None),
    ("serve.query_service_us_p99", "us", None),
    ("serve.insert_wait_us_p99", "us", Some(("insert_p99_us", 1.0))),
    ("serve.insert_service_us_p50", "us", Some(("insert_p50_us", 1.0))),
    ("serve.stalled_insert_share", "ratio", None),
    ("serve.rebuild_ms", "ms", Some(("publish_ms", 1.0))),
    ("serve.epochs_published", "count", None),
    ("serve.snapshot_write_ms", "ms", Some(("publish_adopt_ms", 1.0))),
    ("serve.snapshot_bytes", "bytes", None),
    ("serve.adopt_open_ms", "ms", Some(("adopt_ms", 1.0))),
    ("serve.adopt_swap_us", "us", Some(("adopt_ms", 1e-3))),
    ("serve.mapped", "bool", None),
    ("serve.copy_load_ms", "ms", Some(("adopt_ms", 1.0))),
    ("serve.final_recall_at_10", "ratio", None),
    ("serve.final_short_lists", "count", None),
    ("gen.lateness_us_p99", "us", None),
    ("trace.build_s", "s", Some(("build_s", 1.0))),
    ("trace.build_coverage", "ratio", None),
    ("trace.plain_build_s", "s", None),
    ("trace.decomposed_over_plain_pct", "%", None),
    ("trace.spans", "count", None),
];

const USAGE: &str =
    "usage: c2bench --workload <dense|sparse> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A JSON number with all its digits (NaN and infinities have none).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    // Worker processes of the distributed build re-exec this binary.
    cnc_distrib::maybe_run_worker();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("c2bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(cal) = workload::CALIBRATIONS.iter().find(|c| c.name == args.workload) else {
        eprintln!("c2bench: unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let root = Path::new(".c2bench");
    let tracer = Tracer::new(args.trace);
    let mut outcome = match workload::run(cal, args.seed, args.seconds, &tracer, root) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("c2bench: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("c2bench: operations attempted/failed: {}", outcome.ledger.summary());
    for failure in outcome.ledger.failures() {
        eprintln!("c2bench: CHECK FAILED: {failure}");
    }

    let selected: Vec<(&str, &str)> = if args.trace {
        outcome.metrics.insert("trace.spans", tracer.len() as f64);
        let path = root.join(format!("trace-{}-{}.json", cal.name, args.seed));
        match tracer.write_json(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("c2bench: cannot write {}: {e}", path.display()),
        }
        print_layer_table(&outcome.metrics);
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let metrics: Vec<String> = selected
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
        })
        .collect();
    let correct = outcome.ledger.failures().is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.ledger.attempted(),
        outcome.ledger.failed(),
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// The traced run's report: every layer metric with its share of the
/// end-to-end metric it should move, then the traced end-to-end figures.
fn print_layer_table(metrics: &std::collections::BTreeMap<&str, f64>) {
    println!("{:<30} {:>16} {:<7} {:>8}  of", "layer metric", "value", "unit", "share");
    for (name, unit, link) in PER_LAYER {
        let value = metrics.get(name).copied().unwrap_or(f64::NAN);
        let share = link.and_then(|(e2e, factor)| {
            metrics.get(e2e).map(|total| (value * factor / total * 100.0, e2e))
        });
        match share {
            Some((pct, e2e)) => {
                println!("{name:<30} {value:>16.6} {unit:<7} {pct:>7.1}%  {e2e}")
            }
            None => println!("{name:<30} {value:>16.6} {unit:<7}"),
        }
    }
    println!("\nend-to-end figures of this traced run:");
    for (name, unit) in END_TO_END {
        let value = metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("{name:<30} {value:>16.6} {unit}");
    }
}
