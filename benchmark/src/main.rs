//! The repo benchmark. One command generates the inputs from a seed, runs a
//! workload through the library's public front doors, checks every output,
//! and prints every metric by name with its unit. See `README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! benchmark --seed <u64> [--seconds <n>] [--runs <n>] [--smoke] [--record]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload: its last line of output is one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of the traced run (`--trace 1`). The second form is the ledger:
//! every workload, `--runs` untraced runs and one traced run each, as one
//! results document that `--record` also writes under `results/`.

mod bfs;
mod check;
mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod mbfs;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use report::{Report, RunConfig};
use spec::{Workload, WorkloadKind, END_TO_END, PER_LAYER, WORKLOADS};

/// Tolerance of the traced run's sum-to-whole check.
const SUM_TOLERANCE: f64 = 0.02;
/// Spans a committed trace file keeps (whole operations, from the first).
const TRACE_FILE_SPANS: usize = 1500;
const SCHEMA: &str = "spmspv-benchmark-results/1";

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    smoke: bool,
    record: bool,
}

impl Args {
    fn config(&self, traced: bool, threads: usize) -> RunConfig {
        RunConfig { seed: self.seed, seconds: self.seconds, traced, smoke: self.smoke, threads }
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        traced: false,
        runs: 3,
        smoke: false,
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => out.traced = true,
            "--runs" => {
                out.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if out.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--smoke" => out.smoke = true,
            "--record" => out.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.record && out.workload.is_some() {
        return Err("--record writes the ledger; drop --workload".to_string());
    }
    Ok(out)
}

fn run_workload(workload: &Workload, cfg: &RunConfig) -> Report {
    match workload.kind {
        WorkloadKind::BfsRmat | WorkloadKind::BfsMesh => bfs::run(workload.kind, cfg),
        WorkloadKind::MbfsEngine | WorkloadKind::MbfsShard | WorkloadKind::MbfsTcp => {
            mbfs::run(workload.kind, cfg)
        }
        WorkloadKind::ServeMixed => serve::run(cfg),
    }
}

/// Runs the sum-to-whole check over a traced report's spans and records the
/// largest gap it saw; a failed check makes the run incorrect.
fn check_trace(report: &mut Report) {
    match trace::check_sums(&report.spans, SUM_TOLERANCE) {
        Ok(gap) => report.set("obs.sum_check_gap", gap),
        Err(why) => report.errors.push(format!("sum-to-whole check: {why}")),
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The one-line result the benchmark contract asks for.
fn result_line(report: &Report, traced: bool) -> Json {
    let metrics: Vec<(String, Json)> = if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let value = report.metrics.get(m.name).copied().unwrap_or(0.0);
                (m.name.to_string(), metric_json(value, m.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), metric_json(report.metrics[m.name], m.unit)))
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Int(report.attempted as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn print_errors(name: &str, report: &Report) {
    for error in &report.errors {
        eprintln!("{name}: FAILED CHECK: {error}");
    }
}

/// Where a run may write: full-size runs under `results/`, smoke runs only
/// under `target/` — a smoke artifact must never replace a committed one.
fn output_dir(smoke: bool) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    if smoke {
        root.join("target").join("smoke")
    } else {
        root.join("results")
    }
}

fn write_file(dir: &Path, name: &str, doc: &Json, smoke: bool) -> Result<(), String> {
    if smoke && dir.ends_with("results") {
        return Err("refusing to write benchmark/results/ from a smoke run".to_string());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// One workload's section of the results document.
fn workload_section(
    workload: &Workload,
    smoke: bool,
    untraced: &[Report],
    traced: &Report,
) -> Json {
    let all = || untraced.iter().chain(std::iter::once(traced));
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let runs: Vec<f64> = untraced.iter().map(|r| r.metrics[m.name]).collect();
            let samples = untraced.iter().filter_map(|r| r.samples.get(m.name)).sum::<u64>();
            let body = Json::obj([
                ("what", Json::str(m.what)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
                ("bound", Json::Num(m.bound)),
                ("median", Json::Num(stats::median(&runs))),
                ("quartile_spread", Json::Num(stats::quartile_spread(&runs))),
                ("runs", Json::Arr(runs.into_iter().map(Json::Num).collect())),
                ("samples", Json::Int(samples as i64)),
            ]);
            (m.name.to_string(), body)
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let mut pairs = vec![
                ("value", Json::Num(traced.metrics.get(m.name).copied().unwrap_or(0.0))),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
                ("count", Json::Bool(m.count)),
                ("moves", Json::str(m.moves)),
            ];
            if let Some(&samples) = traced.samples.get(m.name) {
                pairs.push(("samples", Json::Int(samples as i64)));
            }
            (m.name.to_string(), Json::obj(pairs))
        })
        .collect();
    let failed_share = stats::ratio(
        all().map(|r| r.failed).sum::<u64>() as f64,
        all().map(|r| r.attempted).sum::<u64>() as f64,
    );
    Json::obj([
        ("why", Json::str(workload.why)),
        ("generator", workload.kind.sizes(smoke).to_json()),
        ("inputs", Json::obj(traced.info.iter().map(|(k, v)| (*k, v.clone())))),
        ("correct", Json::Bool(all().all(Report::correct))),
        ("attempted", Json::Int(all().map(|r| r.attempted).sum::<u64>() as i64)),
        ("failed", Json::Int(all().map(|r| r.failed).sum::<u64>() as i64)),
        ("failed_share", Json::Num(failed_share)),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
        ("trace_spans", Json::Int(traced.spans.len() as i64)),
    ])
}

fn results_document(args: &Args, threads: usize, sections: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("smoke", Json::Bool(args.smoke)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds_per_run", Json::Num(args.seconds)),
        ("untraced_runs", Json::Int(args.runs as i64)),
        ("host", host::block(threads)),
        ("workloads", Json::Obj(sections)),
    ])
}

/// The ledger: every workload, untraced runs then a traced run.
fn ledger(args: &Args, threads: usize) -> Result<bool, String> {
    let dir = output_dir(args.smoke);
    let mut sections = Vec::new();
    let mut correct = true;
    for workload in &WORKLOADS {
        let cfg = |traced| args.config(traced, threads);
        let untraced: Vec<Report> = (0..args.runs)
            .map(|run| {
                eprintln!("{}: untraced run {} of {}", workload.name, run + 1, args.runs);
                run_workload(workload, &cfg(false))
            })
            .collect();
        eprintln!("{}: traced run", workload.name);
        let mut traced = run_workload(workload, &cfg(true));
        check_trace(&mut traced);
        for report in untraced.iter().chain(std::iter::once(&traced)) {
            print_errors(workload.name, report);
            correct &= report.correct();
        }
        if args.record {
            let spans = trace::to_json(&traced.spans, TRACE_FILE_SPANS);
            let doc = Json::obj([
                ("schema", Json::str(SCHEMA)),
                ("workload", Json::str(workload.name)),
                ("seed", Json::Int(args.seed as i64)),
                ("smoke", Json::Bool(args.smoke)),
                ("spans_kept_at_most", Json::Int(TRACE_FILE_SPANS as i64)),
                ("spans_recorded", Json::Int(traced.spans.len() as i64)),
                ("spans", spans),
            ]);
            write_file(&dir, &format!("trace-{}.json", workload.name), &doc, args.smoke)?;
        }
        sections.push((
            workload.name.to_string(),
            workload_section(workload, args.smoke, &untraced, &traced),
        ));
    }
    let doc = results_document(args, threads, sections);
    if args.record {
        write_file(&dir, &format!("results-seed{}.json", args.seed), &doc, args.smoke)?;
    }
    println!("{}", doc.render());
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("usage: benchmark compare <a.json> <b.json>");
            return ExitCode::from(2);
        };
        let load = |path: &String| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        return match load(a).and_then(|a| load(b).and_then(|b| compare::compare(&a, &b))) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("compare: {why}");
                ExitCode::from(2)
            }
        };
    }

    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("benchmark: full-size runs measure optimized builds only; pass --release");
        return ExitCode::from(2);
    }
    let threads = host::nproc();

    let correct = match args.workload {
        Some(workload) => {
            let mut report = run_workload(workload, &args.config(args.traced, threads));
            if args.traced {
                check_trace(&mut report);
            }
            print_errors(workload.name, &report);
            println!("{}", result_line(&report, args.traced).render());
            report.correct()
        }
        None => match ledger(&args, threads) {
            Ok(correct) => correct,
            Err(why) => {
                eprintln!("benchmark: {why}");
                return ExitCode::from(2);
            }
        },
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::{as_arr, as_f64, as_str, get, get_path};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "mbfs_tcp",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(args.workload.map(|w| w.name), Some("mbfs_tcp"));
        assert_eq!((args.seed, args.seconds, args.traced), (42, 10.0, true));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload", "bfs_mesh", "--record"])).is_err());
    }

    #[test]
    fn a_smoke_run_cannot_write_results() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        let err = write_file(&results, "x.json", &Json::Null, true).expect_err("refused");
        assert!(err.contains("smoke"), "{err}");
        assert!(output_dir(true).ends_with("target/smoke"));
        assert!(output_dir(false).ends_with("results"));
    }

    fn fake_report(traced: bool) -> Report {
        let mut report = Report { attempted: 10, ..Report::default() };
        if traced {
            report.set("graphs.levels", 7.0);
            report.samples.insert("graphs.traversal_p90_s", 12);
        } else {
            for (i, m) in END_TO_END.iter().enumerate() {
                report.set(m.name, 1.5 + i as f64);
            }
            report.samples.insert("op_p50_ms", 10);
        }
        report
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(&fake_report(false), false);
        let Json::Obj(pairs) = &line else { panic!("object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = get(&line, "metrics") else { panic!("metrics") };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(get_path(&line, &["metrics", "setup_s", "unit"]).and_then(as_str), Some("s"));

        // A traced line names every per-layer metric; idle layers read 0.
        let line = json::parse(&result_line(&fake_report(true), true).render()).expect("parses");
        let Some(Json::Obj(metrics)) = get(&line, "metrics") else { panic!("metrics") };
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name| get_path(&line, &["metrics", name, "value"]).and_then(as_f64);
        assert_eq!((value("graphs.levels"), value("net.rpc_s")), (Some(7.0), Some(0.0)));
    }

    /// The results-file schema: what `compare` and a reader rely on.
    #[test]
    fn the_results_document_carries_host_block_spec_and_runs() {
        let args = parse_args(&strings(&["--seed", "9", "--smoke"])).expect("parses");
        let untraced = [fake_report(false), fake_report(false)];
        let section = workload_section(&WORKLOADS[0], true, &untraced, &fake_report(true));
        let doc = results_document(&args, 2, vec![("bfs_rmat".to_string(), section)]);
        let doc = json::parse(&doc.render()).expect("renders as JSON");

        assert_eq!(get(&doc, "schema").and_then(as_str), Some(SCHEMA));
        assert_eq!(get(&doc, "smoke"), Some(&Json::Bool(true)));
        assert_eq!(get(&doc, "seed").and_then(as_f64), Some(9.0));
        for key in ["nproc", "pool_threads", "cpu_model", "llc_bytes", "build_profile", "commit"] {
            assert!(get_path(&doc, &["host", key]).is_some(), "host block lacks {key}");
        }
        let w = get_path(&doc, &["workloads", "bfs_rmat"]).expect("section");
        for key in ["why", "generator", "inputs", "correct", "attempted", "failed", "failed_share"]
        {
            assert!(get(w, key).is_some(), "section lacks {key}");
        }
        let p50 = get_path(w, &["end_to_end", "op_p50_ms"]).expect("metric");
        assert_eq!(get(p50, "runs").and_then(as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(get(p50, "samples").and_then(as_f64), Some(20.0));
        assert_eq!(get(p50, "bound").and_then(as_f64), Some(END_TO_END[0].bound));
        let levels = get_path(w, &["per_layer", "graphs.levels"]).expect("metric");
        assert_eq!(get(levels, "count"), Some(&Json::Bool(true)));
        assert!(get(levels, "moves").and_then(as_str).is_some_and(|m| m.contains("bfs_mesh")));
        // compare reads its own output format.
        assert_eq!(compare::compare(&doc, &doc), Ok(true));
    }
}
