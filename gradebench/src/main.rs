//! Command line of the fault-grading benchmark.
//!
//! ```text
//! gradebench --workload <fwd_cached|hdcu_icu_cached|legacy_sweep>
//!            --seed <n> --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`). Writes the full result, with host
//! facts, to `out/<workload>-seed<n>-trace<t>.json` in this directory,
//! and a traced run's spans to `out/<workload>-seed<n>.trace.json`
//! (Chrome trace) and `.spans.jsonl`. `--record` pins the run's verdict
//! counts and golden statistics for its seed in `expected.json`. Exits
//! with a failure code when a verdict or check failed.

use std::path::Path;
use std::process::ExitCode;

use sbst_gradebench::trace::{to_chrome_trace, to_jsonl};
use sbst_gradebench::workload::Workload;
use sbst_gradebench::{counts_json, record_expected, run, Metric, Options, Report};
use sbst_obs::Json;

fn usage(message: &str) -> ExitCode {
    eprintln!("gradebench: {message}");
    eprintln!(
        "usage: gradebench --workload <fwd_cached|hdcu_icu_cached|legacy_sweep> --seed <n> \
         --seconds <s> --trace <0|1> [--record]"
    );
    ExitCode::from(2)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), value)
            })
            .collect(),
    )
}

fn result_json(report: &Report) -> Json {
    let o = &report.options;
    let h = &report.host;
    Json::Obj(vec![
        ("workload".into(), Json::Str(o.workload.name().into())),
        ("seed".into(), Json::int(o.seed)),
        ("seconds".into(), Json::Num(o.seconds)),
        ("trace".into(), Json::Bool(o.trace)),
        (
            "host".into(),
            Json::Obj(vec![
                ("nproc".into(), Json::int(h.nproc as u64)),
                ("threads".into(), Json::int(h.threads as u64)),
                ("profile".into(), Json::Str(h.profile.into())),
                ("rustc".into(), Json::Str(h.rustc.into())),
                ("commit".into(), Json::Str(h.commit.clone())),
            ]),
        ),
        ("correct".into(), Json::Bool(report.correct)),
        ("attempted".into(), Json::int(report.attempted)),
        ("failed".into(), Json::int(report.failed)),
        ("pinned".into(), Json::Bool(report.pinned)),
        (
            "problems".into(),
            Json::Arr(
                report
                    .problems
                    .iter()
                    .map(|p| Json::Str(p.clone()))
                    .collect(),
            ),
        ),
        ("verdicts".into(), counts_json(&report.verdicts)),
        ("golden".into(), counts_json(&report.golden.named())),
        ("end_to_end".into(), metrics_json(&report.end_to_end)),
        ("per_layer".into(), metrics_json(&report.per_layer)),
    ])
}

fn write_outputs(report: &Report) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let o = &report.options;
    let stem = format!("{}-seed{}", o.workload.name(), o.seed);
    let result = result_json(report).render_pretty(1);
    std::fs::write(
        dir.join(format!("{stem}-trace{}.json", u8::from(o.trace))),
        result,
    )?;
    if o.trace {
        std::fs::write(
            dir.join(format!("{stem}.trace.json")),
            to_chrome_trace(&report.spans),
        )?;
        std::fs::write(
            dir.join(format!("{stem}.spans.jsonl")),
            to_jsonl(&report.spans),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let report = run(&Options::new(workload, seed, seconds, trace));
    let h = &report.host;
    println!(
        "gradebench {} seed {seed}: nproc {}, threads {}, profile {}, {}, commit {}",
        workload.name(),
        h.nproc,
        h.threads,
        h.profile,
        h.rustc,
        h.commit
    );
    let rates: Vec<String> = report
        .pass_rates
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect();
    println!("  untraced passes [faults/s]: {}", rates.join(", "));
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let counts: Vec<String> = report
        .verdicts
        .iter()
        .map(|(k, v)| format!("{k} {v}"))
        .collect();
    println!("  graded verdicts (first pass): {}", counts.join(", "));
    if !report.pinned {
        println!(
            "  unpinned seed: golden statistics and verdict mix not checked against expected.json"
        );
    }
    for problem in &report.problems {
        println!("  CHECK FAILED: {problem}");
    }
    if let Err(e) = write_outputs(&report) {
        eprintln!("gradebench: could not write results: {e}");
    }
    if record {
        if !report.correct {
            eprintln!("gradebench: not recording an incorrect run");
            return ExitCode::FAILURE;
        }
        if let Err(e) = record_expected(&report) {
            eprintln!("gradebench: could not record expectations: {e}");
            return ExitCode::FAILURE;
        }
    }
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(report.correct)),
        ("attempted".into(), Json::int(report.attempted)),
        ("failed".into(), Json::int(report.failed)),
        ("metrics".into(), metrics_json(metrics)),
    ]);
    println!("{}", line.render());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
