//! `rcubench --workload <index|grow|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary on stderr, writes a report (and, when
//! traced, the spans) under `out/` beside this package, and prints the
//! result as one JSON object on the last line of stdout. Exits non-zero
//! when an output check fails, the arguments are wrong, or the build is
//! not an honest one.

use rcubench::{json_number, Options, Outcome, Workload, UNSTEADY};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: rcubench --workload <index|grow|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Numbers from a debug build, or from one with the checker's
/// instrumented sync facade compiled in, say nothing about the shipped
/// code. Feature unification (`cargo test --workspace`) can switch the
/// facade on silently; its atomics then stop being the std types.
fn honest_build() -> Result<&'static str, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to run a debug build; build with --release".into());
    }
    let atomic = std::any::type_name::<rcuarray_analysis::atomic::AtomicU64>();
    if !atomic.starts_with("core::") && !atomic.starts_with("std::") {
        return Err(format!(
            "refusing to run with the rcuarray-analysis `check` facade compiled in ({atomic})"
        ));
    }
    Ok("release")
}

/// The repository's checked-out commit, read from `.git` without
/// starting a process; "unknown" outside a git checkout.
fn git_commit(root: &Path) -> String {
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(root.join(".git/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(root.join(".git").join(reference)) {
        return id.trim().to_string();
    }
    read(root.join(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn report_json(opts: &Options, profile: &str, commit: &str, o: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name,
                json_number(m.value),
                m.unit,
                m.samples.map_or("null".to_string(), |n| n.to_string())
            )
        })
        .collect();
    let problems: Vec<String> = o.problems.iter().map(|p| format!("\"{p}\"")).collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"commit\": \"{commit}\",\n  \"nproc\": {nproc},\n  \"backend\": \"shmem\",\n  \
         \"profile\": \"{profile}\",\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"problems\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        o.correct(),
        o.attempted,
        o.failed,
        problems.join(", "),
        metrics.join(",\n")
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rcubench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let profile = match honest_build() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rcubench: {e}");
            return ExitCode::from(3);
        }
    };
    let pkg = Path::new(env!("CARGO_MANIFEST_DIR"));
    let commit = git_commit(pkg.parent().unwrap_or(pkg));
    let outcome = rcubench::run(&opts);

    eprintln!(
        "rcubench {} seed {} ({} s, trace {}) commit {commit} profile {profile}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace as u8
    );
    for m in &outcome.metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        let note = if UNSTEADY.contains(&m.name) {
            "  [report only]"
        } else {
            ""
        };
        eprintln!(
            "  {:<32} {:>16.4} {}{samples}{note}",
            m.name, m.value, m.unit
        );
    }
    for p in &outcome.problems {
        eprintln!("  CHECK FAILED: {p}");
    }
    let out_dir = pkg.join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        opts.trace as u8
    );
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(
            out_dir.join(format!("{stem}.json")),
            report_json(&opts, profile, &commit, &outcome),
        )?;
        match &outcome.tracer {
            Some(t) => t.write_jsonl(&out_dir.join(format!("{stem}.spans.jsonl"))),
            None => Ok(0),
        }
    });
    match written {
        Ok(spans) => eprintln!("  report in {} ({spans} spans)", out_dir.display()),
        Err(e) => eprintln!("  could not write the report: {e}"),
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
