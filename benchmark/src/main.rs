//! `patchsim-benchmark run [--workload W] [--seed S] [--seconds T]
//! [--trace 0|1] [--quick]` — with `--workload`, one run as the driver
//! makes it: text, then one JSON result line. Without, every workload
//! untraced and traced, each in a child process of its own, collected into
//! `benchmark/out/result.json`. `patchsim-benchmark manifest` prints
//! `BENCHMARK.json`.

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use patchsim_benchmark::measure::Budget;
use patchsim_benchmark::metrics::{self, Outcome};
use patchsim_benchmark::{farm, layers, measure, workloads};

const USAGE: &str = "usage: patchsim-benchmark run [--workload NAME] [--seed N] [--seconds N] \
                     [--trace 0|1] [--quick]\n       patchsim-benchmark manifest";

/// The ISSUE's default seed.
const DEFAULT_SEED: u64 = 45223;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One run of one workload: text, then the result line.
fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let workload = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let budget = Budget {
        seconds: args.seconds.unwrap_or(if args.quick {
            1.0
        } else {
            metrics::RUN_SECONDS as f64
        }),
        quick: args.quick,
    };
    let mut notes = vec![
        format!(
            "workload {name}, seed {}, {} s, trace {}{}",
            args.seed,
            budget.seconds,
            u8::from(args.trace),
            if args.quick { ", quick" } else { "" }
        ),
        format!("host threads = {}", host_threads()),
        "model: unvalidated (the repository holds no hardware or paper reference numbers)".into(),
    ];
    let configs = (workload.configs)(args.seed, args.quick);
    let outcome: Outcome = match (name == workloads::FARM, args.trace) {
        (true, false) => farm::end_to_end(budget, &mut notes),
        (true, true) => farm::traced(budget, &mut notes),
        (false, false) => measure::end_to_end(name, args.seed, &configs, budget, &mut notes),
        (false, true) => {
            let traced = layers::traced(name, &configs, args.seed, budget, &mut notes);
            let path = farm::out_dir().join(format!("spans_{name}.jsonl"));
            write_spans(&path, &traced.tracers).map_err(|e| format!("{}: {e}", path.display()))?;
            notes.push(format!("spans written to {}", path.display()));
            traced.outcome
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut print = |line: &str| writeln!(out, "{line}").map_err(|e| e.to_string());
    for note in &notes {
        print(&format!("# {note}"))?;
    }
    for (metric, value, unit) in outcome.rows(args.trace) {
        print(&format!("{metric} = {value} {unit}"))?;
    }
    print(&outcome.result_line(args.trace))
}

fn write_spans(
    path: &std::path::Path,
    tracers: &[(&'static str, patchsim_benchmark::bracket::Tracer)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(farm::out_dir())?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (run, (protocol, tracer)) in tracers.iter().enumerate() {
        tracer.write_spans(run, protocol, &mut file)?;
    }
    file.flush()
}

/// Every workload, untraced then traced, one child process each (so that
/// each has a peak resident set of its own), into `out/result.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut entries = Vec::new();
    for workload in &workloads::ALL {
        let mut lines = Vec::new();
        for trace in ["0", "1"] {
            let mut command = Command::new(&exe);
            command
                .args(["run", "--workload", workload.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()]);
            if let Some(seconds) = args.seconds {
                command.args(["--seconds", &seconds.to_string()]);
            }
            if args.quick {
                command.arg("--quick");
            }
            let output = command
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            let line = text.lines().last().unwrap_or_default();
            if !output.status.success() || !line.starts_with("{\"correct\"") {
                return Err(format!(
                    "{} --trace {trace} printed no result",
                    workload.name
                ));
            }
            all_correct &= line.starts_with("{\"correct\": true");
            lines.push(line.to_string());
        }
        entries.push(format!(
            "    \"{}\": {{\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
            workload.name, lines[0], lines[1]
        ));
    }
    let json = format!(
        "{{\n  \"seed\": {},\n  \"quick\": {},\n  \"host_threads\": {},\n  \"model\": \
         \"unvalidated\",\n  \"exact\": {:?},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.quick,
        host_threads(),
        metrics::EXACT,
        entries.join(",\n")
    );
    let path = farm::out_dir().join("result.json");
    std::fs::create_dir_all(farm::out_dir())
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("manifest") if raw.len() == 1 => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        // Internal: one fresh-process sample of `setup_s`.
        Some("setup-probe") => parse(&raw[1..]).and_then(|args| {
            let workload = args.workload.as_deref().and_then(workloads::by_name);
            let workload = workload.ok_or("setup-probe needs a known --workload")?;
            let configs = (workload.configs)(args.seed, args.quick);
            println!("{}", measure::construct_seconds(&configs));
            Ok(true)
        }),
        Some("run") => parse(&raw[1..]).and_then(|args| match &args.workload {
            Some(name) => run_one(name, &args).map(|()| true),
            None => run_all(&args),
        }),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("patchsim-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
