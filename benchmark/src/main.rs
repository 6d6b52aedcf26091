//! Command line of the benchmark binary; `run.sh` builds it and passes its
//! own arguments through.

use std::path::PathBuf;
use std::process::ExitCode;

use ard_benchmark::catalogue::{self, RUN_SECONDS};
use ard_benchmark::json::Json;
use ard_benchmark::workloads::Inputs;
use ard_benchmark::{measure, report};

const USAGE: &str = "\
usage: ard-benchmark <command>

  run --workload NAME --seed N --seconds S --trace 0|1 [--quick]
        one run of one workload; the last line printed is the result object
  all [--seed N] [--quick] [--workload NAME] [--seconds S] [--out PATH]
        every workload, untraced and traced, each in its own child process
  compare A.json B.json
        B against the base A, one row per workload x end-to-end metric;
        exits 1 if anything got worse
  schema BENCHMARK.json
        checks the file against the contract's limits and the catalogue
  catalogue
        prints the BENCHMARK.json the catalogue implies
";

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key}: `{v}` is not a whole number")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

/// Build outputs and everything a run writes live under the cargo target
/// directory (`run.sh` and the benchmark driver both set it).
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target/benchmark".into(), PathBuf::from)
}

fn run(flags: &Flags) -> Result<bool, String> {
    let workload = flags
        .value("--workload")
        .ok_or("run needs --workload NAME")?;
    let seed = flags.number("--seed", 1)?;
    let seconds = flags.number("--seconds", RUN_SECONDS)?;
    let quick = flags.has("--quick");
    let trace = match flags.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let inputs = Inputs::new(workload, seed, quick).ok_or_else(|| {
        let names: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{workload}` (one of {})",
            names.join(", ")
        )
    })?;
    let result = if trace {
        let (result, tracer) = measure::traced(&inputs, quick);
        let dir = target_dir().join("trace");
        let path = dir.join(format!("{workload}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(workload).pretty()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("# trace written to {}", path.display());
        result
    } else {
        measure::untraced(&inputs, seconds as f64, quick)
    };
    report::print_run(workload, seed, trace, &result);
    // A failed operation is a result (`correct: false`), not a crash.
    Ok(true)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.to_string());
    };
    let flags = Flags(rest.to_vec());
    match command.as_str() {
        "run" => run(&flags),
        "all" => {
            let seed = flags.number("--seed", 1)?;
            let quick = flags.has("--quick");
            let name = format!("seed-{seed}{}.json", if quick { "-quick" } else { "" });
            report::run_all(&report::AllOptions {
                seed,
                quick,
                seconds: flags.number("--seconds", RUN_SECONDS)?,
                workload: flags.value("--workload").map(str::to_string),
                out: flags
                    .value("--out")
                    .map_or_else(|| target_dir().join("results").join(name), PathBuf::from),
            })
        }
        "compare" => match rest {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare needs two result files".to_string()),
        },
        "schema" => {
            let path = rest
                .first()
                .ok_or("schema needs the path of BENCHMARK.json")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            if text.len() > 64 * 1024 {
                return Err(format!("{path}: larger than 64 KiB"));
            }
            catalogue::check_schema(&Json::parse(&text)?)?;
            println!("{path}: schema ok");
            Ok(true)
        }
        "catalogue" => {
            print!("{}", catalogue::benchmark_json().pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
