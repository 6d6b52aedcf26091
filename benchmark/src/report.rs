//! Printing one run, running every workload (`all`), and comparing two
//! result files (`compare`).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::catalogue::{self, Better, MetricDef};
use crate::json::Json;
use crate::measure::RunResult;
use crate::provenance;

/// Prefix of the machine-readable line a run prints before its last line:
/// every metric with min, max and sample count.
pub const DETAIL_PREFIX: &str = "detail ";

/// One printed metric: median and unit, plus min … max and the sample
/// count when there is more than one sample.
fn metric_line(name: &str, unit: &str, value: f64, min: f64, max: f64, n: f64) -> String {
    if n > 1.0 {
        format!("{name:<46} {value:>16.6} {unit:<12} (min {min:.6} … max {max:.6}, n = {n})")
    } else {
        format!("{name:<46} {value:>16.6} {unit}")
    }
}

fn defs(trace: bool) -> Vec<MetricDef> {
    if trace {
        catalogue::per_layer()
    } else {
        catalogue::end_to_end()
    }
}

/// Prints one run: every metric by name with its unit (median, min … max
/// and sample count), any failures, the detail line, and — last — the one
/// JSON object the benchmark contract asks for.
pub fn print_run(workload: &str, seed: u64, trace: bool, result: &RunResult) {
    let defs = defs(trace);
    println!(
        "# {workload} --seed {seed} --trace {}: {} operations, {} failed",
        u8::from(trace),
        result.attempted,
        result.failed
    );
    for failure in &result.failures {
        println!("# FAILED {}", failure.replace('\n', "\n#        "));
    }
    let mut contract = Vec::new();
    let mut detail = Vec::new();
    for ((name, s), def) in result.metrics.iter().zip(&defs) {
        assert_eq!(*name, def.name, "metrics are reported in catalogue order");
        println!(
            "{}",
            metric_line(name, def.unit, s.median, s.min, s.max, s.n as f64)
        );
        contract.push((
            name.clone(),
            Json::obj([
                ("value", Json::Num(s.median)),
                ("unit", Json::str(def.unit)),
            ]),
        ));
        detail.push((
            name.clone(),
            Json::obj([
                ("value", Json::Num(s.median)),
                ("unit", Json::str(def.unit)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
                ("n", Json::Num(s.n as f64)),
            ]),
        ));
    }
    let failures = result.failures.iter().map(Json::str).collect();
    println!(
        "{DETAIL_PREFIX}{}",
        Json::obj([
            ("failures", Json::Arr(failures)),
            ("metrics", Json::Obj(detail))
        ])
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(result.failed == 0)),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("metrics", Json::Obj(contract)),
        ])
    );
}

/// Options of `all`.
pub struct AllOptions {
    pub seed: u64,
    pub quick: bool,
    pub seconds: u64,
    /// Only this workload.
    pub workload: Option<String>,
    /// Where the result document goes.
    pub out: PathBuf,
}

/// Runs one workload in a freshly spawned child of this binary, so peak
/// memory and allocator state are the workload's own, and parses what it
/// printed.
fn run_child(workload: &str, opt: &AllOptions, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &opt.seed.to_string()])
        .args(["--seconds", &opt.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if opt.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} --trace {}: child {}",
            u8::from(trace),
            output.status
        ));
    }
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("child printed no detail line")?;
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    Ok((Json::parse(detail)?, Json::parse(last)?))
}

/// Runs every workload (or the one asked for), untraced and traced, each in
/// its own child process, one after another; prints every metric and writes
/// the result document. Returns whether every operation succeeded.
///
/// # Errors
///
/// Returns the first child that could not be run or parsed, or the I/O
/// error writing the document.
pub fn run_all(opt: &AllOptions) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in &catalogue::WORKLOADS {
        if opt.workload.as_deref().is_some_and(|only| only != w.name) {
            continue;
        }
        let mut entry = vec![("name".to_string(), Json::str(w.name))];
        let (mut attempted, mut failed, mut failures) = (0.0, 0.0, Vec::new());
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (detail, contract) = run_child(w.name, opt, trace)?;
            let count = |key: &str| contract.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            attempted += count("attempted");
            failed += count("failed");
            failures.extend(
                detail
                    .get("failures")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .to_vec(),
            );
            let metrics = detail.get("metrics").cloned().unwrap_or(Json::Null);
            for (name, m) in metrics.as_object().unwrap_or(&[]) {
                let field = |key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                // Per-layer zeros are layers the workload does not exercise.
                if trace && field("value") == 0.0 {
                    continue;
                }
                let (value, min, max, n) = (field("value"), field("min"), field("max"), field("n"));
                println!(
                    "{:<16} {}",
                    w.name,
                    metric_line(name, unit, value, min, max, n)
                );
            }
            entry.push((section.to_string(), metrics));
        }
        all_correct &= failed == 0.0;
        entry.push(("attempted".to_string(), Json::Num(attempted)));
        entry.push(("failed".to_string(), Json::Num(failed)));
        entry.push(("failures".to_string(), Json::Arr(failures)));
        workloads.push(Json::Obj(entry));
    }
    if workloads.is_empty() {
        return Err(format!(
            "unknown workload `{}`",
            opt.workload.as_deref().unwrap_or("")
        ));
    }
    let doc = Json::obj([
        ("provenance", provenance::collect()),
        ("seed", Json::Num(opt.seed as f64)),
        ("quick", Json::Bool(opt.quick)),
        ("seconds", Json::Num(opt.seconds as f64)),
        ("workloads", Json::Arr(workloads)),
    ]);
    if let Some(dir) = opt.out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&opt.out, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", opt.out.display()))?;
    println!("# results written to {}", opt.out.display());
    Ok(all_correct)
}

/// The verdict on one metric of one workload between two result files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, and the two sets of
    /// samples overlap: neither "same" nor a change can be claimed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric as a result file holds it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Sample {
    fn read(m: &Json) -> Option<Sample> {
        let field = |key: &str| m.get(key).and_then(Json::as_f64);
        Some(Sample {
            value: field("value")?,
            min: field("min")?,
            max: field("max")?,
        })
    }
}

/// Judges `b` against the base `a`. `exact` metrics (simulated statistics)
/// must not move at all when both files used one seed.
pub fn judge(def: &MetricDef, a: Sample, b: Sample, same_seed: bool) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    // Positive when `b` is worse, as a share of the base.
    let sign = if def.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let worse_by = sign * (b.value - a.value) / a.value;
    if def.exact && same_seed {
        return match worse_by {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let spread = ((a.max - a.min) / a.value).max((b.max - b.min) / b.value);
    let (b_all_worse, b_all_better) = if def.better == Better::Lower {
        (b.min > a.max, b.max < a.min)
    } else {
        (b.max < a.min, b.min > a.max)
    };
    let noisy = spread > bound;
    if worse_by > bound {
        if noisy && !b_all_worse {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if worse_by < -bound {
        if noisy && !b_all_better {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn read_results(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares result file `b` against the base `a`: one row per workload ×
/// end-to-end metric. Returns whether nothing got worse.
///
/// # Errors
///
/// Returns a file that cannot be read or parsed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_doc, b_doc) = (read_results(a_path)?, read_results(b_path)?);
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_f64);
    let same_seed = seed(&a_doc).is_some() && seed(&a_doc) == seed(&b_doc);
    let workloads = |doc: &Json| -> Vec<Json> {
        doc.get("workloads")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .to_vec()
    };
    println!(
        "base A = {}, B = {}; ratio = B / A",
        a_path.display(),
        b_path.display()
    );
    println!(
        "{:<16} {:<18} {:>14} {:>30} {:>14} {:>30} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A min … max",
        "B median",
        "B min … max",
        "ratio",
        "bound"
    );
    let mut ok = true;
    let range = |s: Sample| format!("{:.6} … {:.6}", s.min, s.max);
    let b_workloads = workloads(&b_doc);
    for a in workloads(&a_doc) {
        let name = a.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(b) = b_workloads
            .iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for def in catalogue::end_to_end() {
            let read = |w: &Json| w.get("end_to_end")?.get(&def.name).and_then(Sample::read);
            let (Some(sa), Some(sb)) = (read(&a), read(b)) else {
                continue;
            };
            let verdict = judge(&def, sa, sb, same_seed);
            ok &= verdict != Verdict::Worse;
            println!(
                "{name:<16} {:<18} {:>14.6} {:>30} {:>14.6} {:>30} {:>8.4} {:>6}  {}",
                def.name,
                sa.value,
                range(sa),
                sb.value,
                range(sb),
                sb.value / sa.value,
                if def.exact && same_seed {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", def.bound.unwrap_or(0.0) * 100.0)
                },
                verdict.as_str()
            );
        }
        let share = |w: &Json| {
            let count = |key: &str| w.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            count("failed") / count("attempted").max(1.0)
        };
        let (fa, fb) = (share(&a), share(b));
        let verdict = if fb > fa {
            Verdict::Worse
        } else {
            Verdict::Same
        };
        ok &= verdict != Verdict::Worse;
        println!(
            "{name:<16} {:<18} {fa:>14.6} {:>30} {fb:>14.6} {:>30} {:>8} {:>6}  {}",
            "failed_share",
            "",
            "",
            "",
            "rise",
            verdict.as_str()
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(value: f64, min: f64, max: f64) -> Sample {
        Sample { value, min, max }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let def = |better, exact| MetricDef {
            name: "m".to_string(),
            unit: "s",
            better,
            bound: Some(0.10),
            exact,
        };
        let (wall, speed, msgs) = (
            &def(Better::Lower, false),
            &def(Better::Higher, false),
            &def(Better::Lower, true),
        );
        let tight = |v: f64| sample(v, v * 0.99, v * 1.01);
        assert_eq!(judge(wall, tight(1.0), tight(1.05), true), Verdict::Same);
        assert_eq!(judge(wall, tight(1.0), tight(1.2), true), Verdict::Worse);
        assert_eq!(judge(wall, tight(1.0), tight(0.8), true), Verdict::Better);
        assert_eq!(
            judge(speed, tight(100.0), tight(80.0), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(speed, tight(100.0), tight(125.0), true),
            Verdict::Better
        );
        // Wide, overlapping samples: no claim either way.
        let wide = |v: f64| sample(v, v * 0.8, v * 1.3);
        assert_eq!(
            judge(wall, wide(1.0), wide(1.02), true),
            Verdict::Unresolved
        );
        assert_eq!(judge(wall, wide(1.0), wide(1.2), true), Verdict::Unresolved);
        // Wide but fully separated: every run of B is worse.
        assert_eq!(judge(wall, wide(1.0), wide(2.0), true), Verdict::Worse);
        // Simulated statistics are exact at equal seed, bounded otherwise.
        assert_eq!(
            judge(msgs, tight(14.0), tight(14.001), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(msgs, tight(14.0), tight(14.001), false),
            Verdict::Same
        );
    }
}
