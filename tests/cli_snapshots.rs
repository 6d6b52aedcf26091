//! The nine seeded CLI smokes, byte-compared against the snapshots under
//! `tests/snapshots/`: `ard_cli::commands::run` is called in-process, so
//! `cargo test` alone catches a moved byte in `ard discover` / `ard explore`
//! output under faults, traitors, churn and sleep-set reduction, or in the
//! text of a usage error.
//!
//! * **chaos** — one lossy, crashy discovery run per variant;
//! * **byzantine** — the explorer must find and shrink the planted
//!   equivocation bug, and a traitor + churn run must report its pinned
//!   guarantee-survival verdicts;
//! * **dpor** — the sleep-set-reduced DFS must prune something and find the
//!   violations the unreduced DFS finds;
//! * **explore** — the sleep-set-reduced DFS on three discovery systems,
//!   with its pruning and dedup counters;
//! * **explore-plans** — the explorer under link faults, crashes and churn,
//!   on discovery and on the `fragile` fixture, with the replay of each
//!   witness it writes;
//! * **discover** — five 500–2,000-node discovery runs whose payloads grow
//!   to whole cluster sets: fifo with a trace, random order on every
//!   variant, several components, and faults;
//! * **discover-orders** — `discover` under the lifo and bounded-delay
//!   schedulers, a recorded fifo run with its file and its replay, a
//!   `--dot` file, and traitors plus churn with `--trace --stats`;
//! * **cli-surface** — one run of every other command (`adversary`,
//!   `reduction`, `overlay`, `baselines`, `discover --sweep`, `explore`,
//!   `replay`, `replay --shrink`) and the exact text of the usage errors;
//! * **record-replay** — `discover --record` with no plan, under faults and
//!   under traitors plus churn: each report, the file it writes and its
//!   `ard replay`; then the text of every parse error of a run's
//!   description, on the command line and in a damaged recording.
//!
//! Everything is seeded, so the output is deterministic down to the metrics
//! table. After an intentional change, regenerate all nine with
//! `ARD_UPDATE_SNAPSHOTS=1 cargo test --test cli_snapshots` and review the
//! diff.

use std::path::{Path, PathBuf};

/// Runs `ard <line>` in-process and returns what the binary would print.
fn ard(line: &str) -> String {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    ard_cli::commands::run(&args).unwrap_or_else(|e| panic!("`ard {line}` failed: {e}"))
}

/// Runs `ard <line>` in-process, expecting a usage error, and returns it as
/// one `ard <line>` / `  error: <text>` pair.
fn ard_err(line: &str) -> String {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    match ard_cli::commands::run(&args) {
        Ok(out) => panic!("`ard {line}` succeeded:\n{out}"),
        Err(e) => format!("ard {line}\n  error: {e}\n"),
    }
}

/// Compares `actual` with `tests/snapshots/<name>` — or, under
/// `ARD_UPDATE_SNAPSHOTS=1`, rewrites that file.
fn check_snapshot(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name);
    if std::env::var_os("ARD_UPDATE_SNAPSHOTS").is_some_and(|v| v == "1") {
        std::fs::write(&path, actual).expect("snapshot is writable");
        return;
    }
    let pinned = std::fs::read_to_string(&path).expect("snapshot exists");
    assert!(
        pinned == actual,
        "output diverged from tests/snapshots/{name}; if intentional, regenerate with \
         `ARD_UPDATE_SNAPSHOTS=1 cargo test --test cli_snapshots` and review the diff\n\
         --- pinned\n{pinned}--- actual\n{actual}"
    );
}

/// A schedule file of this test's own under the system temp directory (two
/// gates on one host must not clobber each other), removed on drop; the
/// snapshots carry `pinned` in its place.
struct ScratchSchedule {
    path: PathBuf,
    pinned: &'static str,
}

impl ScratchSchedule {
    fn new(pinned: &'static str) -> Self {
        let name = Path::new(pinned).file_name().expect("a file name");
        let unique = format!("{}.{}", std::process::id(), name.to_string_lossy());
        ScratchSchedule {
            path: std::env::temp_dir().join(unique),
            pinned,
        }
    }

    /// Runs `ard <line> --out <this file>` with the path rewritten to the
    /// pinned name.
    fn ard(&self, line: &str) -> String {
        let path = self.path.to_str().expect("utf-8 temp dir");
        ard(&format!("{line} --out {path}")).replace(path, self.pinned)
    }
}

impl Drop for ScratchSchedule {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        // `replay --shrink` writes its default output next to the input.
        let _ = std::fs::remove_file(format!("{}.min", self.path.display()));
    }
}

#[test]
fn chaos_smoke_matches_its_snapshot() {
    let mut out = String::new();
    for variant in ["oblivious", "bounded", "adhoc"] {
        out += &format!("=== chaos {variant} ===\n");
        out += &ard(&format!(
            "discover --topology random:n=16,extra=24,seed=4 --variant {variant} \
             --scheduler random:11 --faults drop=0.1,dup=0.05,crash=1,seed=6"
        ));
    }
    check_snapshot("chaos-smoke.snapshot", &out);
}

#[test]
fn byzantine_smoke_finds_and_shrinks_the_planted_equivocation() {
    let schedule = ScratchSchedule::new("/tmp/ard-verify-equiv.schedule");
    let mut out = String::from("=== byzantine explore equiv:3 ===\n");
    out += &schedule.ard(
        "explore --system equiv:3 --byzantine f=1,seed=3,class=equivocate --budget 64 --seed 0",
    );
    out += "=== byzantine discover ring:12 ===\n";
    out += &ard("discover --topology ring:12 --scheduler random:5 \
         --byzantine f=2,seed=7 --churn rate=0.2,seed=11");
    assert!(
        out.contains("violation : forged endorsements elected 2 leaders"),
        "the planted equivocation bug was not found:\n{out}"
    );
    assert!(out.contains("shrunk    :"), "found but not shrunk:\n{out}");
    check_snapshot("byzantine-smoke.snapshot", &out);
}

/// A pure-DFS search (`--walks 0`) under sleep-set reduction must report
/// non-trivial pruning on the racy fixture and print the very violation
/// line the unreduced DFS prints: reduction prunes redundant
/// interleavings, never the witnesses.
#[test]
fn dpor_smoke_reduced_finds_what_full_finds() {
    let schedule = ScratchSchedule::new("/tmp/ard-verify-dpor.schedule");
    let racy = "explore --system racy:3 --budget 64 --walks 0 --depth 7 --seed 0 --stats";
    let equiv = "explore --system equiv:3 --byzantine f=1,seed=3,class=equivocate \
                 --budget 64 --walks 0 --depth 4 --seed 0 --stats";
    let mut reduced = String::new();
    for (name, line) in [("racy:3", racy), ("equiv:3", equiv)] {
        reduced += &format!("=== dpor explore {name} (reduced) ===\n");
        reduced += &schedule.ard(&format!("{line} --reduce"));
    }
    let pruned = reduced
        .split_once("reduction : mode=sleep, sleep-pruned=")
        .and_then(|(_, rest)| rest.chars().next());
    assert!(
        matches!(pruned, Some('1'..='9')),
        "nothing pruned on the racy fixture:\n{reduced}"
    );
    for line in [racy, equiv] {
        let full = schedule.ard(line);
        let violation = full
            .lines()
            .find(|l| l.starts_with("violation :"))
            .unwrap_or_else(|| panic!("the unreduced `ard {line}` found no violation:\n{full}"));
        assert!(
            reduced.contains(violation),
            "the reduced search missed `{violation}`:\n{reduced}"
        );
    }
    check_snapshot("dpor-smoke.snapshot", &reduced);
}

/// The sleep-set-reduced DFS on real discovery systems, with its counters:
/// two small topologies whose frontier the search exhausts (so pruning and
/// state dedup both fire), and the 16-node system of the benchmark's
/// `explore-adhoc16` workload under walks and DFS. The explorer's
/// bookkeeping changes under this pin, and the bytes must not.
#[test]
fn explore_smoke_matches_its_snapshot() {
    let mut out = String::new();
    for system in [
        "--topology random:n=4,extra=4 --budget 3000 --walks 0",
        "--topology path:5 --budget 3000 --walks 0",
        "--topology random:n=16,extra=24 --budget 2000 --walks 1000",
    ] {
        let line = format!("explore --variant adhoc --reduce --stats --depth 6 --seed 1 {system}");
        out += &format!("=== {line} ===\n");
        out += &ard(&line);
    }
    check_snapshot("explore-smoke.snapshot", &out);
}

/// `ard explore` under each plan the explorer injects: link faults and a
/// crash on discovery (the budget runs out clean), drops on the `fragile`
/// fixture (found, shrunk, replayed) and churn on discovery (a survivor
/// violation, shrunk and replayed). Where the plans are kept changes under
/// this pin, and the bytes must not.
#[test]
fn explore_under_plans_matches_its_snapshot() {
    let schedule = ScratchSchedule::new("/tmp/ard-verify-plans.schedule");
    let path = schedule.path.to_str().expect("utf-8 temp dir");
    let mut out = String::new();
    for (line, writes) in [
        (
            "explore --topology ring:6 --faults drop=0.1,crash=1,seed=2 --budget 16 --seed 1",
            false,
        ),
        (
            "explore --system fragile:1 --budget 128 --faults drop=0.25,seed=1",
            true,
        ),
        (
            "explore --topology ring:8 --churn rate=0.25,seed=1 --budget 16 --seed 1",
            true,
        ),
    ] {
        out += &format!("=== {line} ===\n");
        if !writes {
            out += &ard(line);
            continue;
        }
        out += &schedule.ard(line);
        out += "--- ard replay ---\n";
        out += &ard(&format!("replay {path}")).replace(path, schedule.pinned);
    }
    check_snapshot("explore-plans.snapshot", &out);
}

/// Fault-free and faulty discovery at a size where cluster sets grow into
/// long runs: every payload kind, the fifo round loop with its trace, the
/// random scheduler on all three variants, several components, and the
/// reliable layer. Payload representations change under this pin, and the
/// bytes must not.
#[test]
fn discover_smoke_matches_its_snapshot() {
    let random = "random:n=2000,extra=4000";
    let lines = [
        format!(
            "discover --topology {random} --variant oblivious --scheduler fifo --trace 40 --stats"
        ),
        format!("discover --topology {random} --variant bounded --scheduler random:3 --stats"),
        format!("discover --topology {random} --variant adhoc --scheduler random:5 --stats"),
        "discover --topology components:count=8,per=64,extra=128,seed=3 --variant bounded \
         --scheduler fifo --stats"
            .to_string(),
        "discover --topology random:n=500,extra=1000 --variant adhoc --scheduler random:2 \
         --faults drop=0.1,dup=0.05,crash=3,seed=4 --stats"
            .to_string(),
    ];
    let mut out = String::new();
    for line in &lines {
        out += &format!("=== {line} ===\n");
        out += &ard(line);
    }
    check_snapshot("discover-smoke.snapshot", &out);
}

/// `discover` under the orders and flags the other smokes leave out: the
/// lifo and bounded-delay schedulers, a recorded fifo run (its report, its
/// recording and `ard replay` of it), a `--dot` file, and traitors plus
/// churn with a trace and traffic statistics. How a run is ordered,
/// recorded and judged changes under this pin, and the bytes must not.
#[test]
fn discover_under_every_order_matches_its_snapshot() {
    let schedule = ScratchSchedule::new("/tmp/ard-verify-orders.schedule");
    let dot = ScratchSchedule::new("/tmp/ard-verify-orders.dot");
    let path = schedule.path.to_str().expect("utf-8 temp dir");
    let dot_path = dot.path.to_str().expect("utf-8 temp dir");
    let pin = |text: String| {
        text.replace(path, schedule.pinned)
            .replace(dot_path, dot.pinned)
    };
    let random = "random:n=500,extra=1000";
    let mut out = String::new();
    for line in [
        format!("discover --topology {random} --variant adhoc --scheduler lifo --stats"),
        format!("discover --topology {random} --variant bounded --scheduler bounded:4,7 --stats"),
        "discover --topology random:n=64,extra=128,seed=3 --variant oblivious --scheduler fifo \
         --trace 20 --stats --byzantine f=3,seed=7 --churn rate=0.1,seed=11"
            .to_string(),
    ] {
        out += &format!("=== {line} ===\n");
        out += &ard(&line);
    }

    let line = "discover --topology random:n=64,extra=128,seed=5 --variant adhoc --scheduler fifo";
    out += &format!("=== {line} --record ===\n");
    out += &pin(ard(&format!("{line} --record {path}")));
    out += "--- the recording ---\n";
    out += &abridged(&std::fs::read_to_string(path).expect("the recording exists"));
    out += "--- ard replay ---\n";
    out += &pin(ard(&format!("replay {path}")));

    let line = "discover --topology ring:8 --variant bounded --scheduler lifo";
    out += &format!("=== {line} --dot ===\n");
    out += &pin(ard(&format!("{line} --dot {dot_path}")));
    out += "--- the dot file ---\n";
    out += &abridged(&std::fs::read_to_string(dot_path).expect("the dot file exists"));
    check_snapshot("discover-orders.snapshot", &out);
}

/// One run of every command the other smokes leave out, then `replay` and
/// `replay --shrink` of the explorer's result, then every usage error the
/// flag parser and the per-command checks can raise.
#[test]
fn cli_surface_matches_its_snapshot() {
    let schedule = ScratchSchedule::new("/tmp/ard-verify-surface.schedule");
    let path = schedule.path.to_str().expect("utf-8 temp dir");
    let mut out = String::new();
    for line in [
        "adversary",
        "reduction",
        "reduction --adversarial",
        "overlay",
        "baselines --seeds 2",
        "discover --sweep 3",
        "explore --topology path:0",
    ] {
        out += &format!("=== {line} ===\n");
        out += &ard(line);
    }
    for line in ["explore --reduce --stats", "explore --system racy:3"] {
        out += &format!("=== {line} ===\n");
        out += &schedule.ard(line);
    }
    for line in ["replay", "replay --shrink"] {
        out += &format!("=== {line} ===\n");
        let args = line.replacen("replay", &format!("replay {path}"), 1);
        out += &ard(&args).replace(path, schedule.pinned);
    }
    out += "=== usage errors ===\n";
    for line in [
        // The flag parser.
        "discover --tpology ring:5",
        "replay x.schedule --turbo 9",
        "discover --topology ring:5 --reduce",
        "discover --topology ring:5 --trace",
        "discover --dot --stats",
        "discover topology ring:5",
        "adversary --levels x",
        "adversary --levels 1",
        "discover --scheduler psychic",
        // Every count that must be at least one.
        "discover --topology ring:6 --sweep 0",
        "discover --topology ring:6 --sweep 2 --jobs 0",
        "discover --topology ring:6 --scheduler fifo --shards 0",
        "reduction --sets 0",
        "overlay --n 0",
        "baselines --seeds 0",
        "baselines --jobs 0",
        "explore --system racy:2 --jobs 0",
        "replay x.schedule --shrink --jobs 0",
        // Flags that need another flag, or exclude one.
        "discover --topology ring:6 --jobs 2",
        "replay x.schedule --jobs 2",
        "replay x.schedule --out y.schedule",
        "discover --topology ring:8 --shards 2",
        "discover --topology ring:8 --scheduler fifo --shards 1 --faults drop=0.1",
        "discover --topology ring:6 --sweep 2 --trace 5",
        "discover --topology ring:6 --sweep 2 --stats",
        "discover --topology ring:6 --sweep 2 --dot x.dot",
        "discover --topology ring:6 --sweep 2 --faults drop=0.1",
        "discover --topology ring:6 --sweep 2 --byzantine f=1",
        "discover --topology ring:6 --sweep 2 --churn rate=0.2",
        "discover --topology ring:6 --sweep 2 --record x.schedule",
        "discover --topology ring:6 --sweep 2 --shards 1",
        "discover --topology ring:6 --sweep 2 --max-steps 10",
        "discover --topology ring:6 --scheduler fifo --sweep 2",
        "discover --topology ring:6 --byzantine f=1 --faults drop=0.1",
        "explore --system racy:3 --budget 8 --walks 9",
        "explore --system racy:3 --reduce bogus",
        "explore --budget 4 --check-snapshots",
        // The explorer's systems and replay's file argument.
        "explore --system racy:0",
        "explore --system racy:x",
        "explore --system equiv:1",
        "explore --system warp",
        "explore --system warp:3",
        "replay",
        "replay --shrink",
    ] {
        out += &ard_err(line);
    }
    check_snapshot("cli-surface.snapshot", &out);
}

/// 64-bit FNV-1a: a digest that does not depend on the Rust release.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `text` whole if it has at most 40 lines, else its line count, digest
/// and first 40 lines.
fn abridged(text: &str) -> String {
    let lines = text.lines().count();
    if lines <= 40 {
        return text.to_string();
    }
    let head: String = text
        .lines()
        .take(40)
        .map(|line| format!("{line}\n"))
        .collect();
    format!(
        "({lines} lines, fnv1a-64 {:016x}; the first 40:)\n{head}",
        fnv1a(text)
    )
}

/// `discover --record` under no plan, under link faults and under traitors
/// plus churn: the report, the recording and `ard replay` of it. Then every
/// parse error a run's description can raise, from the flags and from the
/// metadata of a damaged recording.
#[test]
fn record_replay_matches_its_snapshot() {
    let schedule = ScratchSchedule::new("/tmp/ard-verify-record.schedule");
    let path = schedule.path.to_str().expect("utf-8 temp dir");
    let pin = |text: String| text.replace(path, schedule.pinned);
    let mut out = String::new();
    for run in [
        "--topology ring:12 --scheduler random:5",
        "--topology random:n=12,extra=20,seed=3 --scheduler random:3 \
         --faults drop=0.15,dup=0.05,crash=2,seed=9",
        "--topology ring:12 --scheduler random:5 --byzantine f=2,seed=7 --churn rate=0.2,seed=11",
    ] {
        let run = run.split_whitespace().collect::<Vec<_>>().join(" ");
        out += &format!("=== discover {run} --record ===\n");
        out += &pin(ard(&format!("discover {run} --record {path}")));
        out += "--- the recording ---\n";
        out += &abridged(&std::fs::read_to_string(path).expect("the recording exists"));
        out += "--- ard replay ---\n";
        out += &pin(ard(&format!("replay {path}")));
    }
    out += "=== parse errors ===\n";
    for line in [
        // Topology.
        "discover --topology path:x",
        "discover --topology ring:1",
        "discover --topology ring:-3",
        "discover --topology star-in:x",
        "discover --topology star-out:",
        "discover --topology complete:x",
        "discover --topology tree:0",
        "discover --topology tree:25",
        "discover --topology tree:x",
        "discover --topology random:extra=5",
        "discover --topology random:n=x",
        "discover --topology random:n=5,extra",
        "discover --topology random:n=5,bogus=1",
        "discover --topology components:per=5",
        "discover --topology components:count=2",
        "discover --topology components:count=2,per=5,seed=x",
        "discover --topology components:count=2,per=5,side=1",
        "discover --topology blob:7",
        "explore --topology ring:1",
        // Variant.
        "discover --variant x",
        "discover --variant ad_hoc",
        "explore --variant x",
        // Faults.
        "discover --topology ring:6 --faults drop=1.0",
        "discover --topology ring:6 --faults drop=x",
        "discover --topology ring:6 --faults dup=-0.1",
        "discover --topology ring:6 --faults crash=x",
        "discover --topology ring:6 --faults seed=x",
        "discover --topology ring:6 --faults mangle=0.5",
        "discover --topology ring:6 --faults garbage",
        "discover --topology path:0 --faults crash=1",
        "explore --system racy:3 --faults drop=2",
        // Byzantine.
        "discover --topology ring:6 --byzantine seed=3",
        "discover --topology ring:6 --byzantine f=x",
        "discover --topology ring:6 --byzantine f=1,seed=x",
        "discover --topology ring:6 --byzantine f=1,class=sneaky",
        "discover --topology ring:6 --byzantine f=1,classes=silence+loud",
        "discover --topology ring:6 --byzantine f=1,mode=loud",
        "discover --topology ring:6 --byzantine garbage",
        "explore --system equiv:3 --byzantine f=1,class=x",
        // Churn.
        "discover --topology ring:6 --churn seed=5",
        "discover --topology ring:6 --churn rate=0.7",
        "discover --topology ring:6 --churn rate=-0.1",
        "discover --topology ring:6 --churn rate=x",
        "discover --topology ring:6 --churn rate=0.1,seed=x",
        "discover --topology ring:6 --churn rate=0.1,burst=2",
        "discover --topology ring:6 --churn garbage",
        "explore --topology ring:6 --churn rate=1",
    ] {
        out += &ard_err(line);
    }
    out += "=== replay of a damaged recording ===\n";
    let recorded = std::fs::read_to_string(path).expect("the recording exists");
    for (what, from, to) in [
        ("no topology", "meta topology ring:12\n", ""),
        ("no variant", "meta variant ad-hoc\n", ""),
        (
            "a bad topology",
            "meta topology ring:12",
            "meta topology ring:zero",
        ),
        (
            "a bad variant",
            "meta variant ad-hoc",
            "meta variant sideways",
        ),
        (
            "a byzantine plan without f",
            "meta byzantine f=2,",
            "meta byzantine ",
        ),
        (
            "a bad byzantine class",
            "classes=equivocate+",
            "classes=loud+",
        ),
        (
            "a bad churn rate",
            "meta churn rate=0.2",
            "meta churn rate=lots",
        ),
        (
            "a churn plan without rate",
            "meta churn rate=0.2,",
            "meta churn ",
        ),
        (
            "link faults beside traitors and churn",
            "meta churn ",
            "meta faults drop=0.1,dup=0,crash=0,seed=1\nmeta churn ",
        ),
    ] {
        assert!(recorded.contains(from), "the recording has no `{from}`");
        std::fs::write(path, recorded.replacen(from, to, 1)).expect("writable");
        out += &format!("--- {what} ---\n");
        out += &pin(ard_err(&format!("replay {path}")));
    }
    check_snapshot("record-replay.snapshot", &out);
}
