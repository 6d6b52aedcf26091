//! The four seeded CLI smokes, byte-compared against the snapshots under
//! `tests/snapshots/`: `ard_cli::commands::run` is called in-process, so
//! `cargo test` alone catches a moved byte in `ard discover` / `ard explore`
//! output under faults, traitors, churn and sleep-set reduction.
//!
//! * **chaos** — one lossy, crashy discovery run per variant;
//! * **byzantine** — the explorer must find and shrink the planted
//!   equivocation bug, and a traitor + churn run must report its pinned
//!   guarantee-survival verdicts;
//! * **dpor** — the sleep-set-reduced DFS must prune something and find the
//!   violations the unreduced DFS finds;
//! * **discover** — five 500–2,000-node discovery runs whose payloads grow
//!   to whole cluster sets: fifo with a trace, random order on every
//!   variant, several components, and faults.
//!
//! Everything is seeded, so the output is deterministic down to the metrics
//! table. After an intentional change, regenerate all four with
//! `ARD_UPDATE_SNAPSHOTS=1 cargo test --test cli_snapshots` and review the
//! diff.

use std::path::{Path, PathBuf};

/// Runs `ard <line>` in-process and returns what the binary would print.
fn ard(line: &str) -> String {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    ard_cli::commands::run(&args).unwrap_or_else(|e| panic!("`ard {line}` failed: {e}"))
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
