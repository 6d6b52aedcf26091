//! Where a result came from: host, toolchain, commit and build profile.

use std::process::Command;

use crate::json::Json;

/// This crate's manifest, for the `[profile.release]` it was built with.
const MANIFEST: &str = include_str!("../Cargo.toml");

/// The `key = value` lines of `[profile.release]` in a manifest, comments
/// and blank lines dropped — what `tests/profile_equality.rs` compares
/// between this manifest and the root's.
pub fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host, toolchain, commit (with a dirty flag) and release-profile flags.
/// A checkout that is not a git repository reports `unknown`.
pub fn collect() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(rustc)),
        (
            "git_commit",
            Json::Str(commit.unwrap_or_else(|| "unknown".to_string())),
        ),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "release_profile",
            Json::Str(release_profile(MANIFEST).join(", ")),
        ),
    ])
}
