//! The benchmark is a workspace of its own, so Cargo ignores the root
//! manifest's `[profile.release]` when building it. The table is copied
//! into `benchmark/Cargo.toml`; this test fails when the copies differ, so
//! the benchmark can never measure a build users do not run.

use ard_benchmark::provenance::release_profile;

#[test]
fn release_profiles_of_root_and_benchmark_are_equal() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let read =
        |path: String| std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let root = release_profile(&read(format!("{dir}/../Cargo.toml")));
    let bench = release_profile(&read(format!("{dir}/Cargo.toml")));
    assert!(
        !root.is_empty(),
        "the root manifest has a [profile.release] table"
    );
    assert_eq!(
        root, bench,
        "benchmark/Cargo.toml must copy the root's [profile.release]"
    );
}

#[test]
fn profile_parser_drops_comments_and_stops_at_the_next_table() {
    let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# why\ndebug = true # inline\n\nlto = \"thin\"\n[dependencies]\nrand = \"1\"\n";
    assert_eq!(
        release_profile(manifest),
        ["debug = true", "lto = \"thin\""]
    );
}
