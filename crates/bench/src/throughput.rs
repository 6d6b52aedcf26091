//! Engine-throughput measurement: events/sec of the discrete-event
//! simulator running the generic (Oblivious) discovery algorithm.
//!
//! An "event" is one `Runner::step` — a wake-up or a message delivery.
//! This is the metric `BENCH_throughput.json` records so successive PRs
//! have a perf trajectory to compare against; regenerate it with
//! `scripts/bench.sh` (or `tables --bench-throughput`).

use std::time::Instant;

use ard_core::{Discovery, Variant};
use ard_graph::gen;
use ard_netsim::{FifoScheduler, RandomScheduler, Scheduler};

/// Network sizes the throughput sweep covers. The large tail exercises the
/// SoA node table and sparse knowledge (n > 8192 switches the runner's
/// per-node sets from bitsets to `IdSet`s); `measure` drops to one
/// repetition there.
pub const THROUGHPUT_SIZES: [usize; 5] = [256, 1024, 4096, 65536, 1_048_576];

/// Sizes above this measure with a single repetition (a full 10⁶-node
/// discovery is ~1.5·10⁷ events; best-of-3 would triple a minutes-long
/// sweep for noise reduction the big numbers don't need).
pub(crate) const SINGLE_REP_ABOVE: usize = 16_384;

/// One measured (n, scheduler) throughput point.
#[derive(Clone, Debug)]
pub struct ThroughputPoint {
    /// Number of nodes in the random weakly connected topology.
    pub n: usize,
    /// Scheduler name (`"fifo"` or `"random"`).
    pub scheduler: &'static str,
    /// Simulator events (wake-ups + deliveries) executed per run.
    pub events: u64,
    /// Best wall-clock seconds over the measured repetitions.
    pub secs: f64,
    /// `events / secs` for the best repetition.
    pub events_per_sec: f64,
    /// Heap bytes of per-node knowledge at quiescence, divided by `n` —
    /// the memory metric the sparse knowledge representation targets.
    pub knowledge_bytes_per_node: f64,
    /// Payload heap bytes enqueued per executed event — the message-size
    /// metric the run-length payload coding targets.
    pub payload_bytes_per_event: f64,
    /// High-water mark of payload heap bytes simultaneously in flight.
    pub payload_peak_bytes: u64,
}

fn make_scheduler(name: &'static str, seed: u64) -> Box<dyn Scheduler> {
    match name {
        "fifo" => Box::new(FifoScheduler::new()),
        "random" => Box::new(RandomScheduler::seeded(seed)),
        other => panic!("unknown scheduler {other}"),
    }
}

/// Measures events/sec for every `(n, scheduler)` pair in the sweep,
/// taking the best of `reps` repetitions (graph generation excluded).
///
/// The `fifo` rows drive the round loop (byte-identical to a
/// `FifoScheduler` run, without the scheduler object); `random` rows
/// drive `Runner::run` under the seeded random scheduler.
pub fn measure(sizes: &[usize], reps: u32) -> Vec<ThroughputPoint> {
    let mut points = Vec::new();
    for &n in sizes {
        let graph = gen::random_weakly_connected(n, 2 * n, n as u64);
        let reps = if n > SINGLE_REP_ABOVE { 1 } else { reps.max(1) };
        for scheduler in ["fifo", "random"] {
            let mut best_secs = f64::INFINITY;
            let mut events = 0u64;
            let mut knowledge_bytes = 0usize;
            let mut payload_sent = 0u64;
            let mut payload_peak = 0u64;
            for _ in 0..reps {
                let mut d = Discovery::new(&graph, Variant::Oblivious);
                let secs = if scheduler == "fifo" {
                    let start = Instant::now();
                    d.run_all_rounds().expect("throughput run livelocked");
                    start.elapsed().as_secs_f64()
                } else {
                    let mut sched = make_scheduler(scheduler, n as u64 ^ 0xa5a5);
                    let start = Instant::now();
                    d.run_all(sched.as_mut()).expect("throughput run livelocked");
                    start.elapsed().as_secs_f64()
                };
                events = d.runner().steps_executed();
                knowledge_bytes = d.runner().knowledge_bytes();
                payload_sent = d.runner().payload_bytes_sent();
                payload_peak = d.runner().payload_peak_bytes();
                best_secs = best_secs.min(secs);
            }
            points.push(ThroughputPoint {
                n,
                scheduler,
                events,
                secs: best_secs,
                events_per_sec: events as f64 / best_secs,
                knowledge_bytes_per_node: knowledge_bytes as f64 / n as f64,
                payload_bytes_per_event: payload_sent as f64 / events as f64,
                payload_peak_bytes: payload_peak,
            });
        }
    }
    points
}

/// Renders the points as the `BENCH_throughput.json` document.
pub fn to_json(points: &[ThroughputPoint]) -> String {
    let mut out = String::from("{\n  \"metric\": \"events_per_sec\",\n  \"workload\": \"oblivious discovery on random G(n, 3n)\",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"scheduler\": \"{}\", \"events\": {}, \"secs\": {:.6}, \"events_per_sec\": {:.0}, \"knowledge_bytes_per_node\": {:.1}, \"payload_bytes_per_event\": {:.1}, \"payload_peak_bytes\": {}}}{}\n",
            p.n,
            p.scheduler,
            p.events,
            p.secs,
            p.events_per_sec,
            p.knowledge_bytes_per_node,
            p.payload_bytes_per_event,
            p.payload_peak_bytes,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_all_pairs() {
        let points = measure(&[32], 1);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.events > 0);
            assert!(p.events_per_sec > 0.0);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let points = measure(&[24], 1);
        let json = to_json(&points);
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert_eq!(json.matches("\"scheduler\"").count(), points.len());
        assert!(json.contains("\"payload_bytes_per_event\""));
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
    }
}
