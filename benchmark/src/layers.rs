//! Micro-measurements of the layers that have no workload of their own:
//! the three id-set types, the meter, union–find and the timer. Each runs
//! a seeded id stream through the type's public operations and reports
//! nanoseconds per operation; together they take well under a second, so
//! every traced run carries them.

use std::hint::black_box;
use std::time::Instant;

use ard_netsim::{BitSet, IdSeq, IntervalSet, Metrics, NodeId};
use ard_union_find::UnionFind;

/// splitmix64: the seeded id streams need no more than this.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Ids per stream.
const IDS: usize = 1 << 16;

/// Nanoseconds per operation of `ops` operations done by `f`.
fn ns_per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Appends `(metric name, value)` for every micro-measured layer.
pub fn measure(seed: u64, out: &mut Vec<(String, f64)>) {
    let mut rng = SplitMix(seed);
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
    let id = NodeId::new;

    // The three id streams: *dense* (≤ 32 ids per sequence, IdSeq's
    // one-word-per-id mode), *contiguous* (0, 1, 2, … — what a whole
    // cluster of a random graph looks like) and *scattered* (ascending
    // with gaps, every id its own run — what the striped topology makes).
    let scattered: Vec<usize> = (0..IDS).map(|i| i * 64 + rng.below(62)).collect();

    put(
        "netsim.idseq.push_dense_ns",
        ns_per_op(IDS, || {
            for chunk in scattered.chunks(24) {
                let mut seq = IdSeq::new();
                chunk.iter().for_each(|&i| seq.push(id(i)));
                black_box(seq);
            }
        }),
    );
    let mut contiguous = IdSeq::new();
    put(
        "netsim.idseq.push_contiguous_ns",
        ns_per_op(IDS, || (0..IDS).for_each(|i| contiguous.push(id(i)))),
    );
    let mut scattered_seq = IdSeq::new();
    put(
        "netsim.idseq.push_scattered_ns",
        ns_per_op(IDS, || {
            scattered.iter().for_each(|&i| scattered_seq.push(id(i)))
        }),
    );
    put(
        "netsim.idseq.for_each_run_ns_per_id",
        ns_per_op(IDS, || {
            let mut total = 0u64;
            scattered_seq.for_each_run(&mut |start, end| total += u64::from(end - start));
            black_box(total);
        }),
    );
    put(
        "netsim.idseq.heap_bytes_per_id_contiguous",
        contiguous.heap_bytes() as f64 / contiguous.len() as f64,
    );
    put(
        "netsim.idseq.heap_bytes_per_id_scattered",
        scattered_seq.heap_bytes() as f64 / scattered_seq.len() as f64,
    );

    // IntervalSet: the knowledge representation above 8,192 nodes.
    let shuffled: Vec<usize> = {
        let mut ids = scattered.clone();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.below(i + 1));
        }
        ids
    };
    let mut set = IntervalSet::new();
    put(
        "netsim.intset.insert_scattered_ns",
        ns_per_op(IDS, || {
            for &i in &shuffled {
                set.insert(i);
            }
        }),
    );
    put(
        "netsim.intset.contains_ns",
        ns_per_op(IDS, || {
            let hits = shuffled.iter().filter(|&&i| set.contains(i + 1)).count();
            black_box(hits);
        }),
    );
    let runs: Vec<(u32, u32)> = (0..IDS / 16)
        .map(|_| {
            let start = rng.below(IDS * 64) as u32;
            (start, start + 1 + rng.below(256) as u32)
        })
        .collect();
    let mut run_set = IntervalSet::new();
    put(
        "netsim.intset.insert_run_ns",
        ns_per_op(runs.len(), || {
            runs.iter().for_each(|&(s, e)| run_set.insert_run(s, e))
        }),
    );
    let total_runs = set.runs().len() + run_set.runs().len();
    put(
        "netsim.intset.union_ns_per_run",
        ns_per_op(total_runs, || {
            set.union_with(&run_set);
            black_box(set.len());
        }),
    );

    // BitSet: the knowledge representation up to 8,192 nodes.
    const BITS: usize = 8192;
    let small: Vec<usize> = (0..IDS).map(|_| rng.below(BITS)).collect();
    let mut bits = BitSet::with_capacity(BITS);
    put(
        "netsim.bitset.insert_ns",
        ns_per_op(IDS, || {
            for &i in &small {
                bits.insert(i);
            }
        }),
    );
    put(
        "netsim.bitset.contains_ns",
        ns_per_op(IDS, || {
            black_box(small.iter().filter(|&&i| bits.contains(i ^ 1)).count());
        }),
    );
    let mut other = BitSet::with_capacity(BITS);
    for i in (0..BITS).step_by(3) {
        other.insert(i);
    }
    const UNIONS: usize = 4096;
    put(
        "netsim.bitset.union_ns_per_word",
        ns_per_op(UNIONS * BITS / 64, || {
            for _ in 0..UNIONS {
                bits.union_with(black_box(&other));
            }
            black_box(bits.len());
        }),
    );

    // The meter: one `record` per message sent.
    const KINDS: [&str; 6] = [
        "query",
        "query reply",
        "search",
        "release",
        "info",
        "conquer",
    ];
    let mut meter = Metrics::new(16);
    put(
        "netsim.metrics.record_ns",
        ns_per_op(IDS * 4, || {
            for i in 0..IDS * 4 {
                meter.record(KINDS[i % KINDS.len()], i & 7, 41);
            }
            black_box(meter.total_bits());
        }),
    );

    // Union–find: a seeded union/find mix (two finds per union).
    let mut dsu = UnionFind::new(IDS);
    let pairs: Vec<(usize, usize)> = (0..IDS).map(|_| (rng.below(IDS), rng.below(IDS))).collect();
    let ns = ns_per_op(IDS * 3, || {
        for &(a, b) in &pairs {
            dsu.union(a, b);
            black_box(dsu.find(a) == dsu.find(b));
        }
    });
    put("union_find.dsu.ops_per_sec", 1e9 / ns);
}
