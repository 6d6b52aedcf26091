//! Oracle for the packed choice log behind `Schedule`: whatever goes in
//! comes back out, and the text format reads as a plain `Vec<Choice>`
//! rendered line by line, under the same v1/v2 header rule.
//!
//! Operands are drawn from the LEB128 boundaries (one byte up to 127, two
//! up to 16,383, three up to 2²¹ − 1, five at `u32::MAX`) as often as from
//! the whole `u32` range, over all twelve rows of `Kind::TABLE`; one long
//! sequence spans many of the log's chunks.

use proptest::prelude::*;

use ard_netsim::record::{SCHEDULE_HEADER, SCHEDULE_HEADER_V2};
use ard_netsim::{Choice, Kind, NodeId, Schedule, Shape};

const BOUNDARIES: [u32; 7] = [0, 127, 128, 16_383, 16_384, 1 << 21, u32::MAX];

/// A boundary value or, one draw in eight, any `u32`.
fn operand() -> impl Strategy<Value = u32> {
    (0..BOUNDARIES.len() + 1, any::<u32>())
        .prop_map(|(i, any)| BOUNDARIES.get(i).copied().unwrap_or(any))
}

fn choice(kind: usize, a: u32, b: u32, salt: u32) -> Choice {
    let node = |v: u32| NodeId::new(v as usize);
    Choice::from_parts(Kind::TABLE[kind].kind, node(a), node(b), salt)
}

/// The text format, rendered from the plain sequence.
fn reference_text(meta: &[(&str, &str)], choices: &[Choice]) -> String {
    let v1 = choices.iter().all(|c| c.kind().row().version == 1);
    let mut out = format!(
        "{}\n",
        if v1 {
            SCHEDULE_HEADER
        } else {
            SCHEDULE_HEADER_V2
        }
    );
    for (k, v) in meta {
        out += &format!("meta {k} {v}\n");
    }
    for c in choices {
        let row = c.kind().row();
        let (a, b, salt) = c.operands();
        let (letter, a, b) = (row.letter, a.index(), b.index());
        out += &match row.shape {
            Shape::Node => format!("{letter} {a}\n"),
            Shape::Link => format!("{letter} {a} {b}\n"),
            Shape::LinkSalt => format!("{letter} {a} {b} {salt}\n"),
        };
    }
    out
}

fn check(choices: Vec<Choice>) -> Result<(), TestCaseError> {
    let mut schedule = Schedule::new(choices.iter().copied());
    schedule.set_meta("topology", "random:n=16384");
    prop_assert_eq!(schedule.choices().collect::<Vec<_>>(), choices.clone());
    prop_assert_eq!(schedule.len(), choices.len());
    prop_assert_eq!(schedule.choices().len(), choices.len());
    prop_assert_eq!(schedule.is_empty(), choices.is_empty());

    let text = schedule.to_text();
    prop_assert_eq!(
        &text,
        &reference_text(&[("topology", "random:n=16384")], &choices)
    );
    let mut written = Vec::new();
    schedule
        .write_text(&mut written)
        .expect("a Vec takes every byte");
    prop_assert_eq!(written, text.clone().into_bytes());

    let parsed = Schedule::parse(&text).expect("rendered text parses");
    prop_assert_eq!(&parsed, &schedule);
    prop_assert!(parsed.choices() == schedule.choices());

    let v2 = choices.iter().any(|c| c.kind().row().version == 2);
    let header = if v2 {
        SCHEDULE_HEADER_V2
    } else {
        SCHEDULE_HEADER
    };
    prop_assert_eq!(text.lines().next(), Some(header));
    Ok(())
}

#[test]
fn every_row_at_every_boundary_round_trips() {
    let mut all = Vec::new();
    for kind in 0..Kind::TABLE.len() {
        for (i, &a) in BOUNDARIES.iter().enumerate() {
            let b = BOUNDARIES[(i + 1) % BOUNDARIES.len()];
            let salt = BOUNDARIES[(i + 3) % BOUNDARIES.len()];
            let one = choice(kind, a, b, salt);
            check(vec![one]).unwrap();
            all.push(one);
        }
    }
    check(all).unwrap();
}

/// The log is stored in 64 KiB chunks: a long run of five-byte-operand
/// choices, mixed with short ones, crosses many chunk boundaries at
/// varying offsets.
#[test]
fn a_log_of_many_chunks_round_trips() {
    let choices: Vec<Choice> = (0..40_000u32)
        .map(|i| {
            let big = u32::MAX - i;
            choice((i % 12) as usize, big, i % 300, big)
        })
        .collect();
    check(choices.clone()).unwrap();
    let schedule = Schedule::new(choices.iter().copied());
    let mut rest = schedule.choices();
    for (i, want) in choices.iter().enumerate() {
        assert_eq!(rest.len(), choices.len() - i);
        assert_eq!(rest.next(), Some(*want));
    }
    assert_eq!(rest.next(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_choices_match_the_plain_vec(
        choices in prop::collection::vec(
            (0..Kind::TABLE.len(), operand(), operand(), operand())
                .prop_map(|(kind, a, b, salt)| choice(kind, a, b, salt)),
            0..48,
        ),
    ) {
        check(choices)?;
    }

    /// Mostly v1 with a v2 choice now and then: the header turns v2 at the
    /// first one.
    #[test]
    fn the_header_is_v2_exactly_when_a_v2_choice_occurs(
        kinds in prop::collection::vec(0..Kind::TABLE.len() + 40, 0..24),
        node in operand(),
    ) {
        let choices: Vec<Choice> = kinds
            .into_iter()
            .map(|k| choice(if k < Kind::TABLE.len() { k } else { k % 7 }, node, node, node))
            .collect();
        check(choices)?;
    }
}
