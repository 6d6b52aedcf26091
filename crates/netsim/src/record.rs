//! Schedule recording and byte-exact replay.
//!
//! Because a simulation run is a pure function of the initial network and
//! the sequence of [`Choice`]s the scheduler makes, capturing that sequence
//! captures the *whole execution*: a [`RecordingScheduler`] wraps any inner
//! scheduler and logs every choice into a [`Schedule`], and a
//! [`ReplayScheduler`] re-executes a `Schedule` choice-for-choice — same
//! metrics, same trace, same final state. This is what makes every failing
//! interleaving (a property-test case, an explorer find, a field report)
//! reproducible beyond its seed, and what the [`shrink`](crate::shrink)
//! module minimizes.
//!
//! # The schedule file format (versions 1 and 2)
//!
//! A schedule is a line-oriented UTF-8 text file:
//!
//! ```text
//! ard-schedule v1
//! meta topology ring:4
//! meta variant ad-hoc
//! # comment lines and blank lines are ignored
//! w 0
//! d 0 1
//! ```
//!
//! * the first non-blank line must be the header `ard-schedule v1` or
//!   `ard-schedule v2`;
//! * `meta <key> <value…>` lines carry free-form metadata (topology spec,
//!   variant, provenance) — keys contain no whitespace, the value is the
//!   rest of the line;
//! * `w <node>` wakes node `<node>`;
//! * `d <src> <dst>` delivers the oldest in-flight message on the link
//!   `src → dst` (per-link FIFO makes the token unambiguous);
//! * `x <src> <dst>` drops the oldest in-flight message on `src → dst`
//!   (an injected link fault);
//! * `u <src> <dst>` duplicates the oldest in-flight message on
//!   `src → dst` (a copy joins the queue tail);
//! * `c <node>` crashes node `<node>`; `r <node>` restarts it;
//! * `t <node>` fires a timer tick node `<node>` armed.
//!
//! Version 2 adds the Byzantine/churn directives:
//!
//! * `f <src> <dst> <salt>` forges a message from `src` to `dst` with the
//!   protocol-interpreted `salt` ([`Choice::Forge`]);
//! * `s <src> <dst>` is Byzantine silence: `src` withholds the oldest
//!   in-flight message toward `dst` ([`Choice::Silence`]);
//! * `z <node>` stale-restarts a crashed node with amnesiac state;
//! * `j <node>` joins node `<node>` to the running network;
//! * `l <node>` makes node `<node>` leave permanently.
//!
//! [`Schedule::to_text`] emits the `v1` header whenever every choice is
//! expressible in version 1 and the `v2` header only when a v2 directive
//! actually occurs, so pre-v2 recordings stay byte-identical. The parser
//! accepts all directives under either header (lenient v1 reads).
//!
//! The fault directives exist so that runs under
//! [`fault::FaultScheduler`](crate::fault::FaultScheduler) record *complete*
//! executions: replaying a fault schedule needs no fault machinery at all —
//! the recorded `x`/`u`/`c`/`r`/`t` choices drive the runner directly.
//!
//! # Example
//!
//! ```
//! use ard_netsim::record::{RecordingScheduler, ReplayScheduler, Schedule};
//! use ard_netsim::{FifoScheduler, NodeId, Scheduler};
//!
//! let mut rec = RecordingScheduler::new(FifoScheduler::new());
//! rec.note_wake(NodeId::new(0));
//! rec.note_wake(NodeId::new(1));
//! while rec.choose().is_some() {}
//! let schedule = rec.into_schedule();
//!
//! let text = schedule.to_text();
//! let parsed = Schedule::parse(&text).unwrap();
//! assert_eq!(parsed, schedule);
//!
//! let mut replay = ReplayScheduler::strict(&parsed);
//! replay.note_wake(NodeId::new(0));
//! replay.note_wake(NodeId::new(1));
//! assert_eq!(replay.choose(), Some(ard_netsim::Choice::Wake(NodeId::new(0))));
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt::{self, Write};

use crate::scheduler::{Choice, Kind, Scheduler, SendToken, Shape, Token};
use crate::NodeId;

/// The header line every version-1 schedule file starts with.
pub const SCHEDULE_HEADER: &str = "ard-schedule v1";

/// The header line of a version-2 schedule file (Byzantine/churn alphabet).
pub const SCHEDULE_HEADER_V2: &str = "ard-schedule v2";

/// A recorded sequence of scheduler choices plus free-form metadata.
///
/// The choice sequence is the execution; the metadata describes how to
/// rebuild the system it drives (topology spec, variant, provenance).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    meta: BTreeMap<String, String>,
    choices: Vec<Choice>,
}

impl Schedule {
    /// A schedule over the given choices, with no metadata.
    pub fn new(choices: Vec<Choice>) -> Self {
        Schedule {
            meta: BTreeMap::new(),
            choices,
        }
    }

    /// The recorded choices, in execution order.
    pub fn choices(&self) -> &[Choice] {
        &self.choices
    }

    /// Number of recorded choices.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether no choices were recorded.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Sets a metadata entry (replacing any previous value for `key`).
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty or contains whitespace, or if `value`
    /// contains a newline — either would corrupt the text format.
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        assert!(
            !key.is_empty() && !key.contains(char::is_whitespace),
            "meta key `{key}` must be non-empty and whitespace-free"
        );
        assert!(
            !value.contains('\n'),
            "meta value for `{key}` must be single-line"
        );
        self.meta.insert(key.to_string(), value);
    }

    /// Looks up a metadata entry.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta.get(key).map(String::as_str)
    }

    /// All metadata entries, in key order.
    pub fn meta_iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.meta.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Renders the schedule in the text format, choosing the lowest
    /// version that can express it: `v1` unless a Byzantine/churn choice
    /// occurs, so pre-v2 recordings stay byte-identical.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(16 + 8 * self.choices.len());
        if self.choices.iter().all(|c| c.kind().row().version == 1) {
            out.push_str(SCHEDULE_HEADER);
        } else {
            out.push_str(SCHEDULE_HEADER_V2);
        }
        out.push('\n');
        for (k, v) in &self.meta {
            out.push_str("meta ");
            out.push_str(k);
            out.push(' ');
            out.push_str(v);
            out.push('\n');
        }
        for choice in &self.choices {
            let row = choice.kind().row();
            let (a, b, salt) = choice.operands();
            let (letter, a, b) = (row.letter, a.index(), b.index());
            match row.shape {
                Shape::Node => writeln!(out, "{letter} {a}"),
                Shape::Link => writeln!(out, "{letter} {a} {b}"),
                Shape::LinkSalt => writeln!(out, "{letter} {a} {b} {salt}"),
            }
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// Parses the text format (version 1 or 2 — every directive is
    /// accepted under either header).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleParseError`] naming the offending line on a bad
    /// header, an unknown directive or a malformed operand.
    pub fn parse(text: &str) -> Result<Self, ScheduleParseError> {
        let fail = |line: usize, message: String| ScheduleParseError { line, message };
        let parse_node = |line: usize, s: &str, what: &str| -> Result<NodeId, ScheduleParseError> {
            s.parse::<usize>()
                .map(NodeId::new)
                .map_err(|_| fail(line, format!("{what}: `{s}` is not a node index")))
        };
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        match lines.next() {
            Some((_, header)) if header == SCHEDULE_HEADER || header == SCHEDULE_HEADER_V2 => {}
            Some((line, other)) => {
                return Err(fail(
                    line,
                    format!(
                        "expected header `{SCHEDULE_HEADER}` or `{SCHEDULE_HEADER_V2}`, \
                         got `{other}`"
                    ),
                ))
            }
            None => return Err(fail(0, "empty schedule file".to_string())),
        }
        let mut schedule = Schedule::default();
        for (line, l) in lines {
            let mut parts = l.split_whitespace();
            let directive = parts.next().expect("non-empty line");
            match directive {
                "meta" => {
                    let rest = l["meta".len()..].trim_start();
                    if rest.is_empty() {
                        return Err(fail(line, "meta needs a key".to_string()));
                    }
                    let (key, value) = match rest.split_once(char::is_whitespace) {
                        Some((k, v)) => (k, v.trim_start()),
                        None => (rest, ""),
                    };
                    schedule.meta.insert(key.to_string(), value.to_string());
                }
                d => {
                    let row = Kind::TABLE
                        .iter()
                        .find(|row| d.chars().eq([row.letter]))
                        .ok_or_else(|| {
                            let letters = Kind::TABLE.map(|row| row.letter.to_string());
                            let (last, rest) = letters.split_last().expect("kinds exist");
                            let known = format!("meta, {} or {last}", rest.join(", "));
                            fail(line, format!("unknown directive `{d}` (expected {known})"))
                        })?;
                    let (names, needs, takes): (&[&str], _, _) = match row.shape {
                        Shape::Node => (&["node"], "a node", "one operand"),
                        Shape::Link => (&["src", "dst"], "src and dst", "two operands"),
                        Shape::LinkSalt => (
                            &["src", "dst", "salt"],
                            "src, dst and salt",
                            "three operands",
                        ),
                    };
                    let operands: [Option<&str>; 4] = std::array::from_fn(|_| parts.next());
                    if operands[names.len() - 1].is_none() {
                        return Err(fail(line, format!("{d} needs {needs}")));
                    }
                    if operands[names.len()].is_some() {
                        return Err(fail(line, format!("{d} takes exactly {takes}")));
                    }
                    let a = parse_node(line, operands[0].expect("checked"), names[0])?;
                    let b = match operands[1] {
                        Some(s) => parse_node(line, s, names[1])?,
                        None => a,
                    };
                    let salt = match operands[2] {
                        Some(s) => s
                            .parse::<u32>()
                            .map_err(|_| fail(line, format!("salt: `{s}` is not a u32")))?,
                        None => 0,
                    };
                    schedule
                        .choices
                        .push(Choice::from_parts(row.kind, a, b, salt));
                }
            }
        }
        Ok(schedule)
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// A parse failure in a schedule file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleParseError {
    /// 1-based line number of the offending line (0 for an empty file).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule line {}: {}", self.line, self.message)
    }
}

impl Error for ScheduleParseError {}

/// Wraps any scheduler and records the exact choice sequence it makes.
///
/// The wrapper is transparent: the inner scheduler sees every token and
/// makes every decision; `RecordingScheduler` only logs what it returns.
#[derive(Clone, Debug)]
pub struct RecordingScheduler<S> {
    inner: S,
    recorded: Vec<Choice>,
    terminal_digest: Option<u64>,
}

impl<S> RecordingScheduler<S> {
    /// Wraps `inner`, recording from the first `choose` on.
    pub fn new(inner: S) -> Self {
        RecordingScheduler {
            inner,
            recorded: Vec::new(),
            terminal_digest: None,
        }
    }

    /// The choices recorded so far, in execution order.
    pub fn recorded(&self) -> &[Choice] {
        &self.recorded
    }

    /// The canonical terminal-state digest of the recorded run, if it ran
    /// to quiescence under a [`Runner`](crate::Runner) (reported via
    /// [`Scheduler::note_terminal_digest`]).
    pub fn terminal_digest(&self) -> Option<u64> {
        self.terminal_digest
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped scheduler (the explorer retargets a
    /// checkpointed scheduler stack through this before resuming it).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Consumes the wrapper, returning the recorded [`Schedule`].
    pub fn into_schedule(self) -> Schedule {
        Schedule::new(self.recorded)
    }

    /// Consumes the wrapper, returning the inner scheduler and the
    /// recorded [`Schedule`].
    pub fn into_parts(self) -> (S, Schedule) {
        (self.inner, Schedule::new(self.recorded))
    }
}

impl<S: Scheduler> Scheduler for RecordingScheduler<S> {
    fn note_wake(&mut self, node: NodeId) {
        self.inner.note_wake(node);
    }
    fn note_send(&mut self, token: SendToken) {
        self.inner.note_send(token);
    }
    fn note_tick(&mut self, node: NodeId) {
        self.inner.note_tick(node);
    }
    fn choose(&mut self) -> Option<Choice> {
        let choice = self.inner.choose();
        if let Some(c) = choice {
            self.recorded.push(c);
        }
        choice
    }
    fn pending(&self) -> usize {
        self.inner.pending()
    }
    fn wants_footprints(&self) -> bool {
        self.inner.wants_footprints()
    }
    fn note_footprint(&mut self, choice: Choice, footprint: &crate::Footprint) {
        self.inner.note_footprint(choice, footprint);
    }
    fn wants_state_digest(&self) -> bool {
        self.inner.wants_state_digest()
    }
    fn note_state_digest(&mut self, digest: u64) {
        self.inner.note_state_digest(digest);
    }
    fn wants_terminal_digest(&self) -> bool {
        // The recorder itself wants one (it rides into schedule meta and
        // the digest-determinism tests), on top of whatever the inner
        // scheduler asks for.
        true
    }
    fn note_terminal_digest(&mut self, digest: u64) {
        self.terminal_digest = Some(digest);
        self.inner.note_terminal_digest(digest);
    }
}

/// Re-executes a recorded choice sequence.
///
/// Two modes:
///
/// * **strict** ([`ReplayScheduler::strict`]) — every recorded choice must
///   be enabled (its token pending) when its turn comes; a mismatch is a
///   *divergence* (the system under replay differs from the one recorded)
///   and panics with a loud diagnostic. When the sequence is exhausted the
///   scheduler reports quiescence; [`leftover`](ReplayScheduler::leftover)
///   tells whether the run was truncated.
/// * **lenient** ([`ReplayScheduler::lenient`]) — recorded choices that are
///   not enabled are silently skipped (counted in
///   [`skipped`](ReplayScheduler::skipped)). This is what schedule
///   *shrinking* needs: a candidate subsequence executes its enabled
///   choices and ends, and the actually-executed sequence (re-recorded via
///   [`RecordingScheduler`]) is strict-replayable again.
#[derive(Debug)]
pub struct ReplayScheduler {
    choices: Vec<Choice>,
    cursor: usize,
    /// All live tokens in arrival order (a multiset: one entry per token).
    pending: VecDeque<Choice>,
    strict: bool,
    skipped: u64,
}

impl ReplayScheduler {
    /// A strict replayer for `schedule` (panics on divergence).
    pub fn strict(schedule: &Schedule) -> Self {
        Self::from_choices(schedule.choices().to_vec(), true)
    }

    /// A lenient replayer over an explicit choice sequence (skips
    /// disabled choices).
    pub fn lenient(choices: &[Choice]) -> Self {
        Self::from_choices(choices.to_vec(), false)
    }

    fn from_choices(choices: Vec<Choice>, strict: bool) -> Self {
        ReplayScheduler {
            choices,
            cursor: 0,
            pending: VecDeque::new(),
            strict,
            skipped: 0,
        }
    }

    /// Index of the next choice to replay (= number executed or skipped).
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Tokens still pending (nonzero after exhaustion means the recorded
    /// schedule was a truncation of the full run).
    pub fn leftover(&self) -> usize {
        self.pending.len()
    }

    /// Recorded choices skipped because they were not enabled (always 0 in
    /// strict mode).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Whether `choice` is enabled against the current token multiset, and
    /// if so which pending entry it consumes (`None` for token-free
    /// choices like crash/restart).
    ///
    /// Fault choices map onto *delivery* tokens: a recorded drop or
    /// duplicate of `src → dst` is enabled exactly when a message is in
    /// flight on that link. A drop consumes the token (the message is
    /// gone); a duplicate leaves it (the runner re-announces the copy via
    /// `note_send`, growing the multiset by one).
    fn enabledness(&self, choice: Choice) -> Result<Option<usize>, ()> {
        let find = |want: Choice| self.pending.iter().position(|&p| p == want).ok_or(());
        let (src, dst, _) = choice.operands();
        match choice.kind().row().token {
            Token::Own => find(choice).map(Some),
            Token::Takes => find(Choice::Deliver { src, dst }).map(Some),
            Token::Needs => find(Choice::Deliver { src, dst }).map(|_| None),
            Token::Free => Ok(None),
        }
    }
}

impl Scheduler for ReplayScheduler {
    fn note_wake(&mut self, node: NodeId) {
        self.pending.push_back(Choice::Wake(node));
    }
    fn note_send(&mut self, token: SendToken) {
        self.pending.push_back(Choice::Deliver {
            src: token.src,
            dst: token.dst,
        });
    }
    fn note_tick(&mut self, node: NodeId) {
        self.pending.push_back(Choice::Tick(node));
    }
    fn choose(&mut self) -> Option<Choice> {
        while self.cursor < self.choices.len() {
            let choice = self.choices[self.cursor];
            match self.enabledness(choice) {
                Ok(consumes) => {
                    self.cursor += 1;
                    if let Some(i) = consumes {
                        self.pending.remove(i);
                    }
                    return Some(choice);
                }
                Err(()) if self.strict => panic!(
                    "replay divergence at event {}: recorded choice {choice:?} is not \
                     pending ({} live tokens: {:?})",
                    self.cursor,
                    self.pending.len(),
                    self.pending.iter().take(8).collect::<Vec<_>>(),
                ),
                Err(()) => {
                    self.cursor += 1;
                    self.skipped += 1;
                }
            }
        }
        None
    }
    fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FifoScheduler;

    fn token(src: usize, dst: usize, seq: u64) -> SendToken {
        SendToken {
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            seq,
            kind: "t",
        }
    }

    #[test]
    fn text_round_trip_preserves_everything() {
        let mut s = Schedule::new(vec![
            Choice::Wake(NodeId::new(3)),
            Choice::Deliver {
                src: NodeId::new(3),
                dst: NodeId::new(0),
            },
        ]);
        s.set_meta("topology", "path:4");
        s.set_meta("variant", "ad-hoc");
        let text = s.to_text();
        assert!(text.starts_with(SCHEDULE_HEADER));
        assert_eq!(Schedule::parse(&text).unwrap(), s);
    }

    #[test]
    fn parse_tolerates_comments_and_blank_lines() {
        let s = Schedule::parse(
            "\n# a failing interleaving\nard-schedule v1\n\nmeta reason why it failed\n# hmm\nw 1\nd 1 2\n",
        )
        .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.meta("reason"), Some("why it failed"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for (text, needle) in [
            ("", "empty"),
            ("ard-schedule v3\nw 0\n", "expected header"),
            ("ard-schedule v1\nq 0\n", "unknown directive"),
            ("ard-schedule v1\nw\n", "needs a node"),
            ("ard-schedule v1\nw zero\n", "not a node index"),
            ("ard-schedule v1\nd 0\n", "needs src and dst"),
            ("ard-schedule v1\nd 0 1 2\n", "exactly two"),
            ("ard-schedule v1\nw 0 0\n", "exactly one"),
            ("ard-schedule v1\nx 0\n", "needs src and dst"),
            ("ard-schedule v1\nu 0 1 2\n", "exactly two"),
            ("ard-schedule v1\nc\n", "needs a node"),
            ("ard-schedule v1\nt 0 0\n", "exactly one"),
            ("ard-schedule v2\nf 0 1\n", "needs src, dst and salt"),
            ("ard-schedule v2\nf 0 1 2 3\n", "exactly three"),
            ("ard-schedule v2\nf 0 1 salty\n", "not a u32"),
            ("ard-schedule v2\ns 0\n", "needs src and dst"),
            ("ard-schedule v2\nz 0 0\n", "exactly one"),
            ("ard-schedule v2\nj\n", "needs a node"),
            ("ard-schedule v2\nl 1 2\n", "exactly one"),
        ] {
            let err = Schedule::parse(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn v2_choices_round_trip_under_the_v2_header() {
        let mut s = Schedule::new(vec![
            Choice::Wake(NodeId::new(0)),
            Choice::Forge {
                src: NodeId::new(1),
                dst: NodeId::new(2),
                salt: 0x0100,
            },
            Choice::Silence {
                src: NodeId::new(1),
                dst: NodeId::new(0),
            },
            Choice::Crash(NodeId::new(3)),
            Choice::StaleRestart(NodeId::new(3)),
            Choice::Join(NodeId::new(4)),
            Choice::Leave(NodeId::new(5)),
        ]);
        s.set_meta("byzantine", "f=1,seed=7");
        let text = s.to_text();
        assert!(text.starts_with(SCHEDULE_HEADER_V2), "{text}");
        assert_eq!(Schedule::parse(&text).unwrap(), s);
    }

    #[test]
    fn v1_expressible_schedules_keep_the_v1_header() {
        let s = Schedule::new(vec![
            Choice::Wake(NodeId::new(0)),
            Choice::Drop {
                src: NodeId::new(0),
                dst: NodeId::new(1),
            },
            Choice::Crash(NodeId::new(1)),
            Choice::Restart(NodeId::new(1)),
        ]);
        assert!(s.to_text().starts_with(SCHEDULE_HEADER));
        assert!(!s.to_text().contains(SCHEDULE_HEADER_V2));
    }

    #[test]
    fn v2_directives_parse_under_the_v1_header() {
        // Lenient v1 reads: a hand-edited v1 file may gain v2 directives
        // without touching its header.
        let s = Schedule::parse("ard-schedule v1\nj 2\nf 2 0 7\nl 2\n").unwrap();
        assert_eq!(
            s.choices(),
            &[
                Choice::Join(NodeId::new(2)),
                Choice::Forge {
                    src: NodeId::new(2),
                    dst: NodeId::new(0),
                    salt: 7,
                },
                Choice::Leave(NodeId::new(2)),
            ]
        );
    }

    #[test]
    fn silence_consumes_a_pending_delivery_like_drop() {
        let schedule = Schedule::new(vec![Choice::Silence {
            src: NodeId::new(0),
            dst: NodeId::new(1),
        }]);
        let mut r = ReplayScheduler::strict(&schedule);
        r.note_send(token(0, 1, 0));
        assert_eq!(
            r.choose(),
            Some(Choice::Silence {
                src: NodeId::new(0),
                dst: NodeId::new(1)
            })
        );
        assert_eq!(r.pending(), 0);
        assert_eq!(r.choose(), None);
    }

    #[test]
    fn recorder_captures_the_inner_choice_sequence() {
        let mut rec = RecordingScheduler::new(FifoScheduler::new());
        rec.note_wake(NodeId::new(0));
        rec.note_send(token(0, 1, 0));
        let mut seen = Vec::new();
        while let Some(c) = rec.choose() {
            seen.push(c);
        }
        assert_eq!(rec.recorded(), seen.as_slice());
        assert_eq!(rec.into_schedule().choices(), seen.as_slice());
    }

    #[test]
    fn strict_replay_follows_the_recorded_order() {
        let schedule = Schedule::new(vec![
            Choice::Wake(NodeId::new(1)),
            Choice::Wake(NodeId::new(0)),
        ]);
        let mut r = ReplayScheduler::strict(&schedule);
        r.note_wake(NodeId::new(0));
        r.note_wake(NodeId::new(1));
        assert_eq!(r.choose(), Some(Choice::Wake(NodeId::new(1))));
        assert_eq!(r.choose(), Some(Choice::Wake(NodeId::new(0))));
        assert_eq!(r.choose(), None);
        assert_eq!(r.leftover(), 0);
    }

    #[test]
    #[should_panic(expected = "replay divergence at event 0")]
    fn strict_replay_panics_on_divergence() {
        let schedule = Schedule::new(vec![Choice::Wake(NodeId::new(7))]);
        let mut r = ReplayScheduler::strict(&schedule);
        r.note_wake(NodeId::new(0));
        let _ = r.choose();
    }

    #[test]
    fn strict_replay_reports_truncation_via_leftover() {
        let schedule = Schedule::new(vec![Choice::Wake(NodeId::new(0))]);
        let mut r = ReplayScheduler::strict(&schedule);
        r.note_wake(NodeId::new(0));
        r.note_wake(NodeId::new(1));
        assert_eq!(r.choose(), Some(Choice::Wake(NodeId::new(0))));
        assert_eq!(r.choose(), None);
        assert_eq!(r.leftover(), 1);
    }

    #[test]
    fn lenient_replay_skips_disabled_choices() {
        let choices = [
            Choice::Wake(NodeId::new(9)), // never pending → skipped
            Choice::Wake(NodeId::new(0)),
            Choice::Deliver {
                src: NodeId::new(0),
                dst: NodeId::new(1),
            }, // not pending either → skipped
            Choice::Wake(NodeId::new(1)),
        ];
        let mut r = ReplayScheduler::lenient(&choices);
        r.note_wake(NodeId::new(0));
        r.note_wake(NodeId::new(1));
        assert_eq!(r.choose(), Some(Choice::Wake(NodeId::new(0))));
        assert_eq!(r.choose(), Some(Choice::Wake(NodeId::new(1))));
        assert_eq!(r.choose(), None);
        assert_eq!(r.skipped(), 2);
        assert_eq!(r.position(), 4);
    }

    #[test]
    fn replay_consumes_per_link_tokens_as_a_multiset() {
        let schedule = Schedule::new(vec![
            Choice::Deliver {
                src: NodeId::new(0),
                dst: NodeId::new(1),
            },
            Choice::Deliver {
                src: NodeId::new(0),
                dst: NodeId::new(1),
            },
        ]);
        let mut r = ReplayScheduler::strict(&schedule);
        r.note_send(token(0, 1, 0));
        r.note_send(token(0, 1, 1));
        assert!(r.choose().is_some());
        assert_eq!(r.pending(), 1);
        assert!(r.choose().is_some());
        assert_eq!(r.choose(), None);
    }

    #[test]
    #[should_panic(expected = "whitespace-free")]
    fn meta_keys_with_whitespace_are_rejected() {
        Schedule::default().set_meta("bad key", "v");
    }
}
