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
//! # In memory
//!
//! [`Schedule`], [`RecordingScheduler`] and the fifo round loop's
//! [`run_rounds_recorded`](crate::Runner::run_rounds_recorded) keep the
//! choices in one packed byte log, not a `Vec<Choice>` (16 B a choice).
//! Each choice is one byte holding its kind's row index in
//! [`Kind::TABLE`], then its operands as unsigned LEB128 varints (seven
//! bits a byte, low bits first, the high bit set on every byte but the
//! last) in the order of the row's [`Shape`]: the node; `src`, `dst`; or
//! `src`, `dst`, `salt`. At n = 16,384 a `d src dst` takes 5 bytes and a
//! `t node` 3. The log is stored in 64 KiB chunks, and a choice that does
//! not fit in the last chunk starts the next one. Encoding and chunking
//! are canonical, so two logs hold the same choices exactly when their
//! bytes are equal. [`Schedule::choices`] and
//! [`RecordingScheduler::recorded`] decode the log on the fly
//! ([`Choices`]), [`Schedule::write_text`] decodes as it writes, and a
//! [`ReplayScheduler`] walks it with a cursor.
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

use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io;

use crate::scheduler::{Choice, Kind, Scheduler, SendToken, Shape, Token};
use crate::NodeId;

/// The header line every version-1 schedule file starts with.
pub const SCHEDULE_HEADER: &str = "ard-schedule v1";

/// The header line of a version-2 schedule file (Byzantine/churn alphabet).
pub const SCHEDULE_HEADER_V2: &str = "ard-schedule v2";

/// A choice sequence, packed as the module doc's "In memory" section
/// states: a kind byte, then the operands as LEB128 varints.
#[derive(Clone, Default, PartialEq, Eq)]
struct ChoiceLog {
    /// The encoded choices in chunks of [`CHUNK`] bytes of capacity; a
    /// choice never straddles two.
    chunks: Vec<Vec<u8>>,
    len: usize,
    /// Whether a choice needs the version-2 text format.
    v2: bool,
}

impl ChoiceLog {
    fn push(&mut self, choice: Choice) {
        // A kind byte and at most three five-byte varints.
        let mut buf = [0u8; 16];
        let (kind, a, b, salt) = choice.parts();
        buf[0] = kind as u8;
        let mut end = 1;
        let mut put = |mut value: u32| {
            while value >= 0x80 {
                buf[end] = value as u8 | 0x80;
                value >>= 7;
                end += 1;
            }
            buf[end] = value as u8;
            end += 1;
        };
        // `NodeId` holds a `u32`, so its index converts back losslessly.
        put(a.index() as u32);
        match kind.row().shape {
            Shape::Node => {}
            Shape::Link => put(b.index() as u32),
            Shape::LinkSalt => {
                put(b.index() as u32);
                put(salt);
            }
        }
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() + end <= CHUNK => chunk.extend_from_slice(&buf[..end]),
            _ => {
                // The first chunk grows as it fills, so a short run's log
                // stays small; the rest are allocated whole.
                let mut chunk = if self.chunks.is_empty() {
                    Vec::new()
                } else {
                    Vec::with_capacity(CHUNK)
                };
                chunk.extend_from_slice(&buf[..end]);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
        self.v2 |= kind.row().version > 1;
    }

    fn iter(&self) -> Choices<'_> {
        Choices {
            chunks: &self.chunks,
            bytes: &[],
            len: self.len,
        }
    }
}

impl fmt::Debug for ChoiceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.iter().fmt(f)
    }
}

/// Bytes per chunk of a [`ChoiceLog`]. Past its first chunk a log grows
/// without copying and holds at most one chunk of spare capacity, where a
/// doubling buffer holds up to half its size spare. Blocks this small also
/// come from the allocator's heap like the run's other small blocks: one
/// large buffer freed at the end of each run made glibc move its mmap and
/// trim thresholds, and the next run's set-up paid for it in page faults
/// (EXPERIMENTS.md § Scale, "The recording packed").
const CHUNK: usize = 64 * 1024;

/// Writes `value` in decimal at the front of `buf`; returns its length.
fn decimal(buf: &mut [u8], mut value: u32) -> usize {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    let len = digits.len() - start;
    buf[..len].copy_from_slice(&digits[start..]);
    len
}

/// Decodes the choice at the front of `bytes` and advances past it.
fn decode(bytes: &mut &[u8]) -> Choice {
    fn varint(bytes: &mut &[u8]) -> u32 {
        let mut value = 0;
        for (i, &byte) in bytes.iter().enumerate() {
            value |= u32::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                *bytes = &bytes[i + 1..];
                return value;
            }
        }
        unreachable!("a varint ends in a byte below 0x80")
    }
    let node = |bytes: &mut &[u8]| NodeId::new(varint(bytes) as usize);
    let (&tag, rest) = bytes.split_first().expect("a whole choice");
    *bytes = rest;
    let row = &Kind::TABLE[usize::from(tag)];
    let a = node(bytes);
    let (b, salt) = match row.shape {
        Shape::Node => (a, 0),
        Shape::Link => (node(bytes), 0),
        Shape::LinkSalt => (node(bytes), varint(bytes)),
    };
    Choice::from_parts(row.kind, a, b, salt)
}

/// The choices of a [`Schedule`] or a [`RecordingScheduler`], decoded in
/// execution order from the packed log.
///
/// Two iterators are equal when they would yield the same choices.
#[derive(Clone)]
pub struct Choices<'a> {
    /// The chunks after `bytes`.
    chunks: &'a [Vec<u8>],
    /// What is left of the current chunk.
    bytes: &'a [u8],
    len: usize,
}

impl Iterator for Choices<'_> {
    type Item = Choice;

    fn next(&mut self) -> Option<Choice> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if self.bytes.is_empty() {
            (self.bytes, self.chunks) = self
                .chunks
                .split_first()
                .map(|(c, r)| (&c[..], r))
                .expect("`len` counts choices left in the chunks");
        }
        Some(decode(&mut self.bytes))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl ExactSizeIterator for Choices<'_> {}

impl PartialEq for Choices<'_> {
    fn eq(&self, other: &Self) -> bool {
        // Where the chunks break depends on the choices before, so
        // compare the choices themselves.
        self.len == other.len && self.clone().eq(other.clone())
    }
}

impl Eq for Choices<'_> {}

impl fmt::Debug for Choices<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// A recorded sequence of scheduler choices plus free-form metadata.
///
/// The choice sequence is the execution; the metadata describes how to
/// rebuild the system it drives (topology spec, variant, provenance).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    meta: BTreeMap<String, String>,
    choices: ChoiceLog,
}

impl Schedule {
    /// A schedule over the given choices, with no metadata.
    pub fn new(choices: impl IntoIterator<Item = Choice>) -> Self {
        let mut schedule = Schedule::default();
        for choice in choices {
            schedule.push(choice);
        }
        schedule
    }

    /// Appends a choice (the fifo round loop records through this).
    pub(crate) fn push(&mut self, choice: Choice) {
        self.choices.push(choice);
    }

    /// The recorded choices, in execution order.
    pub fn choices(&self) -> Choices<'_> {
        self.choices.iter()
    }

    /// Number of recorded choices.
    pub fn len(&self) -> usize {
        self.choices.len
    }

    /// Whether no choices were recorded.
    pub fn is_empty(&self) -> bool {
        self.choices.len == 0
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

    /// Writes the schedule in the text format, choosing the lowest
    /// version that can express it: `v1` unless a Byzantine/churn choice
    /// occurs, so pre-v2 recordings stay byte-identical.
    ///
    /// # Errors
    ///
    /// Passes on the first error `out` returns.
    pub fn write_text(&self, out: &mut impl io::Write) -> io::Result<()> {
        if self.choices.v2 {
            writeln!(out, "{SCHEDULE_HEADER_V2}")?;
        } else {
            writeln!(out, "{SCHEDULE_HEADER}")?;
        }
        for (k, v) in &self.meta {
            writeln!(out, "meta {k} {v}")?;
        }
        // Each directive line is put together in a buffer and written in
        // one call: the letter, then every operand after a space.
        let mut line = [0u8; 36];
        for choice in self.choices() {
            let row = choice.kind().row();
            let (a, b, salt) = choice.operands();
            let (a, b) = (a.index() as u32, b.index() as u32);
            let operands: &[u32] = match row.shape {
                Shape::Node => &[a],
                Shape::Link => &[a, b],
                Shape::LinkSalt => &[a, b, salt],
            };
            line[0] = u8::try_from(row.letter).expect("directive letters are ASCII");
            let mut end = 1;
            for &operand in operands {
                line[end] = b' ';
                end += 1 + decimal(&mut line[end + 1..], operand);
            }
            line[end] = b'\n';
            out.write_all(&line[..=end])?;
        }
        Ok(())
    }

    /// [`write_text`](Schedule::write_text) into a `String`.
    pub fn to_text(&self) -> String {
        let mut out = Vec::with_capacity(16 + 8 * self.len());
        self.write_text(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the text format is UTF-8")
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
                    schedule.push(Choice::from_parts(row.kind, a, b, salt));
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
    recorded: Schedule,
    terminal_digest: Option<u64>,
}

impl<S> RecordingScheduler<S> {
    /// Wraps `inner`, recording from the first `choose` on.
    pub fn new(inner: S) -> Self {
        RecordingScheduler {
            inner,
            recorded: Schedule::default(),
            terminal_digest: None,
        }
    }

    /// The choices recorded so far, in execution order.
    pub fn recorded(&self) -> Choices<'_> {
        self.recorded.choices()
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
        self.recorded
    }

    /// Consumes the wrapper, returning the inner scheduler and the
    /// recorded [`Schedule`].
    pub fn into_parts(self) -> (S, Schedule) {
        (self.inner, self.recorded)
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
///
/// Each choice costs O(1): the next one is decoded from the packed log and
/// looked up in a count per pending token.
#[derive(Debug)]
pub struct ReplayScheduler {
    choices: ChoiceLog,
    /// Chunk and byte offset of the next choice in `choices`.
    at: (usize, usize),
    cursor: usize,
    /// The live tokens as a multiset: how many of each are pending (no
    /// entry for none).
    pending: HashMap<Choice, u32>,
    /// The sum of `pending`'s counts.
    live: usize,
    strict: bool,
    skipped: u64,
}

impl ReplayScheduler {
    /// A strict replayer for `schedule` (panics on divergence).
    pub fn strict(schedule: &Schedule) -> Self {
        Self::from_log(schedule.choices.clone(), true)
    }

    /// A lenient replayer over an explicit choice sequence (skips
    /// disabled choices).
    pub fn lenient(choices: &[Choice]) -> Self {
        Self::from_log(Schedule::new(choices.iter().copied()).choices, false)
    }

    fn from_log(choices: ChoiceLog, strict: bool) -> Self {
        ReplayScheduler {
            choices,
            at: (0, 0),
            cursor: 0,
            pending: HashMap::new(),
            live: 0,
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
        self.live
    }

    /// Recorded choices skipped because they were not enabled (always 0 in
    /// strict mode).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    fn announce(&mut self, token: Choice) {
        *self.pending.entry(token).or_insert(0) += 1;
        self.live += 1;
    }

    /// Whether `choice` is enabled against the current token multiset, and
    /// if so which pending token it consumes (`None` for token-free
    /// choices like crash/restart).
    ///
    /// Fault choices map onto *delivery* tokens: a recorded drop or
    /// duplicate of `src → dst` is enabled exactly when a message is in
    /// flight on that link. A drop consumes the token (the message is
    /// gone); a duplicate leaves it (the runner re-announces the copy via
    /// `note_send`, growing the multiset by one).
    fn enabledness(&self, choice: Choice) -> Result<Option<Choice>, ()> {
        let (src, dst, _) = choice.operands();
        let link = Choice::Deliver { src, dst };
        let live = |token| self.pending.contains_key(&token).then_some(token).ok_or(());
        match choice.kind().row().token {
            Token::Own => live(choice).map(Some),
            Token::Takes => live(link).map(Some),
            Token::Needs => live(link).map(|_| None),
            Token::Free => Ok(None),
        }
    }
}

impl Scheduler for ReplayScheduler {
    fn note_wake(&mut self, node: NodeId) {
        self.announce(Choice::Wake(node));
    }
    fn note_send(&mut self, token: SendToken) {
        self.announce(Choice::Deliver {
            src: token.src,
            dst: token.dst,
        });
    }
    fn note_tick(&mut self, node: NodeId) {
        self.announce(Choice::Tick(node));
    }
    fn choose(&mut self) -> Option<Choice> {
        while self.cursor < self.choices.len {
            let chunk = &self.choices.chunks[self.at.0];
            let mut rest = &chunk[self.at.1..];
            let choice = decode(&mut rest);
            let next = if rest.is_empty() {
                (self.at.0 + 1, 0)
            } else {
                (self.at.0, chunk.len() - rest.len())
            };
            match self.enabledness(choice) {
                Ok(consumes) => {
                    self.at = next;
                    self.cursor += 1;
                    if let Some(token) = consumes {
                        let Entry::Occupied(mut count) = self.pending.entry(token) else {
                            unreachable!("an enabled choice's token is pending")
                        };
                        *count.get_mut() -= 1;
                        if *count.get() == 0 {
                            count.remove();
                        }
                        self.live -= 1;
                    }
                    return Some(choice);
                }
                Err(()) if self.strict => {
                    let mut live: Vec<Choice> = self.pending.keys().copied().collect();
                    live.sort_by_key(Choice::sort_key);
                    live.truncate(8);
                    panic!(
                        "replay divergence at event {}: recorded choice {choice:?} is not \
                         pending ({} live tokens: {live:?})",
                        self.cursor, self.live,
                    )
                }
                Err(()) => {
                    self.at = next;
                    self.cursor += 1;
                    self.skipped += 1;
                }
            }
        }
        None
    }
    fn pending(&self) -> usize {
        self.live
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
            s.choices().collect::<Vec<_>>(),
            [
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
        assert_eq!(rec.recorded().collect::<Vec<_>>(), seen);
        assert_eq!(rec.into_schedule().choices().collect::<Vec<_>>(), seen);
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
    fn packed_sizes_follow_the_varint_boundaries() {
        let size = |choice: Choice| {
            let mut log = ChoiceLog::default();
            log.push(choice);
            assert_eq!(decode(&mut log.chunks[0].as_slice()), choice);
            log.chunks[0].len()
        };
        let n = NodeId::new;
        assert_eq!(size(Choice::Tick(n(127))), 2);
        assert_eq!(size(Choice::Tick(n(16_383))), 3);
        assert_eq!(size(Choice::Wake(n(16_384))), 4);
        let (src, dst) = (n(16_383), n(128));
        assert_eq!(size(Choice::Deliver { src, dst }), 5);
        let (src, dst, salt) = (n(u32::MAX as usize), n(1 << 21), u32::MAX);
        assert_eq!(size(Choice::Forge { src, dst, salt }), 1 + 5 + 4 + 5);
    }

    #[test]
    fn divergence_lists_at_most_eight_pending_tokens() {
        let schedule = Schedule::new(vec![Choice::Wake(NodeId::new(99))]);
        let mut r = ReplayScheduler::strict(&schedule);
        for i in (0..10).rev() {
            r.note_wake(NodeId::new(i));
        }
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.choose()))
            .expect_err("n99 was never announced");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        let first: Vec<_> = (0..8).map(|i| Choice::Wake(NodeId::new(i))).collect();
        assert!(
            message.starts_with("replay divergence at event 0")
                && message.ends_with(&format!("(10 live tokens: {first:?})")),
            "{message}"
        );
    }

    #[test]
    #[should_panic(expected = "whitespace-free")]
    fn meta_keys_with_whitespace_are_rejected() {
        Schedule::default().set_meta("bad key", "v");
    }
}
