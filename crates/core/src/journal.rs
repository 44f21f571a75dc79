//! One replayable JSONL format for the run's journals: the balancer
//! decision log ([`crate::audit::DecisionLog`]), the supervisor's
//! transition log ([`crate::supervise::SupervisorLog`]) and the flow-op
//! journal ([`crate::flow::FlowOpsLog`]).
//!
//! A [`Journal<R>`] is an append-only record stream plus header metadata.
//! On the wire it is JSON lines: one header line with the shared keys
//! `type` (the record kind), `version`, `count` (records that follow) and
//! `dropped` (records lost to the capacity bound), next to the kind's own
//! metadata keys; then one record per line. The capacity keeps the
//! *first* records and counts the rest in `dropped`, because replay needs
//! a contiguous prefix. The reader rejects a wrong `type` or `version` and
//! a record count that disagrees with the header, so a truncated journal
//! is an error rather than a shorter log.
//!
//! Records are plain structs until export: pushing one never builds JSON.

use std::fmt::{self, Write as _};

use crate::json::{self, Json, Value};

/// Journal wire-format version (the header's `version`).
pub const VERSION: u64 = 1;

/// One kind of journal record: its codec (via [`Json`]), wire name,
/// header metadata, bit-exact equality and explanation.
pub trait Record: Json {
    /// The header `type` naming this kind.
    const KIND: &'static str;
    /// Header metadata beyond the shared keys (`()` for none).
    type Meta: Json + Clone + fmt::Debug + Default;
    /// Bit-exact equality: floats compare by bit pattern.
    fn bit_eq(&self, other: &Self) -> bool;
    /// One human-readable line.
    fn explain(&self) -> String;
    /// Extra text for [`Journal::explain`]'s summary line.
    fn explain_meta(_meta: &Self::Meta) -> String {
        String::new()
    }
}

/// A bounded, append-only, replayable record stream.
#[derive(Debug, Clone)]
pub struct Journal<R: Record> {
    /// Kind-specific header metadata.
    pub meta: R::Meta,
    /// Records kept at most; later pushes only count in `dropped`. A
    /// decoded journal is unbounded.
    pub capacity: usize,
    /// The kept records, oldest first.
    pub events: Vec<R>,
    /// Records dropped after `capacity` was reached.
    pub dropped: u64,
}

impl<R: Record> Default for Journal<R> {
    /// An empty, unbounded journal.
    fn default() -> Self {
        Journal::new(R::Meta::default(), usize::MAX)
    }
}

impl<R: Record> Journal<R> {
    /// An empty journal keeping the first `capacity` records.
    pub fn new(meta: R::Meta, capacity: usize) -> Self {
        Journal {
            meta,
            capacity,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// The sequence number of the next pushed record (kept or dropped).
    pub fn next_seq(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }

    /// Appends a record, or counts it as dropped past capacity.
    pub fn push(&mut self, rec: R) {
        if self.events.len() < self.capacity {
            self.events.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Bit-exact equality of the record streams (headers ignored).
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.events.len() == other.events.len()
            && self
                .events
                .iter()
                .zip(&other.events)
                .all(|(a, b)| a.bit_eq(b))
    }

    /// Serializes as JSON lines: the header, then one record per line.
    pub fn to_jsonl(&self) -> String {
        let mut header = self.meta.encode();
        if let Value::Obj(m) = &mut header {
            m.extend([
                ("type".to_owned(), Value::Str(R::KIND.to_owned())),
                ("version".to_owned(), VERSION.encode()),
                ("count".to_owned(), self.events.len().encode()),
                ("dropped".to_owned(), self.dropped.encode()),
            ]);
        }
        let mut out = format!("{header}\n");
        for e in &self.events {
            let _ = writeln!(out, "{}", e.encode());
        }
        out
    }

    /// Parses [`Journal::to_jsonl`] output.
    pub fn from_jsonl(s: &str) -> Result<Self, String> {
        let mut lines = s.lines().filter(|l| !l.trim().is_empty());
        let h = json::parse(lines.next().ok_or("empty journal")?)
            .map_err(|e| format!("header: {e}"))?;
        let kind: String = json::field(&h, "type")?;
        if kind != R::KIND {
            return Err(format!("journal type '{kind}', expected '{}'", R::KIND));
        }
        let version: u64 = json::field(&h, "version")?;
        if version != VERSION {
            return Err(format!("journal version {version}, expected {VERSION}"));
        }
        let count: u64 = json::field(&h, "count")?;
        let events = lines
            .enumerate()
            .map(|(i, line)| {
                json::parse(line)
                    .map_err(|e| e.to_string())
                    .and_then(|v| R::decode(&v))
                    .map_err(|e| format!("record {i}: {e}"))
            })
            .collect::<Result<Vec<R>, String>>()?;
        if events.len() as u64 != count {
            return Err(format!(
                "header declares {count} records, found {}",
                events.len()
            ));
        }
        Ok(Journal {
            meta: R::Meta::decode(&h)?,
            capacity: usize::MAX,
            events,
            dropped: json::field(&h, "dropped")?,
        })
    }

    /// A human-readable rendering: a summary line, then one line per
    /// record.
    pub fn explain(&self) -> String {
        let mut out = format!(
            "{}: records={} dropped={}{}\n",
            R::KIND,
            self.events.len(),
            self.dropped,
            R::explain_meta(&self.meta)
        );
        for e in &self.events {
            let _ = writeln!(out, "{}", e.explain());
        }
        out
    }
}

/// The header `type` of a JSONL journal, to dispatch on its kind.
pub fn kind_of(s: &str) -> Result<String, String> {
    let header = s
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty journal")?;
    json::field(
        &json::parse(header).map_err(|e| format!("header: {e}"))?,
        "type",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::DecisionLog;
    use crate::flow::{FlowOp, FlowOpKind, FlowOpsLog};
    use crate::lb::{Adaptive, AlbConfig, LoadBalancer};
    use crate::supervise::{SupervisorLog, Transition, TransitionReason, WorkerState};
    use nba_sim::Time;

    /// A parser that reports only whether a journal read back.
    type Reader = fn(&str) -> Result<(), String>;

    /// One short journal of each kind, its reader, and an integer field
    /// its records carry.
    fn journals() -> Vec<(&'static str, String, Reader, &'static str)> {
        let mut lb = Adaptive::new(AlbConfig {
            update_interval: Time::from_ms(10),
            avg_window: 2,
            min_wait: 0,
            max_wait: 2,
            ..AlbConfig::default()
        });
        lb.enable_audit(64);
        for i in 1..=12u64 {
            lb.tick(Time::from_ms(10 * i), i * i * 1_000);
        }
        let decisions = lb.take_audit_log().expect("audit enabled");
        let mut supervisor = SupervisorLog::default();
        let (from, to, reason) = (
            WorkerState::Healthy,
            WorkerState::Suspect,
            TransitionReason::Stall,
        );
        supervisor.record(500, 3, Transition { from, to, reason }, 9, 4, 0);
        supervisor.record(900, 1, Transition { from, to, reason }, 2, 1, 0);
        let mut flows = FlowOpsLog::default();
        for bseq in 1..=3 {
            flows.push(FlowOp {
                shard: 0,
                bucket: 7,
                bseq,
                epoch: 0,
                op: if bseq == 1 {
                    FlowOpKind::Insert
                } else {
                    FlowOpKind::Hit
                },
                key_digest: u64::MAX,
                value: 5,
            });
        }
        vec![
            (
                "decision",
                decisions.to_jsonl(),
                |s| DecisionLog::from_jsonl(s).map(drop),
                "seq",
            ),
            (
                "supervisor",
                supervisor.to_jsonl(),
                |s| SupervisorLog::from_jsonl(s).map(drop),
                "worker",
            ),
            (
                "flow",
                flows.to_jsonl(),
                |s| FlowOpsLog::from_jsonl(s).map(drop),
                "bseq",
            ),
        ]
    }

    #[test]
    fn every_kind_round_trips_bit_exactly() {
        let decisions = journals().remove(0).1;
        let log = DecisionLog::from_jsonl(&decisions).unwrap();
        assert!(log.events.len() > 3, "{decisions}");
        assert_eq!(log.to_jsonl(), decisions);
        for (kind, text, read, _) in journals() {
            read(&text).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
        let flows = journals().remove(2).1;
        let parsed = FlowOpsLog::from_jsonl(&flows).unwrap();
        assert_eq!(
            parsed.events[0].key_digest,
            u64::MAX,
            "64-bit digest survives"
        );
    }

    #[test]
    fn negative_or_fractional_integers_are_errors() {
        for (kind, text, read, field) in journals() {
            for bad in [-1.0, 1.5] {
                let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
                let mut rec = json::parse(&lines[1]).unwrap();
                if let Value::Obj(m) = &mut rec {
                    m.insert(field.to_owned(), Value::Num(bad));
                }
                lines[1] = rec.to_string();
                let err = read(&lines.join("\n")).expect_err(kind);
                assert!(err.contains(field), "{kind}: {err}");
            }
        }
    }

    #[test]
    fn a_truncated_journal_is_an_error() {
        for (kind, text, read, _) in journals() {
            let cut = &text[..text.trim_end().rfind('\n').unwrap()];
            let err = read(cut).expect_err(kind);
            assert!(err.contains("declares"), "{kind}: {err}");
        }
    }

    #[test]
    fn keep_first_capacity_counts_the_rest_as_dropped() {
        let mut log = FlowOpsLog::new((), 2);
        for bseq in 1..=5 {
            assert_eq!(log.next_seq(), bseq - 1);
            log.push(FlowOp {
                shard: 0,
                bucket: 0,
                bseq,
                epoch: 0,
                op: FlowOpKind::Insert,
                key_digest: bseq,
                value: 0,
            });
        }
        assert_eq!((log.events.len(), log.dropped), (2, 3));
        assert_eq!(log.events[1].bseq, 2, "the head is kept, the tail dropped");
        let parsed = FlowOpsLog::from_jsonl(&log.to_jsonl()).unwrap();
        assert_eq!(parsed.dropped, 3);
        assert!(parsed.bit_eq(&log));
        assert!(DecisionLog::from_jsonl(&log.to_jsonl())
            .unwrap_err()
            .contains("nba-flow-ops"));
    }
}
