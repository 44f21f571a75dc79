//! `nba-bench explain`: replay-verify any run journal, then render it.
//!
//! The decision, supervisor and flow-op logs share one JSONL format
//! ([`nba_core::journal`]), so one entry point reads all three and
//! dispatches on the header's `type`.

use std::collections::{BTreeMap, BTreeSet};

use nba_core::audit::{self, DecisionLog, DecisionRecord};
use nba_core::flow::{FlowOp, FlowOpsLog};
use nba_core::journal::{self, Record};
use nba_core::supervise::{SupervisionEvent, SupervisorLog};

/// Why a journal could not be explained.
#[derive(Debug)]
pub enum ExplainError {
    /// Not a readable journal.
    Parse(String),
    /// A readable journal that does not replay: it does not explain
    /// itself.
    Replay(String),
}

/// Replay-verifies a JSONL journal of any kind and renders it:
///
/// * a decision log must reproduce itself bit-exactly through a fresh
///   balancer ([`audit::replay`]), then prints its timeline;
/// * a supervisor log must be a legal walk of the worker state machine,
///   then prints its transitions;
/// * a flow-op journal must replay (hits and evictions only on live
///   keys), then prints its live, invalidated and migrated flow counts.
pub fn explain_journal(text: &str) -> Result<String, ExplainError> {
    use ExplainError::{Parse, Replay};
    match journal::kind_of(text).map_err(Parse)?.as_str() {
        DecisionRecord::KIND => {
            let log = DecisionLog::from_jsonl(text).map_err(Parse)?;
            let replayed =
                audit::replay(&log).map_err(|e| Replay(format!("replay failed: {e}")))?;
            if !replayed.bit_eq(&log) {
                return Err(Replay(
                    "replay DIVERGED from the recorded decisions".to_owned(),
                ));
            }
            Ok(format!(
                "replay: {} records reproduced bit-exactly\n\n{}",
                log.events.len(),
                log.explain()
            ))
        }
        SupervisionEvent::KIND => {
            let log = SupervisorLog::from_jsonl(text).map_err(Parse)?;
            let finals = log.replay().map_err(Replay)?;
            let finals: Vec<String> = finals
                .iter()
                .map(|(w, s)| format!("worker {w} {}", s.as_str()))
                .collect();
            Ok(format!(
                "replay: {} transitions legal; final states: {}\n\n{}",
                log.events.len(),
                finals.join(", "),
                log.explain()
            ))
        }
        FlowOp::KIND => {
            let log = FlowOpsLog::from_jsonl(text).map_err(Parse)?;
            let r = log.replay().map_err(Replay)?;
            let flows =
                |m: &BTreeMap<u32, BTreeSet<u64>>| m.values().map(BTreeSet::len).sum::<usize>();
            Ok(format!(
                "replay: {} flow ops consistent\nflows: live {} invalidated {} migrated {}\n",
                log.events.len(),
                flows(&r.live),
                flows(&r.invalidated),
                r.migrated.len()
            ))
        }
        other => Err(Parse(format!("unknown journal type '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nba_core::flow::FlowOpKind;
    use nba_core::lb::{Adaptive, AlbConfig, LoadBalancer};
    use nba_core::supervise::{Transition, TransitionReason, WorkerState};
    use nba_sim::Time;

    fn decision_log() -> DecisionLog {
        let mut lb = Adaptive::new(AlbConfig {
            update_interval: Time::from_ms(10),
            avg_window: 2,
            min_wait: 0,
            max_wait: 2,
            ..AlbConfig::default()
        });
        lb.enable_audit(64);
        for i in 1..=20u64 {
            lb.tick(Time::from_ms(10 * i), i * i * 1_000);
        }
        lb.take_audit_log().expect("audit enabled")
    }

    fn supervisor_log() -> SupervisorLog {
        let mut log = SupervisorLog::default();
        for (from, to, reason) in [
            (
                WorkerState::Healthy,
                WorkerState::Dead,
                TransitionReason::Crash,
            ),
            (
                WorkerState::Dead,
                WorkerState::Recovering,
                TransitionReason::Respawn,
            ),
        ] {
            log.record(1_000, 1, Transition { from, to, reason }, 7, 3, 32);
        }
        log
    }

    fn flow_log() -> FlowOpsLog {
        let op = |bseq, op, key_digest, value| FlowOp {
            shard: 0,
            bucket: 3,
            bseq,
            epoch: 0,
            op,
            key_digest,
            value,
        };
        let mut log = FlowOpsLog::default();
        log.push(op(1, FlowOpKind::Insert, u64::MAX - 1, 10));
        log.push(op(2, FlowOpKind::Migrate, 42, 11));
        log.push(op(3, FlowOpKind::Hit, u64::MAX - 1, 10));
        log
    }

    #[test]
    fn explains_one_journal_of_each_kind() {
        let cases = [
            (decision_log().to_jsonl(), "reproduced bit-exactly"),
            (
                supervisor_log().to_jsonl(),
                "final states: worker 1 recovering",
            ),
            (
                flow_log().to_jsonl(),
                "flows: live 2 invalidated 0 migrated 1",
            ),
        ];
        for (text, expect) in cases {
            let out = explain_journal(&text).unwrap_or_else(|e| panic!("{e:?}\n{text}"));
            assert!(out.contains(expect), "{out}");
        }
    }

    #[test]
    fn a_journal_that_does_not_replay_is_refused() {
        let mut bad = flow_log();
        bad.events[2].key_digest = 7; // a hit on a key that was never live
        assert!(matches!(
            explain_journal(&bad.to_jsonl()),
            Err(ExplainError::Replay(_))
        ));
        assert!(matches!(
            explain_journal("{\"type\":\"nope\"}"),
            Err(ExplainError::Parse(_))
        ));
    }
}
