//! Structured trace events.
//!
//! Every notable micro-architectural moment of a run can be recorded as
//! one small, `Copy`able [`TraceEvent`] in a bounded [`EventRing`]
//! (bounded so observation can never grow without limit on a hung run).
//! Events carry the cycle they occurred in and, where meaningful, the
//! core they belong to — enough to render a `chrome://tracing` timeline
//! of a whole boot-time STL run.
//!
//! [`EventRing`]: crate::ring::EventRing

use crate::json::Json;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A fetch packet entered the pipeline (one or two instructions).
    Fetch {
        /// PC of the first issued instruction.
        pc: u32,
        /// Instructions issued this cycle (1 or 2).
        slots: u8,
    },
    /// The instruction cache missed.
    ICacheMiss,
    /// The data cache missed (read or write lookup).
    DCacheMiss,
    /// The bus arbiter granted a port's pending request.
    BusGrant {
        /// Granted master port.
        port: u8,
        /// Cycles the request waited for this grant.
        wait: u32,
        /// Target address of the transaction.
        addr: u32,
        /// Whether the transaction writes (write or swap).
        write: bool,
    },
    /// A transient upset (SEU) was rolled.
    SeuStrike {
        /// Whether the strike corrupted real state (vs was absorbed).
        landed: bool,
    },
    /// The memory-mapped watchdog bit.
    WatchdogBite,
    /// The supervisor quarantined a core.
    Quarantine {
        /// Human-readable failure cause of the last attempt.
        cause: &'static str,
    },
    /// A fleet shard was leased to a worker. For fleet events the
    /// `cycle` field carries milliseconds since the fleet run started
    /// and `core` carries the worker id.
    ShardLease {
        /// Shard index within the fleet plan.
        shard: u32,
        /// Attempt number (0 = first try).
        attempt: u8,
    },
    /// A failed shard attempt was scheduled for retry after backoff.
    ShardRetry {
        /// Shard index within the fleet plan.
        shard: u32,
        /// Failures accumulated so far (drives the exponential backoff).
        failures: u8,
        /// Jittered backoff delay before the next lease, in ms.
        backoff_ms: u32,
        /// Human-readable failure cause.
        cause: &'static str,
    },
    /// An expired lease was revoked and its shard put back up for
    /// stealing by another worker.
    ShardSteal {
        /// Shard index within the fleet plan.
        shard: u32,
    },
    /// A shard exhausted its retry budget and was quarantined.
    ShardQuarantine {
        /// Shard index within the fleet plan.
        shard: u32,
        /// Human-readable failure cause of the last attempt.
        cause: &'static str,
    },
    /// A shard's verdicts were accepted.
    ShardDone {
        /// Shard index within the fleet plan.
        shard: u32,
        /// Faults restored from its checkpoint instead of re-graded.
        restored: u32,
    },
}

impl TraceKind {
    /// Short stable name (Chrome-trace event name, JSONL `"kind"`).
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Fetch { .. } => "fetch",
            TraceKind::ICacheMiss => "icache-miss",
            TraceKind::DCacheMiss => "dcache-miss",
            TraceKind::BusGrant { .. } => "bus-grant",
            TraceKind::SeuStrike { .. } => "seu-strike",
            TraceKind::WatchdogBite => "watchdog-bite",
            TraceKind::Quarantine { .. } => "quarantine",
            TraceKind::ShardLease { .. } => "shard-lease",
            TraceKind::ShardRetry { .. } => "shard-retry",
            TraceKind::ShardSteal { .. } => "shard-steal",
            TraceKind::ShardQuarantine { .. } => "shard-quarantine",
            TraceKind::ShardDone { .. } => "shard-done",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event occurred in.
    pub cycle: u64,
    /// Core the event belongs to (`None` for SoC-level events such as
    /// bus grants of the traffic injector or the watchdog).
    pub core: Option<u8>,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// The event's payload: the `args` object of its Chrome-trace and
    /// JSONL records.
    pub fn args(&self) -> Json {
        let int = |v: u32| Json::int(u64::from(v));
        let hex = |v: u32| Json::Str(format!("{v:#x}"));
        let cause = |c: &str| Json::Str(c.into());
        let fields = match self.kind {
            TraceKind::Fetch { pc, slots } => {
                vec![("pc", hex(pc)), ("slots", int(slots.into()))]
            }
            TraceKind::BusGrant { port, wait, addr, write } => vec![
                ("port", int(port.into())),
                ("wait", int(wait)),
                ("addr", hex(addr)),
                ("write", Json::Bool(write)),
            ],
            TraceKind::SeuStrike { landed } => vec![("landed", Json::Bool(landed))],
            TraceKind::Quarantine { cause: c } => vec![("cause", cause(c))],
            TraceKind::ShardLease { shard, attempt } => {
                vec![("shard", int(shard)), ("attempt", int(attempt.into()))]
            }
            TraceKind::ShardRetry { shard, failures, backoff_ms, cause: c } => vec![
                ("shard", int(shard)),
                ("failures", int(failures.into())),
                ("backoff_ms", int(backoff_ms)),
                ("cause", cause(c)),
            ],
            TraceKind::ShardSteal { shard } => vec![("shard", int(shard))],
            TraceKind::ShardQuarantine { shard, cause: c } => {
                vec![("shard", int(shard)), ("cause", cause(c))]
            }
            TraceKind::ShardDone { shard, restored } => {
                vec![("shard", int(shard)), ("restored", int(restored))]
            }
            TraceKind::ICacheMiss | TraceKind::DCacheMiss | TraceKind::WatchdogBite => Vec::new(),
        };
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_render_as_valid_json() {
        let event = |cycle, core, kind| TraceEvent { cycle, core, kind };
        let cases = [
            (event(1, Some(0), TraceKind::Fetch { pc: 0x400, slots: 2 }), r#"{"pc":"0x400","slots":2}"#),
            (event(2, None, TraceKind::WatchdogBite), "{}"),
            (
                event(3, None, TraceKind::BusGrant { port: 6, wait: 17, addr: 0x100, write: false }),
                r#"{"port":6,"wait":17,"addr":"0x100","write":false}"#,
            ),
            (event(4, Some(2), TraceKind::Quarantine { cause: "x\"y" }), r#"{"cause":"x\"y"}"#),
            (
                event(5, Some(1), TraceKind::ShardLease { shard: 7, attempt: 0 }),
                r#"{"shard":7,"attempt":0}"#,
            ),
            (
                event(
                    6,
                    Some(1),
                    TraceKind::ShardRetry {
                        shard: 7,
                        failures: 2,
                        backoff_ms: 12,
                        cause: "worker panic",
                    },
                ),
                r#"{"shard":7,"failures":2,"backoff_ms":12,"cause":"worker panic"}"#,
            ),
            (event(7, None, TraceKind::ShardSteal { shard: 7 }), r#"{"shard":7}"#),
            (
                event(8, None, TraceKind::ShardQuarantine { shard: 7, cause: "hang" }),
                r#"{"shard":7,"cause":"hang"}"#,
            ),
            (
                event(9, Some(0), TraceKind::ShardDone { shard: 7, restored: 3 }),
                r#"{"shard":7,"restored":3}"#,
            ),
        ];
        for (e, want) in cases {
            let text = e.args().render();
            assert_eq!(text, want);
            assert_eq!(crate::json::parse_json(&text).expect("valid args"), e.args());
            assert!(!e.kind.name().is_empty());
        }
    }
}
