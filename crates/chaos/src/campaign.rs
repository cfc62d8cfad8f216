//! The campaign runner: N seeded random schedules per workload, invariant
//! checks after each, automatic shrinking of failures to minimal
//! reproducers, and exactly re-executable replay files.

use crate::invariant::{check, report, Violation};
use crate::run::{run, run_traced, RunOutcome};
use crate::schedule::{FaultEvent, Schedule, Workload};
use crate::shrink::shrink;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A schedule execution judged against the invariants.
pub struct Judged {
    /// What the run observed.
    pub outcome: RunOutcome,
    /// Invariant violations (empty = pass).
    pub violations: Vec<Violation>,
    /// The deterministic report (see [`crate::invariant::report`]).
    pub report: String,
}

/// Run one schedule across `shards` conservative-parallel shards (1: the
/// one-shard engine) and judge it. Outcomes and reports are
/// byte-identical for any shard count.
pub fn judge(s: &Schedule, shards: usize) -> Judged {
    let outcome = run(s, shards);
    let violations = check(&outcome);
    let rep = report(&outcome, &violations);
    Judged {
        outcome,
        violations,
        report: rep,
    }
}

/// A campaign failure, shrunk and packaged for replay.
pub struct Failure {
    /// The schedule the campaign generated.
    pub original: Schedule,
    /// Its 1-minimal shrink (same violations still present).
    pub shrunk: Schedule,
    /// Report of the shrunk run, violations included.
    pub report: String,
    /// Replay file text: the shrunk schedule plus the expected report
    /// embedded as `#= ` comment lines (see [`replay`]).
    pub repro: String,
    /// Chrome trace JSON of the shrunk failing run.
    pub chrome_json: String,
    /// Flight-recorder dump: the last virtual-time slice of the shrunk
    /// failing run as Perfetto JSON, straight from the always-on bounded
    /// recorder (available even when full tracing was never requested).
    pub flight_json: String,
}

/// Result of a whole campaign.
pub struct CampaignResult {
    /// Schedules executed (excluding shrink retries).
    pub runs: usize,
    /// Failures found, shrunk, and packaged.
    pub failures: Vec<Failure>,
}

/// Run `per_workload` seeded random schedules for each workload in
/// `workloads`, each across `shards` conservative-parallel shards, and
/// shrink every failure to a minimal reproducer. Judgements match a
/// one-shard campaign for any shard count, up to the mid-run world-event
/// gap of [`run`](crate::run()); shrinking of failures always happens on
/// one shard. `progress` is called once per schedule with (schedule,
/// violation count).
pub fn run_campaign(
    per_workload: usize,
    base_seed: u64,
    workloads: &[Workload],
    shards: usize,
    mut progress: impl FnMut(&Schedule, usize),
) -> CampaignResult {
    let mut result = CampaignResult {
        runs: 0,
        failures: Vec::new(),
    };
    for &w in workloads {
        for i in 0..per_workload {
            let s = random_schedule(w, base_seed.wrapping_add(i as u64));
            let judged = judge(&s, shards);
            result.runs += 1;
            progress(&s, judged.violations.len());
            if !judged.violations.is_empty() {
                result.failures.push(package_failure(s));
            }
        }
    }
    result
}

/// Shrink a failing schedule and build its replay artifacts.
pub fn package_failure(original: Schedule) -> Failure {
    let shrunk = shrink(&original, |cand| !judge(cand, 1).violations.is_empty());
    let judged = judge(&shrunk, 1);
    let traced = run_traced(&shrunk);
    Failure {
        original,
        repro: repro_text(&shrunk, &judged.report),
        report: judged.report,
        chrome_json: traced.chrome_json.unwrap_or_default(),
        flight_json: judged.outcome.flight.dump_json(),
        shrunk,
    }
}

/// Prefix of embedded expected-report lines inside a replay file.
pub const EXPECT_PREFIX: &str = "#= ";

/// Render a replay file: the schedule in its canonical text form plus the
/// expected report embedded as comments the parser ignores.
pub fn repro_text(shrunk: &Schedule, report: &str) -> String {
    let mut t = String::from(
        "# chaos reproducer (auto-shrunk minimal failing schedule)\n\
         # replay with: cargo run -p sp-chaos --bin chaos -- replay <this file>\n",
    );
    t.push_str(&shrunk.format());
    t.push_str("# expected report:\n");
    for line in report.lines() {
        t.push_str(EXPECT_PREFIX);
        t.push_str(line);
        t.push('\n');
    }
    t
}

/// Extract the expected report embedded in a replay file, if any.
pub fn embedded_report(text: &str) -> Option<String> {
    let mut r = String::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(EXPECT_PREFIX) {
            r.push_str(rest);
            r.push('\n');
        }
    }
    (!r.is_empty()).then_some(r)
}

/// Outcome of replaying a schedule or reproducer file.
pub struct Replay {
    /// The schedule that was replayed.
    pub schedule: Schedule,
    /// The report this execution produced.
    pub report: String,
    /// The report the file said to expect, if it embedded one.
    pub expected: Option<String>,
}

impl Replay {
    /// `Some(true)` if the replay matched the embedded expectation
    /// byte-for-byte, `Some(false)` on mismatch, `None` if the file
    /// embedded no expectation.
    pub fn matches(&self) -> Option<bool> {
        self.expected.as_ref().map(|e| *e == self.report)
    }
}

/// Re-execute a schedule or reproducer file across `shards`
/// conservative-parallel shards and judge it. Deterministic: replaying a
/// reproducer reproduces the identical violation — same virtual times,
/// same counters, same report bytes — and at any shard count, so a
/// reproducer recorded from a one-shard run matches byte-for-byte when
/// replayed sharded (and vice versa).
pub fn replay(text: &str, shards: usize) -> Result<Replay, String> {
    let schedule = Schedule::parse(text)?;
    let judged = judge(&schedule, shards);
    Ok(Replay {
        schedule,
        report: judged.report,
        expected: embedded_report(text),
    })
}

/// Deterministically generate the `i`-th random schedule for a workload.
/// Faults land in the first ~8 ms; the tail is recoverable by construction
/// (index faults are finite, windows close, stalls and pauses end, and a
/// killed cable always leaves three live lanes for retransmissions), and
/// keep-alive is always on — so every generated schedule must pass. Half
/// the schedules run on a two-frame machine, under either routing policy,
/// sometimes with one cable of the frame pair severed.
pub fn random_schedule(w: Workload, seed: u64) -> Schedule {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ w as u64);
    let mut s = Schedule::new(w);
    s.seed = seed;
    s.keepalive_polls = [32, 64, 128][rng.gen_range(0..3usize)];
    if rng.gen_range(0..2u32) == 1 {
        s.frames = 2;
        if rng.gen_range(0..2u32) == 1 {
            s.route_policy = sp_switch::RoutePolicy::Adaptive;
        }
        if rng.gen_range(0..4u32) == 0 {
            let from = rng.gen_range(0..2usize);
            s.events.push(FaultEvent::CableKill {
                from,
                to: 1 - from,
                lane: rng.gen_range(0..4),
            });
        }
    }
    s.msgs = match w {
        Workload::PingPong | Workload::Streaming => rng.gen_range(6..20),
        _ => rng.gen_range(3..7),
    };
    const HORIZON: u64 = 8_000_000;
    let window = |rng: &mut SmallRng| {
        let from = rng.gen_range(0..HORIZON / 2);
        let until = from + rng.gen_range(100_000..HORIZON / 2);
        (from, until)
    };
    for _ in 0..rng.gen_range(1..=5u32) {
        let p = rng.gen_range(1..=25u32) as f64 / 100.0;
        let node = rng.gen_range(0..s.nodes);
        let at_ns = rng.gen_range(0..HORIZON / 2);
        let ev = match rng.gen_range(0..10u32) {
            0 => FaultEvent::DropIndex(rng.gen_range(0..120)),
            1 => FaultEvent::DupIndex(rng.gen_range(0..120)),
            2 => FaultEvent::DelayIndex(rng.gen_range(0..120)),
            3 => {
                let (from_ns, until_ns) = window(&mut rng);
                FaultEvent::DropWindow {
                    p,
                    from_ns,
                    until_ns,
                }
            }
            4 => {
                let (from_ns, until_ns) = window(&mut rng);
                FaultEvent::DupWindow {
                    p,
                    from_ns,
                    until_ns,
                }
            }
            5 => {
                let (from_ns, until_ns) = window(&mut rng);
                FaultEvent::DelayWindow {
                    p,
                    from_ns,
                    until_ns,
                }
            }
            6 => {
                let (from_ns, until_ns) = window(&mut rng);
                FaultEvent::FifoShrink {
                    node,
                    capacity: rng.gen_range(2..8),
                    from_ns,
                    until_ns,
                }
            }
            7 => FaultEvent::SendStall {
                node,
                at_ns,
                dur_ns: rng.gen_range(50_000..1_000_000),
            },
            8 => FaultEvent::RecvStall {
                node,
                at_ns,
                dur_ns: rng.gen_range(50_000..1_000_000),
            },
            _ => FaultEvent::Pause {
                node,
                at_ns,
                dur_ns: rng.gen_range(100_000..2_000_000),
            },
        };
        s.events.push(ev);
    }
    // Reliability-era draws come after every classic one, so a pre-existing
    // seed keeps its classic fault list as an exact prefix. All three stay
    // recoverable by construction: partitions heal by 2·(H/4) < deadline,
    // crashed nodes restart within 1 ms, and keep-alive plus the epoch
    // handshake clear any residue over the lossless tail.
    if rng.gen_range(0..2u32) == 1 {
        s.reliability = sp_am::ReliabilityConfig::adaptive();
    }
    if matches!(w, Workload::PingPong | Workload::Streaming) && rng.gen_range(0..3u32) == 0 {
        s.events.push(FaultEvent::Crash {
            node: 1,
            at_ns: rng.gen_range(0..HORIZON / 4),
            down_ns: rng.gen_range(100_000..1_000_000),
        });
    }
    if rng.gen_range(0..4u32) == 0 {
        let from_ns = rng.gen_range(0..HORIZON / 4);
        let until_ns = from_ns + rng.gen_range(100_000..HORIZON / 4);
        // Split node 0 from everyone else; heals well before the deadline.
        let all = (1u64 << s.nodes.min(63)) - 1;
        s.events.push(FaultEvent::Partition {
            a: 1,
            b: all & !1,
            from_ns,
            until_ns,
        });
    }
    s
}
