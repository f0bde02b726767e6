//! The live daemon over loopback TCP: `BgpDaemon` with two sessions.
//!
//! Speaker 1 (this thread) writes each phase's pre-encoded 1-prefix
//! UPDATEs. Speaker 2 (one reader thread) is Established from the
//! start, reads every export as it arrives and checks it against the
//! model. A phase ends when speaker 2 has read the last export the
//! model expects and the daemon has counted the phase's last UPDATE.

use std::io::Write;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bgpbench_daemon::{BgpDaemon, DaemonConfig, DaemonSnapshot, PeerSnapshot};
use bgpbench_speaker::{LiveSpeaker, LiveSpeakerConfig};
use bgpbench_telemetry::{self as telemetry, MetricId, Snapshot, SpanId};
use bgpbench_wire::{Asn, Message, RouterId, HEADER_LEN};

use crate::inputs::{
    self, Inputs, EXPORT_HOP, EXPORT_PREFIXES_PER_UPDATE, LOCAL_ASN, PHASES, UPSTREAM_ASN,
};
use crate::ledger::{
    median_gen, min_cycles, overhead_pct, progress, LayerCounts, LayerTimes, SETUP_REPS, TPS_NAMES,
};
use crate::model::{self, Digest, Expect, Model};
use crate::pipeline::memory_probe;
use crate::report::{median, peak_rss_mb, ratio, Args, Report};

/// Prefixes in the live table: small enough that a cycle of three
/// phases takes a few seconds.
const PREFIXES: usize = 100_000;
/// Prefixes per UPDATE: small packets, one per message.
const PER_UPDATE: usize = 1;
const DOWNSTREAM_ASN: Asn = Asn(65002);
/// Longest a phase, a handshake or a wait may take before the run fails.
const TIMEOUT: Duration = Duration::from_secs(60);
/// How long speaker 2 listens after the last phase for stray exports.
const QUIET: Duration = Duration::from_millis(200);

/// The daemon and its two established sessions.
struct Testbed {
    daemon: BgpDaemon,
    speaker1: LiveSpeaker,
    speaker2: LiveSpeaker,
}

fn speaker_config(asn: Asn, id: u32) -> LiveSpeakerConfig {
    LiveSpeakerConfig {
        local_asn: asn,
        router_id: RouterId(id),
        hold_time_secs: 90,
    }
}

fn start_testbed() -> Result<Testbed, String> {
    let config = DaemonConfig::builder()
        .local_asn(LOCAL_ASN)
        .next_hop(EXPORT_HOP)
        .export_prefixes_per_update(EXPORT_PREFIXES_PER_UPDATE)
        .build();
    let daemon = BgpDaemon::start(config).map_err(|e| format!("daemon failed to start: {e}"))?;
    let addr = daemon.local_addr();
    let connect = |asn, id| {
        LiveSpeaker::connect(addr, &speaker_config(asn, id), TIMEOUT)
            .map_err(|e| format!("speaker AS{} failed to connect: {e}", asn.0))
    };
    let speaker1 = connect(UPSTREAM_ASN, 0x0A00_0002)?;
    let speaker2 = connect(DOWNSTREAM_ASN, 0x0A00_0003)?;
    // The daemon registers a session once it has read the speaker's
    // KEEPALIVE, a moment after the speaker saw the daemon's.
    wait_for(
        || daemon.snapshot().sessions == 2,
        "both sessions to register",
    )?;
    Ok(Testbed {
        daemon,
        speaker1,
        speaker2,
    })
}

fn wait_for(mut ready: impl FnMut() -> bool, what: &str) -> Result<Instant, String> {
    let start = Instant::now();
    loop {
        if ready() {
            return Ok(Instant::now());
        }
        if start.elapsed() > TIMEOUT {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// What speaker 2 read over the whole run.
#[derive(Debug, Default)]
struct Received {
    msgs: u64,
    bytes: u64,
}

/// Speaker 2's loop: per phase, read exports until the model's count,
/// then report the time; after the last phase, listen for strays.
fn read_exports(
    speaker: &mut LiveSpeaker,
    phases: mpsc::Receiver<Expect>,
    done: mpsc::Sender<Result<Instant, String>>,
) -> Result<Received, String> {
    let mut received = Received::default();
    let mut read_one = |received: &mut Received, digest: &mut Digest| -> Result<u64, String> {
        match speaker.recv() {
            Ok(Some(Message::Update(update))) => {
                received.msgs += 1;
                received.bytes += (HEADER_LEN + update.body_len()) as u64;
                Ok(model::digest_update(&update, digest))
            }
            Ok(Some(Message::Keepalive)) => speaker
                .send_keepalive()
                .map(|()| 0)
                .map_err(|e| format!("speaker 2 keepalive failed: {e}")),
            Ok(Some(Message::Notification(note))) => {
                Err(format!("the daemon sent speaker 2 a NOTIFICATION: {note}"))
            }
            Ok(Some(other)) => Err(format!(
                "speaker 2 got an unexpected {:?}",
                other.message_type()
            )),
            Ok(None) => Ok(0),
            Err(e) => Err(format!("speaker 2 read failed: {e}")),
        }
    };
    while let Ok(expect) = phases.recv() {
        let start = Instant::now();
        let mut digest = Digest::new();
        let mut actions = 0;
        let mut outcome = Ok(());
        while actions < expect.exports {
            if start.elapsed() > TIMEOUT {
                outcome = Err(format!(
                    "speaker 2 read {actions} of {} exports",
                    expect.exports
                ));
                break;
            }
            match read_one(&mut received, &mut digest) {
                Ok(n) => actions += n,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        let at = Instant::now();
        if outcome.is_ok() && (actions != expect.exports || digest.value() != expect.export_digest)
        {
            outcome = Err(format!(
                "exports differ from the model ({actions} read, {} expected)",
                expect.exports
            ));
        }
        let failed = outcome.is_err();
        let _ = done.send(outcome.map(|()| at));
        if failed {
            return Err("speaker 2 stopped on a failed phase".into());
        }
    }
    let start = Instant::now();
    let mut stray = Digest::new();
    while start.elapsed() < QUIET {
        if read_one(&mut received, &mut stray)? > 0 {
            return Err("the daemon sent exports the model does not expect".into());
        }
    }
    Ok(received)
}

/// Per-phase span totals and counters from the program's telemetry.
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    rib_ns: u64,
    fib_ns: u64,
    propagate_ns: u64,
    packetize_ns: u64,
    rib_prefixes: u64,
    fib_ops: u64,
    export_msgs: u64,
    attr_hits: u64,
    attr_misses: u64,
}

impl Spans {
    fn between(before: &Snapshot, after: &Snapshot) -> Self {
        let d = after.diff(before);
        Spans {
            rib_ns: d.span(SpanId::RibApplyUpdate).host_ns,
            fib_ns: d.span(SpanId::FibApply).host_ns,
            propagate_ns: d.span(SpanId::DaemonPropagate).host_ns,
            packetize_ns: d.span(SpanId::AdjOutPacketize).host_ns,
            rib_prefixes: d.get(MetricId::RibPrefixes),
            fib_ops: d.get(MetricId::FibInstalls) + d.get(MetricId::FibRemoves),
            export_msgs: d.get(MetricId::AdjOutUpdates),
            attr_hits: d.get(MetricId::AttrStoreHits),
            attr_misses: d.get(MetricId::AttrStoreMisses),
        }
    }
}

/// Timings of one phase.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseTime {
    total_s: f64,
    flood_s: f64,
    lag_s: f64,
}

fn peer(snapshots: &[PeerSnapshot], asn: Asn) -> Option<&PeerSnapshot> {
    snapshots.iter().find(|p| p.asn == asn)
}

/// The `live_loopback` workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new();

    // Set-up: inputs, daemon start and both session handshakes,
    // repeated; the last testbed is kept.
    let mut setup_s = Vec::new();
    let mut gen_times = Vec::new();
    let mut kept: Option<(Inputs, Testbed)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, old)) = kept.take() {
            drop(old.speaker1);
            drop(old.speaker2);
            old.daemon.shutdown();
        }
        let start = Instant::now();
        let inputs = inputs::generate(args.seed, PREFIXES, PER_UPDATE)?;
        let testbed = start_testbed()?;
        setup_s.push(start.elapsed().as_secs_f64());
        gen_times.push(inputs.times);
        kept = Some((inputs, testbed));
    }
    let (inputs, testbed) = kept.ok_or("no set-up ran")?;
    let Testbed {
        daemon,
        mut speaker1,
        mut speaker2,
    } = testbed;
    inputs.record_sizes(&mut report);
    report.record(
        "size.sessions",
        "2 (speaker 1 sends, speaker 2 reads every export)",
    );

    let mut model = Model::new(LOCAL_ASN, EXPORT_HOP);
    let expect: Vec<Expect> = inputs.updates.iter().map(|u| model.phase(u)).collect();
    drop(model);

    let (phase_tx, phase_rx) = mpsc::channel::<Expect>();
    let (done_tx, done_rx) = mpsc::channel();
    let mut plain: [Vec<PhaseTime>; 3] = Default::default();
    let mut traced: [Vec<PhaseTime>; 3] = Default::default();
    let mut spans = [Spans::default(); 3];
    let mut attr_entries = 0;
    let mut peak_mb = 0.0;
    let mut cycle_peers: Option<(Vec<PeerSnapshot>, Vec<PeerSnapshot>)> = None;
    let received = std::thread::scope(|scope| -> Result<Received, String> {
        let reader = scope.spawn(|| read_exports(&mut speaker2, phase_rx, done_tx));
        let mut updates_sent = 0u64;
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let mut cycle = 0;
        let mut stream = speaker1.raw_stream();
        // A daemon that stops reading must fail the run, not hang it.
        stream
            .set_write_timeout(Some(TIMEOUT))
            .map_err(|e| format!("speaker 1 socket option failed: {e}"))?;
        let outcome = (|| -> Result<(), String> {
            while report.correct && (cycle < min_cycles(args.trace) || Instant::now() < deadline) {
                let trace_cycle = args.trace && cycle % 2 == 1;
                let peers_before = daemon.peer_snapshots();
                let mut cycle_s = [0.0; 3];
                for phase in 0..3 {
                    if trace_cycle {
                        telemetry::enable();
                    }
                    let before = telemetry::snapshot();
                    phase_tx
                        .send(expect[phase])
                        .map_err(|_| "speaker 2 stopped reading")?;
                    let start = Instant::now();
                    stream
                        .write_all(&inputs.bytes[phase])
                        .map_err(|e| format!("speaker 1 write failed: {e}"))?;
                    let flooded = Instant::now();
                    let read_all = done_rx
                        .recv_timeout(TIMEOUT)
                        .map_err(|_| "speaker 2 never finished the phase".to_owned())??;
                    updates_sent += expect[phase].updates;
                    let counted = wait_for(
                        || daemon.snapshot().updates_received >= updates_sent,
                        "the daemon to count the phase's UPDATEs",
                    )?;
                    let end = read_all.max(counted);
                    if trace_cycle {
                        telemetry::disable();
                        spans[phase] = Spans::between(&before, &telemetry::snapshot());
                    }
                    let time = PhaseTime {
                        total_s: (end - start).as_secs_f64(),
                        flood_s: (flooded - start).as_secs_f64(),
                        lag_s: end.saturating_duration_since(flooded).as_secs_f64(),
                    };
                    report.attempted += expect[phase].updates;
                    report.phases += 1;
                    let snapshot = daemon.snapshot();
                    check_snapshot(&mut report, PHASES[phase], &snapshot, &expect[phase]);
                    if phase == 0 {
                        attr_entries = snapshot.rib.attr_store_entries;
                    }
                    cycle_s[phase] = time.total_s;
                    let times = if trace_cycle { &mut traced } else { &mut plain };
                    times[phase].push(time);
                }
                progress(cycle, trace_cycle, &cycle_s);
                if cycle == 0 {
                    peak_mb = peak_rss_mb();
                }
                if trace_cycle {
                    cycle_peers = Some((peers_before, daemon.peer_snapshots()));
                }
                cycle += 1;
            }
            Ok(())
        })();
        drop(phase_tx);
        let received = reader
            .join()
            .map_err(|_| "speaker 2's thread panicked".to_owned())?;
        outcome?;
        received
    })?;

    // Speaker 1 gets nothing but KEEPALIVEs: the daemon never sends a
    // route back to where it came from.
    loop {
        match speaker1.recv() {
            Ok(Some(Message::Keepalive)) => {}
            Ok(None) => break,
            Ok(Some(other)) => {
                report.fail(format!(
                    "speaker 1 got an unexpected {:?}",
                    other.message_type()
                ));
                break;
            }
            Err(e) => {
                report.fail(format!("speaker 1's session failed: {e}"));
                break;
            }
        }
    }
    report.checks += 1;
    let sessions = daemon.snapshot().sessions;
    report.checks += 1;
    if sessions != 2 {
        report.fail(format!("{sessions} sessions Established at the end, not 2"));
    }
    drop(speaker1);
    drop(speaker2);
    daemon.shutdown();

    let total = |times: &[PhaseTime]| times.iter().map(|t| t.total_s).collect::<Vec<_>>();
    if !args.trace {
        report.metric("setup_s", median(&setup_s), "s");
        for phase in 0..3 {
            report.metric(
                TPS_NAMES[phase],
                expect[phase].transactions as f64 / median(&total(&plain[phase])),
                "transactions/s",
            );
        }
        report.metric("peak_rss_mb", peak_mb, "MB");
        return Ok(report);
    }

    for phase in 0..3 {
        let s = &spans[phase];
        let times = &traced[phase];
        // The spans are the last traced cycle's, so the ledger uses that
        // cycle's phase time.
        let phase_s = times.last().map_or(0.0, |t| t.total_s);
        let secs = |ns: u64| ns as f64 / 1e9;
        let other_s = phase_s - secs(s.rib_ns) - secs(s.fib_ns) - secs(s.propagate_ns);
        let layers = LayerTimes {
            rib_ns_per_prefix: ratio(s.rib_ns as f64, s.rib_prefixes as f64),
            fib_ns_per_op: ratio(s.fib_ns as f64, s.fib_ops as f64),
            packetize_ns_per_msg: ratio(s.packetize_ns as f64, s.export_msgs as f64),
            propagate_s: secs(s.propagate_ns),
            daemon_other_s: other_s,
            flood_s: median(&times.iter().map(|t| t.flood_s).collect::<Vec<_>>()),
            lag_s: median(&times.iter().map(|t| t.lag_s).collect::<Vec<_>>()),
            residual_pct: 100.0 * ratio(other_s, phase_s),
            overhead_pct: overhead_pct(&total(times), &total(&plain[phase])),
            ..LayerTimes::default()
        };
        layers.report(&mut report, PHASES[phase]);
    }
    let cycle_count = |f: fn(&Expect) -> u64| expect.iter().map(f).sum::<u64>() as f64;
    let sum = |f: fn(&Spans) -> u64| spans.iter().map(f).sum::<u64>() as f64;
    let (updates_in, updates_out) = cycle_peers
        .map(|(before, after)| {
            let delta = |asn, f: fn(&PeerSnapshot) -> u64| {
                let get = |s: &[PeerSnapshot]| peer(s, asn).map_or(0, f);
                get(&after).saturating_sub(get(&before)) as f64
            };
            (
                delta(UPSTREAM_ASN, |p| p.updates_in),
                delta(DOWNSTREAM_ASN, |p| p.updates_out),
            )
        })
        .unwrap_or_default();
    let all_cycles = (plain[0].len() + traced[0].len()).max(1) as f64;
    let counts = LayerCounts {
        msgs_in: cycle_count(|e| e.updates),
        msgs_out: received.msgs as f64 / all_cycles,
        bytes_out: received.bytes as f64 / all_cycles,
        attr_hit_ratio: ratio(sum(|s| s.attr_hits), sum(|s| s.attr_hits + s.attr_misses)),
        attr_entries: attr_entries as f64,
        fib_ops: sum(|s| s.fib_ops),
        prefixes_per_msg: ratio(
            cycle_count(|e| e.exports) * all_cycles,
            received.msgs as f64,
        ),
        updates_in,
        updates_out,
        memory: Some(memory_probe(&inputs.bytes[0], inputs.table_len)?),
        gen: median_gen(&gen_times),
        ..LayerCounts::default()
    };
    counts.report(&mut report);
    Ok(report)
}

fn check_snapshot(report: &mut Report, phase: &str, snapshot: &DaemonSnapshot, expect: &Expect) {
    report.checks += 3;
    if snapshot.sessions != 2 {
        report.fail(format!(
            "{phase}: {} sessions Established, not 2",
            snapshot.sessions
        ));
    }
    if snapshot.loc_rib_len as u64 != expect.rib_len {
        report.fail(format!(
            "{phase}: Loc-RIB holds {} prefixes, the model {}",
            snapshot.loc_rib_len, expect.rib_len
        ));
    }
    if snapshot.fib_len as u64 != expect.fib_len {
        report.fail(format!(
            "{phase}: FIB holds {} prefixes, the model {}",
            snapshot.fib_len, expect.fib_len
        ));
    }
}
