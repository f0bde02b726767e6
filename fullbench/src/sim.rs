//! The simulated harness at full-table size: S16, S17 and S18 on the
//! simulated Xeon through `core::harness::run_scenario`.
//!
//! Each call builds its own workload and runs its untimed set-up
//! phases inside; the benchmark times the whole call on the host clock.
//! `table_tps`, `churn_tps` and `withdraw_tps` are the simulated
//! transactions of S16, S17 and S18 per host second: the researcher's
//! cost of producing the full-table results.

use std::time::{Duration, Instant};

use bgpbench_core::{run_scenario, Scenario, ScenarioConfig, ScenarioResult};
use bgpbench_models::xeon;
use bgpbench_telemetry::{self as telemetry, MetricId, Snapshot, SpanId};

use crate::inputs::{self, PHASES};
use crate::ledger::{
    median_gen, min_cycles, overhead_pct, progress, LayerCounts, LayerTimes, SETUP_REPS, TPS_NAMES,
};
use crate::pipeline::{memory_probe, MemoryProbe};
use crate::report::{median, peak_rss_mb, ratio, Args, Report};

/// Prefixes in the simulated table: a full modern table.
const PREFIXES: usize = 1_000_000;
/// Prefixes per UPDATE in S16–S18 (large packets).
const PER_UPDATE: usize = 500;
/// The second RIB shard count every result must be identical at.
const CHECK_SHARDS: usize = 2;

/// Program-side counts of one scenario call, from telemetry.
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    rib_ns: u64,
    fib_ns: u64,
    rib_prefixes: u64,
    rib_updates: u64,
    fib_ops: u64,
    attr_hits: u64,
    attr_misses: u64,
    attr_entries: u64,
}

impl Spans {
    fn between(before: &Snapshot, after: &Snapshot) -> Self {
        let d = after.diff(before);
        Spans {
            rib_ns: d.span(SpanId::RibApplyUpdate).host_ns,
            fib_ns: d.span(SpanId::FibApply).host_ns,
            rib_prefixes: d.get(MetricId::RibPrefixes),
            rib_updates: d.get(MetricId::RibUpdates),
            fib_ops: d.get(MetricId::FibInstalls) + d.get(MetricId::FibRemoves),
            attr_hits: d.get(MetricId::AttrStoreHits),
            attr_misses: d.get(MetricId::AttrStoreMisses),
            attr_entries: after.get(MetricId::AttrStoreEntries),
        }
    }
}

/// The `sim_fulltable` workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new();

    // Set-up: the same workload the harness builds inside each call,
    // generated and encoded from outside. It is the input-generation
    // cost of the results, and gives the expected transaction counts.
    let mut setup_s = Vec::new();
    let mut gen_times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let start = Instant::now();
        let inputs = inputs::generate(args.seed, PREFIXES, PER_UPDATE)?;
        setup_s.push(start.elapsed().as_secs_f64());
        gen_times.push(inputs.times);
        kept = Some(inputs);
    }
    let inputs = kept.ok_or("no set-up ran")?;
    inputs.record_sizes(&mut report);
    report.record(
        "size.scenarios",
        "S16 (table), S17 (churn), S18 (withdraw) on the simulated Xeon",
    );
    let n = inputs.table_len as u64;
    // S16 loads the table, S17 replays the train over it, S18
    // withdraws the whole table after loading it.
    let expected_tx = [n, inputs.transactions(1), n];
    let timed_updates = [
        inputs.updates[0].len() as u64,
        inputs.updates[1].len() as u64,
        n.div_ceil(PER_UPDATE as u64),
    ];
    let gen = median_gen(&gen_times);
    // Generation each call repeats inside, estimated from the same
    // calls timed above: the table and its announcements, plus the
    // train (S17) or the withdrawals (S18).
    let gen_inside = [
        gen.table_s,
        gen.table_s + gen.train_s,
        gen.table_s + gen.withdraw_s,
    ];

    let platform = xeon();
    let config = ScenarioConfig::builder()
        .prefixes(PREFIXES)
        .seed(args.seed)
        .build();
    let mut first: [Option<ScenarioResult>; 3] = Default::default();
    let mut plain: [Vec<f64>; 3] = Default::default();
    let mut traced: [Vec<f64>; 3] = Default::default();
    let mut spans = [Spans::default(); 3];
    let mut ticks = [0u64; 3];
    let mut peak_mb = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut cycle = 0;
    while report.correct && (cycle < min_cycles(args.trace) || Instant::now() < deadline) {
        let trace_cycle = args.trace && cycle % 2 == 1;
        let mut cycle_s = [0.0; 3];
        for (phase, scenario) in Scenario::FULLTABLE.into_iter().enumerate() {
            if trace_cycle {
                telemetry::enable();
            }
            let before = telemetry::snapshot();
            let start = Instant::now();
            let result = run_scenario(&platform, scenario, &config);
            let secs = start.elapsed().as_secs_f64();
            if trace_cycle {
                telemetry::disable();
                spans[phase] = Spans::between(&before, &telemetry::snapshot());
            }
            report.attempted += timed_updates[phase];
            report.phases += 1;
            ticks[phase] = result.virtual_ticks;
            check(
                &mut report,
                scenario,
                &result,
                expected_tx[phase],
                &mut first[phase],
            );
            if cycle == 0 {
                report.record(
                    format!("simulated.{scenario}"),
                    format!(
                        "{} transactions in {:.3} simulated s = {:.1} tps",
                        result.transactions,
                        result.elapsed_secs,
                        result.tps()
                    ),
                );
            }
            let times = if trace_cycle { &mut traced } else { &mut plain };
            times[phase].push(secs);
            cycle_s[phase] = secs;
        }
        progress(cycle, trace_cycle, &cycle_s);
        if cycle == 0 {
            peak_mb = peak_rss_mb();
        }
        cycle += 1;
    }

    // The simulated result must not depend on the host-side shard count.
    if report.correct {
        let sharded = ScenarioConfig {
            rib_shards: CHECK_SHARDS,
            ..config.clone()
        };
        for (phase, scenario) in Scenario::FULLTABLE.into_iter().enumerate() {
            let result = run_scenario(&platform, scenario, &sharded);
            report.checks += 1;
            if Some(&result) != first[phase].as_ref() {
                report.fail(format!(
                    "{scenario} differs at {CHECK_SHARDS} RIB shards from 1 shard"
                ));
            }
        }
    }

    if !args.trace {
        report.metric("setup_s", median(&setup_s), "s");
        for phase in 0..3 {
            report.metric(
                TPS_NAMES[phase],
                expected_tx[phase] as f64 / median(&plain[phase]),
                "transactions/s",
            );
        }
        report.metric("peak_rss_mb", peak_mb, "MB");
        return Ok(report);
    }

    for phase in 0..3 {
        // The spans are the last traced cycle's, so the ledger uses that
        // cycle's call time.
        let s = &spans[phase];
        let call_s = traced[phase].last().copied().unwrap_or_default();
        let rib_s = s.rib_ns as f64 / 1e9;
        let fib_s = s.fib_ns as f64 / 1e9;
        let bookkeeping_s = call_s - rib_s - fib_s - gen_inside[phase];
        let layers = LayerTimes {
            rib_ns_per_prefix: ratio(s.rib_ns as f64, s.rib_prefixes as f64),
            fib_ns_per_op: ratio(s.fib_ns as f64, s.fib_ops as f64),
            host_ns_per_tick: ratio(call_s * 1e9, ticks[phase] as f64),
            bookkeeping_s,
            residual_pct: 100.0 * ratio(bookkeeping_s, call_s),
            overhead_pct: overhead_pct(&traced[phase], &plain[phase]),
            ..LayerTimes::default()
        };
        layers.report(&mut report, PHASES[phase]);
    }
    let sum = |f: fn(&Spans) -> u64| spans.iter().map(f).sum::<u64>() as f64;
    let counts = LayerCounts {
        msgs_in: sum(|s| s.rib_updates),
        attr_hit_ratio: ratio(sum(|s| s.attr_hits), sum(|s| s.attr_hits + s.attr_misses)),
        attr_entries: spans[0].attr_entries as f64,
        fib_ops: sum(|s| s.fib_ops),
        ticks: ticks.iter().sum::<u64>() as f64,
        // The simulated router exports nothing in S16-S18.
        memory: Some(MemoryProbe {
            adj_out_bytes_per_prefix: 0.0,
            ..memory_probe(&inputs.bytes[0], inputs.table_len)?
        }),
        gen,
        ..LayerCounts::default()
    };
    counts.report(&mut report);
    Ok(report)
}

fn check(
    report: &mut Report,
    scenario: Scenario,
    result: &ScenarioResult,
    expected_tx: u64,
    first: &mut Option<ScenarioResult>,
) {
    report.checks += 2;
    if !result.completed {
        report.fail(format!("{scenario} did not complete"));
    } else if result.transactions != expected_tx {
        report.fail(format!(
            "{scenario} counted {} transactions, the workload has {expected_tx}",
            result.transactions
        ));
    }
    match first {
        None => *first = Some(result.clone()),
        Some(earlier) if earlier != result => {
            report.fail(format!("{scenario} differs between repetitions in one run"))
        }
        Some(_) => {}
    }
}
