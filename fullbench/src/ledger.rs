//! The per-layer metrics every workload prints in a traced run.
//!
//! Each workload fills what its stack exercises; a layer a workload
//! does not run reads 0 (the daemon on the pipeline, the simulator
//! outside `sim_fulltable`, export inside the simulator).

use crate::inputs::GenTimes;
use crate::pipeline::MemoryProbe;
use crate::report::{median, ratio, Report};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// End-to-end metric of each phase.
pub const TPS_NAMES: [&str; 3] = ["table_tps", "churn_tps", "withdraw_tps"];

/// Cycles a run makes at least: a traced run needs one untraced and
/// one traced cycle to compare.
pub fn min_cycles(trace: bool) -> usize {
    if trace {
        2
    } else {
        1
    }
}

/// Prints one cycle's phase times to standard error.
pub fn progress(cycle: usize, traced: bool, secs: &[f64; 3]) {
    let kind = if traced { "traced" } else { "untraced" };
    eprintln!(
        "cycle {cycle} ({kind}): table {:.3} s, churn {:.3} s, withdraw {:.3} s",
        secs[0], secs[1], secs[2]
    );
}

/// Traced phase time against untraced, in percent of untraced.
pub fn overhead_pct(traced: &[f64], plain: &[f64]) -> f64 {
    100.0 * ratio(median(traced) - median(plain), median(plain))
}

/// The median of each generation step over the set-ups.
pub fn median_gen(times: &[GenTimes]) -> GenTimes {
    let pick = |f: fn(&GenTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    GenTimes {
        table_s: pick(|t| t.table_s),
        train_s: pick(|t| t.train_s),
        withdraw_s: pick(|t| t.withdraw_s),
        encode_s: pick(|t| t.encode_s),
    }
}

/// Timed per-layer metrics of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub decode_ns_per_msg: f64,
    pub encode_ns_per_msg: f64,
    pub rib_ns_per_prefix: f64,
    pub fib_ns_per_op: f64,
    pub sync_ns_per_prefix: f64,
    pub packetize_ns_per_msg: f64,
    pub propagate_s: f64,
    pub daemon_other_s: f64,
    pub flood_s: f64,
    pub lag_s: f64,
    pub host_ns_per_tick: f64,
    pub bookkeeping_s: f64,
    pub residual_pct: f64,
    pub overhead_pct: f64,
}

impl LayerTimes {
    pub fn report(&self, report: &mut Report, phase: &str) {
        let mut m = |name: &str, value: f64, unit: &'static str| {
            report.metric(format!("{name}.{phase}"), value, unit)
        };
        m("wire.decode_ns_per_msg", self.decode_ns_per_msg, "ns");
        m("wire.encode_ns_per_msg", self.encode_ns_per_msg, "ns");
        m("rib.apply_ns_per_prefix", self.rib_ns_per_prefix, "ns");
        m("fib.ns_per_op", self.fib_ns_per_op, "ns");
        m("adj_out.sync_ns_per_prefix", self.sync_ns_per_prefix, "ns");
        m(
            "adj_out.packetize_ns_per_msg",
            self.packetize_ns_per_msg,
            "ns",
        );
        m("daemon.propagate_s", self.propagate_s, "s");
        m("daemon.other_s", self.daemon_other_s, "s");
        m("speaker.flood_s", self.flood_s, "s");
        m("daemon.lag_s", self.lag_s, "s");
        m("simnet.host_ns_per_tick", self.host_ns_per_tick, "ns");
        m("models.bookkeeping_s", self.bookkeeping_s, "s");
        m("ledger.residual_pct", self.residual_pct, "%");
        m("ledger.trace_overhead_pct", self.overhead_pct, "%");
    }
}

/// Per-layer counts of one cycle, memory per prefix and set-up steps.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub msgs_in: f64,
    pub msgs_out: f64,
    pub bytes_out: f64,
    pub attr_hit_ratio: f64,
    pub attr_entries: f64,
    pub fib_ops: f64,
    pub prefixes_per_msg: f64,
    pub updates_in: f64,
    pub updates_out: f64,
    pub ticks: f64,
    pub memory: Option<MemoryProbe>,
    pub gen: GenTimes,
}

impl LayerCounts {
    pub fn report(&self, report: &mut Report) {
        let memory = self.memory.as_ref();
        let mem = |f: fn(&MemoryProbe) -> f64| memory.map_or(0.0, f);
        report.metric("wire.msgs_in", self.msgs_in, "count");
        report.metric("wire.msgs_out", self.msgs_out, "count");
        report.metric("wire.bytes_out", self.bytes_out, "bytes");
        report.metric("rib.attr_hit_ratio", self.attr_hit_ratio, "ratio");
        report.metric("rib.attr_entries", self.attr_entries, "count");
        report.metric(
            "rib.bytes_per_prefix",
            mem(|m| m.rib_bytes_per_prefix),
            "bytes",
        );
        report.metric(
            "rib.allocs_per_prefix",
            mem(|m| m.rib_allocs_per_prefix),
            "count",
        );
        report.metric("fib.ops", self.fib_ops, "count");
        report.metric(
            "fib.bytes_per_prefix",
            mem(|m| m.fib_bytes_per_prefix),
            "bytes",
        );
        report.metric("adj_out.prefixes_per_msg", self.prefixes_per_msg, "count");
        report.metric(
            "adj_out.bytes_per_prefix",
            mem(|m| m.adj_out_bytes_per_prefix),
            "bytes",
        );
        report.metric("daemon.updates_in", self.updates_in, "count");
        report.metric("daemon.updates_out", self.updates_out, "count");
        report.metric("simnet.ticks", self.ticks, "count");
        report.metric("speaker.table_gen_s", self.gen.table_s, "s");
        report.metric(
            "speaker.train_gen_s",
            self.gen.train_s + self.gen.withdraw_s,
            "s",
        );
        report.metric("speaker.encode_s", self.gen.encode_s, "s");
    }
}
