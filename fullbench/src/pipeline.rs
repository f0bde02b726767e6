//! The in-process pipeline: the daemon core's per-UPDATE sequence of
//! public library calls, on one thread with no sockets.
//!
//! Bytes in → `StreamDecoder` → `RibEngine::apply_update` →
//! `Fib::insert`/`remove` → `RouteAttributes::exported` (cached per
//! round by pointer) + `AdjRibOut::sync_prefix` toward one downstream
//! peer → `AdjRibOut::to_updates` → `Message::encode` → bytes out.
//!
//! The loop is written once over a [`Probe`]. [`Off`] compiles to the
//! bare sequence; [`Ledger`] times every call into a layer and, while
//! the counting allocator is on, the heap bytes each layer keeps.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgpbench_fib::{Fib, NextHop};
use bgpbench_rib::{
    AdjRibOut, ExportAction, FibDirective, PeerId, PeerInfo, RibEngine, RouteAttributes,
};
use bgpbench_wire::{Asn, Message, RouterId, StreamDecoder};

use crate::alloc::{self, AllocCounts};
use crate::inputs::{
    self, EXPORT_HOP, EXPORT_PREFIXES_PER_UPDATE, LOCAL_ASN, PHASES, UPSTREAM_ASN, UPSTREAM_HOP,
};
use crate::ledger::{
    median_gen, min_cycles, overhead_pct, progress, LayerCounts, LayerTimes, SETUP_REPS, TPS_NAMES,
};
use crate::model::{self, Digest, Expect, Model};
use crate::report::{median, peak_rss_mb, ratio, Args, Report};

/// Bytes handed to the decoder at a time: the daemon's socket read size.
const READ_CHUNK: usize = 16 * 1024;

/// The layers a pipeline phase is split into.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `StreamDecoder::extend` + `next_message`.
    Decode = 0,
    /// `RibEngine::apply_update`.
    Rib = 1,
    /// `Fib::insert` / `Fib::remove` for each directive.
    Fib = 2,
    /// `RouteAttributes::exported` + `AdjRibOut::sync_prefix`.
    Sync = 3,
    /// `AdjRibOut::to_updates`.
    Packetize = 4,
    /// `Message::encode`.
    Encode = 5,
}

pub const N_LAYERS: usize = 6;

/// Where the pipeline reports the start and end of each layer call.
pub trait Probe {
    type Mark: Copy;
    fn mark(&self) -> Self::Mark;
    fn lap(&mut self, layer: Layer, since: Self::Mark);
}

/// No measurement: the untimed build of the loop.
pub struct Off;

impl Probe for Off {
    type Mark = ();
    #[inline(always)]
    fn mark(&self) {}
    #[inline(always)]
    fn lap(&mut self, _layer: Layer, _since: ()) {}
}

/// Per-layer host time, allocations and heap bytes held.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    pub ns: [u64; N_LAYERS],
    pub allocs: [u64; N_LAYERS],
    pub held: [i64; N_LAYERS],
}

impl Probe for Ledger {
    type Mark = (Instant, AllocCounts);
    #[inline]
    fn mark(&self) -> Self::Mark {
        (Instant::now(), alloc::counts())
    }
    #[inline]
    fn lap(&mut self, layer: Layer, since: Self::Mark) {
        let now = alloc::counts();
        let i = layer as usize;
        self.ns[i] += since.0.elapsed().as_nanos() as u64;
        self.allocs[i] += now.allocs - since.1.allocs;
        self.held[i] += now.held_since(&since.1);
    }
}

impl Ledger {
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Counts from one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCounts {
    /// UPDATEs decoded.
    pub msgs_in: u64,
    /// UPDATEs the RIB refused.
    pub failed: u64,
    /// Prefix outcomes the RIB returned.
    pub prefixes: u64,
    /// FIB directives applied.
    pub fib_ops: u64,
    /// Advertisement actions staged downstream.
    pub exports: u64,
    /// UPDATEs encoded downstream.
    pub msgs_out: u64,
}

/// The router under test: RIB, FIB and one downstream Adj-RIB-Out.
pub struct Router {
    engine: RibEngine,
    fib: Fib,
    adj_out: AdjRibOut,
    upstream: PeerId,
    downstream: PeerId,
    actions: Vec<ExportAction>,
    /// Encoded downstream UPDATEs of the last phase.
    pub out: Vec<u8>,
}

impl Router {
    pub fn new() -> Self {
        let mut engine = RibEngine::new(LOCAL_ASN, RouterId(0x0A00_0001));
        let upstream = engine.add_peer(PeerInfo::new(
            PeerId(1),
            UPSTREAM_ASN,
            RouterId(0x0A00_0002),
            UPSTREAM_HOP,
        ));
        let downstream = engine.add_peer(PeerInfo::new(
            PeerId(2),
            Asn(65002),
            RouterId(0x0A00_0003),
            std::net::Ipv4Addr::new(10, 0, 0, 3),
        ));
        Router {
            engine,
            fib: Fib::new(),
            adj_out: AdjRibOut::new(),
            upstream,
            downstream,
            actions: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Feeds one phase's bytes through the pipeline.
    pub fn run_phase<P: Probe>(
        &mut self,
        bytes: &[u8],
        probe: &mut P,
    ) -> Result<PhaseCounts, String> {
        self.out.clear();
        let mut counts = PhaseCounts::default();
        let mut decoder = StreamDecoder::new();
        for chunk in bytes.chunks(READ_CHUNK) {
            let m = probe.mark();
            decoder.extend(chunk);
            probe.lap(Layer::Decode, m);
            loop {
                let m = probe.mark();
                let next = decoder.next_message();
                probe.lap(Layer::Decode, m);
                let update = match next {
                    Ok(Some(Message::Update(update))) => update,
                    Ok(None) => break,
                    Ok(Some(other)) => {
                        return Err(format!(
                            "unexpected {:?} in the input",
                            other.message_type()
                        ))
                    }
                    Err(err) => return Err(format!("input failed to decode: {err}")),
                };
                counts.msgs_in += 1;

                let m = probe.mark();
                let outcomes = self.engine.apply_update(self.upstream, &update);
                probe.lap(Layer::Rib, m);
                let Ok(outcomes) = outcomes else {
                    counts.failed += 1;
                    continue;
                };
                counts.prefixes += outcomes.len() as u64;

                let m = probe.mark();
                for outcome in &outcomes {
                    match outcome.fib {
                        Some(FibDirective::Install { prefix, next_hop }) => {
                            self.fib.insert(prefix, NextHop::new(next_hop, 0));
                            counts.fib_ops += 1;
                        }
                        Some(FibDirective::Remove { prefix }) => {
                            self.fib.remove(&prefix);
                            counts.fib_ops += 1;
                        }
                        None => {}
                    }
                }
                probe.lap(Layer::Fib, m);

                let m = probe.mark();
                // The exported form is peer-independent and the RIB
                // interns attribute sets, so one cache keyed on pointer
                // identity serves the whole round.
                let mut exported: HashMap<*const RouteAttributes, Arc<RouteAttributes>> =
                    HashMap::new();
                for outcome in &outcomes {
                    let desired = self
                        .engine
                        .loc_rib()
                        .get(&outcome.prefix)
                        .and_then(|route| {
                            (route.learned_from() != self.downstream).then(|| {
                                exported
                                    .entry(Arc::as_ptr(route.attrs()))
                                    .or_insert_with(|| {
                                        Arc::new(route.attrs().exported(LOCAL_ASN, EXPORT_HOP))
                                    })
                                    .clone()
                            })
                        });
                    if let Some(action) = self.adj_out.sync_prefix(outcome.prefix, desired) {
                        self.actions.push(action);
                    }
                }
                drop(exported);
                probe.lap(Layer::Sync, m);

                if !self.actions.is_empty() {
                    counts.exports += self.actions.len() as u64;
                    let m = probe.mark();
                    let updates = AdjRibOut::to_updates(&self.actions, EXPORT_PREFIXES_PER_UPDATE);
                    self.actions.clear();
                    probe.lap(Layer::Packetize, m);

                    let m = probe.mark();
                    for update in updates {
                        let encoded = Message::Update(update)
                            .encode()
                            .map_err(|err| format!("export failed to encode: {err}"))?;
                        self.out.extend_from_slice(&encoded);
                        counts.msgs_out += 1;
                    }
                    probe.lap(Layer::Encode, m);
                }

                // Free each layer's per-message results inside its own
                // lap, so the heap bytes a layer keeps are only what it
                // stored.
                let m = probe.mark();
                drop(outcomes);
                probe.lap(Layer::Rib, m);
                let m = probe.mark();
                drop(update);
                probe.lap(Layer::Decode, m);
            }
        }
        if decoder.buffered() != 0 {
            return Err(format!("{} trailing input bytes", decoder.buffered()));
        }
        Ok(counts)
    }

    /// Checks the router against the model after a phase; returns the
    /// number of checks made.
    pub fn check(&self, phase: &str, expect: &Expect, counts: &PhaseCounts) -> Result<u64, String> {
        let fail = |what: &str| Err(format!("{phase}: {what}"));
        if counts.msgs_in != expect.updates || counts.prefixes != expect.transactions {
            return fail("the router did not take every UPDATE of the phase");
        }
        // The advertisements, decoded back from the bytes sent.
        let mut decoder = StreamDecoder::new();
        decoder.extend(&self.out);
        let mut digest = Digest::new();
        let mut actions = 0;
        loop {
            match decoder.next_message() {
                Ok(Some(Message::Update(update))) => {
                    actions += model::digest_update(&update, &mut digest)
                }
                Ok(None) => break,
                Ok(Some(_)) => return fail("a non-UPDATE message was exported"),
                Err(err) => return fail(&format!("exported bytes failed to decode: {err}")),
            }
        }
        if decoder.buffered() != 0
            || actions != expect.exports
            || digest.value() != expect.export_digest
        {
            return fail(&format!(
                "advertisements differ from the model ({actions} sent, {} expected)",
                expect.exports
            ));
        }
        let mut fib_digest = 0u64;
        for (prefix, hop) in self.fib.iter() {
            fib_digest = fib_digest.wrapping_add(model::fib_hash(prefix, hop.gateway()));
        }
        if self.fib.len() as u64 != expect.fib_len || fib_digest != expect.fib_digest {
            return fail("FIB prefixes or next hops differ from the model");
        }
        let mut rib_digest = 0u64;
        let loc_rib = self.engine.loc_rib();
        for route in loc_rib.iter() {
            let attrs = route.attrs();
            rib_digest = rib_digest.wrapping_add(model::announce_hash(
                &route.prefix(),
                attrs.origin() as u8,
                model::path_asns(attrs.as_path()).into_iter(),
                attrs.next_hop(),
            ));
        }
        if loc_rib.len() as u64 != expect.rib_len || rib_digest != expect.rib_digest {
            return fail("Loc-RIB differs from the model");
        }
        if expect.rib_len == 0
            && !(self.adj_out.is_empty()
                && self.engine.attr_store().is_empty()
                && self.fib.is_empty())
        {
            return fail(
                "an empty table left Adj-RIB-Out, the attribute store or the FIB non-empty",
            );
        }
        Ok(4)
    }

    /// Attribute-store entries and hit ratio so far.
    pub fn attr_store(&self) -> (u64, u64, u64) {
        let store = self.engine.attr_store();
        let stats = store.stats();
        (store.len() as u64, stats.hits, stats.misses)
    }
}

/// Heap bytes and allocations per table prefix, per layer, from
/// loading `table_bytes` into a fresh router with the counting
/// allocator on.
#[derive(Debug)]
pub struct MemoryProbe {
    pub rib_bytes_per_prefix: f64,
    pub rib_allocs_per_prefix: f64,
    pub fib_bytes_per_prefix: f64,
    pub adj_out_bytes_per_prefix: f64,
}

pub fn memory_probe(table_bytes: &[u8], prefixes: usize) -> Result<MemoryProbe, String> {
    let mut router = Router::new();
    let mut ledger = Ledger::default();
    alloc::set_counting(true);
    let result = router.run_phase(table_bytes, &mut ledger);
    alloc::set_counting(false);
    result?;
    let per = |x: f64| x / prefixes.max(1) as f64;
    Ok(MemoryProbe {
        rib_bytes_per_prefix: per(ledger.held[Layer::Rib as usize] as f64),
        rib_allocs_per_prefix: per(ledger.allocs[Layer::Rib as usize] as f64),
        fib_bytes_per_prefix: per(ledger.held[Layer::Fib as usize] as f64),
        adj_out_bytes_per_prefix: per(ledger.held[Layer::Sync as usize] as f64),
    })
}

/// Prefixes in the pipeline's table: a full modern table.
const PREFIXES: usize = 1_000_000;
/// Prefixes per input UPDATE: the benchmark's large packets.
const PER_UPDATE: usize = 500;

/// The `pipeline_fulltable` workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new();

    // Set-up: input generation and encoding plus router construction,
    // repeated; the last set is kept.
    let mut setup_s = Vec::new();
    let mut gen_times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let start = Instant::now();
        let inputs = inputs::generate(args.seed, PREFIXES, PER_UPDATE)?;
        let router = Router::new();
        setup_s.push(start.elapsed().as_secs_f64());
        gen_times.push(inputs.times);
        kept = Some((inputs, router));
    }
    let (inputs, mut router) = kept.ok_or("no set-up ran")?;
    inputs.record_sizes(&mut report);

    let mut model = Model::new(LOCAL_ASN, EXPORT_HOP);
    let expect: Vec<Expect> = inputs.updates.iter().map(|u| model.phase(u)).collect();
    drop(model);

    let mut plain: [Vec<f64>; 3] = Default::default();
    let mut traced: [Vec<f64>; 3] = Default::default();
    let mut ledgers = [Ledger::default(); 3];
    let mut last = [PhaseCounts::default(); 3];
    let mut bytes_out = 0u64;
    let mut attr_entries = 0u64;
    let mut attr_hits = (0u64, 0u64);
    let mut peak_mb = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut cycle = 0;
    while report.correct && (cycle < min_cycles(args.trace) || Instant::now() < deadline) {
        let trace_cycle = args.trace && cycle % 2 == 1;
        // Each cycle starts from a freshly built router, so every table
        // phase is the same cold load a router makes at session start.
        if cycle > 0 {
            router = Router::new();
        }
        let (_, hits0, misses0) = router.attr_store();
        let mut cycle_s = [0.0; 3];
        for phase in 0..3 {
            let start = Instant::now();
            let counts = if trace_cycle {
                router.run_phase(&inputs.bytes[phase], &mut ledgers[phase])
            } else {
                router.run_phase(&inputs.bytes[phase], &mut Off)
            }?;
            let secs = start.elapsed().as_secs_f64();
            cycle_s[phase] = secs;
            report.attempted += counts.msgs_in;
            report.failed += counts.failed;
            report.phases += 1;
            match router.check(PHASES[phase], &expect[phase], &counts) {
                Ok(n) => report.checks += n,
                Err(err) => report.fail(err),
            }
            let times = if trace_cycle { &mut traced } else { &mut plain };
            times[phase].push(secs);
            last[phase] = counts;
            if trace_cycle {
                bytes_out += router.out.len() as u64;
            }
            if phase == 0 {
                attr_entries = router.attr_store().0;
            }
        }
        let (_, hits1, misses1) = router.attr_store();
        attr_hits = (hits1 - hits0, misses1 - misses0);
        progress(cycle, trace_cycle, &cycle_s);
        if cycle == 0 {
            peak_mb = peak_rss_mb();
        }
        cycle += 1;
    }

    if !args.trace {
        report.metric("setup_s", median(&setup_s), "s");
        for phase in 0..3 {
            report.metric(
                TPS_NAMES[phase],
                expect[phase].transactions as f64 / median(&plain[phase]),
                "transactions/s",
            );
        }
        report.metric("peak_rss_mb", peak_mb, "MB");
        return Ok(report);
    }

    let cycles = traced[0].len() as f64;
    for phase in 0..3 {
        let l = &ledgers[phase];
        let c = &last[phase];
        let per = |layer: Layer, n: u64| ratio(l.ns[layer as usize] as f64, n as f64 * cycles);
        let traced_s: f64 = traced[phase].iter().sum();
        let layers = LayerTimes {
            decode_ns_per_msg: per(Layer::Decode, c.msgs_in),
            encode_ns_per_msg: per(Layer::Encode, c.msgs_out),
            rib_ns_per_prefix: per(Layer::Rib, c.prefixes),
            fib_ns_per_op: per(Layer::Fib, c.fib_ops),
            sync_ns_per_prefix: per(Layer::Sync, c.prefixes),
            packetize_ns_per_msg: per(Layer::Packetize, c.msgs_out),
            residual_pct: 100.0 * ratio(traced_s - l.total_ns() as f64 / 1e9, traced_s),
            overhead_pct: overhead_pct(&traced[phase], &plain[phase]),
            ..LayerTimes::default()
        };
        layers.report(&mut report, PHASES[phase]);
    }
    let sum = |f: fn(&PhaseCounts) -> u64| last.iter().map(f).sum::<u64>() as f64;
    let counts = LayerCounts {
        msgs_in: sum(|c| c.msgs_in),
        msgs_out: sum(|c| c.msgs_out),
        bytes_out: bytes_out as f64 / cycles,
        attr_hit_ratio: ratio(attr_hits.0 as f64, (attr_hits.0 + attr_hits.1) as f64),
        attr_entries: attr_entries as f64,
        fib_ops: sum(|c| c.fib_ops),
        prefixes_per_msg: ratio(sum(|c| c.exports), sum(|c| c.msgs_out)),
        memory: Some(memory_probe(&inputs.bytes[0], inputs.table_len)?),
        gen: median_gen(&gen_times),
        ..LayerCounts::default()
    };
    counts.report(&mut report);
    Ok(report)
}
