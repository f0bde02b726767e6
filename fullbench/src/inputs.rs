//! The seeded workload every stack runs: a modern table, its bursty
//! update train, and the withdrawal of what the train left standing.

use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::time::Instant;

use bgpbench_speaker::workload::{self, AnnounceSpec};
use bgpbench_speaker::{ModernInternetSource, WorkloadSource};
use bgpbench_wire::{Asn, Message, Prefix, UpdateMessage};

/// The upstream peer's AS (speaker 1).
pub const UPSTREAM_ASN: Asn = Asn(65001);
/// The upstream peer's NEXT_HOP on the pipeline and in the simulator.
pub const UPSTREAM_HOP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// The router's own AS, prepended on export.
pub const LOCAL_ASN: Asn = Asn(65000);
/// The next hop the router advertises downstream.
pub const EXPORT_HOP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Prefixes per exported UPDATE (the daemon's default).
pub const EXPORT_PREFIXES_PER_UPDATE: usize = 500;

/// The three timed phases, in the order a cycle runs them.
pub const PHASES: [&str; 3] = ["table", "churn", "withdraw"];

/// One workload's generated inputs.
pub struct Inputs {
    /// Prefixes in the table.
    pub table_len: usize,
    /// UPDATEs of each phase, in [`PHASES`] order.
    pub updates: [Vec<UpdateMessage>; 3],
    /// The same UPDATEs, encoded back to back.
    pub bytes: [Vec<u8>; 3],
    /// Time spent in each generation step.
    pub times: GenTimes,
}

/// Host seconds spent producing the inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenTimes {
    /// `WorkloadSource::table` and `announcements`.
    pub table_s: f64,
    /// `WorkloadSource::update_train`.
    pub train_s: f64,
    /// `WorkloadSource::withdrawals` of what the train left standing.
    pub withdraw_s: f64,
    /// `Message::encode` of every UPDATE.
    pub encode_s: f64,
}

impl Inputs {
    /// Adds the workload's make-up to the run record.
    pub fn record_sizes(&self, report: &mut crate::report::Report) {
        report.record("size.table_prefixes", self.table_len);
        for (phase, name) in PHASES.iter().enumerate() {
            let updates = &self.updates[phase];
            report.record(
                format!("size.{name}"),
                format!(
                    "{} UPDATEs, {} prefixes ({} withdrawn), {} bytes",
                    updates.len(),
                    self.transactions(phase),
                    updates.iter().map(|u| u.withdrawn().len()).sum::<usize>(),
                    self.bytes[phase].len()
                ),
            );
        }
    }

    /// Prefix-level transactions in phase `phase`.
    pub fn transactions(&self, phase: usize) -> u64 {
        workload::transaction_count(&self.updates[phase]) as u64
    }
}

/// Generates the workload of `seed`: `prefixes` modern prefixes,
/// packed `per_update` to an UPDATE, through the speaker crate's
/// public [`WorkloadSource`] calls.
pub fn generate(seed: u64, prefixes: usize, per_update: usize) -> Result<Inputs, String> {
    let mut source = ModernInternetSource::new(seed);
    let spec = AnnounceSpec {
        speaker_asn: UPSTREAM_ASN,
        path_len: 3,
        next_hop: UPSTREAM_HOP,
        prefixes_per_update: per_update,
        seed,
    };
    let start = Instant::now();
    let table = source.table(prefixes);
    let announce = source.announcements(&table, &spec);
    let table_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let train = source.update_train(&table, &spec);
    let train_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let standing = standing_after(&table, &train);
    let withdraw = source.withdrawals(&standing, per_update);
    let withdraw_s = start.elapsed().as_secs_f64();

    let updates = [announce, train, withdraw];
    let start = Instant::now();
    let mut bytes: [Vec<u8>; 3] = Default::default();
    for (out, phase) in bytes.iter_mut().zip(&updates) {
        for update in phase {
            let encoded = Message::Update(update.clone())
                .encode()
                .map_err(|err| format!("encoding a generated UPDATE failed: {err}"))?;
            out.extend_from_slice(&encoded);
        }
    }
    let encode_s = start.elapsed().as_secs_f64();
    Ok(Inputs {
        table_len: table.len(),
        updates,
        bytes,
        times: GenTimes {
            table_s,
            train_s,
            withdraw_s,
            encode_s,
        },
    })
}

/// The table's prefixes the train leaves announced, in table order:
/// what the withdraw phase has to take away.
fn standing_after(table: &[Prefix], train: &[UpdateMessage]) -> Vec<Prefix> {
    let mut gone: HashSet<Prefix> = HashSet::new();
    for update in train {
        for prefix in update.withdrawn() {
            gone.insert(*prefix);
        }
        for prefix in update.nlri() {
            gone.remove(prefix);
        }
    }
    table
        .iter()
        .copied()
        .filter(|p| !gone.contains(p))
        .collect()
}
