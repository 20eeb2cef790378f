//! `catchup_burst`: a fresh server admits a long, pre-built, pre-signed
//! 4-builder DAG arriving as framed wire bytes in fixed-size bursts,
//! shuffled within each burst. Most blocks are empty; a handful carry a
//! transfer. The catching-up server seals one (empty) own block per burst
//! — without own blocks its BRB instances never step, so it would never
//! deliver the transfers the DAG carries.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use dagbft_bench::workload::{zipf_transfers, WorkloadConfig};
use dagbft_codec::WireEncode;
use dagbft_core::{
    Block, InterpreterFootprint, Label, LabeledRequest, NetMessage, ProtocolConfig, SeqNum, Shim,
    ShimConfig, TimeMs,
};
use dagbft_crypto::{curve, sha256, KeyRegistry, ServerId};
use dagbft_protocols::{BrbIndication, BrbRequest, Transfer};
use dagbft_transport::frame::{read_net_message, write_net_message};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::common::{
    check_repeats, layer_seconds, median, median_latencies, metric, peak_rss_mb, ratio,
    repeat_episodes, seconds_of, secs, timed_setup, LayerTable, Outcome, Tracer,
};
use crate::composed::{settle, Composed, Payments, Server};

/// Builders of the pre-built DAG.
const BUILDERS: usize = 4;
/// The catching-up server's id (the cluster has `BUILDERS + 1` servers).
const OBSERVER: usize = BUILDERS;
/// DAG rounds; every builder has one block per round.
const ROUNDS: usize = 1024;
/// Transfers carried by the DAG, one per block, every `TRANSFER_STRIDE`
/// rounds starting at round `TRANSFER_START` (all in the first half, so
/// every one reaches delivery during the catch-up).
const TRANSFERS: usize = 32;
const TRANSFER_START: usize = 8;
const TRANSFER_STRIDE: usize = 16;
/// Frames per ingest burst.
const BURST: usize = 256;
/// Own blocks sealed after the last burst so the last quorums land.
const FLUSH_SEALS: usize = 3;
const ACCOUNTS: usize = 10_000;
const SETUP_REPEATS: usize = 3;

struct Setup {
    keys: KeyRegistry,
    config: ShimConfig,
    workload: WorkloadConfig,
    transfers: Vec<Transfer>,
    /// Framed blocks per burst, already shuffled: `(claimed sender, frame)`.
    bursts: Vec<Vec<(ServerId, Vec<u8>)>>,
    blocks: usize,
}

fn setup(seed: u64) -> Setup {
    let keys = KeyRegistry::generate_ed25519(BUILDERS + 1, seed);
    let workload = WorkloadConfig {
        accounts: ACCOUNTS,
        transfers: TRANSFERS,
        exponent: 1.0,
        seed,
    };
    let transfers = zipf_transfers(&workload);
    let signers: Vec<_> = (0..BUILDERS)
        .map(|i| {
            keys.signer(ServerId::new(i as u32))
                .expect("registry covers builders")
        })
        .collect();
    let mut frames = Vec::with_capacity(ROUNDS * BUILDERS);
    let mut preds = Vec::new();
    for round in 0..ROUNDS {
        let mut layer = Vec::with_capacity(BUILDERS);
        for (builder, signer) in signers.iter().enumerate() {
            let slot = round
                .checked_sub(TRANSFER_START)
                .filter(|r| r % TRANSFER_STRIDE == 0)
                .map(|r| r / TRANSFER_STRIDE * BUILDERS + builder)
                .filter(|&i| i < TRANSFERS);
            let requests: Vec<LabeledRequest> = slot
                .map(|i| {
                    let t = &transfers[i];
                    LabeledRequest::encode(t.label(), &BrbRequest::Broadcast(t.clone()))
                })
                .into_iter()
                .collect();
            let block = Block::build(
                ServerId::new(builder as u32),
                SeqNum::new(round as u64),
                preds.clone(),
                requests,
                signer,
            );
            layer.push(block.block_ref());
            let mut frame = Vec::with_capacity(block.wire_len() + 5);
            write_net_message(&mut frame, &NetMessage::Block(block))
                .expect("writing to memory cannot fail");
            frames.push((ServerId::new(builder as u32), frame));
        }
        preds = layer;
    }
    let blocks = frames.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bursts: Vec<Vec<(ServerId, Vec<u8>)>> = Vec::new();
    let mut frames = frames.into_iter().peekable();
    while frames.peek().is_some() {
        let mut burst: Vec<_> = frames.by_ref().take(BURST).collect();
        burst.shuffle(&mut rng);
        bursts.push(burst);
    }
    Setup {
        keys,
        config: ShimConfig::new(ProtocolConfig::for_n(BUILDERS + 1)),
        workload,
        transfers,
        bursts,
        blocks,
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    validated: u64,
    verifies: u64,
    curve_ops: u64,
    envelopes: usize,
    resident_instances: usize,
    unique_instances: usize,
    /// Digest of the server's indications (delivery order) and DAG refs
    /// (insertion order).
    outputs: String,
}

struct Episode {
    catchup_s: f64,
    latencies_ms: Vec<f64>,
    admitted: u64,
    counts: Counts,
    layers: Option<LayerTable>,
}

fn episode(setup: &Setup, traced: bool, data: &Path, outcome: &mut Outcome) -> Episode {
    let keys = &setup.keys;
    let me = ServerId::new(OBSERVER as u32);
    let mut tr = Tracer::new(traced);
    let before = (
        keys.metrics().verifies(),
        keys.metrics().batches(),
        keys.metrics().batched_verifies(),
        curve::ops_snapshot().total(),
    );
    let mut server: Box<dyn Server> = if traced {
        Box::new(Composed::new(me, setup.config, keys, None))
    } else {
        Box::new(
            Shim::<Payments>::new(me, setup.config, keys).expect("registry covers the observer"),
        )
    };

    let mut delivered: Vec<(Label, Transfer)> = Vec::new();
    let mut latencies_ms = Vec::with_capacity(setup.blocks);
    let mut decoded_bytes = 0u64;
    let started = Instant::now();
    let mut now: TimeMs = 0;
    for burst in &setup.bursts {
        tr.round = now;
        let burst_span = tr.enter("bench.burst");
        let arrived = Instant::now();
        let messages: Vec<(ServerId, NetMessage)> = burst
            .iter()
            .map(|(from, frame)| {
                decoded_bytes += frame.len() as u64;
                let message = tr
                    .leaf("codec.decode", || read_net_message(&mut frame.as_slice()))
                    .expect("frames built in set-up decode");
                (*from, message)
            })
            .collect();
        let commands = server.burst(messages, now, &mut tr);
        let admitted_ms = secs(arrived.elapsed()) * 1e3;
        latencies_ms.extend(std::iter::repeat_n(admitted_ms, burst.len()));
        outcome.check(commands.is_empty(), || {
            format!(
                "burst at {now} asked the network for {} messages",
                commands.len()
            )
        });
        // The own block goes nowhere: this server is the only one running.
        server.disseminate(now, &mut tr);
        collect(server.as_mut(), &mut delivered);
        tr.exit(burst_span);
        now += 1;
    }
    for _ in 0..FLUSH_SEALS {
        tr.round = now;
        let id = tr.enter("bench.flush");
        server.disseminate(now, &mut tr);
        collect(server.as_mut(), &mut delivered);
        tr.exit(id);
        now += 1;
    }
    let catchup_s = secs(started.elapsed());

    // Outputs: every block admitted, none rejected, every transfer the DAG
    // carries delivered once, and they settle.
    let stats = *server.gossip().stats();
    outcome.check(stats.blocks_validated == setup.blocks as u64, || {
        format!(
            "admitted {} of {} blocks",
            stats.blocks_validated, setup.blocks
        )
    });
    outcome.check(
        stats.invalid_blocks == 0 && server.gossip().rejected().is_empty(),
        || format!("{} blocks rejected", stats.invalid_blocks),
    );
    outcome.check(server.gossip().pending_len() == 0, || {
        format!("{} blocks still pending", server.gossip().pending_len())
    });
    let labels: BTreeSet<Label> = delivered.iter().map(|(l, _)| *l).collect();
    let expected: BTreeSet<Label> = setup.transfers.iter().map(Transfer::label).collect();
    outcome.check(
        labels == expected && labels.len() == delivered.len(),
        || {
            format!(
                "delivered {} of {} transfers",
                delivered.len(),
                expected.len()
            )
        },
    );
    let settled = settle(
        &setup.workload,
        delivered.iter().map(|(_, t)| t.clone()).collect(),
    );
    outcome.check(settled == TRANSFERS, || {
        format!("ledger settled {settled} of {TRANSFERS}")
    });

    let mut fingerprint = Vec::new();
    for (label, transfer) in &delivered {
        label.id().encode(&mut fingerprint);
        transfer.encode(&mut fingerprint);
    }
    for block_ref in server.dag().refs() {
        fingerprint.extend_from_slice(block_ref.as_bytes());
    }
    let footprint: InterpreterFootprint = server.footprint();
    let m = keys.metrics();
    let verifies = m.verifies() - before.0;
    let batches = m.batches() - before.1;
    let batched = m.batched_verifies() - before.2;
    let curve_ops = curve::ops_snapshot().total() - before.3;
    let counts = Counts {
        validated: stats.blocks_validated,
        verifies,
        curve_ops,
        envelopes: footprint.out_envelopes + footprint.in_envelopes,
        resident_instances: footprint.instances,
        unique_instances: footprint.unique_instances,
        outputs: sha256(&fingerprint).to_hex(),
    };

    let layers = traced.then(|| {
        let totals = tr.self_seconds();
        let waves = server.gossip().wave_stats();
        let blocks = stats.blocks_validated as f64;
        let mut t = LayerTable::default();
        t.put("interpret.step_s", seconds_of(&totals, &["interpret.step"]));
        t.put(
            "interpret.drain_s",
            seconds_of(&totals, &["interpret.drain"]),
        );
        t.put("interpret.resident_instances", footprint.instances as f64);
        t.put(
            "interpret.unique_instances",
            footprint.unique_instances as f64,
        );
        t.put("interpret.envelopes", counts.envelopes as f64);
        t.put("gossip.admit_s", seconds_of(&totals, &["gossip.admit"]));
        t.put(
            "gossip.useful_ratio",
            ratio(blocks, stats.blocks_received as f64),
        );
        t.put("gossip.mean_wave", waves.mean_wave());
        t.put("gossip.pending_peak", stats.pending_peak as f64);
        t.put("gossip.seal_s", seconds_of(&totals, &["gossip.seal"]));
        t.put("crypto.verifies_per_block", ratio(verifies as f64, blocks));
        t.put("crypto.batch_mean", ratio(batched as f64, batches as f64));
        t.put(
            "crypto.curve_ops_per_block",
            ratio(curve_ops as f64, blocks),
        );
        t.put("crypto.signs", stats.blocks_built as f64);
        t.put("codec.decode_s", seconds_of(&totals, &["codec.decode"]));
        t.put(
            "codec.bytes_per_transfer",
            decoded_bytes as f64 / TRANSFERS as f64,
        );
        t.put("trace.coverage", layer_seconds(&totals) / catchup_s);
        tr.write_jsonl(&data.join("catchup_burst.spans.jsonl"));
        t
    });

    Episode {
        catchup_s,
        latencies_ms,
        admitted: stats.blocks_validated,
        counts,
        layers,
    }
}

fn collect(server: &mut dyn Server, delivered: &mut Vec<(Label, Transfer)>) {
    delivered.extend(
        server
            .poll()
            .into_iter()
            .map(|(label, BrbIndication::Deliver(t))| (label, t)),
    );
}

/// Runs catch-ups for `seconds` (see [`repeat_episodes`]).
pub fn run(seed: u64, seconds: f64, traced: bool, data: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    let (setup_s, setup) = timed_setup(SETUP_REPEATS, || setup(seed));
    let episodes = repeat_episodes(seconds, traced, |trace_this| {
        episode(&setup, trace_this, data, &mut outcome)
    });
    let counts: Vec<&Counts> = episodes.iter().map(|e| &e.counts).collect();
    check_repeats(&counts, &mut outcome);
    let first = counts[0].clone();
    let blocks = setup.blocks as u64;
    outcome.attempted = blocks * episodes.len() as u64;
    outcome.failed = episodes
        .iter()
        .map(|ep| blocks - ep.admitted.min(blocks))
        .sum();

    let (traced_eps, untraced): (Vec<&Episode>, Vec<&Episode>) =
        episodes.iter().skip(1).partition(|e| e.layers.is_some());
    let (p50, p99) = median_latencies(untraced.iter().map(|e| &e.latencies_ms), &mut outcome);
    let catchup_s = median(&untraced.iter().map(|e| e.catchup_s).collect::<Vec<_>>());
    outcome.notes.push(format!(
        "catchup_burst: {} blocks in bursts of {BURST}, {TRANSFERS} transfers, {} catch-ups \
         ({} traced), cores {}",
        setup.blocks,
        episodes.len(),
        traced_eps.len(),
        dagbft_bench::cores()
    ));
    outcome.notes.push(format!(
        "failed_ratio {}",
        ratio(outcome.failed as f64, outcome.attempted as f64)
    ));
    outcome.notes.push(format!("counts {first:?}"));
    outcome.notes.push(format!(
        "catch-up seconds {:?}",
        episodes
            .iter()
            .map(|e| (e.layers.is_some(), e.catchup_s))
            .collect::<Vec<_>>()
    ));

    if traced {
        let mut table = LayerTable::default();
        for ep in &traced_eps {
            table.absorb(ep.layers.as_ref().expect("traced catch-up"));
        }
        let traced_s = median(&traced_eps.iter().map(|e| e.catchup_s).collect::<Vec<_>>());
        table.put("trace.overhead", traced_s / catchup_s);
        outcome.metrics = table.metrics();
    } else {
        outcome.metrics = vec![
            metric("setup_s", setup_s, "s"),
            metric("tps", TRANSFERS as f64 / catchup_s, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_p99_ms", p99, "ms"),
            metric(
                "catchup_blocks_per_s",
                setup.blocks as f64 / catchup_s,
                "1/s",
            ),
            metric("recovery_s", catchup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
    }
    outcome
}
