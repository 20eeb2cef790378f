//! `payments_inproc`: four honest servers in one thread, zero injected
//! delay, zipfian payments requested through the production `Shim`, every
//! block carried through the wire codec, every server journaling to disk,
//! and server 0 restarted from its journal after the run.
//!
//! The traced run swaps each `Shim` for [`Composed`], which calls the same
//! layer functions in the same order from this file, each inside a span.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use dagbft_bench::workload::{zipf_transfers, WorkloadConfig};
use dagbft_codec::WireEncode;
use dagbft_core::{
    BlockRef, GossipStats, InterpreterFootprint, Label, NetCommand, NetMessage, ProtocolConfig,
    RecoveryReport, Shim, ShimConfig, TimeMs, WaveStats,
};
use dagbft_crypto::{curve, sha256, KeyRegistry, ServerId};
use dagbft_protocols::{BrbIndication, Transfer};
use dagbft_store::FileStore;
use dagbft_transport::frame::{read_net_message, write_net_message};

use crate::common::{
    check_repeats, layer_seconds, median, median_latencies, metric, peak_rss_mb, ratio,
    repeat_episodes, seconds_of, secs, timed_setup, LayerTable, Outcome, Tracer,
};
use crate::composed::{settle, Composed, Payments, Server};

/// Honest servers in the cluster.
const SERVERS: usize = 4;
/// Transfers each server receives per round.
const PER_ROUND: usize = 16;
/// Rounds that carry new transfers; the total is
/// `SERVERS × PER_ROUND × LOAD_ROUNDS`.
const LOAD_ROUNDS: usize = 48;
/// Extra empty rounds allowed for the last transfers to reach delivery.
const MAX_TAIL_ROUNDS: usize = 32;
const ACCOUNTS: usize = 10_000;
const EXPONENT: f64 = 1.0;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

fn transfers_total() -> usize {
    SERVERS * PER_ROUND * LOAD_ROUNDS
}

/// Everything built before the timed phase.
struct Setup {
    keys: KeyRegistry,
    config: ShimConfig,
    workload: WorkloadConfig,
    transfers: Vec<Transfer>,
    index: HashMap<Label, usize>,
}

fn setup(seed: u64) -> Setup {
    let workload = WorkloadConfig {
        accounts: ACCOUNTS,
        transfers: transfers_total(),
        exponent: EXPONENT,
        seed,
    };
    let transfers = zipf_transfers(&workload);
    let index = transfers
        .iter()
        .enumerate()
        .map(|(i, t)| (t.label(), i))
        .collect();
    Setup {
        keys: KeyRegistry::generate_ed25519(SERVERS, seed),
        config: ShimConfig::new(ProtocolConfig::for_n(SERVERS)),
        workload,
        transfers,
        index,
    }
}

/// Machine-independent counts of one episode; they must repeat exactly
/// for one seed, traced or not.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    blocks: usize,
    validated: u64,
    verifies: u64,
    signs: u64,
    curve_ops: u64,
    envelopes: usize,
    resident_instances: usize,
    unique_instances: usize,
    journal_bytes: u64,
    replayed_blocks: usize,
    frames: u64,
    frame_bytes: u64,
    /// Digest of every server's indications (in delivery order) and DAG
    /// block refs (in insertion order).
    outputs: String,
}

struct Episode {
    run_s: f64,
    tps: f64,
    latencies_ms: Vec<f64>,
    recovery_s: f64,
    delivered_pairs: u64,
    counts: Counts,
    /// Traced episodes only.
    layers: Option<LayerTable>,
}

/// The benchmark-owned network: frames queued per receiver.
struct Net {
    inbox: Vec<Vec<(ServerId, Vec<u8>)>>,
    frames: u64,
    bytes: u64,
}

impl Net {
    fn route(&mut self, from: usize, commands: Vec<NetCommand>, tr: &mut Tracer) {
        for command in commands {
            let (targets, message): (Vec<usize>, NetMessage) = match command {
                NetCommand::Broadcast { message } => {
                    ((0..SERVERS).filter(|&to| to != from).collect(), message)
                }
                NetCommand::SendTo { to, message } => (vec![to.index()], message),
            };
            for to in targets {
                let mut frame = Vec::with_capacity(message.wire_len() + 5);
                tr.leaf("codec.encode", || write_net_message(&mut frame, &message))
                    .expect("writing to memory cannot fail");
                self.frames += 1;
                self.bytes += frame.len() as u64;
                self.inbox[to].push((ServerId::new(from as u32), frame));
            }
        }
    }
}

/// Request times and the indications seen so far.
struct Tally {
    requested_at: Vec<Option<Instant>>,
    latencies_ms: Vec<f64>,
    delivered: Vec<Vec<(Label, Transfer)>>,
    /// Servers that delivered each transfer.
    servers_done: Vec<usize>,
    /// Transfers delivered at every server.
    everywhere: usize,
}

impl Tally {
    /// Takes `server`'s new indications, timing each against its request.
    fn collect(
        &mut self,
        index: usize,
        server: &mut dyn Server,
        setup: &Setup,
        outcome: &mut Outcome,
    ) {
        let at = Instant::now();
        for (label, BrbIndication::Deliver(transfer)) in server.poll() {
            let known = setup.index.get(&label).copied();
            match known.and_then(|i| self.requested_at[i].map(|t| (i, t))) {
                Some((i, requested)) => {
                    self.latencies_ms.push(secs(at - requested) * 1e3);
                    self.servers_done[i] += 1;
                    if self.servers_done[i] == SERVERS {
                        self.everywhere += 1;
                    }
                }
                None => outcome.check(false, || {
                    format!("server {index} delivered unrequested label {}", label.id())
                }),
            }
            self.delivered[index].push((label, transfer));
        }
    }
}

fn store_dir(root: &Path, server: usize) -> PathBuf {
    root.join(format!("server{server}"))
}

fn open_store(dir: &Path) -> FileStore {
    FileStore::open_dir(dir).expect("journal directory opens")
}

/// Runs one episode on servers journaling under the scratch directory
/// `root` (emptied before and after); a traced episode's spans are
/// written beside it.
fn episode(setup: &Setup, root: &Path, traced: bool, outcome: &mut Outcome) -> Episode {
    let _ = std::fs::remove_dir_all(root);
    let keys = &setup.keys;
    let mut tr = Tracer::new(traced);
    let crypto_before = (
        keys.metrics().verifies(),
        keys.metrics().signs(),
        keys.metrics().batches(),
        keys.metrics().batched_verifies(),
        curve::ops_snapshot().total(),
    );

    let mut servers: Vec<Box<dyn Server>> = (0..SERVERS)
        .map(|i| {
            let me = ServerId::new(i as u32);
            let store = open_store(&store_dir(root, i));
            if traced {
                Box::new(Composed::new(me, setup.config, keys, Some(store))) as Box<dyn Server>
            } else {
                // `spawn_node_with_store`'s configuration: a shim recovered
                // from its (here empty) journal, journaling from then on.
                let (shim, _) =
                    Shim::<Payments>::recover_from_store(me, setup.config, keys, Box::new(store))
                        .expect("empty journal recovers");
                Box::new(shim)
            }
        })
        .collect();

    let total = setup.transfers.len();
    let mut tally = Tally {
        requested_at: vec![None; total],
        latencies_ms: Vec::with_capacity(total * SERVERS),
        delivered: (0..SERVERS).map(|_| Vec::with_capacity(total)).collect(),
        servers_done: vec![0; total],
        everywhere: 0,
    };
    let mut net = Net {
        inbox: vec![Vec::new(); SERVERS],
        frames: 0,
        bytes: 0,
    };

    let started = Instant::now();
    let mut round = 0usize;
    loop {
        tr.round = round as u64;
        let round_span = tr.enter("bench.round");
        let now = round as TimeMs;
        if round < LOAD_ROUNDS {
            for (s, server) in servers.iter_mut().enumerate() {
                for k in 0..PER_ROUND {
                    let i = (round * SERVERS + s) * PER_ROUND + k;
                    let id = tr.enter("bench.request");
                    tally.requested_at[i] = Some(Instant::now());
                    server.request(&setup.transfers[i], &mut tr);
                    tr.exit(id);
                }
            }
        }
        for (s, server) in servers.iter_mut().enumerate() {
            let id = tr.enter("bench.seal");
            let commands = server.disseminate(now, &mut tr);
            net.route(s, commands, &mut tr);
            tally.collect(s, server.as_mut(), setup, outcome);
            tr.exit(id);
        }
        for (r, server) in servers.iter_mut().enumerate() {
            let id = tr.enter("bench.receive");
            let frames = std::mem::take(&mut net.inbox[r]);
            let messages: Vec<(ServerId, NetMessage)> = frames
                .iter()
                .map(|(from, frame)| {
                    let message = tr
                        .leaf("codec.decode", || read_net_message(&mut frame.as_slice()))
                        .expect("frames written by this benchmark decode");
                    (*from, message)
                })
                .collect();
            let commands = server.burst(messages, now, &mut tr);
            net.route(r, commands, &mut tr);
            tally.collect(r, server.as_mut(), setup, outcome);
            tr.exit(id);
        }
        tr.exit(round_span);
        round += 1;
        let done = round >= LOAD_ROUNDS && tally.everywhere == total;
        if done || round >= LOAD_ROUNDS + MAX_TAIL_ROUNDS {
            break;
        }
    }
    let run_s = secs(started.elapsed());

    // Outputs: every transfer delivered once at every server, the same set
    // everywhere, and that set settles in a fresh ledger.
    let expected: BTreeSet<Label> = setup.index.keys().copied().collect();
    let mut fingerprint = Vec::new();
    for (s, list) in tally.delivered.iter().enumerate() {
        let labels: BTreeSet<Label> = list.iter().map(|(l, _)| *l).collect();
        outcome.check(labels.len() == list.len(), || {
            format!("server {s} delivered a transfer twice")
        });
        outcome.check(labels == expected, || {
            format!(
                "server {s} delivered {} of {} transfers",
                labels.len(),
                expected.len()
            )
        });
        for (label, transfer) in list {
            label.id().encode(&mut fingerprint);
            transfer.encode(&mut fingerprint);
        }
        for block_ref in servers[s].dag().refs() {
            fingerprint.extend_from_slice(block_ref.as_bytes());
        }
    }
    let settled = settle(
        &setup.workload,
        tally.delivered[0].iter().map(|(_, t)| t.clone()).collect(),
    );
    outcome.check(settled == total, || {
        format!("ledger settled {settled} of {total} transfers")
    });

    let mut footprint = InterpreterFootprint::default();
    let mut waves = WaveStats::default();
    for s in &servers {
        footprint += s.footprint();
        waves.merge(s.gossip().wave_stats());
    }
    let stats: Vec<GossipStats> = servers.iter().map(|s| *s.gossip().stats()).collect();
    let journal_bytes: u64 = (0..SERVERS)
        .map(|i| std::fs::metadata(store_dir(root, i).join("journal.log")).map_or(0, |m| m.len()))
        .sum();
    let m = keys.metrics();
    let verifies = m.verifies() - crypto_before.0;
    let signs = m.signs() - crypto_before.1;
    let batches = m.batches() - crypto_before.2;
    let batched = m.batched_verifies() - crypto_before.3;
    let curve_ops = curve::ops_snapshot().total() - crypto_before.4;

    // Crash server 0 and restart it from its on-disk journal.
    let pre_crash: Vec<BlockRef> = servers[0].dag().refs().copied().collect();
    let delivered_at_zero: BTreeSet<Label> = tally.delivered[0].iter().map(|(l, _)| *l).collect();
    let blocks: usize = servers.iter().map(|s| s.dag().len()).sum();
    drop(servers);
    let recovery_started = Instant::now();
    let store = tr.leaf("store.open", || open_store(&store_dir(root, 0)));
    let (mut recovered, report): (Shim<Payments>, RecoveryReport) =
        tr.leaf("recovery.replay", || {
            Shim::recover_from_store(ServerId::new(0), setup.config, keys, Box::new(store))
                .expect("journal recovers")
        });
    let recovery_s = secs(recovery_started.elapsed());
    let post: Vec<BlockRef> = recovered.dag().refs().copied().collect();
    outcome.check(post == pre_crash, || {
        format!(
            "recovered DAG has {} blocks, pre-crash {}",
            post.len(),
            pre_crash.len()
        )
    });
    let replayed: BTreeSet<Label> = recovered
        .poll_indications()
        .into_iter()
        .map(|(l, _)| l)
        .collect();
    outcome.check(replayed == delivered_at_zero, || {
        format!(
            "recovery re-delivered {} of {} transfers",
            replayed.len(),
            delivered_at_zero.len()
        )
    });
    drop(recovered);
    let _ = std::fs::remove_dir_all(root);

    let validated: u64 = stats.iter().map(|s| s.blocks_validated).sum();
    let counts = Counts {
        blocks,
        validated,
        verifies,
        signs,
        curve_ops,
        envelopes: footprint.out_envelopes + footprint.in_envelopes,
        resident_instances: footprint.instances,
        unique_instances: footprint.unique_instances,
        journal_bytes,
        replayed_blocks: report.replayed_blocks,
        frames: net.frames,
        frame_bytes: net.bytes,
        outputs: sha256(&fingerprint).to_hex(),
    };

    let layers = traced.then(|| {
        tr.write_jsonl(&root.with_file_name("payments_inproc.spans.jsonl"));
        let totals = tr.self_seconds();
        let n = total as f64;
        let received: u64 = stats.iter().map(|s| s.blocks_received).sum();
        let built: u64 = stats.iter().map(|s| s.blocks_built).sum();
        let flushes = 2 * round * SERVERS; // journal sync + own-tip write per seal
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
        t.put("interpret.late_over_early", late_over_early(&tr, round));
        t.put("gossip.admit_s", seconds_of(&totals, &["gossip.admit"]));
        t.put(
            "gossip.useful_ratio",
            ratio(validated as f64, received as f64),
        );
        t.put("gossip.mean_wave", waves.mean_wave());
        let peak = stats.iter().map(|s| s.pending_peak).max().unwrap_or(0);
        t.put("gossip.pending_peak", peak as f64);
        t.put("gossip.seal_s", seconds_of(&totals, &["gossip.seal"]));
        t.put("gossip.requests_per_block", ratio(n, built as f64));
        t.put(
            "crypto.verifies_per_block",
            ratio(verifies as f64, validated as f64),
        );
        t.put("crypto.batch_mean", ratio(batched as f64, batches as f64));
        t.put(
            "crypto.curve_ops_per_block",
            ratio(curve_ops as f64, validated as f64),
        );
        t.put("crypto.signs", signs as f64);
        t.put("codec.decode_s", seconds_of(&totals, &["codec.decode"]));
        t.put("codec.encode_s", seconds_of(&totals, &["codec.encode"]));
        t.put("codec.bytes_per_transfer", net.bytes as f64 / n);
        t.put("store.append_s", seconds_of(&totals, &["store.append"]));
        t.put("store.sync_s", seconds_of(&totals, &["store.sync"]));
        t.put("store.bytes_per_transfer", journal_bytes as f64 / n);
        t.put("store.syncs_per_transfer", flushes as f64 / n);
        t.put("store.open_s", seconds_of(&totals, &["store.open"]));
        t.put(
            "recovery.replay_s",
            seconds_of(&totals, &["recovery.replay"]),
        );
        t.put("recovery.replayed_blocks", report.replayed_blocks as f64);
        t.put("transport.msgs_per_transfer", net.frames as f64 / n);
        t.put("transport.bytes_per_transfer", net.bytes as f64 / n);
        let in_run =
            layer_seconds(&totals) - seconds_of(&totals, &["store.open", "recovery.replay"]);
        t.put("trace.coverage", in_run / run_s);
        t
    });

    Episode {
        run_s,
        tps: tally.everywhere as f64 / run_s,
        latencies_ms: tally.latencies_ms,
        recovery_s,
        delivered_pairs: tally.delivered.iter().map(|d| d.len() as u64).sum(),
        counts,
        layers,
    }
}

/// Per-block `Interpreter::step` time over the last quarter of load rounds
/// divided by that over the first quarter: how much dearer a block gets
/// to interpret as history accumulates.
fn late_over_early(tr: &Tracer, rounds: usize) -> f64 {
    let mut per_round = vec![(0.0, 0u64); rounds];
    for span in tr.spans().iter().filter(|s| s.name == "interpret.step") {
        let slot = &mut per_round[span.round as usize];
        slot.0 += (span.end_ns - span.start_ns) as f64 * 1e-9;
        slot.1 += span.items;
    }
    let per_block = |rounds: &[(f64, u64)]| {
        let (seconds, blocks) = rounds
            .iter()
            .fold((0.0, 0u64), |(s, b), (rs, rb)| (s + rs, b + rb));
        ratio(seconds, blocks as f64)
    };
    let quarter = LOAD_ROUNDS / 4;
    ratio(
        per_block(&per_round[LOAD_ROUNDS - quarter..LOAD_ROUNDS]),
        per_block(&per_round[..quarter]),
    )
}

/// Runs the workload for `seconds` (see [`repeat_episodes`]).
pub fn run(seed: u64, seconds: f64, traced: bool, data: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    let (setup_s, setup) = timed_setup(SETUP_REPEATS, || setup(seed));
    let root = data.join(format!("payments_inproc-{}", std::process::id()));
    let episodes = repeat_episodes(seconds, traced, |trace_this| {
        episode(&setup, &root, trace_this, &mut outcome)
    });
    let counts: Vec<&Counts> = episodes.iter().map(|e| &e.counts).collect();
    check_repeats(&counts, &mut outcome);
    let first = counts[0].clone();
    let pairs = (setup.transfers.len() * SERVERS) as u64;
    outcome.attempted = pairs * episodes.len() as u64;
    outcome.failed = episodes
        .iter()
        .map(|ep| pairs - ep.delivered_pairs.min(pairs))
        .sum();

    let (traced_eps, untraced): (Vec<&Episode>, Vec<&Episode>) =
        episodes.iter().skip(1).partition(|e| e.layers.is_some());
    let samples: usize = untraced.iter().map(|e| e.latencies_ms.len()).sum();
    let (p50, p99) = median_latencies(untraced.iter().map(|e| &e.latencies_ms), &mut outcome);
    let tps: Vec<f64> = untraced.iter().map(|e| e.tps).collect();
    let blocks_per_s: Vec<f64> = untraced
        .iter()
        .map(|e| first.validated as f64 / e.run_s)
        .collect();
    let recovery: Vec<f64> = untraced.iter().map(|e| e.recovery_s).collect();

    outcome.notes.push(format!(
        "payments_inproc: {} transfers x {SERVERS} servers per episode, {} episodes ({} traced), \
         {samples} untraced latency samples, cores {}",
        setup.transfers.len(),
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
        "episode run_s {:?}",
        episodes
            .iter()
            .map(|e| (e.layers.is_some(), e.run_s))
            .collect::<Vec<_>>()
    ));

    if traced {
        let mut table = LayerTable::default();
        for ep in &traced_eps {
            table.absorb(ep.layers.as_ref().expect("traced episode"));
        }
        let run_s = |eps: &[&Episode]| median(&eps.iter().map(|e| e.run_s).collect::<Vec<_>>());
        table.put("trace.overhead", run_s(&traced_eps) / run_s(&untraced));
        outcome.metrics = table.metrics();
    } else {
        outcome.metrics = vec![
            metric("setup_s", setup_s, "s"),
            metric("tps", median(&tps), "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_p99_ms", p99, "ms"),
            metric("catchup_blocks_per_s", median(&blocks_per_s), "1/s"),
            metric("recovery_s", median(&recovery), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
    }
    outcome
}
