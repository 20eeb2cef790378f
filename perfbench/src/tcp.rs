//! `tcp_loopback`: four nodes on loopback TCP, each a `TcpTransport` plus
//! the `spawn_node` event loop with ed25519 keys and the default
//! `NodeConfig` pacing (50 ms seal timer). One generator sends open-loop
//! zipfian transfers round-robin over the nodes at a fixed rate; every
//! request is timed from when it was due.

use std::collections::{BTreeSet, HashMap};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dagbft_bench::workload::{zipf_transfers, WorkloadConfig};
use dagbft_core::{Label, ProtocolConfig, Shim, ShimConfig};
use dagbft_crypto::{KeyRegistry, ServerId};
use dagbft_metrics::scrape;
use dagbft_protocols::{AccountId, BrbIndication, BrbRequest, Transfer};
use dagbft_transport::{spawn_node, NodeConfig, NodeHandle, TcpTransport};

use crate::common::{
    latency_summary, median, metric, peak_rss_mb, ratio, seconds_of, secs, LayerTable, Outcome,
    Tracer,
};
use crate::composed::{settle, Payments};

const NODES: usize = 4;
/// Offered load in transfers per second: a third of the lowest rate where
/// the tail started to grow (600/s on two cores; throughput saturates
/// near 950/s), so the seal timer, not a queue, sets latency.
const RATE_PER_S: f64 = 200.0;
const ACCOUNTS: usize = 10_000;
/// Cluster starts per run. `setup_s` is their median; `recovery_s`, the
/// cold-start gap, is their mean — the gap falls on one of a few 50 ms
/// timer quanta, so a median flips between quanta from run to run.
const SETUP_REPEATS: usize = 9;
/// How long the cluster may take to deliver the last transfer once the
/// generator has stopped before the run counts the rest as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// A running cluster.
struct Cluster {
    keys: KeyRegistry,
    config: ShimConfig,
    nodes: Vec<NodeHandle<Payments>>,
    spawned: Instant,
}

impl Cluster {
    fn stop(self) -> (Vec<Shim<Payments>>, f64) {
        let shims = self.nodes.into_iter().map(NodeHandle::stop).collect();
        (shims, secs(self.spawned.elapsed()))
    }
}

/// The transfer that proves every connection is up before the run: its
/// sender lies outside the workload's accounts, so its label is fresh.
fn warmup_transfer() -> Transfer {
    Transfer {
        from: AccountId(ACCOUNTS as u32),
        to: AccountId(0),
        amount: 1,
        seq: 0,
    }
}

/// Binds and spawns the cluster, then waits until a warm-up transfer is
/// delivered everywhere. Returns the cluster and its cold-start gap:
/// seconds from spawning the nodes to that first delivery at all of them.
fn start_cluster(seed: u64, metrics: bool) -> (Cluster, f64) {
    let keys = KeyRegistry::generate_ed25519(NODES, seed);
    let config = ShimConfig::new(ProtocolConfig::for_n(NODES));
    // Learn free ports, release them, then bind every transport before any
    // node starts, so connection attempts find their peers listening.
    let probes: Vec<TcpListener> = (0..NODES)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("loopback bind"))
        .collect();
    let addrs: Vec<SocketAddr> = probes
        .iter()
        .map(|l| l.local_addr().expect("bound address"))
        .collect();
    drop(probes);
    let transports: Vec<TcpTransport> = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            TcpTransport::bind(ServerId::new(i as u32), *addr, addrs.clone())
                .expect("loopback transport binds")
        })
        .collect();
    let mut node_config = NodeConfig::default();
    if metrics {
        node_config = node_config.with_metrics_addr("127.0.0.1:0".parse().expect("address"));
    }
    let spawned = Instant::now();
    let nodes: Vec<NodeHandle<Payments>> = transports
        .into_iter()
        .map(|t| spawn_node(config, node_config, &keys, t).expect("registry covers every node"))
        .collect();
    let warmup = warmup_transfer();
    nodes[0].request(warmup.label(), BrbRequest::Broadcast(warmup.clone()));
    for node in &nodes {
        let (label, _) = node
            .indications()
            .recv_timeout(DRAIN_LIMIT)
            .expect("warm-up transfer delivered");
        assert_eq!(label, warmup.label(), "only the warm-up is in flight");
    }
    let cold_start_s = secs(spawned.elapsed());
    let cluster = Cluster {
        keys,
        config,
        nodes,
        spawned,
    };
    (cluster, cold_start_s)
}

/// One node's indications, each with the instant it arrived.
type Received = Vec<(Label, Transfer, Instant)>;

struct RunResult {
    run_s: f64,
    latencies_ms: Vec<f64>,
    late_max_ms: f64,
    everywhere: usize,
    delivered_pairs: u64,
    /// Transfers node 0 delivered.
    delivered: Vec<Transfer>,
    shims: Vec<Shim<Payments>>,
    lifetime_s: f64,
    /// Traced runs only: share of the collectors' time inside transport
    /// receive calls, and the nodes' scraped metrics snapshots.
    coverage: f64,
    snapshots: Vec<String>,
    signs: u64,
    verifies: u64,
    batches: u64,
    batched: u64,
}

/// Drives one open-loop run on `cluster`.
fn drive(
    cluster: Cluster,
    transfers: &[Transfer],
    traced: bool,
    outcome: &mut Outcome,
) -> RunResult {
    let index: HashMap<Label, usize> = transfers
        .iter()
        .enumerate()
        .map(|(i, t)| (t.label(), i))
        .collect();
    let total = transfers.len();
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let m = cluster.keys.metrics();
    let crypto_before = (m.signs(), m.verifies(), m.batches(), m.batched_verifies());
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut late_max = Duration::ZERO;

    // One collector per node timestamps indications as they arrive.
    let collected: Vec<(Received, Tracer)> = std::thread::scope(|scope| {
        let collectors: Vec<_> = cluster
            .nodes
            .iter()
            .map(|node| {
                let rx = node.indications().clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut tr = Tracer::new(traced);
                    let mut got = Vec::with_capacity(total);
                    while got.len() < total && !stop.load(Ordering::SeqCst) {
                        let id = tr.enter("transport.recv");
                        let received = rx.recv_timeout(Duration::from_millis(20));
                        tr.exit(id);
                        if let Ok((label, BrbIndication::Deliver(t))) = received {
                            got.push((label, t, Instant::now()));
                        }
                    }
                    (got, tr)
                })
            })
            .collect();
        for (i, transfer) in transfers.iter().enumerate() {
            let due = start + interval * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_max = late_max.max(Instant::now().saturating_duration_since(due));
            cluster.nodes[i % NODES]
                .request(transfer.label(), BrbRequest::Broadcast(transfer.clone()));
        }
        let deadline = Instant::now() + DRAIN_LIMIT;
        while Instant::now() < deadline && !collectors.iter().all(|c| c.is_finished()) {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        collectors
            .into_iter()
            .map(|c| c.join().expect("collector thread"))
            .collect()
    });

    // Latency per (transfer, node), from when the request was due.
    let mut latencies_ms = Vec::with_capacity(total * NODES);
    let mut per_transfer = vec![0usize; total];
    let mut last = start;
    let mut delivered_sets: Vec<Vec<Transfer>> = Vec::with_capacity(NODES);
    for (node, (got, _)) in collected.iter().enumerate() {
        let mut labels = BTreeSet::new();
        for (label, _, at) in got {
            match index.get(label) {
                Some(&i) => {
                    let due = start + interval * i as u32;
                    latencies_ms.push(secs(at.saturating_duration_since(due)) * 1e3);
                    per_transfer[i] += 1;
                    last = last.max(*at);
                }
                None => outcome.check(false, || {
                    format!("node {node} delivered unknown label {}", label.id())
                }),
            }
            outcome.check(labels.insert(*label), || {
                format!("node {node} delivered a transfer twice")
            });
        }
        outcome.check(got.len() == total, || {
            format!("node {node} delivered {} of {total}", got.len())
        });
        delivered_sets.push(got.iter().map(|(_, t, _)| t.clone()).collect());
    }
    let run_s = secs(last.duration_since(start));
    let coverage = collected
        .iter()
        .map(|(_, tr)| seconds_of(&tr.self_seconds(), &["transport.recv"]) / run_s)
        .sum::<f64>()
        / NODES as f64;
    for set in &mut delivered_sets {
        set.sort();
    }
    outcome.check(delivered_sets.windows(2).all(|w| w[0] == w[1]), || {
        "nodes delivered different transfer sets".to_string()
    });

    let snapshots = if traced {
        // The endpoints republish every tick; wait for one past the drain.
        std::thread::sleep(Duration::from_millis(250));
        cluster
            .nodes
            .iter()
            .map(|node| {
                let addr = node.metrics_addr().expect("traced nodes serve metrics");
                scrape(addr).expect("metrics endpoint answers")
            })
            .collect()
    } else {
        Vec::new()
    };
    let m = cluster.keys.metrics();
    let (signs, verifies, batches, batched) = (
        m.signs() - crypto_before.0,
        m.verifies() - crypto_before.1,
        m.batches() - crypto_before.2,
        m.batched_verifies() - crypto_before.3,
    );
    let (shims, lifetime_s) = cluster.stop();
    RunResult {
        run_s,
        latencies_ms,
        late_max_ms: secs(late_max) * 1e3,
        everywhere: per_transfer.iter().filter(|&&n| n == NODES).count(),
        delivered_pairs: per_transfer.iter().map(|&n| n as u64).sum(),
        delivered: delivered_sets.swap_remove(0),
        shims,
        lifetime_s,
        coverage,
        snapshots,
        signs,
        verifies,
        batches,
        batched,
    }
}

/// Pulls `"field":<u64>` out of a flat metrics snapshot.
fn field(snapshot: &str, name: &str) -> f64 {
    let needle = format!("\"{name}\":");
    snapshot
        .find(&needle)
        .map(|at| {
            snapshot[at + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Sums `name` over every node's snapshot.
fn total(snapshots: &[String], name: &str) -> f64 {
    snapshots.iter().map(|s| field(s, name)).sum()
}

/// Sums `peer<i>_<which>` over every peer slot of every node.
fn peers_total(snapshots: &[String], which: &str) -> f64 {
    (0..NODES)
        .map(|peer| total(snapshots, &format!("peer{peer}_{which}")))
        .sum()
}

/// One open-loop run of `seconds` at [`RATE_PER_S`] with its output
/// checks: every transfer delivered at every node (checked while
/// driving), the delivered set settles, and node 0 rebuilt from its final
/// DAG by `Shim::recover` has the same DAG and re-delivers the same set.
/// Returns the median set-up time (without the warm-up), the mean
/// cold-start gap, and the run.
fn run_checked(
    seed: u64,
    seconds: f64,
    traced: bool,
    outcome: &mut Outcome,
) -> (f64, f64, RunResult) {
    let workload = WorkloadConfig {
        accounts: ACCOUNTS,
        transfers: (RATE_PER_S * seconds).ceil() as usize,
        exponent: 1.0,
        seed,
    };
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut cold_starts = Vec::with_capacity(SETUP_REPEATS);
    let mut ready: Option<(Vec<Transfer>, Cluster)> = None;
    for _ in 0..SETUP_REPEATS {
        // Stop the previous cluster first, outside the timed span.
        if let Some((_, cluster)) = ready.take() {
            cluster.stop();
        }
        let started = Instant::now();
        let transfers = zipf_transfers(&workload);
        let (cluster, cold_start_s) = start_cluster(seed, traced);
        setups.push(secs(started.elapsed()) - cold_start_s);
        cold_starts.push(cold_start_s);
        ready = Some((transfers, cluster));
    }
    let (transfers, cluster) = ready.expect("at least one set-up");
    let keys = cluster.keys.clone();
    let config = cluster.config;
    let result = drive(cluster, &transfers, traced, outcome);
    let pairs = (transfers.len() * NODES) as u64;
    outcome.attempted += pairs;
    outcome.failed += pairs - result.delivered_pairs.min(pairs);

    let applied = settle(&workload, result.delivered.clone());
    outcome.check(applied == transfers.len(), || {
        format!("ledger settled {applied} of {} transfers", transfers.len())
    });
    let expected: BTreeSet<Label> = transfers
        .iter()
        .map(Transfer::label)
        .chain([warmup_transfer().label()])
        .collect();
    let zero = &result.shims[0];
    let mut rebuilt: Shim<Payments> =
        Shim::recover(ServerId::new(0), config, &keys, zero.dag().clone())
            .expect("registry covers node 0");
    outcome.check(rebuilt.dag().refs().eq(zero.dag().refs()), || {
        "node 0 rebuilt from its DAG holds a different DAG".to_string()
    });
    let replayed: BTreeSet<Label> = rebuilt
        .poll_indications()
        .into_iter()
        .map(|(l, _)| l)
        .collect();
    outcome.check(replayed == expected, || {
        format!(
            "node 0 rebuilt from its DAG re-delivered {} of {} transfers",
            replayed.len(),
            expected.len()
        )
    });
    outcome.notes.push(format!(
        "tcp_loopback{}: {NODES} nodes, {} transfers at {RATE_PER_S}/s open loop, {} latency \
         samples, generator late by at most {:.3} ms, cores {}",
        if traced { " (traced)" } else { "" },
        transfers.len(),
        result.latencies_ms.len(),
        result.late_max_ms,
        dagbft_bench::cores()
    ));
    let mean_cold_start = cold_starts.iter().sum::<f64>() / cold_starts.len() as f64;
    (median(&setups), mean_cold_start, result)
}

/// Runs the workload. Untraced: one run of `seconds`. Traced: an untraced
/// and a traced run of `seconds / 2` each — the endpoint's per-tick
/// publishing grows with history, so halving both keeps the pair within
/// the run budget while their ratio stays like for like.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    if !traced {
        let (setup_s, cold_start_s, base) = run_checked(seed, seconds, false, &mut outcome);
        let validated: u64 = base
            .shims
            .iter()
            .map(|s| s.gossip().stats().blocks_validated)
            .sum();
        let mut latencies = base.latencies_ms.clone();
        let (p50, p99) = latency_summary(&mut latencies, &mut outcome);
        outcome.metrics = vec![
            metric("setup_s", setup_s, "s"),
            metric("tps", base.everywhere as f64 / base.run_s, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_p99_ms", p99, "ms"),
            metric(
                "catchup_blocks_per_s",
                validated as f64 / base.lifetime_s,
                "1/s",
            ),
            metric("recovery_s", cold_start_s, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
    } else {
        let (_, _, base) = run_checked(seed, seconds / 2.0, false, &mut outcome);
        let (_, _, tr) = run_checked(seed, seconds / 2.0, true, &mut outcome);
        let snaps = &tr.snapshots;
        let n = tr.everywhere as f64;
        let built = total(snaps, "gossip_blocks_built");
        let validated = total(snaps, "gossip_blocks_validated");
        let mut t = LayerTable::default();
        t.put(
            "interpret.resident_instances",
            total(snaps, "interp_instances"),
        );
        t.put(
            "interpret.unique_instances",
            total(snaps, "interp_unique_instances"),
        );
        t.put(
            "interpret.envelopes",
            total(snaps, "interp_out_envelopes") + total(snaps, "interp_in_envelopes"),
        );
        t.put(
            "gossip.useful_ratio",
            ratio(validated, total(snaps, "gossip_blocks_received")),
        );
        t.put(
            "gossip.mean_wave",
            ratio(
                total(snaps, "wave_batched_blocks"),
                total(snaps, "wave_count"),
            ),
        );
        let pending_peak = snaps
            .iter()
            .map(|s| field(s, "gossip_pending_peak"))
            .fold(0.0, f64::max);
        t.put("gossip.pending_peak", pending_peak);
        t.put("gossip.requests_per_block", ratio(n, built));
        t.put("node.requests_per_block", ratio(n, built));
        t.put(
            "crypto.verifies_per_block",
            ratio(tr.verifies as f64, validated),
        );
        t.put(
            "crypto.batch_mean",
            ratio(tr.batched as f64, tr.batches as f64),
        );
        t.put("crypto.signs", tr.signs as f64);
        t.put(
            "transport.msgs_per_transfer",
            peers_total(snaps, "sent_msgs") / n,
        );
        t.put(
            "transport.bytes_per_transfer",
            peers_total(snaps, "sent_bytes") / n,
        );
        t.put("loadgen.late_max_ms", tr.late_max_ms);
        t.put("trace.coverage", tr.coverage);
        t.put("trace.overhead", tr.run_s / base.run_s);
        outcome.metrics = t.metrics();
    }
    outcome.notes.push(format!(
        "failed_ratio {}",
        ratio(outcome.failed as f64, outcome.attempted as f64)
    ));
    outcome
}
