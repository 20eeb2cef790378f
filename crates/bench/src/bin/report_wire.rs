//! Wire-path experiment: encode-once dissemination and incremental
//! gossip admission.
//!
//! Two measurements, both seeded and deterministic in structure:
//!
//! 1. **Broadcast fan-out** — build blocks and frame them for `f` peers.
//!    With the cached wire image, the canonical encoding happens exactly
//!    once per block (at build), regardless of fan-out; the naive column
//!    re-serializes the block field-by-field per recipient, which is what
//!    every send paid before the cache existed.
//! 2. **Admission burst** — deliver a `B`-block chain in reverse and in
//!    shuffled order to a fresh gossip instance, one `on_block` (a
//!    one-block burst bracket) at a time, once per admission engine. The
//!    index engine's incremental reverse-dependency index costs
//!    O(B · preds); the retained scan engine is the paper-literal O(B²)
//!    fixed-point rescan. Both runs are asserted to produce identical
//!    DAGs in identical order. The `incremental_blocks_per_sec` key keeps
//!    its historical name for the index engine's rate.
//!
//! The final stdout line is a single machine-readable JSON object
//! (`BENCH_wire.json` is a checked-in snapshot of it from a fixed-seed
//! run). `--check` re-runs the experiment, validates the invariants
//! (exactly one canonical encode per block per broadcast, ≥2× admission
//! speedup, all counters non-zero) and diffs the JSON schema against the
//! committed snapshot — so the bench trajectory cannot silently rot.
//!
//! Run with: `cargo run --release -p dagbft-bench --bin report_wire`

use std::time::Instant;

use dagbft_bench::{check_snapshot_schema, cores, f2};
use dagbft_codec::WireEncode;
use dagbft_core::{
    AdmissionMode, Block, BlockRef, Gossip, GossipConfig, Label, LabeledRequest, NetMessage, SeqNum,
};
use dagbft_crypto::{KeyRegistry, ServerId};

const SEED: u64 = 7;

fn gossip(registry: &KeyRegistry, id: u32, n: usize, mode: AdmissionMode) -> Gossip {
    Gossip::new(
        ServerId::new(id),
        GossipConfig::for_n(n).with_admission(mode),
        registry.signer(ServerId::new(id)).unwrap(),
        registry.verifier(),
    )
}

/// The pre-cache send path: re-serialize the block field-by-field, as
/// `encode_to_vec` did on every send before the wire image was cached.
fn naive_encode(block: &Block) -> Vec<u8> {
    let mut out = Vec::new();
    block.builder().encode(&mut out);
    block.seq().encode(&mut out);
    block.preds().encode(&mut out);
    block.requests().encode(&mut out);
    block.signature().encode(&mut out);
    out
}

struct BroadcastRow {
    fan_out: usize,
    blocks: usize,
    encodes_per_block: f64,
    naive_encodes_per_block: usize,
    cached_bytes_per_broadcast: u64,
    naive_bytes_per_broadcast: u64,
    cached_seconds: f64,
    naive_seconds: f64,
}

impl BroadcastRow {
    fn json(&self) -> String {
        format!(
            "{{\"fan_out\":{},\"blocks\":{},\"canonical_encodes_per_block\":{:.2},\
             \"naive_encodes_per_block\":{},\"cached_bytes_per_broadcast\":{},\
             \"naive_bytes_per_broadcast\":{},\"cached_seconds\":{:.6},\"naive_seconds\":{:.6}}}",
            self.fan_out,
            self.blocks,
            self.encodes_per_block,
            self.naive_encodes_per_block,
            self.cached_bytes_per_broadcast,
            self.naive_bytes_per_broadcast,
            self.cached_seconds,
            self.naive_seconds,
        )
    }
}

/// Builds `blocks` chained blocks carrying one request each and frames
/// every one for `fan_out` peers, measuring canonical encodes and bytes.
fn measure_broadcast(fan_out: usize, blocks: usize) -> BroadcastRow {
    let registry = KeyRegistry::generate(1, SEED);
    let signer = registry.signer(ServerId::new(0)).unwrap();

    // Build the chain, bracketing the canonical-encode counter around
    // build *and* fan-out: the delta proves fan-out adds zero encodes.
    let encodes_before = Block::canonical_encodes();
    let mut prev: Vec<BlockRef> = Vec::new();
    let built: Vec<Block> = (0..blocks)
        .map(|k| {
            let requests = vec![LabeledRequest::encode(Label::new(k as u64), &(k as u64))];
            let block = Block::build(
                ServerId::new(0),
                SeqNum::new(k as u64),
                std::mem::take(&mut prev),
                requests,
                &signer,
            );
            prev = vec![block.block_ref()];
            block
        })
        .collect();

    // The cached send path: one NetMessage per block, cloned per peer (a
    // reference-count bump), framed by the *real* transport frame writer
    // off the cached wire image (a `Vec` is a perfectly good `io::Write`).
    let mut frame_buf: Vec<u8> = Vec::new();
    let mut cached_bytes: u64 = 0;
    let start = Instant::now();
    for block in &built {
        let message = NetMessage::Block(block.clone());
        for _ in 0..fan_out {
            let per_peer = message.clone();
            frame_buf.clear();
            dagbft_transport::frame::write_net_message(&mut frame_buf, &per_peer)
                .expect("writing to a Vec cannot fail");
            cached_bytes += frame_buf.len() as u64;
        }
    }
    let cached_seconds = start.elapsed().as_secs_f64();
    let encodes = Block::canonical_encodes() - encodes_before;

    // The naive path on the identical blocks: re-serialize per recipient.
    let mut naive_bytes: u64 = 0;
    let start = Instant::now();
    for block in &built {
        for _ in 0..fan_out {
            let payload = naive_encode(block);
            frame_buf.clear();
            frame_buf.extend_from_slice(&((payload.len() + 1) as u32).to_le_bytes());
            frame_buf.push(0);
            frame_buf.extend_from_slice(&payload);
            naive_bytes += frame_buf.len() as u64;
        }
    }
    let naive_seconds = start.elapsed().as_secs_f64();

    BroadcastRow {
        fan_out,
        blocks,
        encodes_per_block: encodes as f64 / blocks as f64,
        naive_encodes_per_block: fan_out,
        cached_bytes_per_broadcast: cached_bytes / blocks as u64,
        naive_bytes_per_broadcast: naive_bytes / blocks as u64,
        cached_seconds,
        naive_seconds,
    }
}

struct BurstRow {
    blocks: usize,
    order: &'static str,
    incremental_blocks_per_sec: f64,
    scan_blocks_per_sec: f64,
    speedup: f64,
}

impl BurstRow {
    fn json(&self) -> String {
        format!(
            "{{\"blocks\":{},\"order\":\"{}\",\"incremental_blocks_per_sec\":{:.2},\
             \"scan_blocks_per_sec\":{:.2},\"speedup\":{:.2}}}",
            self.blocks,
            self.order,
            self.incremental_blocks_per_sec,
            self.scan_blocks_per_sec,
            self.speedup,
        )
    }
}

/// Deterministic Fisher–Yates over a xorshift64 stream — hostile but
/// reproducible delivery order without pulling in an RNG crate.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state as usize) % (i + 1));
    }
}

/// Times one delivery schedule against one admission engine; returns
/// (seconds, promotion order).
fn run_admission(
    registry: &KeyRegistry,
    schedule: &[Block],
    mode: AdmissionMode,
) -> (f64, Vec<BlockRef>) {
    let mut receiver = gossip(registry, 0, 2, mode);
    let start = Instant::now();
    for (t, block) in schedule.iter().enumerate() {
        receiver.on_block(block.clone(), t as u64);
    }
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        receiver.dag().len(),
        schedule.len(),
        "all blocks must promote"
    );
    assert_eq!(receiver.pending_len(), 0);
    let order = receiver.dag().iter().map(|b| b.block_ref()).collect();
    (seconds, order)
}

fn measure_burst(blocks: usize, order: &'static str) -> BurstRow {
    let registry = KeyRegistry::generate(2, SEED);
    let mut builder = gossip(&registry, 1, 2, AdmissionMode::Index);
    let chain: Vec<Block> = (0..blocks)
        .map(|t| builder.disseminate(vec![], t as u64).0)
        .collect();
    let mut schedule: Vec<Block> = chain.iter().rev().cloned().collect();
    if order == "shuffled" {
        schedule = chain.clone();
        shuffle(&mut schedule, SEED ^ blocks as u64);
    }

    let (incremental_seconds, incremental_order) =
        run_admission(&registry, &schedule, AdmissionMode::Index);
    let (scan_seconds, scan_order) = run_admission(&registry, &schedule, AdmissionMode::Scan);
    assert_eq!(
        incremental_order, scan_order,
        "admission engines must promote in the same order"
    );

    BurstRow {
        blocks,
        order,
        incremental_blocks_per_sec: blocks as f64 / incremental_seconds,
        scan_blocks_per_sec: blocks as f64 / scan_seconds,
        speedup: scan_seconds / incremental_seconds,
    }
}

fn run() -> (Vec<BroadcastRow>, Vec<BurstRow>, String) {
    let broadcast: Vec<BroadcastRow> = [3usize, 7, 15]
        .into_iter()
        .map(|fan_out| measure_broadcast(fan_out, 64))
        .collect();
    let burst: Vec<BurstRow> = [
        (1024, "reverse"),
        (2048, "reverse"),
        (1024, "shuffled"),
        (2048, "shuffled"),
    ]
    .into_iter()
    .map(|(blocks, order)| measure_burst(blocks, order))
    .collect();

    let json = format!(
        "{{\"experiment\":\"wire_path\",\"seed\":{},\"cores\":{},\"broadcast\":[{}],\"burst\":[{}]}}",
        SEED,
        cores(),
        broadcast
            .iter()
            .map(BroadcastRow::json)
            .collect::<Vec<_>>()
            .join(","),
        burst
            .iter()
            .map(BurstRow::json)
            .collect::<Vec<_>>()
            .join(","),
    );
    (broadcast, burst, json)
}

fn check(broadcast: &[BroadcastRow], burst: &[BurstRow], json: &str) -> Result<(), String> {
    for row in broadcast {
        if (row.encodes_per_block - 1.0).abs() > f64::EPSILON {
            return Err(format!(
                "fan-out {}: expected exactly 1 canonical encode per block, got {}",
                row.fan_out, row.encodes_per_block
            ));
        }
        if row.cached_bytes_per_broadcast == 0 || row.naive_bytes_per_broadcast == 0 {
            return Err(format!("fan-out {}: zero byte counters", row.fan_out));
        }
    }
    for row in burst {
        if row.speedup < 2.0 {
            return Err(format!(
                "burst {} ({}): speedup {:.2} below the 2x floor",
                row.blocks, row.order, row.speedup
            ));
        }
        if row.incremental_blocks_per_sec <= 0.0 || row.scan_blocks_per_sec <= 0.0 {
            return Err(format!(
                "burst {} ({}): zero throughput",
                row.blocks, row.order
            ));
        }
    }
    check_snapshot_schema("BENCH_wire.json", json)
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");

    println!("# Wire path — encode-once broadcast + incremental admission (seed {SEED})\n");
    let (broadcast, burst, json) = run();

    println!(
        "| {:>7} | {:>6} | {:>12} | {:>12} | {:>11} | {:>11} | {:>10} | {:>10} |",
        "fan-out",
        "blocks",
        "encodes/blk",
        "naive enc/blk",
        "bytes/bcast",
        "naive bytes",
        "cached ms",
        "naive ms"
    );
    println!("|{}|", "-".repeat(98));
    for row in &broadcast {
        println!(
            "| {:>7} | {:>6} | {:>12} | {:>13} | {:>11} | {:>11} | {:>10} | {:>10} |",
            row.fan_out,
            row.blocks,
            f2(row.encodes_per_block),
            row.naive_encodes_per_block,
            row.cached_bytes_per_broadcast,
            row.naive_bytes_per_broadcast,
            f2(row.cached_seconds * 1000.0),
            f2(row.naive_seconds * 1000.0),
        );
    }

    println!(
        "\n| {:>6} | {:>8} | {:>16} | {:>14} | {:>7} |",
        "blocks", "order", "incremental b/s", "scan b/s", "speedup"
    );
    println!("|{}|", "-".repeat(66));
    for row in &burst {
        println!(
            "| {:>6} | {:>8} | {:>16} | {:>14} | {:>6}x |",
            row.blocks,
            row.order,
            f2(row.incremental_blocks_per_sec),
            f2(row.scan_blocks_per_sec),
            f2(row.speedup),
        );
    }

    println!(
        "\nReading: the canonical encode happens once per block — at build —\n\
         and every frame after that is a memcpy of the cached wire image, so\n\
         broadcast cost no longer multiplies encoding by fan-out. On the\n\
         admission side the reverse-dependency index promotes a hostile\n\
         B-block burst in O(B · preds) instead of the scan engine's O(B²),\n\
         with bit-identical promotion order (asserted every run).\n"
    );

    // Machine-readable trajectory line (snapshot: BENCH_wire.json).
    println!("{json}");

    if check_mode {
        match check(&broadcast, &burst, &json) {
            Ok(()) => println!("CHECK OK"),
            Err(reason) => {
                eprintln!("CHECK FAILED: {reason}");
                std::process::exit(1);
            }
        }
    }
}
