//! Admission-pipeline experiment: wave-batched signature verification
//! and the parallel admission engine on hostile block bursts.
//!
//! Three measurements, all seeded and deterministic in structure:
//!
//! 1. **Batched verification** — `N` signed `ref(B)` digests checked
//!    three ways: the *cold* per-call path (rebuilding the HMAC key
//!    schedule per verification, exactly what admission paid before this
//!    pipeline existed), the hoisted single-verify path (cached key
//!    schedules), and one `BatchVerifier` pass. The `--check` floor pins
//!    the batched path at ≥2× over cold on the 2048-item row — the
//!    paper's batch-signature economics (§4, experiment E6) made
//!    measurable.
//! 2. **Hostile burst admission** — a 1–4k-block burst (three honest
//!    chains, an equivocating pair, a permanently invalid two-parent
//!    child with a stranded descendant, and a tampered-signature flood)
//!    delivered one `on_block` at a time (each a one-block burst
//!    bracket) in reverse and shuffled order to fresh gossip instances
//!    under all three [`AdmissionMode`]s. Every run fingerprints the
//!    promotion order, stats, rejections, pending set, and the next own
//!    block's wire bytes; the engines must agree bit-for-bit (asserted
//!    every run, re-validated by `--check`).
//!
//! 3. **Cross-cascade burst admission** — the parallel trajectory: a
//!    wide hostile burst (`authors` chained builders per round, tampered
//!    signatures, an equivocation with a permanently invalid child)
//!    delivered causally — the wave-starving case: one-block brackets
//!    produce width-1 waves — and in reverse, through one
//!    `on_block_burst` bracket, under `Index` and `Parallel {1, 2, 4}`,
//!    at two signature prices (`sig_cost` 1 = the raw HMAC stand-in,
//!    where bookkeeping dominates; a calibrated chain that prices a
//!    verification like the ed25519-class schemes the stand-in
//!    replaces). The "incremental" columns (`incremental_bps`,
//!    `incremental_mean_wave`, `burst_over_incremental`) are that same
//!    schedule delivered one `on_block` at a time — one-block brackets;
//!    the JSON keys keep their historical names. `--check` pins three
//!    things: the structural widening (burst waves = full round width
//!    while one-block-bracket waves are ~1) on every machine; one
//!    bracket ≥ 1.2× one-block brackets on reverse wide bursts (same
//!    thread count — machine-independent); and
//!    `Parallel{2} ≥ 1.2× Index` wall-clock at calibrated signature
//!    prices on machines with enough cores for the overlap to exist (the
//!    JSON records `cores` so the committed snapshot is interpretable).
//!
//! The final stdout lines are two machine-readable JSON objects
//! (`BENCH_admission.json` and `BENCH_parallel.json` are checked-in
//! snapshots from fixed-seed runs). `--check` re-runs everything,
//! enforces the floors, and diffs the JSON schemas against the committed
//! snapshots — so the bench trajectories cannot silently rot.
//!
//! Run with: `cargo run --release -p dagbft-bench --bin report_admission`

use std::time::Instant;

use dagbft_bench::{check_snapshot_schema, cores, f2};
use dagbft_core::{
    AdmissionMode, Block, BlockRef, Gossip, GossipConfig, Label, LabeledRequest, SeqNum, WaveStats,
};
use dagbft_crypto::{sha256, Digest, KeyRegistry, SchemeKind, ServerId, Signature, SignedDigest};

const SEED: u64 = 11;
/// Worker threads for the parallel engine — small on purpose: CI runners
/// have few cores, and determinism must not depend on the count anyway.
const WORKERS: usize = 4;
/// Repetitions of the verification micro-measurement (wall-clock noise).
const VERIFY_ROUNDS: usize = 8;

fn gossip(registry: &KeyRegistry, id: u32, n: usize, mode: AdmissionMode) -> Gossip {
    Gossip::new(
        ServerId::new(id),
        GossipConfig::for_n(n).with_admission(mode),
        registry.signer(ServerId::new(id)).unwrap(),
        registry.verifier(),
    )
}

/// Deterministic Fisher–Yates over a xorshift64 stream (same scheme as
/// `report_wire`): hostile but reproducible delivery order.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state as usize) % (i + 1));
    }
}

// ---------------------------------------------------------------------------
// Measurement 1: batched verification vs per-block verify.

struct VerifyRow {
    items: usize,
    cold_seconds: f64,
    hoisted_seconds: f64,
    batch_seconds: f64,
}

impl VerifyRow {
    fn speedup_batch_vs_cold(&self) -> f64 {
        self.cold_seconds / self.batch_seconds
    }

    fn speedup_batch_vs_hoisted(&self) -> f64 {
        self.hoisted_seconds / self.batch_seconds
    }

    fn json(&self) -> String {
        format!(
            "{{\"items\":{},\"cold_seconds\":{:.6},\"hoisted_seconds\":{:.6},\
             \"batch_seconds\":{:.6},\"speedup_batch_vs_cold\":{:.2},\
             \"speedup_batch_vs_hoisted\":{:.2}}}",
            self.items,
            self.cold_seconds,
            self.hoisted_seconds,
            self.batch_seconds,
            self.speedup_batch_vs_cold(),
            self.speedup_batch_vs_hoisted(),
        )
    }
}

/// Builds `items` signed digests (one signer per 4 servers, round-robin,
/// every 16th signature tampered so both paths exercise the reject arm)
/// and times the three verification paths over identical inputs.
fn measure_verify(items: usize) -> VerifyRow {
    let registry = KeyRegistry::generate(4, SEED);
    let signers: Vec<_> = (0..4)
        .map(|i| registry.signer(ServerId::new(i)).unwrap())
        .collect();
    let batch: Vec<SignedDigest> = (0..items)
        .map(|i| {
            let signer = &signers[i % signers.len()];
            let digest = sha256((i as u64).to_le_bytes());
            let signature = if i % 16 == 5 {
                Signature::NULL
            } else {
                signer.sign(digest.as_bytes())
            };
            SignedDigest {
                claimed: signer.id(),
                digest,
                signature,
            }
        })
        .collect();
    let verifier = registry.verifier();
    let batch_verifier = registry.batch_verifier();

    // Best-of-rounds: scheduler/allocator interference only ever *adds*
    // time, so the minimum is the low-variance estimator of each path's
    // structural cost — what CI floors need to compare reliably. The
    // rounds of the three paths are *interleaved* so a slow phase of the
    // host (frequency scaling, a noisy neighbour) degrades all three
    // equally instead of skewing whichever path it happened to overlap.
    let cold_path = || -> Vec<bool> {
        batch
            .iter()
            .map(|i| verifier.verify_cold(i.claimed, i.digest.as_bytes(), &i.signature))
            .collect()
    };
    let hoisted_path = || -> Vec<bool> {
        batch
            .iter()
            .map(|i| verifier.verify(i.claimed, i.digest.as_bytes(), &i.signature))
            .collect()
    };
    let batch_path = || -> Vec<bool> { batch_verifier.verify_batch(&batch) };

    // Warm-up once per path.
    let cold = cold_path();
    let hoisted = hoisted_path();
    let batched = batch_path();

    let mut cold_seconds = f64::INFINITY;
    let mut hoisted_seconds = f64::INFINITY;
    let mut batch_seconds = f64::INFINITY;
    for _ in 0..VERIFY_ROUNDS {
        let start = Instant::now();
        let verdicts = cold_path();
        cold_seconds = cold_seconds.min(start.elapsed().as_secs_f64());
        assert_eq!(verdicts, cold);

        let start = Instant::now();
        let verdicts = hoisted_path();
        hoisted_seconds = hoisted_seconds.min(start.elapsed().as_secs_f64());
        assert_eq!(verdicts, hoisted);

        let start = Instant::now();
        let verdicts = batch_path();
        batch_seconds = batch_seconds.min(start.elapsed().as_secs_f64());
        assert_eq!(verdicts, batched);
    }

    // All three paths are the same function.
    assert_eq!(cold, hoisted, "cold and hoisted verdicts diverged");
    assert_eq!(cold, batched, "single and batched verdicts diverged");
    assert_eq!(
        cold.iter().filter(|ok| !**ok).count(),
        items.div_ceil(16).min(items),
        "tampered share must be rejected"
    );

    VerifyRow {
        items,
        cold_seconds,
        hoisted_seconds,
        batch_seconds,
    }
}

// ---------------------------------------------------------------------------
// Measurement 2: hostile burst admission across the three engines.

/// Builds a hostile burst of roughly `target` blocks: three honest
/// builders in chained rounds, an equivocating `k = 0` pair for builder 3
/// with a permanently invalid two-parent child and a stranded grandchild,
/// plus a tampered-signature flood (one forged block per 16 honest ones).
fn hostile_burst(target: usize) -> (KeyRegistry, Vec<Block>) {
    let registry = KeyRegistry::generate(5, SEED);
    let signers: Vec<_> = (1..4)
        .map(|i| registry.signer(ServerId::new(i)).unwrap())
        .collect();
    let rounds = target / 3;
    let mut blocks = Vec::new();
    let mut prev: Vec<BlockRef> = Vec::new();
    for round in 0..rounds as u64 {
        let mut layer = Vec::new();
        for (index, signer) in signers.iter().enumerate() {
            let requests = vec![LabeledRequest::encode(
                Label::new(index as u64),
                &(round * 10 + index as u64),
            )];
            let block = Block::build(
                signer.id(),
                SeqNum::new(round),
                prev.clone(),
                requests,
                signer,
            );
            layer.push(block.block_ref());
            blocks.push(block);
        }
        prev = layer;
        if round % 16 == 3 {
            // Tampered flood: a correctly shaped block whose signature can
            // never verify. Admission must reject it — in a batch with its
            // honest round-mates.
            blocks.push(Block::build_with_signature(
                ServerId::new(4),
                SeqNum::new(round),
                prev.clone(),
                vec![LabeledRequest::encode(Label::new(777), &round)],
                Signature::NULL,
            ));
        }
    }
    // Equivocating pair + permanently invalid child + stranded grandchild
    // (same shape the convergence suite pins).
    let signer3 = registry.signer(ServerId::new(3)).unwrap();
    let equivocation = Block::build(
        ServerId::new(3),
        SeqNum::ZERO,
        vec![],
        vec![LabeledRequest::encode(Label::new(99), &1u8)],
        &signer3,
    );
    let first_k0 = blocks[2].block_ref();
    let two_parents = Block::build(
        ServerId::new(3),
        SeqNum::new(1),
        vec![first_k0, equivocation.block_ref()],
        vec![],
        &signer3,
    );
    let stranded = Block::build(
        ServerId::new(3),
        SeqNum::new(2),
        vec![two_parents.block_ref()],
        vec![],
        &signer3,
    );
    blocks.push(equivocation);
    blocks.push(two_parents);
    blocks.push(stranded);
    (registry, blocks)
}

/// Replays `schedule` into a fresh receiver under `mode`; returns
/// `(seconds, fingerprint, waves, largest_wave)`. The fingerprint hashes
/// everything admission-observable: promotion order, stats, rejections,
/// pending set, and the wire bytes of the next own block (which are
/// hashed and signed — the determinism boundary).
fn run_burst(
    registry: &KeyRegistry,
    schedule: &[Block],
    mode: AdmissionMode,
) -> (f64, Digest, u64, usize) {
    let mut receiver = gossip(registry, 0, 5, mode);
    let start = Instant::now();
    for (t, block) in schedule.iter().enumerate() {
        receiver.on_block(block.clone(), t as u64);
    }
    let seconds = start.elapsed().as_secs_f64();

    let mut transcript: Vec<u8> = Vec::new();
    for block in receiver.dag().iter() {
        transcript.extend_from_slice(block.block_ref().as_bytes());
    }
    transcript.extend_from_slice(format!("{:?}", receiver.stats()).as_bytes());
    transcript.extend_from_slice(format!("{:?}", receiver.rejected()).as_bytes());
    transcript.extend_from_slice(format!("pending:{}", receiver.pending_len()).as_bytes());
    let (own, _) = receiver.disseminate(vec![], 1_000_000);
    transcript.extend_from_slice(own.wire_bytes());
    let waves = receiver.wave_stats().waves;
    let largest = receiver.wave_stats().largest_wave;
    (seconds, sha256(&transcript), waves, largest)
}

struct BurstRow {
    blocks: usize,
    order: &'static str,
    scan_blocks_per_sec: f64,
    index_blocks_per_sec: f64,
    parallel_blocks_per_sec: f64,
    fingerprint: String,
    waves: u64,
    largest_wave: usize,
}

impl BurstRow {
    fn index_speedup(&self) -> f64 {
        self.index_blocks_per_sec / self.scan_blocks_per_sec
    }

    fn parallel_over_index(&self) -> f64 {
        self.parallel_blocks_per_sec / self.index_blocks_per_sec
    }

    fn json(&self) -> String {
        format!(
            "{{\"blocks\":{},\"order\":\"{}\",\"scan_blocks_per_sec\":{:.2},\
             \"index_blocks_per_sec\":{:.2},\"parallel_blocks_per_sec\":{:.2},\
             \"index_speedup\":{:.2},\"parallel_over_index\":{:.2},\
             \"fingerprint\":\"{}\",\"waves\":{},\"largest_wave\":{}}}",
            self.blocks,
            self.order,
            self.scan_blocks_per_sec,
            self.index_blocks_per_sec,
            self.parallel_blocks_per_sec,
            self.index_speedup(),
            self.parallel_over_index(),
            self.fingerprint,
            self.waves,
            self.largest_wave,
        )
    }
}

fn measure_burst(target: usize, order: &'static str) -> BurstRow {
    let (registry, blocks) = hostile_burst(target);
    let mut schedule: Vec<Block> = blocks.iter().rev().cloned().collect();
    if order == "shuffled" {
        schedule = blocks.clone();
        shuffle(&mut schedule, SEED ^ target as u64);
    }
    let delivered = schedule.len();

    let (scan_seconds, scan_fp, scan_waves, _) =
        run_burst(&registry, &schedule, AdmissionMode::Scan);
    let (index_seconds, index_fp, waves, largest_wave) =
        run_burst(&registry, &schedule, AdmissionMode::Index);
    let (parallel_seconds, parallel_fp, parallel_waves, parallel_largest) = run_burst(
        &registry,
        &schedule,
        AdmissionMode::Parallel { workers: WORKERS },
    );

    // Cross-engine equivalence, pinned the PR-3 way: bit-identical
    // fingerprints over everything observable.
    assert_eq!(scan_fp, index_fp, "{target} {order}: scan vs index");
    assert_eq!(index_fp, parallel_fp, "{target} {order}: index vs parallel");
    assert_eq!(scan_waves, 0, "the scan oracle never batches");
    assert_eq!(
        (waves, largest_wave),
        (parallel_waves, parallel_largest),
        "wave structure is scheduling-independent"
    );

    BurstRow {
        blocks: delivered,
        order,
        scan_blocks_per_sec: delivered as f64 / scan_seconds,
        index_blocks_per_sec: delivered as f64 / index_seconds,
        parallel_blocks_per_sec: delivered as f64 / parallel_seconds,
        fingerprint: index_fp.to_hex()[..16].to_owned(),
        waves,
        largest_wave,
    }
}

// ---------------------------------------------------------------------------
// Measurement 3: cross-cascade burst admission — the parallel trajectory.

/// Repetitions of each timed burst ingest (best-of, fresh receiver each).
const BURST_ROUNDS: usize = 3;

/// Builds a *wide* hostile burst: `authors` chained builders per round
/// (every block references the whole previous round), a tampered
/// signature every 16 rounds, and the usual equivocation + permanently
/// invalid two-parent child + stranded grandchild tail. Returned in
/// causal order — the delivery order that starves per-message waves.
fn wide_hostile_burst(
    authors: usize,
    rounds: u64,
    scheme: SchemeKind,
    sig_cost: u32,
) -> (KeyRegistry, Vec<Block>) {
    let registry = match scheme {
        SchemeKind::Hmac => KeyRegistry::generate_calibrated(authors + 2, SEED, sig_cost),
        SchemeKind::Ed25519 => KeyRegistry::generate_ed25519(authors + 2, SEED),
    };
    let signers: Vec<_> = (1..=authors)
        .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
        .collect();
    let mut blocks = Vec::new();
    let mut prev: Vec<BlockRef> = Vec::new();
    for round in 0..rounds {
        let mut layer = Vec::new();
        for (index, signer) in signers.iter().enumerate() {
            let block = Block::build(
                signer.id(),
                SeqNum::new(round),
                prev.clone(),
                vec![LabeledRequest::encode(
                    Label::new(index as u64),
                    &(round * 10 + index as u64),
                )],
                signer,
            );
            layer.push(block.block_ref());
            blocks.push(block);
        }
        prev = layer;
        if round % 16 == 3 {
            blocks.push(Block::build_with_signature(
                ServerId::new(authors as u32 + 1),
                SeqNum::new(round),
                prev.clone(),
                vec![LabeledRequest::encode(Label::new(777), &round)],
                Signature::NULL,
            ));
        }
    }
    let signer = &signers[authors - 1];
    let equivocation = Block::build(
        signer.id(),
        SeqNum::ZERO,
        vec![],
        vec![LabeledRequest::encode(Label::new(99), &1u8)],
        signer,
    );
    let two_parents = Block::build(
        signer.id(),
        SeqNum::new(1),
        vec![blocks[authors - 1].block_ref(), equivocation.block_ref()],
        vec![],
        signer,
    );
    let stranded = Block::build(
        signer.id(),
        SeqNum::new(2),
        vec![two_parents.block_ref()],
        vec![],
        signer,
    );
    blocks.push(equivocation);
    blocks.push(two_parents);
    blocks.push(stranded);
    (registry, blocks)
}

/// Fingerprint of everything admission-observable, shared by the burst
/// and incremental ingest paths of one engine comparison.
fn admission_fingerprint(receiver: &mut Gossip) -> Digest {
    let mut transcript: Vec<u8> = Vec::new();
    for block in receiver.dag().iter() {
        transcript.extend_from_slice(block.block_ref().as_bytes());
    }
    transcript.extend_from_slice(format!("{:?}", receiver.stats()).as_bytes());
    transcript.extend_from_slice(format!("{:?}", receiver.rejected()).as_bytes());
    transcript.extend_from_slice(format!("pending:{}", receiver.pending_len()).as_bytes());
    let (own, _) = receiver.disseminate(vec![], 1_000_000);
    transcript.extend_from_slice(own.wire_bytes());
    sha256(&transcript)
}

/// Hash of the admitted DAG as a set (sorted refs + wire bytes): the
/// burst-vs-incremental equivalence unit — promotion order may differ
/// between ingest shapes, the admitted bytes may not.
fn dag_set_digest(receiver: &Gossip) -> Digest {
    let refs: std::collections::BTreeSet<BlockRef> = receiver.dag().refs().copied().collect();
    let mut transcript: Vec<u8> = Vec::new();
    for block_ref in refs {
        transcript.extend_from_slice(block_ref.as_bytes());
        transcript.extend_from_slice(receiver.dag().get(&block_ref).unwrap().wire_bytes());
    }
    sha256(&transcript)
}

/// One ingest measurement: seconds (best-of-rounds), engine fingerprint,
/// admitted-set digest, and wave statistics.
struct IngestRun {
    seconds: f64,
    fingerprint: Digest,
    dag_set: Digest,
    wave_stats: WaveStats,
}

fn run_ingest(
    registry: &KeyRegistry,
    schedule: &[Block],
    n: usize,
    mode: AdmissionMode,
    bracketed: bool,
    rounds: usize,
) -> IngestRun {
    let mut best = f64::INFINITY;
    let mut last: Option<Gossip> = None;
    for _ in 0..rounds {
        let mut receiver = gossip(registry, 0, n, mode);
        let start = Instant::now();
        if bracketed {
            receiver.on_block_burst(schedule.iter().cloned(), 0);
        } else {
            for (t, block) in schedule.iter().enumerate() {
                receiver.on_block(block.clone(), t as u64);
            }
        }
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(receiver);
    }
    let mut receiver = last.expect("at least one round");
    let wave_stats = *receiver.wave_stats();
    let dag_set = dag_set_digest(&receiver);
    IngestRun {
        seconds: best,
        fingerprint: admission_fingerprint(&mut receiver),
        dag_set,
        wave_stats,
    }
}

struct TrajectoryRow {
    width: usize,
    blocks: usize,
    order: &'static str,
    scheme: &'static str,
    sig_cost: u32,
    workers: usize,
    incremental_bps: f64,
    index_bps: f64,
    parallel_bps: f64,
    mean_wave: f64,
    largest_wave: usize,
    waves: u64,
    incremental_mean_wave: f64,
}

impl TrajectoryRow {
    fn parallel_over_index(&self) -> f64 {
        self.parallel_bps / self.index_bps
    }

    fn burst_over_incremental(&self) -> f64 {
        self.index_bps / self.incremental_bps
    }

    fn json(&self) -> String {
        format!(
            "{{\"width\":{},\"blocks\":{},\"order\":\"{}\",\"scheme\":\"{}\",\"sig_cost\":{},\
             \"workers\":{},\
             \"incremental_bps\":{:.2},\
             \"index_bps\":{:.2},\"parallel_bps\":{:.2},\"parallel_over_index\":{:.3},\
             \"burst_over_incremental\":{:.3},\
             \"mean_wave\":{:.2},\"largest_wave\":{},\"waves\":{},\
             \"incremental_mean_wave\":{:.2}}}",
            self.width,
            self.blocks,
            self.order,
            self.scheme,
            self.sig_cost,
            self.workers,
            self.incremental_bps,
            self.index_bps,
            self.parallel_bps,
            self.parallel_over_index(),
            self.burst_over_incremental(),
            self.mean_wave,
            self.largest_wave,
            self.waves,
            self.incremental_mean_wave,
        )
    }
}

/// Runs the burst trajectory for one width: Index over one-block
/// brackets (the starved baseline), bracketed Index, bracketed Parallel
/// at 1/2/4 workers, and one bracketed Scan pass as the equivalence
/// oracle. Returns one row per worker count plus the width's wave
/// histogram.
fn measure_trajectory(
    authors: usize,
    rounds: u64,
    order: &'static str,
    scheme: SchemeKind,
    sig_cost: u32,
) -> (Vec<TrajectoryRow>, [u64; dagbft_core::WAVE_WIDTH_BUCKETS]) {
    let (registry, mut schedule) = wide_hostile_burst(authors, rounds, scheme, sig_cost);
    if order == "reverse" {
        schedule.reverse();
    }
    let n = authors + 2;
    let blocks = schedule.len();

    let incremental = run_ingest(
        &registry,
        &schedule,
        n,
        AdmissionMode::Index,
        false,
        BURST_ROUNDS,
    );
    let index = run_ingest(
        &registry,
        &schedule,
        n,
        AdmissionMode::Index,
        true,
        BURST_ROUNDS,
    );
    let scan = run_ingest(&registry, &schedule, n, AdmissionMode::Scan, true, 1);

    // Burst-path engine equivalence: the scan oracle and the batched
    // engine are byte-identical in every observable.
    assert_eq!(scan.fingerprint, index.fingerprint, "scan vs index (burst)");
    // Ingest-shape equivalence: deferral cannot change the admitted set.
    assert_eq!(
        incremental.dag_set, index.dag_set,
        "burst vs incremental admitted set"
    );

    let mut result = Vec::new();
    for workers in [1usize, 2, 4] {
        let parallel = run_ingest(
            &registry,
            &schedule,
            n,
            AdmissionMode::parallel(workers),
            true,
            BURST_ROUNDS,
        );
        assert_eq!(
            parallel.fingerprint, index.fingerprint,
            "parallel{{{workers}}} vs index (burst)"
        );
        assert_eq!(
            (
                parallel.wave_stats.waves,
                parallel.wave_stats.largest_wave,
                parallel.wave_stats.smallest_wave
            ),
            (
                index.wave_stats.waves,
                index.wave_stats.largest_wave,
                index.wave_stats.smallest_wave
            ),
            "wave structure is scheduling-independent"
        );
        result.push(TrajectoryRow {
            width: authors,
            blocks,
            order,
            scheme: scheme.name(),
            sig_cost,
            workers,
            incremental_bps: blocks as f64 / incremental.seconds,
            index_bps: blocks as f64 / index.seconds,
            parallel_bps: blocks as f64 / parallel.seconds,
            mean_wave: index.wave_stats.mean_wave(),
            largest_wave: index.wave_stats.largest_wave,
            waves: index.wave_stats.waves,
            incremental_mean_wave: incremental.wave_stats.mean_wave(),
        });
    }
    (result, index.wave_stats.width_histogram)
}

// ---------------------------------------------------------------------------

fn run() -> (Vec<VerifyRow>, Vec<BurstRow>, String) {
    let verify: Vec<VerifyRow> = [512usize, 2048, 4096]
        .into_iter()
        .map(measure_verify)
        .collect();
    let burst: Vec<BurstRow> = [
        (1024, "reverse"),
        (2048, "reverse"),
        (4096, "reverse"),
        (1024, "shuffled"),
        (2048, "shuffled"),
        (4096, "shuffled"),
    ]
    .into_iter()
    .map(|(blocks, order)| measure_burst(blocks, order))
    .collect();

    let json = format!(
        "{{\"experiment\":\"admission_pipeline\",\"seed\":{},\"workers\":{},\"cores\":{},\
         \"verify\":[{}],\"burst\":[{}]}}",
        SEED,
        WORKERS,
        cores(),
        verify
            .iter()
            .map(VerifyRow::json)
            .collect::<Vec<_>>()
            .join(","),
        burst
            .iter()
            .map(BurstRow::json)
            .collect::<Vec<_>>()
            .join(","),
    );
    (verify, burst, json)
}

fn run_trajectory() -> (
    Vec<TrajectoryRow>,
    [u64; dagbft_core::WAVE_WIDTH_BUCKETS],
    String,
) {
    // Width 8 shows the pool roughly breaking even; width 64 and 128 are
    // the ≥ 2k-block wide bursts the pool is built for.
    let mut rows = Vec::new();
    let mut histogram = [0u64; dagbft_core::WAVE_WIDTH_BUCKETS];
    // sig_cost 1 is the raw HMAC stand-in (verification nearly free, so
    // bookkeeping dominates and no pool can win — Amdahl); sig_cost 64
    // is the calibrated chain that *prices* a verification like ed25519;
    // the ed25519 rows pay the real thing — one wave-wide multi-scalar
    // multiplication per batch instead of per-item verifies, the regime
    // the worker pool and the burst deferral exist for.
    for (authors, rounds, scheme, sig_cost) in [
        (8usize, 64u64, SchemeKind::Hmac, 1u32),
        (64, 32, SchemeKind::Hmac, 1),
        (128, 16, SchemeKind::Hmac, 1),
        (64, 32, SchemeKind::Hmac, 64),
        (64, 16, SchemeKind::Ed25519, 1),
    ] {
        for order in ["causal", "reverse"] {
            let (width_rows, width_histogram) =
                measure_trajectory(authors, rounds, order, scheme, sig_cost);
            rows.extend(width_rows);
            if authors == 64 && order == "causal" && sig_cost == 1 && scheme == SchemeKind::Hmac {
                histogram = width_histogram;
            }
        }
    }
    let json = format!(
        "{{\"experiment\":\"burst_admission\",\"seed\":{},\"cores\":{},\"rows\":[{}]}}",
        SEED,
        cores(),
        rows.iter()
            .map(TrajectoryRow::json)
            .collect::<Vec<_>>()
            .join(","),
    );
    (rows, histogram, json)
}

fn check(verify: &[VerifyRow], burst: &[BurstRow], json: &str) -> Result<(), String> {
    // The batched-verification floor from the issue: ≥2× over per-block
    // (cold) verify on the 2k burst. The measured ratio is comfortably
    // higher; the floor guards the key-schedule hoisting and the batch
    // fast path against regressions.
    let row_2k = verify
        .iter()
        .find(|row| row.items == 2048)
        .ok_or("no 2048-item verify row")?;
    if row_2k.speedup_batch_vs_cold() < 2.0 {
        return Err(format!(
            "2048 items: batch speedup {:.2} below the 2x floor",
            row_2k.speedup_batch_vs_cold()
        ));
    }
    for row in verify {
        if row.cold_seconds <= 0.0 || row.hoisted_seconds <= 0.0 || row.batch_seconds <= 0.0 {
            return Err(format!("{} items: zero wall-clock", row.items));
        }
        // Batching must stay in the same cost class as the hoisted
        // per-call path (same key schedules, minus per-call dispatch):
        // the two are within a few percent structurally, so a generous
        // floor here only catches a real regression of the batch path,
        // not runner noise.
        if row.speedup_batch_vs_hoisted() < 0.75 {
            return Err(format!(
                "{} items: batch far slower than hoisted single verify ({:.2}x)",
                row.items,
                row.speedup_batch_vs_hoisted()
            ));
        }
    }
    for row in burst {
        if row.scan_blocks_per_sec <= 0.0
            || row.index_blocks_per_sec <= 0.0
            || row.parallel_blocks_per_sec <= 0.0
        {
            return Err(format!(
                "burst {} ({}): zero throughput",
                row.blocks, row.order
            ));
        }
        if row.waves == 0 || row.largest_wave < 2 {
            return Err(format!(
                "burst {} ({}): no wave batching observed (waves {}, largest {})",
                row.blocks, row.order, row.waves, row.largest_wave
            ));
        }
        if row.fingerprint.is_empty() {
            return Err(format!(
                "burst {} ({}): missing equivalence fingerprint",
                row.blocks, row.order
            ));
        }
    }
    check_snapshot_schema("BENCH_admission.json", json)
}

/// Cores below which the `Parallel{2} ≥ 1.2× Index` wall-clock floor is
/// replaced by a no-pathology sanity bound: 2 workers plus the
/// promoting event-loop thread need at least 3 lanes for the pipeline's
/// overlap to physically exist.
const PARALLEL_GATE_MIN_CORES: usize = 3;

fn check_trajectory(rows: &[TrajectoryRow], json: &str) -> Result<(), String> {
    for row in rows {
        if row.incremental_bps <= 0.0 || row.index_bps <= 0.0 || row.parallel_bps <= 0.0 {
            return Err(format!(
                "trajectory width {} workers {}: zero throughput",
                row.width, row.workers
            ));
        }
    }
    // Structural widening gates — machine-independent: in-order delivery
    // starves one-block-bracket waves to width ~1, while one bracket
    // over the whole burst restores the full round width.
    for row in rows
        .iter()
        .filter(|row| row.width >= 64 && row.order == "causal")
    {
        if row.largest_wave < row.width {
            return Err(format!(
                "width {}: burst waves top out at {} — no cross-cascade widening",
                row.width, row.largest_wave
            ));
        }
        if row.mean_wave < row.width as f64 / 2.0 {
            return Err(format!(
                "width {}: mean burst wave {:.2} below half the round width",
                row.width, row.mean_wave
            ));
        }
        if row.incremental_mean_wave > 2.0 {
            return Err(format!(
                "width {}: one-block brackets unexpectedly wide ({:.2}) — \
                 the trajectory no longer isolates the deferral win",
                row.width, row.incremental_mean_wave
            ));
        }
    }
    // Machine-independent wall-clock gate: on hostile (reverse) wide
    // bursts, the deferred single-pass dependency analysis must beat the
    // incremental gear's per-delivery index churn — same thread count,
    // same verification work, so the ratio holds on any hardware.
    let reverse_wide = rows
        .iter()
        .filter(|row| row.width >= 64 && row.order == "reverse" && row.workers == 2)
        .collect::<Vec<_>>();
    if reverse_wide.is_empty() {
        return Err("no reverse wide-burst trajectory row".into());
    }
    for row in reverse_wide {
        if row.burst_over_incremental() < 1.2 {
            return Err(format!(
                "width {} cost {}: burst ingest only {:.2}x incremental on reverse \
                 delivery (floor 1.2x)",
                row.width,
                row.sig_cost,
                row.burst_over_incremental()
            ));
        }
    }
    // Hardware-conditional wall-clock gate: at real verification prices
    // — the calibrated HMAC chain and the genuine ed25519 rows (with
    // 2-compression HMACs verification is ~3% of admission and Amdahl
    // forbids any pool win) — Parallel{2} must beat the single-threaded
    // batch by ≥ 1.2× on hardware where the overlap can physically
    // happen. On smaller machines (the committed snapshot may come from
    // one; `cores` is in the JSON) the gate degrades to a no-pathology
    // bound.
    let expensive_wide = rows
        .iter()
        .filter(|row| {
            row.width >= 64
                && row.order == "causal"
                && (row.sig_cost > 1 || row.scheme == "ed25519")
                && row.workers == 2
        })
        .collect::<Vec<_>>();
    if expensive_wide.len() < 2 {
        return Err(
            "missing calibrated-HMAC or ed25519 wide-burst workers=2 trajectory row".into(),
        );
    }
    for row in expensive_wide {
        let ratio = row.parallel_over_index();
        if cores() >= PARALLEL_GATE_MIN_CORES {
            if ratio < 1.2 {
                return Err(format!(
                    "width {} scheme {} cost {}: Parallel{{2}} only {:.2}x Index on {} cores \
                     (floor 1.2x)",
                    row.width,
                    row.scheme,
                    row.sig_cost,
                    ratio,
                    cores()
                ));
            }
        } else if ratio < 0.33 {
            return Err(format!(
                "width {} scheme {} cost {}: Parallel{{2}} pathologically slow ({:.2}x Index) \
                 even for {} core(s)",
                row.width,
                row.scheme,
                row.sig_cost,
                ratio,
                cores()
            ));
        }
    }
    check_snapshot_schema("BENCH_parallel.json", json)
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");

    println!("# Admission pipeline — wave-batched verification + parallel engine (seed {SEED})\n");
    let (verify, burst, json) = run();

    println!(
        "| {:>6} | {:>9} | {:>11} | {:>9} | {:>13} | {:>16} |",
        "items", "cold ms", "hoisted ms", "batch ms", "batch/cold", "batch/hoisted"
    );
    println!("|{}|", "-".repeat(81));
    for row in &verify {
        println!(
            "| {:>6} | {:>9} | {:>11} | {:>9} | {:>12}x | {:>15}x |",
            row.items,
            f2(row.cold_seconds * 1000.0),
            f2(row.hoisted_seconds * 1000.0),
            f2(row.batch_seconds * 1000.0),
            f2(row.speedup_batch_vs_cold()),
            f2(row.speedup_batch_vs_hoisted()),
        );
    }

    println!(
        "\n| {:>6} | {:>8} | {:>10} | {:>11} | {:>12} | {:>7} | {:>6} | {:>8} |",
        "blocks", "order", "scan b/s", "index b/s", "parallel b/s", "idx spd", "waves", "max wave"
    );
    println!("|{}|", "-".repeat(92));
    for row in &burst {
        println!(
            "| {:>6} | {:>8} | {:>10} | {:>11} | {:>12} | {:>6}x | {:>6} | {:>8} |",
            row.blocks,
            row.order,
            f2(row.scan_blocks_per_sec),
            f2(row.index_blocks_per_sec),
            f2(row.parallel_blocks_per_sec),
            f2(row.index_speedup()),
            row.waves,
            row.largest_wave,
        );
    }

    let (trajectory, histogram, parallel_json) = run_trajectory();
    println!(
        "\n## Cross-cascade burst admission (in-order wide bursts, one bracket; {} cores)\n",
        cores()
    );
    println!(
        "| {:>5} | {:>6} | {:>7} | {:>7} | {:>4} | {:>7} | {:>12} | {:>11} | {:>12} | {:>8} | {:>8} | {:>9} | {:>9} |",
        "width", "blocks", "order", "scheme", "cost", "workers", "increm b/s", "index b/s",
        "parallel b/s", "par/idx", "bst/incr", "mean wave", "incr wave"
    );
    println!("|{}|", "-".repeat(141));
    for row in &trajectory {
        println!(
            "| {:>5} | {:>6} | {:>7} | {:>7} | {:>4} | {:>7} | {:>12} | {:>11} | {:>12} | {:>7}x | {:>7}x | {:>9} | {:>9} |",
            row.width,
            row.blocks,
            row.order,
            row.scheme,
            row.sig_cost,
            row.workers,
            f2(row.incremental_bps),
            f2(row.index_bps),
            f2(row.parallel_bps),
            f2(row.parallel_over_index()),
            f2(row.burst_over_incremental()),
            f2(row.mean_wave),
            f2(row.incremental_mean_wave),
        );
    }

    println!("\nWave-width histogram (width-64 burst, index engine):");
    for (bucket, count) in histogram.iter().enumerate() {
        if *count == 0 {
            continue;
        }
        let low = 1usize << bucket;
        let label = if bucket == dagbft_core::WAVE_WIDTH_BUCKETS - 1 {
            format!("[{low}+)")
        } else {
            format!("[{low}-{})", 1usize << (bucket + 1))
        };
        println!(
            "  {label:>12} {} {count}",
            "#".repeat((*count as usize).min(60))
        );
    }

    println!(
        "\nReading: hoisting the HMAC key schedules and verifying each ready\n\
         wave in one batch pass removes the per-verification key setup that\n\
         per-message BFT systems pay on every protocol message — the paper's\n\
         batch-signature argument (§4/E6) as a measured trajectory. The burst\n\
         rows pin all three admission engines to bit-identical promotion\n\
         fingerprints on equivocating, tampered-signature, out-of-order\n\
         floods. The cross-cascade trajectory shows what deferral buys: on\n\
         in-order wide bursts, one-block brackets verify width-1 waves\n\
         (incr wave), while one bracket per burst restores full-round waves\n\
         (mean wave) — the unit of work the parallel pool needs. Whether\n\
         Parallel{{2}} then beats Index (par/idx) is a hardware fact; the\n\
         cores field in the JSON says what this machine could show.\n"
    );

    // Machine-readable trajectory lines (snapshots: BENCH_admission.json,
    // BENCH_parallel.json).
    println!("{json}");
    println!("{parallel_json}");

    if check_mode {
        match check(&verify, &burst, &json)
            .and_then(|()| check_trajectory(&trajectory, &parallel_json))
        {
            Ok(()) => println!("CHECK OK"),
            Err(reason) => {
                eprintln!("CHECK FAILED: {reason}");
                std::process::exit(1);
            }
        }
    }
}
