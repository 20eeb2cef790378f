//! Building the block DAG — Algorithm 1 of the paper.
//!
//! The networking component is deliberately simple: there is one core
//! message type, the block, plus the `FWD` request used to pull missing
//! predecessors from the server whose block referenced them
//! (lines 10–13). A correct server
//!
//! * buffers received blocks (`blks`, lines 4–5),
//! * promotes them into its DAG once valid (lines 6–9), appending a
//!   reference to each newly valid block to its *current block* `B`
//!   (line 8),
//! * serves `FWD` requests from its DAG (lines 12–13), and
//! * on `disseminate()` seals `B` with the pending user requests and its
//!   signature, sends it to everyone, and starts the next block with the
//!   parent reference (lines 14–18).
//!
//! The module is transport-agnostic: entry points consume [`NetMessage`]s
//! and return [`NetCommand`]s for the caller (simulator, tests, or a real
//! event loop) to execute. Time is passed in explicitly and is only used to
//! pace `FWD` retransmissions (the paper's timer `Δ_B'`).
//!
//! # Admission bursts
//!
//! Admission has one procedure, the *burst* bracket. [`Gossip::begin_burst`]
//! opens it; inside, `on_block` only dedups and buffers (O(1) per block —
//! no verification, no promotion, no per-predecessor bookkeeping).
//! [`Gossip::end_burst`] then computes the ready frontier across
//! everything buffered, verifies it wave by wave — each wave ordered by
//! `(builder, seq, ref)` so same-builder runs are contiguous for the
//! verifier — promotes in that canonical order, enforces the pending cap
//! and emits due `FWD` requests. [`Gossip::on_block_burst`] wraps the
//! bracket for slice-shaped callers (the shim's ingest loop, the
//! simulator's burst delivery, the transport's channel drain); an
//! unbracketed [`Gossip::on_block`] is a burst of one.
//!
//! `end_burst` finds the frontier in one of two byte-equivalent gears.
//! When the burst is a large share of the buffer, one dependency-analysis
//! pass builds missing counts and a reverse adjacency over the whole
//! buffer, and the incremental index is rebuilt for whatever survives.
//! A small burst against a large backlog indexes just its arrivals into
//! the maintained reverse dependency index — pending block → missing
//! predecessors, missing predecessor → waiting blocks — so per-bracket
//! cost stays O(burst · preds).
//!
//! # Admission engines
//!
//! The engines share the wave schedule and differ only in how a wave's
//! signatures are checked, selected by [`AdmissionMode`]:
//!
//! * [`AdmissionMode::Index`] (the default) checks each wave in one
//!   [`BatchVerifier`] pass over the cached `ref(B)` digests, amortizing
//!   the per-verification key setup (the paper's batch-signature
//!   economics, §4/E6).
//! * [`AdmissionMode::Parallel`] pipelines each wave across a fixed pool
//!   of worker threads over crossbeam channels: the event-loop thread
//!   settles blocks of one chunk while workers verify the next. It pays
//!   off only when waves are wide enough to amortize the per-chunk
//!   channel round-trip. Verdicts are consumed in submission order, so
//!   promotion order — and every byte that is later hashed and signed —
//!   is identical to the sequential engines regardless of worker
//!   scheduling.
//! * [`AdmissionMode::Scan`] recomputes readiness by rescanning the buffer
//!   (O(pending²) on adversarial orderings) with one signature check per
//!   candidate, retained as the equivalence oracle: tests and the
//!   `report_wire`/`report_admission` benches drive all engines with
//!   identical hostile schedules and assert identical DAGs, promotion
//!   orders, stats, and `FWD` traffic.
//!
//! How deliveries are grouped into brackets does not change the
//! *outcome* — admitted blocks, rejections, validation counts — because
//! the promotion fixed point is confluent; only the order in which the
//! current block references newly admitted blocks, and the `FWD` traffic
//! for gaps resolved within a bracket, may differ. Waves are only as wide
//! as the ready set, so one-block brackets of a chain delivered in order
//! verify width-1 waves; whole ingest batches are what feed the pool.
//!
//! # Pending-buffer cap
//!
//! The `blks` buffer is bounded by [`GossipConfig::pending_cap`]: once
//! a burst has settled, the buffer is trimmed to
//! the cap by deterministic eviction — oldest *never-promotable* block
//! first (one referencing an already rejected predecessor), then oldest
//! overall. Each eviction emits an [`EvictionEvent`] and re-lists the
//! evicted reference as missing for any surviving waiters, so the `FWD`
//! path can re-fetch a wanted block after byzantine flood pressure
//! subsides — eviction bounds memory, never safety.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crossbeam::channel::{Receiver, Sender};
use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_crypto::{BatchVerifier, ServerId, SignedDigest, Signer, Verifier};

use crate::block::{Block, BlockRef, LabeledRequest, SeqNum};
use crate::dag::BlockDag;
use crate::defense::{AdmitVerdict, DefenseConfig, Offense, PeerDefense};
use crate::error::InvalidBlockError;
use crate::TimeMs;

/// The messages servers exchange: blocks, and forward requests for missing
/// predecessor blocks (Algorithm 1).
///
/// Cloning is cheap by construction — a block is an `Arc`'d body with
/// cached wire bytes — so fanning one message out to `n − 1` peers never
/// deep-copies or re-encodes the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetMessage {
    /// A block being disseminated (line 17) or forwarded (line 13).
    Block(Block),
    /// `FWD ref(B)`: "please send me block `B`" (line 11).
    FwdRequest(BlockRef),
}

impl NetMessage {
    /// Size of this message on the wire, in bytes. O(1): one discriminant
    /// byte plus the cached payload length — no encoding happens.
    pub fn wire_len(&self) -> usize {
        let (_, payload) = self.payload_view();
        1 + payload.len()
    }

    /// The message as `(discriminant, canonical payload bytes)` without
    /// encoding anything: blocks expose their cached wire image,
    /// references their digest bytes. Frame writers emit the discriminant
    /// byte followed by the payload verbatim — the zero-copy send path.
    pub fn payload_view(&self) -> (u8, &[u8]) {
        match self {
            NetMessage::Block(block) => (0, block.wire_bytes()),
            NetMessage::FwdRequest(block_ref) => (1, block_ref.as_bytes()),
        }
    }
}

impl WireEncode for NetMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        let (discriminant, payload) = self.payload_view();
        out.push(discriminant);
        out.extend_from_slice(payload);
    }
}

impl WireDecode for NetMessage {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(NetMessage::Block(Block::decode(reader)?)),
            1 => Ok(NetMessage::FwdRequest(BlockRef::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "NetMessage",
                value,
            }),
        }
    }
}

/// An instruction to the transport layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetCommand {
    /// Send `message` to a single server.
    SendTo {
        /// The destination server.
        to: ServerId,
        /// The message to deliver.
        message: NetMessage,
    },
    /// Send `message` to every *other* server (line 17; the sender already
    /// holds the block).
    Broadcast {
        /// The message to deliver to all peers.
        message: NetMessage,
    },
}

/// Which engine admits buffered blocks into the DAG (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Reverse-dependency index with wave-batched signature verification:
    /// O(preds) bookkeeping per block, one `BatchVerifier` pass per ready
    /// wave.
    #[default]
    Index,
    /// The paper-literal full rescan, kept as the equivalence oracle.
    Scan,
    /// The index engine with wave verification split across a worker
    /// pool (`workers` threads, clamped to at least 1); wins over
    /// [`AdmissionMode::Index`] only on wide waves (see the module docs).
    /// Promotion order is byte-identical to the sequential engines.
    Parallel {
        /// Number of verification worker threads.
        workers: usize,
    },
}

impl AdmissionMode {
    /// Parallel admission with `workers` verification threads.
    pub fn parallel(workers: usize) -> Self {
        AdmissionMode::Parallel { workers }
    }
}

/// Default bound on the pending (`blks`) buffer — far above any honest
/// in-flight backlog, low enough that a byzantine flood of
/// never-promotable blocks cannot grow memory without bound.
pub const DEFAULT_PENDING_CAP: usize = 65_536;

/// Maximum messages a driver folds into one `Shim::on_message_burst`
/// bracket: the TCP node drains its incoming channel up to this many, and
/// the simulator merges same-instant deliveries to one server up to it.
pub const INGEST_BURST_CAP: usize = 1024;

/// Configuration for the gossip layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Total number of servers `|Srvrs|`.
    pub n: usize,
    /// Minimum time between repeated `FWD` requests for the same block
    /// (the paper's per-block wait `Δ_B'`, informed by the round-trip time).
    pub fwd_retry_ms: TimeMs,
    /// The admission engine for buffered blocks.
    pub admission: AdmissionMode,
    /// Maximum number of buffered, not-yet-valid blocks; exceeding it
    /// triggers deterministic eviction (see the module docs).
    pub pending_cap: usize,
    /// The adversarial peer-defense engine (scoring, rate limits, bans;
    /// disabled by default — see [`crate::defense`]).
    pub defense: DefenseConfig,
}

impl GossipConfig {
    /// Configuration for `n` servers with the default 100 ms `FWD` retry
    /// and incremental admission.
    pub fn for_n(n: usize) -> Self {
        GossipConfig {
            n,
            fwd_retry_ms: 100,
            admission: AdmissionMode::default(),
            pending_cap: DEFAULT_PENDING_CAP,
            defense: DefenseConfig::default(),
        }
    }

    /// Selects the admission engine.
    pub fn with_admission(mut self, admission: AdmissionMode) -> Self {
        self.admission = admission;
        self
    }

    /// Bounds the pending buffer (must be at least 1).
    pub fn with_pending_cap(mut self, cap: usize) -> Self {
        self.pending_cap = cap.max(1);
        self
    }

    /// Configures the peer-defense engine.
    pub fn with_defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = defense;
        self
    }
}

/// Counters describing a gossip instance's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Blocks received from the network (before dedup).
    pub blocks_received: u64,
    /// Received blocks already present in the DAG or the pending buffer.
    pub duplicate_blocks: u64,
    /// Blocks rejected by the validity checks of Definition 3.3.
    pub invalid_blocks: u64,
    /// Blocks from other servers promoted into the DAG.
    pub blocks_validated: u64,
    /// Own blocks built and disseminated.
    pub blocks_built: u64,
    /// `FWD` requests sent.
    pub fwd_sent: u64,
    /// `FWD` requests received from peers.
    pub fwd_received: u64,
    /// Blocks re-sent in answer to `FWD` requests.
    pub fwd_answered: u64,
    /// Peak size of the pending (`blks`) buffer.
    pub pending_peak: usize,
    /// Pending blocks evicted by the buffer cap (see [`EvictionEvent`]).
    pub blocks_evicted: u64,
}

/// State of an outstanding forward request for one missing block.
#[derive(Debug, Clone)]
struct FwdState {
    /// Builders of pending blocks that reference the missing block — the
    /// servers Algorithm 1 line 11 directs requests to.
    candidates: BTreeSet<ServerId>,
    /// When the last `FWD` was sent, if any.
    last_sent: Option<TimeMs>,
    /// Number of requests sent so far (used to rotate candidates).
    attempts: u32,
}

/// Eviction rank of a pending block known never-promotable (references a
/// rejected block, transitively) — evicted first.
const RANK_STRANDED: u8 = 0;
/// Eviction rank of a block claiming a deprioritized (caught-equivocating)
/// builder — evicted before honest backlog.
const RANK_DEPRIORITIZED: u8 = 1;
/// Eviction rank of an ordinary pending block — evicted last, oldest first.
const RANK_NORMAL: u8 = 2;

/// A buffered, not-yet-valid block plus its admission bookkeeping.
#[derive(Debug, Clone)]
struct PendingBlock {
    block: Block,
    /// The peer that delivered the block (for offense attribution — the
    /// claimed builder is unauthenticated until the signature verifies).
    from: ServerId,
    /// Predecessors not yet in the DAG (maintained by the index engines;
    /// the scan engine recomputes promotability from the DAG).
    missing: BTreeSet<BlockRef>,
    /// Receipt ordinal — the deterministic age the eviction policy sorts
    /// by ("oldest never-promotable first").
    arrival: u64,
    /// Whether the block is known never-promotable (references a
    /// rejected block, transitively).
    stranded: bool,
    /// The block's current eviction-queue rank ([`RANK_STRANDED`] /
    /// [`RANK_DEPRIORITIZED`] / [`RANK_NORMAL`]). Every re-rank updates
    /// this together with the queue, so the queue key can always be
    /// reconstructed exactly.
    rank: u8,
}

/// Accountability record for one pending-buffer eviction.
///
/// Eviction is a resource decision, not a validity verdict: the evicted
/// block re-enters the `FWD` missing set for any surviving waiters, so it
/// can be re-fetched and admitted later. The event names the builder
/// whose block was dropped — under a byzantine flood that is the flooding
/// server, the raw material the paper's §6 accountability discussion
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionEvent {
    /// The evicted block.
    pub block: BlockRef,
    /// Its claimed builder.
    pub builder: ServerId,
    /// The never-promotable predecessor (rejected, or itself stranded on
    /// a rejection) that doomed the block, when the policy picked it for
    /// that reason (`None`: evicted as oldest overall).
    pub stranded_on: Option<BlockRef>,
}

/// Counters for the wave-batched verification pipeline (the scan oracle
/// verifies per candidate and leaves the wave counters zero; the burst
/// counters are recorded by every engine).
///
/// Deliberately *not* part of [`GossipStats`]: that struct is asserted
/// equal across admission engines by the equivalence tests, and waves are
/// an implementation property of the batched engines, not an observable
/// of Algorithm 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Verification waves batched so far.
    pub waves: u64,
    /// Blocks signature-checked through batched waves.
    pub batched_blocks: u64,
    /// Size of the largest wave.
    pub largest_wave: usize,
    /// Size of the smallest wave (0 until the first wave is recorded).
    pub smallest_wave: usize,
    /// Deferred-admission brackets processed (`begin_burst`/`end_burst`,
    /// including the one-block bracket of an unbracketed `on_block`;
    /// recorded by every engine, including the scan oracle — burst shape
    /// is an ingest property, not a batching one).
    pub bursts: u64,
    /// Blocks buffered through those brackets (received minus duplicates).
    pub burst_blocks: u64,
    /// Wave-width histogram over power-of-two buckets: index `i` counts
    /// waves of width in `[2^i, 2^(i+1))`; the last bucket is open-ended.
    pub width_histogram: [u64; WAVE_WIDTH_BUCKETS],
}

/// Number of log₂ buckets in [`WaveStats::width_histogram`] (widths 1 up
/// to ≥ 2048).
pub const WAVE_WIDTH_BUCKETS: usize = 12;

impl WaveStats {
    fn record(&mut self, wave: usize) {
        debug_assert!(wave > 0, "empty waves are not recorded");
        self.waves += 1;
        self.batched_blocks += wave as u64;
        self.largest_wave = self.largest_wave.max(wave);
        self.smallest_wave = if self.waves == 1 {
            wave
        } else {
            self.smallest_wave.min(wave)
        };
        let bucket = (wave.ilog2() as usize).min(WAVE_WIDTH_BUCKETS - 1);
        self.width_histogram[bucket] += 1;
    }

    /// Mean wave width (0.0 before the first wave).
    pub fn mean_wave(&self) -> f64 {
        if self.waves == 0 {
            0.0
        } else {
            self.batched_blocks as f64 / self.waves as f64
        }
    }

    /// Folds another instance's counters into this one — how the
    /// simulator aggregates per-server wave statistics into a
    /// whole-deployment view.
    pub fn merge(&mut self, other: &WaveStats) {
        self.smallest_wave = match (self.waves, other.waves) {
            (_, 0) => self.smallest_wave,
            (0, _) => other.smallest_wave,
            _ => self.smallest_wave.min(other.smallest_wave),
        };
        self.waves += other.waves;
        self.batched_blocks += other.batched_blocks;
        self.largest_wave = self.largest_wave.max(other.largest_wave);
        self.bursts += other.bursts;
        self.burst_blocks += other.burst_blocks;
        for (mine, theirs) in self.width_histogram.iter_mut().zip(other.width_histogram) {
            *mine += theirs;
        }
    }
}

/// One unit of work for the verification pool.
#[derive(Debug)]
enum VerifyJob {
    /// Verify a chunk of signature claims: `(slot, items)`. Answered on
    /// the verdict channel for slot-ordered reassembly.
    Verify(usize, Vec<SignedDigest>),
    /// Warm the `ref(B)` caches of freshly decoded blocks (one SHA-256
    /// each, filling the block's shared `OnceLock`). Fire-and-forget: no
    /// verdict reply, and the event-loop thread computes any ref a
    /// worker hasn't reached yet, so verdicts and promotion order never
    /// depend on scheduling.
    Hash(Vec<Block>),
}

/// A worker's verdicts for one chunk: `(slot, per-item results)`.
type VerifyVerdicts = (usize, Vec<bool>);

/// A fixed pool of signature-verification workers fed over crossbeam
/// channels ([`AdmissionMode::Parallel`]).
///
/// The event-loop thread splits a wave into contiguous chunks, the pool
/// verifies them concurrently (each worker runs
/// [`BatchVerifier::verify_batch`] on whole chunks), and verdicts are
/// reassembled by chunk slot — the output is a pure function of the input
/// order, never of thread scheduling.
#[derive(Debug)]
struct VerifyPool {
    /// `Some` until drop; taken so workers see the channel close.
    jobs: Option<Sender<VerifyJob>>,
    verdicts: Receiver<VerifyVerdicts>,
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl VerifyPool {
    fn new(workers: usize, verifier: &BatchVerifier) -> Self {
        let workers = workers.max(1);
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<VerifyJob>();
        let (verdict_tx, verdict_rx) = crossbeam::channel::unbounded::<VerifyVerdicts>();
        let handles = (0..workers)
            .map(|_| {
                let jobs = job_rx.clone();
                let verdicts = verdict_tx.clone();
                let verifier = verifier.clone();
                std::thread::spawn(move || {
                    while let Ok(job) = jobs.recv() {
                        match job {
                            VerifyJob::Verify(slot, items) => {
                                if verdicts
                                    .send((slot, verifier.verify_batch(&items)))
                                    .is_err()
                                {
                                    return;
                                }
                            }
                            VerifyJob::Hash(blocks) => {
                                for block in &blocks {
                                    let _ = block.block_ref();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        VerifyPool {
            jobs: Some(job_tx),
            verdicts: verdict_rx,
            workers,
            handles,
        }
    }

    /// Dispatches `items` across the pool in small chunks and returns a
    /// cursor yielding verdicts *in item order* as chunks complete — the
    /// burst path's pipeline: the event-loop thread promotes blocks of
    /// chunk `k` while the workers are still verifying chunks `k+1…`.
    /// Verdicts remain a pure function of the input order; only the
    /// overlap of verification and promotion bookkeeping changes.
    fn stream(&self, items: &[SignedDigest]) -> VerdictStream<'_> {
        let mut dispatched = 0;
        if !items.is_empty() {
            let jobs = self.jobs.as_ref().expect("pool alive");
            // Several chunks per worker so verdicts start flowing early
            // and the reassembly thread rarely stalls; a floor keeps the
            // per-chunk channel round-trip amortized on small waves.
            let chunk_len = items
                .len()
                .div_ceil(self.workers * PIPELINE_CHUNKS_PER_WORKER)
                .max(MIN_PIPELINE_CHUNK);
            for (slot, chunk) in items.chunks(chunk_len).enumerate() {
                jobs.send(VerifyJob::Verify(slot, chunk.to_vec()))
                    .expect("workers alive");
                dispatched += 1;
            }
        }
        VerdictStream {
            verdicts: &self.verdicts,
            outstanding: dispatched,
            reorder: BTreeMap::new(),
            next_slot: 0,
            current: Vec::new().into_iter(),
        }
    }

    /// Fans the `ref(B)` hashing of a decoded burst across the workers
    /// while the event-loop thread buffers the same blocks front to
    /// back. Chunks are dispatched back to front so the two ends meet in
    /// the middle; whoever reaches a block first fills its shared cache,
    /// and `OnceLock` guarantees each hash is computed exactly once.
    /// Tiny bursts skip the channel round-trip.
    fn hash_blocks(&self, blocks: &[Block]) {
        if blocks.len() < MIN_HASH_FANOUT {
            return;
        }
        let jobs = self.jobs.as_ref().expect("pool alive");
        let chunk_len = blocks
            .len()
            .div_ceil(self.workers * PIPELINE_CHUNKS_PER_WORKER)
            .max(MIN_PIPELINE_CHUNK);
        for chunk in blocks.chunks(chunk_len).rev() {
            jobs.send(VerifyJob::Hash(chunk.to_vec()))
                .expect("workers alive");
        }
    }
}

/// Gear selector for `end_burst`: the whole-buffer analysis pass runs
/// only when the burst is at least this share (1/N) of the pending
/// buffer, so its O(pending) cost is always amortized by the burst
/// itself; smaller bursts index incrementally in O(burst · preds).
const DEFERRED_ANALYSIS_FACTOR: usize = 4;

/// Chunks dispatched per worker by [`VerifyPool::stream`].
const PIPELINE_CHUNKS_PER_WORKER: usize = 4;
/// Minimum pipelined chunk size (items), amortizing channel round-trips.
const MIN_PIPELINE_CHUNK: usize = 16;
/// Smallest burst worth fanning `ref(B)` hashing out to the pool; below
/// this the event-loop thread hashes faster than the channel round-trip.
const MIN_HASH_FANOUT: usize = 8;

/// In-order cursor over a pipelined dispatch's verdicts (see
/// [`VerifyPool::stream`]). Chunks arriving out of slot order are
/// buffered; dropping the cursor drains stragglers so the next dispatch
/// starts with an empty verdict channel.
struct VerdictStream<'a> {
    verdicts: &'a Receiver<VerifyVerdicts>,
    /// Chunks dispatched but not yet received.
    outstanding: usize,
    /// Early chunks, keyed by slot.
    reorder: BTreeMap<usize, Vec<bool>>,
    next_slot: usize,
    current: std::vec::IntoIter<bool>,
}

impl VerdictStream<'_> {
    /// The next verdict in item order (blocks on the pool as needed).
    /// Must be called exactly once per dispatched item.
    fn next_verdict(&mut self) -> bool {
        loop {
            if let Some(verdict) = self.current.next() {
                return verdict;
            }
            if let Some(chunk) = self.reorder.remove(&self.next_slot) {
                self.next_slot += 1;
                self.current = chunk.into_iter();
                continue;
            }
            let (slot, verdicts) = self.verdicts.recv().expect("workers alive");
            self.outstanding -= 1;
            self.reorder.insert(slot, verdicts);
        }
    }
}

impl Drop for VerdictStream<'_> {
    fn drop(&mut self) {
        while self.outstanding > 0 {
            let _ = self.verdicts.recv();
            self.outstanding -= 1;
        }
    }
}

impl Drop for VerifyPool {
    fn drop(&mut self) {
        // Closing the job channel is the shutdown signal.
        self.jobs = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The gossip module of Algorithm 1: builds the local DAG `G` and the
/// current block `B`.
///
/// # Examples
///
/// ```
/// use dagbft_core::{Gossip, GossipConfig, NetCommand, NetMessage};
/// use dagbft_crypto::{KeyRegistry, ServerId};
///
/// let registry = KeyRegistry::generate(2, 1);
/// let mut alice = Gossip::new(
///     ServerId::new(0),
///     GossipConfig::for_n(2),
///     registry.signer(ServerId::new(0)).unwrap(),
///     registry.verifier(),
/// );
/// let (block, commands) = alice.disseminate(vec![], 0);
/// assert!(matches!(&commands[0], NetCommand::Broadcast { .. }));
/// assert!(alice.dag().contains(&block.block_ref()));
/// ```
#[derive(Debug)]
pub struct Gossip {
    me: ServerId,
    config: GossipConfig,
    signer: Signer,
    verifier: Verifier,
    dag: BlockDag,
    /// Sequence number of the block currently under construction.
    next_seq: SeqNum,
    /// `B.preds` of the block currently under construction (line 8 appends
    /// here, line 18 re-initializes with the parent reference).
    current_preds: Vec<BlockRef>,
    /// The `blks` buffer of received, not-yet-valid blocks (line 3).
    pending: BTreeMap<BlockRef, PendingBlock>,
    /// Reverse dependency index: missing predecessor → pending blocks
    /// waiting on it (incremental engine only).
    waiters: BTreeMap<BlockRef, BTreeSet<BlockRef>>,
    /// Missing predecessor → forward-request state.
    missing: BTreeMap<BlockRef, FwdState>,
    /// Blocks rejected as permanently invalid, with the reason — kept for
    /// auditing (the paper notes accountability as an extension, §6).
    rejected: Vec<(BlockRef, InvalidBlockError)>,
    /// References known to be permanently un-admittable: rejected blocks
    /// plus, transitively, every buffered block that references one — the
    /// "never promotable" predicate the eviction policy sorts by.
    stranded_refs: BTreeSet<BlockRef>,
    stats: GossipStats,
    /// Wave-batched verification (index engines).
    batch_verifier: BatchVerifier,
    /// Worker pool, present only in [`AdmissionMode::Parallel`].
    pool: Option<VerifyPool>,
    wave_stats: WaveStats,
    /// Receipt ordinal source for [`PendingBlock::arrival`].
    arrivals: u64,
    /// Eviction order over the pending buffer:
    /// `(rank, arrival, ref)` — known-stranded blocks (a rejected
    /// predecessor) sort first, then blocks of deprioritized builders,
    /// then oldest arrival. Kept in lockstep with `pending` so enforcing
    /// the cap is O(log) per block.
    eviction_queue: BTreeSet<(u8, u64, BlockRef)>,
    /// Accountability log of cap evictions, in eviction order.
    evictions: Vec<EvictionEvent>,
    /// `Some` while inside a `begin_burst()`/`end_burst()` bracket.
    burst: Option<BurstState>,
    /// The adversarial peer-defense engine (see [`crate::defense`]).
    defense: PeerDefense,
    /// Logical time of the last timed entry point — what interior paths
    /// (settling, eviction) stamp defense offenses with, since they have
    /// no `now` parameter of their own.
    clock: TimeMs,
}

/// State accumulated inside a deferred-admission bracket.
#[derive(Debug, Default)]
struct BurstState {
    /// Blocks buffered during this bracket (received minus duplicates),
    /// in arrival order — the indexing order of the incremental branch.
    arrived: Vec<BlockRef>,
}

impl Gossip {
    /// Creates a gossip instance for server `me`.
    pub fn new(me: ServerId, config: GossipConfig, signer: Signer, verifier: Verifier) -> Self {
        debug_assert_eq!(signer.id(), me);
        let batch_verifier = verifier.batch();
        let pool = match config.admission {
            AdmissionMode::Parallel { workers } => Some(VerifyPool::new(workers, &batch_verifier)),
            AdmissionMode::Index | AdmissionMode::Scan => None,
        };
        Gossip {
            me,
            config,
            signer,
            verifier,
            dag: BlockDag::new(),
            next_seq: SeqNum::ZERO,
            current_preds: Vec::new(),
            pending: BTreeMap::new(),
            waiters: BTreeMap::new(),
            missing: BTreeMap::new(),
            rejected: Vec::new(),
            stranded_refs: BTreeSet::new(),
            stats: GossipStats::default(),
            batch_verifier,
            pool,
            wave_stats: WaveStats::default(),
            arrivals: 0,
            eviction_queue: BTreeSet::new(),
            evictions: Vec::new(),
            burst: None,
            defense: PeerDefense::new(config.defense),
            clock: 0,
        }
    }

    /// Resumes gossip from a persisted DAG after a crash (§7
    /// crash–recovery discussion).
    ///
    /// The next block continues this server's own chain: its sequence
    /// number follows the highest own block in `dag`, its predecessors are
    /// the own chain tip plus every block of `dag` the chain has not yet
    /// referenced (so messages received just before the crash still get
    /// delivered). Resuming from a *stale* image — one missing own blocks
    /// that already reached the network — would re-use sequence numbers,
    /// i.e. equivocate; persisting the DAG after each own dissemination
    /// (the `dag()` accessor plus `recovery::persist_dag`) avoids this, as
    /// the paper prescribes ("assuming that they persist enough
    /// information").
    pub fn resume(
        me: ServerId,
        config: GossipConfig,
        signer: Signer,
        verifier: Verifier,
        dag: BlockDag,
    ) -> Self {
        let own_tip = dag.height_of(me).map(|height| {
            let at = dag.blocks_at(me, height);
            debug_assert_eq!(at.len(), 1, "own chain must not be forked");
            at[0]
        });
        let next_seq = dag
            .height_of(me)
            .map(|height| height.next())
            .unwrap_or(SeqNum::ZERO);
        // Everything the own chain has referenced is an ancestor of the
        // tip; reference the rest now, in topological order.
        let referenced: std::collections::BTreeSet<BlockRef> = match own_tip {
            Some(tip) => {
                let mut set = dag.ancestors(&tip);
                set.insert(tip);
                set
            }
            None => Default::default(),
        };
        let mut current_preds: Vec<BlockRef> = Vec::new();
        if let Some(tip) = own_tip {
            current_preds.push(tip);
        }
        for block_ref in dag.refs() {
            if !referenced.contains(block_ref) {
                current_preds.push(*block_ref);
            }
        }
        let mut gossip = Gossip::new(me, config, signer, verifier);
        gossip.dag = dag;
        gossip.next_seq = next_seq;
        gossip.current_preds = current_preds;
        // Re-derive the durable score component from the recovered DAG:
        // every equivocation provable from `G` before the crash is
        // provable from it now (`recovery::persist_dag` round-trips the
        // whole DAG), so convicted builders stay deprioritized across
        // restarts. The volatile component is intentionally transient —
        // it models resource pressure on *this* process, which a restart
        // resets.
        let seeds: Vec<(ServerId, u64)> = gossip
            .dag
            .known_servers()
            .filter(|server| **server != me)
            .map(|server| {
                let extra: u64 = gossip
                    .dag
                    .equivocations(*server)
                    .iter()
                    .map(|(_, refs)| (refs.len() - 1) as u64)
                    .sum();
                (*server, extra)
            })
            .collect();
        for (server, count) in seeds {
            gossip.defense.seed_equivocations(server, count, 0);
        }
        gossip
    }

    /// The server this instance runs as.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// Read access to the local block DAG `G`.
    pub fn dag(&self) -> &BlockDag {
        &self.dag
    }

    /// Activity counters.
    pub fn stats(&self) -> &GossipStats {
        &self.stats
    }

    /// Wave-batched verification counters (waves stay zero under the scan
    /// oracle).
    pub fn wave_stats(&self) -> &WaveStats {
        &self.wave_stats
    }

    /// Number of buffered, not-yet-valid blocks.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Blocks rejected as permanently invalid, with their reasons — the raw
    /// material for accountability mechanisms (§6 of the paper).
    pub fn rejected(&self) -> &[(BlockRef, InvalidBlockError)] {
        &self.rejected
    }

    /// Pending-buffer evictions performed so far, in eviction order (the
    /// `FWD`-accountability trail of [`GossipConfig::pending_cap`]).
    pub fn evictions(&self) -> &[EvictionEvent] {
        &self.evictions
    }

    /// The peer-defense engine: scores, bans, and the `DefenseEvent`
    /// audit trail (inert unless [`GossipConfig::defense`] enables it).
    pub fn defense(&self) -> &PeerDefense {
        &self.defense
    }

    /// Reports `count` malformed frames from `peer` (fed by the
    /// transport's decode-error counters — a wire-level offense the
    /// gossip layer cannot observe itself).
    pub fn note_malformed_frames(&mut self, peer: ServerId, count: u64, now: TimeMs) {
        self.clock = self.clock.max(now);
        if peer == self.me {
            return;
        }
        for _ in 0..count {
            self.defense
                .note_offense(peer, Offense::MalformedFrame, now);
        }
    }

    /// Sequence number the next disseminated block will carry.
    pub fn next_seq(&self) -> SeqNum {
        self.next_seq
    }

    /// Handles a message from `from`, returning transport commands
    /// (block handling: lines 4–13 of Algorithm 1).
    pub fn on_message(
        &mut self,
        from: ServerId,
        message: NetMessage,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        match message {
            NetMessage::Block(block) => self.on_block_from(from, block, now),
            NetMessage::FwdRequest(block_ref) => {
                // A banned peer's FWD requests are dropped too: answering
                // would hand it a block-sized reply per tiny request — an
                // amplification channel the ban exists to close.
                if self.defense.is_banned(from, now) {
                    return Vec::new();
                }
                self.on_fwd_request(from, block_ref)
            }
        }
    }

    /// Handles a received block (lines 4–11).
    ///
    /// Inside a [`Gossip::begin_burst`] bracket this only buffers the
    /// block (returning no commands); promotion, verification, cap
    /// enforcement, and `FWD` emission are deferred to
    /// [`Gossip::end_burst`]. Outside a bracket the block is admitted as
    /// a burst of one.
    pub fn on_block(&mut self, block: Block, now: TimeMs) -> Vec<NetCommand> {
        let from = block.builder();
        self.on_block_from(from, block, now)
    }

    /// [`Gossip::on_block`] with the delivering peer identified — the
    /// entry point the defense layer gates. `from` is the transport-level
    /// sender (authenticated by the connection), *not* the claimed
    /// builder: offenses that precede signature verification (floods,
    /// duplicates, junk) are charged to the deliverer, since a forged
    /// builder field must not let an attacker frame an honest server.
    pub fn on_block_from(&mut self, from: ServerId, block: Block, now: TimeMs) -> Vec<NetCommand> {
        self.clock = self.clock.max(now);
        if from != self.me {
            match self.defense.admit_block(from, block.wire_len() as u64, now) {
                AdmitVerdict::Admit => {}
                // Dropped before any hashing or verification: throttled
                // blocks are recoverable later via FWD; banned peers'
                // blocks are not wanted at all until the ban lapses.
                AdmitVerdict::Throttle | AdmitVerdict::Ban => return Vec::new(),
            }
        }
        self.stats.blocks_received += 1;
        let block_ref = block.block_ref();
        if self.dag.contains(&block_ref) || self.pending.contains_key(&block_ref) {
            self.stats.duplicate_blocks += 1;
            self.penalize(from, Offense::DuplicateFlood);
            return Vec::new();
        }
        if self.burst.is_some() {
            self.buffer_for_burst(from, block_ref, block);
            return Vec::new();
        }
        self.begin_burst();
        self.buffer_for_burst(from, block_ref, block);
        self.end_burst(now)
    }

    /// Charges one offense to `peer` at the current logical clock (no-op
    /// for our own actions and while the defense is disabled).
    fn penalize(&mut self, peer: ServerId, offense: Offense) {
        if peer == self.me {
            return;
        }
        let clock = self.clock;
        self.defense.note_offense(peer, offense, clock);
    }

    /// Opens a deferred-admission bracket: subsequent
    /// [`Gossip::on_block`] calls only buffer, and [`Gossip::end_burst`]
    /// promotes everything received in one pass (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if a bracket is already open.
    pub fn begin_burst(&mut self) {
        assert!(self.burst.is_none(), "admission burst already open");
        self.burst = Some(BurstState::default());
    }

    /// Closes the deferred-admission bracket: computes the full ready
    /// frontier over the pending buffer, verifies it wave by wave in
    /// `(builder, seq, ref)` order, promotes, enforces the pending cap,
    /// and emits any due `FWD` requests.
    ///
    /// # Panics
    ///
    /// Panics if no bracket is open.
    pub fn end_burst(&mut self, now: TimeMs) -> Vec<NetCommand> {
        self.clock = self.clock.max(now);
        let burst = self.burst.take().expect("no admission burst open");
        // Nothing new arrived (duplicates, FWD requests): nothing can
        // have become ready, so skip promotion entirely — a duplicate
        // flood must not buy O(pending) work per bracket.
        let verified = if burst.arrived.is_empty() {
            0
        } else {
            match self.config.admission {
                AdmissionMode::Index | AdmissionMode::Parallel { .. } => {
                    self.promote_burst_indexed(&burst.arrived)
                }
                AdmissionMode::Scan => {
                    let verified = self.promote_burst_scan();
                    self.refresh_missing_scan();
                    verified
                }
            }
        };
        self.batch_verifier.note_burst(verified);
        self.wave_stats.bursts += 1;
        self.wave_stats.burst_blocks += burst.arrived.len() as u64;
        let evicted = self.enforce_pending_cap() + self.enforce_deprioritized_allowance();
        if evicted > 0 && self.config.admission == AdmissionMode::Scan {
            // Eviction changed the pending set; rebuild the FWD index the
            // scan way so traffic matches the index engines' inline
            // bookkeeping.
            self.refresh_missing_scan();
        }
        self.collect_fwd_commands(now)
    }

    /// Delivers a whole burst of blocks through one
    /// [`Gossip::begin_burst`]/[`Gossip::end_burst`] bracket.
    ///
    /// Under [`AdmissionMode::Parallel`] the burst's `ref(B)` hashes —
    /// deferred at decode time — are computed on the worker pool while
    /// this thread buffers the blocks, so the receive path no longer
    /// pays one serial SHA-256 per block.
    pub fn on_block_burst(
        &mut self,
        blocks: impl IntoIterator<Item = Block>,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        self.begin_burst();
        let blocks: Vec<Block> = blocks.into_iter().collect();
        if let Some(pool) = &self.pool {
            pool.hash_blocks(&blocks);
        }
        for block in blocks {
            let commands = self.on_block(block, now);
            debug_assert!(commands.is_empty(), "bracketed on_block defers commands");
        }
        self.end_burst(now)
    }

    /// Buffers one block inside a burst bracket — O(1) beyond the insert:
    /// no verification, no promotion, and no per-predecessor bookkeeping.
    /// The whole burst's dependency analysis happens once, in
    /// [`Gossip::end_burst`].
    fn buffer_for_burst(&mut self, from: ServerId, block_ref: BlockRef, block: Block) {
        // The block is no longer wanted from the network (the FWD view
        // is rebuilt wholesale at `end_burst`; dropping the entry early
        // keeps the map small).
        self.missing.remove(&block_ref);
        self.insert_pending(from, block_ref, block);
        self.burst
            .as_mut()
            .expect("bracket open")
            .arrived
            .push(block_ref);
    }

    /// Handles `FWD ref(B)` from `from`: if `B ∈ G`, send it back
    /// (lines 12–13). The reply shares the stored block's body and cached
    /// wire bytes — no deep clone, no re-encode.
    pub fn on_fwd_request(&mut self, from: ServerId, block_ref: BlockRef) -> Vec<NetCommand> {
        self.stats.fwd_received += 1;
        match self.dag.get(&block_ref) {
            Some(block) => {
                self.stats.fwd_answered += 1;
                vec![NetCommand::SendTo {
                    to: from,
                    message: NetMessage::Block(block.clone()),
                }]
            }
            None => Vec::new(),
        }
    }

    /// Periodic timer: re-issues `FWD` requests whose retry interval has
    /// elapsed.
    pub fn on_tick(&mut self, now: TimeMs) -> Vec<NetCommand> {
        self.clock = self.clock.max(now);
        self.collect_fwd_commands(now)
    }

    /// Seals and disseminates the current block with `requests` injected
    /// into `B.rs` (lines 14–18). Returns the built block and the broadcast
    /// command. The block is encoded exactly once (at build); the broadcast
    /// command and the DAG share its body by reference count.
    pub fn disseminate(
        &mut self,
        requests: Vec<LabeledRequest>,
        _now: TimeMs,
    ) -> (Block, Vec<NetCommand>) {
        let preds = std::mem::take(&mut self.current_preds);
        let block = Block::build(self.me, self.next_seq, preds, requests, &self.signer);
        // Line 16: insert the own block. Valid by construction (Lemma A.4):
        // signed by us, parent is our previous block, preds all validated.
        self.dag
            .insert(block.clone())
            .expect("own block preds are in the DAG");
        self.stats.blocks_built += 1;
        // Line 18: next block starts from the parent reference.
        self.current_preds = vec![block.block_ref()];
        self.next_seq = self.next_seq.next();
        let commands = vec![NetCommand::Broadcast {
            message: NetMessage::Block(block.clone()),
        }];
        (block, commands)
    }

    /// Inserts a block into the pending buffer, stamping its arrival and
    /// mirroring it into the eviction queue.
    fn insert_pending(&mut self, from: ServerId, block_ref: BlockRef, block: Block) {
        let arrival = self.arrivals;
        self.arrivals += 1;
        let stranded = block.preds().iter().any(|p| self.stranded_refs.contains(p));
        let rank = if stranded {
            RANK_STRANDED
        } else if self.defense.is_deprioritized(block.builder()) {
            RANK_DEPRIORITIZED
        } else {
            RANK_NORMAL
        };
        self.eviction_queue.insert((rank, arrival, block_ref));
        self.pending.insert(
            block_ref,
            PendingBlock {
                block,
                from,
                missing: BTreeSet::new(),
                arrival,
                stranded,
                rank,
            },
        );
        self.stats.pending_peak = self.stats.pending_peak.max(self.pending.len());
        if stranded {
            // Publish the doom (later arrivals citing this block strand
            // at insertion) and re-rank earlier-arrived waiters, which
            // are doomed too. The index engines defer the waiters walk —
            // the reverse index is not yet built for the burst — to
            // `index_arrived`/the post-burst rebuild; the scan oracle's
            // rescan needs no index, so it marks eagerly.
            self.stranded_refs.insert(block_ref);
            if self.config.admission == AdmissionMode::Scan {
                self.mark_never_promotable(block_ref);
            }
        }
    }

    /// Removes a block from the pending buffer and the eviction queue
    /// (the stored `rank` reconstructs the queue key exactly).
    fn take_pending(&mut self, block_ref: &BlockRef) -> PendingBlock {
        let entry = self.pending.remove(block_ref).expect("block pending");
        let removed = self
            .eviction_queue
            .remove(&(entry.rank, entry.arrival, *block_ref));
        debug_assert!(removed, "eviction queue mirrors pending");
        entry
    }

    /// Applies the validation outcome for one ready block (all preds in
    /// the DAG; `verdict` is the wave batch's signature check, `None`
    /// verifies inline): inserts and references it, or records the
    /// rejection and re-lists its reference as missing for any surviving
    /// waiters. Blocks whose last missing dependency this settles are
    /// added to `unlocked`, the incremental gear's next frontier. The
    /// scan oracle settles here too: it never fills `waiters`, so its
    /// wake and re-list steps find nothing.
    fn settle_ready(
        &mut self,
        block_ref: BlockRef,
        entry: PendingBlock,
        verdict: Option<bool>,
        unlocked: &mut BTreeSet<BlockRef>,
    ) {
        let builder = entry.block.builder();
        let seq = entry.block.seq();
        let from = entry.from;
        match self.validate(&entry.block, verdict) {
            Ok(()) => {
                self.dag.insert(entry.block).expect("preds checked");
                self.note_admitted(builder, seq);
                // Line 8: B.preds := B.preds · [ref(B')]. Appending once
                // per block is Lemma A.6 (correct servers reference a
                // block at most once).
                self.current_preds.push(block_ref);
                self.stats.blocks_validated += 1;
                self.missing.remove(&block_ref);
                // Wake the waiters: drop the satisfied dependency and
                // queue any block that just became fully satisfied.
                if let Some(waiting) = self.waiters.remove(&block_ref) {
                    for waiter in waiting {
                        if let Some(pending) = self.pending.get_mut(&waiter) {
                            pending.missing.remove(&block_ref);
                            if pending.missing.is_empty() {
                                unlocked.insert(waiter);
                            }
                        }
                    }
                }
            }
            Err(reason) => {
                self.record_rejection(block_ref, reason);
                self.penalize(from, Offense::InvalidBlock);
                self.missing.remove(&block_ref);
                // Blocks referencing the rejected block keep waiting
                // (its ref can never enter the DAG); it counts as
                // missing-from-the-network again, exactly as the scan
                // engine's rebuild would re-list it.
                self.relist_for_waiters(block_ref);
            }
        }
    }

    /// Accounting shared by every rejection path: the audit log, the
    /// counter, and publishing the reference as never-promotable.
    fn note_rejection(&mut self, block_ref: BlockRef, reason: InvalidBlockError) {
        self.stats.invalid_blocks += 1;
        self.rejected.push((block_ref, reason));
        self.stranded_refs.insert(block_ref);
    }

    /// [`Gossip::note_rejection`] plus the engine-appropriate transitive
    /// marking — the rejection entry point of the incremental gear and the
    /// scan oracle (the analysis gear walks its own adjacency instead of
    /// the waiters map, which is stale until the post-burst rebuild).
    fn record_rejection(&mut self, block_ref: BlockRef, reason: InvalidBlockError) {
        self.note_rejection(block_ref, reason);
        self.mark_never_promotable(block_ref);
    }

    /// Marks one buffered block never-promotable: flips its eviction
    /// rank and publishes its reference (dooming later arrivals that
    /// cite it). Returns whether this was a fresh marking — `false` for
    /// non-buffered references and already-marked blocks, so traversals
    /// can use it as their visited check.
    fn strand_pending(&mut self, block_ref: BlockRef) -> bool {
        let Some(pending) = self.pending.get_mut(&block_ref) else {
            return false;
        };
        if pending.stranded {
            return false;
        }
        pending.stranded = true;
        let arrival = pending.arrival;
        let old_rank = pending.rank;
        pending.rank = RANK_STRANDED;
        self.eviction_queue.remove(&(old_rank, arrival, block_ref));
        self.eviction_queue
            .insert((RANK_STRANDED, arrival, block_ref));
        self.stranded_refs.insert(block_ref);
        true
    }

    /// Re-ranks every normally ranked pending block of a freshly
    /// deprioritized builder to [`RANK_DEPRIORITIZED`] — called once, on
    /// the builder's first proven equivocation, so the eviction queue and
    /// the stored ranks stay exact under mid-life transitions.
    fn requeue_builder(&mut self, builder: ServerId) {
        let refs: Vec<(u64, BlockRef)> = self
            .pending
            .iter()
            .filter(|(_, p)| p.rank == RANK_NORMAL && p.block.builder() == builder)
            .map(|(r, p)| (p.arrival, *r))
            .collect();
        for (arrival, block_ref) in refs {
            self.eviction_queue
                .remove(&(RANK_NORMAL, arrival, block_ref));
            self.eviction_queue
                .insert((RANK_DEPRIORITIZED, arrival, block_ref));
            self.pending
                .get_mut(&block_ref)
                .expect("iterating live refs")
                .rank = RANK_DEPRIORITIZED;
        }
    }

    /// Post-admission equivocation check: if `builder` now has more than
    /// one block at `seq`, that is a proof of equivocation (Figure 3) —
    /// charge the durable offense and, on the first conviction, re-rank
    /// the builder's buffered blocks.
    fn note_admitted(&mut self, builder: ServerId, seq: SeqNum) {
        if !self.defense.is_enabled() || builder == self.me {
            return;
        }
        if self.dag.blocks_at(builder, seq).len() > 1 {
            let first_conviction = !self.defense.is_deprioritized(builder);
            self.penalize(builder, Offense::Equivocation);
            if first_conviction {
                self.requeue_builder(builder);
            }
        }
    }

    /// Marks `root` — and, transitively, every buffered block referencing
    /// it — as never-promotable, re-ranking affected pending blocks to
    /// the front of the eviction order. The index engines walk the
    /// reverse dependency index; the scan oracle rescans the pending
    /// buffer to a fixed point (its usual cost model). Later arrivals
    /// referencing a marked reference are stranded at insertion.
    fn mark_never_promotable(&mut self, root: BlockRef) {
        self.stranded_refs.insert(root);
        match self.config.admission {
            AdmissionMode::Index | AdmissionMode::Parallel { .. } => {
                self.strand_pending(root);
                let mut stack = vec![root];
                while let Some(r) = stack.pop() {
                    let waiting: Vec<BlockRef> = self
                        .waiters
                        .get(&r)
                        .into_iter()
                        .flatten()
                        .copied()
                        .collect();
                    for waiter in waiting {
                        if self.strand_pending(waiter) {
                            stack.push(waiter);
                        }
                    }
                }
            }
            AdmissionMode::Scan => {
                self.strand_pending(root);
                loop {
                    let newly: Vec<BlockRef> = self
                        .pending
                        .iter()
                        .filter(|(_, p)| {
                            !p.stranded
                                && p.block
                                    .preds()
                                    .iter()
                                    .any(|q| self.stranded_refs.contains(q))
                        })
                        .map(|(r, _)| *r)
                        .collect();
                    if newly.is_empty() {
                        break;
                    }
                    for block_ref in newly {
                        self.strand_pending(block_ref);
                    }
                }
            }
        }
    }

    /// Burst promotion (index engines), in one of two
    /// byte-equivalent gears picked by burst-vs-backlog size:
    ///
    /// * **Whole-buffer analysis** (the burst dominates the buffer): one
    ///   pass builds missing-predecessor *counts* and a reverse
    ///   adjacency of `Vec`s — an order of magnitude cheaper than the
    ///   per-block `BTreeSet` surgery the incremental index pays per
    ///   delivery. The canonical incremental index is rebuilt for the
    ///   few survivors afterwards. Every whole-buffer pass is amortized
    ///   by the burst's size.
    /// * **Incremental indexing** (a small burst against a large — e.g.
    ///   flood-filled — backlog): only the arrived blocks are indexed
    ///   into the maintained waiters index, so a capped byzantine backlog
    ///   cannot amplify per-bracket cost to O(pending).
    ///
    /// Either way, promotion repeatedly takes the whole ready frontier
    /// as one wave in canonical `(builder, seq, ref)` order and
    /// batch-verifies it — pipelined across the worker pool under
    /// [`AdmissionMode::Parallel`] — before settling in wave order.
    /// Returns the number of signatures checked.
    fn promote_burst_indexed(&mut self, arrived: &[BlockRef]) -> u64 {
        if arrived.len() * DEFERRED_ANALYSIS_FACTOR < self.pending.len() {
            return self.promote_burst_incremental(arrived);
        }
        // Hash maps, not ordered maps: these are keyed lookups only —
        // never iterated — so map order can't leak into any observable,
        // and hashing a 32-byte ref beats walking a comparison tree on
        // the per-edge hot path. Wave order (the only place order
        // matters) comes from `BTreeSet` frontiers + `wave_order`.
        let mut counts: HashMap<BlockRef, usize> = HashMap::with_capacity(self.pending.len());
        let mut adjacency: HashMap<BlockRef, Vec<BlockRef>> =
            HashMap::with_capacity(self.pending.len());
        let mut frontier: BTreeSet<BlockRef> = BTreeSet::new();
        for (block_ref, pending) in &self.pending {
            let mut count = 0;
            for pred in pending.block.preds() {
                if !self.dag.contains(pred) {
                    count += 1;
                    adjacency.entry(*pred).or_default().push(*block_ref);
                }
            }
            if count == 0 {
                frontier.insert(*block_ref);
            } else {
                counts.insert(*block_ref, count);
            }
        }
        let verified =
            self.promote_waves(frontier, |gossip, block_ref, entry, verdict, unlocked| {
                gossip.settle_burst(
                    block_ref,
                    entry,
                    verdict,
                    &mut adjacency,
                    &mut counts,
                    unlocked,
                )
            });
        self.rebuild_dependency_index();
        verified
    }

    /// The small-burst gear: index just the arrived blocks (in arrival
    /// order, so `FWD` candidates accumulate deterministically), then
    /// promote the resulting roots with the shared wave scheduler over
    /// the maintained waiters index.
    fn promote_burst_incremental(&mut self, arrived: &[BlockRef]) -> u64 {
        let mut frontier: BTreeSet<BlockRef> = BTreeSet::new();
        for block_ref in arrived {
            if self.index_arrived(*block_ref) {
                frontier.insert(*block_ref);
            }
        }
        self.promote_waves(frontier, Gossip::settle_ready)
    }

    /// The wave scheduler both gears share: promotes `frontier` as one
    /// wave, then each wave of blocks that `settle` unlocked, until none
    /// is left. Returns the number of signatures checked.
    fn promote_waves<F>(&mut self, frontier: BTreeSet<BlockRef>, mut settle: F) -> u64
    where
        F: FnMut(&mut Gossip, BlockRef, PendingBlock, Option<bool>, &mut BTreeSet<BlockRef>),
    {
        let mut verified = 0;
        let mut wave = self.wave_order(frontier);
        while !wave.is_empty() {
            let mut unlocked = BTreeSet::new();
            verified += self.promote_wave_by(&wave, &mut unlocked, &mut settle);
            wave = self.wave_order(unlocked);
        }
        verified
    }

    /// Indexes one block that `buffer_for_burst` parked earlier: the
    /// missing-predecessor set, the reverse waiters index, and the `FWD`
    /// view. Returns whether the block is ready for promotion.
    fn index_arrived(&mut self, block_ref: BlockRef) -> bool {
        let block = self.pending[&block_ref].block.clone();
        let missing: BTreeSet<BlockRef> = block
            .preds()
            .iter()
            .filter(|p| !self.dag.contains(p))
            .copied()
            .collect();
        let ready = missing.is_empty();
        for pred in &missing {
            self.waiters.entry(*pred).or_default().insert(block_ref);
            if !self.pending.contains_key(pred) {
                self.missing
                    .entry(*pred)
                    .and_modify(|state| {
                        state.candidates.insert(block.builder());
                    })
                    .or_insert_with(|| FwdState {
                        candidates: BTreeSet::from([block.builder()]),
                        last_sent: None,
                        attempts: 0,
                    });
            }
        }
        self.pending
            .get_mut(&block_ref)
            .expect("arrived block pending")
            .missing = missing;
        // Stranded propagation deferred from buffering: now that this
        // block (and everything before it) is indexed, the waiters walk
        // is complete for already-indexed ancestors; later arrivals
        // self-check against `stranded_refs` at their own turn.
        if block.preds().iter().any(|p| self.stranded_refs.contains(p)) {
            self.mark_never_promotable(block_ref);
        }
        ready
    }

    /// Restores the incremental gear's canonical state for whatever the
    /// analysis gear left pending: per-block missing sets, the reverse
    /// waiters index, and the `FWD` view — so later brackets resume on
    /// exactly the state incremental indexing would have maintained.
    fn rebuild_dependency_index(&mut self) {
        self.waiters.clear();
        let refs: Vec<BlockRef> = self.pending.keys().copied().collect();
        for block_ref in refs {
            let missing: BTreeSet<BlockRef> = self.pending[&block_ref]
                .block
                .preds()
                .iter()
                .filter(|p| !self.dag.contains(p))
                .copied()
                .collect();
            for pred in &missing {
                self.waiters.entry(*pred).or_default().insert(block_ref);
            }
            self.pending
                .get_mut(&block_ref)
                .expect("iterating live refs")
                .missing = missing;
        }
        // Close the ranking gaps deferred buffering left: any
        // never-promotable reference strands its (freshly rebuilt)
        // waiters transitively.
        let stranded_roots: Vec<BlockRef> = self
            .waiters
            .keys()
            .filter(|pred| self.stranded_refs.contains(pred))
            .copied()
            .collect();
        for root in stranded_roots {
            self.mark_never_promotable(root);
        }
        self.refresh_missing_scan();
    }

    /// Sorts a ready frontier into the canonical burst wave order,
    /// `(deprioritized, builder, seq, ref)` — same-builder runs become
    /// contiguous, which keys the verifier's per-server schedules
    /// coherently, and builders with a proven equivocation admit after
    /// every honest block of the wave (the leading key is `0` for all
    /// blocks while the defense is disabled).
    fn wave_order(&self, refs: BTreeSet<BlockRef>) -> Vec<BlockRef> {
        let mut wave: Vec<(u8, usize, u64, BlockRef)> = refs
            .into_iter()
            .map(|r| {
                let block = &self.pending[&r].block;
                let builder = block.builder();
                (
                    self.defense.is_deprioritized(builder) as u8,
                    builder.index(),
                    block.seq().value(),
                    r,
                )
            })
            .collect();
        wave.sort_unstable();
        wave.into_iter().map(|(_, _, _, r)| r).collect()
    }

    /// Verifies one burst wave (already in canonical order) and settles
    /// each block through `settle` — [`Gossip::settle_burst`] for the
    /// analysis gear, [`Gossip::settle_ready`] for the incremental gear —
    /// which adds newly ready blocks to `unlocked`. Returns the number of
    /// signatures checked. Blocks claiming an unknown builder are settled
    /// without a verdict — `validate` rejects them before the signature,
    /// exactly like the scan oracle (batching them would skew the shared
    /// verification counters).
    fn promote_wave_by<F>(
        &mut self,
        wave: &[BlockRef],
        unlocked: &mut BTreeSet<BlockRef>,
        settle: &mut F,
    ) -> u64
    where
        F: FnMut(&mut Gossip, BlockRef, PendingBlock, Option<bool>, &mut BTreeSet<BlockRef>),
    {
        let items: Vec<SignedDigest> = wave
            .iter()
            .map(|r| &self.pending[r].block)
            .filter(|block| block.builder().index() < self.config.n)
            .map(|block| block.signed_digest())
            .collect();
        if !items.is_empty() {
            self.wave_stats.record(items.len());
        }
        // Take the pool out so settling (which needs `&mut self`) can
        // interleave with the in-flight verification it holds.
        let pool = self.pool.take();
        match &pool {
            Some(pool) => {
                let mut stream = pool.stream(&items);
                for block_ref in wave {
                    let entry = self.take_pending(block_ref);
                    let verdict = (entry.block.builder().index() < self.config.n)
                        .then(|| stream.next_verdict());
                    settle(self, *block_ref, entry, verdict, unlocked);
                }
            }
            None => {
                let mut results = self.batch_verifier.verify_batch(&items).into_iter();
                for block_ref in wave {
                    let entry = self.take_pending(block_ref);
                    let verdict = (entry.block.builder().index() < self.config.n)
                        .then(|| results.next().expect("one verdict per item"));
                    settle(self, *block_ref, entry, verdict, unlocked);
                }
            }
        }
        self.pool = pool;
        items.len() as u64
    }

    /// Burst-mode settle: identical validation outcome to
    /// [`Gossip::settle_ready`], with waiters driven by the burst's count
    /// index instead of the incremental maps (which are rebuilt wholesale
    /// after the burst).
    fn settle_burst(
        &mut self,
        block_ref: BlockRef,
        entry: PendingBlock,
        verdict: Option<bool>,
        adjacency: &mut HashMap<BlockRef, Vec<BlockRef>>,
        counts: &mut HashMap<BlockRef, usize>,
        unlocked: &mut BTreeSet<BlockRef>,
    ) {
        let builder = entry.block.builder();
        let seq = entry.block.seq();
        let from = entry.from;
        match self.validate(&entry.block, verdict) {
            Ok(()) => {
                self.dag.insert(entry.block).expect("preds checked");
                self.note_admitted(builder, seq);
                self.current_preds.push(block_ref);
                self.stats.blocks_validated += 1;
                for waiter in adjacency.remove(&block_ref).unwrap_or_default() {
                    if let Some(count) = counts.get_mut(&waiter) {
                        *count -= 1;
                        if *count == 0 {
                            counts.remove(&waiter);
                            unlocked.insert(waiter);
                        }
                    }
                }
            }
            Err(reason) => {
                self.note_rejection(block_ref, reason);
                self.penalize(from, Offense::InvalidBlock);
                // Everything transitively referencing the rejection is
                // never-promotable: mark along the burst adjacency (the
                // waiters map is stale mid-bracket; the FWD re-listing
                // for surviving waiters happens in the post-burst
                // index rebuild).
                let mut stack = vec![block_ref];
                while let Some(r) = stack.pop() {
                    let waiting: Vec<BlockRef> =
                        adjacency.get(&r).into_iter().flatten().copied().collect();
                    for waiter in waiting {
                        if self.strand_pending(waiter) {
                            stack.push(waiter);
                        }
                    }
                }
            }
        }
    }

    /// Burst promotion under the scan oracle: the same canonical wave
    /// schedule, with readiness recomputed by rescanning the pending
    /// buffer and one inline signature check per candidate (no batching
    /// — the scan engine stays the paper-literal baseline). Always
    /// returns 0 batched verifications.
    fn promote_burst_scan(&mut self) -> u64 {
        loop {
            let frontier: BTreeSet<BlockRef> = self
                .pending
                .iter()
                .filter(|(_, pending)| pending.block.preds().iter().all(|p| self.dag.contains(p)))
                .map(|(r, _)| *r)
                .collect();
            let wave = self.wave_order(frontier);
            if wave.is_empty() {
                return 0;
            }
            // `waiters` is empty under the scan oracle: nothing unlocks.
            let mut unlocked = BTreeSet::new();
            for block_ref in wave {
                let entry = self.take_pending(&block_ref);
                self.settle_ready(block_ref, entry, None, &mut unlocked);
            }
        }
    }

    /// Trims the pending buffer to [`GossipConfig::pending_cap`] by
    /// deterministic eviction — oldest never-promotable first (a block
    /// transitively referencing a rejected block), then oldest overall.
    /// Returns the number of blocks evicted.
    fn enforce_pending_cap(&mut self) -> usize {
        let mut evicted = 0;
        while self.pending.len() > self.config.pending_cap {
            let (_, _, victim) = *self.eviction_queue.first().expect("queue mirrors pending");
            self.evict_pending(victim);
            evicted += 1;
        }
        evicted
    }

    /// Shrinks the pending footprint of deprioritized (caught
    /// equivocating) builders to
    /// [`DefenseConfig::deprioritized_allowance`] slots each, evicting
    /// oldest-first — a convicted flooder cannot hold honest blocks'
    /// buffer space hostage while it waits out its ban. Returns the
    /// number of blocks evicted.
    fn enforce_deprioritized_allowance(&mut self) -> usize {
        if !self.defense.is_enabled() || !self.defense.any_deprioritized() {
            return 0;
        }
        let allowance = self.defense.config().deprioritized_allowance;
        let mut per_builder: BTreeMap<ServerId, Vec<(u64, BlockRef)>> = BTreeMap::new();
        for (block_ref, pending) in &self.pending {
            let builder = pending.block.builder();
            if self.defense.is_deprioritized(builder) {
                per_builder
                    .entry(builder)
                    .or_default()
                    .push((pending.arrival, *block_ref));
            }
        }
        let mut evicted = 0;
        for (_, mut entries) in per_builder {
            if entries.len() <= allowance {
                continue;
            }
            entries.sort_unstable();
            let excess = entries.len() - allowance;
            for (_, victim) in entries.into_iter().take(excess) {
                self.evict_pending(victim);
                evicted += 1;
            }
        }
        evicted
    }

    /// Evicts one pending block: un-indexes it, logs the accountability
    /// event, and re-lists its reference as missing for any surviving
    /// waiters so the `FWD` path can re-fetch it.
    fn evict_pending(&mut self, victim: BlockRef) {
        let entry = self.take_pending(&victim);
        self.stats.blocks_evicted += 1;
        // Charged to the deliverer, not the claimed builder: unverified
        // junk naming an honest builder must not damage that builder's
        // standing (the signature was never checked).
        self.penalize(entry.from, Offense::Eviction);
        let stranded_on = entry
            .stranded
            .then(|| {
                entry
                    .block
                    .preds()
                    .iter()
                    .find(|p| self.stranded_refs.contains(p))
                    .copied()
            })
            .flatten();
        self.evictions.push(EvictionEvent {
            block: victim,
            builder: entry.block.builder(),
            stranded_on,
        });
        // Un-index (index engines; the scan oracle rebuilds its FWD view
        // by rescanning): the victim stops waiting on its missing preds,
        // and preds nobody else waits for stop being requested.
        for pred in &entry.missing {
            if let Some(waiting) = self.waiters.get_mut(pred) {
                waiting.remove(&victim);
                if waiting.is_empty() {
                    self.waiters.remove(pred);
                    self.missing.remove(pred);
                }
            }
        }
        // The victim counts as never-received again (same shape as the
        // rejected-block path, minus the permanence).
        self.relist_for_waiters(victim);
    }

    /// Lists `block_ref` — just rejected or evicted, so neither in the
    /// DAG nor buffered — as missing again when pending blocks wait on
    /// it, with their builders as fresh `FWD` candidates.
    fn relist_for_waiters(&mut self, block_ref: BlockRef) {
        let candidates: BTreeSet<ServerId> = self
            .waiters
            .get(&block_ref)
            .into_iter()
            .flatten()
            .filter_map(|w| self.pending.get(w))
            .map(|p| p.block.builder())
            .collect();
        if !candidates.is_empty() {
            self.missing.insert(
                block_ref,
                FwdState {
                    candidates,
                    last_sent: None,
                    attempts: 0,
                },
            );
        }
    }

    /// The checks of Definition 3.3 for a ready block — every engine
    /// settles a block only once all its predecessors are in the DAG, so
    /// condition (iii), "all preds valid", holds because only valid
    /// blocks enter it. `sig_verdict` is the wave batch's signature
    /// check; `None` verifies inline. The check *order* is identical
    /// either way — the builder bound is decided before the signature is
    /// consulted.
    fn validate(&self, block: &Block, sig_verdict: Option<bool>) -> Result<(), InvalidBlockError> {
        let claimed = block.builder();
        if claimed.index() >= self.config.n {
            return Err(InvalidBlockError::UnknownBuilder { claimed });
        }
        // (i) verify(B.n, B.σ).
        if !sig_verdict.unwrap_or_else(|| block.verify_signature(&self.verifier)) {
            return Err(InvalidBlockError::BadSignature { claimed });
        }
        // (ii) genesis, or exactly one parent.
        block.parent_via(|r| self.dag.meta(r)).map(|_| ())
    }

    /// The missing-predecessor view recomputed from the pending buffer
    /// (line 10: `B ∈ B'.preds`, `B ∉ blks`, `B ∉ G`), with the builders
    /// of the blocks citing each one.
    fn scan_missing(&self) -> BTreeMap<BlockRef, BTreeSet<ServerId>> {
        let mut still_missing: BTreeMap<BlockRef, BTreeSet<ServerId>> = BTreeMap::new();
        for pending in self.pending.values() {
            for pred in pending.block.preds() {
                if !self.dag.contains(pred) && !self.pending.contains_key(pred) {
                    still_missing
                        .entry(*pred)
                        .or_default()
                        .insert(pending.block.builder());
                }
            }
        }
        still_missing
    }

    /// Rebuilds the `FWD` view from [`Gossip::scan_missing`] — the scan
    /// oracle after every bracket, the analysis gear after its rebuild;
    /// the incremental gear maintains the view in place.
    fn refresh_missing_scan(&mut self) {
        let still_missing = self.scan_missing();
        // Drop satisfied entries, keep timers of persisting ones, add new.
        self.missing.retain(|r, _| still_missing.contains_key(r));
        for (block_ref, candidates) in still_missing {
            self.missing
                .entry(block_ref)
                .and_modify(|state| state.candidates.extend(candidates.iter().copied()))
                .or_insert(FwdState {
                    candidates,
                    last_sent: None,
                    attempts: 0,
                });
        }
    }

    /// Emits `FWD` requests for missing blocks, respecting the retry timer.
    fn collect_fwd_commands(&mut self, now: TimeMs) -> Vec<NetCommand> {
        let retry = self.config.fwd_retry_ms;
        let mut commands = Vec::new();
        for (block_ref, state) in self.missing.iter_mut() {
            let due = match state.last_sent {
                None => true,
                Some(last) => now.saturating_sub(last) >= retry,
            };
            if !due || state.candidates.is_empty() {
                continue;
            }
            // Ask the builder of a block that referenced it (line 11);
            // rotate through candidates on retries.
            let candidates: Vec<ServerId> = state.candidates.iter().copied().collect();
            let target = candidates[state.attempts as usize % candidates.len()];
            state.last_sent = Some(now);
            state.attempts += 1;
            self.stats.fwd_sent += 1;
            commands.push(NetCommand::SendTo {
                to: target,
                message: NetMessage::FwdRequest(*block_ref),
            });
        }
        commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_codec::encode_to_vec;
    use dagbft_crypto::KeyRegistry;

    fn gossip_for(registry: &KeyRegistry, id: u32, n: usize) -> Gossip {
        Gossip::new(
            ServerId::new(id),
            GossipConfig::for_n(n),
            registry.signer(ServerId::new(id)).unwrap(),
            registry.verifier(),
        )
    }

    fn gossip_for_mode(registry: &KeyRegistry, id: u32, n: usize, mode: AdmissionMode) -> Gossip {
        Gossip::new(
            ServerId::new(id),
            GossipConfig::for_n(n).with_admission(mode),
            registry.signer(ServerId::new(id)).unwrap(),
            registry.verifier(),
        )
    }

    #[test]
    fn disseminate_builds_chain() {
        let registry = KeyRegistry::generate(2, 1);
        let mut gossip = gossip_for(&registry, 0, 2);
        let (b0, _) = gossip.disseminate(vec![], 0);
        let (b1, _) = gossip.disseminate(vec![], 10);
        assert!(b0.is_genesis());
        assert_eq!(b1.seq(), SeqNum::new(1));
        assert_eq!(b1.preds(), &[b0.block_ref()]);
        assert_eq!(gossip.dag().len(), 2);
        assert_eq!(gossip.stats().blocks_built, 2);
    }

    #[test]
    fn received_valid_block_inserted_and_referenced() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let mut bob = gossip_for(&registry, 1, 2);
        let (bob_block, _) = bob.disseminate(vec![], 0);

        let commands = alice.on_block(bob_block.clone(), 0);
        assert!(commands.is_empty());
        assert!(alice.dag().contains(&bob_block.block_ref()));
        assert_eq!(alice.stats().blocks_validated, 1);

        // Alice's next block references Bob's (line 8).
        let (alice_block, _) = alice.disseminate(vec![], 1);
        assert!(alice_block.preds().contains(&bob_block.block_ref()));
    }

    #[test]
    fn duplicate_blocks_counted_not_reinserted() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let mut bob = gossip_for(&registry, 1, 2);
        let (bob_block, _) = bob.disseminate(vec![], 0);
        alice.on_block(bob_block.clone(), 0);
        alice.on_block(bob_block.clone(), 1);
        assert_eq!(alice.stats().duplicate_blocks, 1);
        assert_eq!(alice.dag().len(), 1);
        // The reference is appended only once (Lemma A.6).
        let (alice_block, _) = alice.disseminate(vec![], 2);
        let count = alice_block
            .preds()
            .iter()
            .filter(|r| **r == bob_block.block_ref())
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn bad_signature_rejected() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let forged = Block::build_with_signature(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![],
            dagbft_crypto::Signature::NULL,
        );
        alice.on_block(forged.clone(), 0);
        assert_eq!(alice.stats().invalid_blocks, 1);
        assert!(!alice.dag().contains(&forged.block_ref()));
    }

    #[test]
    fn unknown_builder_rejected() {
        let registry = KeyRegistry::generate(4, 1);
        let mut alice = gossip_for(&registry, 0, 2); // only servers 0 and 1
        let outsider = Block::build(
            ServerId::new(3),
            SeqNum::ZERO,
            vec![],
            vec![],
            &registry.signer(ServerId::new(3)).unwrap(),
        );
        alice.on_block(outsider, 0);
        assert_eq!(alice.stats().invalid_blocks, 1);
    }

    #[test]
    fn missing_pred_triggers_fwd_to_builder() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let mut bob = gossip_for(&registry, 1, 2);
        let (bob_b0, _) = bob.disseminate(vec![], 0);
        let (bob_b1, _) = bob.disseminate(vec![], 1);

        // Alice receives b1 without b0: FWD to Bob (builder of b1).
        let commands = alice.on_block(bob_b1.clone(), 5);
        assert_eq!(
            commands,
            vec![NetCommand::SendTo {
                to: ServerId::new(1),
                message: NetMessage::FwdRequest(bob_b0.block_ref()),
            }]
        );
        assert_eq!(alice.pending_len(), 1);
        assert_eq!(alice.stats().fwd_sent, 1);

        // Bob answers the FWD with the block.
        let answers = bob.on_fwd_request(ServerId::new(0), bob_b0.block_ref());
        assert_eq!(
            answers,
            vec![NetCommand::SendTo {
                to: ServerId::new(0),
                message: NetMessage::Block(bob_b0.clone()),
            }]
        );

        // Delivery resolves the gap; both blocks are promoted.
        alice.on_block(bob_b0.clone(), 6);
        assert!(alice.dag().contains(&bob_b0.block_ref()));
        assert!(alice.dag().contains(&bob_b1.block_ref()));
        assert_eq!(alice.pending_len(), 0);
    }

    #[test]
    fn fwd_reply_shares_the_stored_block_body() {
        let registry = KeyRegistry::generate(2, 1);
        let mut bob = gossip_for(&registry, 1, 2);
        let (bob_b0, _) = bob.disseminate(vec![], 0);
        let answers = bob.on_fwd_request(ServerId::new(0), bob_b0.block_ref());
        let NetCommand::SendTo {
            message: NetMessage::Block(served),
            ..
        } = &answers[0]
        else {
            panic!("expected a block reply");
        };
        // Zero-copy reply: the served block's wire image is the same
        // allocation the DAG holds.
        assert!(served
            .wire_bytes()
            .shares_allocation_with(bob_b0.wire_bytes()));
    }

    #[test]
    fn fwd_retry_respects_interval() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let mut bob = gossip_for(&registry, 1, 2);
        let (_bob_b0, _) = bob.disseminate(vec![], 0);
        let (bob_b1, _) = bob.disseminate(vec![], 1);

        let first = alice.on_block(bob_b1, 0);
        assert_eq!(first.len(), 1);
        // Too early: no retry.
        assert!(alice.on_tick(50).is_empty());
        // After the interval: retried.
        let retried = alice.on_tick(100);
        assert_eq!(retried.len(), 1);
        assert_eq!(alice.stats().fwd_sent, 2);
    }

    #[test]
    fn fwd_request_for_unknown_block_ignored() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let bogus = BlockRef::from_digest(dagbft_crypto::Digest::ZERO);
        assert!(alice.on_fwd_request(ServerId::new(1), bogus).is_empty());
        assert_eq!(alice.stats().fwd_received, 1);
        assert_eq!(alice.stats().fwd_answered, 0);
    }

    #[test]
    fn equivocating_blocks_both_accepted() {
        // Figure 3: equivocation is *valid*; detection is the DAG's job,
        // tolerance is P's job.
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let signer1 = registry.signer(ServerId::new(1)).unwrap();
        let b3 = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        let b4 = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &signer1,
        );
        alice.on_block(b3.clone(), 0);
        alice.on_block(b4.clone(), 0);
        assert!(alice.dag().contains(&b3.block_ref()));
        assert!(alice.dag().contains(&b4.block_ref()));
        assert_eq!(alice.dag().equivocations(ServerId::new(1)).len(), 1);
    }

    #[test]
    fn block_with_two_distinct_parents_rejected() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let signer1 = registry.signer(ServerId::new(1)).unwrap();
        let g_a = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        let g_b = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &signer1,
        );
        let child = Block::build(
            ServerId::new(1),
            SeqNum::new(1),
            vec![g_a.block_ref(), g_b.block_ref()],
            vec![],
            &signer1,
        );
        alice.on_block(g_a, 0);
        alice.on_block(g_b, 0);
        alice.on_block(child.clone(), 0);
        assert!(!alice.dag().contains(&child.block_ref()));
        assert_eq!(alice.stats().invalid_blocks, 1);
    }

    #[test]
    fn net_message_wire_roundtrip() {
        let registry = KeyRegistry::generate(1, 1);
        let signer = registry.signer(ServerId::new(0)).unwrap();
        let block = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer);
        for message in [
            NetMessage::Block(block.clone()),
            NetMessage::FwdRequest(block.block_ref()),
        ] {
            let bytes = encode_to_vec(&message);
            assert_eq!(bytes.len(), message.wire_len());
            let (discriminant, payload) = message.payload_view();
            assert_eq!(bytes[0], discriminant);
            assert_eq!(&bytes[1..], payload);
            let decoded: NetMessage = dagbft_codec::decode_from_slice(&bytes).unwrap();
            assert_eq!(decoded, message);
        }
    }

    /// Every admission engine, for mode-spanning tests.
    const ALL_MODES: [AdmissionMode; 3] = [
        AdmissionMode::Index,
        AdmissionMode::Scan,
        AdmissionMode::Parallel { workers: 2 },
    ];

    #[test]
    fn out_of_order_chain_promotes_in_one_pass() {
        let registry = KeyRegistry::generate(2, 1);
        for mode in ALL_MODES {
            let mut alice = gossip_for_mode(&registry, 0, 2, mode);
            let mut bob = gossip_for(&registry, 1, 2);
            let blocks: Vec<Block> = (0..5).map(|t| bob.disseminate(vec![], t).0).collect();
            // Deliver in reverse order: everything buffers, then promotes at
            // once.
            for block in blocks.iter().rev().take(4) {
                alice.on_block(block.clone(), 0);
            }
            assert_eq!(alice.dag().len(), 0);
            alice.on_block(blocks[0].clone(), 1);
            assert_eq!(alice.dag().len(), 5);
            assert_eq!(alice.pending_len(), 0);
            assert!(alice.dag().check_invariants());
        }
    }

    /// Drives all three admission engines through the same hostile
    /// schedule and asserts every observable — commands per delivery, DAG
    /// content *and order*, pred list, stats, rejections — is identical.
    fn assert_engines_agree(deliveries: &[(Block, TimeMs)], n: usize, registry: &KeyRegistry) {
        let mut engines: Vec<Gossip> = ALL_MODES
            .iter()
            .map(|mode| gossip_for_mode(registry, 0, n, *mode))
            .collect();
        for (block, at) in deliveries {
            let commands: Vec<Vec<NetCommand>> = engines
                .iter_mut()
                .map(|engine| engine.on_block(block.clone(), *at))
                .collect();
            for other in &commands[1..] {
                assert_eq!(&commands[0], other, "commands diverged at t={at}");
            }
        }
        let reference = &engines[0];
        let refs: Vec<BlockRef> = reference.dag().iter().map(|b| b.block_ref()).collect();
        for other in &engines[1..] {
            let other_refs: Vec<BlockRef> = other.dag().iter().map(|b| b.block_ref()).collect();
            assert_eq!(refs, other_refs, "promotion order diverged");
            assert_eq!(reference.pending_len(), other.pending_len());
            assert_eq!(reference.stats(), other.stats());
            assert_eq!(reference.rejected(), other.rejected());
        }
        // The index engines batch every signature they check (every
        // promoted or rejected block except unknown-builder rejects, which
        // never reach the verifier); the scan oracle never batches (its
        // one-block brackets still count as bursts).
        assert!(engines[0].wave_stats().batched_blocks >= engines[0].stats().blocks_validated);
        assert!(
            engines[0].wave_stats().batched_blocks
                <= engines[0].stats().blocks_validated + engines[0].stats().invalid_blocks
        );
        assert_eq!(engines[1].wave_stats().waves, 0);
        assert_eq!(engines[1].wave_stats().batched_blocks, 0);
        assert_eq!(engines[0].wave_stats(), engines[2].wave_stats());
        let own: Vec<Block> = engines
            .iter_mut()
            .map(|engine| engine.disseminate(vec![], 1_000).0)
            .collect();
        for other in &own[1..] {
            assert_eq!(&own[0], other, "current block preds diverged");
        }
    }

    /// Drives all three engines through the same schedule via
    /// `on_block_burst` (one bracket per `chunk` blocks) and asserts every
    /// observable is identical across engines.
    fn assert_engines_agree_on_bursts(
        deliveries: &[Block],
        chunk: usize,
        n: usize,
        registry: &KeyRegistry,
    ) {
        let mut engines: Vec<Gossip> = ALL_MODES
            .iter()
            .map(|mode| gossip_for_mode(registry, 0, n, *mode))
            .collect();
        for (at, burst) in deliveries.chunks(chunk).enumerate() {
            let commands: Vec<Vec<NetCommand>> = engines
                .iter_mut()
                .map(|engine| engine.on_block_burst(burst.iter().cloned(), at as TimeMs))
                .collect();
            for other in &commands[1..] {
                assert_eq!(&commands[0], other, "burst commands diverged at {at}");
            }
        }
        let reference_refs: Vec<BlockRef> =
            engines[0].dag().iter().map(|b| b.block_ref()).collect();
        for other in &engines[1..] {
            let other_refs: Vec<BlockRef> = other.dag().iter().map(|b| b.block_ref()).collect();
            assert_eq!(reference_refs, other_refs, "burst promotion order diverged");
            assert_eq!(engines[0].pending_len(), other.pending_len());
            assert_eq!(engines[0].stats(), other.stats());
            assert_eq!(engines[0].rejected(), other.rejected());
            assert_eq!(engines[0].evictions(), other.evictions());
        }
        // Wave structure: identical between the batching engines, absent
        // under the scan oracle; burst brackets counted by all.
        assert_eq!(engines[0].wave_stats(), engines[2].wave_stats());
        assert_eq!(engines[1].wave_stats().waves, 0);
        assert_eq!(
            engines[1].wave_stats().bursts,
            engines[0].wave_stats().bursts
        );
        assert_eq!(
            engines[1].wave_stats().burst_blocks,
            engines[0].wave_stats().burst_blocks
        );
        let own: Vec<Block> = engines
            .iter_mut()
            .map(|engine| engine.disseminate(vec![], 1_000).0)
            .collect();
        for other in &own[1..] {
            assert_eq!(
                own[0].wire_bytes(),
                other.wire_bytes(),
                "burst own-block bytes diverged"
            );
        }
    }

    #[test]
    fn engines_agree_on_burst_ingest_of_hostile_soup() {
        let registry = KeyRegistry::generate(3, 1);
        let mut bob = gossip_for(&registry, 1, 3);
        let mut blocks: Vec<Block> = (0..12).map(|t| bob.disseminate(vec![], t).0).collect();
        blocks.reverse();
        // Whole-soup bracket and a split into small brackets.
        for chunk in [blocks.len(), 5] {
            assert_engines_agree_on_bursts(&blocks, chunk, 3, &registry);
        }
    }

    #[test]
    fn burst_ingest_admits_what_per_message_ingest_admits() {
        // The promotion fixed point is confluent: deferring a burst can
        // reorder promotions but never change the admitted set, the
        // rejections, or the validation counts.
        let registry = KeyRegistry::generate(3, 1);
        let mut bob = gossip_for(&registry, 1, 3);
        let blocks: Vec<Block> = (0..9).map(|t| bob.disseminate(vec![], t).0).collect();
        let forged = Block::build_with_signature(
            ServerId::new(2),
            SeqNum::ZERO,
            vec![],
            vec![],
            dagbft_crypto::Signature::NULL,
        );
        let mut schedule: Vec<Block> = blocks.iter().rev().cloned().collect();
        schedule.insert(4, forged);
        for mode in ALL_MODES {
            let mut one_at_a_time = gossip_for_mode(&registry, 0, 3, mode);
            for (t, block) in schedule.iter().enumerate() {
                one_at_a_time.on_block(block.clone(), t as TimeMs);
            }
            let mut bursty = gossip_for_mode(&registry, 0, 3, mode);
            bursty.on_block_burst(schedule.iter().cloned(), 0);
            let set = |g: &Gossip| {
                g.dag()
                    .refs()
                    .copied()
                    .collect::<std::collections::BTreeSet<_>>()
            };
            assert_eq!(set(&one_at_a_time), set(&bursty), "{mode:?}: admitted set");
            assert_eq!(one_at_a_time.rejected(), bursty.rejected(), "{mode:?}");
            assert_eq!(
                one_at_a_time.stats().blocks_validated,
                bursty.stats().blocks_validated,
                "{mode:?}"
            );
            assert_eq!(
                one_at_a_time.stats().invalid_blocks,
                bursty.stats().invalid_blocks,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn burst_widens_waves_past_per_message_ingest() {
        // An in-order 4-builder soup: per-message ingest promotes each
        // block alone (waves of 1); one burst bracket promotes whole
        // rounds (waves of 4) — the widening that feeds the pool.
        let registry = KeyRegistry::generate(5, 9);
        let signers: Vec<_> = (1..5)
            .map(|i| registry.signer(ServerId::new(i)).unwrap())
            .collect();
        let mut blocks = Vec::new();
        let mut prev: Vec<BlockRef> = Vec::new();
        for round in 0..6u64 {
            let mut layer = Vec::new();
            for signer in &signers {
                let block = Block::build(
                    signer.id(),
                    SeqNum::new(round),
                    prev.clone(),
                    vec![],
                    signer,
                );
                layer.push(block.block_ref());
                blocks.push(block);
            }
            prev = layer;
        }
        let mut per_message = gossip_for_mode(&registry, 0, 5, AdmissionMode::Index);
        for block in &blocks {
            per_message.on_block(block.clone(), 0);
        }
        assert_eq!(per_message.wave_stats().largest_wave, 1);
        let mut bursty = gossip_for_mode(&registry, 0, 5, AdmissionMode::Index);
        bursty.on_block_burst(blocks.iter().cloned(), 0);
        assert_eq!(bursty.dag().len(), blocks.len());
        assert_eq!(bursty.wave_stats().largest_wave, 4);
        assert_eq!(bursty.wave_stats().smallest_wave, 4);
        assert_eq!(bursty.wave_stats().waves, 6);
        assert_eq!(bursty.wave_stats().bursts, 1);
        assert_eq!(bursty.wave_stats().burst_blocks, blocks.len() as u64);
        // Histogram: six waves of width 4 land in the [4, 8) bucket.
        assert_eq!(bursty.wave_stats().width_histogram[2], 6);
        assert!((bursty.wave_stats().mean_wave() - 4.0).abs() < f64::EPSILON);
    }

    #[test]
    fn pending_cap_evicts_stranded_first_and_fwd_recovers() {
        let registry = KeyRegistry::generate(3, 1);
        let signer1 = registry.signer(ServerId::new(1)).unwrap();
        // A rejected block (two distinct parents) with a flood of
        // stranded descendants, plus an honest gap: b1 arrives before b0.
        let g_a = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        let g_b = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &signer1,
        );
        let two_parents = Block::build(
            ServerId::new(1),
            SeqNum::new(1),
            vec![g_a.block_ref(), g_b.block_ref()],
            vec![],
            &signer1,
        );
        let mut stranded_chain = Vec::new();
        let mut parent = two_parents.block_ref();
        for k in 2..8u64 {
            let child = Block::build(
                ServerId::new(1),
                SeqNum::new(k),
                vec![parent],
                vec![],
                &signer1,
            );
            parent = child.block_ref();
            stranded_chain.push(child);
        }
        let mut bob = gossip_for(&registry, 2, 3);
        let (bob_b0, _) = bob.disseminate(vec![], 0);
        let (bob_b1, _) = bob.disseminate(vec![], 1);

        for mode in ALL_MODES {
            let mut alice = Gossip::new(
                ServerId::new(0),
                GossipConfig::for_n(3)
                    .with_admission(mode)
                    .with_pending_cap(3),
                registry.signer(ServerId::new(0)).unwrap(),
                registry.verifier(),
            );
            alice.on_block(g_a.clone(), 0);
            alice.on_block(g_b.clone(), 0);
            alice.on_block(two_parents.clone(), 0); // rejected
            alice.on_block(bob_b1.clone(), 1); // honest, waits for b0
            for (t, block) in stranded_chain.iter().enumerate() {
                alice.on_block(block.clone(), 2 + t as TimeMs);
            }
            // The flood stayed within the cap; the honest waiter survived
            // because stranded blocks are evicted first.
            assert!(alice.pending_len() <= 3, "{mode:?}");
            assert!(alice.stats().blocks_evicted > 0, "{mode:?}");
            assert!(
                alice
                    .evictions()
                    .iter()
                    .all(|e| e.builder == ServerId::new(1)),
                "{mode:?}: only the flooder's blocks evicted"
            );
            assert!(
                alice
                    .evictions()
                    .iter()
                    .any(|e| e.stranded_on == Some(two_parents.block_ref())),
                "{mode:?}: eviction names the stranding rejection"
            );
            // FWD recovery still completes the honest chain.
            alice.on_block(bob_b0.clone(), 100);
            assert!(alice.dag().contains(&bob_b0.block_ref()), "{mode:?}");
            assert!(alice.dag().contains(&bob_b1.block_ref()), "{mode:?}");
        }
    }

    #[test]
    fn evicted_block_can_be_refetched_and_admitted() {
        // Eviction is a resource decision: a wanted block dropped under
        // cap pressure is re-requested via FWD and admitted on re-delivery.
        let registry = KeyRegistry::generate(2, 1);
        let mut bob = gossip_for(&registry, 1, 2);
        let chain: Vec<Block> = (0..4).map(|t| bob.disseminate(vec![], t).0).collect();
        let mut alice = Gossip::new(
            ServerId::new(0),
            GossipConfig::for_n(2).with_pending_cap(2),
            registry.signer(ServerId::new(0)).unwrap(),
            registry.verifier(),
        );
        // Deliver b3, b2, b1: the cap (2) evicts the oldest (b3).
        for (t, block) in chain.iter().skip(1).rev().enumerate() {
            alice.on_block(block.clone(), t as TimeMs);
        }
        assert_eq!(alice.pending_len(), 2);
        assert_eq!(alice.stats().blocks_evicted, 1);
        assert_eq!(alice.evictions()[0].block, chain[3].block_ref());
        assert_eq!(alice.evictions()[0].stranded_on, None);
        // The gap closes: b0 promotes b1 and b2. The evicted tip b3 is
        // simply absent — until b4 references it, which triggers a FWD…
        alice.on_block(chain[0].clone(), 10);
        assert_eq!(alice.dag().len(), 3);
        let (b4, _) = bob.disseminate(vec![], 20);
        let commands = alice.on_block(b4.clone(), 30);
        assert!(
            commands.iter().any(|c| matches!(
                c,
                NetCommand::SendTo {
                    message: NetMessage::FwdRequest(r),
                    ..
                } if *r == chain[3].block_ref()
            )),
            "evicted block re-requested: {commands:?}"
        );
        // …and re-delivery admits the whole chain.
        alice.on_block(chain[3].clone(), 40);
        assert_eq!(alice.dag().len(), 5);
        assert_eq!(alice.pending_len(), 0);
    }

    #[test]
    fn late_stranding_reranks_existing_waiters() {
        // Regression: R is rejected; X (referencing unseen P) arrives and
        // ranks as honest; then P (referencing R) arrives and is stranded
        // at insertion. X must be re-ranked stranded too — under cap
        // pressure the doomed chain is evicted, never the honest backlog,
        // and the eviction queue stays exactly in sync with the buffer.
        let registry = KeyRegistry::generate(3, 1);
        let signer1 = registry.signer(ServerId::new(1)).unwrap();
        let g_a = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        let g_b = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &signer1,
        );
        let rejected = Block::build(
            ServerId::new(1),
            SeqNum::new(1),
            vec![g_a.block_ref(), g_b.block_ref()],
            vec![],
            &signer1,
        );
        let p = Block::build(
            ServerId::new(1),
            SeqNum::new(2),
            vec![rejected.block_ref()],
            vec![],
            &signer1,
        );
        let x = Block::build(
            ServerId::new(1),
            SeqNum::new(3),
            vec![p.block_ref()],
            vec![],
            &signer1,
        );
        let mut bob = gossip_for(&registry, 2, 3);
        let (bob_b0, _) = bob.disseminate(vec![], 0);
        let (bob_b1, _) = bob.disseminate(vec![], 1);
        for mode in ALL_MODES {
            for bursted in [false, true] {
                let mut alice = Gossip::new(
                    ServerId::new(0),
                    GossipConfig::for_n(3)
                        .with_admission(mode)
                        .with_pending_cap(2),
                    registry.signer(ServerId::new(0)).unwrap(),
                    registry.verifier(),
                );
                let schedule = [
                    g_a.clone(),
                    g_b.clone(),
                    rejected.clone(),
                    x.clone(), // arrives before its pred P — ranked honest
                    p.clone(), // stranded at insertion; X is doomed too
                    bob_b1.clone(),
                ];
                if bursted {
                    alice.on_block_burst(schedule, 0);
                } else {
                    for (t, block) in schedule.into_iter().enumerate() {
                        alice.on_block(block, t as TimeMs);
                    }
                }
                // The cap evicted from the doomed chain (oldest stranded
                // first: X), never the honest waiter.
                assert_eq!(alice.pending_len(), 2, "{mode:?} burst={bursted}");
                assert_eq!(
                    alice.evictions(),
                    &[EvictionEvent {
                        block: x.block_ref(),
                        builder: ServerId::new(1),
                        stranded_on: Some(p.block_ref()),
                    }],
                    "{mode:?} burst={bursted}"
                );
                // The honest chain still completes.
                alice.on_block(bob_b0.clone(), 100);
                assert!(alice.dag().contains(&bob_b1.block_ref()), "{mode:?}");
            }
        }
    }

    #[test]
    fn duplicate_flood_burst_skips_promotion_work() {
        // A bracket of pure duplicates must not pay a promotion pass.
        let registry = KeyRegistry::generate(2, 1);
        let mut bob = gossip_for(&registry, 1, 2);
        let (b0, _) = bob.disseminate(vec![], 0);
        let mut alice = gossip_for(&registry, 0, 2);
        alice.on_block(b0.clone(), 0);
        let before = *alice.wave_stats();
        alice.on_block_burst(std::iter::repeat_n(b0.clone(), 64), 1);
        assert_eq!(alice.stats().duplicate_blocks, 64);
        assert_eq!(alice.wave_stats().waves, before.waves);
        assert_eq!(alice.wave_stats().bursts, before.bursts + 1);
        assert_eq!(alice.wave_stats().burst_blocks, before.burst_blocks);
    }

    #[test]
    fn nested_burst_bracket_panics() {
        let registry = KeyRegistry::generate(2, 1);
        let mut gossip = gossip_for(&registry, 0, 2);
        gossip.begin_burst();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gossip.begin_burst();
        }));
        assert!(result.is_err(), "nested brackets must be rejected");
    }

    #[test]
    fn engines_agree_on_reverse_order_burst() {
        let registry = KeyRegistry::generate(3, 1);
        let mut bob = gossip_for(&registry, 1, 3);
        let blocks: Vec<Block> = (0..12).map(|t| bob.disseminate(vec![], t).0).collect();
        let deliveries: Vec<(Block, TimeMs)> = blocks
            .iter()
            .rev()
            .enumerate()
            .map(|(i, b)| (b.clone(), i as TimeMs))
            .collect();
        assert_engines_agree(&deliveries, 3, &registry);
    }

    #[test]
    fn engines_agree_on_equivocation_with_invalid_children() {
        let registry = KeyRegistry::generate(3, 1);
        let signer1 = registry.signer(ServerId::new(1)).unwrap();
        // Equivocating genesis pair…
        let g_a = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        let g_b = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &signer1,
        );
        // …an invalid child referencing both parents…
        let two_parents = Block::build(
            ServerId::new(1),
            SeqNum::new(1),
            vec![g_a.block_ref(), g_b.block_ref()],
            vec![],
            &signer1,
        );
        // …and a grandchild of the invalid block: can never promote, keeps
        // FWD-ing the rejected ref.
        let grandchild = Block::build(
            ServerId::new(1),
            SeqNum::new(2),
            vec![two_parents.block_ref()],
            vec![],
            &signer1,
        );
        // Forged signature on a valid-shaped block, delivered out of order.
        let forged = Block::build_with_signature(
            ServerId::new(2),
            SeqNum::ZERO,
            vec![],
            vec![],
            dagbft_crypto::Signature::NULL,
        );
        let deliveries: Vec<(Block, TimeMs)> = [
            (grandchild, 0),
            (two_parents, 1),
            (forged, 2),
            (g_b, 3),
            (g_a, 4),
        ]
        .into_iter()
        .collect();
        assert_engines_agree(&deliveries, 3, &registry);
    }

    /// Recomputes the dependency index anew and asserts the kept
    /// one matches: every pending block's missing set is its
    /// predecessors not in the DAG, `waiters` is exactly the inverse of
    /// that relation, and the `FWD` view names exactly the references a
    /// scan of the buffer would request.
    fn assert_index_matches_rebuild(gossip: &Gossip, context: &str) {
        let mut inverse: BTreeMap<BlockRef, BTreeSet<BlockRef>> = BTreeMap::new();
        for (block_ref, pending) in &gossip.pending {
            let missing: BTreeSet<BlockRef> = pending
                .block
                .preds()
                .iter()
                .filter(|pred| !gossip.dag.contains(pred))
                .copied()
                .collect();
            for pred in &missing {
                inverse.entry(*pred).or_default().insert(*block_ref);
            }
            assert_eq!(
                pending.missing, missing,
                "{context}: missing set of {block_ref:?}"
            );
        }
        assert_eq!(gossip.waiters, inverse, "{context}: waiters");
        let fwd: Vec<&BlockRef> = gossip.missing.keys().collect();
        let scanned = gossip.scan_missing();
        assert_eq!(
            fwd,
            scanned.keys().collect::<Vec<_>>(),
            "{context}: FWD view"
        );
    }

    #[test]
    fn kept_index_matches_a_rebuild_after_every_bracket() {
        // A shuffled hostile soup: three builders referencing each whole
        // previous round, one tampered signature with a descendant, an
        // equivocation with a permanently invalid child and a stranded
        // grandchild. Delivered twice (evicted blocks come back, the
        // rest are duplicates) in brackets of mixed sizes under small
        // caps, so both gears, eviction, rejection and stranding all
        // interleave with indexing.
        let registry = KeyRegistry::generate(4, 5);
        let signers: Vec<Signer> = (1..4)
            .map(|i| registry.signer(ServerId::new(i)).unwrap())
            .collect();
        let mut soup = Vec::new();
        let mut prev: Vec<BlockRef> = Vec::new();
        for round in 0..6u64 {
            let layer: Vec<Block> = signers
                .iter()
                .map(|signer| {
                    Block::build(
                        signer.id(),
                        SeqNum::new(round),
                        prev.clone(),
                        vec![],
                        signer,
                    )
                })
                .collect();
            prev = layer.iter().map(Block::block_ref).collect();
            soup.extend(layer);
        }
        let honest = &soup[6];
        let tampered = Block::build_with_signature(
            honest.builder(),
            honest.seq(),
            honest.preds().to_vec(),
            vec![LabeledRequest::encode(crate::Label::new(3), &7u8)],
            *honest.signature(),
        );
        let child_of_tampered = Block::build(
            signers[0].id(),
            SeqNum::new(3),
            vec![soup[3].block_ref(), tampered.block_ref()],
            vec![],
            &signers[0],
        );
        let twin = Block::build(
            signers[2].id(),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &signers[2],
        );
        let two_parents = Block::build(
            signers[2].id(),
            SeqNum::new(1),
            vec![soup[2].block_ref(), twin.block_ref()],
            vec![],
            &signers[2],
        );
        let grandchild = Block::build(
            signers[2].id(),
            SeqNum::new(2),
            vec![two_parents.block_ref()],
            vec![],
            &signers[2],
        );
        soup.extend([tampered, child_of_tampered, twin, two_parents, grandchild]);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut evicted, mut rejected) = (0, 0);
        for cap in 2..=15 {
            let mut schedule = Vec::new();
            for _ in 0..2 {
                let mut pass = soup.clone();
                for i in (1..pass.len()).rev() {
                    pass.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                schedule.extend(pass);
            }
            for mode in [AdmissionMode::Index, AdmissionMode::parallel(2)] {
                let mut alice = Gossip::new(
                    ServerId::new(0),
                    GossipConfig::for_n(4)
                        .with_admission(mode)
                        .with_pending_cap(cap),
                    registry.signer(ServerId::new(0)).unwrap(),
                    registry.verifier(),
                );
                let mut rest = schedule.as_slice();
                let mut sizes = [1usize, 4, 2, 7, 3, 11].into_iter().cycle();
                let mut at = 0;
                while !rest.is_empty() {
                    let (burst, tail) = rest.split_at(sizes.next().unwrap().min(rest.len()));
                    alice.on_block_burst(burst.iter().cloned(), at);
                    assert_index_matches_rebuild(&alice, &format!("{mode:?} cap {cap} t={at}"));
                    rest = tail;
                    at += 1;
                }
                evicted += alice.stats().blocks_evicted;
                rejected += alice.stats().invalid_blocks;
            }
        }
        assert!(evicted > 0, "the caps must force evictions");
        assert!(rejected > 0, "the soup must contain rejections");
    }
}
