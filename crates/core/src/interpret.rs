//! Interpreting a protocol on the block DAG — Algorithm 2 of the paper.
//!
//! Every server interprets the protocol `P` embedded in its local DAG `G`,
//! completely decoupled from building the DAG. To interpret one protocol
//! instance labeled `ℓ`, the server locally runs one process instance of
//! `P(ℓ)` for *every* server, and drives these simulations from the
//! structure of the DAG:
//!
//! * a request `(ℓ, r) ∈ B.rs` is fed to the instance of `B.n`
//!   (lines 5–6);
//! * an edge `B_i ⇀ B` materializes the delivery, to `B.n`'s instance, of
//!   every message in `B_i.Ms[out, ℓ]` addressed to `B.n` (lines 8–11), in
//!   the global total order `<_M`;
//! * the instance state `PIs` flows along parent edges (line 4).
//!
//! None of the materialized messages is ever sent over the network: they
//! are recomputed locally thanks to `P`'s determinism — the paper's
//! *message compression up to omission* (§4). Because interpretation only
//! reads `G` and `P` is deterministic, every server reaches exactly the
//! same states (Lemma 4.2), which is what makes the DAG an authenticated
//! perfect point-to-point link (Lemma 4.3).
//!
//! # Copy-on-write state sharing
//!
//! Algorithm 2's line 4 says `PIs := B_parent.PIs` — a *copy* of the whole
//! instance map per block. Taken literally (see [`crate::reference`] for
//! that transcription), memory and clone cost grow as
//! O(blocks × active labels × instance size), the unbounded-memory
//! limitation the paper itself flags in §7. This interpreter instead
//! shares per-block state structurally:
//!
//! * `B.PIs` is an `Arc<BTreeMap<Label, Arc<P>>>`. A block whose
//!   interpretation touches **no** label (no requests fed, no messages
//!   delivered) shares the parent's entire map by pointer — O(1).
//! * A block that touches some labels unshares the *map* once
//!   (cloning `Label → Arc<P>` entries, i.e. pointer bumps, not instance
//!   states), then clones only the **touched** instances via
//!   [`Arc::make_mut`]. Untouched entries keep pointing at the ancestor's
//!   instance allocation.
//!
//! A label is therefore *materialized* at a block exactly when Algorithm 2
//! drives its instance there: a request for it appears in `B.rs`
//! (lines 5–6) or a predecessor's out-buffer delivers a message to `B.n`
//! (lines 8–11). Everything else is shared, which
//! [`Interpreter::footprint`] makes measurable: `instances` counts map
//! entries across all blocks (what the naive interpreter would store),
//! `unique_instances` counts distinct instance allocations (what is
//! actually resident).
//!
//! # Stored versus derived state
//!
//! Per block the interpreter stores only `B.PIs` and `B.Ms[out, ·]`.
//!
//! * `B.Ms[in, ℓ]` is, by lines 8–10, exactly the predecessors'
//!   `Ms[out, ℓ]` addressed to `B.n`. Delivery builds each inbox from
//!   there, and [`Interpreter::in_messages`] rebuilds it on demand through
//!   the same helper, so it is never stored.
//! * Line 7 ranges the in-collection over labels requested at ancestors.
//!   Only labels some predecessor sent on can have a non-empty inbox, so
//!   delivery ranges over the predecessors' out-labels instead and no
//!   per-block label set is kept. [`crate::reference`] keeps the literal
//!   set as the oracle for this shortcut.
//!
//! Out-buffers and instance states are retained for every interpreted
//! block: any future block — including a byzantine server's — may still
//! reference an old block directly (§7).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use dagbft_codec::{decode_from_slice, DecodeError, Reader, WireDecode, WireEncode};
use dagbft_crypto::ServerId;

use crate::block::BlockRef;
use crate::dag::BlockDag;
use crate::label::Label;
use crate::protocol::{DeterministicProtocol, Envelope, Outbox, ProtocolConfig, SnapshotProtocol};

/// An indication `(ℓ, i, s)` raised while interpreting: instance `ℓ` of the
/// *simulated* server `s` indicated `i` (Algorithm 2, lines 13–14).
///
/// The shim forwards only indications with `s = me` to the user
/// (Algorithm 3, line 8); the rest are observable for auditing.
#[derive(Debug, Clone, PartialEq)]
pub struct Indication<I> {
    /// The protocol instance that indicated.
    pub label: Label,
    /// The indication `i ∈ Inds_P`.
    pub indication: I,
    /// The simulated server on whose behalf the indication was produced.
    pub server: ServerId,
}

/// Errors from explicit single-block interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpretError {
    /// The reference does not resolve in the provided DAG.
    UnknownBlock {
        /// The unresolved reference.
        block: BlockRef,
    },
    /// The block has uninterpreted predecessors (`eligible(B)` is false).
    NotEligible {
        /// The predecessors still awaiting interpretation.
        pending: Vec<BlockRef>,
    },
    /// `I[B]` already holds; a block is interpreted exactly once.
    AlreadyInterpreted {
        /// The block in question.
        block: BlockRef,
    },
}

impl fmt::Display for InterpretError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpretError::UnknownBlock { block } => write!(f, "unknown block {block}"),
            InterpretError::NotEligible { pending } => {
                write!(
                    f,
                    "block not eligible: {} preds uninterpreted",
                    pending.len()
                )
            }
            InterpretError::AlreadyInterpreted { block } => {
                write!(f, "block {block} already interpreted")
            }
        }
    }
}

impl Error for InterpretError {}

/// The copy-on-write instance map `B.PIs`: shared with the parent block by
/// pointer, unshared entry-wise only for labels touched at this block.
type SharedInstances<P> = Arc<BTreeMap<Label, Arc<P>>>;

/// Interpretation state attached to one block `B`: `B.PIs` and
/// `B.Ms[out, ·]` in the paper's notation.
///
/// `pis` is structurally shared with ancestor blocks (see the module
/// docs); `outs` is per-block by nature — it holds only what was produced
/// *at* this block. `B.Ms[in, ·]` is derived, not stored (see
/// [`Interpreter::in_messages`]).
#[derive(Debug, Clone)]
pub struct BlockState<P: DeterministicProtocol> {
    /// `B.PIs[ℓ]`: the state of process instance `ℓ` of server `B.n`,
    /// *after* interpreting `B`. Instances are created lazily on first
    /// request or message (the implementation refinement the paper notes
    /// in §4), and shared with the parent block unless touched here.
    pis: SharedInstances<P>,
    /// `B.Ms[out, ℓ]`: messages sent by `B.n`'s instance at this block.
    outs: BTreeMap<Label, BTreeSet<Envelope<P::Message>>>,
}

impl<P: DeterministicProtocol> BlockState<P> {
    /// The simulated instance of `label` for the block's builder, if it has
    /// been started.
    pub fn instance(&self, label: Label) -> Option<&P> {
        self.pis.get(&label).map(Arc::as_ref)
    }

    /// Labels with a started instance at this block.
    pub fn instance_labels(&self) -> impl Iterator<Item = &Label> {
        self.pis.keys()
    }

    /// Out-going messages `B.Ms[out, ℓ]` produced at this block.
    pub fn out_messages(&self, label: Label) -> impl Iterator<Item = &Envelope<P::Message>> {
        self.outs.get(&label).into_iter().flatten()
    }

    /// Labels for which this block produced out-going messages.
    pub fn out_labels(&self) -> impl Iterator<Item = &Label> {
        self.outs.keys()
    }

    /// Whether this state shares its *entire* instance map with `other`
    /// (i.e. no label was touched between the two blocks). Observability
    /// hook for the sharing claims; `true` implies every
    /// [`BlockState::instance`] of the two states is pointer-identical.
    pub fn shares_instances_with(&self, other: &BlockState<P>) -> bool {
        Arc::ptr_eq(&self.pis, &other.pis)
    }

    /// Whether `label`'s instance is the same allocation in both states
    /// (shared untouched along the parent chain).
    pub fn shares_instance_with(&self, other: &BlockState<P>, label: Label) -> bool {
        match (self.pis.get(&label), other.pis.get(&label)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Approximate memory footprint of an interpreter (see
/// [`Interpreter::footprint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpreterFootprint {
    /// Interpreted blocks with stored state.
    pub blocks: usize,
    /// Protocol-instance map entries summed across all block states — what
    /// a clone-per-block interpreter would hold as full instance copies.
    pub instances: usize,
    /// Distinct instance allocations actually resident. Structural sharing
    /// makes this ≪ `instances` on long DAGs: only blocks that *touch* a
    /// label clone its instance.
    pub unique_instances: usize,
    /// Envelopes in out-buffers.
    pub out_envelopes: usize,
    /// Always 0: in-buffers are derived on demand
    /// ([`Interpreter::in_messages`]), never stored. Kept only because the
    /// benchmark harness reads it; remove it when the benchmark is next
    /// revised.
    pub in_envelopes: usize,
}

impl InterpreterFootprint {
    /// `instances / unique_instances`: how many times the average resident
    /// instance is shared across block states. 1.0 means no sharing.
    pub fn sharing_ratio(&self) -> f64 {
        if self.unique_instances == 0 {
            return 1.0;
        }
        self.instances as f64 / self.unique_instances as f64
    }
}

impl std::ops::AddAssign for InterpreterFootprint {
    /// Field-wise sum, for aggregating over several interpreters (e.g. all
    /// servers of a simulation). Note `unique_instances` of a sum counts
    /// per-interpreter-unique allocations — interpreters never share
    /// memory with each other.
    fn add_assign(&mut self, rhs: InterpreterFootprint) {
        self.blocks += rhs.blocks;
        self.instances += rhs.instances;
        self.unique_instances += rhs.unique_instances;
        self.out_envelopes += rhs.out_envelopes;
    }
}

/// Counters describing an interpreter's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpretStats {
    /// Blocks interpreted (`I[B]` set).
    pub blocks_interpreted: u64,
    /// Requests fed to instances (line 6).
    pub requests_processed: u64,
    /// Requests whose payload failed to decode as `P::Request` (byzantine
    /// garbage; skipped — `P` never sees them).
    pub malformed_requests: u64,
    /// Messages materialized into out-buffers. These messages were *never*
    /// sent over the network (the compression claim, §4).
    pub messages_materialized: u64,
    /// Messages delivered from in-buffers to instances (line 11).
    pub messages_delivered: u64,
    /// Indications raised across all simulated servers.
    pub indications: u64,
}

/// The `interpret(G, P)` module of Algorithm 2, with copy-on-write state
/// sharing along parent edges (see the module docs).
///
/// The interpreter never mutates the DAG; it tracks which blocks it has
/// interpreted (`I[B]`, line 2) and owns the per-block protocol state. Feed
/// it a growing DAG via [`Interpreter::step`].
///
/// # Examples
///
/// See the crate-level docs; the interpreter is normally driven through
/// [`crate::Shim`].
#[derive(Debug)]
pub struct Interpreter<P: DeterministicProtocol> {
    config: ProtocolConfig,
    states: HashMap<BlockRef, BlockState<P>>,
    /// Interpretation order (for audits; any eligible-respecting order
    /// yields identical states, Lemma 4.2).
    order: Vec<BlockRef>,
    indications: Vec<Indication<P::Indication>>,
    stats: InterpretStats,
    /// Incremental eligibility tracking for [`Interpreter::step`]: how many
    /// blocks of the DAG's insertion order have been scanned …
    scanned: usize,
    /// … per uninterpreted block, the number of uninterpreted distinct
    /// predecessors …
    waiting: HashMap<BlockRef, usize>,
    /// … the reverse dependency index …
    dependents: HashMap<BlockRef, Vec<BlockRef>>,
    /// … and the queue of blocks whose predecessors are all interpreted.
    ready: std::collections::VecDeque<BlockRef>,
}

impl<P: DeterministicProtocol> Interpreter<P> {
    /// Creates an interpreter for the given protocol configuration.
    pub fn new(config: ProtocolConfig) -> Self {
        Interpreter {
            config,
            states: HashMap::new(),
            order: Vec::new(),
            indications: Vec::new(),
            stats: InterpretStats::default(),
            scanned: 0,
            waiting: HashMap::new(),
            dependents: HashMap::new(),
            ready: std::collections::VecDeque::new(),
        }
    }

    /// `I[B]`: whether `block` has been interpreted.
    pub fn is_interpreted(&self, block: &BlockRef) -> bool {
        self.states.contains_key(block)
    }

    /// Number of interpreted blocks.
    pub fn interpreted_count(&self) -> usize {
        self.states.len()
    }

    /// Work counters.
    pub fn stats(&self) -> &InterpretStats {
        &self.stats
    }

    /// Interpretation state attached to `block`, if interpreted.
    pub fn state(&self, block: &BlockRef) -> Option<&BlockState<P>> {
        self.states.get(block)
    }

    /// Blocks interpreted so far, in interpretation order.
    pub fn interpreted_order(&self) -> &[BlockRef] {
        &self.order
    }

    /// The blocks currently eligible: `I[B]` is false and `I[B_i]` holds
    /// for every `B_i ∈ B.preds` (Algorithm 2, line 3).
    ///
    /// Served from the incremental `waiting`/`ready` bookkeeping that
    /// [`Interpreter::step`] maintains — only blocks appended to the DAG
    /// since the last call are scanned, never the whole DAG (the previous
    /// implementation rescanned all of `V` and `E` per call).
    ///
    /// Like [`Interpreter::step`], this requires every call on one
    /// interpreter to pass the *same, append-only* DAG (or a grown copy
    /// of it, `G ≤ G'`): the scan position is an index into the DAG's
    /// insertion order. Feeding unrelated DAGs to one interpreter yields
    /// stale results.
    pub fn eligible(&mut self, dag: &BlockDag) -> Vec<BlockRef> {
        self.scan_new_blocks(dag);
        // Prune blocks interpreted out-of-band (interpret_block() leaves
        // its entry behind) so the queue never accumulates stale refs
        // across repeated eligible()/interpret_block() driving loops.
        let states = &self.states;
        self.ready.retain(|r| !states.contains_key(r));
        self.ready.iter().copied().collect()
    }

    /// Interprets every block of `dag` that is or becomes eligible, to a
    /// fixed point. Returns the number of blocks interpreted.
    ///
    /// Since `G` is finite and acyclic, every block is picked eventually
    /// (Lemma A.10); a single call interprets everything currently in the
    /// DAG. Eligibility is tracked incrementally (`O(V + E)` across all
    /// calls), so repeatedly stepping a growing DAG — the shim does this
    /// after every gossip change — costs only the new blocks.
    pub fn step(&mut self, dag: &BlockDag) -> usize {
        self.scan_new_blocks(dag);
        let mut total = 0;
        while let Some(block_ref) = self.ready.pop_front() {
            if self.is_interpreted(&block_ref) {
                continue; // interpreted out-of-band via interpret_block()
            }
            self.interpret_block(dag, &block_ref)
                .expect("ready block interprets");
            total += 1;
        }
        total
    }

    /// Feeds blocks appended to the DAG since the last scan into the
    /// incremental eligibility tracker.
    fn scan_new_blocks(&mut self, dag: &BlockDag) {
        let refs: Vec<BlockRef> = dag.refs().skip(self.scanned).copied().collect();
        self.scanned += refs.len();
        for block_ref in refs {
            if self.is_interpreted(&block_ref) || self.waiting.contains_key(&block_ref) {
                continue;
            }
            let missing: Vec<BlockRef> = dag
                .preds_of(&block_ref)
                .into_iter()
                .filter(|p| !self.is_interpreted(p))
                .collect();
            if missing.is_empty() {
                self.ready.push_back(block_ref);
            } else {
                self.waiting.insert(block_ref, missing.len());
                for pred in missing {
                    self.dependents.entry(pred).or_default().push(block_ref);
                }
            }
        }
    }

    /// Called after a block was interpreted: releases dependents whose last
    /// missing predecessor it was.
    fn release_dependents(&mut self, block_ref: &BlockRef) {
        for dependent in self.dependents.remove(block_ref).unwrap_or_default() {
            if let Some(count) = self.waiting.get_mut(&dependent) {
                *count -= 1;
                if *count == 0 {
                    self.waiting.remove(&dependent);
                    self.ready.push_back(dependent);
                }
            }
        }
    }

    /// Materializes a mutable handle on `label`'s instance in `pis`:
    /// unshares the map (first touch at this block) and the instance
    /// itself (first touch of this label at this block) if currently
    /// shared with an ancestor; creates the instance lazily on first
    /// contact.
    fn touch<'a>(
        pis: &'a mut SharedInstances<P>,
        config: &ProtocolConfig,
        label: Label,
        me: ServerId,
    ) -> &'a mut P {
        let map = Arc::make_mut(pis);
        let slot = map
            .entry(label)
            .or_insert_with(|| Arc::new(P::new(config, label, me)));
        Arc::make_mut(slot)
    }

    /// Interprets a single eligible block (Algorithm 2, lines 4–12).
    ///
    /// Line 4 (`PIs := B_parent.PIs`) shares the parent's map by pointer;
    /// only labels touched here — requests fed (lines 5–6) or messages
    /// delivered (lines 8–11) — are cloned on write.
    ///
    /// # Errors
    ///
    /// * [`InterpretError::UnknownBlock`] — `block` not in `dag`;
    /// * [`InterpretError::AlreadyInterpreted`] — `I[B]` already holds;
    /// * [`InterpretError::NotEligible`] — some predecessor uninterpreted.
    pub fn interpret_block(
        &mut self,
        dag: &BlockDag,
        block_ref: &BlockRef,
    ) -> Result<(), InterpretError> {
        let block = dag
            .get(block_ref)
            .ok_or(InterpretError::UnknownBlock { block: *block_ref })?;
        if self.is_interpreted(block_ref) {
            return Err(InterpretError::AlreadyInterpreted { block: *block_ref });
        }
        let preds = dag.preds_of(block_ref);
        let pending: Vec<BlockRef> = preds
            .iter()
            .filter(|p| !self.is_interpreted(p))
            .copied()
            .collect();
        if !pending.is_empty() {
            return Err(InterpretError::NotEligible { pending });
        }

        let me = block.builder();

        // Line 4: PIs := the parent's PIs — shared by pointer, not copied.
        // Genesis blocks (and, for lazily created labels, first contact)
        // start fresh instances.
        let parent = block
            .parent_via(|r| dag.meta(r))
            .expect("blocks in the DAG satisfy the parent rule");
        let mut pis: SharedInstances<P> = match parent {
            Some(parent_ref) => Arc::clone(&self.states[&parent_ref].pis),
            None => Arc::new(BTreeMap::new()),
        };

        let mut outs: BTreeMap<Label, BTreeSet<Envelope<P::Message>>> = BTreeMap::new();
        let mut touched: BTreeSet<Label> = BTreeSet::new();
        let config = self.config;

        // Lines 5–6: feed the block's own requests to B.n's instances.
        for labeled in block.requests() {
            let label = labeled.label;
            match decode_from_slice::<P::Request>(&labeled.payload) {
                Ok(request) => {
                    let instance = Self::touch(&mut pis, &config, label, me);
                    let mut outbox = Outbox::new();
                    instance.on_request(request, &mut outbox);
                    let envelopes: Vec<_> = outbox.into_envelopes(me).collect();
                    self.stats.messages_materialized += envelopes.len() as u64;
                    outs.entry(label).or_default().extend(envelopes);
                    touched.insert(label);
                    self.stats.requests_processed += 1;
                }
                Err(_) => {
                    // A byzantine builder inscribed bytes that are not a
                    // request of P. P assumes requests are authentic
                    // (§5); garbage never reaches it.
                    self.stats.malformed_requests += 1;
                }
            }
        }

        // Lines 7–11: for every relevant label, collect the in-messages
        // addressed to B.n from the direct predecessors' out-buffers and
        // deliver them in the total order <_M. Only labels some
        // predecessor actually sent on can have a non-empty inbox — and
        // a block's out-labels are always requested at that block or
        // an ancestor — so ranging over the preds' out-label union instead
        // of every label requested at an ancestor is observationally
        // identical (the reference interpreter ranges over the requested
        // labels; the equivalence suite pins this) and keeps delivery
        // cost proportional to traffic, not to the lifetime label count.
        let mut sending: BTreeSet<Label> = BTreeSet::new();
        for pred in &preds {
            sending.extend(self.states[pred].outs.keys().copied());
        }
        for label in sending {
            let inbox = self.inbox(&preds, label, me);
            if inbox.is_empty() {
                continue;
            }
            let instance = Self::touch(&mut pis, &config, label, me);
            for envelope in &inbox {
                let mut outbox = Outbox::new();
                instance.on_message(envelope.sender, envelope.message.clone(), &mut outbox);
                let envelopes: Vec<_> = outbox.into_envelopes(me).collect();
                self.stats.messages_materialized += envelopes.len() as u64;
                outs.entry(label).or_default().extend(envelopes);
                self.stats.messages_delivered += 1;
            }
            touched.insert(label);
        }

        // Lines 13–14: surface indications from the instances driven here.
        // Touched instances are already unshared, so make_mut is free.
        if !touched.is_empty() {
            let map = Arc::make_mut(&mut pis);
            for label in &touched {
                if let Some(slot) = map.get_mut(label) {
                    for indication in Arc::make_mut(slot).drain_indications() {
                        self.stats.indications += 1;
                        self.indications.push(Indication {
                            label: *label,
                            indication,
                            server: me,
                        });
                    }
                }
            }
        }

        // Line 12: I[B] := true.
        self.states.insert(*block_ref, BlockState { pis, outs });
        self.order.push(*block_ref);
        self.stats.blocks_interpreted += 1;
        self.release_dependents(block_ref);
        Ok(())
    }

    /// `B.Ms[in, ℓ]`: the messages delivered to `B.n`'s instance of
    /// `label` at `block_ref` (Algorithm 2, lines 8–10), in the total order
    /// `<_M`.
    ///
    /// Derived on demand from the predecessors' out-buffers through the
    /// same helper delivery uses, so it equals what was delivered. Empty
    /// unless `block_ref` is interpreted and present in `dag`.
    pub fn in_messages(
        &self,
        dag: &BlockDag,
        block_ref: &BlockRef,
        label: Label,
    ) -> BTreeSet<Envelope<P::Message>> {
        match dag.get(block_ref) {
            Some(block) if self.is_interpreted(block_ref) => {
                self.inbox(&dag.preds_of(block_ref), label, block.builder())
            }
            _ => BTreeSet::new(),
        }
    }

    /// The inbox of `me`'s instance of `label` at a block whose (interpreted)
    /// predecessors are `preds`: every envelope in their `Ms[out, label]`
    /// addressed to `me`.
    fn inbox(
        &self,
        preds: &[BlockRef],
        label: Label,
        me: ServerId,
    ) -> BTreeSet<Envelope<P::Message>> {
        preds
            .iter()
            .filter_map(|pred| self.states[pred].outs.get(&label))
            .flatten()
            .filter(|envelope| envelope.receiver == me)
            .cloned()
            .collect()
    }

    /// Approximate memory footprint: stored protocol instances (total map
    /// entries *and* unique resident allocations) and out-envelopes across
    /// all interpreted blocks. Used by the bounded-memory experiments.
    ///
    /// `instances` is what a clone-per-block interpreter would store;
    /// `unique_instances` is what this interpreter actually keeps —
    /// their ratio is the structural-sharing win.
    pub fn footprint(&self) -> InterpreterFootprint {
        let mut footprint = InterpreterFootprint::default();
        let mut seen_maps: HashSet<*const BTreeMap<Label, Arc<P>>> = HashSet::new();
        let mut seen_instances: HashSet<*const P> = HashSet::new();
        for state in self.states.values() {
            footprint.instances += state.pis.len();
            if seen_maps.insert(Arc::as_ptr(&state.pis)) {
                // A map shared by pointer contributes its instances once;
                // distinct maps may still share entries, hence the second
                // dedup level.
                for slot in state.pis.values() {
                    if seen_instances.insert(Arc::as_ptr(slot)) {
                        footprint.unique_instances += 1;
                    }
                }
            }
            footprint.out_envelopes += state.outs.values().map(BTreeSet::len).sum::<usize>();
        }
        footprint.blocks = self.states.len();
        footprint
    }

    /// Removes and returns the indications raised since the last drain.
    pub fn drain_indications(&mut self) -> Vec<Indication<P::Indication>> {
        std::mem::take(&mut self.indications)
    }
}

/// Errors decoding a persisted interpreter snapshot.
///
/// Corrupt snapshot bytes always map here — decoding never panics; recovery
/// can fall back to genesis replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot bytes do not decode.
    Corrupt(DecodeError),
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u8),
    /// The snapshot was taken under a different `(n, f)` configuration.
    ConfigMismatch {
        /// `n` recorded in the snapshot.
        n: u64,
        /// `f` recorded in the snapshot.
        f: u64,
    },
    /// A cross-reference into one of the snapshot's sharing tables is out
    /// of range.
    BadIndex,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Corrupt(err) => write!(f, "corrupt snapshot: {err}"),
            SnapshotError::UnsupportedVersion(version) => {
                write!(f, "unsupported snapshot version {version}")
            }
            SnapshotError::ConfigMismatch { n, f: faults } => {
                write!(
                    f,
                    "snapshot taken under different config (n={n}, f={faults})"
                )
            }
            SnapshotError::BadIndex => write!(f, "snapshot sharing-table index out of range"),
        }
    }
}

impl Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(err: DecodeError) -> Self {
        SnapshotError::Corrupt(err)
    }
}

/// Snapshot format version written by [`Interpreter::encode_snapshot`].
const SNAPSHOT_VERSION: u8 = 2;

/// Reads a `u64` element count and checks feasibility against the remaining
/// input (each element needs at least `min_elem_size` bytes), so corrupt
/// counts can never force a large allocation.
fn read_count(reader: &mut Reader<'_>, min_elem_size: usize) -> Result<usize, SnapshotError> {
    let claimed = reader.read_u64()? as usize;
    let max = reader.remaining() / min_elem_size.max(1);
    if claimed > max {
        return Err(SnapshotError::Corrupt(DecodeError::LengthOutOfBounds {
            claimed,
            max,
        }));
    }
    Ok(claimed)
}

impl<P: SnapshotProtocol> Interpreter<P>
where
    P::Message: WireEncode + WireDecode,
{
    /// Serializes the complete interpretation state — order, counters, and
    /// every block's state with its copy-on-write structure *preserved*
    /// (shared maps and instances are written once and cross-referenced),
    /// so a snapshot of a million-block DAG costs what is actually
    /// resident, not blocks × labels.
    ///
    /// Format v2: header, order and counters, then table 1 (unique
    /// instance states), table 2 (unique instance maps) and, per block,
    /// its map index and out-buffers. A block state is exactly `B.PIs`
    /// and `B.Ms[out, ·]`, so nothing else needs capturing.
    ///
    /// Must be called at a fixed point ([`Interpreter::step`] returned and
    /// [`Interpreter::drain_indications`] was drained): pending eligibility
    /// bookkeeping and undrained indications are not captured.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        debug_assert!(
            self.ready.is_empty() && self.waiting.is_empty(),
            "snapshot requires interpretation at a fixed point"
        );
        debug_assert!(
            self.indications.is_empty(),
            "drain indications before snapshotting"
        );
        let mut out = Vec::new();
        out.push(SNAPSHOT_VERSION);
        (self.order.len() as u64).encode(&mut out);
        (self.config.n as u64).encode(&mut out);
        (self.config.f as u64).encode(&mut out);
        for block_ref in &self.order {
            block_ref.encode(&mut out);
        }
        for counter in [
            self.stats.blocks_interpreted,
            self.stats.requests_processed,
            self.stats.malformed_requests,
            self.stats.messages_materialized,
            self.stats.messages_delivered,
            self.stats.indications,
        ] {
            counter.encode(&mut out);
        }

        // Discover the unique allocations in deterministic (interpretation
        // order, then BTreeMap order) sequence, assigning dense indices.
        let mut map_index: HashMap<*const BTreeMap<Label, Arc<P>>, u64> = HashMap::new();
        let mut instance_index: HashMap<*const P, u64> = HashMap::new();
        let mut instances: Vec<Arc<P>> = Vec::new();
        let mut maps: Vec<SharedInstances<P>> = Vec::new();
        use std::collections::hash_map::Entry;
        for block_ref in &self.order {
            let state = &self.states[block_ref];
            if let Entry::Vacant(entry) = map_index.entry(Arc::as_ptr(&state.pis)) {
                entry.insert(maps.len() as u64);
                maps.push(Arc::clone(&state.pis));
                for slot in state.pis.values() {
                    if let Entry::Vacant(entry) = instance_index.entry(Arc::as_ptr(slot)) {
                        entry.insert(instances.len() as u64);
                        instances.push(Arc::clone(slot));
                    }
                }
            }
        }

        // Table 1: unique instance states, length-prefixed.
        (instances.len() as u64).encode(&mut out);
        let mut scratch = Vec::new();
        for instance in &instances {
            scratch.clear();
            instance.encode_state(&mut scratch);
            (scratch.len() as u64).encode(&mut out);
            out.extend_from_slice(&scratch);
        }
        // Table 2: unique instance maps, as (label, instance index) pairs.
        (maps.len() as u64).encode(&mut out);
        for map in &maps {
            (map.len() as u64).encode(&mut out);
            for (label, slot) in map.iter() {
                label.encode(&mut out);
                instance_index[&Arc::as_ptr(slot)].encode(&mut out);
            }
        }
        // Per block, in interpretation order: the map cross-reference and
        // the (per-block by nature) out-buffers.
        for block_ref in &self.order {
            let state = &self.states[block_ref];
            map_index[&Arc::as_ptr(&state.pis)].encode(&mut out);
            state.outs.encode(&mut out);
        }
        out
    }

    /// Rebuilds an interpreter from [`Interpreter::encode_snapshot`] bytes,
    /// restoring the copy-on-write sharing structure (shared allocations
    /// come back shared).
    ///
    /// The restored interpreter has scanned exactly the first
    /// `interpreted_count()` blocks of the DAG's insertion order — feed it
    /// the same, grown DAG and [`Interpreter::step`] replays only the
    /// suffix. The caller must verify the covered prefix matches
    /// (see `Shim::recover_from_store_with_snapshots`).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; corrupt input never panics.
    pub fn decode_snapshot(config: ProtocolConfig, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut reader = Reader::new(bytes);
        let version = reader.read_u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let covered = read_count(&mut reader, 32)?;
        let n = reader.read_u64()?;
        let f = reader.read_u64()?;
        if n != config.n as u64 || f != config.f as u64 {
            return Err(SnapshotError::ConfigMismatch { n, f });
        }
        let mut order = Vec::with_capacity(covered);
        for _ in 0..covered {
            order.push(BlockRef::decode(&mut reader)?);
        }
        let stats = InterpretStats {
            blocks_interpreted: reader.read_u64()?,
            requests_processed: reader.read_u64()?,
            malformed_requests: reader.read_u64()?,
            messages_materialized: reader.read_u64()?,
            messages_delivered: reader.read_u64()?,
            indications: reader.read_u64()?,
        };

        let instance_count = read_count(&mut reader, 8)?;
        let mut instances: Vec<Arc<P>> = Vec::with_capacity(instance_count);
        for _ in 0..instance_count {
            let len = reader.read_u64()? as usize;
            let slice = reader.take(len)?;
            let mut sub = Reader::new(slice);
            let instance = P::decode_state(&mut sub)?;
            if sub.remaining() != 0 {
                return Err(SnapshotError::Corrupt(DecodeError::TrailingBytes {
                    remaining: sub.remaining(),
                }));
            }
            instances.push(Arc::new(instance));
        }
        let map_count = read_count(&mut reader, 8)?;
        let mut maps: Vec<SharedInstances<P>> = Vec::with_capacity(map_count);
        for _ in 0..map_count {
            let entries = read_count(&mut reader, 16)?;
            let mut map = BTreeMap::new();
            for _ in 0..entries {
                let label = Label::decode(&mut reader)?;
                let idx = reader.read_u64()? as usize;
                let slot = instances.get(idx).ok_or(SnapshotError::BadIndex)?;
                map.insert(label, Arc::clone(slot));
            }
            maps.push(Arc::new(map));
        }

        let mut states: HashMap<BlockRef, BlockState<P>> = HashMap::with_capacity(covered);
        for block_ref in &order {
            let map_idx = reader.read_u64()? as usize;
            let pis = Arc::clone(maps.get(map_idx).ok_or(SnapshotError::BadIndex)?);
            let outs = WireDecode::decode(&mut reader)?;
            states.insert(*block_ref, BlockState { pis, outs });
        }
        if reader.remaining() != 0 {
            return Err(SnapshotError::Corrupt(DecodeError::TrailingBytes {
                remaining: reader.remaining(),
            }));
        }
        let scanned = order.len();
        Ok(Interpreter {
            config,
            states,
            order,
            indications: Vec::new(),
            stats,
            scanned,
            waiting: HashMap::new(),
            dependents: HashMap::new(),
            ready: std::collections::VecDeque::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, LabeledRequest, SeqNum};
    use dagbft_crypto::{KeyRegistry, Signer};

    /// A deterministic ping protocol: on request, send PING to everyone;
    /// on PING, indicate the value once.
    #[derive(Debug, Clone, PartialEq)]
    struct Ping {
        config: ProtocolConfig,
        seen: BTreeSet<u64>,
        pending: Vec<u64>,
    }

    impl DeterministicProtocol for Ping {
        type Request = u64;
        type Message = u64;
        type Indication = u64;

        fn new(config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
            Ping {
                config: *config,
                seen: BTreeSet::new(),
                pending: Vec::new(),
            }
        }

        fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64>) {
            outbox.broadcast(&self.config, request);
        }

        fn on_message(&mut self, _sender: ServerId, message: u64, _outbox: &mut Outbox<u64>) {
            if self.seen.insert(message) {
                self.pending.push(message);
            }
        }

        fn drain_indications(&mut self) -> Vec<u64> {
            std::mem::take(&mut self.pending)
        }
    }

    impl SnapshotProtocol for Ping {
        fn encode_state(&self, out: &mut Vec<u8>) {
            (self.config.n as u64).encode(out);
            (self.config.f as u64).encode(out);
            self.seen.encode(out);
            self.pending.encode(out);
        }

        fn decode_state(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let n = reader.read_u64()? as usize;
            let f = reader.read_u64()? as usize;
            Ok(Ping {
                config: ProtocolConfig { n, f },
                seen: WireDecode::decode(reader)?,
                pending: WireDecode::decode(reader)?,
            })
        }
    }

    fn setup(n: usize) -> (KeyRegistry, Vec<Signer>) {
        let registry = KeyRegistry::generate(n, 21);
        let signers = (0..n)
            .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
            .collect();
        (registry, signers)
    }

    /// Two servers; s0's genesis carries a request; both build follow-ups
    /// referencing each other's blocks.
    fn two_server_dag() -> (BlockDag, Vec<Block>) {
        let (_, signers) = setup(2);
        let label = Label::new(1);
        let b0 = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(label, &7u64)],
            &signers[0],
        );
        let b1 = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signers[1]);
        // s1 references both genesis blocks: receives s0's PING here.
        let b2 = Block::build(
            ServerId::new(1),
            SeqNum::new(1),
            vec![b1.block_ref(), b0.block_ref()],
            vec![],
            &signers[1],
        );
        // s0 references its own genesis (self-delivery) and s1's chain.
        let b3 = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![b0.block_ref(), b2.block_ref()],
            vec![],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        for block in [&b0, &b1, &b2, &b3] {
            dag.insert(block.clone()).unwrap();
        }
        (dag, vec![b0, b1, b2, b3])
    }

    /// A single-server chain of `length` blocks; only the genesis carries a
    /// request, so blocks from index 2 on touch nothing (the PING
    /// self-delivers at index 1 and Ping replies with silence).
    fn single_chain(length: u64) -> (BlockDag, Vec<Block>) {
        let (_, signers) = setup(1);
        let mut dag = BlockDag::new();
        let mut blocks = Vec::new();
        let mut prev: Option<BlockRef> = None;
        for k in 0..length {
            let requests = if k == 0 {
                vec![LabeledRequest::encode(Label::new(1), &7u64)]
            } else {
                vec![]
            };
            let block = Block::build(
                ServerId::new(0),
                SeqNum::new(k),
                prev.into_iter().collect(),
                requests,
                &signers[0],
            );
            dag.insert(block.clone()).unwrap();
            prev = Some(block.block_ref());
            blocks.push(block);
        }
        (dag, blocks)
    }

    #[test]
    fn eligibility_respects_partial_order() {
        let (dag, blocks) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        let eligible = interpreter.eligible(&dag);
        // Only the two genesis blocks are eligible initially.
        assert_eq!(eligible.len(), 2);
        assert!(eligible.contains(&blocks[0].block_ref()));
        assert!(eligible.contains(&blocks[1].block_ref()));

        let err = interpreter
            .interpret_block(&dag, &blocks[2].block_ref())
            .unwrap_err();
        assert!(matches!(err, InterpretError::NotEligible { .. }));
    }

    #[test]
    fn eligible_tracks_incremental_progress() {
        // eligible() reflects interpret_block() progress without rescans:
        // interpreting a genesis block releases its dependents.
        let (dag, blocks) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        interpreter
            .interpret_block(&dag, &blocks[0].block_ref())
            .unwrap();
        interpreter
            .interpret_block(&dag, &blocks[1].block_ref())
            .unwrap();
        let eligible = interpreter.eligible(&dag);
        assert_eq!(eligible, vec![blocks[2].block_ref()]);
        interpreter
            .interpret_block(&dag, &blocks[2].block_ref())
            .unwrap();
        assert_eq!(interpreter.eligible(&dag), vec![blocks[3].block_ref()]);
        interpreter
            .interpret_block(&dag, &blocks[3].block_ref())
            .unwrap();
        assert!(interpreter.eligible(&dag).is_empty());
    }

    #[test]
    fn request_materializes_broadcast_messages() {
        let (dag, blocks) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        interpreter.step(&dag);
        let state = interpreter.state(&blocks[0].block_ref()).unwrap();
        let outs: Vec<_> = state.out_messages(Label::new(1)).collect();
        // PING 7 to s0 and s1.
        assert_eq!(outs.len(), 2);
        assert!(outs.iter().all(|e| e.sender == ServerId::new(0)));
        assert!(outs.iter().all(|e| e.message == 7));
    }

    #[test]
    fn edges_deliver_messages_and_raise_indications() {
        let (dag, blocks) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        let interpreted = interpreter.step(&dag);
        assert_eq!(interpreted, 4);

        // b2 (by s1) received PING 7 via the edge b0 ⇀ b2.
        let ins: Vec<_> = interpreter
            .in_messages(&dag, &blocks[2].block_ref(), Label::new(1))
            .into_iter()
            .collect();
        assert_eq!(ins.len(), 1);
        assert_eq!(ins[0].receiver, ServerId::new(1));

        // b3 (by s0) received its own PING via b0 ⇀ b3 (self-delivery on
        // the next own block).
        let ins3: Vec<_> = interpreter
            .in_messages(&dag, &blocks[3].block_ref(), Label::new(1))
            .into_iter()
            .collect();
        assert_eq!(ins3.len(), 1);
        assert_eq!(ins3[0].receiver, ServerId::new(0));

        // Both simulated servers indicated 7 exactly once.
        let indications = interpreter.drain_indications();
        let mut by_server: Vec<_> = indications
            .iter()
            .map(|i| (i.server.index(), i.indication))
            .collect();
        by_server.sort();
        assert_eq!(by_server, vec![(0, 7), (1, 7)]);
    }

    #[test]
    fn interpretation_is_idempotent_per_block() {
        let (dag, blocks) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        interpreter.step(&dag);
        let err = interpreter
            .interpret_block(&dag, &blocks[0].block_ref())
            .unwrap_err();
        assert!(matches!(err, InterpretError::AlreadyInterpreted { .. }));
        // step() on an unchanged DAG does nothing.
        assert_eq!(interpreter.step(&dag), 0);
    }

    #[test]
    fn lemma_4_2_interpretation_order_independent() {
        let (dag, _) = two_server_dag();
        // Interpreter A: default (topological) order via step().
        let mut a: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        a.step(&dag);
        // Interpreter B: repeatedly pick the *last* eligible block.
        let mut b: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        loop {
            let eligible = b.eligible(&dag);
            let Some(pick) = eligible.last() else { break };
            b.interpret_block(&dag, pick).unwrap();
        }
        for r in dag.refs() {
            let state_a = a.state(r).unwrap();
            let state_b = b.state(r).unwrap();
            let label = Label::new(1);
            let outs_a: Vec<_> = state_a.out_messages(label).collect();
            let outs_b: Vec<_> = state_b.out_messages(label).collect();
            assert_eq!(outs_a, outs_b);
            assert_eq!(a.in_messages(&dag, r, label), b.in_messages(&dag, r, label));
        }
        assert_eq!(a.stats().messages_delivered, b.stats().messages_delivered);
    }

    #[test]
    fn growing_dag_extends_interpretation() {
        let (dag_full, blocks) = two_server_dag();
        let mut dag_partial = BlockDag::new();
        dag_partial.insert(blocks[0].clone()).unwrap();
        dag_partial.insert(blocks[1].clone()).unwrap();

        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        assert_eq!(interpreter.step(&dag_partial), 2);
        // Extend to the full DAG (G ≤ G'): previously interpreted state is
        // reused, only the new blocks are processed.
        assert_eq!(interpreter.step(&dag_full), 2);
        assert_eq!(interpreter.interpreted_count(), 4);
    }

    #[test]
    fn malformed_request_payload_skipped() {
        let (_, signers) = setup(1);
        let garbage = LabeledRequest {
            label: Label::new(1),
            payload: bytes::Bytes::from_static(&[0xff, 0x01]),
        };
        let block = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![garbage],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        dag.insert(block.clone()).unwrap();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        interpreter.step(&dag);
        assert_eq!(interpreter.stats().malformed_requests, 1);
        assert_eq!(interpreter.stats().requests_processed, 0);
    }

    #[test]
    fn unknown_block_error() {
        let (dag, _) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        let bogus = BlockRef::from_digest(dagbft_crypto::Digest::ZERO);
        assert!(matches!(
            interpreter.interpret_block(&dag, &bogus),
            Err(InterpretError::UnknownBlock { .. })
        ));
    }

    #[test]
    fn equivocation_splits_instance_state() {
        // A byzantine s1 builds two k=0 blocks with different requests; the
        // interpreted instance state for s1 splits (Figure 3 discussion).
        let (_, signers) = setup(2);
        let label = Label::new(1);
        let b3 = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(label, &1u64)],
            &signers[1],
        );
        let b4 = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(label, &2u64)],
            &signers[1],
        );
        let mut dag = BlockDag::new();
        dag.insert(b3.clone()).unwrap();
        dag.insert(b4.clone()).unwrap();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        interpreter.step(&dag);
        let out3: Vec<_> = interpreter
            .state(&b3.block_ref())
            .unwrap()
            .out_messages(label)
            .map(|e| e.message)
            .collect();
        let out4: Vec<_> = interpreter
            .state(&b4.block_ref())
            .unwrap()
            .out_messages(label)
            .map(|e| e.message)
            .collect();
        assert!(out3.iter().all(|m| *m == 1));
        assert!(out4.iter().all(|m| *m == 2));
        // The split states are distinct allocations, never shared.
        let state3 = interpreter.state(&b3.block_ref()).unwrap();
        let state4 = interpreter.state(&b4.block_ref()).unwrap();
        assert!(!state3.shares_instance_with(state4, label));
    }

    #[test]
    fn incremental_step_matches_batch_interpretation() {
        // Interleave manual interpret_block() calls with step() on a
        // growing DAG: the tracker must neither skip nor double-interpret.
        let (dag_full, blocks) = two_server_dag();
        let mut dag_partial = BlockDag::new();
        dag_partial.insert(blocks[0].clone()).unwrap();
        dag_partial.insert(blocks[1].clone()).unwrap();

        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        // Manually interpret one genesis, then step the partial DAG.
        interpreter
            .interpret_block(&dag_partial, &blocks[1].block_ref())
            .unwrap();
        assert_eq!(interpreter.step(&dag_partial), 1);
        // Grow the DAG and step again.
        assert_eq!(interpreter.step(&dag_full), 2);
        assert_eq!(interpreter.interpreted_count(), 4);
        // No block interpreted twice: order has unique entries.
        let unique: std::collections::BTreeSet<_> =
            interpreter.interpreted_order().iter().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn untouched_blocks_share_state_with_parent() {
        // Chain of 6 blocks, one request at genesis: activity dies out
        // after index 1 (the self-delivered PING), so blocks 2.. share the
        // whole instance map with their parent.
        let (dag, blocks) = single_chain(6);
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        interpreter.step(&dag);

        let state1 = interpreter.state(&blocks[1].block_ref()).unwrap();
        for later in &blocks[2..] {
            let state = interpreter.state(&later.block_ref()).unwrap();
            assert!(
                state.shares_instances_with(state1),
                "quiescent block must share the parent's map"
            );
        }
        // Genesis touched the label (request), block 1 touched it
        // (delivery): two unique instances; blocks 2.. add nothing.
        let footprint = interpreter.footprint();
        assert_eq!(footprint.blocks, 6);
        assert_eq!(footprint.instances, 6); // one label in every state
        assert_eq!(footprint.unique_instances, 2);
        assert!(footprint.sharing_ratio() > 2.9);
    }

    #[test]
    fn cow_write_does_not_leak_into_ancestors() {
        // The clone-on-write must isolate descendants from ancestors: after
        // block 1 drives the instance (PING delivery mutates `seen`), the
        // genesis state still shows the pre-delivery instance.
        let (dag, blocks) = single_chain(3);
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        interpreter.step(&dag);

        let genesis = interpreter.state(&blocks[0].block_ref()).unwrap();
        let after = interpreter.state(&blocks[1].block_ref()).unwrap();
        let genesis_instance = genesis.instance(Label::new(1)).unwrap();
        let after_instance = after.instance(Label::new(1)).unwrap();
        assert!(genesis_instance.seen.is_empty(), "ancestor unmodified");
        assert_eq!(after_instance.seen.len(), 1, "descendant advanced");
        assert!(!genesis.shares_instance_with(after, Label::new(1)));
    }

    #[test]
    fn parallel_labels_are_independent() {
        let (_, signers) = setup(1);
        let b0 = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![
                LabeledRequest::encode(Label::new(1), &10u64),
                LabeledRequest::encode(Label::new(2), &20u64),
            ],
            &signers[0],
        );
        let b1 = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![b0.block_ref()],
            vec![],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        dag.insert(b0.clone()).unwrap();
        dag.insert(b1.clone()).unwrap();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        interpreter.step(&dag);

        let messages = |label| -> Vec<u64> {
            interpreter
                .in_messages(&dag, &b1.block_ref(), label)
                .into_iter()
                .map(|e| e.message)
                .collect()
        };
        let (in1, in2) = (messages(Label::new(1)), messages(Label::new(2)));
        assert_eq!(in1, vec![10]);
        assert_eq!(in2, vec![20]);

        let indications = interpreter.drain_indications();
        let labels: BTreeSet<_> = indications.iter().map(|i| i.label).collect();
        assert_eq!(labels.len(), 2);
    }

    /// `n` servers × `rounds` rounds, in insertion (topological) order:
    /// every block references the whole previous round, and servers
    /// request a fresh label on alternating rounds, so several labels are
    /// in flight at once.
    fn grid_blocks(n: usize, rounds: u64) -> Vec<Block> {
        let (_, signers) = setup(n);
        let mut blocks = Vec::new();
        let mut prev: Vec<BlockRef> = Vec::new();
        for round in 0..rounds {
            let layer: Vec<Block> = (0..n)
                .map(|i| {
                    let requests = if (round + i as u64).is_multiple_of(2) {
                        vec![LabeledRequest::encode(
                            Label::new(round),
                            &(round * 10 + i as u64),
                        )]
                    } else {
                        vec![]
                    };
                    Block::build(
                        ServerId::new(i as u32),
                        SeqNum::new(round),
                        prev.clone(),
                        requests,
                        &signers[i],
                    )
                })
                .collect();
            prev = layer.iter().map(Block::block_ref).collect();
            blocks.extend(layer);
        }
        blocks
    }

    fn dag_of(blocks: &[Block]) -> BlockDag {
        let mut dag = BlockDag::new();
        for block in blocks {
            dag.insert(block.clone()).unwrap();
        }
        dag
    }

    /// A snapshot of a 3-server grid interpreted to a fixed point.
    fn grid_snapshot() -> Vec<u8> {
        let dag = dag_of(&grid_blocks(3, 6));
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(3));
        interpreter.step(&dag);
        interpreter.drain_indications();
        interpreter.encode_snapshot()
    }

    #[test]
    fn snapshot_reencodes_byte_identically() {
        let bytes = grid_snapshot();
        let restored: Interpreter<Ping> =
            Interpreter::decode_snapshot(ProtocolConfig::for_n(3), &bytes).unwrap();
        assert_eq!(restored.encode_snapshot(), bytes);
    }

    #[test]
    fn restored_interpreter_matches_original_on_grown_dag() {
        let blocks = grid_blocks(3, 8);
        let (prefix, full) = (dag_of(&blocks[..12]), dag_of(&blocks));
        let config = ProtocolConfig::for_n(3);
        let mut original: Interpreter<Ping> = Interpreter::new(config);
        original.step(&prefix);
        original.drain_indications();
        let mut restored: Interpreter<Ping> =
            Interpreter::decode_snapshot(config, &original.encode_snapshot()).unwrap();

        assert_eq!(original.step(&full), 12);
        assert_eq!(restored.step(&full), 12);
        assert_eq!(original.stats(), restored.stats());
        let indications = original.drain_indications();
        assert!(!indications.is_empty());
        assert_eq!(indications, restored.drain_indications());
        assert_eq!(original.interpreted_order(), restored.interpreted_order());
        for r in full.refs() {
            let (a, b) = (original.state(r).unwrap(), restored.state(r).unwrap());
            let labels: Vec<_> = a.instance_labels().copied().collect();
            assert_eq!(labels, b.instance_labels().copied().collect::<Vec<_>>());
            for label in (0..8).map(Label::new) {
                assert_eq!(a.instance(label), b.instance(label));
                assert!(a.out_messages(label).eq(b.out_messages(label)));
                assert_eq!(
                    original.in_messages(&full, r, label),
                    restored.in_messages(&full, r, label)
                );
            }
        }
        // Sharing survives the round trip: restored states that shared a
        // map before the snapshot still do.
        assert_eq!(original.footprint(), restored.footprint());
    }

    #[test]
    fn version_1_snapshot_is_rejected() {
        let mut bytes = grid_snapshot();
        bytes[0] = 1;
        assert!(matches!(
            Interpreter::<Ping>::decode_snapshot(ProtocolConfig::for_n(3), &bytes),
            Err(SnapshotError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn every_truncated_snapshot_is_an_error() {
        let bytes = grid_snapshot();
        for len in 0..bytes.len() {
            assert!(
                Interpreter::<Ping>::decode_snapshot(ProtocolConfig::for_n(3), &bytes[..len])
                    .is_err(),
                "prefix of {len} of {} bytes decoded",
                bytes.len()
            );
        }
    }
}
