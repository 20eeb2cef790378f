//! Copy-on-write ≡ clone-per-block: the two interpreters are
//! observationally identical.
//!
//! [`dagbft_core::Interpreter`] shares per-block state structurally
//! (`Arc`-of-map, clone-on-write per touched label);
//! [`dagbft_core::ReferenceInterpreter`] is the literal Algorithm 2
//! transcription that deep-clones `PIs` at every block. Lemma 4.2 makes
//! interpretation a pure function of the DAG, so the two must agree on
//! *everything* observable: per-block instance states, in/out buffers,
//! active sets, indications (including order, when driven in the same
//! block order), and work counters.
//!
//! The property runs both interpreters in lockstep over random DAGs that
//! include the hostile shapes: equivocating builders (two valid blocks at
//! the same sequence number), malformed request payloads (byzantine bytes
//! that fail to decode), servers skipping rounds, and multi-label traffic.

use std::collections::{BTreeMap, BTreeSet};

use dagbft_core::{
    Block, BlockDag, BlockRef, DeterministicProtocol, Interpreter, Label, LabeledRequest, Outbox,
    ProtocolConfig, ReferenceInterpreter, SeqNum,
};
use dagbft_crypto::{KeyRegistry, ServerId};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A deterministic protocol with enough internal state to catch sharing
/// bugs: it counts every received (sender, value) pair, relays odd values
/// back once (second-hop traffic), and indicates every receipt.
#[derive(Debug, Clone, PartialEq)]
struct Relay {
    config: ProtocolConfig,
    received: BTreeMap<(ServerId, u64), u32>,
    relayed: BTreeSet<u64>,
    pending: Vec<(ServerId, u64)>,
}

impl DeterministicProtocol for Relay {
    type Request = u64;
    type Message = u64;
    type Indication = (ServerId, u64);

    fn new(config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
        Relay {
            config: *config,
            received: BTreeMap::new(),
            relayed: BTreeSet::new(),
            pending: Vec::new(),
        }
    }

    fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64>) {
        outbox.broadcast(&self.config, request);
    }

    fn on_message(&mut self, sender: ServerId, message: u64, outbox: &mut Outbox<u64>) {
        *self.received.entry((sender, message)).or_default() += 1;
        self.pending.push((sender, message));
        if message % 2 == 1 && self.relayed.insert(message) {
            outbox.send(sender, message + 1);
        }
    }

    fn drain_indications(&mut self) -> Vec<(ServerId, u64)> {
        std::mem::take(&mut self.pending)
    }
}

/// Per server and round: whether it produces a block, whether it
/// *equivocates* (a second valid block at the same sequence number), and
/// which payload kind the block carries (0 = none, 1 = valid request,
/// 2 = malformed garbage, 3 = valid + garbage).
#[derive(Debug, Clone)]
struct DagSpec {
    n: usize,
    rounds: Vec<Vec<(bool, bool, u8, u64)>>,
}

fn dag_spec() -> impl Strategy<Value = DagSpec> {
    (2usize..5)
        .prop_flat_map(|n| {
            let entry = (any::<bool>(), any::<bool>(), 0u8..4, 0u64..100);
            let round = proptest::collection::vec(entry, n..=n);
            (Just(n), proptest::collection::vec(round, 1..5))
        })
        .prop_map(|(n, rounds)| DagSpec { n, rounds })
}

fn requests_for(kind: u8, value: u64) -> Vec<LabeledRequest> {
    let label = Label::new(value % 3);
    let valid = LabeledRequest::encode(label, &value);
    let garbage = LabeledRequest {
        label,
        // Too short to decode as u64: the interpreter must count it as
        // malformed and never show it to P.
        payload: bytes::Bytes::from_static(&[0xde, 0xad]),
    };
    match kind {
        0 => vec![],
        1 => vec![valid],
        2 => vec![garbage],
        _ => vec![valid, garbage],
    }
}

/// Builds a block DAG from the spec. Every produced block references the
/// previous layer's blocks of *other* builders (both branches of an
/// equivocator — correct servers may see and reference both) plus its own
/// parent; an equivocating builder continues its chain from the first
/// branch only (Definition 3.3 (ii) forbids joining them).
fn build_dag(spec: &DagSpec) -> BlockDag {
    let registry = KeyRegistry::generate(spec.n, 5);
    let signers: Vec<_> = (0..spec.n)
        .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
        .collect();
    let mut dag = BlockDag::new();
    let mut seqs = vec![0u64; spec.n];
    let mut parents: Vec<Option<BlockRef>> = vec![None; spec.n];
    let mut last_layer: Vec<(usize, BlockRef)> = Vec::new();

    for round in &spec.rounds {
        let mut this_layer = Vec::new();
        for (server, (produce, equivocate, kind, value)) in round.iter().enumerate() {
            if !produce {
                continue;
            }
            let mut preds: Vec<BlockRef> = last_layer
                .iter()
                .filter(|(builder, _)| *builder != server)
                .map(|(_, r)| *r)
                .collect();
            if let Some(parent) = parents[server] {
                preds.push(parent);
            }
            let block = Block::build(
                ServerId::new(server as u32),
                SeqNum::new(seqs[server]),
                preds.clone(),
                requests_for(*kind, *value),
                &signers[server],
            );
            dag.insert(block.clone()).unwrap();
            this_layer.push((server, block.block_ref()));
            if *equivocate {
                // Same builder, same sequence number, same preds — but
                // different content: a *valid* equivocation (Example 3.5).
                let twin = Block::build(
                    ServerId::new(server as u32),
                    SeqNum::new(seqs[server]),
                    preds,
                    requests_for(1, value + 1000),
                    &signers[server],
                );
                dag.insert(twin.clone()).unwrap();
                this_layer.push((server, twin.block_ref()));
            }
            // The builder's own chain continues from the first branch.
            parents[server] = Some(block.block_ref());
            seqs[server] += 1;
        }
        if !this_layer.is_empty() {
            last_layer = this_layer;
        }
    }
    dag
}

/// Drives both interpreters over `dag` in the *same* (seed-shuffled)
/// eligible order and asserts observational equality block by block.
fn assert_equivalent(dag: &BlockDag, pick_seed: u64) {
    let n = dag.known_servers().count().max(1);
    let config = ProtocolConfig::for_n(n);
    let mut reference: ReferenceInterpreter<Relay> = ReferenceInterpreter::new(config);
    let mut cow: Interpreter<Relay> = Interpreter::new(config);
    let mut rng = rand::rngs::StdRng::seed_from_u64(pick_seed);

    loop {
        let mut eligible = reference.eligible(dag);
        if eligible.is_empty() {
            break;
        }
        eligible.shuffle(&mut rng);
        let pick = eligible[0];
        reference.interpret_block(dag, &pick).expect("eligible");
        cow.interpret_block(dag, &pick).expect("eligible");
    }

    // Same work counters and the same indication *sequence* (both were
    // driven in the same block order).
    assert_eq!(reference.stats(), cow.stats());
    assert_eq!(reference.drain_indications(), cow.drain_indications());
    assert_eq!(reference.interpreted_count(), dag.len());
    assert_eq!(cow.interpreted_count(), dag.len());

    for r in dag.refs() {
        let naive = reference.state(r).expect("interpreted");
        let shared = cow.state(r).expect("interpreted");

        let labels_naive: Vec<Label> = naive.instance_labels().copied().collect();
        let labels_shared: Vec<Label> = shared.instance_labels().copied().collect();
        assert_eq!(&labels_naive, &labels_shared, "instance labels at {}", r);

        for label in labels_naive {
            // Bit-identical instance state: Relay derives PartialEq over
            // its entire state.
            assert_eq!(
                naive.instance(label),
                shared.instance(label),
                "instance {} at {}",
                label,
                r
            );
        }
        for label in (0..3).map(Label::new) {
            let outs_naive: Vec<_> = naive.out_messages(label).collect();
            let outs_shared: Vec<_> = shared.out_messages(label).collect();
            assert_eq!(outs_naive, outs_shared, "out buffers {} at {}", label, r);
            // Line 7 oracle: the reference stores the in-buffer it built
            // over its `active` set; production derives it from the preds'
            // out-buffers. They must agree, and every label with a
            // non-empty derived inbox must be active in the reference.
            let ins_naive: BTreeSet<_> = naive.in_messages(label).cloned().collect();
            let ins_shared = cow.in_messages(dag, r, label);
            assert_eq!(ins_naive, ins_shared, "in buffers {} at {}", label, r);
            if !ins_shared.is_empty() {
                assert!(
                    naive.active_labels().any(|l| *l == label),
                    "label {} delivered at {} but not active in the reference",
                    label,
                    r
                );
            }
        }
    }

    // The sharing interpreter never stores more than the naive one would.
    let footprint = cow.footprint();
    assert!(footprint.unique_instances <= footprint.instances);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cow_interpreter_equals_reference_on_random_dags(
        spec in dag_spec(),
        pick_seed in 0u64..10_000,
    ) {
        let dag = build_dag(&spec);
        assert!(dag.check_invariants());
        assert_equivalent(&dag, pick_seed);
    }
}

/// A fixed, maximally hostile scenario kept as a plain test so it runs
/// even with `PROPTEST_CASES=0`: every server equivocates at round 0 with
/// garbage alongside valid requests.
#[test]
fn equivalence_under_full_equivocation() {
    let spec = DagSpec {
        n: 4,
        rounds: vec![
            vec![
                (true, true, 3, 1),
                (true, true, 3, 2),
                (true, true, 3, 3),
                (true, true, 3, 4),
            ],
            vec![
                (true, false, 0, 0),
                (true, false, 0, 0),
                (true, false, 0, 0),
                (true, false, 0, 0),
            ],
            vec![
                (true, false, 1, 50),
                (false, false, 0, 0),
                (true, false, 2, 60),
                (true, false, 0, 0),
            ],
        ],
    };
    let dag = build_dag(&spec);
    assert!(dag.check_invariants());
    assert_equivalent(&dag, 7);
}
