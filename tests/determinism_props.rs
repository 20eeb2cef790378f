//! Property tests for the paper's determinism lemmas.
//!
//! * Lemma 2.2 — properties of restrictive insertion, on random graphs;
//! * Lemma 4.2 — interpretation is independent of the interpreting server
//!   and of the order eligible blocks are picked, on random DAGs;
//! * replica convergence — random workloads over the simulator produce
//!   identical delivered sets at all correct servers.

use dagbft::dag::digraph::DiGraph;
use dagbft::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Lemma 2.2 on the generic digraph of §2.
// ---------------------------------------------------------------------

/// Builds a digraph from a spec: vertex i gets edges from a subset of
/// 0..i (always fresh inserts, like the block DAG).
fn graph_from_spec(spec: &[Vec<usize>]) -> DiGraph<usize> {
    let mut graph = DiGraph::new();
    for (v, sources) in spec.iter().enumerate() {
        graph.insert(v, sources.iter().copied().filter(|s| *s < v));
    }
    graph
}

fn graph_spec() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..16, 0..6), 1..16)
}

proptest! {
    #[test]
    fn lemma_2_2_3_fresh_inserts_stay_acyclic(spec in graph_spec()) {
        let graph = graph_from_spec(&spec);
        prop_assert!(graph.is_acyclic());
    }

    #[test]
    fn lemma_2_2_1_reinsert_idempotent(spec in graph_spec()) {
        let graph = graph_from_spec(&spec);
        let mut again = graph.clone();
        for (v, sources) in spec.iter().enumerate() {
            again.insert(v, sources.iter().copied().filter(|s| *s < v));
        }
        prop_assert_eq!(graph, again);
    }

    #[test]
    fn lemma_2_2_2_prefix_is_subgraph(spec in graph_spec(), cut in 0usize..16) {
        let cut = cut.min(spec.len());
        let prefix = graph_from_spec(&spec[..cut]);
        let full = graph_from_spec(&spec);
        prop_assert!(prefix.le(&full));
    }

    #[test]
    fn union_is_upper_bound(spec_a in graph_spec(), spec_b in graph_spec()) {
        // For graphs built by fresh insertion over the same vertex
        // universe (content-addressed semantics), the union bounds both.
        // Note: `le` requires edge-completeness, which holds here because
        // a vertex's edges are a function of its spec entry — mirroring
        // blocks, whose edges are functions of their content. We emulate
        // by using identical specs for shared vertices.
        let shared = spec_a.len().min(spec_b.len());
        let mut spec_b = spec_b;
        spec_b[..shared].clone_from_slice(&spec_a[..shared]);
        let a = graph_from_spec(&spec_a);
        let b = graph_from_spec(&spec_b);
        let union = a.union(&b);
        prop_assert!(a.le(&union));
        prop_assert!(b.le(&union));
    }
}

// ---------------------------------------------------------------------
// Lemma 4.2 on random block DAGs.
// ---------------------------------------------------------------------

/// A random-DAG spec: per round and server, whether the server produces a
/// block, and whether it carries a request.
#[derive(Debug, Clone)]
struct DagSpec {
    n: usize,
    rounds: Vec<Vec<(bool, Option<u64>)>>,
}

fn dag_spec() -> impl Strategy<Value = DagSpec> {
    (2usize..5)
        .prop_flat_map(|n| {
            let round =
                proptest::collection::vec((any::<bool>(), proptest::option::of(0u64..100)), n..=n);
            (Just(n), proptest::collection::vec(round, 1..5))
        })
        .prop_map(|(n, rounds)| DagSpec { n, rounds })
}

/// Builds a block DAG where every produced block references all blocks of
/// the previous produced layer (and its own parent chain).
fn build_dag(spec: &DagSpec) -> BlockDag {
    let registry = KeyRegistry::generate(spec.n, 3);
    let signers: Vec<_> = (0..spec.n)
        .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
        .collect();
    let mut dag = BlockDag::new();
    let mut seqs = vec![0u64; spec.n];
    let mut parents: Vec<Option<BlockRef>> = vec![None; spec.n];
    let mut last_layer: Vec<BlockRef> = Vec::new();

    for round in &spec.rounds {
        let mut this_layer = Vec::new();
        for (server, (produce, request)) in round.iter().enumerate() {
            if !produce {
                continue;
            }
            let mut preds: Vec<BlockRef> = last_layer.clone();
            if let Some(parent) = parents[server] {
                if !preds.contains(&parent) {
                    preds.push(parent);
                }
            }
            let requests = request
                .map(|v| {
                    vec![LabeledRequest::encode(
                        Label::new(v % 3),
                        &BrbRequest::Broadcast(v),
                    )]
                })
                .unwrap_or_default();
            let block = Block::build(
                ServerId::new(server as u32),
                SeqNum::new(seqs[server]),
                preds,
                requests,
                &signers[server],
            );
            seqs[server] += 1;
            parents[server] = Some(block.block_ref());
            dag.insert(block.clone()).unwrap();
            this_layer.push(block.block_ref());
        }
        if !this_layer.is_empty() {
            last_layer = this_layer;
        }
    }
    dag
}

/// Interprets `dag`, picking eligible blocks with a seeded shuffle, and
/// returns a canonical fingerprint of all buffers.
fn interpret_fingerprint(dag: &BlockDag, pick_seed: u64) -> Vec<String> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(pick_seed);
    let mut interpreter: Interpreter<Brb<u64>> =
        Interpreter::new(ProtocolConfig::for_n(dag.known_servers().count().max(1)));
    loop {
        let mut eligible = interpreter.eligible(dag);
        if eligible.is_empty() {
            break;
        }
        eligible.shuffle(&mut rng);
        interpreter
            .interpret_block(dag, &eligible[0])
            .expect("eligible");
    }
    let mut fingerprint = Vec::new();
    let mut refs: Vec<BlockRef> = dag.refs().copied().collect();
    refs.sort();
    for r in refs {
        let state = interpreter.state(&r).expect("interpreted");
        for label in 0..3u64 {
            let label = Label::new(label);
            let outs: Vec<String> = state
                .out_messages(label)
                .map(|e| format!("{e:?}"))
                .collect();
            let ins: Vec<String> = interpreter
                .in_messages(dag, &r, label)
                .iter()
                .map(|e| format!("{e:?}"))
                .collect();
            fingerprint.push(format!("{r}/{label}: out={outs:?} in={ins:?}"));
        }
    }
    fingerprint
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lemma_4_2_interpretation_order_irrelevant(spec in dag_spec(), seed_a in 0u64..1000, seed_b in 0u64..1000) {
        let dag = build_dag(&spec);
        prop_assert_eq!(
            interpret_fingerprint(&dag, seed_a),
            interpret_fingerprint(&dag, seed_b)
        );
    }

    #[test]
    fn dag_invariants_hold_for_random_specs(spec in dag_spec()) {
        let dag = build_dag(&spec);
        prop_assert!(dag.check_invariants());
    }
}

// ---------------------------------------------------------------------
// Replica convergence over the full simulator.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn replicas_deliver_identical_sets(
        seed in 0u64..500,
        values in proptest::collection::vec(0u64..1000, 1..6),
        drop_pct in 0usize..30,
    ) {
        let n = 4;
        let expected = values.len() * n;
        let config = SimConfig::new(n)
            .with_seed(seed)
            .with_max_time(120_000)
            .with_network(NetworkModel::default().with_drop_rate(drop_pct as f64 / 100.0))
            .with_stop_after_deliveries(expected);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        for (i, value) in values.iter().enumerate() {
            sim.inject(Injection {
                at: (i as u64) * 13,
                server: i % n,
                label: Label::new(i as u64),
                request: BrbRequest::Broadcast(*value),
            });
        }
        let outcome = sim.run();
        prop_assert_eq!(outcome.deliveries.len(), expected, "all delivered");
        // Per label: all servers delivered the same value.
        for (i, value) in values.iter().enumerate() {
            let per_label = outcome.deliveries_for(Label::new(i as u64));
            prop_assert_eq!(per_label.len(), n);
            for delivery in per_label {
                prop_assert_eq!(&delivery.indication, &BrbIndication::Deliver(*value));
            }
        }
    }
}
