//! Experiment E8: off-line interpretation throughput and state sharing.
//!
//! Interprets pre-built DAGs (no network, no IO) and reports wall-clock
//! throughput — blocks/s and materialized messages/s — quantifying the
//! paper's claim that interpretation is decoupled, memory-speed work.
//! Also reports the copy-on-write interpreter's footprint (total vs
//! unique instances: the structural-sharing win over the clone-per-block
//! transcription of Algorithm 2) and the naive reference interpreter's
//! wall-clock on the same DAG for comparison.
//!
//! The final stdout line is a single machine-readable JSON object with
//! every row (`BENCH_interpret.json` is a checked-in snapshot of it from
//! a fixed-seed run). `--check` re-runs the experiment and validates the
//! trajectory: schema identity against the committed snapshot, non-zero
//! counters, visible copy-on-write sharing on every row, and a ≥2×
//! CoW-over-naive wall-clock floor on the largest DAG (the measured gap
//! is two orders of magnitude; the floor only guards against the sharing
//! path silently degrading to clone-per-block).
//!
//! Run with: `cargo run --release -p dagbft-bench --bin report_interpret`

use std::time::Instant;

use dagbft_bench::{build_offline_dag, check_snapshot_schema, cores, f2};
use dagbft_core::{Interpreter, InterpreterFootprint, ReferenceInterpreter};
use dagbft_protocols::Brb;

struct Row {
    blocks: usize,
    labels: usize,
    seconds: f64,
    naive_seconds: f64,
    messages_materialized: u64,
    footprint: InterpreterFootprint,
}

impl Row {
    fn blocks_per_sec(&self) -> f64 {
        self.blocks as f64 / self.seconds
    }

    fn json(&self) -> String {
        format!(
            "{{\"blocks\":{},\"labels\":{},\"seconds\":{:.6},\"blocks_per_sec\":{:.2},\
             \"naive_seconds\":{:.6},\"messages_materialized\":{},\"instances_total\":{},\
             \"instances_unique\":{},\"sharing_ratio\":{:.2},\"out_envelopes\":{}}}",
            self.blocks,
            self.labels,
            self.seconds,
            self.blocks_per_sec(),
            self.naive_seconds,
            self.messages_materialized,
            self.footprint.instances,
            self.footprint.unique_instances,
            self.footprint.sharing_ratio(),
            self.footprint.out_envelopes,
        )
    }
}

fn measure(rounds: u64, labels: usize) -> Row {
    let (dag, config) = build_offline_dag(4, rounds, labels);
    // Warm-up + measured run of the copy-on-write interpreter.
    let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(config);
    interpreter.step(&dag);
    drop(interpreter);

    let start = Instant::now();
    let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(config);
    let interpreted = interpreter.step(&dag);
    let seconds = start.elapsed().as_secs_f64();

    // The clone-per-block reference on the identical DAG, with the same
    // warm-up so the comparison is symmetric.
    let mut naive: ReferenceInterpreter<Brb<u64>> = ReferenceInterpreter::new(config);
    naive.step(&dag);
    drop(naive);

    let start_naive = Instant::now();
    let mut naive: ReferenceInterpreter<Brb<u64>> = ReferenceInterpreter::new(config);
    naive.step(&dag);
    let naive_seconds = start_naive.elapsed().as_secs_f64();

    let stats = *interpreter.stats();
    assert_eq!(
        stats.messages_materialized,
        naive.stats().messages_materialized
    );
    Row {
        blocks: interpreted,
        labels,
        seconds,
        naive_seconds,
        messages_materialized: stats.messages_materialized,
        footprint: interpreter.footprint(),
    }
}

fn check(rows: &[Row], json: &str) -> Result<(), String> {
    for row in rows {
        if row.seconds <= 0.0 || row.naive_seconds <= 0.0 {
            return Err(format!("{} blocks: zero wall-clock", row.blocks));
        }
        if row.messages_materialized == 0 {
            return Err(format!("{} blocks: no messages materialized", row.blocks));
        }
        if row.footprint.unique_instances >= row.footprint.instances {
            return Err(format!(
                "{} blocks: no structural sharing ({} unique of {})",
                row.blocks, row.footprint.unique_instances, row.footprint.instances
            ));
        }
    }
    let largest = rows.iter().max_by_key(|r| r.blocks).expect("rows exist");
    let speedup = largest.naive_seconds / largest.seconds;
    if speedup < 2.0 {
        return Err(format!(
            "{} blocks: CoW speedup {speedup:.2} below the 2x floor",
            largest.blocks
        ));
    }
    check_snapshot_schema("BENCH_interpret.json", json)
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");

    println!("# E8 — off-line interpretation throughput + CoW sharing (BRB, n = 4)\n");
    println!(
        "| {:>7} | {:>6} | {:>9} | {:>10} | {:>10} | {:>10} | {:>9} | {:>9} | {:>7} |",
        "blocks",
        "labels",
        "time (ms)",
        "naive (ms)",
        "blocks/s",
        "msgs matzd",
        "inst tot",
        "inst uniq",
        "share"
    );
    println!("|{}|", "-".repeat(100));

    let mut rows = Vec::new();
    for (rounds, labels) in [
        (64u64, 1usize),
        (64, 10),
        (64, 100),
        (256, 1),
        (256, 10),
        (1024, 1),
        (2048, 1),
    ] {
        let row = measure(rounds, labels);
        println!(
            "| {:>7} | {:>6} | {:>9} | {:>10} | {:>10} | {:>10} | {:>9} | {:>9} | {:>6}x |",
            row.blocks,
            row.labels,
            f2(row.seconds * 1000.0),
            f2(row.naive_seconds * 1000.0),
            f2(row.blocks_per_sec()),
            row.messages_materialized,
            row.footprint.instances,
            row.footprint.unique_instances,
            f2(row.footprint.sharing_ratio()),
        );
        rows.push(row);
    }
    println!(
        "\nReading: interpretation runs at memory speed with zero network cost,\n\
         so a server can re-derive every instance's full execution from a cold\n\
         copy of the DAG — the paper's off-line interpretation claim (§1, §7).\n\
         `inst uniq` ≪ `inst tot`: copy-on-write shares untouched instance\n\
         state along parent edges, so resident memory tracks *activity*, not\n\
         chain length (the naive column clones the full map per block).\n"
    );

    // Machine-readable trajectory line (snapshot: BENCH_interpret.json).
    let json_rows: Vec<String> = rows.iter().map(Row::json).collect();
    let json = format!(
        "{{\"experiment\":\"interpret_offline\",\"protocol\":\"brb\",\"n\":4,\"cores\":{},\"rows\":[{}]}}",
        cores(),
        json_rows.join(",")
    );
    println!("{json}");

    if check_mode {
        match check(&rows, &json) {
            Ok(()) => println!("CHECK OK"),
            Err(reason) => {
                eprintln!("CHECK FAILED: {reason}");
                std::process::exit(1);
            }
        }
    }
}
