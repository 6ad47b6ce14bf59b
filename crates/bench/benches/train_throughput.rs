//! Training-step shoot-out: the batched level-synchronous GNN trainer (what
//! ships) vs the node-at-a-time reference kept as its oracle
//! (`GnnExecMode::NodeAtATime`), over a real featurized corpus.
//!
//! For every mini-batch size both modes run the identical step sequence
//! (same graphs, same order, same seeds); the bench asserts per-step losses
//! and final parameters are **bit-identical**, then reports training-step
//! throughput (graphs/s). The machine-readable record (overwriting any
//! previous one) goes to `BENCH_train.json` at the repo root.
//!
//! Corpus-shape knobs apply as everywhere (`GRACEFUL_SCALE`,
//! `GRACEFUL_QUERIES_PER_DB`, `GRACEFUL_HIDDEN`, `GRACEFUL_SEED`);
//! featurization threads follow `GRACEFUL_THREADS` via `Pool::from_env`.
//! The step counts themselves are fixed (`PASSES` passes over the corpus
//! per mode × batch size) so the two modes always time identical work.

use graceful_bench::announce;
use graceful_core::corpus::{build_corpus, DatasetCorpus};
use graceful_core::featurize::Featurizer;
use graceful_core::model::{GracefulModel, TrainOptions};
use graceful_nn::{GnnExecMode, TypedGraph};
use graceful_runtime::Pool;
use std::time::Instant;

const DATASETS: [&str; 2] = ["tpc_h", "imdb"];
const BATCH_SIZES: [usize; 3] = [1, 8, 32];
const PASSES: usize = 3;

struct ModeRun {
    seconds: f64,
    steps: usize,
    graphs: usize,
    losses: Vec<f32>,
    checksum: u64,
}

fn run_mode(
    samples: &[(TypedGraph, f64)],
    cfg: &graceful_common::config::ScaleConfig,
    exec: GnnExecMode,
    batch: usize,
) -> ModeRun {
    let mut model = GracefulModel::new(Featurizer::full(), cfg.hidden, cfg.seed)
        .expect("valid GNN architecture");
    // Pure defaults for the optimizer/loss knobs; the trainer (engine or its
    // reference, through the oracle selector) and the batch size are this
    // bench's own axes.
    let tcfg = TrainOptions::new().seed(cfg.seed).exec(exec).build().expect("valid options");
    // Train over fixed-order mini-batches via the public per-step API so
    // both modes see the identical step sequence.
    let gnn = model.gnn_mut();
    let targets: Vec<f64> = samples.iter().map(|(_, t)| *t).collect();
    gnn.fit_target_norm(&targets).expect("non-empty corpus");
    let mut losses = Vec::new();
    let mut steps = 0usize;
    let mut graphs = 0usize;
    let started = Instant::now();
    for _ in 0..PASSES {
        for chunk in samples.chunks(batch) {
            let gs: Vec<&TypedGraph> = chunk.iter().map(|(g, _)| g).collect();
            let ts: Vec<f64> = chunk.iter().map(|(_, t)| *t).collect();
            let loss = gnn
                .train_batch_in(tcfg.exec, &gs, &ts, &tcfg.adam, tcfg.huber_delta)
                .expect("training step succeeds");
            losses.push(loss);
            steps += 1;
            graphs += gs.len();
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    ModeRun { seconds, steps, graphs, losses, checksum: model.param_checksum() }
}

fn main() {
    let cfg = announce("train_throughput: batched vs node-at-a-time GNN trainer");
    let corpora: Vec<DatasetCorpus> = DATASETS
        .iter()
        .enumerate()
        .map(|(i, name)| build_corpus(name, &cfg, cfg.seed + i as u64).expect("corpus builds"))
        .collect();
    let refs: Vec<&DatasetCorpus> = corpora.iter().collect();
    let probe = GracefulModel::new(Featurizer::full(), cfg.hidden, cfg.seed)
        .expect("valid GNN architecture");
    let pool = Pool::from_env().unwrap_or_else(|e| {
        eprintln!("train_throughput: {e}");
        std::process::exit(2)
    });
    let samples = probe.featurize_corpora(&pool, &refs).expect("featurization succeeds");
    let total_nodes: usize = samples.iter().map(|(g, _)| g.len()).sum();
    println!(
        "corpus: {} graphs / {} nodes over {} databases, hidden {}\n",
        samples.len(),
        total_nodes,
        corpora.len(),
        cfg.hidden
    );

    let mut json_rows = Vec::new();
    for batch in BATCH_SIZES {
        let reference = run_mode(&samples, &cfg, GnnExecMode::NodeAtATime, batch);
        let batched = run_mode(&samples, &cfg, GnnExecMode::Batched, batch);
        assert_eq!(reference.losses.len(), batched.losses.len());
        for (i, (a, b)) in reference.losses.iter().zip(&batched.losses).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "loss diverged at step {i} (batch {batch})");
        }
        assert_eq!(reference.checksum, batched.checksum, "parameters diverged (batch {batch})");
        let speedup = reference.seconds / batched.seconds.max(1e-9);
        println!(
            "batch {batch:>3}: reference {:>8.1} graphs/s vs batched {:>8.1} graphs/s \
             ({speedup:.2}x, {} steps bit-identical)",
            reference.graphs as f64 / reference.seconds.max(1e-9),
            batched.graphs as f64 / batched.seconds.max(1e-9),
            reference.steps,
        );
        for (mode, r) in [("node-at-a-time", &reference), ("batched", &batched)] {
            json_rows.push(format!(
                "{{\"mode\":\"{mode}\",\"batch_size\":{batch},\"seconds\":{:.4},\
                 \"steps\":{},\"graphs\":{},\"graphs_per_s\":{:.2},\"steps_per_s\":{:.2}}}",
                r.seconds,
                r.steps,
                r.graphs,
                r.graphs as f64 / r.seconds.max(1e-9),
                r.steps as f64 / r.seconds.max(1e-9),
            ));
        }
    }

    let json = format!(
        "{{\"bench\":\"train_throughput\",\"seed\":{},\"data_scale\":{},\
         \"queries_per_db\":{},\"hidden\":{},\"n_graphs\":{},\"results\":[{}]}}\n",
        cfg.seed,
        cfg.data_scale,
        cfg.queries_per_db,
        cfg.hidden,
        samples.len(),
        json_rows.join(",")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
