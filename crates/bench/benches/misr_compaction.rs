//! MISR signature-compaction benchmarks.
//!
//! Three costs matter to the BIST workload: folding good responses into
//! session signatures (pure MISR throughput), building a whole per-fault
//! [`SignatureDictionary`] (one fault-simulation pass plus error-stream
//! folding), and the serial-versus-pooled ratio of that build.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lsiq_bist::misr::Misr;
use lsiq_bist::signature::{BistPlan, SignatureDictionary};
use lsiq_bist::stumps::{StumpsConfig, StumpsGenerator};
use lsiq_exec::{ExecutionContext, LaneWidth};
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::circuit::Circuit;
use lsiq_netlist::generator::{random_circuit, RandomCircuitConfig};
use lsiq_netlist::library;
use lsiq_sim::cache::GoodMachineCache;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::PackedBlock;
use lsiq_sim::pattern::PatternSet;

/// The dictionaries of every width in `widths` at the full pattern length.
fn full_length(
    context: &ExecutionContext,
    circuit: &Circuit,
    universe: &FaultUniverse,
    patterns: &PatternSet,
    session_len: usize,
    widths: &[u32],
) -> Vec<Vec<SignatureDictionary>> {
    SignatureDictionary::build_sweep_cached(
        context,
        circuit,
        universe,
        patterns,
        session_len,
        widths,
        &[patterns.len()],
        LaneWidth::Auto,
        None,
    )
}

/// Fault-free output chunks of every chunk of `patterns`, pre-packed so the
/// fold benchmarks measure MISR throughput, not simulation.
fn packed_chunks<const L: usize>(
    circuit: &Circuit,
    patterns: &PatternSet,
) -> Vec<(Vec<PackedBlock<L>>, usize)> {
    let compiled = CompiledCircuit::new(circuit);
    let input_count = circuit.primary_inputs().len();
    (0..patterns.chunk_count(L))
        .map(|chunk| {
            let (words, count) = patterns.pack_chunk::<L>(input_count, chunk);
            (compiled.output_chunks(&words), count)
        })
        .collect()
}

fn bench_misr_compaction(c: &mut Criterion) {
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns: PatternSet = StumpsGenerator::new(&StumpsConfig::with_width(
        circuit.primary_inputs().len(),
        1981,
    ))
    .generate(256);
    let plan = BistPlan {
        session_len: 64,
        signature_width: 16,
    };

    // Pre-pack the good responses once: the fold benchmark measures MISR
    // throughput, not simulation.
    let compiled = CompiledCircuit::new(&circuit);
    let input_count = circuit.primary_inputs().len();
    let blocks: Vec<(Vec<u64>, usize)> = (0..patterns.block_count())
        .map(|block| {
            let (words, count) = patterns.pack_block(input_count, block);
            (compiled.output_words(&words), count)
        })
        .collect();

    let mut group = c.benchmark_group("misr_compaction");
    group.bench_function("fold_256_patterns/k16", |b| {
        b.iter(|| {
            let mut misr = Misr::new(16);
            for (words, count) in &blocks {
                misr.fold_block(black_box(words), *count);
            }
            black_box(misr.signature())
        })
    });

    group.bench_function("signature_dictionary/alu4/1_worker", |b| {
        let context = ExecutionContext::new(1);
        b.iter(|| {
            black_box(full_length(
                &context,
                &circuit,
                &universe,
                &patterns,
                plan.session_len,
                &[plan.signature_width],
            ))
        })
    });

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pooled = ExecutionContext::new(workers);
    group.bench_function(
        format!("signature_dictionary/alu4/{workers}_workers"),
        |b| {
            b.iter(|| {
                black_box(full_length(
                    &pooled,
                    &circuit,
                    &universe,
                    &patterns,
                    plan.session_len,
                    &[plan.signature_width],
                ))
            })
        },
    );

    // The single-pass multi-width build versus three independent builds.
    group.bench_function("build_many/k4_8_16_one_pass", |b| {
        b.iter(|| {
            black_box(full_length(
                &pooled,
                &circuit,
                &universe,
                &patterns,
                plan.session_len,
                &[4, 8, 16],
            ))
        })
    });

    // Lane-width scaling: a 1024-pattern fold and dictionary build at 1, 4
    // and 8 lanes (byte-identical signatures — pure throughput), and the
    // widest lane replaying the good machine from a warm cache.  The sweep
    // runs on a 600-gate device: signature building is one fault-simulation
    // pass plus error-stream folding, and the simulation share — where wide
    // chunks autovectorize — needs a real circuit to dominate the per-slot
    // register stepping (which is inherently pattern-serial).
    let wide_circuit = random_circuit(&RandomCircuitConfig {
        inputs: 24,
        gates: 600,
        seed: 8,
        ..RandomCircuitConfig::default()
    });
    let wide_universe = FaultUniverse::full(&wide_circuit);
    let long: PatternSet = StumpsGenerator::new(&StumpsConfig::with_width(
        wide_circuit.primary_inputs().len(),
        1981,
    ))
    .generate(1024);
    let chunks_x1 = packed_chunks::<1>(&wide_circuit, &long);
    let chunks_x4 = packed_chunks::<4>(&wide_circuit, &long);
    let chunks_x8 = packed_chunks::<8>(&wide_circuit, &long);
    group.bench_function("fold_1024_patterns/k16/lanes_1", |b| {
        b.iter(|| {
            let mut misr = Misr::new(16);
            for (chunks, count) in &chunks_x1 {
                misr.fold_chunk(black_box(chunks), *count);
            }
            black_box(misr.signature())
        })
    });
    group.bench_function("fold_1024_patterns/k16/lanes_4", |b| {
        b.iter(|| {
            let mut misr = Misr::new(16);
            for (chunks, count) in &chunks_x4 {
                misr.fold_chunk(black_box(chunks), *count);
            }
            black_box(misr.signature())
        })
    });
    group.bench_function("fold_1024_patterns/k16/lanes_8", |b| {
        b.iter(|| {
            let mut misr = Misr::new(16);
            for (chunks, count) in &chunks_x8 {
                misr.fold_chunk(black_box(chunks), *count);
            }
            black_box(misr.signature())
        })
    });
    for lanes in LaneWidth::EXPLICIT {
        group.bench_function(format!("sweep_1024_patterns/k16/lanes_{lanes}"), |b| {
            b.iter(|| {
                black_box(SignatureDictionary::build_sweep_cached(
                    &pooled,
                    &wide_circuit,
                    &wide_universe,
                    &long,
                    plan.session_len,
                    &[plan.signature_width],
                    &[long.len()],
                    lanes,
                    None,
                ))
            })
        });
    }
    let cache = GoodMachineCache::new();
    group.bench_function("sweep_1024_patterns/k16/lanes_8_cached", |b| {
        b.iter(|| {
            black_box(SignatureDictionary::build_sweep_cached(
                &pooled,
                &wide_circuit,
                &wide_universe,
                &long,
                plan.session_len,
                &[plan.signature_width],
                &[long.len()],
                LaneWidth::X8,
                Some(&cache),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_misr_compaction);
criterion_main!(benches);
