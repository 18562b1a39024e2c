//! Regenerates paper Table 4: memory estimation (RAM/flash in kB) and
//! holdout accuracy for the three tasks under TFLM-vs-EON × float-vs-int8.
//!
//! Models are trained briefly on the synthetic datasets so the accuracy
//! column is real; memory numbers come from the engine reports.

use ei_bench::{kb, quick_mode, Measurement, ResultsWriter, Task};
use ei_data::Split;
use ei_runtime::{EonProgram, InferenceEngine, Interpreter, ModelArtifact};
use ei_trace::json::Json;

fn engine_memory(artifact: &ModelArtifact, eon: bool) -> (usize, usize) {
    if eon {
        let engine = EonProgram::compile(artifact.clone()).expect("compiles");
        let m = engine.memory();
        (m.ram_total(), m.flash_total())
    } else {
        let engine = Interpreter::new(artifact.clone()).expect("builds");
        let m = engine.memory();
        (m.ram_total(), m.flash_total())
    }
}

fn main() {
    let quick = quick_mode();
    println!("Table 4. Memory estimation (kilobytes; accuracy % on the holdout set).");
    println!();
    println!(
        "{:<16} | {:>8} {:>9} {:>6} | {:>8} {:>9} {:>6} | {:>8} {:>9} {:>6}",
        "", "KWS RAM", "Flash", "Acc.", "VWW RAM", "Flash", "Acc.", "IC RAM", "Flash", "Acc."
    );

    // per task: train, quantize, evaluate both dtypes
    struct TaskResult {
        dsp_ram: usize,
        float_artifact: ModelArtifact,
        int8_artifact: ModelArtifact,
        float_acc: f32,
        int8_acc: f32,
    }
    let mut results = Vec::new();
    for task in Task::all() {
        let (per_class, epochs) = match (task, quick) {
            (_, true) => (6, 1),
            (Task::KeywordSpotting, _) => (24, 15),
            (Task::VisualWakeWords, _) => (40, 50),
            (Task::ImageClassification, _) => (12, 5),
        };
        eprintln!("training {} ({per_class}/class, {epochs} epochs)...", task.name());
        let trained = task.train(per_class, epochs, 42);
        let dataset = task.dataset(per_class, 42);
        let float_artifact = trained.float_artifact();
        let int8_artifact = trained.int8_artifact().expect("quantizes");
        let float_acc = trained
            .evaluate(&float_artifact, &dataset, Split::Testing)
            .map(|e| e.accuracy)
            .unwrap_or(f32::NAN);
        let int8_acc = trained
            .evaluate(&int8_artifact, &dataset, Split::Testing)
            .map(|e| e.accuracy)
            .unwrap_or(f32::NAN);
        results.push(TaskResult {
            dsp_ram: task.dsp_cost().scratch_bytes,
            float_artifact,
            int8_artifact,
            float_acc,
            int8_acc,
        });
    }

    // preprocessing row
    print!("{:<16}", "Preprocessing");
    for r in &results {
        print!(" | {:>8} {:>9} {:>6}", kb(r.dsp_ram), "-", "-");
    }
    println!();

    // four engine/dtype rows
    let rows: [(&str, bool, bool); 4] = [
        ("FP32 (TFLM)", false, false),
        ("FP32 (EON)", false, true),
        ("Int8 (TFLM)", true, false),
        ("Int8 (EON)", true, true),
    ];
    let mut json_rows = ResultsWriter::new("table4", Measurement::Model);
    for (label, int8, eon) in rows {
        print!("{label:<16}");
        for (task, r) in Task::all().iter().zip(&results) {
            let artifact = if int8 { &r.int8_artifact } else { &r.float_artifact };
            let acc = if int8 { r.int8_acc } else { r.float_acc };
            let (ram, flash) = engine_memory(artifact, eon);
            json_rows.push(
                json_rows
                    .stamp()
                    .field("task", Json::Str(task.name().to_string()))
                    .field("engine", Json::Str(if eon { "EON" } else { "TFLM" }.into()))
                    .field("dtype", Json::Str(if int8 { "int8" } else { "f32" }.into()))
                    .field("ram_bytes", Json::Uint(ram as u64))
                    .field("flash_bytes", Json::Uint(flash as u64))
                    .field("accuracy", Json::Float(f64::from(acc))),
            );
            print!(" | {:>8} {:>9} {:>5.1}%", kb(ram), kb(flash), acc * 100.0);
        }
        println!();
    }

    println!();
    println!("EON savings vs TFLM (same dtype):");
    for (task, r) in Task::all().iter().zip(&results) {
        for (dtype, artifact) in [("FP32", &r.float_artifact), ("Int8", &r.int8_artifact)] {
            let (tr, tf) = engine_memory(artifact, false);
            let (er, ef) = engine_memory(artifact, true);
            println!(
                "  {:<28} {dtype}: RAM -{:>2.0}%  flash -{:>2.0}%",
                task.name(),
                100.0 * (tr - er) as f64 / tr as f64,
                100.0 * (tf - ef) as f64 / tf as f64,
            );
        }
    }

    json_rows.write_and_report();
}
