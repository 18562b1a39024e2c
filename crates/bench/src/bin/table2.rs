//! Regenerates paper Table 2: end-to-end preprocessing + inference times
//! (ms) for KWS/VWW/IC as float32 and int8 across the three boards, with
//! `-` where the model does not fit the board.
//!
//! Also prints the §5.2 ratio analysis: preprocessing share of the
//! end-to-end budget before and after quantization.

use ei_bench::{ms, Measurement, ResultsWriter, Task};
use ei_device::{Board, Profiler};
use ei_runtime::{EonProgram, ModelArtifact};
use ei_trace::json::Json;

struct Cell {
    dsp_ms: f64,
    inference_ms: f64,
    total_ms: f64,
    fits: bool,
}

fn profile(task: Task, artifact: &ModelArtifact, board: &Board) -> Cell {
    let engine = EonProgram::compile(artifact.clone()).expect("artifact compiles");
    let profiler = Profiler::new(board.clone());
    let report = profiler.profile(Some(task.dsp_cost()), &engine);
    Cell {
        dsp_ms: report.dsp_ms,
        inference_ms: report.inference_ms,
        total_ms: report.total_ms,
        fits: report.fit.fits,
    }
}

fn cell_str(value: f64, fits: bool) -> String {
    if fits {
        ms(value)
    } else {
        "-".to_string()
    }
}

fn main() {
    let mut results = ResultsWriter::new("table2", Measurement::Model);
    let boards = Board::paper_boards();
    println!("Table 2. Preprocessing and inference times (in milliseconds).");
    println!("'-' indicates the model did not fit due to flash or RAM constraints.");
    println!();
    print!("{:<16}", "");
    for board in &boards {
        print!(" | {:>10} {:>10}", format!("{} F32", short(&board.name)), "Int8");
    }
    println!();

    let mut ratio_notes = Vec::new();
    for task in Task::all() {
        println!("{} inference times", task.name());
        let (float_a, int8_a) = task.untrained_artifacts();
        let mut rows =
            vec![("Preprocessing", Vec::new()), ("Inference", Vec::new()), ("Total", Vec::new())];
        for board in &boards {
            for artifact in [&float_a, &int8_a] {
                let cell = profile(task, artifact, board);
                results.push(
                    results
                        .stamp()
                        .field("task", Json::Str(task.name().to_string()))
                        .field("board", Json::Str(board.name.clone()))
                        .field(
                            "dtype",
                            Json::Str(if artifact.is_quantized() { "int8" } else { "f32" }.into()),
                        )
                        .field("fits", Json::Bool(cell.fits))
                        .field("dsp_ms", Json::Float(cell.dsp_ms))
                        .field("inference_ms", Json::Float(cell.inference_ms))
                        .field("total_ms", Json::Float(cell.total_ms)),
                );
                rows[0].1.push(cell_str(cell.dsp_ms, cell.fits));
                rows[1].1.push(cell_str(cell.inference_ms, cell.fits));
                rows[2].1.push(cell_str(cell.total_ms, cell.fits));
                if cell.fits && artifact.is_quantized() && task == Task::KeywordSpotting {
                    ratio_notes.push(format!(
                        "  {}: preprocessing is {:.0}% of the int8 end-to-end time",
                        board.name,
                        100.0 * cell.dsp_ms / cell.total_ms
                    ));
                }
            }
        }
        for (label, cells) in rows {
            print!("{label:<16}");
            for cell in cells {
                print!(" | {cell:>10}");
            }
            println!();
        }
        println!();
    }

    println!("Section 5.2 analysis — preprocessing can rival optimized inference:");
    for note in ratio_notes {
        println!("{note}");
    }
    println!();
    println!("Quantization speedup (float total / int8 total), KWS:");
    let (float_a, int8_a) = Task::KeywordSpotting.untrained_artifacts();
    for board in &boards {
        let f = profile(Task::KeywordSpotting, &float_a, board);
        let q = profile(Task::KeywordSpotting, &int8_a, board);
        if f.fits && q.fits {
            println!("  {:<24} {:.1}x", board.name, f.total_ms / q.total_ms);
        }
    }

    results.write_and_report();
}

fn short(name: &str) -> String {
    name.split_whitespace().next().unwrap_or(name).to_string()
}
