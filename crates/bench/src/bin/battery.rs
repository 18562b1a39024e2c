//! Battery-life analysis (paper §2.1): how model accuracy becomes an
//! energy budget.
//!
//! For the int8 KWS pipeline on each board, prints (1) battery life on a
//! coin cell across duty cycles, and (2) the §2.1 claim quantified — false
//! accepts trigger radio transmissions, so a worse operating point on the
//! calibration curve directly shortens battery life.

use ei_bench::{Measurement, ResultsWriter, Task};
use ei_device::energy::energy_per_inference_mj;
use ei_device::{estimate_energy, Battery, Board, EnergyWorkload, Profiler};
use ei_runtime::EonProgram;
use ei_trace::json::Json;

fn main() {
    let mut results = ResultsWriter::new("battery", Measurement::Model);
    let (_, int8_a) = Task::KeywordSpotting.untrained_artifacts();
    let eon = EonProgram::compile(int8_a).expect("compiles");
    let dsp_cost = Task::KeywordSpotting.dsp_cost();

    println!("Battery analysis — int8 KWS pipeline, CR2032 coin cell (675 mWh)");
    println!();
    println!(
        "{:<24} {:>10} {:>14} {:>14} {:>14}",
        "Board", "total ms", "mJ/inference", "life @1 Hz", "life @1/min"
    );
    for board in Board::paper_boards() {
        let profile = Profiler::new(board.clone()).profile(Some(dsp_cost), &eon);
        if !profile.fit.fits {
            println!("{:<24} {:>10}", board.name, "-");
            continue;
        }
        let mj = energy_per_inference_mj(&board, profile.total_ms);
        let continuous = estimate_energy(
            &board,
            EnergyWorkload {
                total_ms: profile.total_ms,
                inferences_per_hour: 3_600.0,
                transmissions_per_hour: 1.0,
            },
            Battery::coin_cell(),
        );
        let duty_cycled = estimate_energy(
            &board,
            EnergyWorkload {
                total_ms: profile.total_ms,
                inferences_per_hour: 60.0,
                transmissions_per_hour: 1.0,
            },
            Battery::coin_cell(),
        );
        println!(
            "{:<24} {:>10.0} {:>14.2} {:>11.1} h {:>11.1} h",
            board.name,
            profile.total_ms,
            mj,
            continuous.battery_life_hours,
            duty_cycled.battery_life_hours,
        );
        results.push(
            results
                .stamp()
                .field("board", Json::Str(board.name.clone()))
                .field("total_ms", Json::Float(profile.total_ms))
                .field("mj_per_inference", Json::Float(mj))
                .field("life_1hz_hours", Json::Float(continuous.battery_life_hours))
                .field("life_1min_hours", Json::Float(duty_cycled.battery_life_hours)),
        );
    }

    println!();
    println!("Section 2.1 quantified — false accepts drain the battery (Nano 33, 1 Hz):");
    let nano = Board::nano33_ble_sense();
    let profile = Profiler::new(nano.clone()).profile(Some(dsp_cost), &eon);
    println!("{:>22} {:>12} {:>12}", "false accepts/hour", "life (h)", "radio share");
    for far_per_hour in [0.0, 5.0, 30.0, 120.0, 600.0] {
        let estimate = estimate_energy(
            &nano,
            EnergyWorkload {
                total_ms: profile.total_ms,
                inferences_per_hour: 3_600.0,
                transmissions_per_hour: 1.0 + far_per_hour,
            },
            Battery::coin_cell(),
        );
        println!(
            "{far_per_hour:>22} {:>12.1} {:>11.1}%",
            estimate.battery_life_hours,
            estimate.radio_share * 100.0
        );
        results.push(
            results
                .stamp()
                .field("board", Json::Str(nano.name.clone()))
                .field("false_accepts_per_hour", Json::Float(far_per_hour))
                .field("life_hours", Json::Float(estimate.battery_life_hours))
                .field("radio_share", Json::Float(estimate.radio_share)),
        );
    }
    println!();
    println!("Quantization as an energy optimization (Nano 33, per inference):");
    let (float_a, int8_a) = Task::KeywordSpotting.untrained_artifacts();
    let feon = EonProgram::compile(float_a).expect("compiles");
    let qeon = EonProgram::compile(int8_a).expect("compiles");
    let fp = Profiler::new(nano.clone()).profile(Some(dsp_cost), &feon);
    let qp = Profiler::new(nano.clone()).profile(Some(dsp_cost), &qeon);
    let f_mj = energy_per_inference_mj(&nano, fp.total_ms);
    let q_mj = energy_per_inference_mj(&nano, qp.total_ms);
    println!("  float32: {f_mj:.2} mJ   int8: {q_mj:.2} mJ   saving: {:.1}x", f_mj / q_mj);
    results.push(
        results
            .stamp()
            .field("board", Json::Str(nano.name.clone()))
            .field("float_mj", Json::Float(f_mj))
            .field("int8_mj", Json::Float(q_mj))
            .field("quant_energy_saving", Json::Float(f_mj / q_mj)),
    );
    results.write_and_report();
}
