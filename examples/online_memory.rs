//! A sustained on-line QEC run: the scenario the paper's introduction
//! motivates — a logical qubit held alive while its decoder keeps up with
//! the 1 µs measurement cadence inside the fridge.
//!
//! Runs 100 noisy measurement rounds on a distance-9 patch with the
//! on-line decoder at three clock frequencies, tracking the register
//! backlog. At 500 MHz the decoder falls behind and overflows; at 2 GHz
//! it keeps the backlog bounded.
//!
//! ```text
//! cargo run --release --example online_memory
//! ```

use qecool_repro::decoder::{DecodeOutput, DecodeStats, Decoder, QecoolConfig, QecoolDecoder};
use qecool_repro::sfq::power::{
    cycles_per_measurement, ersfq_power_w, FIG7_FREQUENCIES_HZ, MEASUREMENT_INTERVAL_S,
};
use qecool_repro::surface_code::{CodePatch, Lattice, NoiseSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const D: usize = 9;
const ROUNDS: usize = 100;
const P: f64 = 0.008;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("d = {D}, p = {P}, {ROUNDS} measurement rounds at 1 us cadence\n");
    for &freq in &FIG7_FREQUENCIES_HZ {
        let budget = cycles_per_measurement(freq, MEASUREMENT_INTERVAL_S);
        let power_uw = ersfq_power_w(336.0, freq) * 1e6;
        print!(
            "{:>8.0} MHz ({budget:>4} cycles/layer, {power_uw:.2} uW/Unit): ",
            freq / 1e6
        );

        let lattice = Lattice::new(D)?;
        let noise = NoiseSpec::Phenomenological { p: P };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut patch = CodePatch::new(lattice.clone());
        let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::online());
        let mut out = DecodeOutput::default();

        let mut max_backlog = 0;
        let mut corrections = 0usize;
        let mut overflowed = false;
        for _ in 0..ROUNDS {
            let round = patch.noisy_round(&noise, &mut rng);
            if decoder.ingest(&round).is_err() {
                overflowed = true;
                break;
            }
            max_backlog = max_backlog.max(decoder.occupancy());
            decoder.decode_step(Some(budget), &mut out);
            corrections += out.corrections.len();
            patch.apply_corrections(out.corrections.iter().copied());
        }

        if overflowed {
            println!(
                "REGISTER OVERFLOW after {} rounds (backlog hit the 7-bit Reg limit)",
                decoder.rounds_pushed()
            );
            continue;
        }
        // Close out the experiment.
        decoder.ingest(&patch.perfect_round())?;
        decoder.finish(&mut out);
        corrections += out.corrections.len();
        patch.apply_corrections(out.corrections.iter().copied());
        let mut stats = DecodeStats::default();
        decoder.stats_into(&mut stats);
        let s = stats.layer_cycles;
        println!(
            "ok — max backlog {max_backlog}/7 layers, {corrections} corrections, \
             per-layer cycles max {} avg {:.1}, logical error: {}",
            s.max,
            s.mean(),
            patch.has_logical_error()
        );
    }
    println!(
        "\nThe 4-K stage affords ~1 W: at 2 GHz one Unit draws 2.78 uW, so a d=9 decoder \
         (144 Units) protects ~2498 logical qubits — the paper's Table V punchline."
    );
    Ok(())
}
