//! Quickstart: decode a corrupted distance-5 surface-code patch with the
//! QECOOL spike-based decoder.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qecool_repro::decoder::{DecodeOutput, DecodeStats, Decoder, QecoolConfig, QecoolDecoder};
use qecool_repro::surface_code::{CodePatch, Lattice};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A distance-5 planar surface code: 5x4 syndrome ancillas (one QECOOL
    // hardware Unit each), 41 data qubits in the bit-flip sector.
    let lattice = Lattice::new(5)?;
    println!(
        "d = {}: {} ancillas / hardware Units, {} data qubits",
        lattice.distance(),
        lattice.num_ancillas(),
        lattice.num_data_qubits()
    );

    // Corrupt two data qubits: a bulk qubit and one on the west boundary.
    let mut patch = CodePatch::new(lattice.clone());
    patch.inject_error(lattice.horizontal_edge(2, 2));
    patch.inject_error(lattice.horizontal_edge(4, 0));
    println!("injected {} X errors", patch.error_weight());

    // One (perfect) syndrome measurement feeds every Unit's register...
    let mut decoder = QecoolDecoder::new(lattice.clone(), QecoolConfig::batch(1));
    let round = patch.perfect_round();
    println!("detection events: {}", round.num_events());
    decoder.ingest(&round)?;

    // ...and the spike race resolves the matching.
    let mut out = DecodeOutput::default();
    decoder.finish(&mut out);
    let mut stats = DecodeStats::default();
    decoder.stats_into(&mut stats);
    println!(
        "decode finished in {} hardware cycles: {} matches, {} timed-out races",
        out.cycles, stats.matches, stats.timeouts
    );
    for &edge in &out.corrections {
        let (a, b) = lattice.endpoints(edge);
        match b {
            Some(b) => println!("  correct {edge:?} between Units {a} and {b}"),
            None => println!("  correct {edge:?} between Unit {a} and the boundary"),
        }
    }

    // Apply the corrections and verify the patch is clean again.
    patch.apply_corrections(out.corrections.iter().copied());
    assert!(patch.syndrome_is_trivial());
    assert!(!patch.has_logical_error());
    println!("patch restored to the code space with no logical error");
    Ok(())
}
