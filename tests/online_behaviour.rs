//! On-line decoder behaviour under budget pressure: overflow injection,
//! pause/resume equivalence, and drain invariants.

use qecool_repro::decoder::{DecodeOutput, DecodeStats, Decoder, QecoolConfig, QecoolDecoder};
use qecool_repro::surface_code::{CodePatch, Lattice, NoiseSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Feeding rounds with zero decode budget must overflow after exactly
/// `capacity` pushes when events are pending.
#[test]
fn starved_decoder_overflows_at_capacity() {
    let lattice = Lattice::new(5).unwrap();
    let mut patch = CodePatch::new(lattice.clone());
    patch.inject_error(lattice.horizontal_edge(2, 1));
    let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::online());
    let mut out = DecodeOutput::default();
    // The event sits in layer 0; with th_v = 3 it only becomes decodable
    // at occupancy >= 4, but we grant zero cycles, so nothing ever clears.
    let mut pushes = 0;
    loop {
        match decoder.ingest(&patch.perfect_round()) {
            Ok(()) => {
                pushes += 1;
                decoder.decode_step(Some(0), &mut out);
                assert!(pushes <= 7, "overflow should hit at the 8th push");
            }
            Err(err) => {
                assert_eq!(err.capacity(), 7);
                assert_eq!(pushes, 7);
                break;
            }
        }
    }
}

/// Chopping the decode budget into tiny slices must reach the same final
/// corrections as one unbounded run (determinism of the resumable scan).
#[test]
fn sliced_budget_equals_unbounded_run() {
    let lattice = Lattice::new(7).unwrap();
    let noise = NoiseSpec::Phenomenological { p: 0.04 };

    let run_with = |slice: Option<u64>| {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut patch = CodePatch::new(lattice.clone());
        let mut decoder = QecoolDecoder::new(lattice.clone(), QecoolConfig::batch(8));
        for _ in 0..7 {
            decoder
                .ingest(&patch.noisy_round(&noise, &mut rng))
                .unwrap();
        }
        decoder.ingest(&patch.perfect_round()).unwrap();
        let mut out = DecodeOutput::default();
        let mut corrections = Vec::new();
        match slice {
            None => {
                decoder.finish(&mut out);
                corrections.extend_from_slice(&out.corrections);
            }
            Some(s) => loop {
                decoder.decode_step(Some(s), &mut out);
                corrections.extend_from_slice(&out.corrections);
                if out.idle {
                    break;
                }
            },
        }
        patch.apply_corrections(corrections.iter().copied());
        assert!(patch.syndrome_is_trivial());
        (corrections, patch.has_logical_error())
    };

    let (whole, logical_whole) = run_with(None);
    for slice in [1u64, 7, 50] {
        let (sliced, logical_sliced) = run_with(Some(slice));
        assert_eq!(sliced, whole, "slice {slice} diverged");
        assert_eq!(logical_sliced, logical_whole);
    }
}

/// After drain, the decoder is empty and re-usable for the next window.
#[test]
fn drain_leaves_reusable_decoder() {
    let lattice = Lattice::new(5).unwrap();
    let noise = NoiseSpec::Phenomenological { p: 0.05 };
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut patch = CodePatch::new(lattice.clone());
    let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::online());
    let mut out = DecodeOutput::default();
    for window in 0..3 {
        for _ in 0..5 {
            let round = patch.noisy_round(&noise, &mut rng);
            decoder
                .ingest(&round)
                .unwrap_or_else(|e| panic!("window {window}: {e}"));
            decoder.decode_step(Some(2000), &mut out);
            patch.apply_corrections(out.corrections.iter().copied());
        }
        decoder.ingest(&patch.perfect_round()).unwrap();
        decoder.finish(&mut out);
        patch.apply_corrections(out.corrections.iter().copied());
        assert!(decoder.is_drained());
        assert!(patch.syndrome_is_trivial(), "window {window}");
    }
    // Statistics accumulated across all three windows.
    assert_eq!(decoder.rounds_pushed(), 18);
    let mut stats = DecodeStats::default();
    decoder.stats_into(&mut stats);
    assert_eq!(stats.layer_cycles.count, 18);
}

/// Decode work is gated correctly around th_v: with no work available a
/// step goes idle at once, spending no cycles.
#[test]
fn work_available_respects_thv() {
    let lattice = Lattice::new(5).unwrap();
    let mut patch = CodePatch::new(lattice.clone());
    patch.inject_error(lattice.horizontal_edge(1, 1));
    let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::online());
    let mut out = DecodeOutput::default();
    decoder.ingest(&patch.perfect_round()).unwrap();
    // Events pending but th_v blocks layer 0, and layer 0 is dirty so no
    // shift is possible either.
    decoder.decode_step(None, &mut out);
    assert!(out.idle);
    assert_eq!(out.cycles, 0);
    for _ in 0..3 {
        decoder.ingest(&patch.perfect_round()).unwrap();
    }
    decoder.decode_step(None, &mut out);
    assert!(out.idle);
    assert!(out.cycles > 0);
    patch.apply_corrections(out.corrections.iter().copied());
    assert!(patch.syndrome_is_trivial());
}
