//! Cross-decoder consistency: QECOOL and MWPM must agree on the easy
//! cases and both uphold the decoder contract (always return the patch to
//! the code space).

use qecool_repro::decoder::{DecodeOutput, Decoder, QecoolConfig, QecoolDecoder};
use qecool_repro::mwpm::MwpmDecoder;
use qecool_repro::surface_code::{CodePatch, Edge, Lattice, NoiseSpec, SyndromeHistory};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn decode_both(patch: &CodePatch, history: &SyndromeHistory) -> (CodePatch, CodePatch) {
    let lattice = patch.lattice().clone();

    let mut qecool_patch = patch.clone();
    let mut decoder =
        QecoolDecoder::new(lattice.clone(), QecoolConfig::batch(history.num_rounds()));
    for round in history {
        decoder.ingest(round).expect("capacity");
    }
    let mut out = DecodeOutput::default();
    decoder.finish(&mut out);
    qecool_patch.apply_corrections(out.corrections.iter().copied());

    let mut mwpm_patch = patch.clone();
    let outcome = MwpmDecoder::new(lattice)
        .decode(history)
        .expect("matchable");
    outcome.apply(&mut mwpm_patch);

    (qecool_patch, mwpm_patch)
}

/// Every weight-1 data error is corrected perfectly by both decoders.
#[test]
fn both_decoders_fix_all_single_errors() {
    let lattice = Lattice::new(7).unwrap();
    for q in 0..lattice.num_data_qubits() {
        let mut patch = CodePatch::new(lattice.clone());
        patch.inject_error(Edge(q));
        let mut history = SyndromeHistory::new(lattice.clone());
        history.push(patch.perfect_round());
        let (qp, mp) = decode_both(&patch, &history);
        for (name, p) in [("QECOOL", &qp), ("MWPM", &mp)] {
            assert!(p.syndrome_is_trivial(), "{name}: qubit {q} left syndrome");
            assert!(!p.has_logical_error(), "{name}: qubit {q} became logical");
        }
    }
}

/// Both decoders always restore the code space under random noise, and
/// report the same *syndrome* even when they choose different pairings.
#[test]
fn both_decoders_always_clear_the_syndrome() {
    let lattice = Lattice::new(9).unwrap();
    let noise = NoiseSpec::Phenomenological { p: 0.03 };
    for seed in 0..40u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut patch = CodePatch::new(lattice.clone());
        let mut history = SyndromeHistory::new(lattice.clone());
        for _ in 0..9 {
            history.push(patch.noisy_round(&noise, &mut rng));
        }
        history.push(patch.perfect_round());
        let (qp, mp) = decode_both(&patch, &history);
        assert!(qp.syndrome_is_trivial(), "QECOOL seed {seed}");
        assert!(mp.syndrome_is_trivial(), "MWPM seed {seed}");
    }
}

/// A pure measurement-error stream (no data errors) must never produce
/// residual data corruption from either decoder.
#[test]
fn measurement_noise_only_is_harmless() {
    let lattice = Lattice::new(7).unwrap();
    let noise = NoiseSpec::Asymmetric { p: 0.0, q: 0.05 };
    for seed in 0..25u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut patch = CodePatch::new(lattice.clone());
        let mut history = SyndromeHistory::new(lattice.clone());
        for _ in 0..7 {
            history.push(patch.noisy_round(&noise, &mut rng));
        }
        history.push(patch.perfect_round());
        let (qp, mp) = decode_both(&patch, &history);
        for (name, p) in [("QECOOL", &qp), ("MWPM", &mp)] {
            assert!(p.syndrome_is_trivial(), "{name} seed {seed}");
            assert!(
                !p.has_logical_error(),
                "{name} seed {seed}: measurement noise alone caused a logical error"
            );
        }
    }
}

/// Two-qubit error chains anywhere on the lattice stay correctable.
#[test]
fn both_decoders_fix_adjacent_pairs() {
    let lattice = Lattice::new(5).unwrap();
    let mut checked = 0;
    for q in 0..lattice.num_data_qubits() {
        // Pair each qubit with the next index that shares an ancilla.
        for r in (q + 1)..lattice.num_data_qubits() {
            let (a1, b1) = lattice.endpoints(Edge(q));
            let (a2, b2) = lattice.endpoints(Edge(r));
            let shares = a1 == a2 || Some(a1) == b2 || b1 == Some(a2) || (b1.is_some() && b1 == b2);
            if !shares {
                continue;
            }
            checked += 1;
            let mut patch = CodePatch::new(lattice.clone());
            patch.inject_error(Edge(q));
            patch.inject_error(Edge(r));
            let mut history = SyndromeHistory::new(lattice.clone());
            history.push(patch.perfect_round());
            let (qp, mp) = decode_both(&patch, &history);
            assert!(
                qp.syndrome_is_trivial() && mp.syndrome_is_trivial(),
                "{q},{r}"
            );
            // Note: weight-2 chains can legitimately decode to a logical
            // complement only at d <= 2*2; at d = 5 a weight-2 error is
            // always recoverable by a minimum-weight decoder.
            assert!(!mp.has_logical_error(), "MWPM mis-decoded weight-2 {q},{r}");
        }
    }
    assert!(checked > 50, "pair enumeration looks broken: {checked}");
}

/// The union-find baseline also upholds the decoder contract and agrees
/// with MWPM on all weight-1 errors.
#[test]
fn union_find_fixes_all_single_errors() {
    use qecool_repro::uf::UnionFindDecoder;
    let lattice = Lattice::new(7).unwrap();
    let decoder = UnionFindDecoder::new(lattice.clone());
    for q in 0..lattice.num_data_qubits() {
        let mut patch = CodePatch::new(lattice.clone());
        patch.inject_error(Edge(q));
        let mut history = SyndromeHistory::new(lattice.clone());
        history.push(patch.perfect_round());
        let outcome = decoder.decode(&history);
        outcome.apply(&mut patch);
        assert!(patch.syndrome_is_trivial(), "UF: qubit {q} left syndrome");
        assert!(!patch.has_logical_error(), "UF: qubit {q} became logical");
    }
}

/// All three decoders clear random syndromes; failure counts order as
/// MWPM <= UF and MWPM <= QECOOL on an ensemble near threshold.
#[test]
fn three_decoder_ordering_near_threshold() {
    use qecool_repro::sim::{run_trial, DecoderKind, TrialConfig};
    let mut fails = [0usize; 3];
    let kinds = [
        DecoderKind::Mwpm,
        DecoderKind::UnionFind,
        DecoderKind::BatchQecool,
    ];
    for seed in 0..120u64 {
        for (i, k) in kinds.into_iter().enumerate() {
            let cfg = TrialConfig::standard(7, 0.02, k);
            fails[i] += usize::from(run_trial(&cfg, seed).logical_error);
        }
    }
    assert!(
        fails[0] <= fails[1] + 3,
        "MWPM ({}) should not fail more than UF ({})",
        fails[0],
        fails[1]
    );
    assert!(
        fails[0] <= fails[2] + 3,
        "MWPM ({}) should not fail more than QECOOL ({})",
        fails[0],
        fails[2]
    );
}
