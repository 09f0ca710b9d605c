//! Properties of the sliding-window streaming decoders: chunking
//! invariance of the commit stream, watermark monotonicity (including
//! across `reset`), and statistical agreement between windowed and
//! monolithic decoding on a smoke grid.

use proptest::prelude::*;
use qecool::api::{DecodeOutput, Decoder};
use qecool_mwpm::MwpmDecoder;
use qecool_sim::stats::RateEstimate;
use qecool_sim::{StreamingMwpm, StreamingUf, WindowConfig};
use qecool_surface_code::{CodePatch, DetectionRound, Lattice, NoiseSpec, SyndromeHistory};
use qecool_uf::UnionFindDecoder;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A seeded noisy stream of `rounds` serving rounds plus a closing
/// perfect round, with the patch it was measured from.
fn stream(d: usize, p: f64, rounds: usize, seed: u64) -> (CodePatch, Vec<DetectionRound>) {
    let lattice = Lattice::new(d).unwrap();
    let mut patch = CodePatch::new(lattice);
    let noise = NoiseSpec::Phenomenological { p };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out: Vec<DetectionRound> = (0..rounds)
        .map(|_| patch.noisy_round(&noise, &mut rng))
        .collect();
    out.push(patch.perfect_round());
    (patch, out)
}

/// Feeds `rounds` to `decoder` split at the given chunk boundaries, one
/// `decode_step` per chunk plus a closing `finish`. Returns the
/// concatenated commit stream and the watermark observed after every
/// step, asserting monotonicity and the `watermark < ingested` bound as
/// it goes.
fn drive_chunked(
    decoder: &mut dyn Decoder,
    rounds: &[DetectionRound],
    chunks: &[usize],
) -> (Vec<qecool_surface_code::Edge>, Vec<Option<u64>>) {
    let mut out = DecodeOutput::default();
    let mut corrections = Vec::new();
    let mut marks = Vec::new();
    let mut ingested = 0usize;
    let mut last: Option<u64> = None;
    let mut cursor = 0usize;
    for &len in chunks {
        let chunk = &rounds[cursor..cursor + len];
        cursor += len;
        assert_eq!(decoder.ingest_batch(chunk), chunk.len());
        ingested += chunk.len();
        decoder.decode_step(None, &mut out);
        corrections.extend_from_slice(&out.corrections);
        if let Some(w) = out.committed_through {
            assert!((w as usize) < ingested, "watermark ahead of ingest");
            assert!(last.is_none_or(|l| w >= l), "watermark regressed");
            last = Some(w);
        } else {
            assert_eq!(last, None, "watermark forgotten mid-stream");
        }
        marks.push(out.committed_through);
    }
    assert_eq!(cursor, rounds.len());
    decoder.finish(&mut out);
    corrections.extend_from_slice(&out.corrections);
    assert_eq!(
        out.committed_through,
        Some(rounds.len() as u64 - 1),
        "finish must commit the whole stream"
    );
    marks.push(out.committed_through);
    (corrections, marks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// However the round stream is chunked into ingest batches, the
    /// concatenated commit stream is byte-identical and the watermark
    /// sequence is a prefix-merge of the per-round one: chunking moves
    /// *when* commits surface, never *what* commits.
    #[test]
    fn prop_commit_stream_is_chunking_invariant(
        seed in 0u64..1_000,
        rounds in 8usize..26,
        stride in 1u64..4,
        extra in 1u64..8,
        chunks in proptest::collection::vec(1usize..=5, 1..=30),
        mwpm in any::<bool>(),
    ) {
        let d = 3;
        let config = WindowConfig::new(stride + extra, stride);
        let lattice = Lattice::new(d).unwrap();
        let (_, stream_rounds) = stream(d, 0.04, rounds, seed);

        // Shape the raw draws into a partition of the stream: clamp to
        // what is left and top up with a final chunk.
        let mut fixed = Vec::new();
        let mut left = stream_rounds.len();
        for len in chunks {
            if left == 0 { break; }
            let take = len.min(left);
            fixed.push(take);
            left -= take;
        }
        if left > 0 {
            fixed.push(left);
        }

        let per_round: Vec<usize> = vec![1; stream_rounds.len()];
        let (ref_stream, ref_marks) = if mwpm {
            let mut dec = StreamingMwpm::with_config(lattice.clone(), config);
            drive_chunked(&mut dec, &stream_rounds, &per_round)
        } else {
            let mut dec = StreamingUf::with_config(lattice.clone(), config);
            drive_chunked(&mut dec, &stream_rounds, &per_round)
        };
        let (chunked_stream, chunked_marks) = if mwpm {
            let mut dec = StreamingMwpm::with_config(lattice, config);
            drive_chunked(&mut dec, &stream_rounds, &fixed)
        } else {
            let mut dec = StreamingUf::with_config(lattice, config);
            drive_chunked(&mut dec, &stream_rounds, &fixed)
        };
        prop_assert_eq!(ref_stream, chunked_stream);
        // Both runs end on the same final watermark; the intermediate
        // watermark *values* that do appear must agree in order (the
        // chunked run just surfaces several strides per step).
        prop_assert_eq!(
            ref_marks.last().copied().flatten(),
            chunked_marks.last().copied().flatten()
        );
        let seen: Vec<u64> = chunked_marks.iter().copied().flatten().collect();
        let reference: Vec<u64> = ref_marks.iter().copied().flatten().collect();
        prop_assert!(seen.iter().all(|w| reference.contains(w)));
    }

    /// `reset` restores the freshly-constructed state: the watermark
    /// clears and replaying the identical stream reproduces the
    /// identical commit stream from a fresh round-zero origin.
    #[test]
    fn prop_reset_clears_the_watermark_and_replays_identically(
        seed in 0u64..1_000,
        rounds in 6usize..20,
        stride in 1u64..3,
        extra in 1u64..6,
    ) {
        let d = 3;
        let lattice = Lattice::new(d).unwrap();
        let config = WindowConfig::new(stride + extra, stride);
        let (_, stream_rounds) = stream(d, 0.05, rounds, seed);
        let per_round: Vec<usize> = vec![1; stream_rounds.len()];

        let mut dec = StreamingUf::with_config(lattice, config);
        let first = drive_chunked(&mut dec, &stream_rounds, &per_round);
        dec.reset();
        let mut out = DecodeOutput::default();
        dec.decode_step(None, &mut out);
        prop_assert_eq!(out.committed_through, None);
        let second = drive_chunked(&mut dec, &stream_rounds, &per_round);
        prop_assert_eq!(first, second);
    }
}

/// Windowed and monolithic decoding must agree statistically: on a
/// `(d, p)` smoke grid the two logical-error rates must have
/// overlapping Clopper–Pearson 95% intervals (they share the noise
/// streams, so a seam artifact that flipped even a few percent of
/// outcomes would separate the intervals).
#[test]
fn windowed_matches_monolithic_within_clopper_pearson() {
    struct GridPoint {
        d: usize,
        p: f64,
        streams: u64,
        mwpm: bool,
    }
    let grid = [
        GridPoint {
            d: 3,
            p: 0.02,
            streams: 300,
            mwpm: false,
        },
        GridPoint {
            d: 3,
            p: 0.04,
            streams: 200,
            mwpm: true,
        },
        GridPoint {
            d: 5,
            p: 0.03,
            streams: 120,
            mwpm: false,
        },
    ];
    for point in grid {
        let lattice = Lattice::new(point.d).unwrap();
        let config = WindowConfig::new(3 * point.d as u64, point.d as u64);
        let rounds_per_stream = 3 * point.d;
        let mut windowed_failures = 0usize;
        let mut monolithic_failures = 0usize;
        for seed in 0..point.streams {
            let (patch, rounds) = stream(point.d, point.p, rounds_per_stream, 9_000 + seed);

            let windowed: Vec<qecool_surface_code::Edge> = if point.mwpm {
                let mut dec = StreamingMwpm::with_config(lattice.clone(), config);
                let per_round: Vec<usize> = vec![1; rounds.len()];
                drive_chunked(&mut dec, &rounds, &per_round).0
            } else {
                let mut dec = StreamingUf::with_config(lattice.clone(), config);
                let per_round: Vec<usize> = vec![1; rounds.len()];
                drive_chunked(&mut dec, &rounds, &per_round).0
            };
            let mut pw = patch.clone();
            pw.apply_corrections(windowed.iter().copied());
            assert!(pw.syndrome_is_trivial(), "windowed left syndrome");
            if pw.has_logical_error() {
                windowed_failures += 1;
            }

            let mut history = SyndromeHistory::new(lattice.clone());
            for r in &rounds {
                history.push_copy(r);
            }
            let monolithic = if point.mwpm {
                MwpmDecoder::new(lattice.clone())
                    .decode(&history)
                    .unwrap()
                    .corrections
            } else {
                UnionFindDecoder::new(lattice.clone())
                    .decode(&history)
                    .corrections
            };
            let mut pm = patch.clone();
            pm.apply_corrections(monolithic.iter().copied());
            assert!(pm.syndrome_is_trivial(), "monolithic left syndrome");
            if pm.has_logical_error() {
                monolithic_failures += 1;
            }
        }
        let shots = point.streams as usize;
        let (w_lo, w_hi) = RateEstimate::new(windowed_failures, shots).clopper_pearson_interval();
        let (m_lo, m_hi) = RateEstimate::new(monolithic_failures, shots).clopper_pearson_interval();
        assert!(
            w_lo <= m_hi && m_lo <= w_hi,
            "d = {}, p = {}, mwpm = {}: windowed {}/{} vs monolithic {}/{} — \
             CP intervals [{w_lo:.4}, {w_hi:.4}] and [{m_lo:.4}, {m_hi:.4}] disjoint",
            point.d,
            point.p,
            point.mwpm,
            windowed_failures,
            shots,
            monolithic_failures,
            shots,
        );
    }
}
