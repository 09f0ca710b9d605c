//! True overlapping sliding-window streaming decoders for the
//! union-find and MWPM baselines.
//!
//! The paper's comparison is only honest if every backend decodes
//! *on-line*: corrections must become final while rounds keep arriving.
//! The old adapters buffered the whole stream and decoded everything at
//! [`Decoder::finish`], so their commit latency was unbounded. The
//! decoders here implement the standard overlapping-window scheme:
//!
//! 1. Buffer rounds until **W** ([`WindowConfig::window`]) are pending.
//! 2. Decode the W-round window with the batch algorithm.
//! 3. **Commit** every match/component *anchored* in the oldest **S**
//!    rounds ([`WindowConfig::stride`], S < W): its earliest defect
//!    round falls in `[0, S)`. Committed corrections are emitted and
//!    the committed events are cleared from the buffered rounds —
//!    including their partners in the overlap region `[S, W)`.
//! 4. Matches living entirely in the overlap are **tentative**: they
//!    are discarded and re-derived when the window slides. Union-find
//!    grows its tentative components (they may merge with anchored ones)
//!    but never peels them. The `W − S` re-decoded rounds per committed
//!    window are counted in [`DecodeStats::redecoded_rounds`].
//! 5. Drop the oldest S rounds and raise the commit watermark by S.
//!
//! Because a perfect matching (or the union-find erasure components)
//! covers *every* defect, each event in the commit stride belongs to
//! exactly one committed match — the seam is artifact-free by
//! construction, and the `W − S` rounds of lookahead bound how much a
//! windowed decision can differ from the monolithic one. Commit latency
//! is bounded by W rounds; `finish` commits the buffered tail in one
//! final monolithic decode.
//!
//! One generic [`Windowed`] decoder implements all of this over a
//! [`WindowBackend`] — the batch decoder's two operations, "commit one
//! window" and "decode the tail". [`StreamingUf`] and [`StreamingMwpm`]
//! are its union-find and MWPM instances. Monte-Carlo trials run the same
//! decoders with a window longer than the trial, which never fills, so
//! their `finish` is exactly the whole-history decode.

use std::collections::VecDeque;

use qecool::api::{CommitHint, DecodeOutput, DecodeStats, Decoder};
use qecool::RegOverflow;
use qecool_mwpm::MwpmDecoder;
use qecool_surface_code::{DetectionRound, Edge, Lattice, SyndromeHistory};
use qecool_uf::UnionFindDecoder;

/// Sliding-window geometry: decode `window` rounds, commit the oldest
/// `stride` of them, slide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Rounds decoded together (W). Larger windows see more temporal
    /// context; commit latency is bounded by W rounds.
    pub window: u64,
    /// Rounds committed (and dropped) per slide (S). The remaining
    /// `W − S` rounds overlap into the next window as lookahead.
    pub stride: u64,
}

impl WindowConfig {
    /// A validated window geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ stride < window` — a stride of zero never
    /// commits, and a stride equal to the window has no overlap (every
    /// temporal match crossing the seam would be cut).
    pub fn new(window: u64, stride: u64) -> Self {
        assert!(
            stride >= 1 && stride < window,
            "window config requires 1 <= stride < window, got W={window} S={stride}"
        );
        Self { window, stride }
    }

    /// The default geometry for code distance `d`: `W = 3d`, `S = d` —
    /// d rounds of commit per slide with 2d rounds of lookahead, the
    /// usual "a window of order d rounds sees a full error chain"
    /// sizing.
    pub fn default_for(d: usize) -> Self {
        Self::new(3 * d as u64, d as u64)
    }
}

/// The batch decoder behind a [`Windowed`] stream: the two operations a
/// sliding window needs from it. Both take `&mut self` so that a backend
/// can keep its buffers from one window to the next.
pub trait WindowBackend {
    /// A backend decoding on `lattice`.
    fn for_lattice(lattice: Lattice) -> Self;

    /// Decodes one full `window` and commits every match (union-find:
    /// erasure component) anchored in its oldest `stride` rounds:
    /// appends its corrections to `out`, counts it into `stats`, and
    /// passes each of its events in the overlap (window round
    /// `t ≥ stride`) to `clear(ancilla_index, t)`. Matches living
    /// entirely in the overlap are tentative and dropped.
    fn commit_window(
        &mut self,
        window: &SyndromeHistory,
        stride: usize,
        out: &mut Vec<Edge>,
        stats: &mut DecodeStats,
        clear: impl FnMut(usize, usize),
    );

    /// Decodes `tail` whole, appending every correction to `out` and
    /// counting every match into `stats`. By default, a window commit
    /// whose stride anchors every round.
    fn decode_tail(
        &mut self,
        tail: &SyndromeHistory,
        out: &mut Vec<Edge>,
        stats: &mut DecodeStats,
    ) {
        self.commit_window(tail, tail.num_rounds(), out, stats, |_, _| {});
    }
}

/// Sliding-window streaming union-find decoder.
///
/// Erasure components whose earliest defect round is anchored in the
/// commit stride commit whole — their corrections are emitted and their
/// defects (including overlap-region partners) are cleared from the
/// buffer. Components floating entirely in the overlap stay tentative
/// and are re-derived next window. Its [`DecodeStats::matches`] counts
/// emitted corrections.
pub type StreamingUf = Windowed<UnionFindDecoder>;

/// Sliding-window streaming MWPM decoder (over the 16-nearest-neighbour
/// graph of [`MwpmDecoder::new`]).
///
/// Matches whose earliest event round is anchored in the commit stride
/// commit whole (their routed corrections are emitted, their events
/// cleared from the buffer); matches floating entirely in the overlap
/// are tentative and re-matched next window. A perfect matching covers
/// every event, so each event of the commit stride is explained by
/// exactly one committed match. Its [`DecodeStats`] count committed
/// matches and their vertical extents.
pub type StreamingMwpm = Windowed<MwpmDecoder>;

impl WindowBackend for UnionFindDecoder {
    fn for_lattice(lattice: Lattice) -> Self {
        Self::new(lattice)
    }

    fn commit_window(
        &mut self,
        window: &SyndromeHistory,
        stride: usize,
        out: &mut Vec<Edge>,
        stats: &mut DecodeStats,
        mut clear: impl FnMut(usize, usize),
    ) {
        // Only the components anchored in the stride are peeled; the
        // tentative ones in the overlap are grown but never walked.
        self.for_each_component(window, stride, |corrections, defects| {
            debug_assert!(
                defects.iter().any(|&(_, t)| t < stride),
                "a tentative component was peeled"
            );
            out.extend_from_slice(corrections);
            stats.matches += corrections.len();
            for &(ancilla, t) in defects {
                if t >= stride {
                    clear(ancilla, t);
                }
            }
        });
    }

    // The whole-history decode XOR-reduces the components' corrections
    // into one list, which differs in order (and in count, where two
    // components flip one edge) from a window commit's concatenation.
    fn decode_tail(
        &mut self,
        tail: &SyndromeHistory,
        out: &mut Vec<Edge>,
        stats: &mut DecodeStats,
    ) {
        let start = out.len();
        self.decode_into(tail, out);
        stats.matches += out.len() - start;
    }
}

impl WindowBackend for MwpmDecoder {
    fn for_lattice(lattice: Lattice) -> Self {
        Self::new(lattice)
    }

    fn commit_window(
        &mut self,
        window: &SyndromeHistory,
        stride: usize,
        out: &mut Vec<Edge>,
        stats: &mut DecodeStats,
        mut clear: impl FnMut(usize, usize),
    ) {
        // Only the committed matches are routed.
        let lattice = window.lattice();
        let outcome = self
            .match_history(window)
            .expect("doubled graph is matchable");
        for m in &outcome.matches {
            if m.min_round() >= stride {
                continue; // tentative: lives entirely in the overlap
            }
            m.append_corrections(lattice, out);
            stats.record_match(m.vertical_extent());
            for ev in m.events() {
                if ev.round >= stride {
                    clear(lattice.ancilla_index(ev.ancilla), ev.round);
                }
            }
        }
    }
}

/// A sliding-window streaming decoder over a batch [`WindowBackend`]:
/// round buffering and recycling, the commit watermark, and the
/// statistics of everything committed since the last reset.
pub struct Windowed<B> {
    backend: B,
    config: WindowConfig,
    /// Buffered rounds not yet committed; `buffer[0]` is
    /// session-lifetime round `base_round`.
    buffer: VecDeque<DetectionRound>,
    /// Retired round buffers awaiting reuse.
    spare: Vec<DetectionRound>,
    /// Scratch history rebuilt per window decode.
    scratch: SyndromeHistory,
    /// Session-lifetime index of the oldest buffered round.
    base_round: u64,
    /// Rounds ingested since construction or reset.
    ingested: u64,
    /// Highest committed round index so far.
    committed_through: Option<u64>,
    stats: DecodeStats,
}

impl<B: WindowBackend> Windowed<B> {
    /// A windowed decoder with the default `W = 3d, S = d` geometry.
    pub fn new(lattice: Lattice) -> Self {
        let config = WindowConfig::default_for(lattice.distance());
        Self::with_config(lattice, config)
    }

    /// A windowed decoder with an explicit window geometry.
    pub fn with_config(lattice: Lattice, config: WindowConfig) -> Self {
        Self {
            backend: B::for_lattice(lattice.clone()),
            config,
            buffer: VecDeque::new(),
            spare: Vec::new(),
            scratch: SyndromeHistory::new(lattice),
            base_round: 0,
            ingested: 0,
            committed_through: None,
            stats: DecodeStats::default(),
        }
    }

    /// Rebuilds the scratch history from the first `rounds` buffered
    /// rounds.
    fn fill_scratch(&mut self, rounds: usize) {
        self.scratch.clear();
        for round in self.buffer.range(..rounds) {
            self.scratch.push_copy(round);
        }
    }

    /// Decodes one full window, emits its anchored matches, clears their
    /// overlap events from the buffer (so the next window does not
    /// re-explain them), then drops the oldest `stride` rounds and
    /// raises the watermark.
    fn commit_window(&mut self, out: &mut DecodeOutput) {
        self.fill_scratch(self.config.window as usize);
        let buffer = &mut self.buffer;
        self.backend.commit_window(
            &self.scratch,
            self.config.stride as usize,
            &mut out.corrections,
            &mut self.stats,
            |ancilla, t| buffer[t].events_mut().set(ancilla, false),
        );
        for _ in 0..self.config.stride {
            let round = self.buffer.pop_front().expect("window was full");
            self.spare.push(round);
        }
        self.base_round += self.config.stride;
        self.committed_through = Some(self.base_round - 1);
        self.stats.redecoded_rounds += self.config.window - self.config.stride;
    }

    /// Recycles every buffered round.
    fn drop_buffer(&mut self) {
        while let Some(round) = self.buffer.pop_front() {
            self.spare.push(round);
        }
    }
}

impl<B: WindowBackend> Decoder for Windowed<B> {
    fn ingest(&mut self, round: &DetectionRound) -> Result<(), RegOverflow> {
        let mut buf = self
            .spare
            .pop()
            .unwrap_or_else(|| DetectionRound::zeros(round.events().len()));
        buf.copy_from(round);
        self.buffer.push_back(buf);
        self.ingested += 1;
        Ok(())
    }

    fn decode_step(&mut self, _budget: Option<u64>, out: &mut DecodeOutput) {
        out.clear();
        out.idle = true;
        while self.buffer.len() as u64 >= self.config.window {
            self.commit_window(out);
        }
        out.committed_through = self.committed_through;
    }

    fn finish(&mut self, out: &mut DecodeOutput) {
        out.clear();
        out.idle = true;
        let tail = self.buffer.len();
        if tail > 0 {
            self.fill_scratch(tail);
            self.backend
                .decode_tail(&self.scratch, &mut out.corrections, &mut self.stats);
        }
        self.drop_buffer();
        self.base_round = self.ingested;
        if self.ingested > 0 {
            self.committed_through = Some(self.ingested - 1);
        }
        out.committed_through = self.committed_through;
    }

    fn reset(&mut self) {
        self.drop_buffer();
        self.scratch.clear();
        self.base_round = 0;
        self.ingested = 0;
        self.committed_through = None;
        self.stats.clear();
    }

    fn commit_hint(&self) -> CommitHint {
        CommitHint::windowed(self.config.window, self.config.stride)
    }

    fn stats_into(&self, stats: &mut DecodeStats) {
        stats.clone_from(&self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qecool::api::CommitCadence;
    use qecool_surface_code::{CodePatch, Edge, NoiseSpec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Generates a seeded noisy stream of `rounds` serving rounds plus a
    /// closing perfect round.
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

    /// Runs a boxed windowed decoder over a stream round-at-a-time and
    /// returns the concatenated commit stream plus the final watermark.
    fn drive(decoder: &mut dyn Decoder, rounds: &[DetectionRound]) -> (Vec<Edge>, Option<u64>) {
        let mut out = DecodeOutput::default();
        let mut all = Vec::new();
        let mut last_watermark = None;
        for round in rounds {
            decoder.ingest(round).unwrap();
            decoder.decode_step(None, &mut out);
            all.extend_from_slice(&out.corrections);
            // Watermark is monotone and bounded by the ingested rounds.
            if let Some(w) = out.committed_through {
                assert!(last_watermark.is_none_or(|l| w >= l));
                last_watermark = Some(w);
            } else {
                assert_eq!(last_watermark, None);
            }
        }
        decoder.finish(&mut out);
        all.extend_from_slice(&out.corrections);
        (all, out.committed_through)
    }

    #[test]
    fn window_geometry_validates_and_defaults() {
        let c = WindowConfig::default_for(5);
        assert_eq!(c, WindowConfig::new(15, 5));
        assert!(std::panic::catch_unwind(|| WindowConfig::new(4, 4)).is_err());
        assert!(std::panic::catch_unwind(|| WindowConfig::new(4, 0)).is_err());
    }

    #[test]
    fn windowed_decoders_advertise_their_geometry() {
        let lattice = Lattice::new(5).unwrap();
        let uf = StreamingUf::new(lattice.clone());
        assert_eq!(
            uf.commit_hint().cadence,
            CommitCadence::Windowed {
                window: 15,
                stride: 5
            }
        );
        assert!(!uf.commit_hint().has_cycle_model);
        let mwpm = StreamingMwpm::with_config(lattice, WindowConfig::new(8, 2));
        assert_eq!(
            mwpm.commit_hint().cadence,
            CommitCadence::Windowed {
                window: 8,
                stride: 2
            }
        );
    }

    #[test]
    fn windowed_decoders_clear_the_syndrome_and_commit_every_round() {
        let d = 5;
        let lattice = Lattice::new(d).unwrap();
        for seed in 0..8u64 {
            let (patch, rounds) = stream(d, 0.03, 24, seed);
            for windowed in [true, false] {
                let mut decoders: Vec<Box<dyn Decoder>> = if windowed {
                    vec![
                        Box::new(StreamingUf::with_config(
                            lattice.clone(),
                            WindowConfig::new(9, 3),
                        )),
                        Box::new(StreamingMwpm::with_config(
                            lattice.clone(),
                            WindowConfig::new(9, 3),
                        )),
                    ]
                } else {
                    vec![
                        Box::new(StreamingUf::new(lattice.clone())),
                        Box::new(StreamingMwpm::new(lattice.clone())),
                    ]
                };
                for decoder in &mut decoders {
                    let (all, watermark) = drive(decoder.as_mut(), &rounds);
                    assert_eq!(watermark, Some(rounds.len() as u64 - 1));
                    let mut check = patch.clone();
                    check.apply_corrections(all.iter().copied());
                    assert!(
                        check.syndrome_is_trivial(),
                        "seed {seed} windowed={windowed} left syndrome"
                    );
                }
            }
        }
    }

    #[test]
    fn windowed_and_monolithic_agree_on_the_logical_outcome() {
        // Seam-artifact freedom: on moderate noise the windowed decode
        // must reach the same logical outcome as the monolithic decode
        // in the overwhelming majority of streams.
        let d = 5;
        let lattice = Lattice::new(d).unwrap();
        let mut disagreements = 0;
        const STREAMS: u64 = 40;
        for seed in 0..STREAMS {
            let (patch, rounds) = stream(d, 0.02, 30, 1000 + seed);
            let mut windowed = StreamingUf::with_config(lattice.clone(), WindowConfig::new(9, 3));
            let (all, _) = drive(&mut windowed, &rounds);
            let mut pw = patch.clone();
            pw.apply_corrections(all.iter().copied());
            assert!(pw.syndrome_is_trivial(), "seed {seed}");

            let mut history = SyndromeHistory::new(lattice.clone());
            for r in &rounds {
                history.push_copy(r);
            }
            let mono = UnionFindDecoder::new(lattice.clone()).decode(&history);
            let mut pm = patch.clone();
            pm.apply_corrections(mono.corrections.iter().copied());
            assert!(pm.syndrome_is_trivial(), "seed {seed}");

            if pw.has_logical_error() != pm.has_logical_error() {
                disagreements += 1;
            }
        }
        assert!(
            disagreements <= 2,
            "windowed UF changed {disagreements}/{STREAMS} logical outcomes"
        );
    }

    #[test]
    fn commit_stream_is_chunking_invariant() {
        // One-round-at-a-time vs batch ingest with a single decode_step:
        // the concatenated commit streams must be byte-identical.
        let d = 5;
        let lattice = Lattice::new(d).unwrap();
        for seed in 0..6u64 {
            let (_, rounds) = stream(d, 0.04, 25, 77 + seed);
            let config = WindowConfig::new(7, 2);

            let mut fine = StreamingUf::with_config(lattice.clone(), config);
            let (fine_stream, fine_mark) = drive(&mut fine, &rounds);

            let mut coarse = StreamingUf::with_config(lattice.clone(), config);
            let mut out = DecodeOutput::default();
            let mut coarse_stream = Vec::new();
            assert_eq!(coarse.ingest_batch(&rounds), rounds.len());
            coarse.decode_step(None, &mut out);
            coarse_stream.extend_from_slice(&out.corrections);
            coarse.finish(&mut out);
            coarse_stream.extend_from_slice(&out.corrections);

            assert_eq!(fine_stream, coarse_stream, "seed {seed}");
            assert_eq!(fine_mark, out.committed_through, "seed {seed}");
        }
    }

    #[test]
    fn whole_stream_window_is_the_monolithic_decode() {
        let mut out = DecodeOutput::default();
        let mut stats = DecodeStats::default();
        for (d, p, len) in [(5, 0.03, 8), (9, 0.01, 27), (9, 0.03, 27)] {
            let lattice = Lattice::new(d).unwrap();
            for seed in 0..6u64 {
                let (_, rounds) = stream(d, p, len, 40 + seed);
                let mut history = SyndromeHistory::new(lattice.clone());
                for r in &rounds {
                    history.push_copy(r);
                }
                // Longer than the stream: the window never fills.
                let config = WindowConfig::new(rounds.len() as u64 + 1, rounds.len() as u64);
                let at = format!("d {d} p {p} seed {seed}");

                // MWPM's tail is a window commit with every round
                // anchored: the same corrections in the same order, and
                // the same statistics, as routing every match of `decode`.
                let mono = MwpmDecoder::new(lattice.clone()).decode(&history).unwrap();
                let mut mwpm = StreamingMwpm::with_config(lattice.clone(), config);
                assert_eq!(mwpm.ingest_batch(&rounds), rounds.len());
                mwpm.decode_step(None, &mut out);
                assert!(out.corrections.is_empty(), "the window never fills");
                mwpm.finish(&mut out);
                assert_eq!(out.corrections, mono.corrections, "{at}");
                mwpm.stats_into(&mut stats);
                let mut expected = DecodeStats::default();
                for m in &mono.matches {
                    expected.record_match(m.vertical_extent());
                }
                assert_eq!(stats, expected, "{at}");

                let mono = UnionFindDecoder::new(lattice.clone()).decode(&history);
                let mut uf = StreamingUf::with_config(lattice.clone(), config);
                assert_eq!(uf.ingest_batch(&rounds), rounds.len());
                uf.finish(&mut out);
                assert_eq!(out.corrections, mono.corrections, "{at}");
                uf.stats_into(&mut stats);
                let expected = DecodeStats {
                    matches: mono.corrections.len(),
                    ..DecodeStats::default()
                };
                assert_eq!(stats, expected, "{at}");
            }
        }
    }

    #[test]
    fn windowed_stats_count_committed_work_until_reset() {
        let d = 5;
        let lattice = Lattice::new(d).unwrap();
        let (_, rounds) = stream(d, 0.04, 24, 9);
        let config = WindowConfig::new(7, 2);
        let mut stats = DecodeStats::default();

        let mut mwpm = StreamingMwpm::with_config(lattice.clone(), config);
        drive(&mut mwpm, &rounds);
        mwpm.stats_into(&mut stats);
        assert!(stats.matches > 0);
        assert_eq!(stats.vertical_hist.iter().sum::<usize>(), stats.matches);

        let mut uf = StreamingUf::with_config(lattice, config);
        let (all, _) = drive(&mut uf, &rounds);
        uf.stats_into(&mut stats);
        assert_eq!(stats.matches, all.len(), "UF counts emitted corrections");
        assert!(stats.vertical_hist.is_empty());

        uf.reset();
        uf.stats_into(&mut stats);
        assert_eq!(stats, DecodeStats::default(), "reset clears the stats");
    }

    #[test]
    fn windowed_stats_count_the_redecoded_overlap() {
        let d = 5;
        let lattice = Lattice::new(d).unwrap();
        let (_, rounds) = stream(d, 0.03, 24, 3);
        let config = WindowConfig::new(7, 2);
        let mut stats = DecodeStats::default();
        let decoders: [Box<dyn Decoder>; 2] = [
            Box::new(StreamingUf::with_config(lattice.clone(), config)),
            Box::new(StreamingMwpm::with_config(lattice.clone(), config)),
        ];
        for mut decoder in decoders {
            let mut out = DecodeOutput::default();
            let mut windows = 0;
            for round in &rounds {
                decoder.ingest(round).unwrap();
                decoder.decode_step(None, &mut out);
                // Each committed window raises the watermark by S.
                windows = out.committed_through.map_or(0, |w| (w + 1) / config.stride);
            }
            // 25 rounds: the first window fills at round 7, then every 2.
            assert_eq!(windows, 10);
            decoder.finish(&mut out);
            decoder.stats_into(&mut stats);
            assert_eq!(
                stats.redecoded_rounds,
                windows * (config.window - config.stride)
            );
            decoder.reset();
            decoder.stats_into(&mut stats);
            assert_eq!(stats.redecoded_rounds, 0, "reset zeroes the count");
        }
    }

    #[test]
    fn reset_restarts_the_watermark_and_reuses_buffers() {
        let d = 3;
        let lattice = Lattice::new(d).unwrap();
        let (_, rounds) = stream(d, 0.05, 20, 5);
        let mut decoder = StreamingMwpm::with_config(lattice, WindowConfig::new(5, 2));
        let (first, mark) = drive(&mut decoder, &rounds);
        assert_eq!(mark, Some(rounds.len() as u64 - 1));
        decoder.reset();
        let mut out = DecodeOutput::default();
        decoder.decode_step(None, &mut out);
        assert_eq!(
            out.committed_through, None,
            "reset must clear the watermark"
        );
        // Replaying the same stream after reset reproduces the same
        // commit stream from a fresh round-zero origin.
        let (second, mark2) = drive(&mut decoder, &rounds);
        assert_eq!(first, second);
        assert_eq!(mark2, Some(rounds.len() as u64 - 1));
    }
}
