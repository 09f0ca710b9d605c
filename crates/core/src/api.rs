//! The streaming decoder abstraction every backend plugs into.
//!
//! The paper's premise is *on-line* decoding: syndrome rounds keep
//! arriving and corrections must come out under a per-round cycle
//! budget. [`Decoder`] captures exactly that contract — ingest one
//! detection round, spend a bounded number of decode cycles, emit
//! whatever corrections resolved — so the decoding service and the
//! Monte-Carlo harness can drive QECOOL, union-find and MWPM through one
//! interface.
//!
//! # The commit contract
//!
//! Corrections are only useful on-line if the consumer knows when they
//! stop being provisional. Every step therefore reports a **commit
//! watermark** ([`DecodeOutput::committed_through`]): the highest
//! session-lifetime round index whose corrections are *final* — the
//! decoder will never emit another correction attributable to that
//! round or any earlier one. The watermark is monotone over a stream,
//! never exceeds the index of the newest ingested round, and resets
//! with [`Decoder::reset`].
//!
//! How aggressively a backend commits is advertised through
//! [`Decoder::commit_hint`]:
//!
//! * **Incremental** (QECOOL) — rounds commit as the hardware registers
//!   retire them, typically within a few rounds of ingest.
//! * **Windowed** (the sliding-window union-find/MWPM decoders in
//!   `qecool-sim`) — the decoder buffers a window of `W` rounds,
//!   decodes it, commits the oldest `S < W` rounds (matches reaching
//!   into the remaining `W − S` overlap rounds are tentative and
//!   re-derived next window), then slides. The watermark advances in
//!   strides of `S`; commit latency is bounded by `W` rounds.
//! * **Deferred** — everything commits at [`Decoder::finish`]. This is
//!   the conservative default for external implementations written
//!   against the pre-watermark trait.
//!
//! [`Decoder::finish`] means "commit everything remaining": it decodes
//! whatever is still buffered without a budget and raises the watermark
//! to the last ingested round.
//!
//! # The ingest seam
//!
//! The mirror image of [`Decoder`] is [`SyndromeSource`]: *where the
//! detection rounds come from*. The decode fabric drives any source the
//! same way it drives any backend, so the internal simulator
//! ([`SimulatedSource`], a `CodePatch` + noise model + seeded RNG) and a
//! bit-packed recording or externally sampled event file
//! (`qecool_surface_code::packed::PackedReader`) are interchangeable —
//! that is what makes record/replay byte-identical and cross-validation
//! against outside samplers possible.
//!
//! # Migration note for external `Decoder` impls
//!
//! Implementations written before the commit contract keep compiling
//! and behaving: [`Decoder::commit_hint`] defaults to
//! [`CommitHint::deferred`], and a step that never touches
//! [`DecodeOutput::committed_through`] (the field [`DecodeOutput::clear`]
//! resets to `None`) simply reports "nothing committed yet", which is
//! exactly the old semantics. To opt into windowed serving, set the
//! watermark in `decode_step`/`finish` and return an accurate hint so
//! callers can size ring buffers against the `W − S` lookahead.

use qecool_surface_code::{AnyNoise, BitVec, CodePatch, DetectionRound, Edge, NoiseModel};
use rand_chacha::ChaCha8Rng;
use std::io::Read;

use crate::decoder::QecoolDecoder;
use crate::reg::RegOverflow;

/// Output of one [`Decoder::decode_step`] / [`Decoder::finish`] call.
///
/// Owned by the caller and reused across rounds: [`Self::clear`] keeps
/// the correction allocation, so a warmed session loop performs no
/// per-round heap allocation.
#[derive(Debug, Clone, Default)]
pub struct DecodeOutput {
    /// Data-qubit corrections issued by this step, in emission order.
    pub corrections: Vec<Edge>,
    /// Decode cycles consumed by this step.
    pub cycles: u64,
    /// `true` when the step stopped because no further work was possible
    /// (as opposed to exhausting the cycle budget).
    pub idle: bool,
    /// Commit watermark: the highest session-lifetime round index
    /// (0-based, counted from the first ingest after construction or
    /// [`Decoder::reset`]) whose corrections are final. `None` while
    /// nothing has committed. Monotone over a stream and never larger
    /// than the newest ingested round's index.
    pub committed_through: Option<u64>,
}

impl DecodeOutput {
    /// Empties the output for reuse, keeping the correction allocation.
    pub fn clear(&mut self) {
        self.corrections.clear();
        self.cycles = 0;
        self.idle = false;
        self.committed_through = None;
    }
}

/// When a [`Decoder`] turns provisional corrections into committed ones
/// (see the module docs for the full contract). Advertised through
/// [`Decoder::commit_hint`] so callers can size ring buffers and
/// interpret latency without knowing the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitHint {
    /// The commit cadence.
    pub cadence: CommitCadence,
    /// `true` when per-step [`DecodeOutput::cycles`] figures come from a
    /// real hardware cycle model (QECOOL's SFQ schedule). Backends
    /// without one (the graph decoders) report structural zeros, which
    /// consumers should render as "no cycle model" rather than as a
    /// measured zero-cycle decode.
    pub has_cycle_model: bool,
}

/// The commit cadences a [`CommitHint`] can advertise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitCadence {
    /// Rounds commit as the decoder retires them, typically within a few
    /// rounds of ingest (bounded by the decoder's internal occupancy).
    Incremental,
    /// Sliding window: decode `window` rounds, commit the oldest
    /// `stride`, slide. Commit latency is bounded by `window` rounds.
    Windowed {
        /// Rounds decoded per window.
        window: u64,
        /// Rounds committed (and slid past) per window.
        stride: u64,
    },
    /// Nothing commits before [`Decoder::finish`].
    Deferred,
}

impl CommitHint {
    /// An incremental-commit hint (no cycle model claimed).
    pub fn incremental() -> Self {
        Self {
            cadence: CommitCadence::Incremental,
            has_cycle_model: false,
        }
    }

    /// A sliding-window hint for window `window`, stride `stride`.
    pub fn windowed(window: u64, stride: u64) -> Self {
        Self {
            cadence: CommitCadence::Windowed { window, stride },
            has_cycle_model: false,
        }
    }

    /// The conservative everything-at-`finish` hint — the default for
    /// implementations predating the commit contract.
    pub fn deferred() -> Self {
        Self {
            cadence: CommitCadence::Deferred,
            has_cycle_model: false,
        }
    }

    /// Marks the hint as backed by a real cycle model.
    pub fn with_cycle_model(mut self) -> Self {
        self.has_cycle_model = true;
        self
    }

    /// Upper bound on how many rounds the decoder buffers before
    /// committing them — what a caller should size lookahead buffers
    /// against. 0 for incremental commit (rounds retire as decoded; any
    /// residue is the decoder's own bounded registers), the window width
    /// for windowed commit, `None` for deferred commit (the bound is the
    /// stream length).
    pub fn lookahead_rounds(&self) -> Option<u64> {
        match self.cadence {
            CommitCadence::Incremental => Some(0),
            CommitCadence::Windowed { window, .. } => Some(window),
            CommitCadence::Deferred => None,
        }
    }
}

/// A streaming surface-code decoder: one detection round in, bounded
/// decode work out.
///
/// The contract mirrors the hardware loop of the paper:
///
/// 1. [`Self::ingest`] one measurement round (the `Push` broadcast);
///    buffer overflow is the failure mode of a too-slow decoder (§V-B).
/// 2. [`Self::decode_step`] with the per-round cycle budget; apply the
///    emitted corrections before the next round arrives.
/// 3. At end of stream, [`Self::finish`] decodes every pending layer
///    (the perfect closing round of a memory experiment).
///
/// Implementations must be deterministic: the same round sequence and
/// budgets must produce byte-identical corrections.
pub trait Decoder {
    /// Ingests one detection-event round.
    ///
    /// # Errors
    ///
    /// Returns [`RegOverflow`] when the decoder's round buffer is full —
    /// the caller must count the stream as failed.
    fn ingest(&mut self, round: &DetectionRound) -> Result<(), RegOverflow>;

    /// Decodes for at most `budget` cycles (`None` = until idle),
    /// appending any corrections to `out.corrections`, recording the
    /// cycles spent and raising `out.committed_through` to the current
    /// commit watermark. `out` is cleared first.
    fn decode_step(&mut self, budget: Option<u64>, out: &mut DecodeOutput);

    /// Closes the stream by committing everything remaining: decodes
    /// every pending layer regardless of budgets or window thresholds,
    /// appending corrections to `out.corrections` and raising
    /// `out.committed_through` to the last ingested round. `out` is
    /// cleared first.
    fn finish(&mut self, out: &mut DecodeOutput);

    /// Returns the decoder to its freshly-constructed state without
    /// dropping allocations, so one instance serves many sessions.
    fn reset(&mut self);

    /// Ingests rounds back-to-back until the batch is exhausted or the
    /// round buffer overflows, returning how many rounds were accepted.
    ///
    /// A return value equal to `rounds.len()` means the whole batch went
    /// in; anything smaller means ingestion stopped at the first
    /// overflow and the remaining rounds were not consumed — the caller
    /// must count the stream as failed, exactly as for [`Self::ingest`].
    /// This is the decoder-side half of batched ingest: a caller can hand
    /// a run of buffered rounds to the backend in one call instead of a
    /// per-round virtual dispatch.
    fn ingest_batch(&mut self, rounds: &[DetectionRound]) -> usize {
        for (accepted, round) in rounds.iter().enumerate() {
            if self.ingest(round).is_err() {
                return accepted;
            }
        }
        rounds.len()
    }

    /// How this backend commits (see the module docs). Defaults to
    /// [`CommitHint::deferred`], which is always safe: callers then
    /// treat every correction as provisional until [`Self::finish`].
    fn commit_hint(&self) -> CommitHint {
        CommitHint::deferred()
    }
}

impl QecoolDecoder {
    /// The commit watermark implied by the register state: layers retire
    /// FIFO, so every round pushed and no longer occupying a register
    /// layer is final.
    fn watermark(&self) -> Option<u64> {
        let retired = self.rounds_pushed() - self.occupancy();
        (retired > 0).then(|| retired as u64 - 1)
    }
}

impl Decoder for QecoolDecoder {
    fn ingest(&mut self, round: &DetectionRound) -> Result<(), RegOverflow> {
        self.push_round(round)
    }

    fn decode_step(&mut self, budget: Option<u64>, out: &mut DecodeOutput) {
        out.clear();
        let mut report = std::mem::take(&mut self.api_scratch);
        self.run_into(budget, &mut report);
        out.corrections.extend_from_slice(&report.corrections);
        out.cycles = report.cycles;
        out.idle = report.idle;
        out.committed_through = self.watermark();
        self.api_scratch = report;
    }

    fn finish(&mut self, out: &mut DecodeOutput) {
        out.clear();
        let mut report = std::mem::take(&mut self.api_scratch);
        self.drain_into(&mut report);
        out.corrections.extend_from_slice(&report.corrections);
        out.cycles = report.cycles;
        out.idle = report.idle;
        out.committed_through = self.watermark();
        self.api_scratch = report;
    }

    fn reset(&mut self) {
        QecoolDecoder::reset(self);
    }

    fn commit_hint(&self) -> CommitHint {
        CommitHint::incremental().with_cycle_model()
    }
}

/// Where detection rounds come from — the ingest-side mirror of
/// [`Decoder`].
///
/// A source produces one [`DetectionRound`] at a time into a
/// caller-owned buffer (alloc-free, like the decode side) and describes
/// its own shape: how wide a round is, how many rounds it intends to
/// produce, and whether it heralds erasures. Two first-class
/// implementations exist:
///
/// * [`SimulatedSource`] — the internal simulator: a `CodePatch`, a
///   noise model and a seeded RNG. Decoder corrections feed back into
///   the patch through [`SyndromeSource::apply_corrections`], because a
///   correction changes the reference syndrome of every later round.
/// * `qecool_surface_code::packed::PackedReader` — a bit-packed
///   recording or externally sampled event file. Corrections are
///   already baked into the recorded rounds, so `apply_corrections`
///   keeps its default no-op body — which is exactly why a replayed
///   session reproduces the live session's corrections byte for byte.
///
/// The trait is object-safe: serving fabrics hold heterogeneous sources
/// as `Box<dyn SyndromeSource>`.
pub trait SyndromeSource {
    /// Bits per round (one per detector/ancilla).
    fn num_detectors(&self) -> usize;

    /// The code distance behind this source, when it is known (a foreign
    /// packed file may not carry one).
    fn distance(&self) -> Option<u32> {
        None
    }

    /// How many rounds this source intends to produce, when bounded.
    fn declared_rounds(&self) -> Option<u64> {
        None
    }

    /// Whether [`SyndromeSource::erasures`] will carry flags.
    fn has_erasures(&self) -> bool {
        false
    }

    /// Produces the next round into `out`, returning its 0-based round
    /// index, or `None` when the source is exhausted (or failed — a
    /// file-backed source parks its I/O error for retrieval).
    fn next_round_into(&mut self, out: &mut DetectionRound) -> Option<u64>;

    /// The erasure flags of the most recently produced round (one bit
    /// per data qubit), for sources that herald them.
    fn erasures(&self) -> Option<&BitVec> {
        None
    }

    /// Feeds decoder corrections back into the source. Live simulators
    /// must fold them into the patch so later rounds see the corrected
    /// state; recorded/external sources ignore them (the producer
    /// already did).
    fn apply_corrections(&mut self, corrections: &[Edge]) {
        let _ = corrections;
    }
}

/// The internal simulator behind the [`SyndromeSource`] seam: a
/// [`CodePatch`] advanced by a noise model and a seeded RNG, producing
/// exactly the round stream the pre-seam inline loops produced (same
/// per-round RNG draws, so digests are unchanged).
#[derive(Debug, Clone)]
pub struct SimulatedSource {
    patch: CodePatch,
    noise: AnyNoise,
    rng: ChaCha8Rng,
    limit: Option<u64>,
    produced: u64,
    erasure_plane: Option<BitVec>,
}

impl SimulatedSource {
    /// An unbounded source over `patch` under `noise`, drawing from
    /// `rng`. An erasure plane is allocated iff the noise family
    /// heralds erasures.
    pub fn new(patch: CodePatch, noise: AnyNoise, rng: ChaCha8Rng) -> Self {
        let erasure_plane = noise
            .tracks_erasures()
            .then(|| BitVec::zeros(patch.lattice().num_data_qubits()));
        Self {
            patch,
            noise,
            rng,
            limit: None,
            produced: 0,
            erasure_plane,
        }
    }

    /// Bounds the source to `rounds` rounds (after which
    /// [`SyndromeSource::next_round_into`] returns `None`).
    #[must_use]
    pub fn with_round_limit(mut self, rounds: u64) -> Self {
        self.limit = Some(rounds);
        self
    }

    /// The patch being simulated (e.g. for end-of-stream logical-error
    /// checks).
    pub fn patch(&self) -> &CodePatch {
        &self.patch
    }

    /// Mutable access to the patch (fault injection, closing rounds).
    pub fn patch_mut(&mut self) -> &mut CodePatch {
        &mut self.patch
    }

    /// The noise model driving this source.
    pub fn noise(&self) -> &AnyNoise {
        &self.noise
    }
}

impl SyndromeSource for SimulatedSource {
    fn num_detectors(&self) -> usize {
        self.patch.lattice().num_ancillas()
    }

    fn distance(&self) -> Option<u32> {
        Some(self.patch.lattice().distance() as u32)
    }

    fn declared_rounds(&self) -> Option<u64> {
        self.limit
    }

    fn has_erasures(&self) -> bool {
        self.erasure_plane.is_some()
    }

    fn next_round_into(&mut self, out: &mut DetectionRound) -> Option<u64> {
        if self.limit.is_some_and(|limit| self.produced >= limit) {
            return None;
        }
        match &mut self.erasure_plane {
            Some(flags) => {
                self.patch
                    .noisy_round_flagged_into(&self.noise, flags, &mut self.rng, out);
            }
            None => self.patch.noisy_round_into(&self.noise, &mut self.rng, out),
        }
        let round = self.produced;
        self.produced += 1;
        Some(round)
    }

    fn erasures(&self) -> Option<&BitVec> {
        self.erasure_plane.as_ref()
    }

    fn apply_corrections(&mut self, corrections: &[Edge]) {
        self.patch.apply_corrections(corrections.iter().copied());
    }
}

impl<R: Read> SyndromeSource for qecool_surface_code::PackedReader<R> {
    fn num_detectors(&self) -> usize {
        self.header().num_detectors as usize
    }

    fn distance(&self) -> Option<u32> {
        let d = self.header().distance;
        (d != 0).then_some(d)
    }

    fn declared_rounds(&self) -> Option<u64> {
        Some(self.header().rounds)
    }

    fn has_erasures(&self) -> bool {
        self.header().has_erasures()
    }

    fn next_round_into(&mut self, out: &mut DetectionRound) -> Option<u64> {
        qecool_surface_code::PackedReader::next_round_into(self, out)
    }

    fn erasures(&self) -> Option<&BitVec> {
        self.last_erasures()
    }

    // apply_corrections: default no-op. The recording already reflects
    // every correction the live session applied.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QecoolConfig;
    use qecool_surface_code::{CodePatch, Lattice};

    #[test]
    fn trait_drive_matches_inherent_api() {
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        patch.inject_error(lattice.horizontal_edge(2, 2));
        patch.inject_error(lattice.horizontal_edge(0, 1));
        let round = patch.perfect_round();

        let mut direct = QecoolDecoder::new(lattice.clone(), QecoolConfig::batch(1));
        direct.push_round(&round).unwrap();
        let report = direct.drain();

        let mut via_trait = QecoolDecoder::new(lattice, QecoolConfig::batch(1));
        let dyn_decoder: &mut dyn Decoder = &mut via_trait;
        dyn_decoder.ingest(&round).unwrap();
        let mut out = DecodeOutput::default();
        dyn_decoder.finish(&mut out);

        assert_eq!(out.corrections, report.corrections);
        assert_eq!(out.cycles, report.cycles);
        assert!(out.idle);
    }

    #[test]
    fn budgeted_steps_resume_until_idle() {
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        patch.inject_error(lattice.horizontal_edge(1, 1));
        patch.inject_error(lattice.horizontal_edge(3, 2));
        let mut decoder =
            QecoolDecoder::new(lattice.clone(), QecoolConfig::online().with_thv(None));
        decoder.ingest(&patch.perfect_round()).unwrap();

        let mut out = DecodeOutput::default();
        let mut all = Vec::new();
        let mut guard = 0;
        loop {
            decoder.decode_step(Some(4), &mut out);
            all.extend_from_slice(&out.corrections);
            if out.idle {
                break;
            }
            guard += 1;
            assert!(guard < 10_000, "budgeted stepping never went idle");
        }
        patch.apply_corrections(all.iter().copied());
        assert!(patch.syndrome_is_trivial());
    }

    #[test]
    fn ingest_batch_matches_sequential_ingest() {
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        patch.inject_error(lattice.horizontal_edge(2, 2));
        let rounds = vec![patch.perfect_round(), patch.perfect_round()];

        let mut sequential = QecoolDecoder::new(lattice.clone(), QecoolConfig::batch(2));
        for round in &rounds {
            sequential.ingest(round).unwrap();
        }
        let mut seq_out = DecodeOutput::default();
        sequential.finish(&mut seq_out);

        let mut batched = QecoolDecoder::new(lattice, QecoolConfig::batch(2));
        assert_eq!(batched.ingest_batch(&rounds), rounds.len());
        let mut batch_out = DecodeOutput::default();
        batched.finish(&mut batch_out);

        assert_eq!(batch_out.corrections, seq_out.corrections);
        assert_eq!(batch_out.cycles, seq_out.cycles);
    }

    #[test]
    fn ingest_batch_stops_at_the_first_overflow() {
        /// Accepts `capacity` rounds, then overflows forever.
        struct Brimming {
            capacity: usize,
            taken: usize,
        }
        impl Decoder for Brimming {
            fn ingest(&mut self, _round: &DetectionRound) -> Result<(), RegOverflow> {
                if self.taken == self.capacity {
                    return Err(RegOverflow::at(self.capacity));
                }
                self.taken += 1;
                Ok(())
            }
            fn decode_step(&mut self, _budget: Option<u64>, out: &mut DecodeOutput) {
                out.clear();
            }
            fn finish(&mut self, out: &mut DecodeOutput) {
                out.clear();
            }
            fn reset(&mut self) {
                self.taken = 0;
            }
        }

        let rounds = vec![DetectionRound::zeros(4); 5];
        let mut decoder = Brimming {
            capacity: 3,
            taken: 0,
        };
        assert_eq!(decoder.ingest_batch(&rounds), 3);
        // The failed batch consumed nothing past the overflow: after a
        // reset the remainder can be re-ingested from the cut point.
        decoder.reset();
        assert_eq!(decoder.ingest_batch(&rounds[3..]), 2);
    }

    #[test]
    fn default_commit_hint_is_deferred_for_legacy_impls() {
        /// A minimal impl of only the four required methods — the shape
        /// external implementations written before the commit contract
        /// have. It must keep compiling and advertise deferred commit.
        struct Legacy;
        impl Decoder for Legacy {
            fn ingest(&mut self, _round: &DetectionRound) -> Result<(), RegOverflow> {
                Ok(())
            }
            fn decode_step(&mut self, _budget: Option<u64>, out: &mut DecodeOutput) {
                out.clear();
            }
            fn finish(&mut self, out: &mut DecodeOutput) {
                out.clear();
            }
            fn reset(&mut self) {}
        }
        let hint = Legacy.commit_hint();
        assert_eq!(hint.cadence, CommitCadence::Deferred);
        assert!(!hint.has_cycle_model);
        assert_eq!(hint.lookahead_rounds(), None);
        // An untouched output reports "nothing committed" after clear.
        let mut out = DecodeOutput {
            committed_through: Some(7),
            ..DecodeOutput::default()
        };
        Legacy.decode_step(None, &mut out);
        assert_eq!(out.committed_through, None);
    }

    #[test]
    fn commit_hint_constructors_and_lookahead() {
        let windowed = CommitHint::windowed(15, 5);
        assert_eq!(
            windowed.cadence,
            CommitCadence::Windowed {
                window: 15,
                stride: 5
            }
        );
        assert_eq!(windowed.lookahead_rounds(), Some(15));
        let incremental = CommitHint::incremental().with_cycle_model();
        assert!(incremental.has_cycle_model);
        assert_eq!(incremental.lookahead_rounds(), Some(0));
    }

    #[test]
    fn qecool_reports_an_incremental_cycle_modelled_hint() {
        let lattice = Lattice::new(3).unwrap();
        let decoder = QecoolDecoder::new(lattice, QecoolConfig::online());
        let hint = decoder.commit_hint();
        assert_eq!(hint.cadence, CommitCadence::Incremental);
        assert!(hint.has_cycle_model);
    }

    #[test]
    fn qecool_watermark_rises_with_retired_layers_and_finish() {
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        patch.inject_error(lattice.horizontal_edge(2, 2));
        let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::online().with_thv(None));
        let mut out = DecodeOutput::default();

        let mut last = None;
        for _ in 0..6 {
            decoder.ingest(&patch.perfect_round()).unwrap();
            decoder.decode_step(None, &mut out);
            // Monotone and bounded by the newest ingested round.
            if let Some(w) = out.committed_through {
                assert!(last.is_none_or(|l| w >= l), "watermark regressed");
                assert!(w < decoder.rounds_pushed() as u64);
                last = Some(w);
            }
        }
        decoder.finish(&mut out);
        // Everything remaining commits at finish.
        assert_eq!(
            out.committed_through,
            Some(decoder.rounds_pushed() as u64 - 1)
        );
    }

    #[test]
    fn reset_through_the_trait_reuses_the_instance() {
        let lattice = Lattice::new(3).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        patch.inject_error(lattice.horizontal_edge(1, 0));
        let round = patch.perfect_round();
        let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::batch(2));
        let mut out = DecodeOutput::default();

        decoder.ingest(&round).unwrap();
        decoder.finish(&mut out);
        let first = out.corrections.clone();

        Decoder::reset(&mut decoder);
        assert!(decoder.is_drained());
        decoder.ingest(&round).unwrap();
        decoder.finish(&mut out);
        assert_eq!(out.corrections, first);
    }

    use qecool_surface_code::{NoiseSpec, PackedReader, PackedWriter, PhenomenologicalNoise};
    use rand::SeedableRng as _;
    use std::io::Cursor;

    #[test]
    fn simulated_source_matches_the_inline_loop() {
        // The seam must not change a single RNG draw: a SimulatedSource
        // and the historical patch + noise + rng loop, seeded alike,
        // produce identical round streams — with corrections fed back.
        let lattice = Lattice::new(5).unwrap();
        let noise_spec = NoiseSpec::Phenomenological { p: 0.05 };
        let mut source = SimulatedSource::new(
            CodePatch::new(lattice.clone()),
            noise_spec.build(),
            ChaCha8Rng::seed_from_u64(77),
        );
        let mut inline_patch = CodePatch::new(lattice.clone());
        let inline_noise = PhenomenologicalNoise::symmetric(0.05);
        let mut inline_rng = ChaCha8Rng::seed_from_u64(77);

        let mut via_seam = DetectionRound::zeros(lattice.num_ancillas());
        let mut inline = DetectionRound::zeros(lattice.num_ancillas());
        let fake_correction = [lattice.horizontal_edge(1, 1)];
        for round in 0..40u64 {
            assert_eq!(source.next_round_into(&mut via_seam), Some(round));
            inline_patch.noisy_round_into(&inline_noise, &mut inline_rng, &mut inline);
            assert_eq!(via_seam, inline, "round {round} diverged");
            // Corrections must reach the patch through the seam.
            source.apply_corrections(&fake_correction);
            inline_patch.apply_corrections(fake_correction.iter().copied());
        }
        assert_eq!(source.num_detectors(), lattice.num_ancillas());
        assert_eq!(source.distance(), Some(5));
        assert!(!source.has_erasures());
        assert_eq!(source.declared_rounds(), None);
    }

    #[test]
    fn simulated_source_round_limit_and_erasures() {
        let lattice = Lattice::new(3).unwrap();
        let spec = NoiseSpec::Erasure { p: 0.0, e: 1.0 };
        let mut source = SimulatedSource::new(
            CodePatch::new(lattice.clone()),
            spec.build(),
            ChaCha8Rng::seed_from_u64(3),
        )
        .with_round_limit(2);
        assert!(source.has_erasures());
        assert_eq!(source.declared_rounds(), Some(2));
        let mut out = DetectionRound::zeros(lattice.num_ancillas());
        assert_eq!(source.next_round_into(&mut out), Some(0));
        let flags = source.erasures().expect("erasure plane");
        assert_eq!(flags.len(), lattice.num_data_qubits());
        assert_eq!(flags.count_ones(), lattice.num_data_qubits(), "e = 1");
        assert_eq!(source.next_round_into(&mut out), Some(1));
        assert_eq!(source.next_round_into(&mut out), None, "limit reached");
    }

    #[test]
    fn recorded_rounds_replay_byte_identically_through_the_trait() {
        // Record a simulated session's rounds through the packed writer,
        // then replay the file through the same trait: every round (and
        // the shape metadata) must come back bit for bit.
        let lattice = Lattice::new(5).unwrap();
        let spec = NoiseSpec::Burst {
            p: 0.01,
            burst: 0.02,
            mean_len: 3.0,
        };
        let mut live = SimulatedSource::new(
            CodePatch::new(lattice.clone()),
            spec.build(),
            ChaCha8Rng::seed_from_u64(2021),
        )
        .with_round_limit(25);
        let mut writer = PackedWriter::new(
            Cursor::new(Vec::new()),
            5,
            lattice.num_ancillas() as u32,
            1,
            0,
        )
        .unwrap();
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        let mut recorded = Vec::new();
        while live.next_round_into(&mut round).is_some() {
            writer.write_plane(round.events(), None).unwrap();
            recorded.push(round.clone());
        }
        let file = writer.finish().unwrap().into_inner();

        let mut replay = PackedReader::new(Cursor::new(file)).unwrap();
        let source: &mut dyn SyndromeSource = &mut replay;
        assert_eq!(source.num_detectors(), lattice.num_ancillas());
        assert_eq!(source.distance(), Some(5));
        assert_eq!(source.declared_rounds(), Some(25));
        assert!(!source.has_erasures());
        for (idx, expected) in recorded.iter().enumerate() {
            assert_eq!(source.next_round_into(&mut round), Some(idx as u64));
            assert_eq!(&round, expected, "round {idx} diverged on replay");
            // Replay must ignore corrections: they are already baked in.
            source.apply_corrections(&[lattice.horizontal_edge(0, 0)]);
        }
        assert_eq!(source.next_round_into(&mut round), None);
        assert!(replay.take_error().is_none());
    }
}
