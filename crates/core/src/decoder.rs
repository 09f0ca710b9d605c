//! The QECOOL spike-based on-line decoder (Algorithm 1 of the paper).
//!
//! # Architecture model
//!
//! The hardware of §IV is a `d × (d − 1)` grid of **Units** (one per
//! ancilla), one **Row Master** per row, two shared **Boundary Units**
//! (west/east), and one **Controller**. This module simulates that machine
//! at cycle granularity:
//!
//! * The Controller raster-scans Tokens over the grid from the north-west
//!   corner, one base depth `b` at a time, with a spike-radius budget `C`
//!   that grows from 1 to `N_limit` (the iterative-deepening greedy
//!   matching of §III-A).
//! * A Unit holding the Token whose `Reg[b]` is set becomes the **sink**:
//!   it requests spikes and waits. Every other Unit with a pending event
//!   fires a spike that routes dimension-ordered (through its own column
//!   to the sink's row, then along that row — the `SPIKE` procedure), one
//!   hop per clock, while the sink's own depth scan advances in lockstep.
//!   The first arrival — at time `spatial hops + Δt` — wins; equal-time
//!   arrivals resolve by the race-logic priority of the hardware's
//!   prioritization module (an own-register vertical hit needs no travel
//!   and wins ties; N > E > S > W among spikes; Boundary Units carry a
//!   configurable hop penalty per footnote 1).
//! * A successful race applies corrections along the reversed spike route
//!   (the Syndrome signal) and clears both register bits; a race that
//!   exceeds the timeout `C` leaves everything in place for a later, wider
//!   iteration.
//! * Row Masters skip token distribution over quiet rows in one cycle.
//! * When layer 0 is clear everywhere, the Controller broadcasts `Pop`
//!   (`SHIFTREG`), retiring the layer; per-layer cycle counts feed
//!   Table III.
//!
//! Like the hardware, the simulator pays for events, not for the grid.
//! [`RegFile`] keeps two summaries in step with every push, clear and
//! shift: the set of live units (bit `u` set iff unit `u` holds a
//! pending event) and the count of units with a layer-0 event. A quiet
//! row is a masked test of the live set, a race visits only live units,
//! a push visits only the fired ones, and the `Pop` condition reads the
//! count — no Controller step scans every unit.
//!
//! The decoder is *resumable*: [`Decoder::decode_step`] accepts a cycle
//! budget and pauses mid-scan when it is exhausted, which is how the
//! frequency sweep of Fig. 7 (500 MHz / 1 GHz / 2 GHz against the 1 µs
//! measurement interval) is reproduced. [`Decoder`] is the only way to
//! drive it: steps write straight into the caller's [`DecodeOutput`], and
//! the decoder keeps its own fixed-size [`DecodeStats`].

use qecool_surface_code::{Ancilla, Boundary, DetectionRound, Lattice};

use crate::api::{CommitHint, DecodeOutput, DecodeStats, Decoder};
use crate::config::QecoolConfig;
use crate::reg::{RegFile, RegOverflow};

/// Cycle cost of a Row Master row check / skip.
const COST_ROW_CHECK: u64 = 1;
/// Cycle cost of handing the Token to one Unit.
const COST_TOKEN: u64 = 1;
/// Cycle cost of the `Pop` broadcast.
const COST_SHIFT: u64 = 1;
/// Tie-break class of a vertical (own-register) hit in the spike race.
const VERTICAL_CLASS: u8 = 0;

/// How a sink's race was resolved.
#[derive(Debug, Clone, Copy)]
enum Winner {
    Spatial { unit: usize, layer: usize },
    VerticalSelf { layer: usize },
    Boundary { side: Boundary },
}

/// Controller scan position (resumable across budgeted runs).
#[derive(Debug, Clone, Copy)]
struct ScanState {
    /// Spike-radius iteration `C`, 1-based.
    c: u32,
    /// Base depth `b`.
    b: usize,
    /// Next row to process.
    row: usize,
    /// Accumulated `shift` flag of the current sweep.
    shift_ok: bool,
}

impl ScanState {
    fn restart() -> Self {
        Self {
            c: 1,
            b: 0,
            row: 0,
            shift_ok: true,
        }
    }
}

/// The QECOOL decoder for one logical qubit (one error sector).
///
/// # Example
///
/// Batch-decode a single data error:
///
/// ```
/// use qecool::{DecodeOutput, Decoder, QecoolConfig, QecoolDecoder};
/// use qecool_surface_code::{CodePatch, Lattice};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lattice = Lattice::new(5)?;
/// let mut patch = CodePatch::new(lattice.clone());
/// patch.inject_error(lattice.horizontal_edge(2, 2));
///
/// let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::batch(1));
/// decoder.ingest(&patch.perfect_round())?;
/// let mut out = DecodeOutput::default();
/// decoder.finish(&mut out);
/// patch.apply_corrections(out.corrections.iter().copied());
/// assert!(patch.syndrome_is_trivial());
/// assert!(!patch.has_logical_error());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QecoolDecoder {
    lattice: Lattice,
    config: QecoolConfig,
    regs: RegFile,
    scan: ScanState,
    stats: DecodeStats,
    nlimit: u32,
    /// Total measurement rounds pushed since construction.
    rounds_pushed: usize,
    /// Cycles accumulated since the last shift (per-layer accounting).
    cycles_since_shift: u64,
}

impl QecoolDecoder {
    /// Creates a decoder for the given lattice and configuration.
    pub fn new(lattice: Lattice, config: QecoolConfig) -> Self {
        let nlimit = config.effective_nlimit(lattice.rows(), lattice.cols());
        let regs = RegFile::new(lattice.num_ancillas(), config.reg_capacity);
        Self {
            lattice,
            config,
            regs,
            scan: ScanState::restart(),
            stats: DecodeStats::default(),
            nlimit,
            rounds_pushed: 0,
            cycles_since_shift: 0,
        }
    }

    /// The lattice this decoder operates on.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// The active configuration.
    pub fn config(&self) -> &QecoolConfig {
        &self.config
    }

    /// Number of layers currently buffered in the registers.
    pub fn occupancy(&self) -> usize {
        self.regs.occupancy()
    }

    /// Total measurement rounds pushed so far.
    pub fn rounds_pushed(&self) -> usize {
        self.rounds_pushed
    }

    /// `true` once every pushed layer has been decoded and retired.
    pub fn is_drained(&self) -> bool {
        self.regs.occupancy() == 0
    }

    /// The commit watermark implied by the register state: layers retire
    /// FIFO, so every round pushed and no longer occupying a register
    /// layer is final.
    fn watermark(&self) -> Option<u64> {
        let retired = self.rounds_pushed - self.occupancy();
        (retired > 0).then(|| retired as u64 - 1)
    }

    /// `true` when a Controller step can make progress.
    fn work_available(&self, ignore_thv: bool) -> bool {
        if self.regs.occupancy() == 0 {
            return false;
        }
        if self.regs.layer_zero_clear() {
            return true; // a Pop is possible
        }
        match self.config.thv {
            _ if ignore_thv => true,
            None => true,
            Some(thv) => self.regs.occupancy() > thv,
        }
    }

    /// Steps the Controller for at most `budget` cycles (`None` = until
    /// idle), writing into a cleared `out`. `ignore_thv` closes a stream:
    /// every layer decodes regardless of the vertical threshold.
    fn run(&mut self, budget: Option<u64>, ignore_thv: bool, out: &mut DecodeOutput) {
        out.clear();
        loop {
            if !self.work_available(ignore_thv) {
                out.idle = true;
                break;
            }
            if budget.is_some_and(|b| out.cycles >= b) {
                break;
            }
            self.step(ignore_thv, out);
        }
        out.committed_through = self.watermark();
    }

    /// Executes one Controller action: a row scan or a sweep-end decision.
    fn step(&mut self, ignore_thv: bool, out: &mut DecodeOutput) {
        if self.scan.row < self.lattice.rows() && self.scan.b < self.regs.occupancy() {
            let cost = self.process_row(ignore_thv, out);
            self.charge(cost, out);
            self.scan.row += 1;
            return;
        }
        // Sweep over (c, b) finished (or b out of range): sweep-end logic.
        if self.scan.shift_ok && self.regs.occupancy() > 0 && self.regs.layer_zero_clear() {
            self.regs.shift();
            self.charge(COST_SHIFT, out);
            self.stats.layer_cycles.push(self.cycles_since_shift);
            self.cycles_since_shift = 0;
            self.scan = ScanState::restart();
            return;
        }
        // Advance to the next base depth / radius.
        self.scan.row = 0;
        self.scan.shift_ok = true;
        self.scan.b += 1;
        if self.scan.b >= self.regs.occupancy() {
            self.scan.b = 0;
            self.scan.c += 1;
            if self.scan.c > self.nlimit {
                self.scan.c = 1;
            }
        }
    }

    fn charge(&mut self, cost: u64, out: &mut DecodeOutput) {
        out.cycles += cost;
        self.cycles_since_shift += cost;
    }

    /// Whether base depth `b` is decodable (`m − b > th_v`).
    fn eligible(&self, b: usize, ignore_thv: bool) -> bool {
        if b >= self.regs.occupancy() {
            return false;
        }
        if ignore_thv {
            return true;
        }
        match self.config.thv {
            None => true,
            Some(thv) => self.regs.occupancy() - b > thv,
        }
    }

    /// Processes one row at the current `(c, b)` scan position. Returns
    /// the cycle cost.
    fn process_row(&mut self, ignore_thv: bool, out: &mut DecodeOutput) -> u64 {
        let row = self.scan.row;
        let b = self.scan.b;
        let cols = self.lattice.cols();
        let row_base = row * cols;

        // Row Master: skip quiet rows in one cycle ("avoid giving the
        // Token to the row").
        if self.regs.range_quiet(row_base..row_base + cols) {
            return COST_ROW_CHECK;
        }
        if !self.eligible(b, ignore_thv) {
            // The Row Master still reports the row's layer-0 status for the
            // shift decision.
            self.scan.shift_ok &= (0..cols).all(|j| !self.regs.get(row_base + j, 0));
            return COST_ROW_CHECK;
        }

        let mut cost = COST_ROW_CHECK;
        for j in 0..cols {
            let u = row_base + j;
            cost += COST_TOKEN;
            if self.regs.get(u, b) {
                cost += self.race(u, b, out);
            }
            self.scan.shift_ok &= !self.regs.get(u, 0);
        }
        cost
    }

    /// Runs the spike race for a sink Unit `u` holding an event at depth
    /// `b`, with the current radius timeout. Returns the cycle cost.
    fn race(&mut self, sink: usize, b: usize, out: &mut DecodeOutput) -> u64 {
        let timeout = self.scan.c as u64;
        let sink_a = self.lattice.ancilla_from_index(sink);

        // Candidate key: (arrival, class, direction priority, unit index).
        // class: VERTICAL_CLASS = own-register vertical hit, 1 = spike
        // from another Unit, 2 = Boundary Unit (penalty usually decides
        // already).
        let mut best: Option<((u64, u8, u8, usize), Winner)> = None;
        let consider = |key: (u64, u8, u8, usize), w: Winner, best: &mut Option<_>| {
            if key.0 <= timeout && best.as_ref().is_none_or(|(k, _)| key < *k) {
                *best = Some((key, w));
            }
        };

        // Spikes from every other Unit with a pending event at depth >= b.
        // The key ends in the unit index, so visiting only the live units
        // picks the same winner as visiting all of them.
        for u in self.regs.live_units() {
            if u == sink {
                continue;
            }
            if let Some(t) = self.regs.first_event_at_or_after(u, b) {
                let from = self.lattice.ancilla_from_index(u);
                let dist = self.lattice.grid_distance(from, sink_a);
                let arrival = dist as u64 + (t - b) as u64;
                let dir = direction_rank(sink_a, from);
                consider(
                    (arrival, 1, dir, u),
                    Winner::Spatial { unit: u, layer: t },
                    &mut best,
                );
            }
        }

        // The sink's own later events (pure measurement-error pairing).
        if let Some(t) = self.regs.first_event_at_or_after(sink, b + 1) {
            let arrival = (t - b) as u64;
            consider(
                (arrival, VERTICAL_CLASS, 0, sink),
                Winner::VerticalSelf { layer: t },
                &mut best,
            );
        }

        // Boundary Units (de-prioritized by the configured penalty).
        for side in [Boundary::West, Boundary::East] {
            let dist = self.lattice.boundary_distance(sink_a, side);
            let arrival = dist as u64 + self.config.boundary_penalty;
            let dir = match side {
                Boundary::East => 1,
                Boundary::West => 3,
            };
            consider(
                (arrival, 2, dir, usize::MAX),
                Winner::Boundary { side },
                &mut best,
            );
        }

        let Some(((arrival, ..), winner)) = best else {
            // Timed out: the event stays for a wider radius iteration.
            self.stats.timeouts += 1;
            return timeout;
        };

        // Apply the match: Syndrome signal retraces the spike route,
        // correcting one data qubit per hop; both register bits clear.
        // The match's vertical extent feeds Fig. 4(b).
        let dt = match winner {
            Winner::Spatial { unit, layer } => {
                let from = self.lattice.ancilla_from_index(unit);
                out.corrections.extend(self.lattice.route(from, sink_a));
                self.regs.clear(sink, b);
                self.regs.clear(unit, layer);
                layer - b
            }
            Winner::VerticalSelf { layer } => {
                self.regs.clear(sink, b);
                self.regs.clear(sink, layer);
                layer - b
            }
            Winner::Boundary { side } => {
                out.corrections
                    .extend(self.lattice.route_to_boundary(sink_a, side));
                self.regs.clear(sink, b);
                0
            }
        };
        self.stats.record_match(dt);

        // Spike in + Syndrome back, plus the request broadcast.
        2 * arrival + 1
    }
}

impl Decoder for QecoolDecoder {
    /// Feeds one detection-event round into every Unit's register (the
    /// `Push` broadcast of §IV-A). New data changes eligibility, so the
    /// Controller restarts its sweep from radius 1 and fresh events get
    /// the tight-radius pass first.
    ///
    /// # Panics
    ///
    /// Panics if the round width does not match the lattice.
    fn ingest(&mut self, round: &DetectionRound) -> Result<(), RegOverflow> {
        assert_eq!(
            round.events().len(),
            self.lattice.num_ancillas(),
            "round width does not match lattice"
        );
        self.regs.push_bits(round.events())?;
        self.rounds_pushed += 1;
        self.scan = ScanState::restart();
        Ok(())
    }

    fn decode_step(&mut self, budget: Option<u64>, out: &mut DecodeOutput) {
        self.run(budget, false, out);
    }

    fn finish(&mut self, out: &mut DecodeOutput) {
        self.run(None, true, out);
        debug_assert!(self.is_drained(), "finish left layers pending");
    }

    /// Returns the decoder to its freshly-constructed state — registers,
    /// scan position, statistics and counters — without reallocating.
    fn reset(&mut self) {
        self.regs.reset();
        self.scan = ScanState::restart();
        self.stats.clear();
        self.rounds_pushed = 0;
        self.cycles_since_shift = 0;
    }

    fn commit_hint(&self) -> CommitHint {
        CommitHint::incremental().with_cycle_model()
    }

    fn stats_into(&self, stats: &mut DecodeStats) {
        stats.clone_from(&self.stats);
    }
}

/// Race-logic arrival priority at the sink: N > E > S > W.
///
/// Spikes route through the initiator's column first, so same-column
/// initiators arrive vertically (N/S) and all others arrive horizontally
/// along the sink's row (E/W).
fn direction_rank(sink: Ancilla, from: Ancilla) -> u8 {
    if from.col == sink.col {
        if from.row < sink.row {
            0 // north
        } else {
            2 // south
        }
    } else if from.col > sink.col {
        1 // east
    } else {
        3 // west
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qecool_surface_code::{CodePatch, Edge, NoiseSpec, SyndromeHistory};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The decoder's statistics so far.
    fn stats_of(decoder: &QecoolDecoder) -> DecodeStats {
        let mut stats = DecodeStats::default();
        decoder.stats_into(&mut stats);
        stats
    }

    /// Closes `decoder`'s stream and returns the closing output.
    fn finish(decoder: &mut QecoolDecoder) -> DecodeOutput {
        let mut out = DecodeOutput::default();
        decoder.finish(&mut out);
        out
    }

    /// One budgeted step.
    fn step(decoder: &mut QecoolDecoder, budget: Option<u64>) -> DecodeOutput {
        let mut out = DecodeOutput::default();
        decoder.decode_step(budget, &mut out);
        out
    }

    /// Batch-decodes `rounds` perfect rounds of `patch`, applies the
    /// corrections and returns the closing output with the statistics.
    fn batch_decode(patch: &mut CodePatch, rounds: usize) -> (DecodeOutput, DecodeStats) {
        let lattice = patch.lattice().clone();
        let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::batch(rounds));
        for _ in 0..rounds {
            decoder.ingest(&patch.perfect_round()).unwrap();
        }
        let out = finish(&mut decoder);
        patch.apply_corrections(out.corrections.iter().copied());
        (out, stats_of(&decoder))
    }

    #[test]
    fn clean_patch_decodes_to_nothing() {
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice);
        let (out, stats) = batch_decode(&mut patch, 1);
        assert!(out.corrections.is_empty());
        assert_eq!(stats.matches, 0);
        assert!(stats.vertical_hist.is_empty());
        assert_eq!(stats.layer_cycles.count, 1);
        assert!(out.idle);
        assert!(patch.syndrome_is_trivial());
        // Quiet layer still costs the row-master sweep + shift.
        assert!(out.cycles >= 5);
    }

    #[test]
    fn corrects_every_single_qubit_error() {
        let lattice = Lattice::new(5).unwrap();
        for q in 0..lattice.num_data_qubits() {
            let mut patch = CodePatch::new(lattice.clone());
            patch.inject_error(Edge(q));
            batch_decode(&mut patch, 1);
            assert!(patch.syndrome_is_trivial(), "qubit {q} left syndrome");
            assert!(!patch.has_logical_error(), "qubit {q} flipped the logical");
        }
    }

    #[test]
    fn corrects_all_weight_two_horizontal_chains() {
        let lattice = Lattice::new(7).unwrap();
        for row in 0..7 {
            for pos in 0..6 {
                let mut patch = CodePatch::new(lattice.clone());
                patch.inject_error(lattice.horizontal_edge(row, pos));
                patch.inject_error(lattice.horizontal_edge(row, pos + 1));
                batch_decode(&mut patch, 1);
                assert!(patch.syndrome_is_trivial(), "chain at ({row},{pos})");
                assert!(
                    !patch.has_logical_error(),
                    "chain at ({row},{pos}) flipped the logical"
                );
            }
        }
    }

    #[test]
    fn pure_measurement_error_resolves_vertically() {
        // One flipped readout produces events at rounds t and t+1 on the
        // same unit; QECOOL must pair them without touching data qubits.
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        let mut decoder = QecoolDecoder::new(lattice.clone(), QecoolConfig::batch(3));
        let idx = lattice.ancilla_index(Ancilla::new(2, 1));

        let mut r0 = patch.perfect_round().into_inner();
        r0.toggle(idx);
        decoder.ingest(&DetectionRound::new(r0)).unwrap();
        let mut r1 = patch.perfect_round().into_inner();
        r1.toggle(idx);
        decoder.ingest(&DetectionRound::new(r1)).unwrap();
        decoder.ingest(&patch.perfect_round()).unwrap();

        let out = finish(&mut decoder);
        assert!(out.corrections.is_empty(), "{out:?}");
        let stats = stats_of(&decoder);
        assert_eq!(stats.matches, 1);
        // One match spanning one layer (a vertical self-pair, dt = 1).
        assert_eq!(stats.vertical_hist, vec![0, 1]);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.layer_cycles.count, 3);
    }

    #[test]
    fn prefers_near_spike_over_far_boundary() {
        let lattice = Lattice::new(7).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        patch.inject_error(lattice.horizontal_edge(3, 3));
        let (out, stats) = batch_decode(&mut patch, 1);
        // One spatial match at distance 1, dt = 0: the injected qubit.
        assert_eq!(out.corrections, vec![lattice.horizontal_edge(3, 3)]);
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.vertical_hist, vec![1]);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.layer_cycles.count, 1);
        assert!(patch.syndrome_is_trivial());
        assert!(!patch.has_logical_error());
    }

    #[test]
    fn boundary_event_matches_to_nearest_boundary() {
        let lattice = Lattice::new(7).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        patch.inject_error(lattice.horizontal_edge(2, 0));
        let (out, stats) = batch_decode(&mut patch, 1);
        // One West-boundary match at distance 1: the injected qubit.
        assert_eq!(out.corrections, vec![lattice.horizontal_edge(2, 0)]);
        assert_eq!(lattice.endpoints(out.corrections[0]).1, None);
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.vertical_hist, vec![1]);
        // The boundary penalty makes the radius-1 and radius-2 races
        // time out first.
        assert_eq!(stats.timeouts, 2);
        assert_eq!(stats.layer_cycles.count, 1);
        assert!(patch.syndrome_is_trivial());
        assert!(!patch.has_logical_error());
    }

    #[test]
    fn always_returns_to_code_space_under_noise() {
        let lattice = Lattice::new(7).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.05 };
        for seed in 0..30u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut patch = CodePatch::new(lattice.clone());
            let mut decoder = QecoolDecoder::new(lattice.clone(), QecoolConfig::batch(8));
            for _ in 0..7 {
                decoder
                    .ingest(&patch.noisy_round(&noise, &mut rng))
                    .unwrap();
            }
            decoder.ingest(&patch.perfect_round()).unwrap();
            let out = finish(&mut decoder);
            patch.apply_corrections(out.corrections.iter().copied());
            assert!(
                patch.syndrome_is_trivial(),
                "seed {seed}: decoder left residual syndrome"
            );
            assert!(decoder.is_drained());
        }
    }

    #[test]
    fn online_budget_pauses_and_resumes() {
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        // A healthy spread of errors.
        patch.inject_error(lattice.horizontal_edge(1, 1));
        patch.inject_error(lattice.horizontal_edge(3, 2));
        let mut decoder =
            QecoolDecoder::new(lattice.clone(), QecoolConfig::online().with_thv(None));
        decoder.ingest(&patch.perfect_round()).unwrap();

        // Tiny budget: should pause without finishing.
        let r1 = step(&mut decoder, Some(3));
        assert!(!r1.idle);
        assert!(r1.cycles >= 3);
        // Unbounded continuation must finish the job.
        let r2 = step(&mut decoder, None);
        assert!(r2.idle);
        let all: Vec<Edge> = r1
            .corrections
            .iter()
            .chain(r2.corrections.iter())
            .copied()
            .collect();
        patch.apply_corrections(all);
        assert!(patch.syndrome_is_trivial());
    }

    #[test]
    fn thv_blocks_decoding_until_enough_lookahead() {
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        patch.inject_error(lattice.horizontal_edge(2, 1));
        let mut decoder = QecoolDecoder::new(lattice.clone(), QecoolConfig::online());
        decoder.ingest(&patch.perfect_round()).unwrap();
        // Only one round pushed: th_v = 3 blocks layer 0 (events pending).
        let r = step(&mut decoder, None);
        assert!(r.idle);
        assert!(r.corrections.is_empty());
        assert_eq!(decoder.occupancy(), 1);
        // Three more quiet rounds unlock it (m = 4 > th_v = 3).
        for _ in 0..3 {
            decoder.ingest(&patch.perfect_round()).unwrap();
        }
        let r = step(&mut decoder, None);
        assert!(!r.corrections.is_empty());
        patch.apply_corrections(r.corrections.iter().copied());
        assert!(patch.syndrome_is_trivial());
    }

    #[test]
    fn quiet_layers_shift_even_below_thv() {
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::online());
        decoder.ingest(&patch.perfect_round()).unwrap();
        let r = step(&mut decoder, None);
        assert!(r.idle);
        assert!(decoder.is_drained(), "quiet layer should pop immediately");
    }

    #[test]
    fn overflow_reported_when_not_draining() {
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        patch.inject_error(lattice.horizontal_edge(2, 1));
        let mut decoder = QecoolDecoder::new(
            lattice,
            QecoolConfig::online()
                .with_reg_capacity(2)
                .with_thv(Some(3)),
        );
        // Layer 0 has an event; th_v = 3 can never be satisfied with
        // capacity 2, so the third push overflows.
        decoder.ingest(&patch.perfect_round()).unwrap();
        step(&mut decoder, None);
        decoder.ingest(&patch.perfect_round()).unwrap();
        step(&mut decoder, None);
        let err = decoder.ingest(&patch.perfect_round());
        assert!(err.is_err());
    }

    #[test]
    fn per_layer_cycles_recorded_per_shift() {
        let lattice = Lattice::new(5).unwrap();
        let mut patch = CodePatch::new(lattice.clone());
        let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::batch(3));
        for _ in 0..3 {
            decoder.ingest(&patch.perfect_round()).unwrap();
        }
        let out = finish(&mut decoder);
        let stats = stats_of(&decoder);
        assert_eq!(stats.layer_cycles.count, 3);
        assert!(stats.layer_cycles.sum > 0);
        assert_eq!(stats.layer_cycles.sum, out.cycles);
    }

    #[test]
    fn greedy_matches_adjacent_pair_before_far_boundary() {
        // Two events three rows apart in the center column: QECOOL should
        // pair them together (distance 3) rather than sending each to a
        // boundary (distance 3 + penalty each side for d=7 center col).
        let lattice = Lattice::new(7).unwrap();
        let a = Ancilla::new(1, 3);
        let b = Ancilla::new(4, 3);
        let mut patch = CodePatch::new(lattice.clone());
        for e in lattice.route(a, b) {
            patch.inject_error(e);
        }
        let (out, stats) = batch_decode(&mut patch, 1);
        // One spatial match at distance 3, dt = 0: the sink `a` (first in
        // raster order) wins `b`'s spike and retraces its route.
        assert_eq!(out.corrections, lattice.route(b, a).collect::<Vec<_>>());
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.vertical_hist, vec![1]);
        // Both sinks time out at radii 1 and 2 before radius 3 pairs them.
        assert_eq!(stats.timeouts, 4);
        assert_eq!(stats.layer_cycles.count, 1);
        assert!(patch.syndrome_is_trivial());
        assert!(!patch.has_logical_error());
    }

    #[test]
    fn history_round_trip_matches_push_loop() {
        // Pushing a SyndromeHistory round-by-round equals what the sim does.
        let lattice = Lattice::new(5).unwrap();
        let noise = NoiseSpec::Phenomenological { p: 0.03 };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut patch = CodePatch::new(lattice.clone());
        let mut history = SyndromeHistory::new(lattice.clone());
        for _ in 0..4 {
            history.push(patch.noisy_round(&noise, &mut rng));
        }
        history.push(patch.perfect_round());
        let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::batch(5));
        for round in &history {
            decoder.ingest(round).unwrap();
        }
        let out = finish(&mut decoder);
        patch.apply_corrections(out.corrections.iter().copied());
        assert!(patch.syndrome_is_trivial());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Whatever the error pattern, a drained batch decode returns
            /// the patch to the code space (the decoder contract).
            #[test]
            fn prop_batch_decode_clears_any_syndrome(
                seed in any::<u64>(),
                d in prop_oneof![Just(3usize), Just(5), Just(7)],
                rounds in 1usize..5,
                p in 0.0f64..0.15,
            ) {
                let lattice = Lattice::new(d).unwrap();
                let noise =
                    qecool_surface_code::NoiseSpec::Phenomenological { p };
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut patch = CodePatch::new(lattice.clone());
                let mut decoder =
                    QecoolDecoder::new(lattice, QecoolConfig::batch(rounds + 1));
                for _ in 0..rounds {
                    decoder
                        .ingest(&patch.noisy_round(&noise, &mut rng))
                        .unwrap();
                }
                decoder.ingest(&patch.perfect_round()).unwrap();
                let out = finish(&mut decoder);
                patch.apply_corrections(out.corrections.iter().copied());
                prop_assert!(patch.syndrome_is_trivial());
                prop_assert!(decoder.is_drained());
            }

            /// Every match clears exactly the register bits it claims:
            /// after a drain, total matches account for all events. A
            /// boundary match consumes one event and emits exactly one
            /// boundary edge (its last hop); a pair match consumes two and
            /// emits only bulk edges.
            #[test]
            fn prop_matches_consume_all_events(
                seed in any::<u64>(),
                errors in 0usize..8,
            ) {
                let lattice = Lattice::new(5).unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut patch = CodePatch::new(lattice.clone());
                for _ in 0..errors {
                    let q = rand::Rng::gen_range(&mut rng, 0..lattice.num_data_qubits());
                    patch.inject_error(Edge(q));
                }
                let round = patch.perfect_round();
                let events = round.num_events();
                let mut decoder =
                    QecoolDecoder::new(lattice.clone(), QecoolConfig::batch(1));
                decoder.ingest(&round).unwrap();
                let out = finish(&mut decoder);
                let boundary_matches = out
                    .corrections
                    .iter()
                    .filter(|&&e| lattice.endpoints(e).1.is_none())
                    .count();
                let matches = stats_of(&decoder).matches;
                prop_assert_eq!(2 * matches - boundary_matches, events);
            }

            /// Cycle accounting is conserved: the per-layer aggregate sums
            /// to the cycles the steps reported, and every retired layer
            /// is counted.
            #[test]
            fn prop_cycle_accounting_is_conserved(
                seed in any::<u64>(),
                rounds in 1usize..6,
            ) {
                let lattice = Lattice::new(5).unwrap();
                let noise =
                    qecool_surface_code::NoiseSpec::Phenomenological { p: 0.05 };
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut patch = CodePatch::new(lattice.clone());
                let mut decoder =
                    QecoolDecoder::new(lattice, QecoolConfig::batch(rounds + 1));
                for _ in 0..rounds {
                    decoder
                        .ingest(&patch.noisy_round(&noise, &mut rng))
                        .unwrap();
                }
                decoder.ingest(&patch.perfect_round()).unwrap();
                let out = finish(&mut decoder);
                let stats = stats_of(&decoder);
                prop_assert_eq!(stats.layer_cycles.count, rounds as u64 + 1);
                prop_assert_eq!(stats.layer_cycles.sum, out.cycles);
            }

            /// The same rounds pushed into batch decoders of different
            /// (sufficient) capacities decode identically.
            #[test]
            fn prop_capacity_margin_is_inert(
                seed in any::<u64>(),
            ) {
                let lattice = Lattice::new(5).unwrap();
                let noise =
                    qecool_surface_code::NoiseSpec::Phenomenological { p: 0.06 };
                let mut corrections = Vec::new();
                for capacity in [4usize, 8, 16] {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let mut patch = CodePatch::new(lattice.clone());
                    let mut decoder = QecoolDecoder::new(
                        lattice.clone(),
                        QecoolConfig::batch(capacity),
                    );
                    for _ in 0..3 {
                        decoder
                            .ingest(&patch.noisy_round(&noise, &mut rng))
                            .unwrap();
                    }
                    decoder.ingest(&patch.perfect_round()).unwrap();
                    corrections.push(finish(&mut decoder).corrections);
                }
                prop_assert_eq!(&corrections[0], &corrections[1]);
                prop_assert_eq!(&corrections[1], &corrections[2]);
            }
        }
    }

    #[test]
    fn direction_priority_orders_north_first() {
        let sink = Ancilla::new(2, 2);
        assert_eq!(direction_rank(sink, Ancilla::new(0, 2)), 0); // N
        assert_eq!(direction_rank(sink, Ancilla::new(2, 4)), 1); // E
        assert_eq!(direction_rank(sink, Ancilla::new(4, 2)), 2); // S
        assert_eq!(direction_rank(sink, Ancilla::new(2, 0)), 3); // W
                                                                 // Off-axis initiators arrive horizontally.
        assert_eq!(direction_rank(sink, Ancilla::new(0, 3)), 1);
        assert_eq!(direction_rank(sink, Ancilla::new(4, 1)), 3);
    }
}
