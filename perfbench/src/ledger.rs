//! The per-layer time ledger of a traced run.
//!
//! Spans are recorded from the harness around each call into a layer —
//! never inside the program — and summed per layer. An untraced
//! [`Tracer`] reads no clock, so timed runs pay one branch per call site.

use std::time::Instant;

/// A layer of the system, named after its module, plus the harness's
/// own bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SimulatedSource` / `PackedReader`: producing detection rounds.
    Source,
    /// `SyndromeSource::apply_corrections`: correction feedback.
    Feedback,
    /// `ring` + `shard`: `ShardedDecodeService::push_rounds`.
    Shard,
    /// `service`: `pump`.
    Pump,
    /// `service`: `poll_corrections`.
    Poll,
    /// `service`: `close_session`.
    Close,
    /// `trials` + `engine` + `campaign`: `CampaignRunner::run`.
    Engine,
    /// Digests, commit-lag tally and recording kept by the harness.
    Harness,
}

const LAYERS: usize = 8;

impl Layer {
    /// The layers whose spans tile a serving tick.
    pub const SERVE_LOOP: [Layer; 6] = [
        Layer::Source,
        Layer::Shard,
        Layer::Pump,
        Layer::Poll,
        Layer::Harness,
        Layer::Feedback,
    ];

    /// The layers whose spans tile a campaign round.
    pub const ENGINE_LOOP: [Layer; 2] = [Layer::Engine, Layer::Harness];
}

/// Sums span durations and call counts per layer.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    on: bool,
    ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl Tracer {
    /// A tracer that records spans when `on`, and reads no clock otherwise.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            ..Self::default()
        }
    }

    /// Opens a span (`None` when tracing is off).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Closes a span opened by [`Self::start`], covering `calls` calls
    /// into `layer`.
    #[inline]
    pub fn stop(&mut self, layer: Layer, started: Option<Instant>, calls: u64) {
        if let Some(t) = started {
            self.ns[layer as usize] += t.elapsed().as_nanos() as u64;
            self.calls[layer as usize] += calls;
        }
    }

    /// Nanoseconds spent in `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Calls made into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Nanoseconds spent in any of `layers`.
    pub fn sum_ns(&self, layers: &[Layer]) -> u64 {
        layers.iter().map(|&l| self.ns(l)).sum()
    }

    /// Adds another tracer's totals into this one.
    pub fn merge(&mut self, other: &Tracer) {
        for i in 0..LAYERS {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }
}

/// Largest share of a traced loop's wall clock its spans may leave
/// unattributed before the traced run fails.
pub const LEDGER_BOUND: f64 = 0.05;

/// Share of `wall_ns` not covered by the loop spans in `tracer`.
pub fn unattributed_frac(wall_ns: u64, tracer: &Tracer, layers: &[Layer]) -> f64 {
    (wall_ns as f64 - tracer.sum_ns(layers) as f64) / wall_ns.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_untraced_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let t = tr.start();
        assert!(t.is_none());
        tr.stop(Layer::Pump, t, 1);
        assert_eq!((tr.ns(Layer::Pump), tr.calls(Layer::Pump)), (0, 0));
    }

    #[test]
    fn spans_sum_per_layer_and_close_against_wall_clock() {
        let wall = Instant::now();
        let mut tr = Tracer::new(true);
        for layer in Layer::SERVE_LOOP {
            let t = tr.start();
            std::hint::black_box((0..10_000u64).sum::<u64>());
            tr.stop(layer, t, 2);
        }
        let wall_ns = wall.elapsed().as_nanos() as u64;
        assert_eq!(tr.calls(Layer::Source), 2);
        let frac = unattributed_frac(wall_ns, &tr, &Layer::SERVE_LOOP);
        assert!((0.0..1.0).contains(&frac), "unattributed share {frac}");
        let mut total = Tracer::new(true);
        total.merge(&tr);
        total.merge(&tr);
        assert_eq!(total.calls(Layer::Source), 4);
        assert_eq!(total.ns(Layer::Pump), 2 * tr.ns(Layer::Pump));
    }
}
