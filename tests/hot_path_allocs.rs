//! A warmed hot path allocates nothing: once every decoder and trial
//! buffer has grown to its working size, Monte-Carlo shots and served
//! window rounds run without calling the heap allocator.
//!
//! Two paths are counted:
//!
//! * `run_trial_into` shots on one `TrialScratch`, for every
//!   `DecoderKind` at d = 5 and 9, p = 1 % (the whole-history decode
//!   every Monte-Carlo campaign runs);
//! * `ingest` + `decode_step` rounds of a windowed union-find and MWPM
//!   decoder (W = 3d, S = d) at d = 5 and 9, p = 1 %, with the
//!   corrections fed back (the window commit every served session
//!   runs).
//!
//! Each path runs 2000 shots (or rounds) to warm up, then the same 2000
//! again, counted: a decoder's lists keep the capacity of the busiest
//! window they have met, so the counted pass meets no window larger
//! than one its buffers already hold, and what it allocates is what
//! every shot or window allocates. With fresh inputs instead, a few
//! buffers still grow when a shot sets a new record: 0 to 15 calls over
//! 2000 shots, lists of 64 B to about 130 KB, none of them per shot.
//! The counted pass may make at most [`MAX_ALLOCATIONS`] calls, far
//! below one per shot or per window; a union-find decode that collects
//! its components into fresh lists makes about 9 per shot at d = 5.
//!
//! This is its own test binary because it installs a counting global
//! allocator, and it holds one test so nothing else allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qecool_repro::decoder::api::{DecodeOutput, Decoder};
use qecool_repro::sim::trials::{run_trial_into, TrialScratch};
use qecool_repro::sim::{DecoderKind, TrialConfig, TrialOutcome};
use qecool_repro::surface_code::{CodePatch, DetectionRound, Lattice};
use qecool_repro::{NoiseSpec, StreamingMwpm, StreamingUf, WindowConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The system allocator, counting every call that hands out memory
/// (`realloc` included).
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for this allocator; the count is an atomic
// that publishes nothing else.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const P: f64 = 0.01;
/// Shots (or rounds) per pass: one to warm up, one counted.
const SHOTS: usize = 2_000;
/// Allocation calls allowed over the measured shots (or rounds).
const MAX_ALLOCATIONS: usize = 4;

/// Allocation calls `f` makes.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Runs shots `0..SHOTS` of `cfg` on one scratch and outcome.
fn shots(cfg: &TrialConfig, scratch: &mut TrialScratch, out: &mut TrialOutcome) {
    for seed in 0..SHOTS as u64 {
        run_trial_into(cfg, seed, scratch, out);
    }
}

/// Serves `SHOTS` noisy rounds of one seeded stream through a windowed
/// decoder from its reset state, feeding the corrections back into the
/// patch.
fn serve(
    decoder: &mut dyn Decoder,
    patch: &mut CodePatch,
    noise: &NoiseSpec,
    round: &mut DetectionRound,
    out: &mut DecodeOutput,
) {
    decoder.reset();
    patch.reset();
    let mut rng = ChaCha8Rng::seed_from_u64(2021);
    for _ in 0..SHOTS {
        patch.noisy_round_into(noise, &mut rng, round);
        decoder
            .ingest(round)
            .expect("windowed decoders never overflow");
        decoder.decode_step(None, out);
        patch.apply_corrections(out.corrections.iter().copied());
    }
}

#[test]
fn warmed_shots_and_window_rounds_do_not_allocate() {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for d in [5, 9] {
        for kind in [
            DecoderKind::BatchQecool,
            DecoderKind::OnlineQecool {
                budget_cycles: 2000,
            },
            DecoderKind::UnionFind,
            DecoderKind::Mwpm,
        ] {
            let cfg = TrialConfig::standard(d, P, kind);
            let mut scratch = TrialScratch::new();
            let mut out = TrialOutcome::default();
            shots(&cfg, &mut scratch, &mut out);
            let n = allocations(|| shots(&cfg, &mut scratch, &mut out));
            counts.push((format!("{kind:?} shots at d = {d}"), n));
        }

        let lattice = Lattice::new(d).unwrap();
        let window = WindowConfig::new(3 * d as u64, d as u64);
        let windowed: [(&str, Box<dyn Decoder>); 2] = [
            (
                "windowed UF",
                Box::new(StreamingUf::with_config(lattice.clone(), window)),
            ),
            (
                "windowed MWPM",
                Box::new(StreamingMwpm::with_config(lattice.clone(), window)),
            ),
        ];
        for (name, mut decoder) in windowed {
            let noise = NoiseSpec::Phenomenological { p: P }.build();
            let mut patch = CodePatch::new(lattice.clone());
            let mut round = DetectionRound::zeros(lattice.num_ancillas());
            let mut out = DecodeOutput::default();
            let mut run = || serve(decoder.as_mut(), &mut patch, &noise, &mut round, &mut out);
            run();
            let n = allocations(run);
            counts.push((format!("{name} rounds at d = {d}"), n));
        }
    }
    let over: Vec<String> = counts
        .iter()
        .filter(|&&(_, n)| n > MAX_ALLOCATIONS)
        .map(|(what, n)| format!("{what}: {n}"))
        .collect();
    assert!(
        over.is_empty(),
        "allocation calls over {SHOTS} warmed shots or rounds (at most \
         {MAX_ALLOCATIONS} allowed): {over:?}; every count: {counts:?}"
    );
}
