//! A long-lived decoding session's heap stays flat: after warm-up, live
//! heap bytes must not grow with the number of rounds served, for every
//! backend. A decoder that appends per-round or per-match records to its
//! session state fails here long before it exhausts a server's memory.
//!
//! It also bounds what one open session holds at all. A windowed
//! union-find session at d = 9 (W = 27, S = 9) held 27.4 KB after
//! 1000 warm-up rounds, its one-shard service included, when the decoder
//! allocated its graph-sized window scratch afresh for every decode.
//! That scratch (about 97 KB at this size) is now kept per thread, and
//! the decoder shares an O(d²) incidence template (2.6 KB at d = 9): the
//! session holds 30.0 KB. The 64 KiB bound lets the template in but
//! fails a session that keeps its own window scratch.
//!
//! This is its own test binary because it installs a counting global
//! allocator, and it holds one test so nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use qecool_repro::surface_code::{CodePatch, DetectionRound, Lattice, NoiseSpec, SyndromeHistory};
use qecool_repro::uf::UnionFindDecoder;
use qecool_repro::{
    CycleBudget, ServiceBackend, ServiceConfig, ShardedDecodeService, ShardedServiceConfig,
    SimulatedSource, SyndromeSource, WindowConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The system allocator, keeping a running count of live heap bytes.
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

const D: usize = 5;
const P: f64 = 0.01;
const WARMUP_ROUNDS: usize = 1_000;
const MEASURED_ROUNDS: usize = 5_000;
/// The long MWPM run: the blossom matcher's per-blossom lists once
/// stayed with their blossom numbers, each keeping the largest blossom
/// it ever held, and the heap crept past the bound by 200k rounds
/// (about 15 KB over this many).
const LONG_MWPM_ROUNDS: usize = 40_000;
/// Allowed rise in live heap bytes over the measured rounds: room for a
/// late buffer doubling, far below one record per round.
const MAX_GROWTH_BYTES: isize = 16 * 1024;

/// The windowed union-find session whose whole footprint is bounded.
const UF_D: usize = 9;
const UF_WINDOW: u64 = 27;
const UF_STRIDE: u64 = 9;
/// Live heap bytes one open union-find session (with its one-shard
/// service) may hold after warm-up: room for what it holds with an
/// O(d²) template, but not for a window's 97 KB of scratch on top.
const MAX_UF_SESSION_BYTES: isize = 64 * 1024;
/// Windows the thread decodes before the count starts, so that its
/// scratch lists have seen a busy window.
const WARMUP_WINDOWS: u64 = 200;

/// Serves `rounds` rounds of `source` through `session`: push, poll,
/// feed the corrections back.
fn serve(
    service: &ShardedDecodeService,
    session: qecool_repro::SessionId,
    source: &mut SimulatedSource,
    round: &mut DetectionRound,
    rounds: usize,
) {
    for _ in 0..rounds {
        source.next_round_into(round).expect("unbounded source");
        service.push_round(session, round);
        let fresh = service
            .poll_corrections(session)
            .expect("no overflow at p = 1 %");
        source.apply_corrections(&fresh);
    }
}

#[test]
fn live_heap_stays_flat_over_a_long_session() {
    let lattice = Lattice::new(D).unwrap();
    for (backend, measured_rounds) in [
        (ServiceBackend::Qecool, MEASURED_ROUNDS),
        (ServiceBackend::UnionFind, MEASURED_ROUNDS),
        (ServiceBackend::Mwpm, MEASURED_ROUNDS),
        (ServiceBackend::Mwpm, LONG_MWPM_ROUNDS),
    ] {
        let config = ServiceConfig::new(D, backend, CycleBudget::at_clock(2.0e9)).with_threads(1);
        let service = ShardedDecodeService::new(ShardedServiceConfig::new(config, 1)).unwrap();
        let session = service.open_session();
        let mut source = SimulatedSource::new(
            CodePatch::new(lattice.clone()),
            NoiseSpec::Phenomenological { p: P }.build(),
            ChaCha8Rng::seed_from_u64(2021),
        );
        let mut round = DetectionRound::zeros(lattice.num_ancillas());

        serve(&service, session, &mut source, &mut round, WARMUP_ROUNDS);
        let before = LIVE.load(Ordering::Relaxed);
        serve(&service, session, &mut source, &mut round, measured_rounds);
        let growth = LIVE.load(Ordering::Relaxed) - before;
        assert!(
            growth < MAX_GROWTH_BYTES,
            "{backend:?}: live heap grew {growth} B over {measured_rounds} rounds \
             ({:.1} B/round)",
            growth as f64 / measured_rounds as f64
        );
        service.close_session(session).unwrap();
    }

    // A thread keeps its union-find scratch for every session it
    // decodes: grow this thread's to the window's size first (the
    // one-worker service decodes on the calling thread), so what is
    // counted below is only what the session and its service hold.
    let lattice = Lattice::new(UF_D).unwrap();
    let noise = NoiseSpec::Phenomenological { p: P }.build();
    let decoder = UnionFindDecoder::new(lattice.clone());
    for seed in 0..WARMUP_WINDOWS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut patch = CodePatch::new(lattice.clone());
        let mut window = SyndromeHistory::new(lattice.clone());
        for _ in 0..UF_WINDOW {
            window.push(patch.noisy_round(&noise, &mut rng));
        }
        decoder.decode_components(&window, UF_STRIDE as usize);
    }
    drop(decoder);

    let before = LIVE.load(Ordering::Relaxed);
    let config = ServiceConfig::new(
        UF_D,
        ServiceBackend::UnionFind,
        CycleBudget::at_clock(2.0e9),
    )
    .with_threads(1)
    .with_window(WindowConfig::new(UF_WINDOW, UF_STRIDE));
    let service = ShardedDecodeService::new(ShardedServiceConfig::new(config, 1)).unwrap();
    let session = service.open_session();
    let mut source = SimulatedSource::new(
        CodePatch::new(lattice.clone()),
        NoiseSpec::Phenomenological { p: P }.build(),
        ChaCha8Rng::seed_from_u64(2021),
    );
    let mut round = DetectionRound::zeros(lattice.num_ancillas());
    serve(&service, session, &mut source, &mut round, WARMUP_ROUNDS);
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        held < MAX_UF_SESSION_BYTES,
        "a d = {UF_D} union-find session holds {held} B after warm-up"
    );
    service.close_session(session).unwrap();
}
