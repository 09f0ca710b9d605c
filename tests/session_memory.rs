//! A long-lived decoding session's heap stays flat: after warm-up, live
//! heap bytes must not grow with the number of rounds served, for every
//! backend. A decoder that appends per-round or per-match records to its
//! session state fails here long before it exhausts a server's memory.
//!
//! This is its own test binary because it installs a counting global
//! allocator, and it holds one test so nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use qecool_repro::surface_code::{CodePatch, DetectionRound, Lattice, NoiseSpec};
use qecool_repro::{
    CycleBudget, ServiceBackend, ServiceConfig, ShardedDecodeService, ShardedServiceConfig,
    SimulatedSource, SyndromeSource,
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
}
