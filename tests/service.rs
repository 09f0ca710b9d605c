//! Service ⇔ offline-engine equivalence: a [`ShardedDecodeService`]
//! session fed the same seeded noise stream as a Monte-Carlo trial must
//! produce byte-identical corrections — whatever the worker-thread count
//! — and reach the same logical outcome.

use qecool_repro::decoder::{DecodeOutput, Decoder, QecoolConfig, QecoolDecoder};
use qecool_repro::sim::{run_trial, DecoderKind, TrialConfig};
use qecool_repro::surface_code::{
    CodePatch, DetectionRound, Edge, Lattice, NoiseSpec, SyndromeHistory,
};
use qecool_repro::{
    CycleBudget, ServiceBackend, ServiceConfig, ServiceError, ShardedDecodeService,
    ShardedServiceConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const D: usize = 5;
const P: f64 = 0.03;
const ROUNDS: usize = 5;
/// 2 GHz against the 1 µs interval — the paper's headline budget.
const BUDGET_CYCLES: u64 = 2000;

/// The offline reference: exactly what `run_online_qecool` does inside a
/// Monte-Carlo trial, with the correction stream captured.
fn offline_qecool_corrections(seed: u64) -> (Vec<Edge>, bool) {
    let lattice = Lattice::new(D).unwrap();
    let mut patch = CodePatch::new(lattice.clone());
    let noise = NoiseSpec::Phenomenological { p: P };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::online());
    let mut out = DecodeOutput::default();
    let mut all = Vec::new();
    for _ in 0..ROUNDS {
        let round = patch.noisy_round(&noise, &mut rng);
        decoder.ingest(&round).expect("no overflow at this p/d");
        decoder.decode_step(Some(BUDGET_CYCLES), &mut out);
        patch.apply_corrections(out.corrections.iter().copied());
        all.extend_from_slice(&out.corrections);
    }
    let closing = patch.perfect_round();
    decoder.ingest(&closing).expect("no overflow at closing");
    decoder.finish(&mut out);
    patch.apply_corrections(out.corrections.iter().copied());
    all.extend_from_slice(&out.corrections);
    assert!(patch.syndrome_is_trivial());
    (all, patch.has_logical_error())
}

/// A one-shard service over `config`.
fn one_shard(config: ServiceConfig) -> ShardedDecodeService {
    ShardedDecodeService::new(ShardedServiceConfig::new(config, 1)).unwrap()
}

/// The same stream served through a one-shard service session.
fn service_qecool_corrections(seed: u64, threads: usize) -> (Vec<Edge>, bool) {
    let config = ServiceConfig::new(D, ServiceBackend::Qecool, CycleBudget::at_clock(2.0e9))
        .with_threads(threads);
    assert_eq!(config.budget.cycles_per_round(), BUDGET_CYCLES);
    let service = one_shard(config);
    let id = service.open_session();

    let lattice = Lattice::new(D).unwrap();
    let mut patch = CodePatch::new(lattice.clone());
    let noise = NoiseSpec::Phenomenological { p: P };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut round = DetectionRound::zeros(lattice.num_ancillas());
    let mut all = Vec::new();
    for _ in 0..ROUNDS {
        patch.noisy_round_into(&noise, &mut rng, &mut round);
        service.push_round(id, &round);
        let fresh = service.poll_corrections(id).unwrap();
        patch.apply_corrections(fresh.iter().copied());
        all.extend(fresh);
    }
    patch.perfect_round_into(&mut round);
    service.push_round(id, &round);
    let report = service.close_session(id).unwrap();
    patch.apply_corrections(report.corrections.iter().copied());
    all.extend(report.corrections);
    assert!(!report.overflowed);
    assert!(patch.syndrome_is_trivial());
    (all, patch.has_logical_error())
}

#[test]
fn qecool_sessions_match_offline_engine_bit_for_bit() {
    for seed in 0..12u64 {
        let (offline, offline_logical) = offline_qecool_corrections(seed);
        for threads in [1usize, 8] {
            let (served, served_logical) = service_qecool_corrections(seed, threads);
            assert_eq!(
                served, offline,
                "corrections diverged at seed {seed}, {threads} threads"
            );
            assert_eq!(served_logical, offline_logical, "seed {seed}");
        }
    }
}

#[test]
fn qecool_sessions_reach_the_trial_outcome() {
    // The trial harness is the other face of the same offline loop; the
    // service must land on the same logical verdict per seed.
    let cfg = TrialConfig::standard(
        D,
        P,
        DecoderKind::OnlineQecool {
            budget_cycles: BUDGET_CYCLES,
        },
    );
    for seed in 0..12u64 {
        let trial = run_trial(&cfg, seed);
        assert!(!trial.overflow);
        let (_, served_logical) = service_qecool_corrections(seed, 1);
        assert_eq!(served_logical, trial.logical_error, "seed {seed}");
    }
}

#[test]
fn windowed_sessions_match_offline_window_decoders() {
    for backend in [ServiceBackend::UnionFind, ServiceBackend::Mwpm] {
        for seed in 0..6u64 {
            // Shared noise realization.
            let lattice = Lattice::new(D).unwrap();
            let noise = NoiseSpec::Phenomenological { p: P };
            let mut patch = CodePatch::new(lattice.clone());
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut rounds: Vec<DetectionRound> = (0..ROUNDS)
                .map(|_| patch.noisy_round(&noise, &mut rng))
                .collect();
            rounds.push(patch.perfect_round());

            // Offline window decode.
            let mut history = SyndromeHistory::new(lattice.clone());
            for r in &rounds {
                history.push(r.clone());
            }
            let offline: Vec<Edge> = match backend {
                ServiceBackend::UnionFind => {
                    qecool_repro::uf::UnionFindDecoder::new(lattice.clone())
                        .decode(&history)
                        .corrections
                }
                ServiceBackend::Mwpm => {
                    qecool_repro::mwpm::MwpmDecoder::new(lattice.clone())
                        .decode(&history)
                        .unwrap()
                        .corrections
                }
                ServiceBackend::Qecool => unreachable!(),
            };

            // Service window decode.
            let config =
                ServiceConfig::new(D, backend, CycleBudget::at_clock(2.0e9)).with_threads(1);
            let service = one_shard(config);
            let id = service.open_session();
            service.push_rounds(rounds.iter().map(|round| (id, round)));
            let report = service.close_session(id).unwrap();
            assert_eq!(report.corrections, offline, "{backend:?} seed {seed}");
        }
    }
}

/// A starved budget (1 cycle/round) with an event-bearing stream: the
/// decoder falls behind and the registers must overflow.
fn starved_config(threads: usize) -> ServiceConfig {
    ServiceConfig::new(D, ServiceBackend::Qecool, CycleBudget::new(1.0, 1.0)).with_threads(threads)
}

/// Overflowed-session lifecycle on the **single-worker fast path** (one
/// session on one shard with one worker — the pump never consults the
/// worker pool): poll errors with [`ServiceError::Overflowed`], later
/// pushes are dropped and accounted, close still succeeds and reports
/// the failure with corrections withdrawn, and the stale handle is
/// rejected afterwards.
#[test]
fn overflowed_session_lifecycle_on_the_solo_fast_path() {
    let service = one_shard(starved_config(1));
    let id = service.open_session();
    let lattice = Lattice::new(D).unwrap();
    let mut patch = CodePatch::new(lattice.clone());
    let noise = NoiseSpec::Phenomenological { p: 0.2 };
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    let mut round = DetectionRound::zeros(lattice.num_ancillas());
    // Serve the same stream until the overflow surfaces; every round
    // after that is pushed into a failed session and must be dropped.
    let mut pushed_after_overflow = 0u64;
    for _ in 0..40 {
        patch.noisy_round_into(&noise, &mut rng, &mut round);
        service.push_round(id, &round);
        if service.is_overflowed(id).unwrap() {
            pushed_after_overflow += 1;
            continue;
        }
        service.pump();
        let _ = service.poll_corrections(id);
    }
    assert!(
        service.is_overflowed(id).unwrap(),
        "starved budget should overflow the registers"
    );
    assert!(
        pushed_after_overflow > 0,
        "the stream outlives the overflow"
    );
    assert!(matches!(
        service.poll_corrections(id),
        Err(ServiceError::Overflowed)
    ));
    assert_eq!(service.pool_workers(), 0, "one worker never fans out");
    assert_eq!(service.total_stats().dropped, pushed_after_overflow);

    let report = service.close_session(id).unwrap();
    assert!(report.overflowed);
    assert!(
        report.corrections.is_empty(),
        "a failed stream's corrections are withdrawn"
    );
    assert_eq!(report.rounds_dropped, pushed_after_overflow);
    // The handle died with the session: every entry point rejects it.
    assert!(matches!(
        service.poll_corrections(id),
        Err(ServiceError::UnknownSession)
    ));
    service.push_round(id, &round);
    assert_eq!(
        service.total_stats().dropped,
        pushed_after_overflow + 1,
        "a stale handle's push is dropped and counted"
    );
    assert!(matches!(
        service.close_session(id),
        Err(ServiceError::UnknownSession)
    ));
}

/// The same lifecycle through the **sharded fabric with a real worker
/// pool**: ingest is fire-and-forget, so the overflow surfaces at
/// poll, post-overflow pushes go to drop accounting instead of
/// vanishing, and the close report carries both verdict and drop count.
#[test]
fn overflowed_session_lifecycle_through_the_sharded_pool() {
    let config = ShardedServiceConfig::new(starved_config(4), 2);
    let service = ShardedDecodeService::new(config).unwrap();
    // A healthy neighbour session keeps its shard's pool busy and must
    // be unaffected by the other session's failure.
    let doomed = service.open_session();
    let healthy = service.open_session();
    let lattice = Lattice::new(D).unwrap();
    let mut patch = CodePatch::new(lattice.clone());
    let noise = NoiseSpec::Phenomenological { p: 0.2 };
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    let quiet = DetectionRound::zeros(lattice.num_ancillas());
    let mut round = quiet.clone();
    let mut overflow_seen = false;
    for i in 0..40 {
        patch.noisy_round_into(&noise, &mut rng, &mut round);
        service.push_round(doomed, &round);
        // The neighbour gets a stream short enough to stay inside its
        // registers — on a starved service *any* long stream overflows.
        if i < 3 {
            service.push_round(healthy, &quiet);
        }
        service.pump();
        assert!(service.poll_corrections(healthy).is_ok());
        if service.poll_corrections(doomed).is_err() {
            overflow_seen = true;
            break;
        }
    }
    assert!(
        overflow_seen,
        "starved budget should overflow the registers"
    );
    assert!(service.is_overflowed(doomed).unwrap());
    assert!(matches!(
        service.poll_corrections(doomed),
        Err(ServiceError::Overflowed)
    ));

    // Post-overflow rounds are fire-and-forget; they must
    // surface as drops in the close report, not vanish.
    let extra_rounds = 5u64;
    for _ in 0..extra_rounds {
        service.push_round(doomed, &round);
    }
    let report = service.close_session(doomed).unwrap();
    assert!(report.overflowed);
    assert!(report.corrections.is_empty());
    assert!(
        report.rounds_dropped >= extra_rounds,
        "expected at least {extra_rounds} accounted drops, got {}",
        report.rounds_dropped
    );
    assert!(service.total_stats().dropped >= extra_rounds);

    // Stale handle: rejected at every entry point that can answer.
    assert!(matches!(
        service.poll_corrections(doomed),
        Err(ServiceError::UnknownSession)
    ));
    assert!(matches!(
        service.close_session(doomed),
        Err(ServiceError::UnknownSession)
    ));

    // The neighbour is untouched by the failure and closes cleanly.
    let report = service.close_session(healthy).unwrap();
    assert!(!report.overflowed);
    assert_eq!(report.rounds_dropped, 0);
}
