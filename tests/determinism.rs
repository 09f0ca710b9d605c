//! Reproducibility guarantees: identical seeds must yield identical
//! physics, decoding decisions and telemetry across the whole stack.

use qecool_repro::sim::{run_trial, DecodeEngine, DecoderKind, McResult, TrialConfig};
use qecool_repro::surface_code::{CodePatch, DetectionRound, Edge, Lattice, NoiseSpec};
use qecool_repro::{
    CycleBudget, ServiceBackend, ServiceConfig, SessionId, ShardedDecodeService,
    ShardedServiceConfig, TelemetryHandle, WindowConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn trial_outcomes_are_bitwise_reproducible() {
    for decoder in [
        DecoderKind::BatchQecool,
        DecoderKind::Mwpm,
        DecoderKind::OnlineQecool {
            budget_cycles: 1000,
        },
    ] {
        let cfg = TrialConfig::standard(7, 0.02, decoder);
        for seed in [0u64, 1, 99, u64::MAX] {
            let a = run_trial(&cfg, seed);
            let b = run_trial(&cfg, seed);
            assert_eq!(a.logical_error, b.logical_error, "{decoder:?} seed {seed}");
            assert_eq!(a.overflow, b.overflow);
            assert_eq!(a.stats, b.stats);
        }
    }
}

#[test]
fn monte_carlo_is_schedule_independent() {
    // Thread scheduling must not leak into the aggregate: the per-trial
    // seeds are fixed, so repeated campaigns agree exactly.
    let cfg = TrialConfig::standard(5, 0.03, DecoderKind::BatchQecool);
    let a = DecodeEngine::new().run(&cfg, 200, 42);
    let b = DecodeEngine::new().run(&cfg, 200, 42);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.overflows, b.overflows);
    assert_eq!(a.matches, b.matches);
    assert_eq!(a.layer_cycles, b.layer_cycles);
    assert_eq!(a.vertical_hist, b.vertical_hist);
}

#[test]
fn different_seeds_give_different_noise() {
    let lattice = Lattice::new(5).unwrap();
    let noise = NoiseSpec::Phenomenological { p: 0.1 };
    let sample = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut patch = CodePatch::new(lattice.clone());
        patch.apply_data_noise(&noise, &mut rng);
        (0..patch.lattice().num_data_qubits())
            .map(|q| patch.has_error(qecool_repro::surface_code::Edge(q)))
            .collect::<Vec<bool>>()
    };
    assert_ne!(sample(1), sample(2), "seeds should decorrelate the noise");
    assert_eq!(sample(3), sample(3));
}

/// The parallel engine's aggregates are a pure function of `(cfg, shots,
/// base_seed)` — worker-thread count must never leak into any field of
/// the result, scalar or vector.
#[test]
fn engine_aggregates_identical_across_worker_counts() {
    let assert_identical = |a: &McResult, b: &McResult, label: &str| {
        assert_eq!(a.shots, b.shots, "{label}: shots");
        assert_eq!(a.failures, b.failures, "{label}: failures");
        assert_eq!(a.overflows, b.overflows, "{label}: overflows");
        assert_eq!(a.matches, b.matches, "{label}: matches");
        assert_eq!(a.layer_cycles, b.layer_cycles, "{label}: layer cycles");
        assert_eq!(a.vertical_hist, b.vertical_hist, "{label}: vertical hist");
    };
    // Cover both an overflow-free batch campaign and an online campaign
    // with real overflow pressure (d = 9 at a starved budget).
    let campaigns = [
        TrialConfig::standard(5, 0.03, DecoderKind::BatchQecool),
        TrialConfig::standard(9, 0.02, DecoderKind::OnlineQecool { budget_cycles: 200 }),
    ];
    for cfg in campaigns {
        let reference = DecodeEngine::with_threads(1).run(&cfg, 160, 2021);
        for threads in [2usize, 8] {
            let parallel = DecodeEngine::with_threads(threads).run(&cfg, 160, 2021);
            assert_identical(&parallel, &reference, &format!("{threads} threads"));
        }
    }
}

/// The decoding service's per-session corrections are a pure function of
/// the round stream, independent of both tuning knobs at once: how many
/// shards the service splits into and how many pump workers each shard's
/// pool runs. This is the
/// byte-identity `crates/bench/tests/service_cli.rs` holds the
/// `service_bench` binary to.
#[test]
fn sharded_sessions_identical_across_shard_and_worker_counts() {
    let sessions = 6usize;
    let rounds = 5usize;
    let lattice = Lattice::new(5).unwrap();
    let noise = NoiseSpec::Phenomenological { p: 0.04 };

    let run = |shards: usize, threads: usize| -> Vec<Vec<Edge>> {
        let config = ServiceConfig::new(5, ServiceBackend::Qecool, CycleBudget::at_clock(2.0e9))
            .with_threads(threads);
        let service = ShardedDecodeService::new(ShardedServiceConfig::new(config, shards)).unwrap();
        let ids: Vec<SessionId> = (0..sessions).map(|_| service.open_session()).collect();
        let mut patches: Vec<CodePatch> = (0..sessions)
            .map(|_| CodePatch::new(lattice.clone()))
            .collect();
        let mut rngs: Vec<ChaCha8Rng> = (0..sessions)
            .map(|s| ChaCha8Rng::seed_from_u64(4242 + s as u64))
            .collect();
        let mut collected: Vec<Vec<Edge>> = vec![Vec::new(); sessions];
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        for _ in 0..rounds {
            for s in 0..sessions {
                patches[s].noisy_round_into(&noise, &mut rngs[s], &mut round);
                service.push_round(ids[s], &round);
            }
            service.pump();
            for s in 0..sessions {
                let fresh = service.poll_corrections(ids[s]).unwrap();
                patches[s].apply_corrections(fresh.iter().copied());
                collected[s].extend(fresh);
            }
        }
        for s in 0..sessions {
            patches[s].perfect_round_into(&mut round);
            service.push_round(ids[s], &round);
            collected[s].extend(service.close_session(ids[s]).unwrap().corrections);
        }
        collected
    };

    let reference = run(1, 1);
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 2, 8] {
            assert_eq!(
                run(shards, threads),
                reference,
                "{shards} shards x {threads} pump workers"
            );
        }
    }
}

/// Telemetry is observational only: enabling a live metrics registry on
/// the fabric must not perturb a single correction byte, at any shard ×
/// worker combination — and the counters must actually move, so this
/// doubles as a liveness check on the instrumented hot paths.
#[test]
fn sharded_sessions_identical_with_telemetry_enabled() {
    let sessions = 6usize;
    let rounds = 5usize;
    let lattice = Lattice::new(5).unwrap();
    let noise = NoiseSpec::Phenomenological { p: 0.04 };

    let run = |shards: usize, threads: usize, telemetry: TelemetryHandle| -> Vec<Vec<Edge>> {
        let config = ServiceConfig::new(5, ServiceBackend::Qecool, CycleBudget::at_clock(2.0e9))
            .with_threads(threads)
            .with_telemetry(telemetry.clone());
        let service = ShardedDecodeService::new(ShardedServiceConfig::new(config, shards)).unwrap();
        let ids: Vec<SessionId> = (0..sessions).map(|_| service.open_session()).collect();
        let mut patches: Vec<CodePatch> = (0..sessions)
            .map(|_| CodePatch::new(lattice.clone()))
            .collect();
        let mut rngs: Vec<ChaCha8Rng> = (0..sessions)
            .map(|s| ChaCha8Rng::seed_from_u64(4242 + s as u64))
            .collect();
        let mut collected: Vec<Vec<Edge>> = vec![Vec::new(); sessions];
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        for _ in 0..rounds {
            for s in 0..sessions {
                patches[s].noisy_round_into(&noise, &mut rngs[s], &mut round);
                service.push_round(ids[s], &round);
            }
            service.pump();
            for s in 0..sessions {
                let fresh = service.poll_corrections(ids[s]).unwrap();
                patches[s].apply_corrections(fresh.iter().copied());
                collected[s].extend(fresh);
            }
        }
        for s in 0..sessions {
            patches[s].perfect_round_into(&mut round);
            service.push_round(ids[s], &round);
            collected[s].extend(service.close_session(ids[s]).unwrap().corrections);
        }
        collected
    };

    let reference = run(1, 1, TelemetryHandle::disabled());
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 2, 8] {
            let telemetry = TelemetryHandle::enabled();
            assert_eq!(
                run(shards, threads, telemetry.clone()),
                reference,
                "{shards} shards x {threads} pump workers with telemetry"
            );
            let snapshot = telemetry.snapshot().expect("enabled handle must snapshot");
            // Every session pushes `rounds` noisy rounds plus one final
            // perfect round; the final round decodes in the close's
            // unbudgeted drain, so it is ingested but not counted as a
            // budget-bound decoded round.
            let pushed = (sessions * (rounds + 1)) as u64;
            let decoded = (sessions * rounds) as u64;
            for (counter, expected) in [
                ("qecool_shard_enqueued_total", pushed),
                ("qecool_service_ingest_total", pushed),
                ("qecool_service_rounds_decoded_total", decoded),
                ("qecool_sessions_opened_total", sessions as u64),
                ("qecool_sessions_closed_total", sessions as u64),
            ] {
                assert_eq!(
                    snapshot.counter_total(counter),
                    expected,
                    "{counter} at {shards} shards x {threads} workers"
                );
            }
            assert_eq!(snapshot.counter_total("qecool_shard_dropped_total"), 0);
            assert_eq!(snapshot.gauge("qecool_sessions_open"), Some(0));
            // Every session a pool worker claims is one drain, so the
            // workers' share of the drains is at most all of them.
            let steals = snapshot.counter_total("qecool_pool_steals_total");
            let drains = snapshot.counter_total("qecool_service_drains_total");
            assert!(
                steals <= drains,
                "{steals} steals > {drains} drains at {shards} shards x {threads} workers"
            );
        }
    }
}

/// The sliding-window UF/MWPM backends extend the purity guarantee to
/// the full commit stream: every poll's corrections AND its commit
/// watermark are a pure function of the session's round stream — the
/// shard count, pump-worker count and window geometry may change *when*
/// work happens, never *what* commits. One poll record per serving
/// round keeps the per-poll boundaries in the comparison (a flat
/// concatenation would hide a commit migrating between polls). One
/// geometry decodes windows so long that its pumps provably hand
/// sessions to the worker pool, so the fanned-out drains are held to
/// the same streams as the inline ones.
#[test]
fn windowed_commit_streams_identical_across_shard_and_worker_counts() {
    let sessions = 4usize;
    let rounds = 24usize;
    let lattice = Lattice::new(5).unwrap();
    let noise = NoiseSpec::Phenomenological { p: 0.04 };

    type CommitStream = Vec<(Option<u64>, Vec<Edge>)>;
    let run = |backend: ServiceBackend,
               window: WindowConfig,
               shards: usize,
               threads: usize|
     -> (Vec<(CommitStream, Option<u64>)>, usize) {
        let config = ServiceConfig::new(5, backend, CycleBudget::at_clock(2.0e9))
            .with_threads(threads)
            .with_window(window);
        let service = ShardedDecodeService::new(ShardedServiceConfig::new(config, shards)).unwrap();
        let ids: Vec<SessionId> = (0..sessions).map(|_| service.open_session()).collect();
        let mut patches: Vec<CodePatch> = (0..sessions)
            .map(|_| CodePatch::new(lattice.clone()))
            .collect();
        let mut rngs: Vec<ChaCha8Rng> = (0..sessions)
            .map(|s| ChaCha8Rng::seed_from_u64(4242 + s as u64))
            .collect();
        let mut streams: Vec<CommitStream> = vec![Vec::new(); sessions];
        let mut round = DetectionRound::zeros(lattice.num_ancillas());
        for _ in 0..rounds {
            for s in 0..sessions {
                patches[s].noisy_round_into(&noise, &mut rngs[s], &mut round);
                service.push_round(ids[s], &round);
            }
            service.pump();
            for s in 0..sessions {
                let polled = service.poll_corrections(ids[s]).unwrap();
                patches[s].apply_corrections(polled.iter().copied());
                streams[s].push((polled.committed_through, polled.corrections));
            }
        }
        let closed = streams
            .into_iter()
            .zip(ids)
            .map(|(stream, id)| {
                let report = service.close_session(id).unwrap();
                (stream, report.committed_through)
            })
            .collect();
        (closed, service.pool_workers())
    };

    // `fans_out`: one 24-round MWPM window of a d = 5 session at p = 4 %
    // decodes far slower than the pump's fan-out cost, so at one shard a
    // pump that drained one of the 4 sessions hands the other 3 to the
    // pool whenever it may use more than one thread.
    for (backend, window, fans_out) in [
        (ServiceBackend::UnionFind, WindowConfig::new(9, 3), false),
        (ServiceBackend::UnionFind, WindowConfig::new(15, 5), false),
        (ServiceBackend::Mwpm, WindowConfig::new(9, 3), false),
        (ServiceBackend::Mwpm, WindowConfig::new(24, 8), true),
    ] {
        let (reference, _) = run(backend, window, 1, 1);
        // The stream is long enough that windows must have committed
        // *during* serving, not only at close — otherwise this test
        // would vacuously compare empty watermarks.
        assert!(
            reference
                .iter()
                .all(|(stream, _)| stream.iter().any(|(w, _)| w.is_some())),
            "{backend:?} {window:?}: no mid-stream commits to compare"
        );
        for (_, committed_at_close) in &reference {
            assert_eq!(
                *committed_at_close,
                Some(rounds as u64 - 1),
                "{backend:?} {window:?}: close must commit the whole stream"
            );
        }
        for shards in [1usize, 2, 4] {
            for threads in [1usize, 2, 8] {
                let (streams, pool_workers) = run(backend, window, shards, threads);
                assert_eq!(
                    streams, reference,
                    "{backend:?} {window:?} at {shards} shards x {threads} workers"
                );
                if fans_out && shards == 1 && threads > 1 {
                    assert!(
                        pool_workers > 0,
                        "{backend:?} {window:?} at 1 shard x {threads} workers never fanned out"
                    );
                }
            }
        }
    }
}

#[test]
fn base_seed_shifts_the_ensemble() {
    let cfg = TrialConfig::standard(5, 0.05, DecoderKind::BatchQecool);
    let a = DecodeEngine::new().run(&cfg, 300, 0);
    let b = DecodeEngine::new().run(&cfg, 300, 1_000_000);
    // Same distribution, different realizations: failure counts should
    // differ (with overwhelming probability) but stay in the same regime.
    assert_ne!(
        (a.failures, a.matches),
        (b.failures, b.matches),
        "independent ensembles should not collide exactly"
    );
}
