//! Record/replay closes the ingest loop: sessions recorded through the
//! packed writer and replayed through [`SyndromeSource`] must produce
//! **byte-identical** corrections, poll by poll, plus identical close
//! reports — even for feedback-sensitive noise, because the recording
//! bakes the live correction feedback into the planes.
//!
//! CI's `replay-smoke` leg runs the same cycle at the process level
//! (`service_bench --record` / `--replay`, comparing session digests);
//! here the loop runs in-process against a multi-session
//! [`DecodeService`] so the round-major stream interleave is covered by
//! tier-1 `cargo test`.

use std::fs;
use std::path::{Path, PathBuf};

use qecool_repro::surface_code::{
    CodePatch, DetectionRound, Edge, Lattice, NoiseSpec, PackedReader, PackedWriter,
};
use qecool_repro::{
    CycleBudget, DecodeService, ServiceBackend, ServiceConfig, SimulatedSource, SyndromeSource,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const D: usize = 5;
const SESSIONS: usize = 3;
const ROUNDS: usize = 24;

/// A per-test scratch file in the OS temp dir (no tempfile crate in the
/// offline vendor set); unique per test name and process.
fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "qecool_replay_test_{}_{name}.qecpack",
        std::process::id()
    ));
    p
}

/// Everything one serving run observes: corrections per session per
/// poll, and each session's close-report corrections.
type Observed = (Vec<Vec<Vec<Edge>>>, Vec<Vec<Edge>>);

fn fresh_service() -> DecodeService {
    DecodeService::new(ServiceConfig::new(
        D,
        ServiceBackend::Qecool,
        CycleBudget::at_clock(2.0e9),
    ))
    .unwrap()
}

/// Live leg: simulate `SESSIONS` sessions under `spec`, record every
/// plane round-major to `path`, feed polled corrections back into each
/// source's patch (the physical feedback loop).
fn record_live(spec: NoiseSpec, path: &Path) -> Observed {
    let lattice = Lattice::new(D).unwrap();
    let noise = spec.build();
    let erasure_width = if noise.tracks_erasures() {
        lattice.num_data_qubits() as u32
    } else {
        0
    };
    let mut writer = PackedWriter::create(
        path,
        D as u32,
        lattice.num_ancillas() as u32,
        SESSIONS as u32,
        erasure_width,
    )
    .unwrap();
    let mut sources: Vec<SimulatedSource> = (0..SESSIONS)
        .map(|s| {
            SimulatedSource::new(
                CodePatch::new(lattice.clone()),
                noise,
                ChaCha8Rng::seed_from_u64(1000 + s as u64),
            )
        })
        .collect();

    let mut service = fresh_service();
    let ids: Vec<_> = (0..SESSIONS).map(|_| service.open_session()).collect();
    let mut round = DetectionRound::zeros(lattice.num_ancillas());
    let mut polls = vec![Vec::new(); SESSIONS];
    for _ in 0..ROUNDS {
        for (s, source) in sources.iter_mut().enumerate() {
            source.next_round_into(&mut round).unwrap();
            writer
                .write_plane(round.events(), source.erasures())
                .unwrap();
            service.push_round(ids[s], &round).unwrap();
        }
        for (s, source) in sources.iter_mut().enumerate() {
            let fresh: Vec<Edge> = service.poll_corrections(ids[s]).unwrap().to_vec();
            source.apply_corrections(&fresh);
            polls[s].push(fresh);
        }
    }
    writer.finish().unwrap();
    let closes = ids
        .into_iter()
        .map(|id| service.close_session(id).unwrap().corrections)
        .collect();
    (polls, closes)
}

/// Replay leg: pull the recorded planes back out through the same
/// `SyndromeSource` seam and serve them to a fresh service. No feedback
/// — the trait's no-op `apply_corrections` — because the recording
/// already contains its effects.
fn replay(path: &Path) -> Observed {
    let mut reader = PackedReader::open(path).unwrap();
    assert_eq!(reader.header().rounds, ROUNDS as u64);
    assert_eq!(reader.header().streams, SESSIONS as u32);

    let mut service = fresh_service();
    let ids: Vec<_> = (0..SESSIONS).map(|_| service.open_session()).collect();
    let mut round = DetectionRound::zeros(reader.header().num_detectors as usize);
    let mut polls = vec![Vec::new(); SESSIONS];
    for _ in 0..ROUNDS {
        for &id in &ids {
            let source: &mut dyn SyndromeSource = &mut reader;
            source.next_round_into(&mut round).expect("recorded round");
            service.push_round(id, &round).unwrap();
        }
        for (s, &id) in ids.iter().enumerate() {
            polls[s].push(service.poll_corrections(id).unwrap().to_vec());
        }
    }
    let closes = ids
        .into_iter()
        .map(|id| service.close_session(id).unwrap().corrections)
        .collect();
    (polls, closes)
}

/// The whole cycle for one noise family, asserting byte-identical
/// observations.
fn assert_round_trip(name: &str, spec: NoiseSpec) {
    let path = temp_path(name);
    let _ = fs::remove_file(&path);
    let live = record_live(spec, &path);
    let replayed = replay(&path);
    assert_eq!(
        live, replayed,
        "{name}: replayed corrections differ from the live session"
    );
    assert!(
        live.0.iter().flatten().flatten().count() > 0,
        "{name}: the comparison should cover a nonempty correction stream"
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn phenomenological_sessions_replay_byte_identically() {
    assert_round_trip("phenomenological", NoiseSpec::Phenomenological { p: 0.04 });
}

#[test]
fn burst_sessions_replay_byte_identically() {
    // Correlated bursts make consecutive rounds feedback-sensitive —
    // exactly the case where a replay that re-simulated instead of
    // reading recorded planes would diverge.
    assert_round_trip(
        "burst",
        NoiseSpec::Burst {
            p: 0.02,
            burst: 0.01,
            mean_len: 3.0,
        },
    );
}

#[test]
fn erasure_recordings_carry_flag_planes() {
    let spec = NoiseSpec::Erasure { p: 0.02, e: 0.05 };
    let path = temp_path("erasure");
    let _ = fs::remove_file(&path);
    let live = record_live(spec, &path);

    // The file declares erasure planes and serves them back alongside
    // every detector plane.
    let mut reader = PackedReader::open(&path).unwrap();
    assert!(reader.header().has_erasures());
    let mut round = DetectionRound::zeros(reader.header().num_detectors as usize);
    assert!(reader.next_round_into(&mut round).is_some());
    let lattice = Lattice::new(D).unwrap();
    assert_eq!(
        reader
            .last_erasures()
            .map(qecool_repro::surface_code::BitVec::len),
        Some(lattice.num_data_qubits())
    );
    drop(reader);

    let replayed = replay(&path);
    assert_eq!(live, replayed, "erasure: replay diverged");
    let _ = fs::remove_file(&path);
}

/// FNV-1a 64 over `SIM_ROUNDS` rounds of a d = 5 [`SimulatedSource`]:
/// every detection plane's words, then (when the family heralds them)
/// the erasure plane's words, little-endian. Pinned across commits, so a
/// sampler change that moves one draw or one flag fails here.
fn simulated_stream_digest(spec: NoiseSpec) -> u64 {
    const SIM_ROUNDS: usize = 200;
    let lattice = Lattice::new(D).unwrap();
    let mut source = SimulatedSource::new(
        CodePatch::new(lattice.clone()),
        spec.build(),
        ChaCha8Rng::seed_from_u64(2021),
    );
    assert_eq!(
        source.has_erasures(),
        matches!(spec, NoiseSpec::Erasure { .. }),
        "only the erasure family carries a flag plane"
    );
    let mut round = DetectionRound::zeros(lattice.num_ancillas());
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |words: &[u64]| {
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for _ in 0..SIM_ROUNDS {
        source.next_round_into(&mut round).unwrap();
        eat(round.events().words());
        if let Some(flags) = source.erasures() {
            eat(flags.words());
        }
    }
    hash
}

#[test]
fn simulated_streams_and_flag_planes_match_their_pins() {
    let erasure = NoiseSpec::parse("erasure:p=0.01,e=0.05").unwrap();
    let burst = NoiseSpec::parse("burst:p=0.01,burst=0.02,mean_len=3").unwrap();
    let got = (
        simulated_stream_digest(erasure),
        simulated_stream_digest(burst),
    );
    assert_eq!(
        got,
        (5_867_768_642_114_864_247, 2_565_663_017_179_367_245),
        "erasure, burst stream digests"
    );
}
