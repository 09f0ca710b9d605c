//! Pins of the sliding-window union-find decoder: the full commit stream
//! of [`StreamingUf`] (every step's corrections and watermark, close
//! included) and the growth work of whole-window decodes, FNV-1a hashed
//! or summed over seeded phenomenological streams. A change to growth,
//! peeling or the window commit rule that moves one correction, one
//! watermark or one scanned edge fails here.

use qecool_repro::decoder::api::{DecodeOutput, Decoder};
use qecool_repro::surface_code::{CodePatch, DetectionRound, Lattice, NoiseSpec, SyndromeHistory};
use qecool_repro::uf::UnionFindDecoder;
use qecool_repro::{StreamingUf, WindowConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a 64, fed little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// One decoder output: its correction count, the corrections, then
    /// the watermark (`u64::MAX` for none), so a commit moving between
    /// steps changes the digest.
    fn eat_output(&mut self, out: &DecodeOutput) {
        self.eat(out.corrections.len() as u64);
        for e in &out.corrections {
            self.eat(e.index() as u64);
        }
        self.eat(out.committed_through.unwrap_or(u64::MAX));
    }
}

/// `rounds` seeded phenomenological rounds at distance `d`, without
/// feedback, plus a closing perfect round.
fn stream(d: usize, p: f64, rounds: usize, seed: u64) -> Vec<DetectionRound> {
    let mut patch = CodePatch::new(Lattice::new(d).unwrap());
    let noise = NoiseSpec::Phenomenological { p };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out: Vec<DetectionRound> = (0..rounds)
        .map(|_| patch.noisy_round(&noise, &mut rng))
        .collect();
    out.push(patch.perfect_round());
    out
}

/// The digest of `StreamingUf`'s commit stream over `stream(d, p,
/// rounds, seed)`, one round ingested per step, then closed.
fn commit_stream_digest(d: usize, config: WindowConfig, p: f64, rounds: usize, seed: u64) -> u64 {
    let mut decoder = StreamingUf::with_config(Lattice::new(d).unwrap(), config);
    let mut out = DecodeOutput::default();
    let mut hash = Fnv::new();
    let mut commits = 0;
    for round in &stream(d, p, rounds, seed) {
        decoder.ingest(round).unwrap();
        decoder.decode_step(None, &mut out);
        commits += usize::from(!out.corrections.is_empty());
        hash.eat_output(&out);
    }
    decoder.finish(&mut out);
    hash.eat_output(&out);
    assert_eq!(out.committed_through, Some(rounds as u64));
    assert!(commits > 10, "d={d} p={p}: too few commits to pin");
    hash.0
}

#[test]
fn windowed_uf_commit_streams_match_their_pins() {
    let d9 = WindowConfig::new(27, 9);
    let d5 = WindowConfig::new(9, 3);
    let got = [
        commit_stream_digest(9, d9, 0.01, 360, 23),
        commit_stream_digest(9, d9, 0.03, 360, 23),
        commit_stream_digest(5, d5, 0.01, 240, 23),
        commit_stream_digest(5, d5, 0.03, 240, 23),
    ];
    assert_eq!(
        got,
        [
            2_040_721_794_704_328_438,
            2_709_816_217_390_701_236,
            1_942_981_312_996_968_530,
            14_959_627_466_271_381_862,
        ],
        "d=9 p=1%, d=9 p=3%, d=5 p=1%, d=5 p=3%"
    );
}

#[test]
fn whole_window_growth_work_matches_its_pins() {
    // Twenty 27-round d = 9 windows at each rate; the counters describe
    // the whole window, whatever part of it a caller commits.
    let lattice = Lattice::new(9).unwrap();
    let decoder = UnionFindDecoder::new(lattice.clone());
    let mut got = Vec::new();
    for p in [0.01, 0.03] {
        let (mut steps, mut erasure, mut scanned) = (0, 0, 0);
        for seed in 0..20u64 {
            let mut history = SyndromeHistory::new(lattice.clone());
            for round in &stream(9, p, 26, 500 + seed) {
                history.push_copy(round);
            }
            let outcome = decoder.decode(&history);
            steps += outcome.growth_steps;
            erasure += outcome.erasure_edges;
            scanned += outcome.edges_scanned;
        }
        got.push((steps, erasure, scanned));
    }
    assert_eq!(
        got,
        [(42, 2344, 11669), (82, 15469, 45178)],
        "(growth_steps, erasure_edges, edges_scanned) at p=1%, p=3%"
    );
}
