//! The noise model for the quantum error simulator: a matrix of noise
//! *families*, each a variant of the serializable [`NoiseSpec`] enum,
//! which names, validates and samples itself.
//!
//! The paper evaluates QECOOL under the **phenomenological noise model**
//! (Dennis et al. \[4\]): in every measurement round each data qubit
//! suffers a Pauli-X flip with probability `p`, and each syndrome
//! measurement result is read out wrongly with probability `q`. The paper
//! assumes `q = p` ("the error probabilities of data and ancilla qubits
//! are equal", §III-C). That model is still the default, but it is now
//! one row of a family matrix:
//!
//! | family             | spec variant                    | per round                                               |
//! |--------------------|---------------------------------|---------------------------------------------------------|
//! | `phenomenological` | [`NoiseSpec::Phenomenological`] | data and measurement flips at `p`                       |
//! | `asymmetric`       | [`NoiseSpec::Asymmetric`]       | data flips at `p`, measurement flips at `q`             |
//! | `code_capacity`    | [`NoiseSpec::CodeCapacity`]     | data flips at `p`, perfect measurement (the "2-D" Table IV columns) |
//! | `biased`           | [`NoiseSpec::Biased`]           | data flips at `p / (1 + eta)` (Z-heavy bias starves the X sector), measurement at `p` |
//! | `erasure`          | [`NoiseSpec::Erasure`]          | phenomenological at `p`, plus heralded erasures flagged per data qubit |
//! | `burst`            | [`NoiseSpec::Burst`]            | phenomenological at `p`, plus correlated runs with geometric lengths |
//!
//! [`NoiseSpec`] parses the CLI `family[:k=v,…]` syntax
//! ([`NoiseSpec::parse`]) and validates every field with the offending
//! one named ([`NoiseSpec::validate`]), so the CLI path never reaches a
//! sampling panic. It then samples the rounds it describes:
//! [`NoiseSpec::apply_data_round`] owns the whole per-round data error
//! pass (and the optional per-data-qubit erasure flags), and
//! [`NoiseSpec::measurement_error_rate`] drives the readout flips. The
//! data pass starts with, draw for draw, the loop `CodePatch` has always
//! run, so the i.i.d. families keep byte-identical RNG streams.

use crate::bitvec::BitVec;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A noise family and its parameters: the workspace's one noise model.
///
/// Specs flow through `TrialConfig`, the simulated syndrome source,
/// campaign checkpoints (hashed into the job-list fingerprint) and the
/// bench `--noise family[:k=v,…]` flag, and they sample the rounds they
/// describe.
///
/// # Example
///
/// ```
/// use qecool_surface_code::NoiseSpec;
///
/// let noise = NoiseSpec::parse("asymmetric:p=0.01,q=0.03")?;
/// assert_eq!(noise, NoiseSpec::Asymmetric { p: 0.01, q: 0.03 });
/// assert_eq!(noise.measurement_error_rate(), 0.03);
/// assert!(!noise.tracks_erasures());
/// # Ok::<(), qecool_surface_code::NoiseSpecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseSpec {
    /// The paper's model: data and measurement flips at the same rate `p`.
    Phenomenological {
        /// Shared data/measurement error rate per round.
        p: f64,
    },
    /// Phenomenological noise with independent data (`p`) and
    /// measurement (`q`) rates.
    Asymmetric {
        /// Data error rate per round.
        p: f64,
        /// Measurement error rate per round.
        q: f64,
    },
    /// Perfect measurements (`q = 0`), single-round experiments.
    CodeCapacity {
        /// Data error rate.
        p: f64,
    },
    /// Z-biased noise: of a total physical error rate `p`, only the
    /// `1 / (1 + eta)` X-fraction lands in this simulator's X sector
    /// (measurements still flip at `p`).
    Biased {
        /// Total physical error rate per round.
        p: f64,
        /// Bias ratio `eta = p_Z / p_X`; `eta = 0` recovers the
        /// phenomenological rates.
        eta: f64,
    },
    /// Heralded erasures: background phenomenological noise at `p`, plus
    /// each data qubit is erased with probability `e` per round — flagged,
    /// and depolarized into a 50/50 flip.
    Erasure {
        /// Background data/measurement error rate per round.
        p: f64,
        /// Per-qubit erasure rate per round.
        e: f64,
    },
    /// Burst/correlated errors: background phenomenological noise at `p`,
    /// plus bursts that start at any data qubit with probability `burst`
    /// and flip a geometric-length run (mean `mean_len`) of consecutive
    /// qubits.
    Burst {
        /// Background data/measurement error rate per round.
        p: f64,
        /// Per-qubit burst-start probability per round.
        burst: f64,
        /// Mean burst run length in qubits (`>= 1`).
        mean_len: f64,
    },
}

/// A malformed [`NoiseSpec`]: the reject reason always names the field,
/// so CLI parsing can exit with a usable message instead of a sampling
/// panic.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseSpecError {
    /// A probability field outside `[0, 1]` (or not finite).
    RateOutOfRange {
        /// Which field was rejected (`"p"`, `"q"`, `"e"`, `"burst"`).
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A shape parameter outside its domain (`eta >= 0`, `mean_len >= 1`).
    ParamOutOfRange {
        /// Which field was rejected.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// The domain it must lie in, e.g. `">= 1"`.
        domain: &'static str,
    },
    /// The family name before the `:` is not one of the six families.
    UnknownFamily(String),
    /// A `k=v` key the named family does not take.
    UnknownKey {
        /// The family being parsed.
        family: &'static str,
        /// The rejected key.
        key: String,
    },
    /// A `k=v` entry whose value is not a float, or with no `=` at all.
    BadValue {
        /// The key (or the whole malformed entry).
        key: String,
        /// The unparsable value text.
        value: String,
    },
}

impl fmt::Display for NoiseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RateOutOfRange { field, value } => {
                write!(f, "noise rate '{field}' = {value} is out of [0,1]")
            }
            Self::ParamOutOfRange {
                field,
                value,
                domain,
            } => {
                write!(f, "noise parameter '{field}' = {value} must be {domain}")
            }
            Self::UnknownFamily(name) => write!(
                f,
                "unknown noise family '{name}' (expected one of: phenomenological, \
                 asymmetric, code_capacity, biased, erasure, burst)"
            ),
            Self::UnknownKey { family, key } => {
                write!(f, "noise family '{family}' takes no parameter '{key}'")
            }
            Self::BadValue { key, value } => {
                write!(f, "noise parameter '{key}' has unparsable value '{value}'")
            }
        }
    }
}

impl std::error::Error for NoiseSpecError {}

fn check_rate(field: &'static str, value: f64) -> Result<(), NoiseSpecError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(NoiseSpecError::RateOutOfRange { field, value })
    }
}

impl NoiseSpec {
    /// Every family name [`NoiseSpec::parse`] accepts, in parse order.
    pub const FAMILIES: &'static [&'static str] = &[
        "phenomenological",
        "asymmetric",
        "code_capacity",
        "biased",
        "erasure",
        "burst",
    ];

    /// The family name, as spelled on the CLI and in perf records.
    pub fn family(&self) -> &'static str {
        match self {
            Self::Phenomenological { .. } => "phenomenological",
            Self::Asymmetric { .. } => "asymmetric",
            Self::CodeCapacity { .. } => "code_capacity",
            Self::Biased { .. } => "biased",
            Self::Erasure { .. } => "erasure",
            Self::Burst { .. } => "burst",
        }
    }

    /// The primary physical error rate `p` — the sweep axis every family
    /// shares.
    pub fn rate(&self) -> f64 {
        match *self {
            Self::Phenomenological { p }
            | Self::Asymmetric { p, .. }
            | Self::CodeCapacity { p }
            | Self::Biased { p, .. }
            | Self::Erasure { p, .. }
            | Self::Burst { p, .. } => p,
        }
    }

    /// The same family with the primary rate replaced by `p` (shape
    /// parameters — `q`, `eta`, `e`, burst geometry — are kept). This is
    /// how sweeps move one spec along the error-rate axis.
    #[must_use]
    pub fn with_rate(self, p: f64) -> Self {
        match self {
            Self::Phenomenological { .. } => Self::Phenomenological { p },
            Self::Asymmetric { q, .. } => Self::Asymmetric { p, q },
            Self::CodeCapacity { .. } => Self::CodeCapacity { p },
            Self::Biased { eta, .. } => Self::Biased { p, eta },
            Self::Erasure { e, .. } => Self::Erasure { p, e },
            Self::Burst {
                burst, mean_len, ..
            } => Self::Burst { p, burst, mean_len },
        }
    }

    /// The parameters as `k=v` pairs joined by `,` — the tail of the CLI
    /// syntax, and what perf records archive as `noise_params`.
    pub fn params(&self) -> String {
        match *self {
            Self::Phenomenological { p } | Self::CodeCapacity { p } => format!("p={p}"),
            Self::Asymmetric { p, q } => format!("p={p},q={q}"),
            Self::Biased { p, eta } => format!("p={p},eta={eta}"),
            Self::Erasure { p, e } => format!("p={p},e={e}"),
            Self::Burst { p, burst, mean_len } => {
                format!("p={p},burst={burst},mean_len={mean_len}")
            }
        }
    }

    /// Checks every field against its domain, naming the offender.
    ///
    /// # Errors
    ///
    /// The first out-of-domain field, as a [`NoiseSpecError`].
    pub fn validate(&self) -> Result<(), NoiseSpecError> {
        match *self {
            Self::Phenomenological { p } | Self::CodeCapacity { p } => check_rate("p", p),
            Self::Asymmetric { p, q } => {
                check_rate("p", p)?;
                check_rate("q", q)
            }
            Self::Biased { p, eta } => {
                check_rate("p", p)?;
                if eta.is_finite() && eta >= 0.0 {
                    Ok(())
                } else {
                    Err(NoiseSpecError::ParamOutOfRange {
                        field: "eta",
                        value: eta,
                        domain: ">= 0 and finite",
                    })
                }
            }
            Self::Erasure { p, e } => {
                check_rate("p", p)?;
                check_rate("e", e)
            }
            Self::Burst { p, burst, mean_len } => {
                check_rate("p", p)?;
                check_rate("burst", burst)?;
                if mean_len.is_finite() && mean_len >= 1.0 {
                    Ok(())
                } else {
                    Err(NoiseSpecError::ParamOutOfRange {
                        field: "mean_len",
                        value: mean_len,
                        domain: ">= 1 and finite",
                    })
                }
            }
        }
    }

    /// Parses the CLI syntax `family[:k=v,…]`; omitted keys take the
    /// family's defaults. The result is always validated.
    ///
    /// # Errors
    ///
    /// A [`NoiseSpecError`] naming the unknown family, unknown key,
    /// unparsable value, or out-of-domain field.
    pub fn parse(text: &str) -> Result<Self, NoiseSpecError> {
        let (family, tail) = match text.split_once(':') {
            Some((f, t)) => (f, t),
            None => (text, ""),
        };
        let mut spec = match family {
            "phenomenological" => Self::Phenomenological { p: 0.01 },
            "asymmetric" => Self::Asymmetric { p: 0.01, q: 0.02 },
            "code_capacity" => Self::CodeCapacity { p: 0.01 },
            "biased" => Self::Biased { p: 0.01, eta: 10.0 },
            "erasure" => Self::Erasure { p: 0.005, e: 0.01 },
            "burst" => Self::Burst {
                p: 0.005,
                burst: 0.001,
                mean_len: 3.0,
            },
            other => return Err(NoiseSpecError::UnknownFamily(other.to_owned())),
        };
        for entry in tail.split(',').filter(|e| !e.is_empty()) {
            let Some((key, value)) = entry.split_once('=') else {
                return Err(NoiseSpecError::BadValue {
                    key: entry.to_owned(),
                    value: String::new(),
                });
            };
            let parsed: f64 = value.parse().map_err(|_| NoiseSpecError::BadValue {
                key: key.to_owned(),
                value: value.to_owned(),
            })?;
            spec = spec.with_key(key, parsed)?;
        }
        spec.validate()?;
        Ok(spec)
    }

    fn with_key(self, key: &str, value: f64) -> Result<Self, NoiseSpecError> {
        let reject = |family| {
            Err(NoiseSpecError::UnknownKey {
                family,
                key: key.to_owned(),
            })
        };
        Ok(match (self, key) {
            (spec, "p") => spec.with_rate(value),
            (Self::Asymmetric { p, .. }, "q") => Self::Asymmetric { p, q: value },
            (Self::Biased { p, .. }, "eta") => Self::Biased { p, eta: value },
            (Self::Erasure { p, .. }, "e") => Self::Erasure { p, e: value },
            (Self::Burst { p, mean_len, .. }, "burst") => Self::Burst {
                p,
                burst: value,
                mean_len,
            },
            (Self::Burst { p, burst, .. }, "mean_len") => Self::Burst {
                p,
                burst,
                mean_len: value,
            },
            (spec, _) => return reject(spec.family()),
        })
    }

    /// This spec after [`NoiseSpec::validate`]: the value handed to the
    /// samplers.
    ///
    /// # Panics
    ///
    /// Panics with the [`NoiseSpec::validate`] error, which names the
    /// field, if one is out of domain; [`NoiseSpec::parse`] and
    /// [`NoiseSpec::validate`] are the non-panicking gates in front of
    /// this.
    #[must_use]
    pub fn build(&self) -> Self {
        if let Err(err) = self.validate() {
            panic!("{err}");
        }
        *self
    }

    /// Probability that a given syndrome measurement is misread in one
    /// round.
    pub fn measurement_error_rate(&self) -> f64 {
        match *self {
            Self::Asymmetric { q, .. } => q,
            Self::CodeCapacity { .. } => 0.0,
            _ => self.rate(),
        }
    }

    /// Whether [`NoiseSpec::apply_data_round`] produces erasure flags.
    /// Sources use this to decide whether to allocate a flag plane.
    pub fn tracks_erasures(&self) -> bool {
        matches!(self, Self::Erasure { .. })
    }

    /// Applies one round of data-qubit noise to `errors` (one bit per data
    /// qubit), optionally writing per-qubit erasure flags to `erasures`
    /// (same length; cleared first).
    ///
    /// Every family starts with the independent-flip loop `CodePatch`
    /// historically ran inline — read the rate once, skip at zero, one
    /// `gen_bool` per data qubit — so the i.i.d. families keep
    /// byte-identical RNG streams with pre-`NoiseSpec` builds. Erasure
    /// and burst then add their own pass.
    pub fn apply_data_round<R: Rng + ?Sized>(
        &self,
        errors: &mut BitVec,
        mut erasures: Option<&mut BitVec>,
        rng: &mut R,
    ) {
        if let Some(flags) = erasures.as_deref_mut() {
            flags.clear();
        }
        let p = match *self {
            Self::Biased { p, eta } => p / (1.0 + eta),
            _ => self.rate(),
        };
        if p != 0.0 {
            for q in 0..errors.len() {
                if rng.gen_bool(p) {
                    errors.toggle(q);
                }
            }
        }
        match *self {
            Self::Erasure { e, .. } => erase(e, errors, erasures, rng),
            Self::Burst {
                burst, mean_len, ..
            } => burst_runs(burst, mean_len, errors, rng),
            _ => {}
        }
    }
}

/// Heralded erasures: each data qubit is erased with probability `e`,
/// flagged in `flags` when a flag plane is offered (unheralded
/// otherwise), and depolarizes — in the X sector, a 50/50 flip.
fn erase<R: Rng + ?Sized>(
    e: f64,
    errors: &mut BitVec,
    mut flags: Option<&mut BitVec>,
    rng: &mut R,
) {
    if e == 0.0 {
        return;
    }
    for q in 0..errors.len() {
        if rng.gen_bool(e) {
            if let Some(flags) = flags.as_deref_mut() {
                flags.set(q, true);
            }
            if rng.gen_bool(0.5) {
                errors.toggle(q);
            }
        }
    }
}

/// Bursts: a burst starts at any data qubit with probability `burst` and
/// flips a run of consecutive qubits whose length is geometric with mean
/// `mean_len`. Runs of index-consecutive data qubits are spatially local
/// in the lattice's row-major edge order, giving the correlated stripes
/// that stress a nearest-pair decoder.
fn burst_runs<R: Rng + ?Sized>(burst: f64, mean_len: f64, errors: &mut BitVec, rng: &mut R) {
    if burst == 0.0 {
        return;
    }
    // Geometric run lengths: continue the run with probability
    // 1 - 1/mean_len, so E[len] = mean_len.
    let cont = 1.0 - 1.0 / mean_len;
    let mut q = 0;
    while q < errors.len() {
        if rng.gen_bool(burst) {
            errors.toggle(q);
            q += 1;
            while q < errors.len() && cont > 0.0 && rng.gen_bool(cont) {
                errors.toggle(q);
                q += 1;
            }
        } else {
            q += 1;
        }
    }
}

impl fmt::Display for NoiseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.family(), self.params())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Flips of one data round over `n` qubits.
    fn data_flips(noise: NoiseSpec, n: usize, seed: u64) -> BitVec {
        let mut errors = BitVec::zeros(n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        noise.apply_data_round(&mut errors, None, &mut rng);
        errors
    }

    #[test]
    fn measurement_rates_follow_the_family() {
        let rate = |text| NoiseSpec::parse(text).unwrap().measurement_error_rate();
        assert_eq!(rate("phenomenological:p=0.02"), 0.02);
        assert_eq!(rate("asymmetric:p=0.01,q=0.05"), 0.05);
        assert_eq!(rate("code_capacity:p=0.1"), 0.0);
        assert_eq!(rate("biased:p=0.1,eta=9"), 0.1);
        assert_eq!(rate("erasure:p=0.03,e=0.2"), 0.03);
        assert_eq!(rate("burst:p=0.04"), 0.04);
    }

    #[test]
    #[should_panic(expected = "'p' = 1.5 is out of [0,1]")]
    fn build_rejects_invalid_rate_naming_the_field() {
        let _ = NoiseSpec::Phenomenological { p: 1.5 }.build();
    }

    #[test]
    fn sample_statistics_are_plausible() {
        // 10k qubits at p = 0.3: expect ~3000 flips; allow a wide band.
        let hits = data_flips(NoiseSpec::Phenomenological { p: 0.3 }, 10_000, 42).count_ones();
        assert!((2500..3500).contains(&hits), "got {hits} hits");
    }

    #[test]
    fn zero_rate_never_fires_or_draws() {
        let mut errors = BitVec::zeros(1000);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        NoiseSpec::Phenomenological { p: 0.0 }.apply_data_round(&mut errors, None, &mut rng);
        assert!(errors.is_zero());
        let untouched = ChaCha8Rng::seed_from_u64(3).next_u64();
        assert_eq!(rng.next_u64(), untouched, "a zero rate must not draw");
    }

    #[test]
    fn unit_rate_always_fires() {
        let flips = data_flips(NoiseSpec::Phenomenological { p: 1.0 }, 1000, 4);
        assert_eq!(flips.count_ones(), 1000);
    }

    #[test]
    fn parse_accepts_every_family_with_defaults() {
        for family in NoiseSpec::FAMILIES {
            let spec = NoiseSpec::parse(family).expect(family);
            assert_eq!(spec.family(), *family);
            spec.validate().expect(family);
            // Building a validated spec never panics, and changes nothing.
            assert_eq!(spec.build(), spec, "{family}");
        }
    }

    #[test]
    fn parse_round_trips_through_display() {
        for text in [
            "phenomenological:p=0.02",
            "asymmetric:p=0.01,q=0.03",
            "code_capacity:p=0.1",
            "biased:p=0.01,eta=4",
            "erasure:p=0.001,e=0.02",
            "burst:p=0.001,burst=0.0005,mean_len=5",
        ] {
            let spec = NoiseSpec::parse(text).expect(text);
            let again = NoiseSpec::parse(&spec.to_string()).expect(text);
            assert_eq!(spec, again, "{text}");
        }
    }

    #[test]
    fn parse_names_the_bad_field() {
        match NoiseSpec::parse("phenomenological:p=1.5") {
            Err(NoiseSpecError::RateOutOfRange { field: "p", value }) => {
                assert_eq!(value, 1.5);
            }
            other => panic!("expected RateOutOfRange, got {other:?}"),
        }
        assert!(matches!(
            NoiseSpec::parse("asymmetric:q=nope"),
            Err(NoiseSpecError::BadValue { .. })
        ));
        assert!(matches!(
            NoiseSpec::parse("glitch"),
            Err(NoiseSpecError::UnknownFamily(_))
        ));
        assert!(matches!(
            NoiseSpec::parse("code_capacity:q=0.1"),
            Err(NoiseSpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            NoiseSpec::parse("burst:mean_len=0.5"),
            Err(NoiseSpecError::ParamOutOfRange {
                field: "mean_len",
                ..
            })
        ));
    }

    #[test]
    fn with_rate_keeps_shape_parameters() {
        let spec = NoiseSpec::parse("burst:p=0.001,burst=0.0005,mean_len=5").unwrap();
        assert_eq!(
            spec.with_rate(0.09),
            NoiseSpec::Burst {
                p: 0.09,
                burst: 0.0005,
                mean_len: 5.0
            }
        );
        let spec = NoiseSpec::parse("asymmetric:p=0.01,q=0.03").unwrap();
        assert_eq!(
            spec.with_rate(0.02),
            NoiseSpec::Asymmetric { p: 0.02, q: 0.03 }
        );
        assert_eq!(spec.with_rate(0.02).rate(), 0.02);
    }

    #[test]
    fn biased_noise_starves_the_x_sector() {
        // The biased data pass is the i.i.d. loop at p / (1 + eta).
        let (p, eta) = (0.3, 2.0);
        let biased = data_flips(NoiseSpec::Biased { p, eta }, 4096, 8);
        let thinned = data_flips(NoiseSpec::CodeCapacity { p: p / (1.0 + eta) }, 4096, 8);
        assert_eq!(biased.words(), thinned.words());
        let full = data_flips(NoiseSpec::CodeCapacity { p }, 4096, 8);
        assert!(biased.count_ones() < full.count_ones());
    }

    #[test]
    fn iid_data_round_matches_the_inline_loop() {
        // The i.i.d. data pass must reproduce the historical CodePatch
        // loop draw for draw: same rate, same per-qubit gen_bool order.
        let p = 0.3;
        let mut via_spec = BitVec::zeros(130);
        let mut inline = BitVec::zeros(130);
        let mut rng_a = ChaCha8Rng::seed_from_u64(11);
        let mut rng_b = ChaCha8Rng::seed_from_u64(11);
        NoiseSpec::Phenomenological { p }.apply_data_round(&mut via_spec, None, &mut rng_a);
        for q in 0..inline.len() {
            if rng_b.gen_bool(p) {
                inline.toggle(q);
            }
        }
        assert_eq!(via_spec.words(), inline.words());
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "rng streams diverged");
    }

    #[test]
    fn only_erasure_writes_flags_and_every_family_clears_them() {
        for family in NoiseSpec::FAMILIES {
            let spec = NoiseSpec::parse(family).unwrap().with_rate(0.5);
            let mut errors = BitVec::zeros(64);
            let mut flags = BitVec::zeros(64);
            flags.set(7, true);
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            spec.apply_data_round(&mut errors, Some(&mut flags), &mut rng);
            assert_eq!(spec.tracks_erasures(), *family == "erasure", "{family}");
            if !spec.tracks_erasures() {
                assert!(flags.is_zero(), "{family} left a stale flag");
            }
        }
    }

    #[test]
    fn erasure_noise_flags_and_flips() {
        let n = NoiseSpec::Erasure { p: 0.0, e: 1.0 };
        let mut errors = BitVec::zeros(200);
        let mut flags = BitVec::zeros(200);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        n.apply_data_round(&mut errors, Some(&mut flags), &mut rng);
        // e = 1: every qubit erased; about half flip.
        assert_eq!(flags.count_ones(), 200);
        let flips = errors.count_ones();
        assert!((60..=140).contains(&flips), "got {flips} flips");
    }

    #[test]
    fn erasure_noise_flips_even_without_a_flag_plane() {
        // Same draws with or without a plane: the flips match the
        // flagged run above.
        let flips = data_flips(NoiseSpec::Erasure { p: 0.0, e: 1.0 }, 200, 5);
        let mut flagged = BitVec::zeros(200);
        let mut flags = BitVec::zeros(200);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        NoiseSpec::Erasure { p: 0.0, e: 1.0 }.apply_data_round(
            &mut flagged,
            Some(&mut flags),
            &mut rng,
        );
        assert_eq!(flips.words(), flagged.words());
        assert!((60..=140).contains(&flips.count_ones()));
    }

    #[test]
    fn burst_noise_produces_runs() {
        // Pure bursts, no background: every 1-region is a consecutive
        // run, and with mean_len = 4 the average run is well above 1.
        let noise = NoiseSpec::Burst {
            p: 0.0,
            burst: 0.02,
            mean_len: 4.0,
        };
        let errors = data_flips(noise, 4096, 9);
        let ones = errors.count_ones();
        assert!(ones > 0, "no bursts fired");
        let mut runs = 0usize;
        let mut prev = false;
        for q in 0..errors.len() {
            let bit = errors.get(q);
            if bit && !prev {
                runs += 1;
            }
            prev = bit;
        }
        let mean_run = ones as f64 / runs as f64;
        assert!(mean_run > 1.5, "mean run {mean_run} too short for bursts");
    }
}
