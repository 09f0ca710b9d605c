//! SFQ hardware model for the QECOOL decoder: cell library, Unit
//! composition, timing, power and cryostat power-budget analysis.
//!
//! The paper designs its decoder in RSFQ logic, verifies the Unit with a
//! SPICE-level simulator (JSIM) and estimates deployment power with the
//! ERSFQ dynamic-power model. This crate reproduces the quantitative side
//! of that story from the published data. JSIM is replaced by static
//! timing over the published module latencies ([`timing`]) and a
//! behavioral pulse model ([`pulse`]):
//!
//! * [`cells`] — the Table I RSFQ cell library (JJs, bias, area, latency);
//! * [`unit_netlist`] — the Table II Unit composition and its rollups;
//! * [`timing`] — static timing over the module graph: the 215 ps
//!   critical path and the ≈5 GHz maximum clock;
//! * [`pulse`] — behavioral pulse-level simulation of the SFQ cells
//!   (DRO shift registers, splitter/merger fabric, switches);
//! * [`power`] — RSFQ static (840 µW/Unit) and ERSFQ dynamic
//!   (2.78 µW/Unit @ 2 GHz) power models;
//! * [`budget`] / [`compare`] — the 1 W @ 4 K budget arithmetic behind
//!   Tables IV and V (≈2500 protectable logical qubits at d = 9).
//!
//! # Example
//!
//! ```
//! use qecool_sfq::budget::DecoderBudget;
//! use qecool_sfq::power::ersfq_power_w;
//!
//! // The abstract's headline numbers.
//! let unit_power = ersfq_power_w(336.0, 2.0e9);
//! assert!((unit_power * 1e6 - 2.78).abs() < 0.01);
//! let protectable = DecoderBudget::qecool(9, 2.0e9).protectable_qubits();
//! assert!(protectable >= 2490);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod budget;
pub mod cells;
pub mod compare;
pub mod power;
pub mod pulse;
pub mod timing;
pub mod unit_netlist;

pub use budget::{CycleBudget, DecoderBudget};
pub use cells::{CellKind, CellParams};
pub use power::{ersfq_power_w, rsfq_static_power_w, FLUX_QUANTUM_WB};
pub use timing::{max_clock_ghz, unit_critical_path_ps, TimingGraph};
pub use unit_netlist::{ModuleSpec, UnitDesign};
