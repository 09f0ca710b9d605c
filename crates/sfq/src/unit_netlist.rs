//! The QECOOL hardware Unit as a composition of Table I cells (Table II).
//!
//! Table II of the paper breaks one ancilla Unit into six modules — state
//! machine, prioritization, 7-bit base pointer + `Reg`, spike out, syndrome
//! out and "other" glue — and publishes, per module, the cell counts, wire
//! (JTL) counts, total JJs, area, bias current and latency.
//!
//! We keep the published totals as **authoritative data** (they drive the
//! power model and Table V) and additionally provide a compositional
//! rollup computed from the Table I cell parameters. The paper's own table
//! does not reconcile exactly against its cell library (the JJ and bias
//! totals cannot be reproduced from any constant per-wire cost);
//! [`UnitDesign::reconciliation`] quantifies the gap so it is visible
//! rather than hidden.

use crate::cells::CellKind;
use serde::{Deserialize, Serialize};

/// One module row of Table II.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModuleSpec {
    /// Module name as printed in the paper.
    pub name: &'static str,
    /// Cell instance counts, `(kind, count)` in Table I order.
    pub cells: Vec<(CellKind, u32)>,
    /// Interconnect (Josephson transmission line) segment count — the
    /// "Wire" row.
    pub wires: u32,
    /// Published totals for this module.
    pub published: PublishedTotals,
}

/// The published per-module totals of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PublishedTotals {
    /// Total JJ count.
    pub jjs: u32,
    /// Total area in µm².
    pub area_um2: f64,
    /// Total bias current in mA.
    pub bias_ma: f64,
    /// Module latency in ps (`None` for the glue "Other" row, which the
    /// paper leaves blank).
    pub latency_ps: Option<f64>,
}

/// Rollup computed from the Table I cell parameters (cells only, wires
/// excluded).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CellRollup {
    /// JJs contributed by logic cells.
    pub jjs: u32,
    /// Area contributed by logic cells (µm²).
    pub area_um2: f64,
    /// Bias current contributed by logic cells (mA).
    pub bias_ma: f64,
}

impl ModuleSpec {
    /// Sum of the cell instance counts (excluding wires).
    pub fn num_cells(&self) -> u32 {
        self.cells.iter().map(|&(_, n)| n).sum()
    }

    /// Compositional rollup from Table I parameters (logic cells only).
    pub fn cell_rollup(&self) -> CellRollup {
        let mut r = CellRollup::default();
        for &(kind, n) in &self.cells {
            let p = kind.params();
            r.jjs += p.jjs * n;
            r.area_um2 += p.area_um2 * f64::from(n);
            r.bias_ma += p.bias_ma * f64::from(n);
        }
        r
    }
}

/// The full Unit design: the six modules of Table II.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UnitDesign {
    modules: Vec<ModuleSpec>,
}

/// Published whole-Unit totals (Table II "Total" column and §IV-C text).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitTotals {
    /// 3177 JJs.
    pub jjs: u32,
    /// 1.2744 mm² = 1 274 400 µm².
    pub area_um2: f64,
    /// 336 mA.
    pub bias_ma: f64,
    /// 215 ps maximum (critical-path) delay.
    pub critical_path_ps: f64,
}

impl UnitDesign {
    /// Builds the paper's 7-bit-`Reg` Unit (Table II).
    pub fn paper_unit() -> Self {
        use CellKind::*;
        let modules = vec![
            ModuleSpec {
                name: "State machine",
                cells: vec![
                    (Splitter, 17),
                    (Merger, 14),
                    (Switch12, 8),
                    (Dro, 3),
                    (Ndro, 20),
                    (ResettableDro, 6),
                    (DualOutputDro, 6),
                ],
                wires: 196,
                published: PublishedTotals {
                    jjs: 675,
                    area_um2: 265_500.0,
                    bias_ma: 69.7,
                    latency_ps: Some(98.7),
                },
            },
            ModuleSpec {
                name: "Prioritization",
                cells: vec![(Splitter, 4), (Merger, 9), (Switch12, 3)],
                wires: 82,
                published: PublishedTotals {
                    jjs: 157,
                    area_um2: 82_800.0,
                    bias_ma: 15.3,
                    latency_ps: Some(28.0),
                },
            },
            ModuleSpec {
                name: "Base pointer (7-bit)",
                cells: vec![(Splitter, 8), (Merger, 30), (ResettableDro, 30)],
                wires: 1085,
                published: PublishedTotals {
                    jjs: 1935,
                    area_um2: 709_200.0,
                    bias_ma: 208.5,
                    latency_ps: Some(147.0),
                },
            },
            ModuleSpec {
                name: "Spike out",
                cells: vec![(Splitter, 2), (Merger, 8), (ResettableDro, 4)],
                wires: 91,
                published: PublishedTotals {
                    jjs: 314,
                    area_um2: 129_600.0,
                    bias_ma: 32.2,
                    latency_ps: Some(61.1),
                },
            },
            ModuleSpec {
                name: "Syndrome out",
                cells: vec![(Merger, 2), (ResettableDro, 4)],
                wires: 18,
                published: PublishedTotals {
                    jjs: 58,
                    area_um2: 25_200.0,
                    bias_ma: 5.4,
                    latency_ps: Some(10.4),
                },
            },
            ModuleSpec {
                name: "Other",
                cells: vec![(Merger, 2)],
                wires: 0,
                published: PublishedTotals {
                    jjs: 38,
                    area_um2: 62_100.0,
                    bias_ma: 5.0,
                    latency_ps: None,
                },
            },
        ];
        Self { modules }
    }

    /// The module rows in Table II order.
    pub fn modules(&self) -> &[ModuleSpec] {
        &self.modules
    }

    /// Looks a module up by its printed name.
    pub fn module(&self, name: &str) -> Option<&ModuleSpec> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// Published whole-Unit totals (Table II "Total" column).
    pub fn published_totals(&self) -> UnitTotals {
        UnitTotals {
            jjs: self.modules.iter().map(|m| m.published.jjs).sum(),
            area_um2: self.modules.iter().map(|m| m.published.area_um2).sum(),
            bias_ma: self.modules.iter().map(|m| m.published.bias_ma).sum(),
            critical_path_ps: crate::timing::unit_critical_path_ps(),
        }
    }

    /// Total wire (JTL) segments across all modules.
    pub fn total_wires(&self) -> u32 {
        self.modules.iter().map(|m| m.wires).sum()
    }

    /// Compositional rollup over all modules (logic cells only).
    pub fn cell_rollup(&self) -> CellRollup {
        let mut total = CellRollup::default();
        for m in &self.modules {
            let r = m.cell_rollup();
            total.jjs += r.jjs;
            total.area_um2 += r.area_um2;
            total.bias_ma += r.bias_ma;
        }
        total
    }

    /// Per-module gap between the published totals and the cells-only
    /// rollup: `(name, published − computed JJs, published − computed area)`.
    ///
    /// The area gap is the wiring (JTL) contribution; the JJ gap mixes
    /// wiring JJs with the paper's internal rounding, and is reported
    /// rather than modeled.
    pub fn reconciliation(&self) -> Vec<(&'static str, i64, f64)> {
        self.modules
            .iter()
            .map(|m| {
                let r = m.cell_rollup();
                (
                    m.name,
                    i64::from(m.published.jjs) - i64::from(r.jjs),
                    m.published.area_um2 - r.area_um2,
                )
            })
            .collect()
    }
}

impl Default for UnitDesign {
    fn default() -> Self {
        Self::paper_unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_totals_match_table2_total_column() {
        let unit = UnitDesign::paper_unit();
        let t = unit.published_totals();
        assert_eq!(t.jjs, 3177, "paper: a Unit consists of 3177 JJs");
        assert!(
            (t.area_um2 - 1_274_400.0).abs() < 1e-6,
            "1.274 mm^2 footprint"
        );
        assert!(
            (t.bias_ma - 336.1).abs() < 0.2,
            "336 mA total bias, got {}",
            t.bias_ma
        );
    }

    #[test]
    fn per_module_published_values_match_paper() {
        let unit = UnitDesign::paper_unit();
        let bp = unit.module("Base pointer (7-bit)").unwrap();
        assert_eq!(bp.published.jjs, 1935);
        assert_eq!(bp.wires, 1085);
        assert_eq!(bp.published.latency_ps, Some(147.0));
        let sm = unit.module("State machine").unwrap();
        assert_eq!(sm.published.jjs, 675);
        assert_eq!(sm.num_cells(), 17 + 14 + 8 + 3 + 20 + 6 + 6);
    }

    #[test]
    fn cell_count_row_sums_match_table2_total_column() {
        // Table II's per-cell "Total" column: splitter 31, merger 65,
        // switch 11, DRO 3, NDRO 20, RD 44, D2 6, wire 1472.
        let unit = UnitDesign::paper_unit();
        let count = |kind: CellKind| -> u32 {
            unit.modules()
                .iter()
                .flat_map(|m| m.cells.iter())
                .filter(|&&(k, _)| k == kind)
                .map(|&(_, n)| n)
                .sum()
        };
        assert_eq!(count(CellKind::Splitter), 31);
        // The paper's merger total is 65; our "Other" module carries the 2
        // mergers the paper assigns to it.
        assert_eq!(count(CellKind::Merger), 65);
        assert_eq!(count(CellKind::Switch12), 11);
        assert_eq!(count(CellKind::Dro), 3);
        assert_eq!(count(CellKind::Ndro), 20);
        assert_eq!(count(CellKind::ResettableDro), 44);
        assert_eq!(count(CellKind::DualOutputDro), 6);
        assert_eq!(unit.total_wires(), 1472);
    }

    #[test]
    fn wiring_area_gap_is_nonnegative_everywhere() {
        // Whatever the wiring model, cells alone can never exceed the
        // published module area.
        let unit = UnitDesign::paper_unit();
        for (name, _, area_gap) in unit.reconciliation() {
            assert!(area_gap >= 0.0, "module {name} has negative wiring area");
        }
    }

    #[test]
    fn reconciliation_documents_the_gap() {
        let unit = UnitDesign::paper_unit();
        let rec = unit.reconciliation();
        assert_eq!(rec.len(), 6);
        // The base pointer dominates the wiring budget.
        let bp = rec.iter().find(|r| r.0 == "Base pointer (7-bit)").unwrap();
        let sm = rec.iter().find(|r| r.0 == "State machine").unwrap();
        assert!(bp.2 > sm.2, "base pointer has the largest wiring area");
    }

    #[test]
    fn unit_rollup_is_sum_of_modules() {
        let unit = UnitDesign::paper_unit();
        let total = unit.cell_rollup();
        let sum: u32 = unit.modules().iter().map(|m| m.cell_rollup().jjs).sum();
        assert_eq!(total.jjs, sum);
        assert!(total.jjs > 0);
        assert!(total.area_um2 > 0.0);
    }
}
