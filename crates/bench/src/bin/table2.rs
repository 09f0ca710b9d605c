//! Regenerates **Table II**: the per-module composition of a QECOOL
//! hardware Unit (cell counts, JJs, area, bias current, latency), plus the
//! derived §IV-C quantities: critical path, maximum clock frequency and
//! RSFQ power.
//!
//! The published totals are authoritative data; the "cells-only" columns
//! show the compositional rollup from Table I and the wiring remainder
//! (the paper's table does not reconcile exactly against its own cell
//! library; `UnitDesign::reconciliation` in `qecool-sfq` measures the gap).
//!
//! ```text
//! cargo run --release -p qecool-bench --bin table2 [-- --out table2.csv]
//! ```

use qecool_bench::{Options, TextTable};
use qecool_sfq::power::rsfq_static_power_w;
use qecool_sfq::timing::{max_clock_ghz, unit_critical_path_ps, unit_timing_graph};
use qecool_sfq::UnitDesign;

fn main() {
    let opts = Options::parse(0);
    let unit = UnitDesign::paper_unit();

    let mut table = TextTable::new([
        "module",
        "cells",
        "wires",
        "JJs (published)",
        "JJs (cells only)",
        "area um^2 (published)",
        "area um^2 (cells only)",
        "bias mA (published)",
        "latency ps",
    ]);
    for m in unit.modules() {
        let r = m.cell_rollup();
        table.row([
            m.name.to_owned(),
            m.num_cells().to_string(),
            m.wires.to_string(),
            m.published.jjs.to_string(),
            r.jjs.to_string(),
            format!("{:.0}", m.published.area_um2),
            format!("{:.0}", r.area_um2),
            format!("{:.1}", m.published.bias_ma),
            m.published
                .latency_ps
                .map_or_else(|| "-".to_owned(), |l| format!("{l:.1}")),
        ]);
    }
    let totals = unit.published_totals();
    table.row([
        "TOTAL".to_owned(),
        unit.modules()
            .iter()
            .map(|m| m.num_cells())
            .sum::<u32>()
            .to_string(),
        unit.total_wires().to_string(),
        totals.jjs.to_string(),
        unit.cell_rollup().jjs.to_string(),
        format!("{:.0}", totals.area_um2),
        format!("{:.0}", unit.cell_rollup().area_um2),
        format!("{:.1}", totals.bias_ma),
        format!("{:.1}", totals.critical_path_ps),
    ]);
    println!("{}", table.render());

    let cp = unit_critical_path_ps();
    println!(
        "critical path     : {:.1} ps through {:?}",
        cp,
        unit_timing_graph().critical_path_nodes()
    );
    println!(
        "max clock         : {:.2} GHz (paper: \"about 5 GHz\")",
        max_clock_ghz(cp)
    );
    println!(
        "RSFQ static power : {:.0} uW/Unit at 2.5 mV (paper: 840 uW)",
        rsfq_static_power_w(totals.bias_ma, 2.5) * 1e6
    );
    println!(
        "paper reference   : 3177 JJs, 1.274 mm^2, 336 mA, 215 ps max delay (Table II, Fig. 6)"
    );
    // Fig. 6 shows the 1770 um x 720 um Unit layout; its floorplan shares
    // are implied by the module areas.
    println!("\nfloorplan shares (Fig. 6, from published module areas):");
    for m in unit.modules() {
        println!(
            "  {:<22} {:5.1}%",
            m.name,
            100.0 * m.published.area_um2 / totals.area_um2
        );
    }
    println!(
        "  (1770 um x 720 um = {:.4} mm^2, matching the Table II total)",
        1770.0 * 720.0 / 1e6
    );
    opts.write_csv(&table.to_csv());
}
