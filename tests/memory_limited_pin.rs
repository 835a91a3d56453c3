//! Pins the §5.3 memory-limited drivers on the weather analog.
//!
//! Both drivers' exact spill/load/depth reports are fixed here: the
//! load-vs-respill decision is a pure function of the partition
//! contents, so any change to how partitions are written, read or
//! estimated shows up as a changed count. Their pattern streams must
//! equal the Apriori oracle at every budget, one of which is tight
//! enough to force nested respills.

use gogreen::core::utility::Strategy;
use gogreen::datagen::presets::{DatasetPreset, PresetKind};
use gogreen::prelude::*;
use gogreen::storage::{LimitedHMine, LimitedRecycledHMine, LimitedReport, MemoryBudget};
use gogreen_miners::mine_apriori;

/// `(spills, loads, max_depth)` of one run.
type Shape = (usize, usize, usize);

fn shape(r: &LimitedReport) -> Shape {
    (r.spills, r.loads, r.max_depth)
}

#[test]
fn weather_spill_reports_are_pinned() {
    let preset = DatasetPreset::new(PresetKind::Weather, 0.002);
    let db = preset.generate();
    let xi_new = MinSupport::percent(3.0);
    let want = mine_apriori(&db, xi_new);
    let fp_old = Engine::new(Family::Hm).mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    // (budget bytes, H-Mine report, HM-MCP report)
    let pinned: [(usize, Shape, Shape); 2] =
        [(32 << 10, (5, 112, 2), (1, 94, 1)), (8 << 10, (176, 371, 5), (11, 163, 2))];
    for (bytes, want_hm, want_mcp) in pinned {
        let budget = MemoryBudget::bytes(bytes);
        let (hm, rep_hm) = LimitedHMine::new(budget).mine(&db, xi_new).expect("spill i/o");
        let (mcp, rep_mcp) =
            LimitedRecycledHMine::new(budget).mine(&cdb, xi_new).expect("spill i/o");
        assert!(hm.same_patterns_as(&want), "H-Mine @ {bytes} B: {} vs {}", hm.len(), want.len());
        assert!(mcp.same_patterns_as(&want), "HM-MCP @ {bytes} B: {} vs {}", mcp.len(), want.len());
        assert_eq!(shape(&rep_hm), want_hm, "H-Mine report @ {bytes} B");
        assert_eq!(shape(&rep_mcp), want_mcp, "HM-MCP report @ {bytes} B");
    }
}
