//! Microbenchmarks for the paper's three baseline/recycling pairs
//! (Figures 9–20 in miniature): each baseline against its MCP and MLP
//! recycling variants on the dense connect4 analog and one other
//! dataset.

use gogreen_bench::algo::timed_mine;
use gogreen_bench::BenchGroup;
use gogreen_core::engine::{Engine, Family};
use gogreen_core::{Compressor, Strategy};
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_util::pool::Parallelism;

fn main() {
    let serial = Parallelism::serial();
    for (family, other) in [
        (Family::Hm, PresetKind::Weather),
        (Family::Fp, PresetKind::Pumsb),
        (Family::Tp, PresetKind::Forest),
    ] {
        let mut group = BenchGroup::new(family.key());
        group.sample_size(15);
        for kind in [PresetKind::Connect4, other] {
            let preset = DatasetPreset::new(kind, 0.01);
            let db = preset.generate();
            let fp = Engine::new(Family::Hm).mine(&db, preset.xi_old());
            let xi_new = preset.sweep()[2];
            group.bench(family.name(), preset.name(), || {
                timed_mine(family, &db, xi_new, serial).patterns
            });
            for strategy in [Strategy::Mcp, Strategy::Mlp] {
                let cdb = Compressor::new(strategy).compress(&db, &fp);
                let id = format!("{}-{}", family.tag(), strategy.suffix());
                group.bench(&id, preset.name(), || {
                    timed_mine(family, &cdb, xi_new, serial).patterns
                });
            }
        }
    }
}
