//! The mining engine, re-exported from [`gogreen_miners::engine`], and
//! the compressed database as one of its inputs.
//!
//! Each family's traversal is written once, generically over
//! [`gogreen_data::GroupedSource`]. A plain [`gogreen_data::TransactionDb`]
//! encodes into the degenerate [`gogreen_data::PlainRanks`] substrate; a
//! [`CompressedDb`] encodes into the real [`crate::cdb::CompressedRankDb`]
//! (the paper's identity: a raw database is a compressed database with
//! empty heads). So one [`Engine`] mines both, and every front end — the
//! CLI, the session, batches, the out-of-core drivers, the benchmark
//! harness — resolves families through [`engine_named`] or [`Family`].

use crate::cdb::CompressedDb;
use gogreen_data::{FList, PatternSink};
use gogreen_util::pool::Parallelism;

pub use gogreen_miners::engine::vt::VtRepr;
pub use gogreen_miners::engine::{
    engine_keys, engine_named, Engine, EngineOpts, Family, MineInput,
};

impl MineInput for CompressedDb {
    fn num_tuples(&self) -> usize {
        CompressedDb::num_tuples(self)
    }

    fn item_supports(&self, par: Parallelism) -> Vec<u64> {
        self.item_supports_par(par)
    }

    fn mine_encoded(
        &self,
        engine: &Engine,
        flist: &FList,
        minsup: u64,
        par: Parallelism,
        sink: &mut dyn PatternSink,
    ) {
        engine.mine_source(&self.to_ranks(flist), flist, minsup, par, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::{MinSupport, TransactionDb};
    use gogreen_miners::mine_apriori;

    #[test]
    fn every_family_is_exact_on_a_compressed_input() {
        let db = TransactionDb::paper_example();
        let fp_old = mine_apriori(&db, MinSupport::Absolute(3));
        let cdb = crate::Compressor::new(crate::Strategy::Mcp).compress(&db, &fp_old);
        let oracle = mine_apriori(&db, MinSupport::Absolute(2));
        for f in Family::ALL {
            let got = Engine::new(f).mine(&cdb, MinSupport::Absolute(2));
            assert!(got.same_patterns_as(&oracle), "{f:?}");
        }
    }
}
