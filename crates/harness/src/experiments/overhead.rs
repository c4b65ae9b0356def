//! §VI-C — overhead analysis.
//!
//! CPPE uses three driver-side structures: the chunk chain, the pattern
//! buffer, and the evicted-chunk (wrong-eviction) buffer. Each entry is
//! 12 bytes (8 B chunk tag + 4 B bit set). The paper reports, averaged
//! over the benchmarks, 731 entries (8.6 KB) at 75 % and 559 entries
//! (6.6 KB) at 50 %, an average evicted-buffer length of 73/51, and a
//! pattern buffer at 37.2 %/88.7 % of the chain length for the apps
//! that use it.

use crate::plan::{cross, Experiment, Results};
use crate::report::{Report, Table};
use crate::runner::{Cell, ExpConfig, RATES};
use cppe::presets::PolicyPreset;
use workloads::registry;

/// §VI-C as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("overhead", cells, render);

/// Every app under CPPE at both rates.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    cross(&registry::all(), &[PolicyPreset::Cppe], &RATES, cfg)
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let specs = registry::all();

    let mut out = String::new();
    out.push_str(&format!(
        "§VI-C — CPPE structure overhead (12 B per entry), scale={}\n\n",
        cfg.scale
    ));
    for rate in RATES {
        let mut table = Table::new(&["app", "chain", "evict-buf", "pattern-buf", "entries", "KB"]);
        let mut tot_entries = 0usize;
        let mut pattern_frac = Vec::new();
        for spec in &specs {
            let r = results.cell(spec.abbr, PolicyPreset::Cppe, rate, cfg);
            let o = r.overhead;
            let entries = o.total_entries();
            tot_entries += entries;
            if o.pattern_buffer_max > 0 && o.chain_max_len > 0 {
                pattern_frac.push(o.pattern_buffer_max as f64 / o.chain_max_len as f64);
            }
            table.row(vec![
                spec.abbr.to_string(),
                o.chain_max_len.to_string(),
                o.evicted_buffer_max.to_string(),
                o.pattern_buffer_max.to_string(),
                entries.to_string(),
                format!("{:.1}", o.storage_bytes() as f64 / 1024.0),
            ]);
        }
        let avg_entries = tot_entries / specs.len();
        let avg_frac = if pattern_frac.is_empty() {
            0.0
        } else {
            pattern_frac.iter().sum::<f64>() / pattern_frac.len() as f64
        };
        out.push_str(&format!("-- {}% oversubscription --\n", rate * 100.0));
        out.push_str(&table.render());
        out.push_str(&format!(
            "average entries: {avg_entries} ({:.1} KB); pattern buffer at\n\
             {:.1}% of chain length for apps that use it\n\n",
            avg_entries as f64 * 12.0 / 1024.0,
            avg_frac * 100.0
        ));
    }
    out.push_str(
        "Paper values (full-scale footprints): 731 entries / 8.6 KB at 75%,\n\
         559 entries / 6.6 KB at 50%; evicted-buffer avg 73/51; pattern\n\
         buffer 37.2%/88.7% of chain length. Storage lives in CPU memory —\n\
         negligible either way.\n",
    );
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_kilobytes_not_megabytes() {
        let cfg = ExpConfig::quick();
        let report = EXPERIMENT.run(&cfg, 0).text;
        assert!(report.contains("average entries"));
        // Sanity: every KB cell in the table is small (< 1 MB).
        for line in report.lines() {
            if let Some(last) = line.split_whitespace().last() {
                if let Ok(kb) = last.parse::<f64>() {
                    assert!(kb < 1024.0, "structure overhead {kb} KB too large");
                }
            }
        }
    }
}
