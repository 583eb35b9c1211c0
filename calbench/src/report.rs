//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` documents the same names and units; the smoke test keeps
//! the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("proposed_cost_p50", "cal"),
    ("proposed_cost_p90", "cal"),
    ("weierstrass_cost_p50", "cal"),
    ("weierstrass_cost_p90", "cal"),
    ("serve_p50_ms", "ms"),
    ("serve_ok_share", "ratio"),
];

/// Per-layer metrics (traced runs): name and unit.  A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("passivity.impulse_ms", "ms"),
    ("passivity.nondynamic_ms", "ms"),
    ("passivity.residue_ms", "ms"),
    ("passivity.regularize_ms", "ms"),
    ("passivity.split_ms", "ms"),
    ("passivity.proper_phi_order", "count"),
    ("passivity.table1_ratio", "ratio"),
    ("linalg.sign_ms", "ms"),
    ("linalg.sign_iters", "count"),
    ("linalg.schur_ms", "ms"),
    ("linalg.matmul_gflops", "GFLOP/s"),
    ("linalg.lu_gflops", "GFLOP/s"),
    ("linalg.sparse_lu_ms", "ms"),
    ("descriptor.decompose_ms", "ms"),
    ("descriptor.stability_ms", "ms"),
    ("shh.reduce_ms", "ms"),
    ("shh.reduced_order", "count"),
    ("shh.reduce_residual", "ratio"),
    ("shh.build_phi_ms", "ms"),
    ("shh.pr_test_ms", "ms"),
    ("circuits.stamp_sparse_ms", "ms"),
    ("circuits.nnz", "count"),
    ("circuits.stamp_ms", "ms"),
    ("netlist.parse_ms", "ms"),
    ("netlist.parse_mb_per_s", "MB/s"),
    ("lmi.check_ms", "ms"),
    ("pipeline.overhead_ms", "ms"),
    ("harness.store_append_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve.accept_wait_ms_p50", "ms"),
    ("serve.hit_share", "ratio"),
    ("serve.store_hit_share", "ratio"),
    ("serve.miss_share", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.server_check_ms_p50", "ms"),
    ("serve.connect_ms_p50", "ms"),
    ("serve.rejected_429", "count"),
    ("alloc.proposed_per_check", "count"),
    ("alloc.weierstrass_per_check", "count"),
    ("alloc.reduce_per_check", "count"),
    ("alloc.mb_per_check", "MB"),
    ("bench.cal_ms", "ms"),
    ("bench.cpu_share", "ratio"),
    ("bench.runq_wait_ms", "ms"),
    ("raw.proposed_ms_p50", "ms"),
    ("raw.weierstrass_ms_p50", "ms"),
    ("raw.checks_per_s", "1/s"),
    ("bench.gen_lag_ms_p99", "ms"),
    ("obs.trace_overhead_share", "ratio"),
];

/// Operations, failures and metric values of one run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (checks and requests).
    pub attempted: u64,
    /// Operations that failed: errors, wrong verdicts, malformed replies.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(message.into());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Renders the result line: every metric of the traced or untraced
    /// catalogue, with its unit.  A missing end-to-end metric or a
    /// non-finite value is a benchmark bug and an error.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}
