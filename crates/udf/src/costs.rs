//! The work-unit cost model of the UDF interpreter.
//!
//! The paper labels its corpus with wall-clock runtimes measured in DuckDB on
//! a fixed machine (142 hours of execution). A reproduction cannot rely on
//! wall clocks — CI machines are noisy and shared — so the interpreter and
//! the execution engine *count work*: every operation they actually perform
//! adds a weighted number of work units, and one unit is defined as one
//! simulated nanosecond. The weights below are calibrated to the relative
//! magnitudes a CPython-in-DuckDB stack exhibits (interpreter dispatch per
//! statement, boxed arithmetic, expensive numpy scalar ufuncs, per-character
//! string costs, per-row invocation/conversion overhead).
//!
//! What matters for reproducing the paper is not the absolute values but the
//! *relations*: loops multiply body cost by trip count, branch paths differ
//! in cost, UDF invocation has per-row overhead, and an expensive UDF
//! dominates scan/join costs so pull-up decisions matter (Figure 1).

use crate::bytecode::CostKind;
use crate::libfns::LibFn;

/// Cost weights in work units (≈ simulated nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct CostWeights {
    /// Per interpreted statement (dispatch overhead).
    pub stmt_dispatch: f64,
    /// Per binary arithmetic operation on numbers.
    pub arith: f64,
    /// Extra cost for `**` and `//` (slow paths).
    pub arith_slow_extra: f64,
    /// Per comparison.
    pub compare: f64,
    /// Per-character cost of string operations (concat, replace, case...).
    pub str_per_char: f64,
    /// Base cost of any string operation.
    pub str_base: f64,
    /// Per loop iteration (range protocol / condition re-check).
    pub loop_iter: f64,
    /// Per branch evaluation (jump + condition dispatch).
    pub branch: f64,
    /// Per variable assignment (store + refcount in CPython terms).
    pub assign: f64,
    /// Per UDF invocation: fixed overhead (frame setup, GIL, ...).
    pub invoke_base: f64,
    /// Per argument conversion DBMS→Python.
    pub invoke_per_arg: f64,
    /// Extra per-character cost converting text arguments.
    pub invoke_text_per_char: f64,
    /// Per returned value conversion Python→DBMS.
    pub return_conv: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            stmt_dispatch: 28.0,
            arith: 32.0,
            arith_slow_extra: 45.0,
            compare: 30.0,
            str_per_char: 2.2,
            str_base: 36.0,
            loop_iter: 42.0,
            branch: 34.0,
            assign: 22.0,
            invoke_base: 420.0,
            invoke_per_arg: 65.0,
            invoke_text_per_char: 1.6,
            return_conv: 140.0,
        }
    }
}

/// Accumulated work with per-kind counters.
///
/// The total is what turns into simulated runtime; the counters exist for
/// tests and for the ablation analyses (e.g. verifying that loop-heavy UDFs
/// really execute more iterations).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostCounter {
    /// Total work units.
    pub total: f64,
    pub arith_ops: u64,
    pub compare_ops: u64,
    pub string_ops: u64,
    pub string_chars: u64,
    pub lib_calls: u64,
    pub branches: u64,
    pub loop_iters: u64,
    pub assigns: u64,
    pub statements: u64,
}

impl CostCounter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_stmt(&mut self, w: &CostWeights) {
        self.statements += 1;
        self.total += w.stmt_dispatch;
    }

    pub fn add_arith(&mut self, w: &CostWeights, slow: bool) {
        self.arith_ops += 1;
        self.total += w.arith + if slow { w.arith_slow_extra } else { 0.0 };
    }

    pub fn add_compare(&mut self, w: &CostWeights) {
        self.compare_ops += 1;
        self.total += w.compare;
    }

    pub fn add_string(&mut self, w: &CostWeights, chars: usize) {
        self.string_ops += 1;
        self.string_chars += chars as u64;
        self.total += w.str_base + w.str_per_char * chars as f64;
    }

    pub fn add_lib_call(&mut self, f: LibFn) {
        self.lib_calls += 1;
        self.total += f.base_cost();
    }

    pub fn add_branch(&mut self, w: &CostWeights) {
        self.branches += 1;
        self.total += w.branch;
    }

    pub fn add_loop_iter(&mut self, w: &CostWeights) {
        self.loop_iters += 1;
        self.total += w.loop_iter;
    }

    pub fn add_assign(&mut self, w: &CostWeights) {
        self.assigns += 1;
        self.total += w.assign;
    }

    /// The fixed-rate charge of one [`crate::bytecode::Instr::Cost`] marker.
    pub fn charge(&mut self, w: &CostWeights, kind: CostKind) {
        match kind {
            CostKind::Stmt => self.add_stmt(w),
            CostKind::Assign => self.add_assign(w),
            CostKind::Branch => self.add_branch(w),
            CostKind::Compare => self.add_compare(w),
        }
    }

    pub fn add_invocation(&mut self, w: &CostWeights, n_args: usize, text_chars: usize) {
        self.total += w.invoke_base
            + w.invoke_per_arg * n_args as f64
            + w.invoke_text_per_char * text_chars as f64;
    }

    pub fn add_return(&mut self, w: &CostWeights) {
        self.total += w.return_conv;
    }

    /// `times` merges of `self` as one counter, onto a total of `onto`;
    /// `None` where the product or the sum would reach 2^52. Exact for the
    /// integer-valued charges of a [`crate::prune()`]d program only.
    pub fn repeated(&self, times: u64, onto: f64) -> Option<CostCounter> {
        const EXACT: f64 = (1u64 << 52) as f64;
        let total = self.total * times as f64;
        let fits = onto.abs() + total.abs() < EXACT;
        if times >= 1 << 52 || !fits {
            return None;
        }
        let k = |n: u64| n.checked_mul(times);
        Some(CostCounter {
            total,
            arith_ops: k(self.arith_ops)?,
            compare_ops: k(self.compare_ops)?,
            string_ops: k(self.string_ops)?,
            string_chars: k(self.string_chars)?,
            lib_calls: k(self.lib_calls)?,
            branches: k(self.branches)?,
            loop_iters: k(self.loop_iters)?,
            assigns: k(self.assigns)?,
            statements: k(self.statements)?,
        })
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &CostCounter) {
        self.total += other.total;
        self.arith_ops += other.arith_ops;
        self.compare_ops += other.compare_ops;
        self.string_ops += other.string_ops;
        self.string_chars += other.string_chars;
        self.lib_calls += other.lib_calls;
        self.branches += other.branches;
        self.loop_iters += other.loop_iters;
        self.assigns += other.assigns;
        self.statements += other.statements;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let w = CostWeights::default();
        let mut c = CostCounter::new();
        c.add_arith(&w, false);
        c.add_arith(&w, true);
        c.add_string(&w, 10);
        c.add_lib_call(LibFn::NpSqrt);
        assert_eq!(c.arith_ops, 2);
        assert_eq!(c.string_chars, 10);
        let expected = w.arith * 2.0
            + w.arith_slow_extra
            + w.str_base
            + w.str_per_char * 10.0
            + LibFn::NpSqrt.base_cost();
        assert!((c.total - expected).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_everything() {
        let w = CostWeights::default();
        let mut a = CostCounter::new();
        a.add_branch(&w);
        let mut b = CostCounter::new();
        b.add_loop_iter(&w);
        b.add_loop_iter(&w);
        a.merge(&b);
        assert_eq!(a.branches, 1);
        assert_eq!(a.loop_iters, 2);
        assert!((a.total - (w.branch + 2.0 * w.loop_iter)).abs() < 1e-9);
    }

    #[test]
    fn invocation_costs_scale_with_args() {
        let w = CostWeights::default();
        let mut small = CostCounter::new();
        small.add_invocation(&w, 1, 0);
        let mut big = CostCounter::new();
        big.add_invocation(&w, 3, 40);
        assert!(big.total > small.total);
    }
}
