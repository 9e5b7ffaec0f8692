package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. The two tables below are the
// single source of the names and units; BENCHMARK.json repeats them and
// the smoke test checks that the two agree.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system waits for or pays for.
// Every workload reports every one of them (README.md says what each
// means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"solve_s", "s"},
	{"solve_p75_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_p95_s", "s"},
	{"jobs_per_s", "1/s"},
	{"session_heap_mb", "MB"},
}

// perLayer lists the single-layer metrics of the traced run. A metric
// that does not apply to a workload (gateway.* on the solver workloads,
// ckpt.* outside warm_block) is reported as 0 there.
var perLayer = []metricDef{
	{"cases.assemble_s", "s"},
	{"cases.unknowns", "count"},
	{"cases.nnz", "count"},
	{"partition.general_s", "s"},
	{"partition.edge_cut", "count"},
	{"partition.imbalance", "ratio"},
	{"dsys.distribute_s", "s"},
	{"dsys.exchange_s", "s"},
	{"dsys.exchange_count", "count"},
	{"dsys.spmv_s", "s"},
	{"dsys.iface_unknowns", "count"},
	{"sparse.spmv_s", "s"},
	{"sparse.spmv_gflops", "gflop/s"},
	{"sparse.spmv_flops_per_byte", "flop/byte"},
	{"sparse.bsr_routed", "count"},
	{"ilu.ilu0_factor_s", "s"},
	{"ilu.ilut_factor_s", "s"},
	{"ilu.trisolve_s", "s"},
	{"ilu.factor_nnz", "count"},
	{"ilu.fill_ratio", "ratio"},
	{"precond.build_s", "s"},
	{"precond.apply_s", "s"},
	{"precond.apply_count", "count"},
	{"precond.apply_share", "ratio"},
	{"schur.msgs_per_outer_iter", "count"},
	{"schur.allreduce_per_outer_iter", "count"},
	{"schur.inner_share", "ratio"},
	{"krylov.iterations", "count"},
	{"krylov.restarts", "count"},
	{"krylov.orth_s", "s"},
	{"krylov.s_per_iter", "s"},
	{"krylov.final_relres_max", "ratio"},
	{"dist.model_clock_s", "s"},
	{"dist.model_setup_s", "s"},
	{"dist.model_comm_share", "ratio"},
	{"dist.msgs_sent", "count"},
	{"dist.bytes_sent", "count"},
	{"dist.flops", "count"},
	{"dist.allreduce_s", "s"},
	{"dist.allreduce_count", "count"},
	{"dist.recv_wait_s", "s"},
	{"dist.pingpong_us", "us"},
	{"dist.allreduce_p8_us", "us"},
	{"core.cold_overhead_s", "s"},
	{"core.serial_solve_s", "s"},
	{"core.alloc_mb_per_solve", "MB"},
	{"core.gc_pause_ms", "ms"},
	{"core.peak_rss_mb", "MB"},
	{"core.unattributed_share", "ratio"},
	{"gateway.submit_s", "s"},
	{"gateway.queue_wait_s", "s"},
	{"gateway.first_residual_s", "s"},
	{"gateway.stream_tail_s", "s"},
	{"gateway.hit_latency_p50_s", "s"},
	{"gateway.miss_latency_p50_s", "s"},
	{"gateway.session_hit_ratio", "ratio"},
	{"gateway.rejected_429", "count"},
	{"gateway.events_per_job", "count"},
	{"gateway.heap_mb_per_100_jobs", "MB"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"obs.spans_per_op", "count"},
	{"ckpt.overhead_ratio", "ratio"},
	{"ckpt.bytes_per_checkpoint", "count"},
	{"calib.triad_gb_s", "GB/s"},
	{"calib.daxpy_gflops", "gflop/s"},
	{"failed_ratio", "ratio"},
}

// metricValue is the wire form of one measured value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run, checked against a table of
// declarations when it is finished.
type metricSet map[string]float64

// finish turns the set into the wire form: every declared metric exactly
// once, anything the run did not measure as 0. A value that is not finite
// cannot be reported and is recorded as a failure; an undeclared name is a
// bug in the benchmark.
func (m metricSet) finish(defs []metricDef, t *tally) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.violation(fmt.Sprintf("metric %s is not finite (%v)", d.Name, v))
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			panic("benchmark: undeclared metric " + name)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
