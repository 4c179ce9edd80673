package main

// metricDecl declares one metric. BENCHMARK.json repeats Name, Unit,
// Better and Bound; the smoke test holds the two lists equal.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. An Exact
	// metric is a count that repeats exactly for a seed: its bound only
	// has to cover the spread between seeds, and --compare allows it no
	// worsening at all between two sets of the same seed.
	Bound float64
	Exact bool
	// Layer is the package a per-layer metric belongs to, and Moves the
	// end-to-end metric @ workload pairs a change to that layer should
	// move; on every other pairing the prediction is no change.
	Layer string
	Moves []string
	Doc   string
}

// endToEnd is reported by every workload with --trace 0. What op_cal_us
// and work_per_cal_s measure is the workload's operation of record and
// unit of work (workloadDef.op and .work), in calibrated time: wall time
// scaled by how much slower or faster than yardNominal the yardstick ran
// during the same window. The build counters and table_bytes describe the
// instance the workload builds or serves.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median of the 3 to 9 set-ups of one run, in wall seconds: spec to built tables, daemons booted, clients connected, warm-up pass done"},
	{Name: "op_cal_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "time of the workload's operation of record, in calibrated microseconds: the interquartile mean of its wall time in each of the 10 parts of the window, the lower quartile of those, times 50 ms over the lower quartile of the 11 yardstick timings"},
	{Name: "work_per_cal_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "verified units of the workload's work per calibrated second: the rate in each part, the upper quartile of those, times the lower quartile of the yardstick timings over 50 ms"},
	{Name: "build_rounds", Unit: "rounds", Better: "lower", Bound: 0.25, Exact: true,
		Doc: "simulated CONGEST rounds that carried work (core.Result.ActiveRounds, summed over a compact hierarchy's levels)"},
	{Name: "build_messages", Unit: "messages", Better: "lower", Bound: 0.25, Exact: true,
		Doc: "simulated CONGEST messages (core.Result.Messages, summed likewise)"},
	{Name: "table_bytes", Unit: "B", Better: "lower", Bound: 0.25, Exact: true,
		Doc: "Accounting().TableBytes of the built or served instance"},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Doc: "live heap after the last set-up and a forced collection: what the built tables and booted daemons hold"},
}

const (
	buildS  = "op_cal_us@build-dense"
	buildSp = "op_cal_us@build-sparse"
	bulkQ   = "work_per_cal_s@serve-bulk"
	smallR  = "op_cal_us@serve-small"
	smallS  = "work_per_cal_s@serve-small"
	relayR  = "op_cal_us@serve-relay"
	httpR   = "op_cal_us@serve-http"
	updS    = "op_cal_us@churn-mixed"
	churnW  = "work_per_cal_s@churn-mixed"
	setdR   = "op_cal_us@aggregate-mix"
	routeR  = "work_per_cal_s@aggregate-mix"
	serveUp = "setup_s@serve-bulk"
)

// perLayer is reported by every workload with --trace 1, measured by
// probes.all on that workload's own graph and tables.
var perLayer = []metricDecl{
	{Name: "graph.generate_s", Unit: "s", Better: "lower", Layer: "graph", Moves: []string{buildSp, serveUp}, Doc: "one Spec.BuildGraph of the workload's spec"},
	{Name: "graph.apply_changes_us", Unit: "us", Better: "lower", Layer: "graph", Moves: []string{updS}, Doc: "median single-edge reweight through Graph.ApplyChanges"},
	{Name: "graph.dijkstra_us", Unit: "us", Better: "lower", Layer: "graph", Moves: []string{setdR}, Doc: "median graph.Dijkstra from one source (setdist landmark keys, the stretch probe)"},

	{Name: "congest.ns_per_message", Unit: "ns", Better: "lower", Layer: "congest", Moves: []string{buildS}, Doc: "baseline.FloodingAPSP on a 96-node graph of the workload's family: wall time per delivered message"},
	{Name: "congest.ns_per_round", Unit: "ns", Better: "lower", Layer: "congest", Moves: []string{buildSp}, Doc: "the same probe: wall time per active round"},
	{Name: "congest.allocs_per_round", Unit: "count", Better: "lower", Layer: "congest", Moves: []string{buildS, buildSp}, Doc: "the same probe: heap allocations per active round"},
	{Name: "congest.rounds", Unit: "rounds", Better: "lower", Layer: "congest", Doc: "the same probe: active rounds"},
	{Name: "congest.messages", Unit: "messages", Better: "lower", Layer: "congest", Doc: "the same probe: messages delivered"},

	{Name: "detection.run_s", Unit: "s", Better: "lower", Layer: "detection", Moves: []string{buildS, buildSp}, Doc: "one unweighted detection.Run with the workload's (S,h,sigma) and the message cap"},
	{Name: "detection.rounds", Unit: "rounds", Better: "lower", Layer: "detection", Doc: "its active rounds"},
	{Name: "detection.messages", Unit: "messages", Better: "lower", Layer: "detection", Doc: "its messages; must not move for an engine-only change"},
	{Name: "detection.ns_per_message", Unit: "ns", Better: "lower", Layer: "detection", Moves: []string{buildS}, Doc: "its wall time per message"},
	{Name: "detection.allocs_per_round", Unit: "count", Better: "lower", Layer: "detection", Moves: []string{buildS, buildSp}, Doc: "its heap allocations per active round"},

	{Name: "core.run_s", Unit: "s", Better: "lower", Layer: "core", Moves: []string{buildS, buildSp, serveUp}, Doc: "one core.Run with the workload's parameters"},
	{Name: "core.instances", Unit: "count", Better: "lower", Layer: "core", Doc: "rounding instances of that run"},
	{Name: "core.active_rounds", Unit: "rounds", Better: "lower", Layer: "core", Doc: "rounds that carried work"},
	{Name: "core.budget_rounds", Unit: "rounds", Better: "lower", Layer: "core", Doc: "the round budget the paper's bound grants"},
	{Name: "core.round_utilization", Unit: "ratio", Better: "higher", Layer: "core", Doc: "active / budget rounds"},
	{Name: "core.messages", Unit: "messages", Better: "lower", Layer: "core", Doc: "messages of that run"},
	{Name: "core.message_bits", Unit: "bits", Better: "lower", Layer: "core", Doc: "bits of that run"},
	{Name: "core.ns_per_message", Unit: "ns", Better: "lower", Layer: "core", Moves: []string{buildS}, Doc: "its wall time per message"},
	{Name: "core.allocs_per_build", Unit: "count", Better: "lower", Layer: "core", Moves: []string{buildS, buildSp}, Doc: "heap allocations of that run"},
	{Name: "core.patch_s", Unit: "s", Better: "lower", Layer: "core", Moves: []string{updS, churnW}, Doc: "one core.Patch after a seeded single-edge reweight"},
	{Name: "core.patch_rebuilt_frac", Unit: "ratio", Better: "lower", Layer: "core", Moves: []string{updS}, Doc: "instances that patch rebuilt / instances"},
	{Name: "core.affected_us", Unit: "us", Better: "lower", Layer: "core", Moves: []string{updS}, Doc: "one core.AffectedInstances for that reweight"},

	{Name: "oracle.compile_s", Unit: "s", Better: "lower", Layer: "oracle", Moves: []string{buildS, updS, serveUp}, Doc: "one oracle.Compile of that run's result"},
	{Name: "oracle.bytes", Unit: "B", Better: "lower", Layer: "oracle", Moves: []string{"table_bytes@serve-bulk"}, Doc: "Oracle.Bytes"},
	{Name: "oracle.entries", Unit: "count", Better: "lower", Layer: "oracle", Doc: "Oracle.Entries"},
	{Name: "oracle.estimate_ns", Unit: "ns", Better: "lower", Layer: "oracle", Doc: "per query, a loop over Oracle.Estimate on the shared seeded random stream"},
	{Name: "oracle.answerall_ns", Unit: "ns", Better: "lower", Layer: "oracle", Doc: "per query, Oracle.AnswerAll on the same stream"},
	{Name: "oracle.answersorted_ns", Unit: "ns", Better: "lower", Layer: "oracle", Moves: []string{bulkQ}, Doc: "per query, Oracle.AnswerSorted on a sorted copy of the stream"},
	{Name: "oracle.answerinto_ns", Unit: "ns", Better: "lower", Layer: "oracle", Doc: "per query, Oracle.AnswerInto at GOMAXPROCS workers"},

	{Name: "scheme.build_overhead_s", Unit: "s", Better: "lower", Layer: "scheme", Moves: []string{buildS, buildSp}, Doc: "scheme.NewOracleInstance minus oracle.Compile: router, stretch probe, accounting"},
	{Name: "scheme.update_s", Unit: "s", Better: "lower", Layer: "scheme", Moves: []string{updS}, Doc: "one in-process scheme.Update for that reweight"},
	{Name: "scheme.compact_answer_ns", Unit: "ns", Better: "lower", Layer: "scheme", Moves: []string{setdR}, Doc: "per query, AnswerInto of a compact k=3 n=128 side instance, 1 worker"},
	{Name: "scheme.compact_route_us", Unit: "us", Better: "lower", Layer: "scheme", Moves: []string{routeR}, Doc: "per route, Route of the same side instance"},
	{Name: "scheme.rtc_answer_ns", Unit: "ns", Better: "lower", Layer: "scheme", Doc: "per query, AnswerInto of an rtc k=2 n=128 side instance, 1 worker"},

	{Name: "setdist.eval_pruned_us", Unit: "us", Better: "lower", Layer: "setdist", Moves: []string{setdR}, Doc: "median in-process setdist.Eval, sets of 32 and 64 nodes, on the workload's instance"},
	{Name: "setdist.eval_naive_us", Unit: "us", Better: "lower", Layer: "setdist", Doc: "the same with Naive"},
	{Name: "setdist.issued_frac", Unit: "ratio", Better: "lower", Layer: "setdist", Moves: []string{setdR}, Doc: "estimates the pruned evaluation issued / candidate pairs"},

	{Name: "server.http_bin_qps", Unit: "1/s", Better: "higher", Layer: "server", Doc: "answers per second, binary /v1/estimate, bulk frames, 2 clients"},
	{Name: "server.http_bin_rtt_p50_us", Unit: "us", Better: "lower", Layer: "server", Doc: "median 16-query binary /v1/estimate round trip, 1 client"},
	{Name: "server.http_json_rtt_p50_us", Unit: "us", Better: "lower", Layer: "server", Moves: []string{httpR}, Doc: "median 16-query JSON /v1/estimate round trip, 1 client"},
	{Name: "server.http_json_rtt_p99_us", Unit: "us", Better: "lower", Layer: "server", Doc: "p99 of the same sample; it varies too much between runs to carry a bound"},
	{Name: "server.codec_ns_per_q", Unit: "ns", Better: "lower", Layer: "server", Doc: "per query, EncodeQueries+DecodeQueries+EncodeAnswers+DecodeAnswers"},
	{Name: "server.flushes", Unit: "count", Better: "lower", Layer: "server", Doc: "micro-batch flushes /v1/stats reports after the binary passes"},
	{Name: "server.avg_batch", Unit: "count", Better: "higher", Layer: "server", Doc: "queries per flush, from /v1/stats"},
	{Name: "server.route_rps_hot", Unit: "1/s", Better: "higher", Layer: "server", Moves: []string{routeR}, Doc: "routes per second, 16-pair /v1/route requests from a 512-pair hot set"},
	{Name: "server.route_rps_cold", Unit: "1/s", Better: "higher", Layer: "server", Moves: []string{routeR}, Doc: "the same with pairs not asked before"},
	{Name: "server.route_cache_hit_rate", Unit: "ratio", Better: "higher", Layer: "server", Doc: "route LRU hits / lookups over both passes, from /v1/stats"},
	{Name: "server.setdist_rtt_p50_us", Unit: "us", Better: "lower", Layer: "server", Moves: []string{setdR}, Doc: "median pruned JSON /v1/setdist round trip, 1 client"},
	{Name: "server.setdist_naive_rtt_p50_us", Unit: "us", Better: "lower", Layer: "server", Doc: "the same with naive=1"},
	{Name: "server.update_s", Unit: "s", Better: "lower", Layer: "server", Moves: []string{updS}, Doc: "/v1/update round trip for the same reweight scheme.update_s was timed on, beside one reader"},
	{Name: "server.update_overhead_s", Unit: "s", Better: "lower", Layer: "server", Moves: []string{updS}, Doc: "server.update_s minus scheme.update_s"},
	{Name: "server.swap_read_stall_max_us", Unit: "us", Better: "lower", Layer: "server", Doc: "longest reader frame while three such updates swapped the tables"},
	{Name: "server.churn_reader_qps", Unit: "1/s", Better: "higher", Layer: "server", Doc: "that reader's answers per second, 16-query frames, while the updates ran; scheduler leftovers, so it varies by half"},

	{Name: "wire.frames_per_s_d1", Unit: "1/s", Better: "higher", Layer: "wire", Moves: []string{smallR}, Doc: "16-query frames per second, 1 connection, 1 in flight"},
	{Name: "wire.frames_per_s_d16", Unit: "1/s", Better: "higher", Layer: "wire", Moves: []string{smallS}, Doc: "16-query frames per second, the same connection, 16 in flight"},
	{Name: "wire.rtt_p50_us", Unit: "us", Better: "lower", Layer: "wire", Moves: []string{smallR}, Doc: "median round trip of the depth-1 sample"},
	{Name: "wire.rtt_p99_us", Unit: "us", Better: "lower", Layer: "wire", Doc: "its p99"},
	{Name: "wire.rtt_p999_us", Unit: "us", Better: "lower", Layer: "wire", Doc: "its p99.9"},
	{Name: "wire.codec_ns_per_q", Unit: "ns", Better: "lower", Layer: "wire", Moves: []string{smallR}, Doc: "per query, PutQueryPayload+QueryAt+PutAnswerAt+AnswerAt"},
	{Name: "wire.transport_us", Unit: "us", Better: "lower", Layer: "wire", Moves: []string{smallR, relayR}, Doc: "wire.rtt_p50_us minus the in-process answer and codec of one frame: syscalls, scheduling, framing"},
	{Name: "wire.bulk_qps_d1", Unit: "1/s", Better: "higher", Layer: "wire", Doc: "answers per second, bulk frames, 1 in flight"},
	{Name: "wire.bulk_qps_d16", Unit: "1/s", Better: "higher", Layer: "wire", Moves: []string{bulkQ}, Doc: "the same, 16 in flight"},
	{Name: "wire.nexthop_qps", Unit: "1/s", Better: "higher", Layer: "wire", Doc: "next hops per second, bulk frames, 4 in flight"},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower", Layer: "wire", Moves: []string{smallR}, Doc: "heap allocations per 16-query frame, both ends, steady state"},
	{Name: "wire.open_p99_us", Unit: "us", Better: "lower", Layer: "wire", Doc: "p99 from due time to answer, open loop, seeded Poisson arrivals at half of wire.frames_per_s_d1 over 2 connections"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower", Layer: "wire", Doc: "p99 of how late that generator sent; a wire.open_p99_us not well above it measured the generator"},

	{Name: "cluster.relay_rtt_p50_us", Unit: "us", Better: "lower", Layer: "cluster", Moves: []string{relayR}, Doc: "median 16-query round trip through the coordinator's PDE2 relay over 2 daemons, 1 connection"},
	{Name: "cluster.relay_overhead_us", Unit: "us", Better: "lower", Layer: "cluster", Moves: []string{relayR}, Doc: "cluster.relay_rtt_p50_us minus wire.rtt_p50_us"},
	{Name: "cluster.relay_frames_per_s", Unit: "1/s", Better: "higher", Layer: "cluster", Moves: []string{"work_per_cal_s@serve-relay"}, Doc: "frames per second of that sample"},
	{Name: "cluster.http_relay_rtt_p50_us", Unit: "us", Better: "lower", Layer: "cluster", Doc: "median 16-query JSON round trip through the coordinator's HTTP proxy"},
	{Name: "cluster.relay_bulk_qps", Unit: "1/s", Better: "higher", Layer: "cluster", Doc: "answers per second, bulk frames through the relay, 4 in flight"},

	{Name: "ref.yardstick_ms", Unit: "ms", Better: "lower", Layer: "process", Doc: "the yardstick, the fixed computation calibrated time is scaled by, timed after each of the two quarter windows: nominal 50 ms, so calibrated time is wall time times 50 over this"},
	{Name: "op.samples", Unit: "count", Better: "higher", Layer: "process", Doc: "operations of record in the traced pass's untraced quarter window"},
	{Name: "op.p50_us", Unit: "us", Better: "lower", Layer: "process", Doc: "median of that sample, in wall microseconds"},
	{Name: "op.p99_us", Unit: "us", Better: "lower", Layer: "process", Doc: "p99 of that sample (the largest, below 100 samples)"},
	{Name: "op.max_us", Unit: "us", Better: "lower", Layer: "process", Doc: "largest of that sample"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "process", Doc: "VmHWM of the traced process"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower", Layer: "process", Doc: "MemStats.PauseTotalNs of the traced process"},
	{Name: "proc.mallocs_per_op", Unit: "count", Better: "lower", Layer: "process", Doc: "heap allocations per operation of record in that quarter window, whole process"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Layer: "process", Doc: "interquartile mean of the operation's time in the traced quarter window / in the untraced one, minus 1"},
	{Name: "trace.accounted_frac", Unit: "ratio", Better: "higher", Layer: "process", Doc: "share of the build, ref.update or ref.frame spans that their child spans cover"},
}
